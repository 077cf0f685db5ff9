#!/usr/bin/env python3
"""Validates a Chrome-trace JSON file as emitted by the adgraph tracer.

Used by CI against the `adgraph_cli --trace=FILE` exports of the
single-run, serve-batch and serve modes (trace::Stop writes them): the
file must be an object with a `traceEvents` array; every event
must be a metadata ("M"), complete ("X"), or instant ("i") record with the
fields Chrome's trace viewer needs; every referenced track (tid) must be
named by a `thread_name` metadata record; complete events on one track
must nest properly (a span either contains or is disjoint from every other
span on its track — partial overlap means the span tree is corrupt); and
kernel-category spans must carry the modeled-timing args the profile
pipeline derives from.

Usage:
    validate_trace.py FILE [--require-cat CAT]... [--require-arg CAT=KEY]...

`--require-cat CAT` asserts at least one event of category CAT is present.
`--require-arg CAT=KEY` asserts every X event of category CAT has args KEY
(kernel spans are always checked for `cycles` and `modeled_ms`).

Exit status 0 when the file parses cleanly and all requirements hold.
"""

import argparse
import json
import sys

# Span endpoints are microsecond doubles measured on one steady clock, so
# true containment is exact; the epsilon only absorbs float printing.
NEST_EPSILON_US = 0.01

ALWAYS_REQUIRED_ARGS = {'kernel': ['cycles', 'modeled_ms']}

# Interval annotations, not span-tree nodes: several jobs legitimately wait
# on one worker's queue at once, so their backdated wait spans overlap.
OVERLAP_OK = {'queue_wait'}


def validate_events(events, require_args, overlap_ok, errors):
    named_tids = set()
    used_tids = set()
    spans_by_tid = {}
    categories = set()

    for number, event in enumerate(events):
        where = f'event {number}'
        if not isinstance(event, dict):
            errors.append(f'{where}: not an object')
            continue
        ph = event.get('ph')
        if ph == 'M':
            if event.get('name') == 'thread_name':
                named_tids.add(event.get('tid'))
            continue
        if ph not in ('X', 'i'):
            errors.append(f'{where}: unknown phase {ph!r}')
            continue
        name = event.get('name')
        if not isinstance(name, str) or not name:
            errors.append(f'{where}: missing or empty name')
            continue
        where = f'event {number} ({name!r})'
        if not isinstance(event.get('cat'), str):
            errors.append(f'{where}: missing cat')
            continue
        categories.add(event['cat'])
        tid = event.get('tid')
        used_tids.add(tid)
        ts = event.get('ts')
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f'{where}: bad ts {ts!r}')
            continue
        if ph == 'i':
            if event.get('s') != 't':
                errors.append(f'{where}: instant without thread scope s="t"')
            continue
        dur = event.get('dur')
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(f'{where}: X event with bad dur {dur!r}')
            continue
        if name not in overlap_ok:
            spans_by_tid.setdefault(tid, []).append((ts, ts + dur, name))
        args = event.get('args', {})
        for key in require_args.get(event['cat'], []):
            if key not in args:
                errors.append(f'{where}: {event["cat"]} span missing '
                              f'required arg {key!r}')

    for tid in sorted(used_tids - named_tids, key=repr):
        errors.append(f'tid {tid}: referenced by events but never named by '
                      f'a thread_name metadata record')

    # Nesting per track: walking spans by (start asc, end desc), every span
    # must close before the enclosing one does.  X events are emitted at
    # span end, so *file* order is end order — sort before checking.
    for tid, spans in sorted(spans_by_tid.items(), key=lambda kv: repr(kv[0])):
        stack = []
        for start, end, name in sorted(spans, key=lambda s: (s[0], -s[1])):
            while stack and start >= stack[-1][1] - NEST_EPSILON_US:
                stack.pop()
            if stack and end > stack[-1][1] + NEST_EPSILON_US:
                errors.append(
                    f'tid {tid}: span {name!r} [{start}, {end}] partially '
                    f'overlaps {stack[-1][2]!r} [{stack[-1][0]}, '
                    f'{stack[-1][1]}] — the span tree is corrupt')
                continue
            stack.append((start, end, name))

    return categories, spans_by_tid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('file')
    parser.add_argument('--require-cat', action='append', default=[],
                        help='category that must have >= 1 event')
    parser.add_argument('--require-arg', action='append', default=[],
                        metavar='CAT=KEY',
                        help='every X event of CAT must carry args KEY')
    parser.add_argument('--overlap-ok', action='append', default=[],
                        metavar='NAME',
                        help='span name exempt from the nesting check')
    args = parser.parse_args()

    errors = []
    try:
        with open(args.file, encoding='utf-8') as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f'validate_trace: {args.file}: {error}', file=sys.stderr)
        return 1

    events = trace.get('traceEvents') if isinstance(trace, dict) else None
    if not isinstance(events, list):
        print(f'validate_trace: {args.file}: no traceEvents array',
              file=sys.stderr)
        return 1

    require_args = {cat: list(keys)
                    for cat, keys in ALWAYS_REQUIRED_ARGS.items()}
    for spec in args.require_arg:
        cat, _, key = spec.partition('=')
        if not key:
            parser.error(f'--require-arg wants CAT=KEY, got {spec!r}')
        require_args.setdefault(cat, []).append(key)

    overlap_ok = OVERLAP_OK | set(args.overlap_ok)
    categories, spans_by_tid = validate_events(events, require_args,
                                               overlap_ok, errors)

    for cat in args.require_cat:
        if cat not in categories:
            errors.append(f'required category missing: {cat}')

    if errors:
        for error in errors:
            print(f'validate_trace: {error}', file=sys.stderr)
        return 1
    num_spans = sum(len(spans) for spans in spans_by_tid.values())
    print(f'validate_trace: OK — {num_spans} spans on '
          f'{len(spans_by_tid)} tracks, {len(categories)} categories')
    return 0


if __name__ == '__main__':
    sys.exit(main())
