#!/usr/bin/env python3
"""Counts C++ code lines per directory at two commits.

Usage: tools/code_lines.py BASE [HEAD] [--depth N]

A code line is a line of a .h, .cc or .cpp file that is neither blank nor
a `//` comment.  Lines are grouped by the first N path components (default
1, the top-level directories; `--depth 2` splits src/ into src/engine/ and
so on).  Both trees are read through git, so neither needs a checkout; HEAD
defaults to the current commit.  Run it from inside the repository.
"""

import argparse
import subprocess
import sys
from collections import Counter

EXTENSIONS = (".h", ".cc", ".cpp")


def git(*args, stdin=None):
    done = subprocess.run(["git", *args], input=stdin, capture_output=True)
    if done.returncode != 0:
        sys.exit(f"git {args[0]}: {done.stderr.decode().strip()}")
    return done.stdout


def code_lines(rev, depth):
    """Code lines per directory prefix at `rev`; "./" holds root files."""
    files = []  # (blob id, path)
    for entry in git("ls-tree", "-r", "-z", rev).split(b"\0"):
        if not entry:
            continue
        meta, path = entry.split(b"\t", 1)
        _, kind, blob = meta.split()
        path = path.decode()
        if kind == b"blob" and path.endswith(EXTENSIONS):
            files.append((blob.decode(), path))
    # One `git cat-file --batch` streams every blob: "<id> blob <size>\n",
    # the contents, then "\n".
    stream = git("cat-file", "--batch",
                 stdin="".join(blob + "\n" for blob, _ in files).encode())
    counts = Counter()
    pos = 0
    for _, path in files:
        header_end = stream.index(b"\n", pos)
        size = int(stream[pos:header_end].split()[2])
        body = stream[header_end + 1:header_end + 1 + size]
        pos = header_end + 1 + size + 1
        parts = path.split("/")[:-1][:depth]
        key = "/".join(parts) + "/" if parts else "./"
        counts[key] += sum(1 for line in body.splitlines()
                           if line.strip() and
                           not line.lstrip().startswith(b"//"))
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--depth", type=int, default=1)
    args = parser.parse_args()
    if args.depth < 1:
        parser.error("--depth must be at least 1")
    base = code_lines(args.base, args.depth)
    head = code_lines(args.head, args.depth)
    rows = [(d, base[d], head[d]) for d in sorted(set(base) | set(head))]
    rows.append(("total", sum(base.values()), sum(head.values())))
    width = max(len(d) for d, _, _ in rows)
    bw, hw = max(10, len(args.base)), max(10, len(args.head))
    print(f"{'directory':<{width}}  {args.base:>{bw}}  {args.head:>{hw}}  "
          f"{'change':>7}")
    for d, b, h in rows:
        print(f"{d:<{width}}  {b:>{bw}}  {h:>{hw}}  {h - b:>+7}")


if __name__ == "__main__":
    main()
