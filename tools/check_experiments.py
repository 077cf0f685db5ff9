#!/usr/bin/env python3
"""Traces the measured numbers in EXPERIMENTS.md to the regenerated CSVs.

Three tables are checked:

* "Figures 4-6": each row's Measured column against the `average` row of
  its figure's CSV (fig4_*.csv, fig5_*.csv, fig6_*.csv in the results
  directory);
* "Figures 7-8": each "`metric` lo-hi%" cell against the minimum and
  maximum of that metric's row across BFS, TC and ESBV in
  fig8_coarse_z100l.csv (Z100L column) or fig7_coarse_a100.csv (A100
  column), and each BFS / TC / ESBV "Z100L op A100" cell against both CSV
  values, the comparison holding for them;
* "Ablation": each BFS / TC / ESBV cell against ablation_hypotheses.csv,
  matched on the Hypothesis column.

A cell matches when its first number equals the CSV value within half a
unit of the cell's last printed digit ("0.87x" accepts 0.865 to 0.875).
Every figure average and every hypothesis row of the CSVs must appear in
the document, and every document row must find its CSV row.  Exits 1 on any
mismatch or missing row, after listing them all.

Usage: tools/check_experiments.py [--experiments EXPERIMENTS.md]
                                  [--results bench_results]
"""

import argparse
import csv
import glob
import operator
import os
import re
import sys
from decimal import Decimal

ALGOS = ("BFS", "TC", "ESBV")
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?")
RANGE = re.compile(
    r"`([^`]+)`\s*(\d+(?:\.\d+)?)\s*[\u2013-]\s*(\d+(?:\.\d+)?)%")
COMPARISON = re.compile(r"^(\d+(?:\.\d+)?)\s*([<>])\s*(\d+(?:\.\d+)?)$")
HOLDS = {"<": operator.lt, ">": operator.gt}
COARSE_CSVS = (("Z100L", "fig8_coarse_z100l.csv"),
               ("A100", "fig7_coarse_a100.csv"))


def section_table(text, heading_prefix):
    """Rows (lists of stripped cells) of the first table after a heading."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith("## " + heading_prefix)), None)
    if start is None:
        return None
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip().strip("|").split("|")])
        elif rows:
            break
    # Drop the header and the |---| separator.
    return [r for r in rows[1:] if not set("".join(r)) <= set("-: ")]


def first_number(cell):
    match = NUMBER.search(cell.replace("*", ""))
    return match.group(0) if match else None


def matches(printed, value):
    """True when `value` rounds to `printed` at its printed precision."""
    digits = len(printed.split(".")[1]) if "." in printed else 0
    half_unit = Decimal(5) * Decimal(10) ** -(digits + 1)
    return abs(Decimal(printed) - Decimal(value)) <= half_unit


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_figures(text, results, errors):
    rows = section_table(text, "Figures 4")
    if rows is None:
        errors.append("EXPERIMENTS.md: no '## Figures 4-6' table")
        return
    averages = {}
    for fig in ("4", "5", "6"):
        paths = glob.glob(os.path.join(results, "fig%s_*.csv" % fig))
        if len(paths) != 1:
            errors.append("%s: expected one fig%s_*.csv, found %d"
                          % (results, fig, len(paths)))
            continue
        avg = [r for r in read_csv(paths[0]) if r["Workload"] == "average"]
        if not avg:
            errors.append("%s: no 'average' row" % paths[0])
            continue
        averages[fig] = (os.path.basename(paths[0]), avg[0])
    seen = set()
    figure = None
    for row in rows:
        if len(row) < 4:
            errors.append("Figures 4-6 row has too few cells: %s" % row)
            continue
        match = re.match(r"Fig (\d)", row[0])
        if match:
            figure = match.group(1)
        metric, measured = row[1], row[3]
        if figure not in averages or metric not in ALGOS:
            errors.append("Figures 4-6 row %s has no CSV average" % row)
            continue
        name, avg = averages[figure]
        printed = first_number(measured)
        value = first_number(avg[metric])
        seen.add((figure, metric))
        if printed is None or value is None or not matches(printed, value):
            errors.append("Fig %s %s: EXPERIMENTS.md says %r, %s average is %r"
                          % (figure, metric, measured, name, avg[metric]))
    for fig in averages:
        for algo in ALGOS:
            if (fig, algo) not in seen:
                errors.append("Fig %s %s: average missing from EXPERIMENTS.md"
                              % (fig, algo))


def check_coarse(text, results, errors):
    rows = section_table(text, "Figures 7")
    if rows is None:
        errors.append("EXPERIMENTS.md: no '## Figures 7-8' table")
        return
    metrics = {}
    for gpu, name in COARSE_CSVS:
        path = os.path.join(results, name)
        if not os.path.exists(path):
            errors.append("%s: missing" % path)
            return
        metrics[gpu] = {r["Metric"]: r for r in read_csv(path)}
    for row in rows:
        if len(row) < 6:
            errors.append("Figures 7-8 row has too few cells: %s" % row)
            continue
        csv_rows = {}
        for (gpu, name), cell in zip(COARSE_CSVS, row[1:3]):
            match = RANGE.search(cell)
            csv_row = match and metrics[gpu].get(match.group(1))
            if csv_row is None:
                errors.append("Figures 7-8 %s cell %r names no row of %s"
                              % (gpu, cell, name))
                continue
            csv_rows[gpu] = csv_row
            values = sorted(Decimal(first_number(csv_row[a])) for a in ALGOS)
            lo, hi = match.group(2), match.group(3)
            if not (matches(lo, values[0]) and matches(hi, values[-1])):
                errors.append("Figures 7-8 %s: EXPERIMENTS.md says %s-%s%%, "
                              "%s spans %s-%s%%" % (match.group(1), lo, hi,
                                                    name, values[0],
                                                    values[-1]))
        if len(csv_rows) < 2:
            continue
        for algo, cell in zip(ALGOS, row[3:6]):
            match = COMPARISON.match(cell)
            if match is None:
                errors.append("Figures 7-8 %s cell %r is not 'Z100L op A100'"
                              % (algo, cell))
                continue
            z100l, op, a100 = match.groups()
            z100l_csv = first_number(csv_rows["Z100L"][algo])
            a100_csv = first_number(csv_rows["A100"][algo])
            if not (matches(z100l, z100l_csv) and matches(a100, a100_csv)):
                errors.append("Figures 7-8 %s %s: EXPERIMENTS.md says %r, "
                              "the CSVs have %s and %s"
                              % (row[0], algo, cell, z100l_csv, a100_csv))
            elif not HOLDS[op](Decimal(z100l_csv), Decimal(a100_csv)):
                errors.append("Figures 7-8 %s %s: %s %s %s does not hold"
                              % (row[0], algo, z100l_csv, op, a100_csv))


def check_ablation(text, results, errors):
    rows = section_table(text, "Ablation")
    if rows is None:
        errors.append("EXPERIMENTS.md: no '## Ablation' table")
        return
    path = os.path.join(results, "ablation_hypotheses.csv")
    if not os.path.exists(path):
        errors.append("%s: missing" % path)
        return
    by_hypothesis = {r["Hypothesis"]: r for r in read_csv(path)
                     if r["Hypothesis"] != "-"}
    seen = set()
    for row in rows:
        if len(row) < 5:
            errors.append("Ablation row has too few cells: %s" % row)
            continue
        hypothesis = row[1]
        csv_row = by_hypothesis.get(hypothesis)
        if csv_row is None:
            errors.append("Ablation %s: no row in %s" % (hypothesis, path))
            continue
        seen.add(hypothesis)
        for algo, measured in zip(ALGOS, row[2:5]):
            printed = first_number(measured)
            value = first_number(csv_row[algo])
            if printed is None or value is None or not matches(printed, value):
                errors.append("Ablation %s %s: EXPERIMENTS.md says %r, "
                              "ablation_hypotheses.csv has %r"
                              % (hypothesis, algo, measured, csv_row[algo]))
    for hypothesis in sorted(set(by_hypothesis) - seen):
        errors.append("Ablation %s: row missing from EXPERIMENTS.md"
                      % hypothesis)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiments", default="EXPERIMENTS.md")
    parser.add_argument("--results", default="bench_results")
    args = parser.parse_args()
    with open(args.experiments) as f:
        text = f.read()
    errors = []
    check_figures(text, args.results, errors)
    check_coarse(text, args.results, errors)
    check_ablation(text, args.results, errors)
    for error in errors:
        print("MISMATCH: " + error)
    if errors:
        return 1
    print("EXPERIMENTS.md: Figures 4-6, Figures 7-8 and Ablation tables "
          "match %s" % args.results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
