#!/usr/bin/env python3
"""Per-layer comparer: reads two sets of traced runs and flags each
per-layer metric whose median moved by more than the parent's own spread.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of traced runs, one file
per run (`python3 perfbench/run.py --workload W --seed N --seconds S
--trace 1 > DIR/W-N.out`). Runs are grouped by the workload named on the
harness's `workload ...` line. A metric is flagged when
|median(change) - median(parent)| exceeds the interquartile range of the
parent's runs (statistics.quantiles, n=4); with fewer than two parent runs
every move is flagged. The comparer only reports: whether a change passes
is decided on the end-to-end metrics, not here.
"""

import json
import pathlib
import statistics
import sys


def load(directory):
    """{workload: {metric: [values]}} from every run file in `directory`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        workload = next((l.split()[1] for l in lines
                         if l.startswith("workload ")), None)
        if workload is None or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        per = runs.setdefault(workload, {})
        for name, m in result["metrics"].items():
            per.setdefault(name, []).append(float(m["value"]))
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    flagged = 0
    for workload in sorted(set(parent) & set(change)):
        print(f"{workload}: {len(next(iter(parent[workload].values())))} parent "
              f"runs, {len(next(iter(change[workload].values())))} change runs")
        print(f"  {'metric':<30} {'parent':>14} {'change':>14} {'moved':>9} "
              f"{'parent IQR':>12}")
        for name in sorted(set(parent[workload]) & set(change[workload])):
            p, c = parent[workload][name], change[workload][name]
            pm, cm, iqr = statistics.median(p), statistics.median(c), spread(p)
            moved = cm - pm
            rel = f"{moved / pm:+.1%}" if pm else ("0" if moved == 0 else "new")
            flag = abs(moved) > iqr and moved != 0
            flagged += flag
            print(f"  {name:<30} {pm:>14.6g} {cm:>14.6g} {rel:>9} {iqr:>12.4g}"
                  f"{'  FLAG' if flag else ''}")
    print(f"{flagged} per-layer metric(s) moved beyond the parent's spread")
    return 0


if __name__ == "__main__":
    sys.exit(main())
