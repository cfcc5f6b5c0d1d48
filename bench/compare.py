"""Compare benchmark runs of a parent commit and of a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of ``bench/run.py`` runs, one
file per run, named ``<workload>-<seed>.log``; the last line of each file
is the run's result object. A parent run and a change run of the same file
name form a pair. Make at least ten pairs per workload, alternating which
side runs first.

One row is printed per workload and end-to-end metric of BENCHMARK.json,
plus one for the error rate (failed / attempted). Each row gives both
sides' median and quartiles, the share of pairs the change won (ties count
for neither) and a verdict:

- improved: the change won at least 9 of 10 pairs and the medians differ by
  more than the distance between the parent's quartiles;
- unresolved: the parent's own spread is wider than the metric's bound and
  the runs do not separate;
- regressed: the change's median is worse than the parent's by more than
  the bound;
- within bound: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory: Path) -> dict[str, dict]:
    runs = {}
    for path in sorted(directory.glob("*.log")):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if not lines:
            raise SystemExit(f"error: {path} is empty")
        try:
            runs[path.stem] = json.loads(lines[-1])
        except json.JSONDecodeError:
            raise SystemExit(f"error: the last line of {path} is not a result object") from None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int, bound: float, lower_is_better: bool) -> str:
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (cm - pm) / pm  # > 0 when the change is worse
    if pairs and wins >= 0.9 * pairs and worse_by < 0 and abs(cm - pm) > p3 - p1:
        return "improved"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) / pm > bound and not all_better and not (all_worse and worse_by > bound):
        return "unresolved"
    return "regressed" if worse_by > bound else "within bound"


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> list[list[str]]:
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    for workload in workloads:
        keys = sorted(k for k in parent_runs if k.split("-")[0] == workload and k in change_runs)
        if not keys:
            continue
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            pairs = [(parent_runs[k]["metrics"][name]["value"], change_runs[k]["metrics"][name]["value"]) for k in keys]
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            rows.append([
                workload, name, metric["unit"],
                f"{pm:.4g} [{p1:.4g}, {p3:.4g}]", f"{cm:.4g} [{c1:.4g}, {c3:.4g}]",
                f"{100 * (cm - pm) / pm:+.1f}%", f"{wins}/{len(pairs)}",
                verdict(parent, change, wins, len(pairs), metric["bound"], lower),
            ])
        rates = []
        for runs in (parent_runs, change_runs):
            attempted = sum(runs[k]["attempted"] for k in keys)
            failed = sum(runs[k]["failed"] for k in keys)
            rates.append(failed / attempted if attempted else 0.0)
        ratio_verdict = "regressed" if rates[1] > rates[0] else "improved" if rates[1] < rates[0] else "within bound"
        rows.append([workload, "error_rate", "ratio", f"{rates[0]:.4g}", f"{rates[1]:.4g}", "", "", ratio_verdict])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's run logs")
    parser.add_argument("change", type=Path, help="directory of the change's run logs")
    args = parser.parse_args(argv)

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    if not rows:
        print("error: no pair of runs with the same file name", file=sys.stderr)
        return 1
    header = ["workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "change", "won", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
