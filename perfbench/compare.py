"""Compare result records of a parent commit and a change, metric by metric.

Run from the repository root:

    python3 perfbench/compare.py --base perfbench/results/A*.json \
        --head perfbench/results/B*.json

Each side is a set of records written by run.py for one workload and trace
mode. Prints each side's median and quartiles per metric and, for the
end-to-end metrics, whether the head's median is worse than the base's by
more than the bound in BENCHMARK.json. Refuses (exit 2) to compare records
whose kernel backend, workload or trace mode differ: the compiled and
pure-Python kernels differ by 50-113x, so such a comparison measures the
build, not the change.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def check_comparable(records: list[dict]) -> None:
    """Raise ValueError unless all records share backend, workload and trace mode."""
    for key in ("backend", "workload", "trace"):
        seen = {r["machine"][key] if key == "backend" else r[key] for r in records}
        if len(seen) > 1:
            raise ValueError(f"records differ in {key}: {sorted(map(str, seen))}")


def compare(base: list[dict], head: list[dict], spec: dict) -> list[str]:
    check_comparable(base + head)
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    lines = [f"{'metric':<48} {'base q1/med/q3':>32} {'head median':>12} {'change':>8}  verdict"]
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        bq1, bmed, bq3 = stats.quartiles(b)
        hmed = statistics.median(h)
        change = (hmed - bmed) / bmed if bmed else float("nan")
        verdict = ""
        if name in bounds:
            e = bounds[name]
            worse = change if e["better"] == "lower" else -change
            if (bq3 - bq1) / bmed > e["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "REGRESSED" if worse > e["bound"] else "within bound"
        lines.append(f"{name:<48} {bq1:>10.4g} {bmed:>10.4g} {bq3:>10.4g} "
                     f"{hmed:>12.4g} {change:>+8.1%}  {verdict}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two sets of perfbench results.")
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--head", nargs="+", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines = compare(load(args.base), load(args.head), spec)
    except ValueError as exc:
        print(f"compare: refusing: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
