#!/usr/bin/env python3
"""Run the benchmark from two source trees in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

Each pair runs ``benchmark/run.py --workload W --seed S --seconds 20
--trace 0`` once from each root, one run at a time; the parent goes first in
odd pairs and the change in even ones. For every end-to-end metric that the
change's ``BENCHMARK.json`` names, it prints each side's median and
inclusive quartiles, the pairs in which the change reads better, and
whether the gain rule holds: better in at least nine of every ten pairs,
and the difference in medians larger than the parent's interquartile
range. Beside each scaled median it prints each side's unscaled
(as measured) median, and each side's median speed factor, both read from
the report every run saves under ``<root>/.bench_out/results/``: the
scaled figures divide by a factor that the harness measures, so a gain
should show in the unscaled medians too. ``--out FILE`` also writes every
run's result as JSON. Nothing under ``benchmark/`` is changed.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line (the last line of standard output) of one run from
    ``root``, with the unscaled metrics and the speed factor of the report it saved."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: no result\n{done.stderr}")
    result = json.loads(lines[-1])
    saved = json.loads((root / ".bench_out" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["measured"] = saved["end_to_end_measured"]
    result["speed_factor"] = saved["end_to_end"]["speed_factor"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            runs[side].append(run(root, args.workload, args.seed, args.seconds))
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs, "metrics": {}}
    factors = {side: [result["speed_factor"] for result in results] for side, results in runs.items()}
    report["speed_factor"] = {side: {"median": statistics.median(values), "runs": values}
                              for side, values in factors.items()}
    print(f"speed factor: parent {report['speed_factor']['parent']['median']:.4f}  "
          f"change {report['speed_factor']['change']['median']:.4f}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [result["metrics"][name]["value"] for result in runs["parent"]]
        change = [result["metrics"][name]["value"] for result in runs["change"]]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p_low, p_median, p_high), (c_low, c_median, c_high) = quartiles(parent), quartiles(change)
        gain = (p_median - c_median) if lower else (c_median - p_median)
        holds = won >= math.ceil(0.9 * args.pairs) and gain > p_high - p_low
        unscaled = {side: statistics.median(result["measured"][name] for result in results)
                    for side, results in runs.items()}
        report["metrics"][name] = {
            "parent": {"median": p_median, "quartiles": [p_low, p_high], "runs": parent},
            "change": {"median": c_median, "quartiles": [c_low, c_high], "runs": change},
            "change_pct": 100 * (c_median - p_median) / p_median if p_median else None,
            "pairs_won": won, "gain_rule_holds": holds,
            "unscaled_median": unscaled,
        }
        print(f"{name}: parent {p_median:.6g} [{p_low:.6g}, {p_high:.6g}]  change {c_median:.6g} "
              f"[{c_low:.6g}, {c_high:.6g}]  won {won}/{args.pairs}  rule {'holds' if holds else 'fails'}  "
              f"unscaled parent {unscaled['parent']:.6g} change {unscaled['change']:.6g}")
    report["failed"] = {side: [result["failed"] for result in results] for side, results in runs.items()}
    report["attempted"] = {side: [result["attempted"] for result in results] for side, results in runs.items()}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
