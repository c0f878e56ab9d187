#!/usr/bin/env python3
"""Count how often the wall-clock gates fail on two source trees, each run in a fresh process.

    python3 scripts/gate_counts.py PARENT_DIR CHANGE_DIR --runs N [--gate NAME ...] [--out FILE]

The gates are acceptance criteria 03 (block-creation scaling) and 06
(researcher-access constancy) and
``test_creation_time_nondecreasing_in_total_size``. Each run runs every
gate once from each tree, one pytest process per gate, with that tree's
``src`` on the import path; the parent goes first in odd runs and the
change in even ones. Every gate's line is printed as it ends: the
criterion's report line, or the failing assertion. Then the failures per
gate and side. ``--gate NAME`` (repeatable) runs only the gates whose
test id contains NAME. ``--out FILE`` also writes every line and count as
JSON.
No gate, bound or input is changed: the tests run as each tree has them.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

GATES = (
    "tests/test_acceptance.py::test_criterion_03_block_creation_scaling",
    "tests/test_acceptance.py::test_criterion_06_researcher_access_constancy",
    "tests/test_bench.py::TestBlockCreationBench::test_creation_time_nondecreasing_in_total_size",
)


def run_gate(root: Path, gate: str) -> tuple[bool, str]:
    """Whether ``gate`` passed in a fresh process from ``root``, and its line."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", gate]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    line = next((line for line in lines if line.startswith("[acceptance")), None)
    if line is None:
        line = next((line.strip() for line in lines if line.lstrip().startswith("E       assert")), None)
    return done.returncode == 0, line or ("passed" if done.returncode == 0 else lines[-1] if lines else "no output")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--gate", action="append", help="run only the gates whose test id contains this")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    gates = [gate for gate in GATES if not args.gate or any(name in gate for name in args.gate)]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {side: {gate: [] for gate in gates} for side in roots}
    for run in range(args.runs):
        for side in ("parent", "change") if run % 2 == 0 else ("change", "parent"):
            for gate in gates:
                passed, line = run_gate(roots[side], gate)
                results[side][gate].append({"passed": passed, "line": line})
                print(f"run {run + 1}/{args.runs} {side} {gate.rsplit('::', 1)[-1]}: "
                      f"{'pass' if passed else 'FAIL'}: {line}", flush=True)
    failures = {side: {gate: sum(not r["passed"] for r in runs) for gate, runs in gates.items()}
                for side, gates in results.items()}
    for gate in gates:
        print(f"{gate.rsplit('::', 1)[-1]}: failed parent {failures['parent'][gate]}/{args.runs}, "
              f"change {failures['change'][gate]}/{args.runs}")
    if args.out:
        args.out.write_text(json.dumps({"runs": args.runs, "failures": failures, "results": results}, indent=1))


if __name__ == "__main__":
    main()
