"""The repo benchmark's contract with the program, checked by the test suite.

``benchmark/tracing.py`` wraps program functions by the module attribute
names their callers look up. A refactor that renames or bypasses one of
them leaves the untraced benchmark working but zeroes a traced per-layer
metric; these tests make it fail here too.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs every toy workload traced and prints, as the last line, a JSON map of
# workload -> the BENCHMARK.json per-layer metrics that came out zero.
ZERO_LAYERS = """
import json, sys
sys.path.insert(0, "benchmark")
import run
run.load_program()
from workloads import TOY_PARAMS
wanted = [m["name"] for m in run.spec()["per_layer"]]
zero = {}
for name, params in TOY_PARAMS.items():
    measured = run.measure(name, seed=3, seconds=0.2, traced=True, params=params)
    result, _ = run.report(name, 3, 0.2, True, measured, params)
    zero[name] = [m for m in wanted if not result["metrics"][m]["value"] > 0]
print(json.dumps(zero))
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_benchmark_selftest_passes():
    result = _run("benchmark/selftest.py")
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_traced_layer_metrics_are_nonzero():
    result = _run("-c", ZERO_LAYERS)
    assert result.returncode == 0, result.stderr[-2000:]
    zero = json.loads(result.stdout.splitlines()[-1])
    assert zero == {"submit-large-ring": [], "access-long-history": [], "enroll-and-submit": []}
