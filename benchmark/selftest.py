"""Toy-size self-test of the benchmark: rings of about eight keys.

    python3 benchmark/selftest.py

Runs every workload untraced and traced at toy sizes and checks that
every operation gets its expected verdict, that every metric named in
``BENCHMARK.json`` and in ``run.py``'s workload and layer tables is
emitted with a finite value, that the exact laws hold on what was
measured, that the tracer leaves the program as it found it, and that
the law checks reject values off by one. Exits non-zero on the first
failure.
"""

from __future__ import annotations

import math
import sys

import run


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def main() -> int:
    run.load_program()
    from phrchain import consensus, ledger
    from phrchain.group import GroupParams
    from workloads import (
        TOY_PARAMS, LawError, check_patient_block, credential_bytes, package_items,
        patient_block_bytes, simulated_seconds,
    )

    bench = run.spec()
    originals = (GroupParams.exp, ledger.credential_prove, consensus.verify_block)
    for name, params in TOY_PARAMS.items():
        for traced in (False, True):
            measured = run.measure(name, seed=3, seconds=0.2, traced=traced, params=params)
            result, full = run.report(name, 3, 0.2, traced, measured, params)
            label = f"{name} trace={int(traced)}"
            check(measured["errors"] == [], f"{label}: operations raised {measured['errors']}")
            check(result["correct"] and result["failed"] == 0, f"{label}: {result}")
            check(result["attempted"] >= 4, f"{label}: only {result['attempted']} operations")
            wanted = bench["per_layer" if traced else "end_to_end"]
            check(set(result["metrics"]) == {m["name"] for m in wanted}, f"{label}: metric set {set(result['metrics'])}")
            for metric in wanted:
                value = result["metrics"][metric["name"]]
                check(value["unit"] == metric["unit"] and math.isfinite(value["value"]), f"{label}: {metric}")
            e2e = full["end_to_end"]
            for metric in run.WORKLOAD_METRICS[name]:
                check(metric in e2e and math.isfinite(e2e[metric]), f"{label}: {metric} missing")

            outcomes = measured["outcomes"]
            workload = measured["workload"]
            if name == "access-long-history":
                k_items = {o.package_items for o in outcomes}
                check(all((items - 2) % 3 == 0 and items >= 5 for items in k_items), f"{label}: items {k_items}")
            else:
                m_hospitals = params.hospitals
                sizes = {b for o in outcomes for b in o.block_bytes}
                rings = {(b - 733) // 96 - m_hospitals for b in sizes}
                check(all(patient_block_bytes(m, m_hospitals) in sizes for m in rings), f"{label}: {sizes}")
                check(set(c for o in outcomes for c in o.credential_bytes) == {credential_bytes(m) for m in rings},
                      f"{label}: credential bytes")
            if traced:
                layers = full["per_layer"]
                for metric in run.LAYER_METRICS:
                    check(metric in layers and math.isfinite(layers[metric]), f"{label}: {metric} missing")
                check(layers["consensus.simulated_s"] == simulated_seconds(workload.pool), f"{label}: clock")
                check(layers["group.exp.calls"] > 0 and layers["bench.op.s"] > 0, f"{label}: no spans")
                total = sum(layers[f"{m}.self_s"] for m in run.MODULES)
                check(abs(total - layers["bench.op.s"]) <= 1e-6 * max(1, measured["attempted"]),
                      f"{label}: module self times {total} != op time {layers['bench.op.s']}")
            check((GroupParams.exp, ledger.credential_prove, consensus.verify_block) == originals,
                  f"{label}: tracer left instruments installed")
        print(f"selftest ok: {name}")

    # The law checks themselves must reject an off-by-one.
    good = b"\x01" + (credential_bytes(2)).to_bytes(4, "big") + bytes(credential_bytes(2))
    good += credential_bytes(3).to_bytes(4, "big") + bytes(credential_bytes(3))
    good += bytes(patient_block_bytes(2, 3) - len(good))
    check(check_patient_block(good, 2, 3) == credential_bytes(2), "law check on a well-sized block")
    for wire, m in ((good + b"\x00", (2, 3)), (good, (3, 2)), (good, (2, 4))):
        try:
            check_patient_block(wire, *m)
        except LawError:
            continue
        check(False, f"law check accepted {len(wire)} bytes at m={m}")
    check(package_items(16) == 50, "package law")
    print("selftest ok: laws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
