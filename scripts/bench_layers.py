#!/usr/bin/env python3
"""Time the group and ring-proof layers of the phrchain on the import path.

Prints one JSON object of medians in seconds:

    PYTHONPATH=src python scripts/bench_layers.py --seed 2 --repeats 5

Rows: ``g^x`` (fixed-base), ``pow`` (a 256-bit variable-base ``pow``, the
speed reference), building one ring key's comb table and one keyed
exponentiation through a built table (``keygen`` keys, the same scalars
as ``pow``; every keyed result is checked against ``pow`` first), the
subgroup test, one consensus vote over 800 miners
(40% malicious) on a request block given no chain, which ``verify_block``
rejects at once so that the row times the vote loop alone, the 2m-base
product that ring verification evaluates, and ring prove / verify at
m = 1000 and 4000, with ring verify also at m = 200. A second object,
``counts``, holds the Jacobi-symbol evaluations one ring verification
makes at m = 200, 1000 and 4000.
"""

import argparse
import json
import os
import platform
import random
import statistics
import time

from phrchain import (
    MinerPool,
    RequestBlock,
    TimeRange,
    keygen,
    new_directories,
    ring_prove,
    ring_verify,
    run_consensus,
    sign,
)
from phrchain import group as group_module
from phrchain.group import GroupParams, _key_comb_table


def median_time(fn, repeats: int, per_call: int = 1) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) / per_call)
    return statistics.median(samples)


def jacobi_calls(fn) -> int:
    """Jacobi symbols evaluated by the group module during fn()."""
    calls = 0
    original = group_module._jacobi

    def counted(a: int, n: int) -> int:
        nonlocal calls
        calls += 1
        return original(a, n)

    group_module._jacobi = counted
    try:
        fn()
    finally:
        group_module._jacobi = original
    return calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    group = GroupParams.default()
    rng = random.Random(args.seed)
    p, q, g = group.modulus, group.order, group.generator
    scalars = [rng.randrange(1, q) for _ in range(2000)]
    elements = [pow(rng.randrange(2, p - 1), 2, p) for _ in range(2000)]
    rows = {
        "pow_s": median_time(lambda: [pow(g, x, p) for x in scalars], args.repeats, len(scalars)),
        "g_exp_s": median_time(lambda: [group.exp(g, x) for x in scalars], args.repeats, len(scalars)),
    }
    # A separate stream, so the rows below draw the same inputs as before.
    key_rng = random.Random(f"keys-{args.seed}")
    keys = [keygen(group, key_rng).public for _ in scalars]
    if any(group.key_exp(y, x) != pow(y, x, p) for y, x in zip(keys, scalars)):
        raise SystemExit("a keyed exponentiation differs from pow")

    def build_tables():
        _key_comb_table.cache_clear()
        for y in keys:
            _key_comb_table(p, q, y)

    rows |= {
        "key_comb_build_s": median_time(build_tables, args.repeats, len(keys)),
        "key_comb_exp_s": median_time(
            lambda: [group.key_exp(y, x) for y, x in zip(keys, scalars)], args.repeats, len(scalars)
        ),
        "is_element_s": median_time(
            lambda: [group.is_element(x) for x in elements], args.repeats, len(elements)
        ),
    }
    counts = {}
    # The 200-key ring draws from its own stream, so the rows at 1000 and
    # 4000 keys keep the inputs they had before it was added.
    small_rng = random.Random(f"ring-200-{args.seed}")
    small = [keygen(group, small_rng) for _ in range(200)]
    small_ring = [kp.public for kp in small]
    small_proof = ring_prove(group, small_ring, 100, small[100].secret, b"ctx", small_rng)
    if not ring_verify(group, small_ring, small_proof, b"ctx"):
        raise SystemExit("honest ring proof rejected at m=200")
    rows["ring_verify_m200_s"] = median_time(
        lambda: ring_verify(group, small_ring, small_proof, b"ctx"), args.repeats
    )
    counts["jacobi_calls_per_verify_m200"] = jacobi_calls(
        lambda: ring_verify(group, small_ring, small_proof, b"ctx")
    )
    for m in (1000, 4000):
        kps = [keygen(group, rng) for _ in range(m)]
        ring = [kp.public for kp in kps]
        bases = [pow(rng.randrange(2, p - 1), 2, p) for _ in range(m)] + ring
        exponents = [rng.getrandbits(128) for _ in range(m)] + [rng.randrange(q) for _ in range(m)]
        proof = ring_prove(group, ring, m // 2, kps[m // 2].secret, b"ctx", rng)
        if not ring_verify(group, ring, proof, b"ctx"):
            raise SystemExit(f"honest ring proof rejected at m={m}")
        rows[f"multi_exp_{2 * m}_bases_s"] = median_time(
            lambda: group.multi_exp(bases, exponents), args.repeats
        )
        rows[f"ring_prove_m{m}_s"] = median_time(
            lambda: ring_prove(group, ring, m // 2, kps[m // 2].secret, b"ctx", rng), args.repeats
        )
        rows[f"ring_verify_m{m}_s"] = median_time(
            lambda: ring_verify(group, ring, proof, b"ctx"), args.repeats
        )
        counts[f"jacobi_calls_per_verify_m{m}"] = jacobi_calls(
            lambda: ring_verify(group, ring, proof, b"ctx")
        )
    researcher = keygen(group, rng)
    signature = sign(group, researcher, b"", rng)
    request = RequestBlock(bytes(32), TimeRange(1, 2), researcher.public, signature, group)
    directories, pool = new_directories(group), MinerPool(800, 0.4)
    if run_consensus(request, pool, directories, 0).approvals:
        raise SystemExit("a request block given no chain was approved")
    rows["run_consensus_800_s"] = median_time(
        lambda: [run_consensus(request, pool, directories, seed) for seed in range(50)], args.repeats, 50
    )
    print(json.dumps({
        "seed": args.seed,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "medians": rows,
        "counts": counts,
    }))


if __name__ == "__main__":
    main()
