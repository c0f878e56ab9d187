"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import math
import random
import time
from statistics import fmean, pstdev

from phrchain import (
    CredentialProof,
    DisclosurePackage,
    MinerPool,
    OffChainStore,
    PatientContext,
    PatientSecrets,
    RingProof,
    SchnorrProof,
    build_disclosure_package,
    chain_state,
    create_patient_block,
    credential_prove,
    credential_verify,
    digest,
    keygen,
    run_consensus,
    schnorr_prove,
    state_commitment,
    verify_disclosure,
)
from phrchain.bench import BenchConfig, bench_researcher_access
from phrchain.consensus import approval_threshold
from phrchain.crypto import _commitment_bytes, _joint_context, _ring_binding_challenge
from phrchain.encoding import FormatError

from test_access import synth_secrets


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_package_size_law(group):
    expected = {1: 5, 4: 14, 16: 50, 64: 194}
    counts = {}
    for k in expected:
        secrets = synth_secrets(group, k, seed=k)
        package = build_disclosure_package(secrets, [r.block_id for r in secrets.records])
        counts[k] = len(package.items)
    ok = counts == expected
    report(1, "package-size-law", ok, f"items per k: {counts}")


def test_criterion_02_transcript_linearity(group):
    rng = random.Random(100)
    sizes = {}
    for m in (1000, 2000, 4000):
        kps = [keygen(group, rng) for _ in range(m)]
        ring = [kp.public for kp in kps]
        block_kp = keygen(group, rng)
        proof = credential_prove(group, ring, 0, kps[0].secret, block_kp, rng)
        sizes[m] = len(proof.to_bytes(group))
    a = (sizes[2000] - sizes[1000]) / 1000
    c = sizes[1000] - a * 1000
    residual = abs(sizes[4000] - (a * 4000 + c)) / sizes[4000]
    ok = residual < 0.01
    report(2, "transcript-linearity", ok, f"sizes={sizes}, fit residual={residual:.2e}")


def test_criterion_03_block_creation_scaling(group):
    rng = random.Random(101)
    folds = 3
    sizes = (1000, 2000, 4000)  # registry halves; total ring work is 2x each
    max_size = max(sizes)
    patient_kps = [keygen(group, rng) for _ in range(max_size)]
    hospital_kps = [keygen(group, rng) for _ in range(max_size)]

    from phrchain.registry import Directories, Registry

    timings = {}
    for size in sizes:
        directories = Directories(
            patients=Registry(group, "patient", [kp.public for kp in patient_kps[:size]]),
            hospitals=Registry(group, "hospital", [kp.public for kp in hospital_kps[:size]]),
            researchers=Registry(group, "researcher", []),
        )
        hospital = _hospital_ctx(hospital_kps[0])
        samples = []
        for _ in range(folds):
            patient = PatientContext(identity=patient_kps[0], index=0, secrets=PatientSecrets())
            store = OffChainStore()
            started = time.perf_counter()
            create_patient_block(
                patient, hospital, b"payload", bytes(32), directories, store, visit_time=1, rng=rng
            )
            samples.append(time.perf_counter() - started)
        timings[2 * size] = min(samples)
    r1 = timings[4000] / timings[2000]
    r2 = timings[8000] / timings[4000]
    ok = 1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4
    report(
        3,
        "block-creation-scaling",
        ok,
        f"seconds={{{', '.join(f'{k}: {v:.3f}' for k, v in timings.items())}}}, ratios={r1:.2f}, {r2:.2f}",
    )


def _hospital_ctx(kp):
    from phrchain import HospitalContext

    return HospitalContext(identity=kp, index=0)


def test_criterion_04_consensus_quadratic_scaling(make_world):
    world = make_world(patients=2, hospitals=2, seed=102)
    block, _ = world.submit_block(world.patient(), b"scaling probe", 1, append=False)
    times = {}
    for n in (100, 200, 400, 800):
        pool = MinerPool(n_miners=n, verify_seconds=1e-3, verify_jitter=0.0, pair_seconds=1e-6)
        times[n] = run_consensus(block, pool, world.directories, seed=0).simulated_time
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    x_mean, y_mean = fmean(xs), fmean(ys)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
        (x - x_mean) ** 2 for x in xs
    )
    ok = 1.9 <= slope <= 2.1
    report(4, "consensus-quadratic-scaling", ok, f"log-log slope={slope:.3f}")


def test_criterion_05_robustness_threshold(make_world):
    world = make_world(patients=2, hospitals=2, seed=103)
    block, _ = world.submit_block(world.patient(), b"threshold probe", 1, append=False)
    checked = 0
    for n in range(2, 65):
        for malicious_count in range(n + 1):
            pool = MinerPool(n_miners=n, malicious_fraction=malicious_count / n)
            assert pool.n_malicious == malicious_count
            result = run_consensus(block, pool, world.directories, seed=n * 1000 + malicious_count)
            honest = n - malicious_count
            assert result.approvals == honest
            assert result.approved == (honest >= approval_threshold(n)), (n, malicious_count)
            checked += 1
    # Exactly 50% malicious must still approve a valid block.
    for n in range(2, 65, 2):
        result = run_consensus(
            block, MinerPool(n_miners=n, malicious_fraction=0.5), world.directories, seed=n
        )
        assert result.approved, f"rejected at exactly 50% malicious, n={n}"
    report(5, "robustness-threshold", True, f"{checked} (n, malicious) pairs exhausted")


def test_criterion_06_researcher_access_constancy():
    config = BenchConfig(
        miners=(400,),
        malicious=(0.1, 0.2, 0.3, 0.4, 0.5),
        folds=8,
        seed=104,
        verify_seconds=1e-3,
        pair_seconds=1e-6,
    )
    bench_researcher_access(BenchConfig(miners=(400,), malicious=(0.1,), folds=2, seed=104))  # warmup
    rows = bench_researcher_access(config)

    by_fraction: dict[int, dict[str, float]] = {}
    for row in rows:
        by_fraction.setdefault(row["malicious_pct"], {})[row["phase"]] = float(row["seconds"])
    totals = [sum(phases.values()) for phases in by_fraction.values()]
    cv = pstdev(totals) / fmean(totals)
    creation_max = max(
        phases[p] for phases in by_fraction.values() for p in ("request_create", "approval_create")
    )
    ok = cv < 0.20 and creation_max < 0.01
    report(
        6,
        "researcher-access-constancy",
        ok,
        f"total-runtime CV={cv:.1%}, slowest creation phase={creation_max * 1e3:.3f} ms",
    )


def test_criterion_07_tamper_evidence(make_world):
    world = make_world(patients=2, hospitals=2, miners=4, seed=105)
    patient = world.patient()
    for visit in range(1, 6):
        _, patient = world.submit_block(patient, f"visit {visit}".encode(), visit)
    package = build_disclosure_package(
        patient.secrets, [r.block_id for r in patient.secrets.records]
    )
    assert package.k == 5
    assert verify_disclosure(package, world.chain, world.store).all_ok

    attempts = 0
    detected = 0

    # Every byte of every one of the 3k + 2 items.
    raw = package.to_bytes()
    for position in range(4, len(raw)):  # skip the entry-count framing
        mutated = bytearray(raw)
        mutated[position] ^= 0x01
        attempts += 1
        report_ = verify_disclosure(
            DisclosurePackage.from_bytes(bytes(mutated)), world.chain, world.store
        )
        detected += not report_.all_ok

    # Omission of each triple, presented as a shorter range.
    for omit in range(package.k):
        entries = package.entries[:omit] + package.entries[omit + 1 :]
        shortened = DisclosurePackage(
            entries=entries,
            prefix_state=package.prefix_state,
            last_nonce=package.last_nonce,
            last_block_id=package.last_block_id,
        )
        attempts += 1
        detected += not verify_disclosure(shortened, world.chain, world.store).all_ok

    # Every adjacent transposition of triples.
    for i in range(package.k - 1):
        entries = list(package.entries)
        entries[i], entries[i + 1] = entries[i + 1], entries[i]
        swapped = DisclosurePackage(
            entries=tuple(entries),
            prefix_state=package.prefix_state,
            last_nonce=package.last_nonce,
            last_block_id=package.last_block_id,
        )
        attempts += 1
        detected += not verify_disclosure(swapped, world.chain, world.store).all_ok

    ok = detected == attempts
    report(7, "tamper-evidence", ok, f"{detected}/{attempts} manipulations detected")


def test_criterion_08_proof_soundness_and_completeness(group):
    rng = random.Random(106)
    kps = [keygen(group, rng) for _ in range(8)]
    ring = [kp.public for kp in kps]

    honest_ok = 0
    for i in range(1000):
        index = i % len(ring)
        block_kp = keygen(group, rng)
        proof = credential_prove(group, ring, index, kps[index].secret, block_kp, rng)
        honest_ok += credential_verify(group, ring, block_kp.public, proof)

    forgeries_rejected = 0
    for _ in range(1000):
        block_kp = keygen(group, rng)  # attacker's own fresh key, not enrolled
        branches = []
        for key in ring:
            c, s = group.random_scalar(rng), group.random_scalar(rng)
            t = group.exp(group.generator, s) * group.exp(key, -c) % group.modulus
            branches.append(SchnorrProof(t, c, s))
        commitments = _commitment_bytes(group, b"".join(group.encode_element(b.commitment) for b in branches))
        possession_nonce = group.random_scalar(rng)
        possession_commitment = group.exp(group.generator, possession_nonce)
        joint = _joint_context(group, ring, block_kp.public, possession_commitment, commitments)
        membership = RingProof(tuple(branches), _ring_binding_challenge(group, joint, commitments))
        possession = schnorr_prove(group, block_kp, joint, rng)
        forged = CredentialProof(membership, possession, joint)
        forgeries_rejected += not credential_verify(group, ring, block_kp.public, forged)

    # Any single-byte mutation of an honest proof must reject.
    small_kps = kps[:4]
    small_ring = ring[:4]
    block_kp = keygen(group, rng)
    proof = credential_prove(group, small_ring, 2, small_kps[2].secret, block_kp, rng)
    raw = proof.to_bytes(group)
    mutations_rejected = 0
    for position in range(len(raw)):
        mutated = bytearray(raw)
        mutated[position] ^= 0x01
        try:
            parsed = CredentialProof.from_bytes(bytes(mutated), group)
        except (FormatError, ValueError):
            mutations_rejected += 1
            continue
        mutations_rejected += not credential_verify(group, small_ring, block_kp.public, parsed)

    ok = honest_ok == 1000 and forgeries_rejected == 1000 and mutations_rejected == len(raw)
    report(
        8,
        "proof-soundness-completeness",
        ok,
        f"honest {honest_ok}/1000, forgeries rejected {forgeries_rejected}/1000, "
        f"mutations rejected {mutations_rejected}/{len(raw)}",
    )


def test_criterion_09_unlinkability_scan(make_world):
    world = make_world(patients=2, hospitals=2, seed=107)
    identity = world.patient_kps[0]
    identity_bytes = world.group.encode_element(identity.public)
    identity_hash = digest(identity_bytes)

    patient = world.patient()
    leaks = 0
    pks, commitments, nonces, pointers, sym_keys = set(), set(), set(), set(), set()
    for visit in range(1, 1001):
        block, patient = world.submit_block(patient, b"data", visit, append=False)
        raw = block.canonical_bytes()
        leaks += (identity_bytes in raw) + (identity_hash in raw)
        record = patient.secrets.records[-1]
        pks.add(block.patient_block_pk)
        pks.add(block.hospital_block_pk)
        commitments.add(block.commitment)
        nonces.add(record.nonce)
        pointers.add(record.data_ptr)
        sym_keys.add(record.sym_key)

    ok = (
        leaks == 0
        and len(pks) == 2000
        and len(commitments) == 1000
        and len(nonces) == 1000
        and len(pointers) == 1000
        and len(sym_keys) == 1000
    )
    report(9, "unlinkability-scan", ok, f"{leaks} identity leaks; all per-block values fresh")


def test_criterion_10_range_confinement(make_world):
    world = make_world(patients=2, hospitals=2, miners=2, seed=108)
    patient = world.patient()
    for visit in range(1, 51):
        _, patient = world.submit_block(patient, f"visit {visit}".encode(), visit)
    assert len(world.chain) == 50

    granted = patient.secrets.records[9:20]  # 11 interior blocks
    package = build_disclosure_package(patient.secrets, [r.block_id for r in granted])

    commitments = [b.commitment for b in world.chain.patient_blocks()]
    candidates = set(package.items)
    state = package.prefix_state
    for entry in package.entries:
        state = chain_state(entry.sym_key, entry.data_ptr, entry.data_digest, state)
        candidates.add(state)

    nonterminal_matches = len(candidates & set(commitments))
    terminal = state_commitment(state, package.last_nonce)
    terminal_matches = commitments.count(terminal)
    correct_block = world.chain.get(package.last_block_id).commitment == terminal

    ok = nonterminal_matches == 0 and terminal_matches == 1 and correct_block
    report(
        10,
        "range-confinement",
        ok,
        f"non-terminal matches={nonterminal_matches}, terminal matches={terminal_matches}",
    )
