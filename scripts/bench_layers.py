#!/usr/bin/env python3
"""Time the group and ring-proof layers of the phrchain on the import path.

Prints one JSON object of medians in seconds, and one count of bytes:

    PYTHONPATH=src python scripts/bench_layers.py --seed 2 --repeats 5

Rows, each checked against ``pow`` before it is timed: ``pow`` (a 256-bit
variable-base ``pow``, the speed reference), the kernel's ``exp`` of the
generator and of a ``keygen`` key (the same scalars as ``pow``),
``exp2_schnorr_s``, the Schnorr equation as a signature's check takes it
(t == g^s * y^-c, the right side a commitment column of one value, the
exponent taken mod p - 1), and the subgroup test ``is_element`` (checked
against Euler's criterion). Then ring prove and ring verify at m = 8,
128, 1000 and 4000, each proof first checked branch by branch through
``pow``, an honest one accepted and one with a forged response rejected;
the prover's commitment column (``schnorr_commitments``) over the
4000-key ring's table, its pairs drawn beforehand, per branch, checked
against ``pow`` first, and how a ring prover's column, whose draws stream
to the worker, is shared with it (``column_evidence``): the caller's and
the worker's microseconds per value, the worker's head start, its share
of the column, the caller's time outside its runs and the caller's CPU
at each column's start and end; the worker's peak resident set
(``column_workers_vmhwm_mb``, ``VmHWM`` of this process's live children,
0 when it has none); a verifier's column over that ring whose first
record fails (the worker's first value) or whose last does (in the
caller's first run), shared and in one process
(``column_m4000_closed_after_one_value_s``,
``..._at_the_tail_s`` and each ``..._one_process_s``);
the ring-key gate of a 4000/1000-key block's verifier (the membership
verdicts of its two rings, read from their kept tables, each found by
its key tuple); a patient block proved and checked at 2000/64 and
4000/1000 keys, each block first checked against ``pow`` and against
branches forged at the end of its patient ring and the start of its
hospital ring (``block_prove_*_s``, ``block_verify_*_s``), how the
4000/1000-key block's one prover column is shared
(``block_column_m4000_1000_*``, as ``column_evidence`` reports it), and a
ring prover over a 2000-key ring one 100-key batch past a ring whose table
the caller and the worker keep (``ring_prove_grown_by_100_s``); one
consensus vote over 800 miners (40% malicious) on a request block given
no chain, which ``verify_block`` rejects at once: the row times the
round's verdict, counts and clock alone, since a zero-jitter round draws
no roles and packs no records until they are read; the first read of
``vote_records`` of such an unread result, which draws and packs them,
checked first against records packed miner by miner from
``random.Random.sample``; and the role draw of such a vote alone
(``_draw_roles``: one ``random.Random.sample`` call turned into flags,
checked first against the flags of ``sample``'s picks and the state it
leaves the generator in); the two chain reads of a researcher round on an
800-block chain (640 patient blocks of 16 patients, 80 requests and 80
approvals, each voted in by 800 miners; see ``researcher_chain``): one
``scan_blocks`` for a one-condition mask and one ``pending_requests`` for
a 40-visit history; the first ``Chain.to_bytes`` of that chain, which
makes the records its rounds left unread, timed on fresh chains after one
chain's records are checked miner by miner;
two signature checks: ``verify_signature`` under one key whose membership
verdict is kept, as an enrolled researcher's is after its first request,
and under a key seen for the first time; and, last of all, three
block-bytes rows on a 16/8-key patient block (16 patient and 8 hospital
keys): its first ``canonical_bytes`` (an encoding, timed on fresh
``dataclasses.replace`` copies), a repeat ``canonical_bytes`` of the same
block, and ``range_message`` on a block whose bytes are kept; and
``decode_block`` of a 4000/1000-key patient block's bytes, checked to
re-encode to them, and ``decoded_block_held_bytes``, the bytes one decoded
copy of that block holds (``tracemalloc``; its input is not counted).
After those, AES-256-GCM of a 4 KiB record through the libcrypto binding:
``sym_encrypt`` (its nonce drawn from a seeded generator) and
``sym_decrypt``, each checked first against ``cryptography``'s AESGCM, the
oracle; ``verify_disclosure`` of a 16-block package of 4 KiB records, its
report checked first against one refolded through ``hashlib`` and
decrypted through AESGCM, for the honest package and for one whose
eighth key is wrong; and ``import_rss_mb``, the peak resident set in MiB
(``VmHWM``, Linux) of a fresh interpreter after ``import phrchain``, the
median over one interpreter per repeat.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from phrchain import (
    ApprovalBlock,
    BlockSecrets,
    Chain,
    ConditionCodebook,
    HospitalContext,
    MinerPool,
    OffChainStore,
    PatientContext,
    PatientSecrets,
    RequestBlock,
    TimeRange,
    VerificationReport,
    build_disclosure_package,
    create_patient_block,
    keygen,
    new_directories,
    pending_requests,
    ring_prove,
    ring_verify,
    run_consensus,
    scan_blocks,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify_disclosure,
    verify_signature,
)
from phrchain import group as group_module
from phrchain.consensus import _draw_roles, verify_block
from phrchain.crypto import _rings_commit, _schnorr_equation
from phrchain.group import GroupParams
from phrchain.ledger import VOTE_RECORD, decode_block, range_message


# The vote of every block of ``researcher_chain``, and the pool of the consensus rows.
VOTE_POOL = MinerPool(800, 0.4)


def median_time(fn, repeats: int, per_call: int = 1) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) / per_call)
    return statistics.median(samples)


def children() -> list[int]:
    """The pids of this process's live children (Linux ``/proc``)."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as listing:
            pids += map(int, listing.read().split())
    return pids


def cpu_seconds(pid: int) -> float:
    """The CPU time process ``pid`` has run, from its ``schedstat`` (nanoseconds)."""
    with open(f"/proc/{pid}/schedstat") as stat:
        return int(stat.read().split()[0]) / 1e9


def _fields(data: bytes, width: int) -> list[bytes]:
    return [data[i : i + width] for i in range(0, len(data), width)]


def column_evidence(group: GroupParams, rings, repeats: int, name: str) -> dict:
    """How a prover's column over ``rings`` is shared, over ``repeats`` columns.

    ``rings`` is a list of key pairs per ring, each proved over with its
    witness in the middle. Each column is a prover's
    (``crypto._rings_commit``: a ring prover's for one ring, a patient
    block's for two), whose draws reach the worker in chunks as they are
    made. The caller's runs are timed by wrapping ``_Pinned.run`` in this
    process (the worker, forked earlier, is not wrapped), and what the
    caller hears of the worker by wrapping ``_Worker.hear``. Rows, each
    named after ``name``: the caller's and the worker's microseconds per
    value (the worker's CPU time, from ``schedstat``, over the values
    before the meeting index); the worker's head start, the values it had
    finished, as the caller last heard, when the caller's first run began;
    the worker's share of the column (the meeting index as a fraction of
    it); the caller's time outside its runs (the commit's wall time less
    the runs: the witnesses' exponentiations, the draws, the pipe and the
    replies); and per column the caller's CPU at its start and end.
    """
    run, hear, cpu = group_module._Pinned.run, group_module._Worker.hear, group_module._sched_getcpu
    runs, heard, samples = [], [], []

    def timed_run(self, group, keys, entries, records, at, start, width, out):
        keys = list(keys)
        started = time.perf_counter()
        failed = run(self, group, keys, entries, records, at, start, width, out)
        runs.append((start, started, time.perf_counter() - started))
        return failed

    def timed_hear(self, work, met):
        result = hear(self, work, met)
        heard.append((time.perf_counter(), result[1]))
        return result

    witnesses = [
        (group.ring_table([kp.public for kp in kps]), len(kps) // 2, kps[len(kps) // 2].secret) for kps in rings
    ]
    count, rng = sum(len(kps) - 1 for kps in rings), random.Random(f"column-evidence-{name}")
    group_module._Pinned.run, group_module._Worker.hear = timed_run, timed_hear
    try:
        for _ in range(repeats):
            runs.clear()
            heard.clear()
            workers = {pid: cpu_seconds(pid) for pid in children()}
            first, started = cpu(), time.perf_counter()
            _rings_commit(group, witnesses, rng, possession=len(rings) > 1)
            wall, last = time.perf_counter() - started, cpu()
            worker = sum(cpu_seconds(pid) - spent for pid, spent in workers.items())
            met, caller = min(start for start, _, _ in runs), sum(seconds for _, _, seconds in runs)
            opened = min(began for _, began, _ in runs)
            samples.append({
                "caller_us": caller / (count - met) * 1e6,
                "worker_us": worker / met * 1e6 if met else 0.0,
                "head_start": max((done for at, done in heard if at <= opened), default=0),
                "met": met / count,
                "outside": wall - caller,
                "cpus": [first, last],
            })
    finally:
        group_module._Pinned.run, group_module._Worker.hear = run, hear
    return {
        f"{name}_caller_us_per_value": statistics.median(s["caller_us"] for s in samples),
        f"{name}_worker_us_per_value": statistics.median(s["worker_us"] for s in samples),
        f"{name}_worker_head_start_values": statistics.median(s["head_start"] for s in samples),
        f"{name}_meeting_fraction": statistics.median(s["met"] for s in samples),
        f"{name}_caller_outside_runs_s": statistics.median(s["outside"] for s in samples),
        f"{name}_caller_cpu_start_end": [s["cpus"] for s in samples],
    }


def vmhwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def pow_ring_verdict(group: GroupParams, ring, proof) -> bool:
    """Each branch equation g^s == t * y^c through ``pow``, and the challenge sum."""
    p = group.modulus
    if sum(b.challenge for b in proof.branches) % group.order != proof.binding_challenge:
        return False
    return all(
        pow(group.generator, b.response, p) == b.commitment * pow(y, b.challenge, p) % p
        for y, b in zip(ring, proof.branches)
    )


def patient_block(group: GroupParams, rng: random.Random, patients: int, hospitals: int):
    """One patient block proved against registries of the given sizes."""
    directories = new_directories(group)
    patient_kps = [keygen(group, rng) for _ in range(patients)]
    hospital_kps = [keygen(group, rng) for _ in range(hospitals)]
    for registry, kps in ((directories.patients, patient_kps), (directories.hospitals, hospital_kps)):
        for kp in kps:
            registry.enroll(kp.public)
    block, _ = create_patient_block(
        PatientContext(patient_kps[0], 0, PatientSecrets()), HospitalContext(hospital_kps[0], 0),
        b"", ConditionCodebook.default().encode([], []), directories, OffChainStore(), 1, rng,
    )
    return block


def sampled_records(seed: int, n: int, k: int, valid: bool, seconds: float) -> bytes:
    """A round's vote records packed miner by miner, the roles from ``random.Random.sample``."""
    picked = set(random.Random(seed).sample(range(n), k))
    return b"".join(
        VOTE_RECORD.pack(i, i in picked, valid and i not in picked, 0.0 if i in picked else seconds) for i in range(n)
    )


def researcher_chain(group: GroupParams, rng: random.Random, patients=16, visits=40, rounds=80):
    """An 800-block chain shaped like a researcher workload's, and its patients' histories.

    Each patient holds one or two of the first 8 lifetime conditions and
    each visit adds one to three visit conditions. The patient blocks are
    one real block with its condition bits and commitment varied, and
    every round appends a request forking a random patient block and an
    approval of it. Nothing here is verified, so every request and
    approval carries the same signature. Each block's record is a vote of
    ``VOTE_POOL`` on the real block, seeded by the block's position.
    Returns the chain, the histories, and one one-condition mask per
    round, drawn as a researcher would draw them.
    """
    codebook = ConditionCodebook.default()
    directories = new_directories(group)
    patient, hospital = keygen(group, rng), keygen(group, rng)
    directories.patients.enroll(patient.public)
    directories.hospitals.enroll(hospital.public)
    template, _ = create_patient_block(
        PatientContext(patient, 0, PatientSecrets()), HospitalContext(hospital, 0),
        b"", codebook.encode([], []), directories, OffChainStore(), 1, rng,
    )
    signature = sign(group, patient, b"", rng)
    records = (run_consensus(template, VOTE_POOL, directories, seed) for seed in itertools.count())
    lifetime = [rng.sample(codebook.lifetime_codes[:8], rng.randint(1, 2)) for _ in range(patients)]
    chain, owned = Chain(group), [[] for _ in range(patients)]
    for visit in range(visits):
        for i in range(patients):
            bits = codebook.encode(lifetime[i], rng.sample(codebook.visit_codes, rng.randint(1, 3)))
            block = dataclasses.replace(template, condition_bits=bits, commitment=rng.randbytes(32))
            chain.append(block, next(records))
            owned[i].append(block.block_id)
    for i in range(rounds):
        parent = owned[rng.randrange(patients)][rng.randrange(visits)]
        request = RequestBlock(parent, TimeRange(i, i + 1), patient.public, signature, group)
        chain.append(request, next(records))
        chain.append(ApprovalBlock(request.block_id, TimeRange(i, i + 1), signature, group), next(records))
    histories = []
    for ids in owned:
        secrets = PatientSecrets()
        for t, block_id in enumerate(ids, start=1):
            secrets = secrets.with_record(BlockSecrets(block_id, patient, b"", b"", b"", b"", b"", t))
        histories.append(secrets)
    masks = [codebook.encode([rng.choice(lifetime[rng.randrange(patients)])], []) for _ in range(rounds)]
    return chain, histories, masks


def disclosure_world(group: GroupParams, rng: random.Random, k=16, size=4096):
    """One patient's k visits of ``size`` random bytes, each appended to a
    chain by a one-miner vote; returns the chain, the store, the package
    over all k visits and the records' plaintexts."""
    directories = new_directories(group)
    patient, hospital = keygen(group, rng), keygen(group, rng)
    directories.patients.enroll(patient.public)
    directories.hospitals.enroll(hospital.public)
    chain, store, secrets, pool = Chain(group), OffChainStore(), PatientSecrets(), MinerPool(1)
    bits = ConditionCodebook.default().encode([], [])
    plaintexts = [rng.randbytes(size) for _ in range(k)]
    for visit, data in enumerate(plaintexts, start=1):
        block, secrets = create_patient_block(
            PatientContext(patient, 0, secrets), HospitalContext(hospital, 0),
            data, bits, directories, store, visit, rng,
        )
        chain.append(block, run_consensus(block, pool, directories, visit, chain=chain))
    return chain, store, build_disclosure_package(secrets, [r.block_id for r in secrets.records]), plaintexts


def oracle_report(package, chain: Chain, store: OffChainStore) -> VerificationReport:
    """``verify_disclosure``'s report, the states refolded through ``hashlib``
    and the records decrypted through AESGCM."""
    state = package.prefix_state
    for entry in package.entries:
        state = hashlib.sha256(b"CHAIN" + entry.sym_key + entry.data_ptr + entry.data_digest + state).digest()
    commitment = hashlib.sha256(b"CHAIN" + state + package.last_nonce).digest()
    data_ok = []
    for entry in package.entries:
        sealed = store.get(entry.data_ptr)
        try:
            plaintext = AESGCM(entry.sym_key).decrypt(sealed[:12], sealed[12:], None)
        except InvalidTag:
            data_ok.append(False)
        else:
            data_ok.append(hashlib.sha256(plaintext).digest() == entry.data_digest)
    failure_index = next((i for i, ok in enumerate(data_ok) if not ok), None)
    return VerificationReport(commitment == chain.get(package.last_block_id).commitment, tuple(data_ok), failure_index)


def block_rows(group: GroupParams, seed: int, repeats: int) -> dict:
    """A patient block proved (``create_patient_block``) and checked
    (``verify_block``) against registries of 2000/64 and 4000/1000 keys
    whose tables are kept, each block first checked against ``pow`` branch
    by branch, accepted, and rejected with a branch forged at the end of
    its patient ring and at the start of its hospital ring; a ring prover
    over a 2000-key ring one 100-key batch past a ring whose table the
    caller and the worker keep (a fresh registry per repeat); and the block
    prover's column, shared as ``column_evidence`` reports it."""
    rows, bits = {}, ConditionCodebook.default().encode([], [])
    for patients, hospitals in ((2000, 64), (4000, 1000)):
        world = random.Random(f"block-{patients}-{hospitals}-{seed}")
        directories = new_directories(group)
        patient_kps = [keygen(group, world) for _ in range(patients)]
        hospital_kps = [keygen(group, world) for _ in range(hospitals)]
        for registry, kps in ((directories.patients, patient_kps), (directories.hospitals, hospital_kps)):
            for kp in kps:
                registry.enroll(kp.public)
        p, h = patients // 2, hospitals // 2

        def prove():
            return create_patient_block(
                PatientContext(patient_kps[p], p, PatientSecrets()), HospitalContext(hospital_kps[h], h),
                b"", bits, directories, OffChainStore(), 1, world,
            )[0]

        block = prove()
        for credential, registry in ((block.patient_credential, directories.patients),
                                     (block.hospital_credential, directories.hospitals)):
            if not pow_ring_verdict(group, registry.keys, credential.membership):
                raise SystemExit(f"a {patients}/{hospitals}-key block's branches fail the pow check")
        if not verify_block(block, directories):
            raise SystemExit(f"verify_block rejected an honest {patients}/{hospitals}-key block")
        for party, branch in (("patient", patients - 1), ("hospital", 0)):
            credential = getattr(block, f"{party}_credential")
            branches = list(credential.membership.branches)
            response = (branches[branch].response + 1) % group.order
            branches[branch] = dataclasses.replace(branches[branch], response=response)
            membership = dataclasses.replace(credential.membership, branches=tuple(branches))
            credential = dataclasses.replace(credential, membership=membership)
            if verify_block(dataclasses.replace(block, **{f"{party}_credential": credential}), directories):
                raise SystemExit(f"verify_block accepted a {patients}/{hospitals}-key block forged at {party} {branch}")
        rows[f"block_prove_{patients}_{hospitals}_s"] = median_time(prove, repeats)
        rows[f"block_verify_{patients}_{hospitals}_s"] = median_time(
            lambda: verify_block(block, directories), repeats
        )
        if patients == 4000:
            rows.update(column_evidence(group, [patient_kps, hospital_kps], repeats, "block_column_m4000_1000"))
    grown = []
    for repeat in range(repeats):
        registry_rng = random.Random(f"grown-{seed}-{repeat}")
        kps = [keygen(group, registry_rng) for _ in range(2000)]
        kept = tuple(kp.public for kp in kps[:1900])
        ring_prove(group, kept, 7, kps[7].secret, b"ctx", registry_rng)  # kept by the caller and the worker
        ring = kept + tuple(kp.public for kp in kps[1900:])
        started = time.perf_counter()
        proof = ring_prove(group, ring, 1000, kps[1000].secret, b"ctx", registry_rng)
        grown.append(time.perf_counter() - started)
        if not pow_ring_verdict(group, ring, proof):
            raise SystemExit("a proof over a grown ring fails the pow check")
    rows["ring_prove_grown_by_100_s"] = statistics.median(grown)
    return rows


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
    # Keys draw from a stream of their own.
    key_rng = random.Random(f"keys-{args.seed}")
    keys = [keygen(group, key_rng).public for _ in scalars]
    challenges = [rng.randrange(q) for _ in scalars]
    if any(group.exp(g, x) != pow(g, x, p) or group.exp(y, x) != pow(y, x, p) for y, x in zip(keys, scalars)):
        raise SystemExit("an exponentiation differs from pow")
    # One Schnorr-shaped check per key, its commitment the column's value, checked through pow.
    schnorr_checks = []
    for y, s, c in zip(keys, scalars, challenges):
        pair = group.encode_scalar(c) + group.encode_scalar(s)
        t = int.from_bytes(group.schnorr_commitments([(group.ring_table((y,)), 1)], pair))
        if t * pow(y, c, p) % p != pow(g, s, p):
            raise SystemExit("g^s * y^-c differs from pow")
        schnorr_checks.append((y, group.key_is_element(y), t, c, s))
    if not all(_schnorr_equation(group, *check) for check in schnorr_checks):
        raise SystemExit("an honest Schnorr equation was rejected")
    if any(group.is_element(x) != (pow(x, q, p) == 1) for x in elements + [p - x for x in elements]):
        raise SystemExit("is_element differs from Euler's criterion")
    rows = {
        "pow_s": median_time(lambda: [pow(g, x, p) for x in scalars], args.repeats, len(scalars)),
        "g_exp_s": median_time(lambda: [group.exp(g, x) for x in scalars], args.repeats, len(scalars)),
        "key_exp_s": median_time(
            lambda: [group.exp(y, x) for y, x in zip(keys, scalars)], args.repeats, len(scalars)
        ),
        "exp2_schnorr_s": median_time(
            lambda: [_schnorr_equation(group, *check) for check in schnorr_checks], args.repeats, len(scalars)
        ),
        "is_element_s": median_time(
            lambda: [group.is_element(x) for x in elements], args.repeats, len(elements)
        ),
    }
    # Each ring size on its own stream.
    for m in (8, 128, 1000, 4000):
        ring_rng = random.Random(f"ring-{m}-{args.seed}")
        kps = [keygen(group, ring_rng) for _ in range(m)]
        ring = [kp.public for kp in kps]
        proof = ring_prove(group, ring, m // 2, kps[m // 2].secret, b"ctx", ring_rng)
        first = proof.branches[0]
        forged = dataclasses.replace(proof, branches=(
            dataclasses.replace(first, response=(first.response + 1) % q), *proof.branches[1:]
        ))
        for candidate, expected in ((proof, True), (forged, False)):
            verdicts = (ring_verify(group, ring, candidate, b"ctx"), pow_ring_verdict(group, ring, candidate))
            if verdicts != (expected, expected):
                raise SystemExit(f"ring_verify and the pow check gave {verdicts} at m={m}, not {expected}")
        rows[f"ring_prove_m{m}_s"] = median_time(
            lambda: ring_prove(group, ring, m // 2, kps[m // 2].secret, b"ctx", ring_rng), args.repeats
        )
        rows[f"ring_verify_m{m}_s"] = median_time(lambda: ring_verify(group, ring, proof, b"ctx"), args.repeats)
    # The commitment column over the 4000-key ring, on a stream of its own.
    column_rng = random.Random(f"column-{args.seed}")
    column_challenges = [group.random_scalar(column_rng) for _ in ring]
    column_responses = [group.random_scalar(column_rng) for _ in ring]
    column_scalars = b"".join(map(group.encode_scalar, itertools.chain(*zip(column_challenges, column_responses))))
    table = group.ring_table(ring)
    column = group.schnorr_commitments([(table, len(table))], column_scalars)
    expected = [
        pow(g, s, p) * pow(y, -c % (p - 1), p) % p for y, c, s in zip(ring, column_challenges, column_responses)
    ]
    if column != b"".join(map(group.encode_element, expected)):
        raise SystemExit("the commitment column differs from pow")
    rows["ring_commitments_per_branch_s"] = median_time(
        lambda: group.schnorr_commitments([(table, len(table))], column_scalars), args.repeats, len(ring)
    )
    rows.update(column_evidence(group, [kps], args.repeats, "column_m4000"))
    rows["column_workers_vmhwm_mb"] = sum(map(vmhwm_mb, children()))
    # A verifier's column over the same ring whose first or last record
    # fails: the worker meets the first at its first value, the caller the
    # last in its first run. Shared with the worker, and in one process.
    records = b"".join(map(bytes.__add__, _fields(column, 32), _fields(column_scalars, 64)))
    for name, at in (("", 0), ("_at_the_tail", len(ring) - 1)):
        forged = bytearray(records)
        forged[at * 96] ^= 1
        forged = bytes(forged)
        if group.schnorr_failure([table], forged) != at:
            raise SystemExit(f"the verifier's column did not name the forged record {at}")
        rows[f"column_m4000_closed_after_one_value{name}_s"] = median_time(
            lambda: group.schnorr_failure([table], forged), 5 * args.repeats
        )
        pool, group_module._workers = group_module._workers, []  # an empty pool: no worker to share with
        rows[f"column_m4000_closed_after_one_value{name}_one_process_s"] = median_time(
            lambda: group.schnorr_failure([table], forged), 5 * args.repeats
        )
        group_module._workers = pool
    # The ring-key gate of a 4000/1000-key block's verifier: the verdicts of
    # the 4000-key ring and of a 1000-key ring of the keys above, each read
    # from the ring's kept table, as after the first check of a block over them.
    gate_rings = (tuple(ring), tuple(keys[:1000]))
    gate_keys = gate_rings[0] + gate_rings[1]
    if len(set(gate_keys)) != 5000 or not all(pow(y, q, p) == 1 for y in gate_keys):
        raise SystemExit("the gate's keys are not 5000 distinct subgroup elements")
    if not all(group.ring_table(keys).members for keys in gate_rings):
        raise SystemExit("a ring table refused subgroup elements")
    rows["ring_key_gate_m5000_s"] = median_time(
        lambda: [group.ring_table(keys).members for keys in gate_rings], args.repeats
    )
    rows.update(block_rows(group, args.seed, args.repeats))
    researcher = keygen(group, rng)
    signature = sign(group, researcher, b"", rng)
    request = RequestBlock(bytes(32), TimeRange(1, 2), researcher.public, signature, group)
    directories, pool = new_directories(group), VOTE_POOL
    if run_consensus(request, pool, directories, 0).approvals:
        raise SystemExit("a request block given no chain was approved")
    rows["run_consensus_800_s"] = median_time(
        lambda: [run_consensus(request, pool, directories, seed) for seed in range(50)], args.repeats, 50
    )
    # The first read of those rounds' records, on fresh results, first checked against the sampled records.
    if any(
        run_consensus(request, pool, directories, seed).vote_records
        != sampled_records(seed, 800, 320, False, pool.verify_seconds)
        for seed in range(50)
    ):
        raise SystemExit("a round's vote records differ from the records packed miner by miner")
    read_samples = []
    for _ in range(args.repeats):
        unread = [run_consensus(request, pool, directories, seed) for seed in range(50)]
        started = time.perf_counter()
        for result in unread:
            result.vote_records
        read_samples.append((time.perf_counter() - started) / len(unread))
    rows["vote_records_800_s"] = statistics.median(read_samples)
    # The role draw of those rounds alone, first checked against the flags of sample's own picks.
    for seed in range(50):
        drawn, sampled = random.Random(seed), random.Random(seed)
        picked = set(sampled.sample(range(800), 320))
        if _draw_roles(drawn, 800, 320) != bytearray(i in picked for i in range(800)) or (
            drawn.getstate() != sampled.getstate()
        ):
            raise SystemExit("the role draw differs from random.Random.sample")
    rows["role_draw_800_320_s"] = median_time(
        lambda: [_draw_roles(random.Random(seed), 800, 320) for seed in range(50)], args.repeats, 50
    )
    # Its own stream, as for the 200-key ring: the chain does not depend on
    # the draws above, and rows added before it keep their inputs.
    chain, histories, masks = researcher_chain(group, random.Random(f"chain-{args.seed}"))
    rows["scan_blocks_s"] = median_time(
        lambda: [scan_blocks(chain, mask) for mask in masks], args.repeats, len(masks)
    )
    rows["pending_requests_s"] = median_time(
        lambda: [pending_requests(chain, secrets) for secrets in histories], args.repeats, len(histories)
    )
    # Every block of the chain was approved by the same valid vote, so each record is that vote's under its seed.
    if any(
        entry.record.vote_records != sampled_records(seed, 800, 320, True, VOTE_POOL.verify_seconds)
        for seed, entry in enumerate(chain.entries())
    ):
        raise SystemExit("a chain record differs from the records packed miner by miner")
    chain_wire = chain.to_bytes()
    if Chain.from_bytes(chain_wire).to_bytes() != chain_wire:
        raise SystemExit("the researcher chain does not re-encode to its bytes")
    chain_samples = []
    for _ in range(args.repeats):
        fresh, _, _ = researcher_chain(group, random.Random(f"chain-{args.seed}"))
        started = time.perf_counter()
        fresh.to_bytes()
        chain_samples.append(time.perf_counter() - started)
    rows["researcher_chain_to_bytes_s"] = statistics.median(chain_samples)
    # Again its own stream. 200 signatures under one key, and one under each of 200 keys.
    sig_rng = random.Random(f"signatures-{args.seed}")
    signer = keygen(group, sig_rng)
    warm = [(signer, sig_rng.randbytes(64)) for _ in range(200)]
    cold = [(keygen(group, sig_rng), sig_rng.randbytes(64)) for _ in range(200)]
    checks = [(kp.public, message, sign(group, kp, message, sig_rng)) for kp, message in warm + cold]
    if not all(verify_signature(group, *check) for check in checks):
        raise SystemExit("an honest signature was rejected")
    warm_checks, cold_checks = checks[: len(warm)], checks[len(warm):]
    rows["verify_signature_s"] = median_time(
        lambda: [verify_signature(group, *check) for check in warm_checks], args.repeats, len(warm_checks)
    )
    cold_samples = []
    for _ in range(args.repeats):
        group_module._key_verdict.cache_clear()
        started = time.perf_counter()
        for check in cold_checks:
            verify_signature(group, *check)
        cold_samples.append((time.perf_counter() - started) / len(cold_checks))
    rows["verify_signature_cold_key_s"] = statistics.median(cold_samples)
    # Its own stream again: one 16/8-key patient block, as in a researcher workload.
    block = patient_block(group, random.Random(f"block-{args.seed}"), 16, 8)
    first_samples = []
    for _ in range(args.repeats):
        fresh = [dataclasses.replace(block) for _ in range(200)]
        started = time.perf_counter()
        for copy in fresh:
            copy.canonical_bytes()
        first_samples.append((time.perf_counter() - started) / len(fresh))
    rows["patient_block_first_bytes_s"] = statistics.median(first_samples)
    block.canonical_bytes()
    rows["patient_block_repeat_bytes_s"] = median_time(
        lambda: [block.canonical_bytes() for _ in range(200)], args.repeats, 200
    )
    window = TimeRange(1, 2)
    rows["range_message_kept_s"] = median_time(
        lambda: [range_message(block, window) for _ in range(200)], args.repeats, 200
    )
    # Its own stream: one 4000/1000-key patient block, decoded from its bytes.
    wire = patient_block(group, random.Random(f"large-block-{args.seed}"), 4000, 1000).canonical_bytes()
    if decode_block(wire, group).canonical_bytes() != wire:
        raise SystemExit("a decoded 4000/1000-key block does not re-encode to its bytes")
    rows["decode_block_s"] = median_time(lambda: decode_block(wire, group), args.repeats)
    # What one decoded copy of that block holds (its input bytes excluded).
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    decoded = decode_block(wire, group)
    rows["decoded_block_held_bytes"] = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    del decoded
    # Its own stream: 200 records of 4 KiB, encrypted and decrypted.
    aes_rng = random.Random(f"aes-{args.seed}")
    records = [(aes_rng.randbytes(32), aes_rng.randbytes(4096), aes_rng.getrandbits(64)) for _ in range(200)]
    sealed = [sym_encrypt(key, data, random.Random(seed)) for key, data, seed in records]
    for (key, data, seed), text in zip(records, sealed):
        nonce = random.Random(seed).randbytes(12)
        if text != nonce + AESGCM(key).encrypt(nonce, data, None) or sym_decrypt(key, text) != data:
            raise SystemExit("sym_encrypt or sym_decrypt differs from AESGCM")
    nonce_rng = random.Random(f"nonces-{args.seed}")
    rows["sym_encrypt_4k_s"] = median_time(
        lambda: [sym_encrypt(key, data, nonce_rng) for key, data, _ in records], args.repeats, len(records)
    )
    openings = [(key, text) for (key, _, _), text in zip(records, sealed)]
    rows["sym_decrypt_4k_s"] = median_time(
        lambda: [sym_decrypt(key, text) for key, text in openings], args.repeats, len(openings)
    )
    # Its own stream: a 16-block disclosure of 4 KiB records.
    chain, store, package, plaintexts = disclosure_world(group, random.Random(f"disclosure-{args.seed}"))
    if [sym_decrypt(e.sym_key, store.get(e.data_ptr)) for e in package.entries] != plaintexts:
        raise SystemExit("the disclosed records differ from the plaintexts stored")
    entries = list(package.entries)
    entries[7] = dataclasses.replace(entries[7], sym_key=bytes(32))
    for candidate, expected in ((package, True), (dataclasses.replace(package, entries=tuple(entries)), False)):
        report = verify_disclosure(candidate, chain, store)
        if report != oracle_report(candidate, chain, store) or report.all_ok != expected:
            raise SystemExit(f"verify_disclosure differs from the oracle or is not all_ok={expected}")
    rows["verify_disclosure_k16_s"] = median_time(
        lambda: [verify_disclosure(package, chain, store) for _ in range(50)], args.repeats, 50
    )
    # A fresh interpreter per repeat, importing the package this script imported.
    # It reads its own VmHWM: Linux carries the spawning process's peak (this
    # script's, tens of MiB) across fork and exec into the child's ru_maxrss.
    probe = (
        "import phrchain\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(group_module.__file__))}
    rows["import_rss_mb"] = statistics.median(
        int(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, check=True).stdout) / 1024
        for _ in range(args.repeats)
    )
    print(json.dumps({
        "seed": args.seed,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "medians": rows,
    }))


if __name__ == "__main__":
    main()
