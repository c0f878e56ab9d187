"""The benchmark's three workloads, each a closed loop with one client.

A workload object makes every input from the seed when it is built (key
pairs, payloads, condition bits, visit times) and draws each operation's
choices (forgery and tamper positions, windows, program randomness) from
``random.Random`` seeded by ``(seed, workload, operation index)``.
``setup()`` builds the program state the operations run against; the
runner times it separately as ``setup_s``.

Every call into the program goes through a module or class attribute
(``ledger.create_patient_block``, ``Registry.enroll``) so that a traced
run sees it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from phrchain import access, consensus, ledger
from phrchain.access import DisclosurePackage
from phrchain.consensus import MinerPool
from phrchain.crypto import KeyPair
from phrchain.group import GroupParams
from phrchain.ledger import Chain, HospitalContext, OffChainStore, PatientContext, PatientSecrets, TimeRange
from phrchain.registry import ConditionCodebook, Directories, Registry

GROUP = GroupParams.default()
CODEBOOK = ConditionCodebook.default()
TAMPER_KINDS = ("substitution", "omission", "reordering", "truncation")


class LawError(RuntimeError):
    """An exact size or clock law failed: the run aborts."""


# ---------------------------------------------------------------------------
# Exact laws
# ---------------------------------------------------------------------------


def credential_bytes(m: int) -> int:
    return 96 * m + 232


def patient_block_bytes(m_patients: int, m_hospitals: int) -> int:
    return 96 * (m_patients + m_hospitals) + 733


def package_items(k: int) -> int:
    return 3 * k + 2


def simulated_seconds(pool: MinerPool) -> float:
    # Same operation order as run_consensus, so the comparison can be exact.
    return pool.verify_seconds + pool.pair_seconds * pool.n_miners * (pool.n_miners - 1)


def check_patient_block(wire: bytes, m_patients: int, m_hospitals: int) -> int:
    """Check both credential sizes and the block size; return the patient credential size."""
    patient_len = int.from_bytes(wire[1:5], "big")
    hospital_len = int.from_bytes(wire[5 + patient_len : 9 + patient_len], "big")
    if patient_len != credential_bytes(m_patients) or hospital_len != credential_bytes(m_hospitals):
        raise LawError(
            f"credential bytes {patient_len}/{hospital_len} != 96m+232 at m={m_patients}/{m_hospitals}"
        )
    if len(wire) != patient_block_bytes(m_patients, m_hospitals):
        raise LawError(f"block bytes {len(wire)} != 96(m_p+m_h)+733 at m={m_patients}/{m_hospitals}")
    return patient_len


def check_consensus(result, pool: MinerPool) -> None:
    if result.simulated_time != simulated_seconds(pool):
        raise LawError(f"simulated time {result.simulated_time!r} != {simulated_seconds(pool)!r}")


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one operation did, beyond its latency."""

    ok: bool
    blocks: int = 0
    approved: int = 0
    block_bytes: list[int] = field(default_factory=list)
    credential_bytes: list[int] = field(default_factory=list)
    package_items: int = 0
    scanned: int = 0
    phase_s: dict[str, float] = field(default_factory=dict)


def keypairs(rng: random.Random, n: int) -> list[KeyPair]:
    """Key pairs made by the benchmark itself, so input generation is not program time."""
    return [
        KeyPair(secret, pow(GROUP.generator, secret, GROUP.modulus))
        for secret in (rng.randrange(1, GROUP.order) for _ in range(n))
    ]


def op_rng(seed: int, workload: str, i: int, purpose: str = "op") -> random.Random:
    return random.Random(f"{seed}/{workload}/{purpose}/{i}")


def enrolled(patients, hospitals, researchers=()) -> Directories:
    directories = Directories(
        patients=Registry(GROUP, "patient"),
        hospitals=Registry(GROUP, "hospital"),
        researchers=Registry(GROUP, "researcher"),
    )
    for registry, kps in (
        (directories.patients, patients),
        (directories.hospitals, hospitals),
        (directories.researchers, researchers),
    ):
        for kp in kps:
            registry.enroll(kp.public)
    return directories


def condition_bits(rng: random.Random, lifetime: tuple[str, ...] = ()) -> bytes:
    visit = rng.sample(CODEBOOK.visit_codes, rng.randint(1, 3))
    return CODEBOOK.encode(lifetime or rng.sample(CODEBOOK.lifetime_codes[:16], rng.randint(0, 3)), visit)


def forge(block, credential: str, branch: int, delta: int):
    """The same block with one ring-branch response of one credential shifted by delta."""
    proof = getattr(block, credential)
    branches = list(proof.membership.branches)
    branches[branch] = replace(branches[branch], response=(branches[branch].response + delta) % GROUP.order)
    membership = replace(proof.membership, branches=tuple(branches))
    return replace(block, **{credential: replace(proof, membership=membership)})


def publish(block, directories, pool, chain, seed, outcome: Outcome):
    """Miner side: receive bytes, decode, vote, append if approved. Returns (approved, wire)."""
    wire = block.canonical_bytes()
    received = ledger.decode_block(wire, GROUP)
    result = consensus.run_consensus(received, pool, directories, seed=seed, chain=chain)
    check_consensus(result, pool)
    if result.approved:
        chain.append(received, result)
    outcome.blocks += 1
    outcome.approved += int(result.approved)
    outcome.block_bytes.append(len(wire))
    return result.approved, wire


class _Submitting:
    """Patient-block submission shared by the two submission workloads."""

    name: str
    seed: int
    payload_bytes: int

    def submission_inputs(self, i: int, m_patients: int, m_hospitals: int, forged: bool) -> dict:
        rng = op_rng(self.seed, self.name, i)
        return {
            "patient": rng.randrange(m_patients),
            "hospital": rng.randrange(m_hospitals),
            "data": rng.randbytes(self.payload_bytes),
            "bits": condition_bits(rng),
            "visit_time": (i + 1) * 1000 + rng.randrange(1000),
            "forgery": (
                rng.choice(("patient_credential", "hospital_credential")),
                rng.random(),
                rng.randrange(1, GROUP.order),
            ) if forged else None,
            "program_rng": random.Random(rng.getrandbits(64)),
            "pool_seed": rng.getrandbits(32),
        }

    def submit(self, inputs: dict, outcome: Outcome) -> bool:
        """Create, (maybe) forge, ship and vote one patient block; True iff the verdict is the expected one."""
        directories = self.directories
        index = inputs["patient"]
        patient = PatientContext(self.patient_kps[index], index, self.secrets.get(index, PatientSecrets()))
        hospital = HospitalContext(self.hospital_kps[inputs["hospital"]], inputs["hospital"])
        block, secrets = ledger.create_patient_block(
            patient, hospital, inputs["data"], inputs["bits"], directories, self.store,
            inputs["visit_time"], inputs["program_rng"],
        )
        forgery = inputs["forgery"]
        if forgery is not None:
            credential, where, delta = forgery
            ring = len(getattr(block, credential).membership.branches)
            block = forge(block, credential, int(where * ring), delta)
        approved, wire = publish(block, directories, self.pool, self.chain, inputs["pool_seed"], outcome)
        outcome.credential_bytes.append(
            check_patient_block(wire, len(self.patient_ring), len(self.hospital_kps))
        )
        if approved:
            self.secrets[index] = secrets
        return approved == (forgery is None)


# ---------------------------------------------------------------------------
# submit-large-ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmitParams:
    patients: int = 4000
    hospitals: int = 1000
    miners: int = 100
    malicious: float = 0.2
    payload_bytes: int = 4096
    # The chain is emptied after this many submissions, so memory does not
    # grow with the number of operations a faster program completes.
    chain_epoch: int = 8


class SubmitLargeRing(_Submitting):
    name = "submit-large-ring"
    setup_repeats = 3

    def __init__(self, params: SubmitParams, seed: int):
        self.params, self.seed, self.payload_bytes = params, seed, params.payload_bytes
        rng = op_rng(seed, self.name, 0, "keys")
        self.patient_kps = keypairs(rng, params.patients)
        self.hospital_kps = keypairs(rng, params.hospitals)
        self.patient_ring = self.patient_kps
        self.pool = MinerPool(n_miners=params.miners, malicious_fraction=params.malicious)

    def setup(self) -> None:
        self.directories = enrolled(self.patient_kps, self.hospital_kps)
        self.store = OffChainStore()
        self.chain = Chain(GROUP)
        self.secrets: dict[int, PatientSecrets] = {}

    def inputs(self, i: int) -> dict:
        # Exactly one block in each run of four consecutive ones is forged.
        forged = op_rng(self.seed, self.name, i // 4, "forge").randrange(4) == i % 4
        return self.submission_inputs(i, self.params.patients, self.params.hospitals, forged)

    def op(self, i: int, inputs: dict) -> Outcome:
        outcome = Outcome(ok=False)
        outcome.ok = self.submit(inputs, outcome)
        return outcome

    def stop_ok(self, i: int) -> bool:
        return True

    def maintain(self, i: int) -> None:
        if (i + 1) % self.params.chain_epoch == 0:
            self.chain = Chain(GROUP)


# ---------------------------------------------------------------------------
# enroll-and-submit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnrollParams:
    initial: int = 1000
    final: int = 3000
    batch: int = 100
    hospitals: int = 64
    miners: int = 64
    malicious: float = 0.25
    payload_bytes: int = 4096


class EnrollAndSubmit(_Submitting):
    """One operation enrolls a batch of patients, then one of them submits.

    A pass grows the patient registry from ``initial`` to ``final`` keys;
    runs stop only at the end of a pass, so every run samples the same
    ring sizes whatever the program's speed. Between passes the registry
    is rebuilt at ``initial`` keys, outside the timed operations.
    """

    name = "enroll-and-submit"
    setup_repeats = 5
    # Times the two phases of an operation; the runner may substitute a
    # clock that leaves out its own interruptions.
    clock = time.perf_counter

    def __init__(self, params: EnrollParams, seed: int):
        self.params, self.seed, self.payload_bytes = params, seed, params.payload_bytes
        rng = op_rng(seed, self.name, 0, "keys")
        self.patient_kps = keypairs(rng, params.final)
        self.hospital_kps = keypairs(rng, params.hospitals)
        self.pool = MinerPool(n_miners=params.miners, malicious_fraction=params.malicious)
        self.batches = (params.final - params.initial) // params.batch

    def setup(self) -> None:
        self.patient_ring = self.patient_kps[: self.params.initial]
        self.directories = enrolled(self.patient_ring, self.hospital_kps)
        self.store = OffChainStore()
        self.chain = Chain(GROUP)
        self.secrets: dict[int, PatientSecrets] = {}

    def inputs(self, i: int) -> dict:
        start = self.params.initial + (i % self.batches) * self.params.batch
        newcomers = range(start, start + self.params.batch)
        inputs = self.submission_inputs(i, self.params.batch, self.params.hospitals, forged=False)
        inputs["patient"] = newcomers[inputs["patient"]]
        inputs["newcomers"] = newcomers
        return inputs

    def op(self, i: int, inputs: dict) -> Outcome:
        outcome = Outcome(ok=False)
        started = self.clock()
        patients = self.directories.patients
        placed = [patients.enroll(self.patient_kps[j].public) for j in inputs["newcomers"]]
        enrolled_at = self.clock()
        self.patient_ring = self.patient_kps[: inputs["newcomers"].stop]
        submitted = self.submit(inputs, outcome)
        outcome.phase_s = {"enroll_s": enrolled_at - started, "submit_s": self.clock() - enrolled_at}
        outcome.ok = submitted and placed == list(inputs["newcomers"])
        return outcome

    def stop_ok(self, i: int) -> bool:
        return (i + 1) % self.batches == 0

    def maintain(self, i: int) -> None:
        if self.stop_ok(i):
            self.setup()


# ---------------------------------------------------------------------------
# access-long-history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessParams:
    patients: int = 16
    hospitals: int = 8
    visits: int = 40
    payload_bytes: int = 4096
    miners: int = 800
    malicious: float = 0.4
    max_window: int = 16
    # Each round appends two blocks; after this many rounds the chain is
    # reset to the set-up chain, so chain length (and with it scan cost
    # and memory) stays between the same bounds whatever the program's speed.
    epoch_rounds: int = 160


class AccessLongHistory:
    """One operation is a researcher round against a pre-built chain."""

    name = "access-long-history"
    # The set-up builds and votes in 640 blocks, 10-12 s on a 2-vCPU x86-64
    # machine, so a run does it once; the other workloads' set-ups take
    # under 5 s and a run reports the median of several.
    setup_repeats = 1

    def __init__(self, params: AccessParams, seed: int):
        self.params, self.seed = params, seed
        rng = op_rng(seed, self.name, 0, "keys")
        self.patient_kps = keypairs(rng, params.patients)
        self.hospital_kps = keypairs(rng, params.hospitals)
        self.researcher = keypairs(rng, 1)[0]
        self.pool = MinerPool(n_miners=params.miners, malicious_fraction=params.malicious)
        # Per patient: lifetime conditions, visit times, and per visit a
        # payload, condition bits and the treating hospital.
        self.lifetime = [tuple(rng.sample(CODEBOOK.lifetime_codes[:8], rng.randint(1, 2)))
                         for _ in range(params.patients)]
        self.visit_times = []
        for _ in range(params.patients):
            times, t = [], 0
            for _ in range(params.visits):
                t += rng.randint(1, 30)
                times.append(t)
            self.visit_times.append(times)
        self.visits = [
            [(rng.randbytes(params.payload_bytes), condition_bits(rng, self.lifetime[p]),
              rng.randrange(params.hospitals)) for _ in range(params.visits)]
            for p in range(params.patients)
        ]

    def setup(self) -> None:
        p = self.params
        self.directories = enrolled(self.patient_kps, self.hospital_kps, [self.researcher])
        self.store = OffChainStore()
        self.chain = Chain(GROUP)
        self.secrets = [PatientSecrets() for _ in range(p.patients)]
        self.owner: dict[bytes, tuple[int, int]] = {}
        rng = op_rng(self.seed, self.name, 0, "setup")
        scratch = Outcome(ok=True)
        for v in range(p.visits):
            for i in range(p.patients):
                data, bits, h = self.visits[i][v]
                block, secrets = ledger.create_patient_block(
                    PatientContext(self.patient_kps[i], i, self.secrets[i]),
                    HospitalContext(self.hospital_kps[h], h),
                    data, bits, self.directories, self.store, self.visit_times[i][v], rng,
                )
                approved, wire = publish(block, self.directories, self.pool, self.chain, rng.getrandbits(32), scratch)
                check_patient_block(wire, p.patients, p.hospitals)
                if not approved:
                    raise RuntimeError("a valid set-up block was rejected")
                self.secrets[i] = secrets
                self.owner[block.block_id] = (i, v)
        self.base_entries = self.chain.entries()

    def inputs(self, i: int) -> dict:
        rng = op_rng(self.seed, self.name, i)
        # Exactly one package in each run of four consecutive rounds is tampered.
        tampered = op_rng(self.seed, self.name, i // 4, "tamper").randrange(4) == i % 4
        return {
            "mask": CODEBOOK.encode([rng.choice(self.lifetime[rng.randrange(self.params.patients)])], []),
            "parent": rng.random(),
            "k": 1 + rng.randrange(self.params.max_window),
            "offset": rng.random(),
            "widen": (rng.randint(0, 1), rng.randint(0, 1)),
            "tamper": (rng.choice(TAMPER_KINDS), rng.random(), rng.random(), rng.randbytes(32)) if tampered else None,
            "program_rng": random.Random(rng.getrandbits(64)),
            "pool_seeds": (rng.getrandbits(32), rng.getrandbits(32)),
        }

    def op(self, i: int, inputs: dict) -> Outcome:
        p, chain, rng = self.params, self.chain, inputs["program_rng"]
        outcome = Outcome(ok=False, scanned=len(chain))
        ids = access.scan_blocks(chain, inputs["mask"])
        parent_id = ids[int(inputs["parent"] * len(ids))]
        owner, j = self.owner[parent_id]
        k = inputs["k"]
        lo, hi = max(0, j - k + 1), min(j, p.visits - k)
        a = lo + int(inputs["offset"] * (hi - lo + 1))
        times = self.visit_times[owner]
        before, after = inputs["widen"]
        requested = TimeRange(times[max(a - before, 0)], times[min(a + k - 1 + after, p.visits - 1)])
        granted = TimeRange(times[a], times[a + k - 1])

        request = access.create_request_block(GROUP, self.researcher, chain.get(parent_id), requested, rng)
        request_ok, _ = publish(request, self.directories, self.pool, chain, inputs["pool_seeds"][0], outcome)

        secrets = self.secrets[owner]
        pending = access.pending_requests(chain, secrets)
        answered = pending[-1]
        approval = access.create_approval_block(GROUP, secrets, answered, granted, rng)
        approval_ok, _ = publish(approval, self.directories, self.pool, chain, inputs["pool_seeds"][1], outcome)

        package = access.build_disclosure_package(secrets, [r.block_id for r in secrets.records[a : a + k]])
        outcome.package_items = len(package.items)
        if outcome.package_items != package_items(k):
            raise LawError(f"package items {outcome.package_items} != 3k+2 at k={k}")
        if inputs["tamper"] is not None:
            package = tamper(package, *inputs["tamper"])
        received = DisclosurePackage.from_bytes(package.to_bytes())
        report = access.verify_disclosure(received, chain, self.store)

        outcome.ok = (
            request_ok and approval_ok and answered.block_id == request.block_id
            and report.all_ok == (inputs["tamper"] is None)
        )
        return outcome

    def stop_ok(self, i: int) -> bool:
        return True

    def maintain(self, i: int) -> None:
        if (i + 1) % self.params.epoch_rounds == 0:
            self.chain = Chain(GROUP)
            for entry in self.base_entries:
                self.chain.append(entry.block, entry.record)


def tamper(package: DisclosurePackage, kind: str, u: float, v: float, noise: bytes) -> DisclosurePackage:
    """Substitute, omit, reorder or truncate the package's entries."""
    entries = list(package.entries)
    k = len(entries)
    if k < 2:
        kind = "substitution"
    if kind == "substitution":
        i = int(u * k)
        name = ("sym_key", "data_ptr", "data_digest")[int(v * 3)]
        entries[i] = replace(entries[i], **{name: noise})
    elif kind == "omission":
        del entries[int(u * (k - 1))]
    elif kind == "reordering":
        i = int(u * (k - 1))
        j = i + 1 + int(v * (k - 1 - i))
        entries[i], entries[j] = entries[j], entries[i]
    else:
        entries.pop()
    return replace(package, entries=tuple(entries))


WORKLOADS = {
    SubmitLargeRing.name: (SubmitLargeRing, SubmitParams),
    AccessLongHistory.name: (AccessLongHistory, AccessParams),
    EnrollAndSubmit.name: (EnrollAndSubmit, EnrollParams),
}

# Rings of about eight keys, for the self-test.
TOY_PARAMS = {
    SubmitLargeRing.name: SubmitParams(patients=8, hospitals=4, miners=10, chain_epoch=4),
    AccessLongHistory.name: AccessParams(patients=4, hospitals=4, visits=8, miners=20, max_window=6, epoch_rounds=6),
    EnrollAndSubmit.name: EnrollParams(initial=4, final=12, batch=2, hospitals=4, miners=8),
}
