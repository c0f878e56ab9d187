"""Flat verify-and-vote consensus over a simulated miner pool.

Every miner (hospital) checks the submitted block and votes; the block
is approved once at least half the pool approves. Malicious miners
reject immediately at zero verification cost. Time is a virtual clock:
each honest miner's verification cost is sampled from the pool's timing
model, and every miner propagates its vote to every other miner at a
constant cost per ordered pair, so total propagation grows with the
square of the pool size.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .crypto import credential_verify  # noqa: F401 -- a name the benchmark's tracer wraps
from .crypto import credentials_verify, verify_signature
from .ledger import ApprovalBlock, Block, Chain, ConsensusResult, PatientBlock, RequestBlock, approval_threshold
from .ledger import pack_votes, range_message
from .registry import Directories


@dataclass(frozen=True)
class MinerPool:
    """Simulation parameters for one mining group, in virtual seconds.

    An honest miner's verification costs verify_seconds plus its own
    uniform [0, verify_jitter) sample; propagating a vote costs
    pair_seconds per ordered pair of miners. No timing is measured, so a
    seed gives the same result on every machine.
    """

    n_miners: int
    malicious_fraction: float = 0.0
    verify_seconds: float = 1e-3
    verify_jitter: float = 0.0
    pair_seconds: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_miners < 1:
            raise ValueError("pool needs at least one miner")
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ValueError("malicious_fraction must be in [0, 1]")
        timings = (self.verify_seconds, self.verify_jitter, self.pair_seconds)
        if not all(t >= 0 and math.isfinite(t) for t in timings):
            raise ValueError("timing constants must be nonnegative and finite")

    @property
    def n_malicious(self) -> int:
        # The epsilon absorbs float error in fraction * n when the fraction
        # was written as count/n (e.g. 15/22 * 22 rounds below 15).
        return math.floor(self.malicious_fraction * self.n_miners + 1e-9)


# ---------------------------------------------------------------------------
# Block verification (what each honest miner runs)
# ---------------------------------------------------------------------------


def verify_block(block: Block, directories: Directories, chain: Chain | None = None) -> bool:
    """Full miner-side validity check.

    A patient block's credentials are each checked against the prefix of
    their registry that the prover chose: a ring proof of m branches is
    verified against the first m enrolled keys. The ring gate
    (``crypto._ring_gate``) enforces 1 <= m <= the registry's size: m = 0
    gives an empty ring, and a larger m a ring shorter than the proof.
    Registries only append and an index never changes,
    so a block stays valid as enrollments land, and its anonymity set is
    that prefix, not the whole registry. A reordered or substituted ring of
    the same length fails the ring digest in the joint context.

    Request and approval blocks are checked against their parents in
    ``chain`` and are rejected without one; anything that is not a block is
    rejected. Every decoded block yields True or False, so whatever is raised
    here is a program bug and propagates.
    """
    if isinstance(block, PatientBlock):
        return _verify_patient_block(block, directories)
    if chain is None:
        return False
    if isinstance(block, RequestBlock):
        return _verify_request_block(block, directories, chain)
    if isinstance(block, ApprovalBlock):
        return _verify_approval_block(block, directories, chain)
    return False


def _verify_patient_block(block: PatientBlock, directories: Directories) -> bool:
    """Both credentials, checked as one commitment column (``crypto.credentials_verify``), then both signatures."""
    group = directories.group
    claims = [
        (registry.keys[: credential.membership.branch_count], block_public, credential)
        for registry, block_public, credential in (
            (directories.patients, block.patient_block_pk, block.patient_credential),
            (directories.hospitals, block.hospital_block_pk, block.hospital_credential),
        )
    ]
    if not credentials_verify(group, claims):
        return False
    body = block.body_bytes()
    if not verify_signature(group, block.patient_block_pk, body, block.patient_sig):
        return False
    return verify_signature(group, block.hospital_block_pk, body, block.hospital_sig)


def _verify_request_block(block: RequestBlock, directories: Directories, chain: Chain) -> bool:
    group = directories.group
    parent = chain.get(block.parent_ptr)
    if not isinstance(parent, PatientBlock):
        return False
    if block.researcher_pk not in directories.researchers:
        return False
    message = range_message(parent, block.requested_range)
    return verify_signature(group, block.researcher_pk, message, block.signature)


def _verify_approval_block(block: ApprovalBlock, directories: Directories, chain: Chain) -> bool:
    group = directories.group
    request = chain.get(block.parent_ptr)
    if not isinstance(request, RequestBlock):
        return False
    forked = chain.get(request.parent_ptr)
    if not isinstance(forked, PatientBlock):
        return False
    if not request.requested_range.encloses(block.granted_range):
        return False
    message = range_message(request, block.granted_range)
    return verify_signature(group, forked.patient_block_pk, message, block.signature)


# ---------------------------------------------------------------------------
# The vote
# ---------------------------------------------------------------------------


def run_consensus(
    block: Block,
    pool: MinerPool,
    directories: Directories,
    seed: int,
    chain: Chain | None = None,
) -> ConsensusResult:
    """Simulate one consensus round over the pool.

    The malicious subset is drawn deterministically from the seed. Honest
    miners all apply the same deterministic validity check (run once);
    malicious miners reject without verifying. The simulated time is the
    slowest miner's verification cost plus all-to-all vote propagation.

    The votes are stored as the result's packed records (``ledger.pack_votes``),
    which ``_votes`` makes from the seed: the roles that
    ``random.Random(seed).sample(range(n), k)`` picks, then one jitter draw
    per miner. A seed always gives the same result bytes, so that order and
    the order of the float operations must not change.

    The verdict, the counts and the clock are computed at the call. The
    counts depend on validity, n and k alone. At zero jitter an honest
    miner's seconds, ``verify_seconds + r * jitter`` for its draw r in
    [0, 1), are ``verify_seconds`` bit for bit when that is positive, since
    ``r * ±0.0`` is a zero. The slowest time is then what ``max`` over the
    per-miner list gives without the draw: ``verify_seconds`` if any miner
    is honest, else 0.0. Such a round returns a result that calls
    ``_votes`` when its ``vote_records`` are first read, and a result never
    read never draws. Every other round calls ``_votes`` at the call: a
    pool with jitter, whose jitter stream sets the slowest time, and a pool
    whose honest seconds are a zero, where ``max`` keeps the first of equal
    values, so miner 0's role decides the sign of the slowest time.
    """
    valid = verify_block(block, directories, chain)
    n, k = pool.n_miners, pool.n_malicious
    approvals = n - k if valid else 0
    propagation = pool.pair_seconds * n * (n - 1)
    counts = approvals >= approval_threshold(n), approvals, n - approvals
    if not pool.verify_jitter and pool.verify_seconds > 0:
        slowest = pool.verify_seconds if k < n else 0.0
        return ConsensusResult._of_round(
            *counts, slowest + propagation, functools.partial(_vote_records, seed, pool, valid)
        )
    slowest, records = _votes(seed, pool, valid)
    return ConsensusResult(*counts, slowest + propagation, records)


def _votes(seed: int, pool: MinerPool, valid: bool) -> tuple[float, bytes]:
    """The slowest miner's seconds and the packed records of the round the seed draws."""
    rng = random.Random(seed)
    flags = _draw_roles(rng, pool.n_miners, pool.n_malicious)
    # One jitter draw per miner regardless of role keeps the RNG stream
    # independent of the malicious count; a malicious miner then costs nothing.
    jittered = [pool.verify_seconds + rng.random() * pool.verify_jitter for _ in flags]
    seconds = [0.0 if malicious else honest for malicious, honest in zip(flags, jittered)]
    return max(seconds), pack_votes(flags, valid, seconds)


def _vote_records(seed: int, pool: MinerPool, valid: bool) -> bytes:
    """The records alone, for a result that makes them on first read."""
    return _votes(seed, pool, valid)[1]


def _draw_roles(rng: random.Random, n: int, k: int) -> bytearray:
    """The role flags of n miners, 1 for each of the k that ``rng.sample(range(n), k)`` picks."""
    flags = bytearray(n)
    for miner in rng.sample(range(n), k):
        flags[miner] = 1
    return flags
