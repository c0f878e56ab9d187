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
import itertools
import math
import random
import sys
from array import array
from dataclasses import dataclass

from .crypto import credential_verify, verify_signature
from .ledger import ApprovalBlock, Block, Chain, ConsensusResult, PatientBlock, RequestBlock, pack_votes
from .ledger import range_message
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


def approval_threshold(n_miners: int) -> int:
    """Votes needed for approval: at least half the pool."""
    return math.ceil(n_miners / 2)


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
    group = directories.group
    for registry, block_public, credential in (
        (directories.patients, block.patient_block_pk, block.patient_credential),
        (directories.hospitals, block.hospital_block_pk, block.hospital_credential),
    ):
        ring = registry.keys[: credential.membership.branch_count]
        if not credential_verify(group, ring, block_public, credential):
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

    The votes are stored as the result's packed records (``ledger.pack_votes``).
    A seed always gives the same result bytes, so the role draw, the jitter
    stream and the order of the float operations must not change. The role
    draw is ``_draw_roles``: the set ``random.Random(seed).sample(range(n), k)``
    picks, with the generator left where ``sample`` leaves it.

    The verdict, the counts and the clock are computed at the call. The
    counts depend on validity, n and k alone. At zero jitter every honest
    miner takes the same seconds, ``verify_seconds + 0.0 * verify_jitter``,
    and no jitter draw is made: nothing reads the RNG after the role draw,
    and for every draw r in [0, 1) and a jitter of 0.0 or -0.0, ``r * jitter``
    is ``0.0 * jitter`` bit for bit, so the records are
    ``pack_votes(flags, valid, seconds)`` for that one float. When those
    seconds are positive, the slowest time is what ``max`` over the
    per-miner list gives without the draw: the seconds if any miner is
    honest, else 0.0. The round then makes no draw and no records: it
    returns a result that draws the roles and packs the records when its
    ``vote_records`` are first read (``_vote_records``), and a result never
    read never draws. Two kinds of pool stay eager, drawing at the call:

    - a pool with jitter, whose jitter stream follows the role draw and
      sets the slowest time;
    - a pool whose honest seconds are a zero: ``max`` keeps the first of
      equal values, so miner 0's role decides the sign of the slowest time.
    """
    valid = verify_block(block, directories, chain)
    n, k = pool.n_miners, pool.n_malicious
    approvals = n - k if valid else 0
    propagation = pool.pair_seconds * n * (n - 1)
    counts = approvals >= approval_threshold(n), approvals, n - approvals
    seconds = pool.verify_seconds + 0.0 * pool.verify_jitter
    if not pool.verify_jitter and seconds > 0:
        slowest = seconds if k < n else 0.0
        return ConsensusResult._of_round(
            *counts, slowest + propagation, functools.partial(_vote_records, seed, n, k, valid, seconds)
        )
    rng = random.Random(seed)
    flags = _draw_roles(rng, n, k)
    if pool.verify_jitter:
        # One jitter draw per miner regardless of role keeps the RNG stream
        # independent of the malicious count; a malicious miner then costs nothing.
        seconds = [pool.verify_seconds + rng.random() * pool.verify_jitter for _ in range(n)]
        for miner in itertools.compress(range(n), flags):
            seconds[miner] = 0.0
        slowest = max(seconds)
    else:
        # What max over the per-miner list gives for seconds that are not positive.
        slowest = 0.0 if flags[0] else seconds
    return ConsensusResult(*counts, slowest + propagation, pack_votes(flags, valid, seconds))


def _vote_records(seed: int, n: int, k: int, valid: bool, seconds: float) -> bytes:
    """The records of a zero-jitter round: its roles drawn from the seed, every
    honest miner taking the one float ``seconds``."""
    return pack_votes(_draw_roles(random.Random(seed), n, k), valid, seconds)


def _draw_roles(rng: random.Random, n: int, k: int) -> bytearray:
    """The role flags of n miners, 1 for each of the k that
    ``rng.sample(range(n), k)`` would pick, with ``rng`` left in the state
    ``sample`` leaves it in (CPython 3.11).

    ``sample`` takes one of two branches, chosen by its own set-size rule:
    a partial Fisher-Yates shuffle of a pool list for small n, else draws
    into a set that redraws repeats. Each of its draws is
    ``_randbelow(m)``: one 32-bit word w per try, the candidate
    w >> (32 - m.bit_length()), accepted when below m. The words are read
    in bulk (``_words``), and only as many as are certain to be consumed:
    each draw still to be made takes at least one word, so a batch holds
    the draws left in the current bit-length band of m (the shuffle, where
    m falls by one each draw) or the members still missing (the set).
    """
    flags = bytearray(n)
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        m, stop = n, n - k
        while m > stop:
            band = m.bit_length()
            low, shift = max(stop, (1 << (band - 1)) - 1), 32 - band
            while m > low:
                for word in _words(rng, m - low):
                    j = word >> shift
                    if j < m:
                        m -= 1
                        flags[pool[j]] = 1
                        pool[j] = pool[m]
    else:
        shift = 32 - n.bit_length()
        missing = k
        while missing:
            for word in _words(rng, missing):
                j = word >> shift
                if j < n and not flags[j]:
                    flags[j] = 1
                    missing -= 1
    return flags


def _words(rng: random.Random, count: int) -> array:
    """The next ``count`` 32-bit outputs of the generator, in the order one
    ``getrandbits(32)`` each would give them: ``getrandbits`` puts its first
    word lowest."""
    words = array("I", rng.getrandbits(32 * count).to_bytes(4 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words
