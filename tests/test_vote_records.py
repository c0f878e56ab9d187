"""Consensus records hold their votes as packed 14-byte records.

The per-miner loop that built one vote object per miner is kept here as
the oracle: ``run_consensus`` must produce the same votes and the same
bytes. A zero-jitter round with positive seconds makes its records on
first read; every form of such a result must see the oracle's bytes. The
role draw, ``consensus._draw_roles``, must pick what
``random.Random.sample`` picks and leave the generator where it leaves it.
"""

import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from phrchain import Chain, MinerPool, consensus, ledger, run_consensus
from phrchain.consensus import ConsensusResult, _draw_roles, approval_threshold
from phrchain.encoding import FormatError, f64, u8, u32
from phrchain.ledger import VOTE_RECORD
from test_consensus import PINNED_ROUNDS, Vote, votes


def oracle_votes(valid: bool, pool: MinerPool, seed: int) -> tuple[Vote, ...]:
    """The per-miner vote loop, one object per miner."""
    rng = random.Random(seed)
    malicious = frozenset(rng.sample(range(pool.n_miners), pool.n_malicious))
    jitters = [rng.random() * pool.verify_jitter for _ in range(pool.n_miners)]
    return tuple(
        Vote(miner, True, False, 0.0)
        if miner in malicious
        else Vote(miner, False, valid, pool.verify_seconds + jitter)
        for miner, jitter in enumerate(jitters)
    )


def oracle_bytes(votes: tuple[Vote, ...], pool: MinerPool) -> bytes:
    """A consensus record serialized field by field from vote objects."""
    approvals = sum(vote.approve for vote in votes)
    propagation = pool.pair_seconds * pool.n_miners * (pool.n_miners - 1)
    header = (
        u8(approvals >= approval_threshold(pool.n_miners))
        + u32(approvals)
        + u32(pool.n_miners - approvals)
        + f64(max(vote.seconds for vote in votes) + propagation)
        + u32(len(votes))
    )
    return header + b"".join(
        u32(v.miner) + u8(v.malicious) + u8(v.approve) + f64(v.seconds) for v in votes
    )


ORACLE_POOLS = [
    (MinerPool(12, 0.25, verify_jitter=1e-4), 42),
    (MinerPool(800, 0.4), 3),
    (MinerPool(5, 1.0), 9),
    (MinerPool(9, 0.5, verify_seconds=0.0, verify_jitter=1e-4, pair_seconds=0.0), 17),
    (MinerPool(800, 0.4, verify_jitter=1e-4), 5),
    # No jitter draws are made at zero jitter; a signed zero must still pack
    # as the oracle's verify_seconds + r * jitter does.
    (MinerPool(7, 0.25, verify_seconds=-0.0), 23),
    (MinerPool(7, 0.25, verify_seconds=-0.0, verify_jitter=-0.0), 29),
]


@pytest.fixture()
def blocks(make_world):
    """A valid patient block and a tampered copy of it, with the world that made them."""
    world = make_world(patients=2, hospitals=2, miners=8, seed=11)
    block, _ = world.submit_block(world.patient(), b"consensus target", 1, append=False)
    bad = dataclasses.replace(block, condition_bits=b"\xff" + block.condition_bits[1:])
    return world, {True: block, False: bad}


class TestAgainstThePerMinerLoop:
    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    @pytest.mark.parametrize(("pool", "seed"), ORACLE_POOLS)
    def test_votes_and_bytes_match_the_oracle(self, blocks, pool, seed, valid):
        world, by_validity = blocks
        result = run_consensus(by_validity[valid], pool, world.directories, seed=seed)
        expected = oracle_votes(valid, pool, seed)
        assert votes(result) == expected
        assert result.to_bytes() == oracle_bytes(expected, pool)
        assert len(result.vote_records) == VOTE_RECORD.size * pool.n_miners == 14 * pool.n_miners

    @pytest.mark.parametrize("jitter", [0.0, 1e-4], ids=["no-jitter", "jitter"])
    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    def test_column_writer_matches_the_oracle_byte_for_byte(self, blocks, valid, jitter):
        world, by_validity = blocks
        for n in (1, 2, 3, 800, 801):
            for fraction in (0.0, 0.4, 1.0):
                pool = MinerPool(n, fraction, verify_jitter=jitter)
                seed = 1000 * n + int(10 * fraction)
                result = run_consensus(by_validity[valid], pool, world.directories, seed=seed)
                expected = oracle_bytes(oracle_votes(valid, pool, seed), pool)
                assert result.to_bytes() == expected, (n, fraction)

    def test_an_800_miner_record_keeps_under_16_kib(self, blocks):
        world, by_validity = blocks
        pool = MinerPool(800, 0.4)
        run_consensus(by_validity[True], pool, world.directories, seed=1)  # warm every cache
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_consensus(by_validity[True], pool, world.directories, seed=2)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.approvals == 480
        assert kept < 16 * 1024, kept


# Zero-jitter pools at the edges of the draw: k = 0, k = n, and one miner.
EDGE_POOLS = [
    (MinerPool(6, 0.0), 31),
    (MinerPool(6, 1.0), 37),
    (MinerPool(1, 0.0), 41),
    (MinerPool(1, 1.0), 43),
]
PINNED_DIGESTS = {(pool, seed): digest for pool, seed, digest in PINNED_ROUNDS}
DEFERRAL_CASES = list(dict.fromkeys(ORACLE_POOLS + list(PINNED_DIGESTS) + EDGE_POOLS))


def is_unread(result: ConsensusResult) -> bool:
    """True while the result holds no vote records, only the means to make them."""
    return "vote_records" not in vars(result)


@pytest.fixture()
def draws(monkeypatch):
    """The (n, k) of every role draw consensus makes, in order."""
    calls = []

    def counted(rng, n, k, draw=consensus._draw_roles):
        calls.append((n, k))
        return draw(rng, n, k)

    monkeypatch.setattr(consensus, "_draw_roles", counted)
    return calls


class TestDeferredRecords:
    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    @pytest.mark.parametrize(("pool", "seed"), DEFERRAL_CASES)
    def test_every_form_of_the_result_matches_the_oracle(self, blocks, pool, seed, valid):
        world, by_validity = blocks
        result = run_consensus(by_validity[valid], pool, world.directories, seed=seed)
        # Eager only with jitter or honest seconds that are a zero.
        assert is_unread(result) == (not pool.verify_jitter and pool.verify_seconds != 0)
        expected = oracle_votes(valid, pool, seed)
        wire = oracle_bytes(expected, pool)
        decoded = ConsensusResult.from_bytes(wire)
        assert hash(result) == hash(decoded)
        assert result == decoded
        for form in (result, ConsensusResult.from_bytes(result.to_bytes())):
            assert form.vote_records == decoded.vote_records == wire[-len(form.vote_records) :]
            assert votes(form) == votes(decoded) == expected
            assert form.to_bytes() == decoded.to_bytes() == wire
        if valid and (pool, seed) in PINNED_DIGESTS:
            assert hashlib.sha256(result.to_bytes()).hexdigest() == PINNED_DIGESTS[pool, seed]

    def test_a_zero_jitter_round_draws_on_its_first_read_only(self, blocks, draws):
        world, by_validity = blocks
        result = run_consensus(by_validity[True], MinerPool(800, 0.4), world.directories, seed=3)
        assert (result.approved, result.approvals, result.rejections) == (True, 480, 320)
        assert result.simulated_time == 1e-3 + 1e-6 * 800 * 799
        assert draws == []
        records = result.vote_records
        assert draws == [(800, 320)]
        assert result.vote_records is records
        result.to_bytes(), votes(result), hash(result)
        assert draws == [(800, 320)]

    @pytest.mark.parametrize(
        "pool",
        [
            MinerPool(800, 0.4, verify_jitter=1e-4),
            MinerPool(7, 0.25, verify_seconds=-0.0),
            MinerPool(7, 0.25, verify_seconds=0.0),
        ],
        ids=["jitter", "negative-zero", "zero"],
    )
    def test_jitter_and_zero_second_pools_draw_at_the_call(self, blocks, draws, pool):
        world, by_validity = blocks
        result = run_consensus(by_validity[True], pool, world.directories, seed=5)
        assert draws == [(pool.n_miners, pool.n_malicious)]
        assert not is_unread(result)
        result.to_bytes()
        assert len(draws) == 1

    def test_an_unread_800_miner_result_keeps_under_1_kib(self, blocks):
        world, by_validity = blocks
        pool = MinerPool(800, 0.4)
        run_consensus(by_validity[True], pool, world.directories, seed=1).to_bytes()  # warm every cache
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_consensus(by_validity[True], pool, world.directories, seed=2)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert is_unread(result)
        assert kept < 1024, kept

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda result: pickle.loads(pickle.dumps(result)), dataclasses.replace],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    def test_a_duplicate_of_an_unread_result_is_equal(self, blocks, duplicate):
        world, by_validity = blocks
        pool = MinerPool(800, 0.4)
        result = run_consensus(by_validity[True], pool, world.directories, seed=3)
        duplicated = duplicate(result)
        # replace reads every field; a copy or a pickle carries the round unread.
        assert is_unread(duplicated) == (duplicate is not dataclasses.replace)
        reference = run_consensus(by_validity[True], pool, world.directories, seed=3)
        assert duplicated == reference and hash(duplicated) == hash(reference)
        assert duplicated.to_bytes() == reference.to_bytes() == oracle_bytes(oracle_votes(True, pool, 3), pool)

    def test_a_chain_of_unread_results_round_trips(self, make_world):
        world = make_world(patients=3, miners=12, malicious=0.25, seed=19)
        for visit in range(1, 4):
            world.submit_block(world.patient(visit % 3), b"visit", visit)
        records = [entry.record for entry in world.chain.entries()]
        assert all(map(is_unread, records))
        wire = world.chain.to_bytes()
        loaded = Chain.from_bytes(wire)
        assert [entry.record for entry in loaded.entries()] == records
        assert [entry.record.to_bytes() for entry in loaded.entries()] == [
            oracle_bytes(oracle_votes(True, world.pool, world.seed + visit), world.pool) for visit in range(1, 4)
        ]
        assert loaded.to_bytes() == wire


def sample_pools(n: int, k: int) -> bool:
    """True when ``sample(range(n), k)`` shuffles a pool list, False when it
    draws into a set: CPython 3.11's own set-size rule."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n <= setsize


# (n, k): k of 0, 1 and n; n at the edges of the 10- and 11-bit bands of
# _randbelow; n = 1; n just above 21 with k <= 5, where only sample's k > 5
# guard makes it take the set branch; the 800-miner pool at 40%; and 400
# miners at 10-50% malicious, the pool of acceptance criterion 06.
ROLE_GRID = sorted(
    {(n, k) for n in (1, 2, 5, 10, 64, 512, 513, 600, 1024, 1025) for k in (0, 1, n)}
    | {(800, 320), (64, 16), (10, 3), (600, 300), (513, 200), (1025, 6), (1025, 700), (5000, 40)}
    | {(22, 2), (30, 5)}
    | {(400, 400 * percent // 100) for percent in (10, 20, 30, 40, 50)}
)


class TestRoleDraw:
    def test_the_grid_takes_both_branches_of_sample(self):
        assert {sample_pools(n, k) for n, k in ROLE_GRID} == {True, False}
        assert not sample_pools(400, 40) and sample_pools(400, 200) and sample_pools(800, 320)

    @pytest.mark.parametrize(("n", "k"), ROLE_GRID)
    def test_flags_and_generator_state_match_sample(self, n, k):
        for seed in range(25):
            drawn, sampled = random.Random(seed), random.Random(seed)
            flags = _draw_roles(drawn, n, k)
            picked = set(sampled.sample(range(n), k))
            assert flags == bytearray(miner in picked for miner in range(n)), (n, k, seed)
            assert drawn.getstate() == sampled.getstate(), (n, k, seed)
            # What follows the draw, the jitter stream, is unchanged.
            assert drawn.random() == sampled.random()


class TestStrictDecoding:
    @pytest.fixture()
    def raw(self, blocks):
        world, by_validity = blocks
        pool = MinerPool(5, 0.4, verify_jitter=1e-4)
        return bytearray(run_consensus(by_validity[True], pool, world.directories, seed=7).to_bytes())

    HEADER = 1 + 4 + 4 + 8 + 4  # approved, approvals, rejections, simulated time, vote count

    @pytest.mark.parametrize("offset", [4, 5], ids=["malicious", "approve"])
    def test_vote_flag_above_one_raises(self, raw, offset):
        raw[self.HEADER + 2 * VOTE_RECORD.size + offset] = 2
        with pytest.raises(FormatError, match="neither 0 nor 1"):
            ConsensusResult.from_bytes(bytes(raw))

    def test_approved_flag_above_one_raises(self, raw):
        raw[0] = 0x80
        with pytest.raises(FormatError, match="neither 0 nor 1"):
            ConsensusResult.from_bytes(bytes(raw))

    def test_approvals_differing_from_the_approve_flags_raise(self, raw):
        result = ConsensusResult.from_bytes(bytes(raw))
        shifted = dataclasses.replace(result, approvals=result.approvals - 1, rejections=result.rejections + 1)
        with pytest.raises(FormatError, match="votes approve"):
            ConsensusResult.from_bytes(shifted.to_bytes())

    def test_counts_differing_from_the_vote_count_raise(self, raw):
        result = ConsensusResult.from_bytes(bytes(raw))
        with pytest.raises(FormatError, match="votes counted"):
            ConsensusResult.from_bytes(dataclasses.replace(result, rejections=result.rejections + 1).to_bytes())

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_simulated_time_raises(self, raw, value):
        assert raw[9:17] == f64(ConsensusResult.from_bytes(bytes(raw)).simulated_time)
        raw[9:17] = f64(value)
        with pytest.raises(FormatError, match="not finite"):
            ConsensusResult.from_bytes(bytes(raw))

    @pytest.mark.parametrize("value", [math.inf, math.nan, -5.0, 1.5], ids=["inf", "nan", "negative", "above-time"])
    def test_vote_seconds_outside_the_simulated_time_raise(self, value):
        result = ConsensusResult(True, 1, 0, 1.0, VOTE_RECORD.pack(0, 0, 1, value))
        with pytest.raises(FormatError, match="seconds are outside"):
            ConsensusResult.from_bytes(result.to_bytes())

    @pytest.mark.parametrize("valid", [True, False], ids=["approved", "rejected"])
    def test_an_approved_byte_against_the_counts_raises(self, blocks, valid):
        world, by_validity = blocks
        pool = MinerPool(5, 0.4, verify_jitter=1e-4)
        raw = bytearray(run_consensus(by_validity[valid], pool, world.directories, seed=7).to_bytes())
        assert raw[0] == valid
        raw[0] ^= 1
        with pytest.raises(FormatError, match="disagrees"):
            ConsensusResult.from_bytes(bytes(raw))

    @pytest.mark.parametrize("approved", [False, True])
    def test_a_round_of_no_votes_raises(self, approved):
        # approval_threshold(0) is 0, so only the vote count refuses the
        # record that claims approval by none of its votes.
        for simulated in (0.0, -3.0):
            with pytest.raises(FormatError, match="holds no vote"):
                ConsensusResult.from_bytes(ConsensusResult(approved, 0, 0, simulated, b"").to_bytes())

    def test_the_threshold_has_one_home(self):
        assert consensus.approval_threshold is ledger.approval_threshold is approval_threshold

    @pytest.mark.parametrize("value", [-0.0, 0.0, 1.0])
    def test_vote_seconds_from_zero_to_the_simulated_time_decode(self, value):
        wire = ConsensusResult(True, 1, 0, 1.0, VOTE_RECORD.pack(0, 0, 1, value)).to_bytes()
        decoded = ConsensusResult.from_bytes(wire)
        assert decoded.to_bytes() == wire
        assert math.copysign(1.0, votes(decoded)[0].seconds) == math.copysign(1.0, value)


# Seconds a decoded vote may carry under a simulated time of at least 1.0.
votes_strategy = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
        st.floats(-0.0, 1.0),
    ),
    max_size=40,
)


class TestFuzz:
    @given(drawn=votes_strategy, simulated=st.floats(min_value=1.0) | st.just(-math.inf))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_of_arbitrary_votes(self, drawn, simulated):
        records = b"".join(VOTE_RECORD.pack(*vote) for vote in drawn)
        approvals = sum(approve for _, _, approve, _ in drawn)
        approved = approvals >= approval_threshold(len(drawn))
        result = ConsensusResult(approved, approvals, len(drawn) - approvals, simulated, records)
        if not math.isfinite(simulated):
            with pytest.raises(FormatError, match="not finite"):
                ConsensusResult.from_bytes(result.to_bytes())
        elif not drawn:
            with pytest.raises(FormatError, match="holds no vote"):
                ConsensusResult.from_bytes(result.to_bytes())
        else:
            assert ConsensusResult.from_bytes(result.to_bytes()) == result
        assert votes(result) == tuple(Vote(*vote) for vote in drawn)

    @given(votes=votes_strategy, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_from_bytes_on_mutated_records_returns_or_raises_format_error(self, votes, data):
        records = b"".join(VOTE_RECORD.pack(*vote) for vote in votes)
        approvals = sum(approve for _, _, approve, _ in votes)
        approved = approvals >= approval_threshold(len(votes))
        raw = bytearray(ConsensusResult(approved, approvals, len(votes) - approvals, 1.0, records).to_bytes())
        for _ in range(data.draw(st.integers(0, 3))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        raw = raw[: data.draw(st.integers(0, len(raw)))] + data.draw(st.binary(max_size=16))
        try:
            decoded = ConsensusResult.from_bytes(bytes(raw))
        except FormatError:
            return
        # Whatever decodes is canonical: it encodes back to the same bytes.
        assert decoded.to_bytes() == raw
