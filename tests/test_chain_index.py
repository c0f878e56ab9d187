"""The chain's indexes against the linear walks they replace.

``scan_blocks`` reads the (vector length, bit) index of patient blocks and
``pending_requests`` the per-parent index of request blocks. The walks
over every block that both made before are kept here as oracles; on
random chains the indexed reads must return the same lists in the same
order, also after the chain is rebuilt from its bytes or by re-appending
its entries.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from phrchain import (
    ApprovalBlock,
    BlockSecrets,
    Chain,
    HospitalContext,
    OffChainStore,
    PatientBlock,
    PatientContext,
    PatientSecrets,
    RequestBlock,
    TimeRange,
    codes_match,
    create_patient_block,
    keygen,
    new_directories,
    pending_requests,
    scan_blocks,
    sign,
)
from phrchain import ledger
from phrchain.consensus import ConsensusResult
from phrchain.ledger import VOTE_RECORD

APPROVED = ConsensusResult(True, 1, 0, 0.0, VOTE_RECORD.pack(0, 0, 1, 0.0))
OWNERS = 3
# Blocks draw their bits from a few low positions so that lists share
# bits; bit 200 is set by no block.
USED_BITS = 10
UNUSED_BIT = 200


def oracle_scan(chain: Chain, mask: bytes) -> list[bytes]:
    """The walk over every block that ``scan_blocks`` made before the index."""
    return [
        entry.block.block_id
        for entry in chain.entries()
        if isinstance(entry.block, PatientBlock) and codes_match(entry.block.condition_bits, mask)
    ]


def oracle_pending(chain: Chain, secrets: PatientSecrets) -> list[RequestBlock]:
    """The walk over every block that ``pending_requests`` made before the index."""
    own = {record.block_id for record in secrets.records}
    return [
        entry.block
        for entry in chain.entries()
        if isinstance(entry.block, RequestBlock) and entry.block.parent_ptr in own
    ]


@pytest.fixture(scope="module")
def parts(group):
    """One real patient block to vary, and a researcher key and signature."""
    rng = random.Random(90)
    directories = new_directories(group)
    patient, hospital, researcher = (keygen(group, rng) for _ in range(3))
    directories.patients.enroll(patient.public)
    directories.hospitals.enroll(hospital.public)
    directories.researchers.enroll(researcher.public)
    template, _ = create_patient_block(
        PatientContext(patient, 0, PatientSecrets()),
        HospitalContext(hospital, 0),
        b"template",
        bytes(32),
        directories,
        OffChainStore(),
        visit_time=1,
        rng=rng,
    )
    return group, template, researcher.public, sign(group, researcher, b"any", rng)


def vector(bits, length: int = 32) -> bytes:
    """A condition vector of the given byte length; bits beyond it are dropped."""
    return (sum(1 << bit for bit in bits) % (1 << 8 * length)).to_bytes(length, "big")


def secret(block_id: bytes, visit_time: int) -> BlockSecrets:
    """A patient's record of a block; only the id matters to these reads."""
    return BlockSecrets(block_id, None, b"", b"", b"", b"", b"", visit_time)


bit_sets = st.sets(st.integers(0, USED_BITS - 1), max_size=4)
steps = st.lists(
    st.one_of(
        # A patient block of one of the owners; now and then its vector
        # is not 32 bytes long, which the scan's length rule must drop.
        st.tuples(
            st.just("patient"),
            st.integers(0, OWNERS - 1),
            bit_sets,
            st.sampled_from([32] * 6 + [0, 31, 33]),
        ),
        # A request forking a patient block, another request, an id that
        # an owner holds but is not on the chain, or an unknown id.
        st.tuples(
            st.just("request"),
            st.sampled_from(["patient", "request", "held", "unknown"]),
            st.integers(0, 10**6),
        ),
        # An approval: it forks a request, and no index may list it.
        st.tuples(st.just("approval"), st.integers(0, 10**6)),
    ),
    max_size=40,
)
masks = st.one_of(
    st.just(bytes(32)),
    st.builds(lambda bit: vector([bit]), st.integers(0, USED_BITS - 1)),
    st.builds(vector, st.sets(st.integers(0, USED_BITS - 1), min_size=2, max_size=4)),
    st.builds(lambda bits: vector(bits | {UNUSED_BIT}), bit_sets),
    st.builds(vector, bit_sets, st.sampled_from([0, 31, 33])),
)


def build(parts, plan):
    """A chain from a plan, and every owner's secrets."""
    group, template, researcher_pk, signature = parts
    chain = Chain(group)
    histories = [[] for _ in range(OWNERS)]
    # An id owner 0 holds twice and that no block on the chain has.
    held = b"\x01" * 32
    histories[0] += [held, held]
    patients, requests = [], []
    for position, step in enumerate(plan):
        if step[0] == "patient":
            _, owner, bits, length = step
            block = dataclasses.replace(
                template, condition_bits=vector(bits, length), commitment=position.to_bytes(32, "big")
            )
            patients.append(block)
            histories[owner].append(block.block_id)
        elif step[0] == "request":
            _, kind, pick = step
            candidates = {"patient": patients, "request": requests}.get(kind)
            if kind == "held":
                parent = held
            elif candidates:
                parent = candidates[pick % len(candidates)].block_id
            else:
                parent = pick.to_bytes(32, "big")
            block = RequestBlock(parent, TimeRange(position, position + 1), researcher_pk, signature, group)
            requests.append(block)
        else:
            parent = requests[step[1] % len(requests)].block_id if requests else bytes(32)
            block = ApprovalBlock(parent, TimeRange(position, position), signature, group)
        chain.append(block, APPROVED)
    owners = []
    for history in histories:
        secrets = PatientSecrets()
        for visit, block_id in enumerate(history, start=1):
            secrets = secrets.with_record(secret(block_id, visit))
        owners.append(secrets)
    return chain, owners


def rebuilt(chain: Chain) -> Chain:
    copy = Chain(chain.group)
    for entry in chain.entries():
        copy.append(entry.block, entry.record)
    return copy


class TestIndexedReadsMatchTheWalks:
    @given(plan=steps, queries=st.lists(masks, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_on_random_chains(self, parts, plan, queries):
        chain, owners = build(parts, plan)
        for copy in (chain, Chain.from_bytes(chain.to_bytes()), rebuilt(chain)):
            assert list(copy.patient_blocks()) == [
                entry.block for entry in copy.entries() if isinstance(entry.block, PatientBlock)
            ]
            for mask in queries:
                assert scan_blocks(copy, mask) == oracle_scan(copy, mask)
            for secrets in owners:
                found = pending_requests(copy, secrets)
                assert [b.block_id for b in found] == [b.block_id for b in oracle_pending(copy, secrets)]


class TestCases:
    """The property's corner cases, each pinned once."""

    def test_interleaved_requests_come_back_in_chain_order(self, parts):
        plan = [("patient", 0, {1}, 32), ("patient", 1, {1}, 32), ("patient", 0, {2}, 32)]
        # Requests fork blocks 2, 0, 1, 2, 0 in that order.
        plan += [("request", "patient", pick) for pick in (2, 0, 1, 2, 0)]
        chain, owners = build(parts, plan)
        found = pending_requests(chain, owners[0])
        assert len(found) == 4
        assert found == oracle_pending(chain, owners[0])
        assert [b.requested_range.start for b in found] == [3, 4, 6, 7]

    def test_length_rule_and_multi_bit_masks(self, parts):
        plan = [
            ("patient", 0, {1, 2}, 32),
            ("patient", 0, {1}, 32),
            ("patient", 1, {1, 2}, 33),
            ("patient", 2, {2}, 32),
        ]
        chain, _ = build(parts, plan)
        ids = [b.block_id for b in chain.patient_blocks()]
        assert scan_blocks(chain, vector({1, 2})) == [ids[0]]
        assert scan_blocks(chain, vector({1})) == ids[:2]
        assert scan_blocks(chain, vector({2}, 33)) == [ids[2]]
        assert scan_blocks(chain, bytes(32)) == [ids[0], ids[1], ids[3]]
        assert scan_blocks(chain, vector({UNUSED_BIT})) == []

    def test_the_length_and_bit_index_against_the_walk(self, parts, monkeypatch):
        plan = [
            ("patient", 0, {1, 2, 3}, 32),
            ("patient", 1, {1}, 32),
            ("patient", 2, {1, 2}, 33),
            ("patient", 0, set(), 32),
            ("request", "patient", 0),
            ("patient", 1, {2, 3}, 32),
            ("patient", 2, {1, 3}, 31),
            ("approval", 0),
            ("patient", 0, {1, 2}, 32),
        ]
        chain, _ = build(parts, plan)
        masks = [bytes(32), bytes(33), vector({1}), vector({2}), vector({1, 2}), vector({1, 2, 3}),
                 vector({1}, 33), vector({1, 2}, 33), vector({3}, 31), vector({UNUSED_BIT}), vector({1, UNUSED_BIT})]
        for copy in (chain, Chain.from_bytes(chain.to_bytes()), rebuilt(chain)):
            expected = [oracle_scan(copy, mask) for mask in masks]
            assert [len(ids) for ids in expected] == [5, 1, 3, 3, 2, 1, 1, 1, 1, 0, 0]
            assert [scan_blocks(copy, mask) for mask in masks] == expected
            # A one-bit mask is answered by its (length, bit) list alone, with no
            # per-block test.
            monkeypatch.setattr(ledger, "mask_matcher", None)
            for mask in (vector({1}), vector({2}), vector({1}, 33), vector({3}, 31), vector({UNUSED_BIT})):
                assert scan_blocks(copy, mask) == expected[masks.index(mask)]
            monkeypatch.undo()

    def test_a_scan_returns_a_list_the_chain_does_not_keep(self, parts):
        plan = [("patient", 0, {1}, 32), ("patient", 1, {1, 2}, 32), ("patient", 2, {2}, 32)]
        chain, _ = build(parts, plan)
        for mask in (vector({1}), vector({2}), vector({1, 2}), bytes(32), vector({UNUSED_BIT})):
            expected = oracle_scan(chain, mask)
            found = scan_blocks(chain, mask)
            found.append(b"\x02" * 32)
            found.reverse()
            assert scan_blocks(chain, mask) == expected
            found.clear()
            assert scan_blocks(chain, mask) == expected

    def test_forks_of_takes_any_iterable_of_ids(self, parts):
        plan = [("patient", 0, set(), 32), ("patient", 0, set(), 32), ("request", "held", 0)]
        plan += [("request", "patient", pick) for pick in (1, 0, 1)]
        chain, owners = build(parts, plan)
        ids = list(owners[0].positions)
        expected = oracle_pending(chain, owners[0])
        assert [b.requested_range.start for b in expected] == [2, 3, 4, 5]
        for parent_ids in (ids, iter(ids), set(ids), owners[0].positions.keys(), ids + ids):
            assert chain.forks_of(parent_ids) == expected

    def test_requests_forking_what_is_not_a_patient_block(self, parts):
        plan = [("patient", 1, set(), 32), ("request", "held", 0), ("request", "patient", 0),
                ("request", "request", 0), ("approval", 1)]
        chain, owners = build(parts, plan)
        held = pending_requests(chain, owners[0])
        assert [b.requested_range.start for b in held] == [1]
        assert [b.requested_range.start for b in pending_requests(chain, owners[1])] == [2]
