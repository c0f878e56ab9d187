"""Values computed once and kept: a block's hash state, a public key's
subgroup verdict, and a ring proof's branches as their wire records."""

import copy
import dataclasses
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from phrchain import (
    ApprovalBlock,
    PatientBlock,
    RequestBlock,
    RingProof,
    SchnorrProof,
    TimeRange,
    create_approval_block,
    create_request_block,
    credential_prove,
    credential_verify,
    digest,
    keygen,
    ring_verify,
    ring_prove,
    run_consensus,
    schnorr_prove,
    schnorr_verify,
    sign,
    verify_signature,
)
from phrchain import group as group_module
from phrchain.consensus import verify_block
from phrchain.crypto import _BranchLayout
from phrchain.encoding import decode
from phrchain.group import GroupParams
from phrchain.ledger import decode_block


@pytest.fixture()
def encodings(monkeypatch):
    """Counts each block kind's encoder runs, per block object."""
    calls = Counter()
    for kind in (PatientBlock, RequestBlock, ApprovalBlock):
        def counted(self, encode=kind.canonical_bytes):
            calls[id(self)] += 1
            return encode(self)

        monkeypatch.setattr(kind, "canonical_bytes", counted)
    return calls


def publish(world, block, seed):
    """Ship a block as bytes, vote on the decoded copy and append it, as miners do."""
    received = decode_block(block.canonical_bytes(), world.group)
    result = run_consensus(received, world.pool, world.directories, seed, chain=world.chain)
    assert result.approved
    world.chain.append(received, result)
    return received


class TestBlockBytes:
    def test_a_decoded_block_is_never_encoded(self, make_world, encodings):
        world = make_world(patients=2, hospitals=2)
        block, patient = world.submit_block(world.patient(), b"visit", 1, append=False)
        assert encodings[id(block)] == 1  # its hash state, made for block_id, taken for the patient's record
        received = publish(world, block, 1)
        assert encodings[id(block)] == 2  # the bytes shipped are not kept
        assert encodings[id(received)] == 0  # its hash state is fed with the bytes it came from

        request = create_request_block(world.group, world.researcher_kps[0], received, TimeRange(1, 1), world.rng)
        received_request = publish(world, request, 2)
        approval = create_approval_block(world.group, patient.secrets, received_request, TimeRange(1, 1), world.rng)
        received_approval = publish(world, approval, 3)

        # The parent was signed over by the researcher and checked by every
        # miner, the request likewise by the patient, each from its decoded
        # copy's hash state: only the blocks shipped were encoded.
        blocks = (block, received, request, received_request, approval, received_approval)
        assert [encodings[id(b)] for b in blocks] == [2, 0, 1, 0, 1, 0]
        assert sum(encodings.values()) == 4

    def test_replace_encodes_and_hashes_afresh(self, make_world):
        world = make_world(patients=2, hospitals=2)
        block, _ = world.submit_block(world.patient(), b"visit", 1, append=False)
        honest_bytes, honest_id = block.canonical_bytes(), block.block_id
        # A forged ring response, rebuilt the way the benchmark's forge() does.
        proof = block.patient_credential
        branches = list(proof.membership.branches)
        branches[0] = dataclasses.replace(branches[0], response=(branches[0].response + 1) % world.group.order)
        membership = dataclasses.replace(proof.membership, branches=tuple(branches))
        forged = dataclasses.replace(block, patient_credential=dataclasses.replace(proof, membership=membership))
        assert forged.canonical_bytes() != honest_bytes
        assert forged.block_id == digest(forged.canonical_bytes()) != honest_id
        assert block.canonical_bytes() == honest_bytes and block.block_id == honest_id

        request = create_request_block(world.group, world.researcher_kps[0], block, TimeRange(1, 2), world.rng)
        assert request.block_id == digest(request.canonical_bytes())
        widened = dataclasses.replace(request, requested_range=TimeRange(0, 2))
        assert widened.canonical_bytes() != request.canonical_bytes()
        assert widened.block_id == digest(widened.canonical_bytes()) != request.block_id


@pytest.fixture()
def symbols(monkeypatch):
    """Counts ``is_element`` calls per value, from an empty verdict cache
    and no kept ring table, whose entries would hold earlier verdicts."""
    group_module._key_verdict.cache_clear()
    group_module._ring_tables.clear()
    calls = Counter()
    original = GroupParams.is_element

    def counted(self, value):
        calls[value] += 1
        return original(self, value)

    monkeypatch.setattr(GroupParams, "is_element", counted)
    return calls


class TestKeyVerdicts:
    def test_a_key_is_tested_once_across_checks(self, group, make_world, symbols):
        world = make_world(patients=3, hospitals=1)
        block_kp = keygen(group, world.rng)
        ring = world.directories.patients.keys
        credential = credential_prove(group, ring, 1, world.patient_kps[1].secret, block_kp, world.rng)
        assert credential_verify(group, ring, block_kp.public, credential)
        for message in (b"one", b"two"):
            assert verify_signature(group, block_kp.public, message, sign(group, block_kp, message, world.rng))
        assert schnorr_verify(group, block_kp.public, schnorr_prove(group, block_kp, b"ctx", world.rng), b"ctx")
        assert symbols[block_kp.public] == 1

    def test_ring_keys_are_tested_once_across_ring_checks(self, group, make_world, symbols):
        # Registry.enroll makes each key's kept verdict, and every ring
        # check after it, the prover's table included, reads that verdict.
        world = make_world(patients=5, hospitals=1)
        ring = world.directories.patients.keys
        assert group_module._key_verdict.cache_info().currsize >= len(ring)
        assert all(symbols[key] == 1 for key in ring)
        block_kp = keygen(group, world.rng)
        for index in (0, 3):
            credential = credential_prove(group, ring, index, world.patient_kps[index].secret, block_kp, world.rng)
            assert credential_verify(group, ring, block_kp.public, credential)
            assert ring_verify(group, ring, credential.membership, credential.joint_context)
        assert all(symbols[key] == 1 for key in ring)

    def test_a_kept_ring_is_neither_tested_nor_prepared_again(self, group, monkeypatch):
        # A ring's table holds its keys' entries and its one verdict, so with
        # the per-key cache emptied, a second check of the ring makes no
        # Jacobi symbol and no inverse. The first check is made in one
        # process, so that every entry is prepared here whichever side of
        # the column a worker computes later.
        rng = random.Random(122)
        # One key tuple, as a registry hands out its keys: its table is found
        # by the tuple's identity.
        kps = [keygen(group, rng) for _ in range(300)]
        ring = tuple(kp.public for kp in kps)
        proof = ring_prove(group, ring, 150, kps[150].secret, b"ctx", rng)
        with monkeypatch.context() as alone:
            alone.setattr(group_module, "_workers", [])
            assert ring_verify(group, ring, proof, b"ctx")
        group_module._key_verdict.cache_clear()
        calls = Counter()
        for name in ("_BN_kronecker", "_BN_mod_inverse"):

            def counted(*args, name=name, real=getattr(group_module, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(group_module, name, counted)
        for _ in range(2):
            assert ring_verify(group, ring, proof, b"ctx")
        assert not ring_verify(group, ring, proof, b"other ctx")
        assert calls == Counter()
        assert group.is_element(ring[0]) and calls == Counter({"_BN_kronecker": 1})  # the count sees a symbol

    def test_a_non_member_key_is_rejected_every_time_and_gets_no_table(self, group, monkeypatch, symbols):
        # The gate stops the key before any keyed exponentiation.
        tabled = []
        run = group_module._Pinned.run

        def recording(self, group, entries, *rest):
            tabled.extend(entries)
            return run(self, group, entries, *rest)

        monkeypatch.setattr(group_module._Pinned, "run", recording)
        kp = keygen(group)
        signature = sign(group, kp, b"message")
        # -y is a non-residue (p = 3 mod 4); p - 1 has order 2.
        for key in (group.modulus - kp.public, group.modulus - 1):
            for _ in range(3):
                assert not verify_signature(group, key, b"message", signature)
            assert symbols[key] == 1
        assert tabled == []
        assert verify_signature(group, kp.public, b"message", signature)
        assert tabled == [group.key_is_element(kp.public)]

    def test_a_block_over_a_proper_prefix_meets_one_table(self, make_world, monkeypatch):
        # A block proved before its registries grew is checked over a
        # prefix of each, which the registry hands out as one kept tuple:
        # checking it twice makes one table per ring, and four checks leave
        # the grown registry's own table kept.
        world = make_world(patients=250, hospitals=6, seed=123)
        block, _ = world.submit_block(world.patient(3), b"data", 1, append=False)
        rng = random.Random(124)
        for _ in range(50):
            world.directories.patients.enroll(keygen(world.group, rng).public)
        group_module._ring_tables.clear()
        full = world.group.ring_table(world.directories.patients.keys)
        made, init = [], group_module._Ring.__init__
        monkeypatch.setattr(
            group_module._Ring, "__init__", lambda self, *args: made.append(len(args[1])) or init(self, *args)
        )
        for _ in range(2):
            assert verify_block(block, world.directories)
        assert sorted(made) == [6, 250]  # the patient ring's prefix and the hospital ring, once each
        for _ in range(4):
            assert verify_block(block, world.directories)
        assert sorted(made) == [6, 250]
        assert world.group.ring_table(world.directories.patients.keys) is full
        assert len(made) == 2
        group_module._ring_tables.clear()

    def test_the_verdicts_are_bounded_like_the_tables(self, tiny_group, symbols):
        bound = group_module._KEY_VERDICTS
        assert group_module._key_verdict.cache_info().maxsize == bound == 16384
        # Values outside [2, modulus) are tested cheaply and are all distinct keys.
        for key in range(-1, -bound - 11, -1):
            assert not tiny_group.key_is_element(key)
        assert group_module._key_verdict.cache_info().currsize == bound
        assert tiny_group.key_is_element(4) and tiny_group.key_is_element(4)
        assert not tiny_group.key_is_element(-1)  # evicted: the earliest keys were pushed out
        assert symbols[4] == 1 and symbols[-1] == 2 and symbols[-bound - 10] == 1


@pytest.fixture()
def constructions(monkeypatch):
    """Counts ``SchnorrProof`` objects built from here on."""
    built = Counter()
    init = SchnorrProof.__init__

    def counted(self, *args, **kwargs):
        built["SchnorrProof"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SchnorrProof, "__init__", counted)
    return built


class TestRingRecords:
    def test_a_decoded_ring_proof_holds_about_its_wire_bytes(self, group):
        m = 512
        rng = random.Random(126)
        kps = [keygen(group, rng) for _ in range(m)]
        ring = [kp.public for kp in kps]
        wire = ring_prove(group, ring, 7, kps[7].secret, b"ctx", rng).to_bytes(group)
        decode(wire, RingProof.read_from, group)  # the group's record layout, built once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            proof = decode(wire, RingProof.read_from, group)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 96 bytes a branch and one object: no SchnorrProof, no int per value.
        assert held <= 1.25 * 96 * m + 4096
        assert ring_verify(group, ring, proof, b"ctx")
        assert proof.to_bytes(group) == wire

    def test_verify_block_builds_no_ring_branch(self, make_world, constructions):
        world = make_world(patients=6, hospitals=3)
        block, _ = world.submit_block(world.patient(), b"visit", 1, append=False)
        constructions.clear()
        received = decode_block(block.canonical_bytes(), world.group)
        credentials = (received.patient_credential, received.hospital_credential)
        assert constructions["SchnorrProof"] == 2  # the two possession halves
        constructions.clear()
        assert verify_block(received, world.directories)
        result = run_consensus(received, world.pool, world.directories, 1, chain=world.chain)
        assert result.approved
        world.chain.append(received, result)
        assert received.canonical_bytes() == block.canonical_bytes()
        assert constructions["SchnorrProof"] == 0
        assert all("branches" not in vars(credential.membership) for credential in credentials)
        # The count is live: asking for the branches builds one per ring key.
        assert [credential.membership.branch_count for credential in credentials] == [6, 3]
        assert sum(len(credential.membership.branches) for credential in credentials) == 9
        assert constructions["SchnorrProof"] == 9

    def test_a_proved_ring_proof_keeps_only_its_records(self, group, constructions):
        rng = random.Random(127)
        kps = [keygen(group, rng) for _ in range(8)]
        ring = [kp.public for kp in kps]
        proof = ring_prove(group, ring, 2, kps[2].secret, b"ctx", rng)
        assert ring_verify(group, ring, proof, b"ctx")
        assert constructions["SchnorrProof"] == 0 and "branches" not in vars(proof)

    def test_a_kept_proof_copies_and_pickles(self, group):
        rng = random.Random(128)
        kps = [keygen(group, rng) for _ in range(5)]
        ring = [kp.public for kp in kps]
        wire = ring_prove(group, ring, 4, kps[4].secret, b"ctx", rng).to_bytes(group)
        proof = decode(wire, RingProof.read_from, group)
        for twin in (copy.deepcopy(proof), pickle.loads(pickle.dumps(proof))):
            assert "branches" not in vars(twin)
            assert twin.to_bytes(group) == wire and ring_verify(group, ring, twin, b"ctx")
            assert twin == proof

    def test_range_rules_are_checked_once_where_records_are_made(self, group, monkeypatch):
        rng = random.Random(129)
        kps = [keygen(group, rng) for _ in range(6)]
        ring = [kp.public for kp in kps]
        proved = ring_prove(group, ring, 3, kps[3].secret, b"ctx", rng)
        wire = proved.to_bytes(group)
        scans = Counter()
        fault = _BranchLayout.fault

        def counted(self, records):
            scans["fault"] += 1
            return fault(self, records)

        monkeypatch.setattr(_BranchLayout, "fault", counted)
        decoded = decode(wire, RingProof.read_from, group)
        assert scans["fault"] == 1
        # A proof built from SchnorrProof objects is checked when it is first packed.
        in_memory = RingProof(tuple(decoded.branches), decoded.binding_challenge)
        for _ in range(3):
            for proof in (proved, decoded, in_memory):
                assert ring_verify(group, ring, proof, b"ctx")
        assert scans["fault"] == 2
