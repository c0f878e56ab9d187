import dataclasses
import hashlib
import math
import random
from collections import namedtuple
from statistics import fmean

import pytest

from phrchain import (
    CredentialProof,
    MinerPool,
    SchnorrProof,
    TimeRange,
    create_approval_block,
    create_request_block,
    credential_prove,
    keygen,
    new_directories,
    run_consensus,
    sign,
    verify_block,
)
from phrchain.consensus import ConsensusResult, approval_threshold
from phrchain.crypto import (
    _commitment_bytes,
    _joint_context,
    _ring_binding_challenge,
    _ring_commit,
    _ring_finish,
    _schnorr_challenge,
)
from phrchain.encoding import FormatError
from phrchain.ledger import VOTE_RECORD, decode_block

# One vote of a round, as its VOTE_RECORD reads.
Vote = namedtuple("Vote", "miner malicious approve seconds")


def votes(result: ConsensusResult) -> tuple[Vote, ...]:
    """The round's votes, unpacked from its records."""
    return tuple(map(Vote._make, VOTE_RECORD.iter_unpack(result.vote_records)))


@pytest.fixture()
def valid_world(make_world):
    world = make_world(patients=2, hospitals=2, miners=8, seed=11)
    block, patient = world.submit_block(world.patient(), b"consensus target", 1, append=False)
    return world, block, patient


class TestVerifyBlock:
    def test_honest_block_accepted(self, valid_world):
        world, block, _ = valid_world
        assert verify_block(block, world.directories)

    def test_byte_flip_scan_over_serialized_block(self, valid_world):
        world, block, _ = valid_world
        raw = block.canonical_bytes()
        for position in range(len(raw)):
            mutated = bytearray(raw)
            mutated[position] ^= 0x01
            try:
                parsed = decode_block(bytes(mutated), world.group)
            except (FormatError, ValueError):
                continue  # unparseable submissions never reach a vote
            assert not verify_block(parsed, world.directories), position

    def test_tampered_field_rejected(self, valid_world):
        world, block, _ = valid_world
        tampered = dataclasses.replace(block, condition_bits=b"\x01" + block.condition_bits[1:])
        assert not verify_block(tampered, world.directories)
        swapped = dataclasses.replace(block, commitment=bytes(32))
        assert not verify_block(swapped, world.directories)

    def test_never_throws_on_malformed_input(self, make_world):
        world = make_world()
        assert not verify_block(None, world.directories)
        assert not verify_block(object(), world.directories)


def _directories_with(world, patients=None, hospitals=None):
    """Fresh registries holding the given key lists (the world's, by default)."""
    directories = new_directories(world.group)
    for registry, keys in (
        (directories.patients, patients or world.directories.patients.keys),
        (directories.hospitals, hospitals or world.directories.hospitals.keys),
    ):
        for key in keys:
            registry.enroll(key)
    return directories


class TestRingIsTheRegistryPrefix:
    """A credential of m branches is checked against its registry's first m keys."""

    @pytest.fixture()
    def grown(self, make_world):
        world = make_world(patients=6, hospitals=4, miners=4, seed=31)
        block, _ = world.submit_block(world.patient(2), b"before the enrollments", 1, append=False)
        assert verify_block(block, world.directories)
        for registry in (world.directories.patients, world.directories.hospitals):
            for _ in range(3):
                registry.enroll(keygen(world.group, world.rng).public)
        return world, block

    def test_block_verifies_after_enrollments_into_both_registries(self, grown):
        world, block = grown
        assert len(world.directories.patients) == 9 and len(world.directories.hospitals) == 7
        assert verify_block(block, world.directories)
        assert run_consensus(block, world.pool, world.directories, seed=1).approved

    @pytest.mark.parametrize("role", ["patients", "hospitals"])
    def test_reordered_prefix_rejected(self, grown, role):
        world, block = grown
        keys = list(getattr(world.directories, role).keys)
        keys[0], keys[1] = keys[1], keys[0]
        assert not verify_block(block, _directories_with(world, **{role: keys}))

    @pytest.mark.parametrize("role", ["patients", "hospitals"])
    def test_substituted_prefix_key_rejected(self, grown, role):
        world, block = grown
        keys = list(getattr(world.directories, role).keys)
        keys[0] = keygen(world.group, world.rng).public
        assert not verify_block(block, _directories_with(world, **{role: keys}))

    @pytest.mark.parametrize("role", ["patients", "hospitals"])
    def test_ring_longer_than_the_registry_rejected(self, grown, role):
        world, block = grown
        credential = getattr(block, role[:-1] + "_credential")
        shorter = getattr(world.directories, role).keys[: len(credential.membership.branches) - 1]
        assert not verify_block(block, _directories_with(world, **{role: shorter}))

    def test_empty_ring_rejected(self, grown):
        world, block = grown
        credential = block.patient_credential
        empty = dataclasses.replace(credential, membership=dataclasses.replace(credential.membership, branches=()))
        assert not verify_block(dataclasses.replace(block, patient_credential=empty), world.directories)


def _negated_credential(group, ring, index, secret, block_kp, rng, branch):
    """``credential_prove`` with one commitment negated before anything is
    hashed: ring branch ``branch``, or the possession commitment for None."""
    state = _ring_commit(group, ring, index, secret, rng)
    nonce = group.random_scalar(rng)
    possession = group.exp(group.generator, nonce)
    if branch is None:
        possession = group.modulus - possession
    else:
        commitments = list(state.commitments)
        commitments[branch] = group.modulus - commitments[branch]
        state = dataclasses.replace(state, commitments=tuple(commitments))
    commitment_bytes = _commitment_bytes(group, state.commitments)
    joint = _joint_context(group, ring, block_kp.public, possession, commitment_bytes)
    membership = _ring_finish(
        group, state, secret, _ring_binding_challenge(group, joint, commitment_bytes), commitment_bytes
    )
    challenge = _schnorr_challenge(group, joint, block_kp.public, possession)
    response = (nonce + challenge * block_kp.secret) % group.order
    return CredentialProof(membership, SchnorrProof(possession, challenge, response), joint)


class TestNonSubgroupElements:
    """``decode_element`` admits any value in [1, p), so values outside the
    subgroup reach the verifiers, which must reject them without raising.
    The patient ring has 130 keys (above the 128 up to which ring_verify
    tests each commitment) and the hospital ring 4."""

    @pytest.fixture()
    def large_world(self, make_world):
        world = make_world(patients=130, hospitals=4, seed=21)
        block, _ = world.submit_block(world.patient(5), b"non-subgroup target", 1, append=False)
        assert verify_block(block, world.directories)
        return world, block

    def test_substituted_element_slots_rejected(self, large_world):
        world, block = large_world
        group = world.group
        p = group.modulus
        patient, hospital = block.patient_credential, block.hospital_credential
        slots = {
            "patient-ring-branch@0": patient.membership.branches[0].commitment,
            "patient-ring-branch@5": patient.membership.branches[5].commitment,
            "patient-ring-branch@129": patient.membership.branches[129].commitment,
            "hospital-ring-branch@1": hospital.membership.branches[1].commitment,
            "patient-possession": patient.possession.commitment,
            "hospital-possession": hospital.possession.commitment,
            "patient-signature": block.patient_sig.commitment,
            "hospital-signature": block.hospital_sig.commitment,
            # A block key also sits in its credential's joint context; the
            # last occurrence is the element slot of the body.
            "patient-block-key": block.patient_block_pk,
            "hospital-block-key": block.hospital_block_pk,
        }
        wire = block.canonical_bytes()
        for label, value in slots.items():
            at = wire.rindex(group.encode_element(value))
            for substitute in (p - 1, p - value):
                mutated = wire[:at] + group.encode_element(substitute) + wire[at + group.element_size :]
                decoded = decode_block(mutated, group)
                assert not verify_block(decoded, world.directories), (label, substitute)

    @pytest.mark.parametrize(
        "negated",
        [None, ("patient", 0), ("patient", 129), ("hospital", 2), ("patient", None), ("hospital", None)],
        ids=["honest", "patient-branch@0", "patient-branch@129", "hospital-branch@2",
             "patient-possession", "hospital-possession"],
    )
    def test_negated_commitment_rebound_by_prover_rejected(self, large_world, negated):
        # The prover negates a commitment before hashing, so the joint context
        # and every challenge match and only membership separates the proof
        # from an honest one; None is the honest control.
        world, block = large_world
        group, rng = world.group, random.Random(31)
        keys = {"patient": keygen(group, rng), "hospital": keygen(group, rng)}
        credentials = {}
        for party, directory, identity in (
            ("patient", world.directories.patients, world.patient_kps[5]),
            ("hospital", world.directories.hospitals, world.hospital_kps[0]),
        ):
            index = directory.keys.index(identity.public)
            if negated is not None and negated[0] == party:
                credentials[party] = _negated_credential(
                    group, directory.keys, index, identity.secret, keys[party], rng, negated[1]
                )
            else:
                credentials[party] = credential_prove(
                    group, directory.keys, index, identity.secret, keys[party], rng
                )
        unsigned = dataclasses.replace(
            block,
            patient_credential=credentials["patient"],
            hospital_credential=credentials["hospital"],
            patient_block_pk=keys["patient"].public,
            hospital_block_pk=keys["hospital"].public,
        )
        body = unsigned.body_bytes()
        forged = dataclasses.replace(
            unsigned,
            patient_sig=sign(group, keys["patient"], body, rng),
            hospital_sig=sign(group, keys["hospital"], body, rng),
        )
        decoded = decode_block(forged.canonical_bytes(), group)
        assert verify_block(decoded, world.directories) == (negated is None)


class TestThreshold:
    def test_threshold_values(self):
        assert approval_threshold(1) == 1
        assert approval_threshold(2) == 1
        assert approval_threshold(3) == 2
        assert approval_threshold(4) == 2
        assert approval_threshold(5) == 3

    def test_malicious_count_is_floor(self):
        for n in range(1, 40):
            for c in range(n + 1):
                pool = MinerPool(n_miners=n, malicious_fraction=c / n)
                assert pool.n_malicious == c
        assert MinerPool(n_miners=10, malicious_fraction=0.35).n_malicious == 3

    def test_four_miners_one_malicious_approves(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=4, malicious_fraction=0.25)
        result = run_consensus(block, pool, world.directories, seed=0)
        assert result.approvals == 3
        assert result.rejections == 1
        assert result.approved

    def test_two_miners_one_malicious_approves(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=2, malicious_fraction=0.5)
        result = run_consensus(block, pool, world.directories, seed=0)
        assert result.approvals == 1
        assert result.approved

    def test_majority_malicious_rejects_valid_block(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=10, malicious_fraction=0.6)
        result = run_consensus(block, pool, world.directories, seed=0)
        assert result.approvals == 4
        assert not result.approved

    def test_invalid_block_always_rejected(self, valid_world):
        world, block, _ = valid_world
        bad = dataclasses.replace(block, condition_bits=b"\xff" + block.condition_bits[1:])
        for fraction in (0.0, 0.25, 0.5):
            result = run_consensus(bad, MinerPool(8, fraction), world.directories, seed=1)
            assert result.approvals == 0
            assert not result.approved

    def test_exhaustive_small_pools(self, valid_world):
        world, block, _ = valid_world
        for n in range(1, 17):
            for c in range(n + 1):
                pool = MinerPool(n_miners=n, malicious_fraction=c / n)
                result = run_consensus(block, pool, world.directories, seed=n * 100 + c)
                assert result.approvals + result.rejections == n
                assert result.approved == (n - c >= approval_threshold(n))


class TestTiming:
    def test_single_miner_time_is_one_verification(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=1, verify_seconds=0.002, pair_seconds=1e-6)
        result = run_consensus(block, pool, world.directories, seed=0)
        assert result.simulated_time == 0.002  # no peers, no propagation

    def test_simulated_time_formula(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=10, malicious_fraction=0.3, verify_seconds=1e-3, pair_seconds=1e-6)
        result = run_consensus(block, pool, world.directories, seed=3)
        assert result.simulated_time == pytest.approx(1e-3 + 1e-6 * 10 * 9)

    def test_quadratic_scaling_slope(self, valid_world):
        world, block, _ = valid_world
        times = {}
        for n in (100, 200, 400, 800):
            pool = MinerPool(n_miners=n, verify_seconds=1e-3, pair_seconds=1e-6)
            times[n] = run_consensus(block, pool, world.directories, seed=0).simulated_time
        xs = [math.log(n) for n in times]
        ys = [math.log(t) for t in times.values()]
        x_mean, y_mean = fmean(xs), fmean(ys)
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
            (x - x_mean) ** 2 for x in xs
        )
        assert 1.9 <= slope <= 2.1

    def test_jitter_sampled_per_miner(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=6, verify_seconds=1e-3, verify_jitter=1e-4)
        result = run_consensus(block, pool, world.directories, seed=4)
        honest = [v.seconds for v in votes(result) if not v.malicious]
        assert len(set(honest)) > 1
        assert all(1e-3 <= s < 1e-3 + 1e-4 for s in honest)

    def test_malicious_vote_costs_nothing(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=8, malicious_fraction=0.5)
        result = run_consensus(block, pool, world.directories, seed=5)
        malicious = [v for v in votes(result) if v.malicious]
        assert len(malicious) == 4
        assert all(v.seconds == 0.0 and not v.approve for v in malicious)

    @pytest.mark.parametrize("field", ["verify_seconds", "verify_jitter", "pair_seconds"])
    def test_pool_rejects_negative_timing(self, field):
        with pytest.raises(ValueError, match="nonnegative"):
            MinerPool(n_miners=4, **{field: -1e-9})
        with pytest.raises(ValueError, match="nonnegative"):
            MinerPool(n_miners=4, **{field: float("nan")})
        assert getattr(MinerPool(n_miners=4, **{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", ["verify_seconds", "verify_jitter", "pair_seconds"])
    def test_pool_rejects_non_finite_timing(self, field, value):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            MinerPool(n_miners=4, **{field: value})
        assert getattr(MinerPool(n_miners=4, **{field: 1e300}), field) == 1e300


# (pool, seed, SHA-256 of ConsensusResult.to_bytes()) for valid_world's block,
# recorded while the round still had a wall-clock mode: the role draw, the
# jitter stream and the clock's float operations must not change.
PINNED_ROUNDS = [
    (MinerPool(12, 0.25, verify_jitter=1e-4), 42,
     "d0d64dca8fcaa353da142e58113fe882d58f8a5bb31990820348e1465a8e970e"),
    (MinerPool(800, 0.4), 3,
     "eda1b4b23685dfa7ef5ec4df0e3fddd218843b0506345812bb40be2c4269c924"),
    (MinerPool(5, 1.0), 9,
     "1c46f819c1b0a104a92a0e1d659a53bb1c695a6f54954fe7116e96b50041f898"),
    (MinerPool(9, 0.5, verify_seconds=0.0, verify_jitter=1e-4, pair_seconds=0.0), 17,
     "dd75f7fb36acc38e89ac504d0b56fd303765f0a9d74c186341e54594ab662689"),
]


class TestDeterminism:
    @pytest.mark.parametrize(("pool", "seed", "expected"), PINNED_ROUNDS)
    def test_seeded_result_bytes_pinned(self, valid_world, pool, seed, expected):
        world, block, _ = valid_world
        result = run_consensus(block, pool, world.directories, seed=seed)
        assert hashlib.sha256(result.to_bytes()).hexdigest() == expected

    def test_identical_seed_identical_result_bytes(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=12, malicious_fraction=0.25, verify_jitter=1e-4)
        a = run_consensus(block, pool, world.directories, seed=42)
        b = run_consensus(block, pool, world.directories, seed=42)
        assert a.to_bytes() == b.to_bytes()

    def test_different_seed_different_assignment(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=12, malicious_fraction=0.25)
        a = run_consensus(block, pool, world.directories, seed=1)
        b = run_consensus(block, pool, world.directories, seed=2)
        assert [v.malicious for v in votes(a)] != [v.malicious for v in votes(b)]

    def test_result_serialization_round_trip(self, valid_world):
        world, block, _ = valid_world
        pool = MinerPool(n_miners=5, malicious_fraction=0.2, verify_jitter=1e-4)
        result = run_consensus(block, pool, world.directories, seed=7)
        assert ConsensusResult.from_bytes(result.to_bytes()) == result


@pytest.fixture()
def access_world(make_world):
    """A chain holding a patient block and a request for it, plus its approval."""
    world = make_world(seed=14)
    block, patient = world.submit_block(world.patient(), b"data", 1)
    request = create_request_block(world.group, world.researcher_kps[0], block, TimeRange(1, 1), world.rng)
    world.chain.append(request, run_consensus(request, world.pool, world.directories, 1, chain=world.chain))
    approval = create_approval_block(world.group, patient.secrets, request, TimeRange(1, 1), world.rng)
    return world, request, approval


class TestRequestAndApprovalVerification:
    @pytest.mark.parametrize("kind", ["request", "approval"])
    def test_bit_flip_scan_never_raises(self, access_world, kind):
        world, request, approval = access_world
        raw = (request if kind == "request" else approval).canonical_bytes()
        assert verify_block(decode_block(raw, world.group), world.directories, chain=world.chain)
        for bit in range(8 * len(raw)):
            mutated = bytearray(raw)
            mutated[bit // 8] ^= 1 << (bit % 8)
            try:
                parsed = decode_block(bytes(mutated), world.group)
            except (FormatError, ValueError):
                continue
            assert verify_block(parsed, world.directories, chain=world.chain) is False, bit

    def test_program_bug_propagates(self, access_world, monkeypatch):
        world, request, _ = access_world

        def broken(*args):
            raise RuntimeError("bug in a verifier")

        monkeypatch.setattr("phrchain.consensus.verify_signature", broken)
        with pytest.raises(RuntimeError, match="bug in a verifier"):
            verify_block(request, world.directories, chain=world.chain)

    def test_request_requires_chain(self, make_world):
        import phrchain as phr

        world = make_world(seed=12)
        block, patient = world.submit_block(world.patient(), b"data", 1)
        request = phr.create_request_block(
            world.group, world.researcher_kps[0], block, phr.TimeRange(1, 1), world.rng
        )
        assert not verify_block(request, world.directories)  # no chain given
        assert verify_block(request, world.directories, chain=world.chain)

    def test_unenrolled_researcher_rejected(self, make_world):
        import phrchain as phr

        world = make_world(seed=13)
        block, _ = world.submit_block(world.patient(), b"data", 1)
        outsider = phr.keygen(world.group, random.Random(99))
        request = phr.create_request_block(world.group, outsider, block, phr.TimeRange(1, 1), world.rng)
        assert not verify_block(request, world.directories, chain=world.chain)

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            MinerPool(n_miners=0)
        with pytest.raises(ValueError):
            MinerPool(n_miners=4, malicious_fraction=1.5)
