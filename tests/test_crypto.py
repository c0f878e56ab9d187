import os
import random
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from phrchain import (
    CredentialProof,
    RingProof,
    SchnorrProof,
    Signature,
    credential_prove,
    credential_verify,
    digest,
    keygen,
    new_sym_key,
    ring_prove,
    ring_verify,
    schnorr_prove,
    schnorr_verify,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify_signature,
)
from phrchain.crypto import (
    DecryptionError,
    _commitment_bytes,
    _joint_context,
    _ring_binding_challenge,
    _schnorr_challenge,
    _signature_challenge,
)
from phrchain.encoding import FormatError, Reader
from phrchain import group as group_module
from phrchain.group import BignumError, GroupParams, _key_verdict

# Published SHA-256 vectors (empty input and "abc").
SHA256_EMPTY = bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
SHA256_ABC = bytes.fromhex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


class TestDigest:
    def test_published_vectors(self):
        assert digest(b"") == SHA256_EMPTY
        assert digest(b"abc") == SHA256_ABC

    def test_matches_second_implementation(self):
        # openssl-backed hasher from the cryptography package as cross-check
        rng = random.Random(0)
        for _ in range(100):
            data = rng.randbytes(rng.randrange(0, 200))
            h = hashes.Hash(hashes.SHA256())
            h.update(data)
            assert digest(data) == h.finalize()

    def test_deterministic(self):
        rng = random.Random(1)
        for _ in range(1000):
            data = rng.randbytes(40)
            assert digest(data) == digest(data)
            assert len(digest(data)) == 32

    def test_avalanche_on_bit_flip(self):
        rng = random.Random(2)
        for _ in range(1000):
            data = bytearray(rng.randbytes(33))
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            assert digest(bytes(data)) != digest(bytes(flipped))


class TestSchnorr:
    def test_completeness(self, group):
        rng = random.Random(3)
        for _ in range(1000):
            kp = keygen(group, rng)
            proof = schnorr_prove(group, kp, b"ctx", rng)
            assert schnorr_verify(group, kp.public, proof, b"ctx")

    def test_wrong_key_rejected(self, group):
        rng = random.Random(4)
        kp1, kp2 = keygen(group, rng), keygen(group, rng)
        proof = schnorr_prove(group, kp1, b"ctx", rng)
        assert not schnorr_verify(group, kp2.public, proof, b"ctx")

    def test_context_binding_full_scan(self, group):
        rng = random.Random(5)
        kp = keygen(group, rng)
        context = bytes(range(16))
        proof = schnorr_prove(group, kp, context, rng)
        assert schnorr_verify(group, kp.public, proof, context)
        for position in range(len(context)):
            altered = bytearray(context)
            altered[position] ^= 0xFF
            assert not schnorr_verify(group, kp.public, proof, bytes(altered))

    def test_seeded_transcripts_byte_identical(self, group):
        kp = keygen(group, random.Random(6))
        a = schnorr_prove(group, kp, b"ctx", random.Random(99))
        b = schnorr_prove(group, kp, b"ctx", random.Random(99))
        assert a.to_bytes(group) == b.to_bytes(group)

    def test_single_byte_mutation_rejected_exhaustively(self, group):
        rng = random.Random(61)
        kp = keygen(group, rng)
        proof = schnorr_prove(group, kp, b"ctx", rng)
        raw = proof.to_bytes(group)
        for position in range(len(raw)):
            mutated = bytearray(raw)
            mutated[position] ^= 0x01
            try:
                reader = Reader(bytes(mutated))
                parsed = SchnorrProof.read_from(reader, group)
                reader.expect_end()
            except (FormatError, ValueError):
                continue
            assert not schnorr_verify(group, kp.public, parsed, b"ctx"), position

    def test_scalars_shifted_by_the_order_rejected(self, group):
        # public^order == 1, so the equation still holds for a shifted challenge;
        # the recomputed-challenge comparison and the response range check refuse it.
        rng = random.Random(62)
        kp = keygen(group, rng)
        proof = schnorr_prove(group, kp, b"ctx", rng)
        for shifted in (replace(proof, challenge=proof.challenge + group.order),
                        replace(proof, response=proof.response + group.order)):
            assert not schnorr_verify(group, kp.public, shifted, b"ctx")


def _ring(group, rng, size):
    kps = [keygen(group, rng) for _ in range(size)]
    return kps, [kp.public for kp in kps]


class TestRingProof:
    def test_single_key_ring(self, group):
        rng = random.Random(7)
        kps, ring = _ring(group, rng, 1)
        proof = ring_prove(group, ring, 0, kps[0].secret, b"ctx", rng)
        assert ring_verify(group, ring, proof, b"ctx")

    def test_completeness_every_index(self, group):
        rng = random.Random(8)
        kps, ring = _ring(group, rng, 5)
        for index, kp in enumerate(kps):
            proof = ring_prove(group, ring, index, kp.secret, b"ctx", rng)
            assert ring_verify(group, ring, proof, b"ctx")

    def test_index_out_of_range(self, group):
        rng = random.Random(9)
        kps, ring = _ring(group, rng, 3)
        with pytest.raises(IndexError):
            ring_prove(group, ring, 3, kps[0].secret, b"ctx", rng)

    def test_bad_witness_cannot_prove(self, group):
        rng = random.Random(10)
        _, ring = _ring(group, rng, 3)
        outsider = keygen(group, rng)
        for index in range(3):
            with pytest.raises(ValueError):
                ring_prove(group, ring, index, outsider.secret, b"ctx", rng)

    def test_forged_branch_records_rejected(self, group):
        # Best-effort forgery without a witness: every branch simulated to
        # satisfy its own equation; the challenge split cannot hit the hash.
        rng = random.Random(11)
        _, ring = _ring(group, rng, 4)
        rejected = 0
        for _ in range(1000):
            branches = []
            for key in ring:
                c, s = group.random_scalar(rng), group.random_scalar(rng)
                t = group.exp(group.generator, s) * group.exp(key, -c) % group.modulus
                branches.append(SchnorrProof(t, c, s))
            commitments = b"".join(group.encode_element(b.commitment) for b in branches)
            binding = _ring_binding_challenge(group, b"ctx", _commitment_bytes(group, commitments))
            forgery = RingProof(tuple(branches), binding)
            rejected += not ring_verify(group, ring, forgery, b"ctx")
        assert rejected == 1000

    def test_completeness_bulk(self, group):
        rng = random.Random(110)
        kps, ring = _ring(group, rng, 3)
        for i in range(1000):
            index = i % 3
            proof = ring_prove(group, ring, index, kps[index].secret, b"bulk", rng)
            assert ring_verify(group, ring, proof, b"bulk")

    def test_seeded_transcripts_byte_identical(self, group):
        kps, ring = _ring(group, random.Random(111), 4)
        a = ring_prove(group, ring, 2, kps[2].secret, b"ctx", random.Random(8))
        b = ring_prove(group, ring, 2, kps[2].secret, b"ctx", random.Random(8))
        assert a.to_bytes(group) == b.to_bytes(group)

    def test_seeded_transcripts_same_with_cold_and_warm_montgomery_context(self, group):
        # Building the modulus's Montgomery context draws nothing from the
        # caller's RNG.
        kps, ring = _ring(group, random.Random(112), 6)
        group_module._montgomery.cache_clear()
        cold = ring_prove(group, ring, 3, kps[3].secret, b"ctx", random.Random(9)).to_bytes(group)
        assert group_module._montgomery.cache_info().currsize == 1
        warm = ring_prove(group, ring, 3, kps[3].secret, b"ctx", random.Random(9)).to_bytes(group)
        assert cold == warm

    def test_transcript_growth_ratio(self, group):
        # One branch record per ring key: size must scale linearly.
        rng = random.Random(12)
        sizes = {}
        for m in (1000, 2000):
            kps, ring = _ring(group, rng, m)
            proof = ring_prove(group, ring, 0, kps[0].secret, b"ctx", rng)
            sizes[m] = len(proof.to_bytes(group))
        ratio = sizes[2000] / sizes[1000]
        assert 1.95 <= ratio <= 2.05

    def test_transcript_size_exactly_affine(self, group):
        rng = random.Random(13)
        sizes = {}
        for m in (1, 2, 5, 9):
            kps, ring = _ring(group, rng, m)
            proof = ring_prove(group, ring, 0, kps[0].secret, b"ctx", rng)
            sizes[m] = len(proof.to_bytes(group))
        a = sizes[2] - sizes[1]
        c = sizes[1] - a
        for m, size in sizes.items():
            assert size == a * m + c

    def test_witness_position_structurally_invisible(self, group):
        rng = random.Random(14)
        kps, ring = _ring(group, rng, 6)
        transcripts = []
        for index in (0, 3, 5):
            proof = ring_prove(group, ring, index, kps[index].secret, b"ctx", rng)
            transcripts.append(proof.to_bytes(group))
        lengths = {len(t) for t in transcripts}
        assert len(lengths) == 1
        # identical field layout: decode/re-encode round-trips every transcript
        for raw in transcripts:
            reader = Reader(raw)
            proof = RingProof.read_from(reader, group)
            reader.expect_end()
            assert proof.to_bytes(group) == raw
            assert len(proof.branches) == 6

    def test_challenge_sum_invariant(self, group):
        rng = random.Random(15)
        kps, ring = _ring(group, rng, 7)
        proof = ring_prove(group, ring, 2, kps[2].secret, b"ctx", rng)
        total = sum(b.challenge for b in proof.branches) % group.order
        assert total == proof.binding_challenge


class TestCredentialProof:
    def test_completeness(self, group):
        rng = random.Random(16)
        kps, ring = _ring(group, rng, 4)
        block_kp = keygen(group, rng)
        proof = credential_prove(group, ring, 1, kps[1].secret, block_kp, rng)
        assert credential_verify(group, ring, block_kp.public, proof)

    def test_bad_witness_refused_before_any_random_draw(self, group):
        rng = random.Random(30)
        kps, ring = _ring(group, rng, 3)
        block_kp = keygen(group, rng)
        state = rng.getstate()
        for error, index, secret in ((IndexError, 3, kps[0].secret), (ValueError, 1, kps[0].secret)):
            with pytest.raises(error):
                credential_prove(group, ring, index, secret, block_kp, rng)
            with pytest.raises(error):
                ring_prove(group, ring, index, secret, b"ctx", rng)
        assert rng.getstate() == state

    def test_block_key_substitution_rejected(self, group):
        rng = random.Random(17)
        kps, ring = _ring(group, rng, 4)
        block_kp = keygen(group, rng)
        proof = credential_prove(group, ring, 0, kps[0].secret, block_kp, rng)
        for _ in range(100):
            other = keygen(group, rng)
            assert not credential_verify(group, ring, other.public, proof)

    def test_cross_ring_rejected(self, group):
        rng = random.Random(18)
        kps_a, ring_a = _ring(group, rng, 4)
        _, ring_b = _ring(group, rng, 4)
        block_kp = keygen(group, rng)
        proof = credential_prove(group, ring_a, 2, kps_a[2].secret, block_kp, rng)
        assert credential_verify(group, ring_a, block_kp.public, proof)
        assert not credential_verify(group, ring_b, block_kp.public, proof)

    def test_branch_count_mismatch_rejected(self, group):
        # The joint context and the possession proof are re-bound to the
        # altered commitment list, so only the ring half can refuse it.
        rng = random.Random(22)
        kps, ring = _ring(group, rng, 4)
        block_kp = keygen(group, rng)
        membership = credential_prove(group, ring, 1, kps[1].secret, block_kp, rng).membership
        for branches in (membership.branches[:-1], membership.branches + membership.branches[:1]):
            nonce = group.random_scalar(rng)
            commitment = group.exp(group.generator, nonce)
            commitment_bytes = _commitment_bytes(group, b"".join(group.encode_element(b.commitment) for b in branches))
            joint = _joint_context(group, ring, block_kp.public, commitment, commitment_bytes)
            challenge = _schnorr_challenge(group, joint, block_kp.public, commitment)
            possession = SchnorrProof(commitment, challenge, (nonce + challenge * block_kp.secret) % group.order)
            assert schnorr_verify(group, block_kp.public, possession, joint)
            forged = CredentialProof(replace(membership, branches=branches), possession, joint)
            assert not credential_verify(group, ring, block_kp.public, forged)

    def test_block_key_membership_tested_once(self, group, monkeypatch):
        _key_verdict.cache_clear()  # an earlier test may have kept this key's verdict
        rng = random.Random(23)
        kps, ring = _ring(group, rng, 4)
        block_kp = keygen(group, rng)
        proof = credential_prove(group, ring, 2, kps[2].secret, block_kp, rng)
        tested = []
        is_element = GroupParams.is_element

        def recording(self, value):
            tested.append(value)
            return is_element(self, value)

        monkeypatch.setattr(GroupParams, "is_element", recording)
        assert credential_verify(group, ring, block_kp.public, proof)
        assert tested.count(block_kp.public) == 1

    def test_single_byte_mutation_rejected_exhaustively(self, group):
        rng = random.Random(19)
        kps, ring = _ring(group, rng, 3)
        block_kp = keygen(group, rng)
        proof = credential_prove(group, ring, 0, kps[0].secret, block_kp, rng)
        raw = proof.to_bytes(group)
        for position in range(len(raw)):
            mutated = bytearray(raw)
            mutated[position] ^= 0x01
            try:
                parsed = CredentialProof.from_bytes(bytes(mutated), group)
            except (FormatError, ValueError):
                continue  # refusing to parse counts as rejection
            assert not credential_verify(group, ring, block_kp.public, parsed), position

    def test_seeded_transcripts_byte_identical(self, group):
        kps, ring = _ring(group, random.Random(20), 3)
        block_kp = keygen(group, random.Random(21))
        a = credential_prove(group, ring, 1, kps[1].secret, block_kp, random.Random(5))
        b = credential_prove(group, ring, 1, kps[1].secret, block_kp, random.Random(5))
        assert a.to_bytes(group) == b.to_bytes(group)

    def test_serialization_round_trip(self, group):
        rng = random.Random(22)
        kps, ring = _ring(group, rng, 4)
        block_kp = keygen(group, rng)
        proof = credential_prove(group, ring, 3, kps[3].secret, block_kp, rng)
        raw = proof.to_bytes(group)
        assert CredentialProof.from_bytes(raw, group).to_bytes(group) == raw


class TestSignature:
    def test_round_trip(self, group):
        rng = random.Random(23)
        kp = keygen(group, rng)
        sig = sign(group, kp, b"a message", rng)
        assert verify_signature(group, kp.public, b"a message", sig)

    def test_message_bit_flip_scan(self, group):
        rng = random.Random(24)
        kp = keygen(group, rng)
        message = b"short message"
        sig = sign(group, kp, message, rng)
        for position in range(len(message)):
            for bit in range(8):
                altered = bytearray(message)
                altered[position] ^= 1 << bit
                assert not verify_signature(group, kp.public, bytes(altered), sig)

    def test_wrong_key_rejected(self, group):
        rng = random.Random(25)
        kp, other = keygen(group, rng), keygen(group, rng)
        sig = sign(group, kp, b"msg", rng)
        assert not verify_signature(group, other.public, b"msg", sig)

    def test_completeness_bulk(self, group):
        rng = random.Random(112)
        kp = keygen(group, rng)
        for i in range(1000):
            message = i.to_bytes(4, "big")
            assert verify_signature(group, kp.public, message, sign(group, kp, message, rng))

    def test_seeded_signatures_byte_identical(self, group):
        kp = keygen(group, random.Random(113))
        a = sign(group, kp, b"msg", random.Random(9))
        b = sign(group, kp, b"msg", random.Random(9))
        assert a.to_bytes(group) == b.to_bytes(group)

    def test_single_byte_mutation_rejected_exhaustively(self, group):
        rng = random.Random(114)
        kp = keygen(group, rng)
        sig = sign(group, kp, b"msg", rng)
        raw = sig.to_bytes(group)
        for position in range(len(raw)):
            mutated = bytearray(raw)
            mutated[position] ^= 0x01
            try:
                reader = Reader(bytes(mutated))
                parsed = Signature.read_from(reader, group)
                reader.expect_end()
            except (FormatError, ValueError):
                continue
            assert not verify_signature(group, kp.public, b"msg", parsed), position


def _small_order_keys(group):
    # The identity (order 1) and p - 1 (order 2): in range, outside the subgroup.
    return {"identity": 1, "minus-one": group.modulus - 1}


@pytest.mark.parametrize("key_name", ["identity", "minus-one"])
def test_small_order_key_cannot_accept_forged_signatures(group, key_name):
    # Forgery without a secret: commitment g^s, so the equation holds
    # whenever key^challenge == 1 (always for 1, for even challenges for -1).
    public = _small_order_keys(group)[key_name]
    rng = random.Random(116)
    equation_holds = 0
    for i in range(20):
        message = f"arbitrary message {i}".encode()
        response = group.random_scalar(rng)
        forged = Signature(group.exp(group.generator, response), response)
        challenge = _signature_challenge(group, public, forged.commitment, message)
        equation_holds += pow(public, challenge, group.modulus) == 1
        assert not verify_signature(group, public, message, forged)
    assert equation_holds >= (20 if key_name == "identity" else 5)


@pytest.mark.parametrize("key_name", ["identity", "minus-one"])
def test_small_order_key_cannot_accept_forged_schnorr_proofs(group, key_name):
    public = _small_order_keys(group)[key_name]
    rng = random.Random(117)
    equation_holds = 0
    for i in range(20):
        context = f"context {i}".encode()
        response = group.random_scalar(rng)
        commitment = group.exp(group.generator, response)
        challenge = _schnorr_challenge(group, context, public, commitment)
        equation_holds += pow(public, challenge, group.modulus) == 1
        assert not schnorr_verify(group, public, SchnorrProof(commitment, challenge, response), context)
    assert equation_holds >= (20 if key_name == "identity" else 5)


def _forged_ring_proof(group, ring, index, context, rng):
    """A ring proof made with no secret: every branch but ``index`` simulated,
    and at ``index`` a commitment g^r answered with s = r whatever its
    challenge. That branch's equation holds whenever ring[index]^c == 1."""
    p, q = group.modulus, group.order
    nonce = group.random_scalar(rng)
    branches = {}
    for i, key in enumerate(ring):
        if i != index:
            c, s = group.random_scalar(rng), group.random_scalar(rng)
            branches[i] = (pow(group.generator, s, p) * pow(key, -c % (p - 1), p) % p, c, s)
    commitments = [branches[i][0] if i != index else pow(group.generator, nonce, p) for i in range(len(ring))]
    encoded = b"".join(map(group.encode_element, commitments))
    binding = _ring_binding_challenge(group, context, _commitment_bytes(group, encoded))
    challenge = (binding - sum(c for _, c, _ in branches.values())) % q
    branches[index] = (commitments[index], challenge, nonce)
    return RingProof(tuple(SchnorrProof(*branches[i]) for i in range(len(ring))), binding)


@pytest.mark.parametrize("shape", ["minus-one", "key-then-minus-one"])
def test_small_order_ring_key_cannot_accept_forged_ring_proofs(group, shape):
    # The forged branch sits at p - 1 (order 2), so every equation holds
    # for an even challenge; the gate refuses the key first.
    rng = random.Random(122)
    p = group.modulus
    ring = [p - 1] if shape == "minus-one" else [keygen(group, rng).public, p - 1]
    equations_hold = 0
    for i in range(20):
        context = f"context {i}".encode()
        proof = _forged_ring_proof(group, ring, len(ring) - 1, context, rng)
        equations_hold += all(
            _pow_equation(group, key, b.commitment, b.challenge, b.response) for key, b in zip(ring, proof.branches)
        )
        assert not ring_verify(group, ring, proof, context)
    assert equations_hold >= 5


def test_identity_ring_key_cannot_accept_forged_credentials(group):
    # The secret 0 opens the identity, so the prover accepts it as a witness
    # and every equation of the credential holds; the gate refuses the key.
    rng = random.Random(123)
    for _ in range(10):
        block_kp = keygen(group, rng)
        credential = credential_prove(group, [1], 0, 0, block_kp, rng)
        [branch], possession = credential.membership.branches, credential.possession
        assert _pow_equation(group, 1, branch.commitment, branch.challenge, branch.response)
        assert _pow_equation(group, block_kp.public, possession.commitment, possession.challenge, possession.response)
        assert not credential_verify(group, [1], block_kp.public, credential)


def _pow_credential_verdict(group, ring, public, credential):
    """``credential_verify`` as the reference: the range rules on the ints,
    every key in the subgroup by Euler's criterion, the joint context and
    both challenges recomputed, and every equation through ``pow``."""
    p, q = group.modulus, group.order
    branches, possession = credential.membership.branches, credential.possession
    if len(branches) != len(ring) or not ring:
        return False
    keys = [*ring, public]
    values = [(b.commitment, b.challenge, b.response) for b in (*branches, possession)]
    if not all(1 <= t < p and 0 <= c < q and 0 <= s < q for t, c, s in values):
        return False
    if not all(1 < y < p and pow(y, q, p) == 1 for y in keys):
        return False
    commitment_bytes = _commitment_bytes(group, b"".join(group.encode_element(b.commitment) for b in branches))
    joint = _joint_context(group, ring, public, possession.commitment, commitment_bytes)
    if credential.joint_context != joint:
        return False
    if credential.membership.binding_challenge != _ring_binding_challenge(group, joint, commitment_bytes):
        return False
    if possession.challenge != _schnorr_challenge(group, joint, public, possession.commitment):
        return False
    if sum(b.challenge for b in branches) % q != credential.membership.binding_challenge:
        return False
    return all(_pow_equation(group, y, *value) for y, value in zip(keys, values))


def test_decoded_credentials_agree_with_in_memory_and_pow(group):
    # The honest credential and every single-byte flip of it that still
    # decodes: its ring kept as wire records, the same credential held as
    # SchnorrProof ints, and the pow reference give one verdict.
    rng = random.Random(125)
    kps, ring = _ring(group, rng, 5)
    block_kp = keygen(group, rng)
    wire = credential_prove(group, ring, 3, kps[3].secret, block_kp, rng).to_bytes(group)
    verdicts = []
    for position in range(-1, len(wire)):
        mutated = bytearray(wire)
        if position >= 0:
            mutated[position] ^= 0x01
        try:
            decoded = CredentialProof.from_bytes(bytes(mutated), group)
        except FormatError:
            continue
        verdict = credential_verify(group, ring, block_kp.public, decoded)
        membership = decoded.membership
        in_memory = replace(decoded, membership=RingProof(tuple(membership.branches), membership.binding_challenge))
        assert credential_verify(group, ring, block_kp.public, in_memory) is verdict, position
        assert _pow_credential_verdict(group, ring, block_kp.public, in_memory) is verdict, position
        assert decoded.to_bytes(group) == in_memory.to_bytes(group) == bytes(mutated)
        verdicts.append(verdict)
    assert verdicts[0] is True and verdicts.count(True) == 1
    assert len(verdicts) > len(wire) // 2


# Hostile values per transcript field, named so the ids read the same for every group.
_HOSTILE = {
    "commitment": ("-1", "0", "p", "2^256"),
    "challenge": ("-1", "q", "2^256"),
    "response": ("-1", "q", "2^256"),
    "public": ("-1", "0", "1", "p-1", "p", "2^256"),
    "ring_key": ("-y", "0", "p", "y+p", "2^300", "-1", "1", "p-1", "2^256", "p-y"),
}
_HOSTILE_FIELDS = {
    "schnorr": ("commitment", "challenge", "response", "public"),
    "signature": ("commitment", "response", "public"),
    "credential": ("commitment", "challenge", "response", "public"),
    "ring": ("commitment", "challenge", "response", "public", "ring_key"),
    "membership": ("commitment",),
    "credential_ring": ("ring_key",),
}


@pytest.fixture(scope="module")
def hostile_targets(group):
    """Per verifier: an honest public key, the Schnorr-shaped part it checks
    against that key, and a call that verifies the pair in context.

    For ``credential_verify`` the part is the possession half and the key the
    block key; for ``ring_verify`` it is the first branch and its ring key
    (its ``public`` and ``ring_key`` values alike replace that ring key).
    For ``membership`` it is the first ring branch of the credential, whose
    commitment the joint context encodes. For ``credential_ring`` the key is
    the first ring key, which the joint context encodes too, and the part is
    the whole credential.
    """
    rng = random.Random(118)
    kp, block_kp = keygen(group, rng), keygen(group, rng)
    kps, ring = _ring(group, rng, 2)
    credential = credential_prove(group, ring, 1, kps[1].secret, block_kp, rng)
    membership = ring_prove(group, ring, 0, kps[0].secret, b"ctx", rng)

    def verify_ring(key, branch):
        proof = replace(membership, branches=(branch,) + membership.branches[1:])
        return ring_verify(group, [key] + ring[1:], proof, b"ctx")

    def verify_membership(key, branch):
        branches = (branch,) + credential.membership.branches[1:]
        proof = replace(credential, membership=replace(credential.membership, branches=branches))
        return credential_verify(group, ring, key, proof)

    return {
        "schnorr": (kp.public, schnorr_prove(group, kp, b"ctx", rng),
                    lambda key, proof: schnorr_verify(group, key, proof, b"ctx")),
        "signature": (kp.public, sign(group, kp, b"msg", rng),
                      lambda key, sig: verify_signature(group, key, b"msg", sig)),
        "credential": (block_kp.public, credential.possession,
                       lambda key, possession: credential_verify(
                           group, ring, key, replace(credential, possession=possession))),
        "ring": (ring[0], membership.branches[0], verify_ring),
        "membership": (block_kp.public, credential.membership.branches[0], verify_membership),
        "credential_ring": (ring[0], credential,
                            lambda key, proof: credential_verify(group, [key] + ring[1:], block_kp.public, proof)),
    }


@pytest.mark.parametrize(
    "verifier, field, value",
    [(v, f, x) for v, fields in _HOSTILE_FIELDS.items() for f in fields for x in _HOSTILE[f]],
)
def test_hostile_values_rejected_without_raising(group, hostile_targets, verifier, field, value):
    # Decoders never produce these values; in-memory callers can. Each verifier
    # must gate them before hashing or encoding: an int below 0 or at least
    # 2**256 would otherwise raise OverflowError in encode_element.
    p, q = group.modulus, group.order
    public, part, verify = hostile_targets[verifier]
    number = {
        "-1": -1, "0": 0, "1": 1, "p-1": p - 1, "p": p, "q": q, "2^256": 2**256, "2^300": 2**300,
        "-y": -public, "y+p": public + p, "p-y": p - public,
    }[value]
    assert verify(public, part) is True
    if field in ("public", "ring_key"):
        public = number
    else:
        part = replace(part, **{field: number})
    assert verify(public, part) is False


def _pow_equation(group, public, commitment, challenge, response):
    """The Schnorr equation with both powers taken by ``pow``: the reference."""
    p = group.modulus
    return pow(group.generator, response, p) == commitment * pow(public, challenge, p) % p


class TestVerifiersAgainstThePowEquation:
    """Verifiers check each equation through the commitment column; ``pow`` is the oracle."""

    CASES = ["valid", "wrong-message", "wrong-key"]

    @pytest.fixture(scope="class")
    def keys(self, group):
        rng = random.Random(119)
        return [(keygen(group, rng), keygen(group, rng).public) for _ in range(8)], rng

    @pytest.mark.parametrize("case", CASES)
    def test_verify_signature(self, group, keys, case):
        pairs, rng = keys
        for kp, other in pairs:
            sig = sign(group, kp, b"message", rng)
            public = other if case == "wrong-key" else kp.public
            message = b"other message" if case == "wrong-message" else b"message"
            challenge = _signature_challenge(group, public, sig.commitment, message)
            expected = _pow_equation(group, public, sig.commitment, challenge, sig.response)
            assert expected is (case == "valid")
            assert verify_signature(group, public, message, sig) is expected

    @pytest.mark.parametrize("case", CASES)
    def test_schnorr_verify(self, group, keys, case):
        pairs, rng = keys
        for kp, other in pairs:
            proof = schnorr_prove(group, kp, b"context", rng)
            public = other if case == "wrong-key" else kp.public
            context = b"other context" if case == "wrong-message" else b"context"
            expected = proof.challenge == _schnorr_challenge(
                group, context, public, proof.commitment
            ) and _pow_equation(group, public, proof.commitment, proof.challenge, proof.response)
            assert expected is (case == "valid")
            assert schnorr_verify(group, public, proof, context) is expected

    def test_one_table_per_verified_key(self, group):
        # The one per-key table a verifier keeps is the key's entry, its
        # membership verdict and its operand in the column: the first check
        # of a key makes it, and every later check finds it once, in its
        # gate, which hands it to the column.
        rng = random.Random(120)
        kp = keygen(group, rng)
        sig = sign(group, kp, b"m", rng)
        _key_verdict.cache_clear()
        assert verify_signature(group, kp.public, b"m", sig)
        entry = _key_verdict(group, kp.public)
        assert entry.inverse
        assert verify_signature(group, kp.public, b"m", sig)
        assert _key_verdict(group, kp.public) is entry
        info = _key_verdict.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 3)

    def test_gate_rejected_key_gets_no_table(self, group, monkeypatch):
        # A key the gate refuses reaches no exponentiation at all.
        rng = random.Random(121)
        kp = keygen(group, rng)
        sig, proof = sign(group, kp, b"m", rng), schnorr_prove(group, kp, b"ctx", rng)
        p = group.modulus
        keyed = []
        run = group_module._Pinned.run

        def recording(self, group, entries, *rest):
            keyed.extend(entries)
            return run(self, group, entries, *rest)

        monkeypatch.setattr(group_module._Pinned, "run", recording)
        assert verify_signature(group, kp.public, b"m", sig)
        assert keyed == [group.key_is_element(kp.public)]
        # Out of range, the identity, order two, and a non-residue (-1 is one mod a safe prime).
        for public in (-1, 0, 1, p - 1, p, 2**256, p - kp.public):
            assert not verify_signature(group, public, b"m", sig)
            assert not schnorr_verify(group, public, proof, b"ctx")
        assert keyed == [group.key_is_element(kp.public)]


class TestSymmetric:
    def test_round_trip(self):
        rng = random.Random(26)
        key = new_sym_key(rng)
        ct = sym_encrypt(key, b"plaintext bytes", rng)
        assert sym_decrypt(key, ct) == b"plaintext bytes"

    def test_tamper_position_scan(self):
        rng = random.Random(27)
        key = new_sym_key(rng)
        ct = sym_encrypt(key, b"guarded", rng)
        for position in range(len(ct)):
            tampered = bytearray(ct)
            tampered[position] ^= 0x01
            with pytest.raises(DecryptionError):
                sym_decrypt(key, bytes(tampered))

    def test_wrong_key_fails(self):
        rng = random.Random(28)
        key, wrong = new_sym_key(rng), new_sym_key(rng)
        ct = sym_encrypt(key, b"data", rng)
        with pytest.raises(DecryptionError):
            sym_decrypt(wrong, ct)

    def test_fresh_nonce_per_call(self):
        rng = random.Random(29)
        key = new_sym_key(rng)
        assert sym_encrypt(key, b"x", rng) != sym_encrypt(key, b"x", rng)

    def test_round_trip_bulk(self):
        rng = random.Random(115)
        for _ in range(1000):
            key = new_sym_key(rng)
            plaintext = rng.randbytes(rng.randrange(0, 64))
            assert sym_decrypt(key, sym_encrypt(key, plaintext, rng)) == plaintext

    @given(data=st.binary(min_size=0, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, data):
        key = bytes(32)
        assert sym_decrypt(key, sym_encrypt(key, data)) == data


def oracle_encrypt(key: bytes, plaintext: bytes, seed: int) -> bytes:
    """What ``sym_encrypt(key, plaintext, random.Random(seed))`` must return."""
    nonce = random.Random(seed).randbytes(12)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, None)


# The EVP calls of one encryption and of one decryption, in call order. The
# decryption's last call, EVP_DecryptFinal_ex, is the tag check: its refusal
# is the verdict DecryptionError, not a fault.
SEAL_CALLS = ("EVP_EncryptInit_ex", "EVP_EncryptUpdate", "EVP_EncryptFinal_ex", "EVP_CIPHER_CTX_ctrl")
OPEN_CALLS = ("EVP_DecryptInit_ex", "EVP_CIPHER_CTX_ctrl", "EVP_DecryptUpdate")
EVP_CALLS = sorted(name for name, value in vars(group_module).items() if name.startswith("_EVP_") and callable(value))


class _Long(bytes):
    """Bytes that claim the length ``claimed``, so no test allocates 2 GiB."""

    def __new__(cls, claimed: int):
        text = super().__new__(cls, 28)
        text.claimed = claimed
        return text

    def __len__(self) -> int:
        return self.claimed


class TestSymmetricBinding:
    """AES-256-GCM through the libcrypto binding, against ``cryptography``'s
    AESGCM as the oracle (the package itself never imports it)."""

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 4096, 65537])
    def test_ciphertexts_equal_the_oracles(self, size):
        rng = random.Random(size)
        key, plaintext = rng.randbytes(32), rng.randbytes(size)
        sealed = sym_encrypt(key, plaintext, random.Random(7))
        assert sealed == oracle_encrypt(key, plaintext, 7)
        assert len(sealed) == 12 + size + 16
        assert sym_decrypt(key, sealed) == plaintext
        assert AESGCM(key).decrypt(sealed[:12], sealed[12:], None) == plaintext

    def test_a_text_longer_than_the_kept_buffer(self):
        rng = random.Random(8)
        key, plaintext = rng.randbytes(32), rng.randbytes(group_module._KEPT_TEXT + 1)
        sym_encrypt(key, b"short", rng)
        kept = group_module._THREADS.scratch.text
        sealed = sym_encrypt(key, plaintext, random.Random(9))
        assert sealed == oracle_encrypt(key, plaintext, 9)
        assert sym_decrypt(key, sealed) == plaintext
        assert group_module._THREADS.scratch.text is kept

    def test_bytes_like_inputs_and_str_refused(self):
        key = bytes(range(32))
        expected = oracle_encrypt(key, b"record", 3)
        for wrap in (bytearray, memoryview):
            assert sym_encrypt(wrap(key), wrap(b"record"), random.Random(3)) == expected
            assert sym_decrypt(wrap(key), wrap(expected)) == b"record"
        with pytest.raises(TypeError):
            sym_encrypt("k" * 32, b"record")
        with pytest.raises(TypeError):
            sym_encrypt(key, "record")
        with pytest.raises(TypeError):
            sym_decrypt(key, expected.decode("latin-1"))

    def test_every_single_byte_change_is_refused(self):
        rng = random.Random(10)
        key, plaintext = rng.randbytes(32), rng.randbytes(40)
        sealed = sym_encrypt(key, plaintext, rng)
        for position in range(len(sealed)):  # nonce 0-11, body 12-51, tag 52-67
            for flip in (0x01, 0x80, 0xFF):
                tampered = bytearray(sealed)
                tampered[position] ^= flip
                # An error already queued: the failed check clears the queue.
                assert not group_module._EVP_CIPHER_fetch(None, b"NO-SUCH-CIPHER", None)
                with pytest.raises(DecryptionError, match="authentication failed"):
                    sym_decrypt(key, bytes(tampered))
                assert group_module._ERR_get_error() == 0
        assert sym_decrypt(key, sealed) == plaintext

    def test_truncation_extension_and_wrong_keys_are_refused(self):
        rng = random.Random(11)
        key, plaintext = rng.randbytes(32), rng.randbytes(40)
        sealed = sym_encrypt(key, plaintext, rng)
        for length in range(len(sealed)):
            with pytest.raises(DecryptionError):
                sym_decrypt(key, sealed[:length])
        for extra in (b"\x00", b"\xff", sealed[-1:]):
            with pytest.raises(DecryptionError):
                sym_decrypt(key, sealed + extra)
        for wrong in (rng.randbytes(32), bytes([key[0] ^ 1]) + key[1:], key[:31] + bytes([key[31] ^ 0x80])):
            with pytest.raises(DecryptionError):
                sym_decrypt(wrong, sealed)
        assert group_module._ERR_get_error() == 0
        assert sym_decrypt(key, sealed) == plaintext

    def test_interleaving_threads_get_the_oracles_bytes(self):
        # ctypes releases the GIL around each EVP call, so the threads,
        # switching often, overlap inside libcrypto, each in its own contexts
        # and output buffer, with texts of different lengths.
        jobs = []
        for i in range(2):
            rng = random.Random(f"thread-{i}")
            sizes = [rng.randrange(0, 300 + 3000 * i) for _ in range(300)]
            jobs.append([(rng.randbytes(32), rng.randbytes(size), seed) for seed, size in enumerate(sizes)])
        start = threading.Barrier(len(jobs))
        results = [None] * len(jobs)

        def work(i):
            start.wait(timeout=60)
            sealed = [sym_encrypt(key, plaintext, random.Random(seed)) for key, plaintext, seed in jobs[i]]
            results[i] = sealed, [sym_decrypt(key, text) for (key, _, _), text in zip(jobs[i], sealed)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for job, (sealed, opened) in zip(jobs, results):
            assert sealed == [oracle_encrypt(*row) for row in job]
            assert opened == [plaintext for _, plaintext, _ in job]

    @pytest.mark.parametrize(
        "direction, call", [("encrypt", call) for call in SEAL_CALLS] + [("decrypt", call) for call in OPEN_CALLS]
    )
    def test_a_failing_evp_call_raises_naming_it(self, monkeypatch, direction, call):
        # A library fault is a program fault: no ciphertext, no plaintext, and
        # never DecryptionError, which would read as a tampered record.
        key, plaintext = bytes(range(32)), b"record " * 10
        sealed = oracle_encrypt(key, plaintext, 12)
        monkeypatch.setattr(group_module, f"_{call}", lambda *args: 0)
        with pytest.raises(BignumError, match=f"{call} failed"):
            if direction == "encrypt":
                sym_encrypt(key, plaintext, random.Random(12))
            else:
                sym_decrypt(key, sealed)
        monkeypatch.undo()
        # The fault left the thread's contexts usable.
        assert sym_encrypt(key, plaintext, random.Random(12)) == sealed
        assert sym_decrypt(key, sealed) == plaintext

    @pytest.mark.parametrize("call", ["EVP_CIPHER_CTX_new", "EVP_EncryptInit_ex", "EVP_DecryptInit_ex"])
    def test_a_failing_evp_call_in_a_new_threads_scratch_raises(self, monkeypatch, call):
        failure = group_module._Pointer() if call == "EVP_CIPHER_CTX_new" else 0
        monkeypatch.setattr(group_module, f"_{call}", lambda *args: failure)
        with pytest.raises(BignumError, match=f"{call} failed"):
            group_module._Scratch()

    def test_a_failing_cipher_fetch_fails_the_import(self):
        # ERR_peek_error stands in for the fetch: it answers 0, a NULL cipher.
        code = (
            "import ctypes\n"
            "lookup = ctypes.CDLL.__getitem__\n"
            "ctypes.CDLL.__getitem__ = lambda lib, name: lookup(\n"
            "    lib, 'ERR_peek_error' if name == 'EVP_CIPHER_fetch' else name\n"
            ")\n"
            "import phrchain\n"
        )
        result = _run_python(code)
        assert result.returncode != 0
        assert "BignumError: EVP_CIPHER_fetch failed" in result.stderr

    def test_lengths_above_int_max_raise_before_any_call(self, monkeypatch):
        made = []
        for name in EVP_CALLS:
            monkeypatch.setattr(group_module, name, lambda *args, name=name: made.append(name))
        key = bytes(32)
        with pytest.raises(ValueError, match="at most 2147483647 bytes of plaintext"):
            group_module._gcm_seal(key, bytes(12), _Long(2**31))
        with pytest.raises(ValueError, match="at most 2147483647 bytes of ciphertext"):
            group_module._gcm_open(key, _Long(12 + 2**31 + 16))
        assert made == []

    def test_importing_the_package_leaves_cryptography_out(self):
        code = "import sys, phrchain\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'cryptography'))\n"
        result = _run_python(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


def _run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this checkout's package."""
    package_root = Path(group_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package_root), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)


@given(seed=st.integers(0, 2**32), context=st.binary(max_size=64))
@settings(max_examples=20, deadline=None)
def test_schnorr_completeness_property(group, seed, context):
    rng = random.Random(seed)
    kp = keygen(group, rng)
    proof = schnorr_prove(group, kp, context, rng)
    assert schnorr_verify(group, kp.public, proof, context)


@given(seed=st.integers(0, 2**32), position=st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_ring_proof_random_mutation_rejected(group, seed, position):
    rng = random.Random(seed)
    kps = [keygen(group, rng) for _ in range(3)]
    ring = [kp.public for kp in kps]
    proof = ring_prove(group, ring, seed % 3, kps[seed % 3].secret, b"ctx", rng)
    raw = bytearray(proof.to_bytes(group))
    raw[position % len(raw)] ^= 1 + seed % 255
    try:
        reader = Reader(bytes(raw))
        mutated = RingProof.read_from(reader, group)
        reader.expect_end()
    except (FormatError, ValueError):
        return
    assert not ring_verify(group, ring, mutated, b"ctx")
