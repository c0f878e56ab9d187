"""Discrete-log proof primitives and authenticated symmetric encryption.

Three sigma-protocol transcripts are produced here, all made
non-interactive by hashing the transcript into the challenge:

* ``SchnorrProof`` -- knowledge of the secret for one public key.
* ``RingProof`` -- knowledge of the secret for at least one key in an
  ordered ring, without revealing which (simulate every non-witness
  branch, split the binding challenge additively across branches).
* ``CredentialProof`` -- conjunction of a ring proof over an enrolled
  key list and a Schnorr proof for a fresh block key, bound under one
  joint context so neither half can be replayed against a different
  block key or key list.

Challenges are SHA-256 outputs reduced mod the group order, with a
distinct domain tag per use ("FS-SCHNORR", "FS-OR", "SIG"; the ledger's
hash chain uses "CHAIN"). All proving functions take an optional
``random.Random`` so transcripts are reproducible under a fixed seed;
the default is the operating system RNG.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import encoding as enc
from .group import GroupParams, _rng

TAG_FS_SCHNORR = b"FS-SCHNORR"
TAG_FS_OR = b"FS-OR"
TAG_SIG = b"SIG"
TAG_CHAIN = b"CHAIN"

SYM_KEY_SIZE = 32
_GCM_NONCE_SIZE = 12


class DecryptionError(ValueError):
    """Authenticated decryption failed: wrong key or tampered ciphertext."""


def digest(data: bytes) -> bytes:
    """The canonical 32-byte hash (SHA-256)."""
    return hashlib.sha256(data).digest()


def hash_to_scalar(group: GroupParams, tag: bytes, payload: bytes) -> int:
    """Fiat-Shamir challenge: domain-tagged hash reduced mod the group order."""
    return int.from_bytes(digest(tag + payload), "big") % group.order


def key_list_digest(group: GroupParams, keys: Sequence[int]) -> bytes:
    """Digest over the canonical serialization of an ordered key list."""
    parts = [enc.u32(len(keys))]
    parts.extend(group.encode_element(k) for k in keys)
    return digest(b"".join(parts))


@functools.lru_cache(maxsize=8)
def _ring_digest(group: GroupParams, ring: tuple[int, ...]) -> bytes:
    # A registry's key tuple is proved against and verified against several
    # times per block; hashing the tuple is far cheaper than re-encoding it.
    return key_list_digest(group, ring)


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: int


def keygen(group: GroupParams, rng: random.Random | None = None) -> KeyPair:
    """Fresh keypair: uniform secret in [1, order), public = generator**secret."""
    secret = group.random_scalar(rng)
    return KeyPair(secret=secret, public=group.exp(group.generator, secret))


# ---------------------------------------------------------------------------
# Schnorr proof of knowledge
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SchnorrProof:
    # Slotted: a decoded block holds one per ring key, thousands per block.
    commitment: int
    challenge: int
    response: int

    def to_bytes(self, group: GroupParams) -> bytes:
        return (
            group.encode_element(self.commitment)
            + group.encode_scalar(self.challenge)
            + group.encode_scalar(self.response)
        )

    @classmethod
    def read_from(cls, reader: enc.Reader, group: GroupParams) -> "SchnorrProof":
        commitment = group.decode_element(reader.take(group.element_size))
        challenge = group.decode_scalar(reader.take(group.scalar_size))
        response = group.decode_scalar(reader.take(group.scalar_size))
        return cls(commitment, challenge, response)


def _schnorr_challenge(group: GroupParams, context: bytes, public: int, commitment: int) -> int:
    payload = enc.prefixed(context) + group.encode_element(public) + group.encode_element(commitment)
    return hash_to_scalar(group, TAG_FS_SCHNORR, payload)


def schnorr_prove(
    group: GroupParams, kp: KeyPair, context: bytes, rng: random.Random | None = None
) -> SchnorrProof:
    """Prove knowledge of kp.secret, bound to an arbitrary context string."""
    r = group.random_scalar(rng)
    commitment = group.exp(group.generator, r)
    challenge = _schnorr_challenge(group, context, kp.public, commitment)
    return SchnorrProof(commitment, challenge, _schnorr_response(group, r, challenge, kp.secret))


def schnorr_verify(group: GroupParams, public: int, proof: SchnorrProof, context: bytes) -> bool:
    """True iff the challenge recomputes from the context and the equation holds."""
    if not _schnorr_gate(group, public, proof.commitment, proof.response):
        return False
    # The recomputed challenge is in [0, order), so this also range-checks it.
    if proof.challenge != _schnorr_challenge(group, context, public, proof.commitment):
        return False
    return _schnorr_equations(group, (public,), (proof.commitment,), (proof.challenge,), (proof.response,))


def _schnorr_gate(group: GroupParams, public: int, commitment: int, response: int) -> bool:
    """The input checks of a Schnorr-shaped verifier, run before anything is hashed.

    Response in [0, order), commitment in [1, modulus), public key in the
    subgroup: no int that ``encode_element`` cannot write reaches it, and a
    small-order key cannot make the equation hold without a secret. The
    key's verdict is kept (``GroupParams.key_is_element``), so a key is
    tested once however often it signs.
    """
    return _scalar_ok(group, response) and _commitment_ok(group, commitment) and group.key_is_element(public)


def _schnorr_equations(
    group: GroupParams,
    keys: Iterable[int],
    commitments: Iterable[int],
    challenges: Iterable[int],
    responses: Iterable[int],
) -> bool:
    """g^s == t * y^c (mod p) for each key y, commitment t in [1, p),
    challenge c and response s in turn.

    Each is checked as t == g^s * y^-c, its value in the commitment
    column (``GroupParams.schnorr_commitments``): the verdict ``pow``
    gives, for any int key. The column is lazy, so the check stops at the
    first equation that fails, and the ones after it cost no
    exponentiation. A Schnorr proof, a signature and the possession half
    are one-key columns, checked after ``_schnorr_gate``; ring branches
    are checked by ``_ring_equations`` after ``_ring_gate``.
    """
    return all(map(operator.eq, commitments, group.schnorr_commitments(keys, challenges, responses)))


def _schnorr_response(group: GroupParams, nonce: int, challenge: int, secret: int) -> int:
    """The response that makes the Schnorr equation hold for this nonce's commitment."""
    return (nonce + challenge * secret) % group.order


def _scalar_ok(group: GroupParams, value: int) -> bool:
    return 0 <= value < group.order


def _commitment_ok(group: GroupParams, value: int) -> bool:
    """In [1, modulus): a value ``encode_element`` writes, not yet tested for membership."""
    return 1 <= value < group.modulus


# ---------------------------------------------------------------------------
# Ring membership proof (one-of-many OR composition)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingProof:
    """One Schnorr-shaped transcript per ring key plus the binding challenge.

    Branch challenges sum to the binding challenge mod the group order, so
    exactly one branch is forced by the Fiat-Shamir hash while the rest were
    simulated; the transcript layout is identical for every witness index.
    """

    branches: tuple[SchnorrProof, ...]
    binding_challenge: int

    def to_bytes(self, group: GroupParams) -> bytes:
        parts = [enc.u32(len(self.branches))]
        parts.extend(b.to_bytes(group) for b in self.branches)
        parts.append(group.encode_scalar(self.binding_challenge))
        return b"".join(parts)

    @classmethod
    def read_from(cls, reader: enc.Reader, group: GroupParams) -> "RingProof":
        count = reader.u32()
        branches = tuple(SchnorrProof.read_from(reader, group) for _ in range(count))
        binding = group.decode_scalar(reader.take(group.scalar_size))
        return cls(branches, binding)


def _commitment_bytes(group: GroupParams, commitments: Sequence[int]) -> bytes:
    """The ring commitments as hashed: a u32 count, then each element.

    Encoded once per proof or check and read by both the joint context and
    the binding challenge.
    """
    return enc.u32(len(commitments)) + b"".join(map(group.encode_element, commitments))


def _ring_binding_challenge(group: GroupParams, context: bytes, commitment_bytes: bytes) -> int:
    return hash_to_scalar(group, TAG_FS_OR, enc.prefixed(context) + commitment_bytes)


@dataclass(frozen=True)
class _RingCommitState:
    index: int
    nonce: int
    commitments: tuple[int, ...]
    challenges: tuple[int, ...]
    responses: tuple[int, ...]


def _ring_commit(
    group: GroupParams, ring: Sequence[int], index: int, secret: int, rng: random.Random | None
) -> _RingCommitState:
    """Commit to every branch, after checking the witness and before any RNG draw.

    The draws come in branch order: a simulated branch's challenge and
    response, the witness branch's nonce. Then the simulated branches'
    commitments, the ones that satisfy their verification equations, come
    from one commitment column, and the witness commitment is g^nonce.
    """
    if not 0 <= index < len(ring):
        raise IndexError(f"witness index {index} outside ring of {len(ring)}")
    if group.exp(group.generator, secret) != ring[index]:
        raise ValueError("witness secret does not match the ring key at the given index")
    challenges: list[int] = []
    responses: list[int] = []
    nonce = 0
    for i in range(len(ring)):
        if i == index:
            nonce = group.random_scalar(rng)
        else:
            challenges.append(group.random_scalar(rng))
            responses.append(group.random_scalar(rng))
    others = [*ring[:index], *ring[index + 1 :]]
    commitments = list(group.schnorr_commitments(others, challenges, responses))
    commitments.insert(index, group.exp(group.generator, nonce))
    # The witness slot holds 0 until _ring_finish fills it.
    challenges.insert(index, 0)
    responses.insert(index, 0)
    return _RingCommitState(index, nonce, tuple(commitments), tuple(challenges), tuple(responses))


def _ring_finish(
    group: GroupParams, state: _RingCommitState, secret: int, binding: int
) -> RingProof:
    challenges = list(state.challenges)
    responses = list(state.responses)
    challenges[state.index] = (binding - sum(challenges)) % group.order
    responses[state.index] = _schnorr_response(group, state.nonce, challenges[state.index], secret)
    branches = map(SchnorrProof, state.commitments, challenges, responses)
    return RingProof(tuple(branches), binding)


def ring_prove(
    group: GroupParams,
    ring: Sequence[int],
    index: int,
    secret: int,
    context: bytes,
    rng: random.Random | None = None,
) -> RingProof:
    """Prove knowledge of the secret for ring[index] without revealing the index."""
    state = _ring_commit(group, ring, index, secret, rng)
    binding = _ring_binding_challenge(group, context, _commitment_bytes(group, state.commitments))
    return _ring_finish(group, state, secret, binding)


def ring_verify(
    group: GroupParams, ring: Sequence[int], proof: RingProof, context: bytes
) -> bool:
    """True iff every ring key is in the subgroup, the challenges sum to the
    recomputed binding and every branch equation holds.

    Each equation g^s_i == t_i * y_i^c_i is checked on its own, at every
    ring size, as t_i == g^s_i * y_i^-c_i, the branch's value in the
    commitment column (``_schnorr_equations``). So the verdict is the one
    ``pow`` gives branch by branch; it draws no randomness and stops at
    the first failing branch. No commitment needs a membership test: the
    gate puts each y_i in the subgroup, and a holding equation puts
    t_i = g^s_i / y_i^c_i there too.
    """
    if not _ring_gate(group, ring, proof):
        return False
    commitment_bytes = _commitment_bytes(group, [b.commitment for b in proof.branches])
    return _ring_equations(group, ring, proof, context, commitment_bytes)


def _ring_gate(group: GroupParams, ring: Sequence[int], proof: RingProof) -> bool:
    """The input checks of ``ring_verify``, run before anything is hashed or encoded.

    A non-empty ring with one branch per key, every challenge and response
    in [0, order), every commitment in [1, modulus), and every ring key in
    the subgroup. A key of order one or two (1, p - 1) would let a proof
    hold with no secret, and only a key in [1, modulus) has the canonical
    encoding that ``credential_verify``'s joint context hashes. Each key's
    verdict is kept (``GroupParams.key_is_element``), so a ring's keys
    are tested once however many proofs over them are checked.
    ``credential_verify`` runs the gate before its joint context encodes
    the commitments. The length test is
    also the bound of the registry prefix rule
    (``consensus.verify_block``): a proof of m branches checked against
    the first m keys of a registry with fewer keys, or with m = 0, meets a
    ring of another length or an empty one.
    """
    if len(proof.branches) != len(ring) or len(ring) == 0:
        return False
    return all(
        _scalar_ok(group, b.challenge) and _scalar_ok(group, b.response) and _commitment_ok(group, b.commitment)
        for b in proof.branches
    ) and all(map(group.key_is_element, ring))


def _ring_equations(
    group: GroupParams, ring: Sequence[int], proof: RingProof, context: bytes, commitment_bytes: bytes
) -> bool:
    """The binding challenge and the branch equations of a proof past
    ``_ring_gate`` (see ``ring_verify``); ``commitment_bytes`` is
    ``_commitment_bytes`` of its commitments, which the caller encodes once.

    The branch equations are one column (``_schnorr_equations``), which
    stops at the first branch whose equation fails.
    """
    branches = proof.branches
    binding = _ring_binding_challenge(group, context, commitment_bytes)
    if binding != proof.binding_challenge:
        return False
    if sum(b.challenge for b in branches) % group.order != binding:
        return False
    return _schnorr_equations(
        group,
        ring,
        (b.commitment for b in branches),
        (b.challenge for b in branches),
        (b.response for b in branches),
    )


# ---------------------------------------------------------------------------
# Credential proof: ring membership AND possession of a fresh block key
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CredentialProof:
    """Anonymous credential for one block: enrolled identity + fresh key.

    The joint context is key-list digest || block public key || digest of
    both commitment sets; each sub-challenge derives from it, so the proof
    cannot be re-targeted at another block key or another key list.
    """

    membership: RingProof
    possession: SchnorrProof
    joint_context: bytes

    def to_bytes(self, group: GroupParams) -> bytes:
        return (
            enc.prefixed(self.joint_context)
            + self.membership.to_bytes(group)
            + self.possession.to_bytes(group)
        )

    @classmethod
    def read_from(cls, reader: enc.Reader, group: GroupParams) -> "CredentialProof":
        joint_context = reader.prefixed()
        membership = RingProof.read_from(reader, group)
        possession = SchnorrProof.read_from(reader, group)
        return cls(membership, possession, joint_context)

    @classmethod
    def from_bytes(cls, data: bytes, group: GroupParams) -> "CredentialProof":
        return enc.decode(data, cls.read_from, group)


def _joint_context(
    group: GroupParams,
    ring: Sequence[int],
    block_public: int,
    possession_commitment: int,
    commitment_bytes: bytes,
) -> bytes:
    """Ring digest, block key, and the digest of both halves' commitments;
    ``commitment_bytes`` is ``_commitment_bytes`` of the ring commitments."""
    return (
        _ring_digest(group, tuple(ring))
        + group.encode_element(block_public)
        + digest(group.encode_element(possession_commitment) + commitment_bytes)
    )


def credential_prove(
    group: GroupParams,
    ring: Sequence[int],
    index: int,
    identity_secret: int,
    block_kp: KeyPair,
    rng: random.Random | None = None,
) -> CredentialProof:
    """Bind ring membership of an identity key to possession of a block key."""
    ring_state = _ring_commit(group, ring, index, identity_secret, rng)
    possession_nonce = group.random_scalar(rng)
    possession_commitment = group.exp(group.generator, possession_nonce)
    commitment_bytes = _commitment_bytes(group, ring_state.commitments)
    joint = _joint_context(group, ring, block_kp.public, possession_commitment, commitment_bytes)

    binding = _ring_binding_challenge(group, joint, commitment_bytes)
    membership = _ring_finish(group, ring_state, identity_secret, binding)

    challenge = _schnorr_challenge(group, joint, block_kp.public, possession_commitment)
    response = _schnorr_response(group, possession_nonce, challenge, block_kp.secret)
    possession = SchnorrProof(possession_commitment, challenge, response)
    return CredentialProof(membership, possession, joint)


def credential_verify(
    group: GroupParams, ring: Sequence[int], block_public: int, proof: CredentialProof
) -> bool:
    """True iff both halves verify under the joint context recomputed from inputs."""
    possession = proof.possession
    # The joint context encodes the block key and every commitment of both halves.
    if not _schnorr_gate(group, block_public, possession.commitment, possession.response):
        return False
    if not _ring_gate(group, ring, proof.membership):
        return False
    commitment_bytes = _commitment_bytes(group, [b.commitment for b in proof.membership.branches])
    expected = _joint_context(group, ring, block_public, possession.commitment, commitment_bytes)
    if proof.joint_context != expected:
        return False
    if possession.challenge != _schnorr_challenge(group, expected, block_public, possession.commitment):
        return False
    return _ring_equations(group, ring, proof.membership, expected, commitment_bytes) and _schnorr_equations(
        group, (block_public,), (possession.commitment,), (possession.challenge,), (possession.response,)
    )


# ---------------------------------------------------------------------------
# Schnorr signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    commitment: int
    response: int

    def to_bytes(self, group: GroupParams) -> bytes:
        return group.encode_element(self.commitment) + group.encode_scalar(self.response)

    @classmethod
    def read_from(cls, reader: enc.Reader, group: GroupParams) -> "Signature":
        commitment = group.decode_element(reader.take(group.element_size))
        response = group.decode_scalar(reader.take(group.scalar_size))
        return cls(commitment, response)


def _signature_challenge(group: GroupParams, public: int, commitment: int, message: bytes) -> int:
    payload = group.encode_element(public) + group.encode_element(commitment) + digest(message)
    return hash_to_scalar(group, TAG_SIG, payload)


def sign(group: GroupParams, kp: KeyPair, message: bytes, rng: random.Random | None = None) -> Signature:
    """Schnorr signature over the digest of the message."""
    r = group.random_scalar(rng)
    commitment = group.exp(group.generator, r)
    challenge = _signature_challenge(group, kp.public, commitment, message)
    return Signature(commitment, _schnorr_response(group, r, challenge, kp.secret))


def verify_signature(group: GroupParams, public: int, message: bytes, sig: Signature) -> bool:
    if not _schnorr_gate(group, public, sig.commitment, sig.response):
        return False
    challenge = _signature_challenge(group, public, sig.commitment, message)
    return _schnorr_equations(group, (public,), (sig.commitment,), (challenge,), (sig.response,))


# ---------------------------------------------------------------------------
# Authenticated symmetric encryption (AES-256-GCM, nonce-prefixed)
# ---------------------------------------------------------------------------


def new_sym_key(rng: random.Random | None = None) -> bytes:
    return _rng(rng).randbytes(SYM_KEY_SIZE)


def sym_encrypt(key: bytes, plaintext: bytes, rng: random.Random | None = None) -> bytes:
    """Encrypt under a fresh random nonce; returns nonce || ciphertext+tag."""
    if len(key) != SYM_KEY_SIZE:
        raise ValueError(f"symmetric key must be {SYM_KEY_SIZE} bytes")
    nonce = _rng(rng).randbytes(_GCM_NONCE_SIZE)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def sym_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Decrypt a nonce-prefixed ciphertext; raises DecryptionError on any tamper."""
    if len(key) != SYM_KEY_SIZE:
        raise ValueError(f"symmetric key must be {SYM_KEY_SIZE} bytes")
    if len(ciphertext) < _GCM_NONCE_SIZE + 16:
        raise DecryptionError("ciphertext too short")
    nonce, body = ciphertext[:_GCM_NONCE_SIZE], ciphertext[_GCM_NONCE_SIZE:]
    try:
        return AESGCM(key).decrypt(nonce, body, None)
    except InvalidTag as exc:
        raise DecryptionError("authentication failed") from exc
