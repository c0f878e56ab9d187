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

Symmetric encryption is AES-256-GCM with no associated data, stored as
nonce(12) || ciphertext || tag(16). Like every exponentiation, it runs in
libcrypto through the one ``ctypes`` binding in ``group.py`` (BIGNUM for
the group, EVP for the cipher), so the package needs no other library.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import operator
import random
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import encoding as enc
from .group import _CHUNK, _GCM_NONCE_SIZE, _GCM_TAG_SIZE, GroupParams, _gcm_open, _gcm_seal, _pinned, _Ring, _rng

TAG_FS_SCHNORR = b"FS-SCHNORR"
TAG_FS_OR = b"FS-OR"
TAG_SIG = b"SIG"
TAG_CHAIN = b"CHAIN"

SYM_KEY_SIZE = 32


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
    entry = _schnorr_gate(group, public, proof.commitment, proof.response)
    if not entry:
        return False
    # The recomputed challenge is in [0, order), so this also range-checks it.
    if proof.challenge != _schnorr_challenge(group, context, public, proof.commitment):
        return False
    return _schnorr_equation(group, public, entry, proof.commitment, proof.challenge, proof.response)


def _schnorr_gate(group: GroupParams, public: int, commitment: int, response: int):
    """The input checks of a Schnorr-shaped verifier, run before anything is
    hashed: the public key's kept entry, true, if they pass, else false.

    Response in [0, order), commitment in [1, modulus), public key in the
    subgroup: no int that ``encode_element`` cannot write reaches it, and a
    small-order key cannot make the equation hold without a secret. The
    key's entry is kept (``GroupParams.key_is_element``), so a key is
    tested once however often it signs, and the verifier hands the entry
    to its column (``_schnorr_equation``), which looks up nothing.
    """
    return 0 <= response < group.order and 1 <= commitment < group.modulus and group.key_is_element(public)


def _schnorr_equation(group: GroupParams, key: int, entry, commitment: int, challenge: int, response: int) -> bool:
    """g^s == t * y^c (mod p) for key y, whose kept entry ``_schnorr_gate``
    returned, commitment t in [1, p), and challenge c and response s in
    [0, order).

    Checked as t == g^s * y^-c: the one record t || c || s, encoded, is a
    run of one value over the key and its entry (``group._Pinned.run``,
    the kernel of ``GroupParams.schnorr_failure``), whose verdict is the
    one ``pow`` gives. A Schnorr proof, a signature and the possession
    half are checked here, after ``_schnorr_gate``; ring branches are one
    column of their records, checked by ``_column_holds`` after
    ``_ring_gate``.
    """
    size, scalar = group.element_size, group.scalar_size
    record = commitment.to_bytes(size) + challenge.to_bytes(scalar) + response.to_bytes(scalar)
    pinned = _pinned(group.modulus, group.generator)
    return pinned.run(group, (key,), (entry,), record, 0, 0, size + 2 * scalar, None) is None


def _schnorr_response(group: GroupParams, nonce: int, challenge: int, secret: int) -> int:
    """The response that makes the Schnorr equation hold for this nonce's commitment."""
    return (nonce + challenge * secret) % group.order


# ---------------------------------------------------------------------------
# Ring membership proof (one-of-many OR composition)
# ---------------------------------------------------------------------------


class _BranchLayout:
    """A ring branch's wire record in one group, and the range rules it obeys.

    The record is commitment || challenge || response, each fixed-width
    big-endian (96 bytes in the default group), and a proof's branches are
    its records back to back. The rules are commitment in [1, modulus) and
    challenge, response below the order. Fixed-width big-endian bytes order
    as their values do, so each rule is a comparison of bytes. The decoder,
    the packer and the verifier's gate all read records through here.
    """

    COMMITMENT, CHALLENGE, RESPONSE = range(3)

    def __init__(self, group: GroupParams) -> None:
        e, s = group.element_size, group.scalar_size
        self.group, self.size, self.scalar_size = group, e + 2 * s, s
        self.record = struct.Struct(f">{e}s{s}s{s}s")
        self.element = struct.Struct(f">{e}s")
        self.scalars = struct.Struct(f">{2 * s}s")
        # One field of every record, the others skipped.
        self.fields = tuple(
            struct.Struct(f">{start}x{width}s{self.size - start - width}x")
            for start, width in ((0, e), (e, s), (e + s, s))
        )
        self.zero, self.modulus, self.order = bytes(e), group.modulus.to_bytes(e), group.order.to_bytes(s)

    def __reduce__(self):
        # A Struct does not pickle, so a copied or pickled proof names its
        # layout by its group.
        return _branch_layout, (self.group,)

    def fault(self, records: bytes) -> str | None:
        """The first range rule the records break, in wire order, worded as
        the element and scalar decoders word it; None if they keep every rule."""
        zero, modulus, order = self.zero, self.modulus, self.order
        for commitment, challenge, response in self.record.iter_unpack(records):
            if not zero < commitment < modulus:
                return "element out of range"
            if not (challenge < order and response < order):
                return "scalar out of range"
        return None

    def pack(self, commitments: bytes, scalars: bytes) -> bytes:
        """The records of branches whose commitments, and whose challenge and
        response pairs, are already encoded back to back."""
        return b"".join(map(operator.add, self.raw(commitments, self.element), self.raw(scalars, self.scalars)))

    def pack_branches(self, branches: Sequence[SchnorrProof]) -> bytes:
        """The records of ``SchnorrProof`` branches; raises OverflowError for a
        value that is negative or too wide for its field."""
        widths = itertools.repeat(self.scalar_size)
        return b"".join(map(
            self.record.pack,
            map(int.to_bytes, (b.commitment for b in branches), itertools.repeat(self.element.size)),
            map(int.to_bytes, (b.challenge for b in branches), widths),
            map(int.to_bytes, (b.response for b in branches), widths),
        ))

    def raw(self, records: bytes, field: struct.Struct) -> Iterator[bytes]:
        """One field's bytes from every record, as ``field`` picks it."""
        return map(operator.itemgetter(0), field.iter_unpack(records))

    def column(self, records: bytes, field: int) -> Iterator[int]:
        """One field's values from every record, converted as they are read:
        the challenges a verifier sums, or the fields of ``branches``."""
        return map(int.from_bytes, self.raw(records, self.fields[field]))

    def commitment_bytes(self, records: bytes) -> bytes:
        """``_commitment_bytes`` of the records' commitments, joined from their stored bytes."""
        return enc.u32(len(records) // self.size) + b"".join(self.raw(records, self.fields[self.COMMITMENT]))

    def branches(self, records: bytes) -> tuple[SchnorrProof, ...]:
        return tuple(map(SchnorrProof, *(self.column(records, field) for field in range(3))))


@functools.lru_cache(maxsize=8)
def _branch_layout(group: GroupParams) -> _BranchLayout:
    return _BranchLayout(group)


@dataclass(frozen=True)
class RingProof:
    """One Schnorr-shaped transcript per ring key plus the binding challenge.

    Branch challenges sum to the binding challenge mod the group order, so
    exactly one branch is forced by the Fiat-Shamir hash while the rest were
    simulated; the transcript layout is identical for every witness index.

    The branches are kept as their wire records (``_BranchLayout``), 96
    bytes a branch: a decoded proof keeps the bytes it read, a proved one
    the bytes its prover packed. Verifiers and ``to_bytes`` read those
    bytes, so a decoded or proved proof holds no per-branch object.
    ``branches`` is still the constructor's field: a proof built from
    ``SchnorrProof`` objects packs them when it is first verified or
    encoded, and a proof kept as bytes builds its ``SchnorrProof`` objects
    on the first access to ``branches``.
    """

    branches: tuple[SchnorrProof, ...]
    binding_challenge: int

    @classmethod
    def _of_records(cls, layout: _BranchLayout, records: bytes, binding_challenge: int) -> "RingProof":
        """A proof kept as its branch records, with no ``branches`` built yet.
        The records must keep the range rules: the decoder has checked them,
        and the prover's values are in range by construction."""
        proof = cls.__new__(cls)
        proof.__dict__.update(_kept=(layout, records, True), binding_challenge=binding_challenge)
        return proof

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: the branches of a proof kept as records.
        kept = self.__dict__.get("_kept")
        if name != "branches" or kept is None:
            raise AttributeError(name)
        branches = self.__dict__["branches"] = kept[0].branches(kept[1])
        return branches

    @property
    def branch_count(self) -> int:
        """m, the number of branches, read without building them."""
        if "branches" in self.__dict__:
            return len(self.branches)
        layout, records, _ = self.__dict__["_kept"]
        return len(records) // layout.size

    def _records(self, layout: _BranchLayout) -> tuple[bytes | None, bool]:
        """The branch records under ``layout``, and whether they keep its
        range rules: as kept, or packed from ``branches`` and checked, then
        kept. The records are None when a value does not fit its field.

        The rules are checked once, where records are made: by the decoder,
        by the prover (``_of_records``), or here. Records kept under another
        group's layout are packed and checked afresh.
        """
        kept = self.__dict__.get("_kept")
        if kept is None or kept[0].group != layout.group:
            try:
                records = layout.pack_branches(self.branches)
            except OverflowError:
                records = None
            in_range = records is not None and layout.fault(records) is None
            kept = self.__dict__["_kept"] = (layout, records, in_range)
        return kept[1], kept[2]

    def to_bytes(self, group: GroupParams) -> bytes:
        """The wire form; values out of range are written as they are, and
        the decoder refuses them."""
        layout = _branch_layout(group)
        records, _ = self._records(layout)
        if records is None:
            raise OverflowError("a ring branch value does not fit its encoding")
        return enc.u32(len(records) // layout.size) + records + group.encode_scalar(self.binding_challenge)

    @classmethod
    def read_from(cls, reader: enc.Reader, group: GroupParams) -> "RingProof":
        """The branch records in one read, checked against the range rules;
        a body cut short is reported as truncated before any rule is checked."""
        layout = _branch_layout(group)
        records = reader.take(reader.u32() * layout.size)
        fault = layout.fault(records)
        if fault is not None:
            raise enc.FormatError(fault)
        return cls._of_records(layout, records, group.decode_scalar(reader.take(group.scalar_size)))


def _commitment_bytes(group: GroupParams, commitments: bytes) -> bytes:
    """The ring commitments as hashed: a u32 count, then the encoded elements.

    The prover has them encoded from its commitment column, for the joint
    context, the binding challenge and its branch records; a verifier joins
    them from the proof's records (``_BranchLayout.commitment_bytes``).
    """
    return enc.u32(len(commitments) // group.element_size) + commitments


def _ring_binding_challenge(group: GroupParams, context: bytes, commitment_bytes: bytes) -> int:
    return hash_to_scalar(group, TAG_FS_OR, enc.prefixed(context) + commitment_bytes)


@dataclass(frozen=True)
class _RingCommitState:
    """A ring proof before its binding challenge: the witness index and
    nonce, every branch's encoded commitment in ring order, the simulated
    branches' challenge and response pairs, encoded in ring order with the
    witness skipped, the sum of their challenges, and the nonce of the
    possession half drawn after them, or None for a bare ring proof."""

    index: int
    nonce: int
    commitments: bytes
    scalars: bytes
    challenge_sum: int
    possession_nonce: int | None


def _ring_commit(
    group: GroupParams, ring: Sequence[int], index: int, secret: int, rng: random.Random | None
) -> _RingCommitState:
    """``_rings_commit`` of one ring, with no possession nonce: a bare ring proof's commitments."""
    [state] = _rings_commit(group, [(group.ring_table(ring), index, secret)], rng, possession=False)
    return state


def _rings_commit(
    group: GroupParams, witnesses: Sequence[tuple[_Ring, int, int]], rng: random.Random | None, possession: bool
) -> list[_RingCommitState]:
    """Commit to every branch of each ring of ``witnesses``, a ring table,
    the witness index in it and the witness's secret: the rings' simulated
    branches are one commitment column.

    The draws come in ring order, and in branch order within a ring,
    through one bound ``randrange``: a simulated branch's challenge and
    response, the witness branch's nonce, and after the ring's branches its
    possession nonce when ``possession``. Each ring's witness is checked
    before the ring's first draw (an index outside the ring before any).
    The simulated branches' commitments, the ones that satisfy their
    verification equations, come from one commitment column over the
    rings' tables, each skipping its witness position
    (``GroupParams.schnorr_commitments``). The column is handed the encoded
    challenges and responses in chunks of ``_CHUNK`` pairs, each as soon as
    it is drawn, so a worker sharing the column starts on its head while
    the tail is still drawn: a simulated branch depends on its own draws
    alone (Cramer, Damgard and Schoenmakers, CRYPTO 1994), so the rings of
    a block can be one stream. A witness commitment is g^nonce. Nothing of
    a witness branch goes into the column.
    """
    for table, index, _ in witnesses:
        if not 0 <= index < len(table):
            raise IndexError(f"witness index {index} outside ring of {len(table)}")
    draw, order, size = _rng(rng).randrange, group.order, group.scalar_size
    drawn, nonces, sums, possession_nonces = [], [], [], []

    def chunks() -> Iterator[bytes]:
        pairs = []
        for table, index, secret in witnesses:
            if group.exp(group.generator, secret) != table.keys[index]:
                raise ValueError("witness secret does not match the ring key at the given index")
            challenge_sum = 0
            for i in range(len(table)):
                if i == index:
                    nonces.append(draw(1, order))
                    continue
                challenge = draw(1, order)
                challenge_sum += challenge
                pairs.append(challenge.to_bytes(size) + draw(1, order).to_bytes(size))
                if len(pairs) == _CHUNK:
                    drawn.append(b"".join(pairs))
                    pairs.clear()
                    yield drawn[-1]
            sums.append(challenge_sum)
            possession_nonces.append(draw(1, order) if possession else None)
        if pairs:
            drawn.append(b"".join(pairs))
            yield drawn[-1]

    commitments = group.schnorr_commitments([(table, index) for table, index, _ in witnesses], chunks())
    scalars, element, pair = b"".join(drawn), group.element_size, 2 * size
    states, at = [], 0
    for (table, index, _), nonce, challenge_sum, possession_nonce in zip(witnesses, nonces, sums, possession_nonces):
        simulated = len(table) - 1
        ring = commitments[at * element : (at + simulated) * element]
        witness = group.encode_element(group.exp(group.generator, nonce))
        ring = ring[: index * element] + witness + ring[index * element :]
        states.append(_RingCommitState(
            index, nonce, ring, scalars[at * pair : (at + simulated) * pair], challenge_sum, possession_nonce
        ))
        at += simulated
    return states


def _ring_finish(group: GroupParams, state: _RingCommitState, secret: int, binding: int) -> RingProof:
    """The proof: the witness branch solved for the binding challenge, and
    the records packed from the state's encoded commitments and pairs."""
    challenge = (binding - state.challenge_sum) % group.order
    response = _schnorr_response(group, state.nonce, challenge, secret)
    at = state.index * 2 * group.scalar_size
    scalars = state.scalars[:at] + group.encode_scalar(challenge) + group.encode_scalar(response) + state.scalars[at:]
    layout = _branch_layout(group)
    return RingProof._of_records(layout, layout.pack(state.commitments, scalars), binding)


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
    ring size, as t_i == g^s_i * y_i^-c_i: the proof's branch records, as
    they are, are one commitment column over the ring's table
    (``GroupParams.schnorr_failure``), which reads c_i and s_i from their
    bytes, compares each value with the bytes of t_i, and stops at a
    failing branch. So the verdict is the one ``pow`` gives branch by
    branch, and it draws no randomness. The gate runs first; the binding
    challenge and the challenge sum are checked once the records are
    handed to the column (``_column_holds``): while the worker process
    computes, for a ring of at least ``group._SPLIT`` keys, which is sent
    the records, and the keys unless it keeps the ring's table or one it
    grew from: public bytes all. No commitment needs a membership test:
    the gate puts each y_i in the subgroup, and a holding equation puts
    t_i = g^s_i / y_i^c_i there too.
    """
    gated = _ring_gate(group, ring, proof)
    if gated is None:
        return False
    records, _ = gated

    def challenges() -> bool:
        commitment_bytes = _branch_layout(group).commitment_bytes(records)
        return _ring_challenges(group, records, proof.binding_challenge, context, commitment_bytes)

    return _column_holds(group, [gated], challenges)


def _ring_gate(group: GroupParams, ring: Sequence[int], proof: RingProof) -> tuple[bytes, _Ring] | None:
    """The proof's branch records and the ring's table if the proof passes
    the input checks of ``ring_verify``, run before anything is hashed; else None.

    A non-empty ring with one branch per key, every branch value fitting
    its field and keeping the range rules of ``_BranchLayout`` (challenge
    and response in [0, order), commitment in [1, modulus)), and every ring
    key in the subgroup. The rules were checked where the records were made
    (``RingProof._records``), so the gate reads that verdict and scans no
    record. A key of order one or two (1, p - 1) would let a proof hold
    with no secret, and only a key in [1, modulus) has the canonical
    encoding that ``credential_verify``'s joint context hashes.
    The keys' verdict is the ring table's one verdict
    (``GroupParams.ring_table``), made from the keys' kept entries when
    the ring is first resolved and kept with the table, so a ring's keys
    are not scanned again however many proofs over them are checked.
    ``credential_verify`` runs the gate before its joint context hashes
    the commitments. The length test is also the bound of the registry
    prefix rule (``consensus.verify_block``): a proof of m branches checked
    against the first m keys of a registry with fewer keys, or with m = 0,
    meets a ring of another length or an empty one.
    """
    layout = _branch_layout(group)
    records, in_range = proof._records(layout)
    if not in_range or len(records) != len(ring) * layout.size or len(ring) == 0:
        return None
    table = group.ring_table(ring)
    if not table.members:
        return None
    return records, table


def _ring_challenges(group: GroupParams, records: bytes, binding: int, context: bytes, commitment_bytes: bytes) -> bool:
    """Whether the binding challenge ``binding`` of a proof past
    ``_ring_gate`` recomputes from ``context`` and the commitments
    (``commitment_bytes``, joined from the records), and the records'
    challenges, read as ints for their sum alone, sum to it."""
    if _ring_binding_challenge(group, context, commitment_bytes) != binding:
        return False
    layout = _branch_layout(group)
    return sum(layout.column(records, layout.CHALLENGE)) % group.order == binding


class _Refused(Exception):
    """A verifier's check, run while its column computes, failed."""


def _column_holds(group: GroupParams, gated: Sequence[tuple[bytes, _Ring]], checks: Callable[[], bool]) -> bool:
    """Whether every branch equation of the records of proofs past
    ``_ring_gate`` (``gated``, each its records and its ring's table) holds
    and ``checks()`` is true.

    The equations are one column over the rings' tables in turn
    (``GroupParams.schnorr_failure``), each proof's records one chunk of
    it, handed over as they are, with no copy; it stops at a failing
    branch. ``checks`` runs once every chunk is in the column: after the
    chunks are sent to a worker sharing it, so while the worker computes,
    and before the caller's own share, which it spares when it fails. A
    failing check ends the column the way any exception from its chunks
    does: its worker is sent the stop.
    """
    def chunks() -> Iterator[bytes]:
        for records, _ in gated:
            yield records
        if not checks():
            raise _Refused

    try:
        return group.schnorr_failure([table for _, table in gated], chunks()) is None
    except _Refused:
        return False


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
    ``commitment_bytes`` is ``_commitment_bytes`` of the ring commitments.
    The ring digest is ``key_list_digest`` of its keys, kept with the ring's table."""
    return (
        group.ring_table(ring).digest
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
    """Bind ring membership of an identity key to possession of a block key:
    ``credentials_prove`` of this one credential."""
    [proof] = credentials_prove(group, [(ring, index, identity_secret, block_kp)], rng)
    return proof


def credentials_prove(
    group: GroupParams,
    claims: Sequence[tuple[Sequence[int], int, int, KeyPair]],
    rng: random.Random | None = None,
) -> list[CredentialProof]:
    """A credential for each claim (a ring, the identity's index in it, its
    secret and the block key pair), as ``credential_prove`` makes them one
    after another, with the same draws in the same order (each ring's
    branches, then its possession nonce), and the same transcripts: every
    ring's simulated branches are one commitment column (``_rings_commit``),
    so a patient block's two credentials are one stream to the worker."""
    witnesses = [(group.ring_table(ring), index, secret) for ring, index, secret, _ in claims]
    states = _rings_commit(group, witnesses, rng, possession=True)
    proofs = []
    for (table, _, identity_secret), (_, _, _, block_kp), state in zip(witnesses, claims, states):
        possession_commitment = group.exp(group.generator, state.possession_nonce)
        commitment_bytes = _commitment_bytes(group, state.commitments)
        joint = _joint_context(group, table, block_kp.public, possession_commitment, commitment_bytes)

        binding = _ring_binding_challenge(group, joint, commitment_bytes)
        membership = _ring_finish(group, state, identity_secret, binding)

        challenge = _schnorr_challenge(group, joint, block_kp.public, possession_commitment)
        response = _schnorr_response(group, state.possession_nonce, challenge, block_kp.secret)
        proofs.append(CredentialProof(membership, SchnorrProof(possession_commitment, challenge, response), joint))
    return proofs


def credential_verify(
    group: GroupParams, ring: Sequence[int], block_public: int, proof: CredentialProof
) -> bool:
    """True iff both halves verify under the joint context recomputed from
    inputs: ``credentials_verify`` of this one credential. Both gates run
    first; the ring's branch records are then handed to the commitment
    column, and the joint context, the possession challenge, the binding
    challenge, the challenge sum and the possession equation are checked
    while a worker sharing the column computes."""
    return credentials_verify(group, [(ring, block_public, proof)])


def credentials_verify(group: GroupParams, claims: Sequence[tuple[Sequence[int], int, CredentialProof]]) -> bool:
    """True iff every claim's credential (checked against its ring and block
    key) verifies, as ``credential_verify`` would find one by one.

    Every possession half and every ring proof passes its gate
    (``_schnorr_gate``, ``_ring_gate``) before anything is hashed. Then the
    ring proofs' branch records are one commitment column over the rings
    (``_column_holds``), sent to the worker sharing it without a copy, and
    only then, while the worker computes, are the joint contexts, the
    possession challenges, the binding challenges and the challenge sums
    recomputed and the possession equations checked; a failing one stops
    the column.
    """
    gated, entries = [], []
    for ring, block_public, proof in claims:
        possession = proof.possession
        # The joint context encodes the block key and every commitment of both halves.
        entry = _schnorr_gate(group, block_public, possession.commitment, possession.response)
        if not entry:
            return False
        ring_gated = _ring_gate(group, ring, proof.membership)
        if ring_gated is None:
            return False
        gated.append(ring_gated)
        entries.append(entry)

    def checks() -> bool:
        layout = _branch_layout(group)
        for (records, table), entry, (_, block_public, proof) in zip(gated, entries, claims):
            possession = proof.possession
            commitment_bytes = layout.commitment_bytes(records)
            expected = _joint_context(group, table, block_public, possession.commitment, commitment_bytes)
            if proof.joint_context != expected:
                return False
            if possession.challenge != _schnorr_challenge(group, expected, block_public, possession.commitment):
                return False
            if not _ring_challenges(group, records, proof.membership.binding_challenge, expected, commitment_bytes):
                return False
            if not _schnorr_equation(
                group, block_public, entry, possession.commitment, possession.challenge, possession.response
            ):
                return False
        return True

    return _column_holds(group, gated, checks)


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
    entry = _schnorr_gate(group, public, sig.commitment, sig.response)
    if not entry:
        return False
    challenge = _signature_challenge(group, public, sig.commitment, message)
    return _schnorr_equation(group, public, entry, sig.commitment, challenge, sig.response)


# ---------------------------------------------------------------------------
# Authenticated symmetric encryption (AES-256-GCM, nonce-prefixed)
# ---------------------------------------------------------------------------


def new_sym_key(rng: random.Random | None = None) -> bytes:
    return _rng(rng).randbytes(SYM_KEY_SIZE)


def _octets(data) -> bytes:
    """Any bytes-like ``data`` as ``bytes``, which is all the binding passes
    to libcrypto: ctypes would pass a str as wide characters."""
    return data if type(data) is bytes else bytes(memoryview(data))


def sym_encrypt(key: bytes, plaintext: bytes, rng: random.Random | None = None) -> bytes:
    """Encrypt under a fresh random nonce; returns nonce || ciphertext || tag."""
    key, plaintext = _octets(key), _octets(plaintext)
    if len(key) != SYM_KEY_SIZE:
        raise ValueError(f"symmetric key must be {SYM_KEY_SIZE} bytes")
    return _gcm_seal(key, _rng(rng).randbytes(_GCM_NONCE_SIZE), plaintext)


def sym_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Decrypt a nonce-prefixed ciphertext; raises DecryptionError on any tamper."""
    key, ciphertext = _octets(key), _octets(ciphertext)
    if len(key) != SYM_KEY_SIZE:
        raise ValueError(f"symmetric key must be {SYM_KEY_SIZE} bytes")
    if len(ciphertext) < _GCM_NONCE_SIZE + _GCM_TAG_SIZE:
        raise DecryptionError("ciphertext too short")
    plaintext = _gcm_open(key, ciphertext)
    if plaintext is None:
        raise DecryptionError("authentication failed")
    return plaintext
