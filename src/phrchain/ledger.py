"""Block structures, the append-only chain, and patient-side secrets.

Three block kinds exist on the ledger: the patient record block, the
researcher request (a fork of a patient block), and the patient approval.
Blocks are content-addressed: block_id is the hash of the canonical
serialization, never stored inside it.

A patient block carries no field derived from the patient's identity
key. Linkage across a patient's blocks lives only in the off-chain
secrets: each block's hidden chain state folds the symmetric key, data
pointer, data digest, and the previous state, and the on-chain
commitment is the hash of that state with a fresh 256-bit nonce. The
first block in a patient's history chains from a state of 32 zero bytes.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from . import encoding as enc
from .crypto import (
    CredentialProof,
    KeyPair,
    Prehashed,
    Signature,
    TAG_CHAIN,
    credential_prove,  # noqa: F401 -- a name the benchmark's tracer wraps, kept beside the one the flow calls
    credentials_prove,
    digest,
    digest_state,
    keygen,
    new_sym_key,
    sign,
    sym_encrypt,
)
from .group import GroupParams, _rng
from .registry import Directories, conditions_in, mask_matcher

GENESIS_STATE = bytes(32)
NONCE_SIZE = 32
PTR_SIZE = 32


class EnrollmentError(ValueError):
    """A party's identity key does not sit at its claimed registry index."""


class NotApprovedError(ValueError):
    """Attempt to append a block whose consensus record is not approved."""


def chain_state(sym_key: bytes, data_ptr: bytes, data_digest: bytes, prev_state: bytes) -> bytes:
    """Hidden per-block chain state: hash over key, pointer, data digest, previous state."""
    if len(sym_key) != 32:
        raise ValueError("sym_key must be 32 bytes")
    if len(data_ptr) != 32:
        raise ValueError("data_ptr must be 32 bytes")
    if len(data_digest) != 32:
        raise ValueError("data_digest must be 32 bytes")
    if len(prev_state) != 32:
        raise ValueError("prev_state must be 32 bytes")
    return digest(TAG_CHAIN + sym_key + data_ptr + data_digest + prev_state)


def state_commitment(state: bytes, nonce: bytes) -> bytes:
    """On-chain commitment: hash of the chain state with the block's nonce."""
    if len(state) != 32:
        raise ValueError("state must be 32 bytes")
    if len(nonce) != NONCE_SIZE:
        raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
    return digest(TAG_CHAIN + state + nonce)


@dataclass(frozen=True)
class TimeRange:
    """Inclusive visit-time window."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (0 <= self.start <= self.end):
            raise ValueError(f"invalid range [{self.start}, {self.end}]")

    def contains(self, t: int) -> bool:
        return self.start <= t <= self.end

    def encloses(self, other: "TimeRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def to_bytes(self) -> bytes:
        return enc.u64(self.start) + enc.u64(self.end)

    @classmethod
    def read_from(cls, reader: enc.Reader) -> "TimeRange":
        return enc.build(cls, reader.u64(), reader.u64())


# ---------------------------------------------------------------------------
# Block structures
# ---------------------------------------------------------------------------


class _Block:
    """Content addressing, shared by the three block kinds. Each kind's
    canonical bytes open with its ``KIND`` byte, which ``decode_block`` reads.

    Blocks are frozen, so a block keeps one SHA-256 state fed with its
    canonical bytes (``_hashed``), made on the first ``block_id`` or
    ``range_digest``, or by ``decode_block`` from its input, and not its
    bytes: ``canonical_bytes`` encodes on every call. The id is that
    state's digest, and a range digest hashes on from a copy of it.
    ``dataclasses.replace`` builds a new block, which hashes itself afresh.
    A copy or a pickle leaves the state out, and makes its own on first need.
    """

    KIND: int

    @cached_property
    def _hashed(self):
        return digest_state(self.canonical_bytes())

    @cached_property
    def block_id(self) -> bytes:
        return self._hashed.digest()

    def __getstate__(self) -> dict:
        # A hash state neither copies nor pickles.
        return {name: value for name, value in self.__dict__.items() if name != "_hashed"}


@dataclass(frozen=True)
class PatientBlock(_Block):
    """One visit's record block: anonymous credentials in the header, public
    condition bits, chained commitment, and the two fresh block keys in the body."""

    KIND = 1
    patient_credential: CredentialProof
    hospital_credential: CredentialProof
    patient_sig: Signature
    hospital_sig: Signature
    condition_bits: bytes
    commitment: bytes
    patient_block_pk: int
    hospital_block_pk: int
    group: GroupParams

    def body_bytes(self) -> bytes:
        """Canonical body serialization; this is what both parties sign."""
        return _body_bytes(
            self.group,
            self.condition_bits,
            self.commitment,
            self.patient_block_pk,
            self.hospital_block_pk,
        )

    def canonical_bytes(self) -> bytes:
        header = (
            enc.prefixed(self.patient_credential.to_bytes(self.group))
            + enc.prefixed(self.hospital_credential.to_bytes(self.group))
            + self.patient_sig.to_bytes(self.group)
            + self.hospital_sig.to_bytes(self.group)
        )
        return enc.u8(self.KIND) + header + self.body_bytes()

    @classmethod
    def read_from(cls, reader: enc.Reader, group: GroupParams) -> "PatientBlock":
        patient_credential = CredentialProof.from_bytes(reader.prefixed(), group)
        hospital_credential = CredentialProof.from_bytes(reader.prefixed(), group)
        patient_sig = Signature.read_from(reader, group)
        hospital_sig = Signature.read_from(reader, group)
        condition_bits = reader.prefixed()
        commitment = reader.take(32)
        patient_block_pk = group.decode_element(reader.take(group.element_size))
        hospital_block_pk = group.decode_element(reader.take(group.element_size))
        return cls(
            patient_credential=patient_credential,
            hospital_credential=hospital_credential,
            patient_sig=patient_sig,
            hospital_sig=hospital_sig,
            condition_bits=condition_bits,
            commitment=commitment,
            patient_block_pk=patient_block_pk,
            hospital_block_pk=hospital_block_pk,
            group=group,
        )


@dataclass(frozen=True)
class RequestBlock(_Block):
    """Researcher fork of a patient block, asking for a visit-time window.
    The researcher signs ``range_message(parent, requested_range)``."""

    KIND = 2
    parent_ptr: bytes
    requested_range: TimeRange
    researcher_pk: int
    signature: Signature
    group: GroupParams

    def canonical_bytes(self) -> bytes:
        return (
            enc.u8(self.KIND)
            + self.parent_ptr
            + self.requested_range.to_bytes()
            + self.group.encode_element(self.researcher_pk)
            + self.signature.to_bytes(self.group)
        )

    @classmethod
    def read_from(cls, reader: enc.Reader, group: GroupParams) -> "RequestBlock":
        parent_ptr = reader.take(32)
        requested = TimeRange.read_from(reader)
        researcher_pk = group.decode_element(reader.take(group.element_size))
        signature = Signature.read_from(reader, group)
        return cls(parent_ptr, requested, researcher_pk, signature, group)


@dataclass(frozen=True)
class ApprovalBlock(_Block):
    """Patient grant: signs the request under the forked block's key, with the
    (possibly narrowed) range the patient is actually willing to disclose.
    The signed message is ``range_message(request, granted_range)``."""

    KIND = 3
    parent_ptr: bytes
    granted_range: TimeRange
    signature: Signature
    group: GroupParams

    def canonical_bytes(self) -> bytes:
        return (
            enc.u8(self.KIND)
            + self.parent_ptr
            + self.granted_range.to_bytes()
            + self.signature.to_bytes(self.group)
        )

    @classmethod
    def read_from(cls, reader: enc.Reader, group: GroupParams) -> "ApprovalBlock":
        parent_ptr = reader.take(32)
        granted = TimeRange.read_from(reader)
        signature = Signature.read_from(reader, group)
        return cls(parent_ptr, granted, signature, group)


def _body_bytes(
    group: GroupParams, condition_bits: bytes, commitment: bytes, patient_pk: int, hospital_pk: int
) -> bytes:
    # Field order: condition bits, commitment, patient block key, hospital block key.
    return (
        enc.prefixed(condition_bits)
        + commitment
        + group.encode_element(patient_pk)
        + group.encode_element(hospital_pk)
    )


def range_message(block: PatientBlock | RequestBlock, window: TimeRange) -> bytes:
    """What a request or an approval signs: the block it answers, then a range.

    A request signs its parent patient block's bytes ‖ the requested range;
    an approval signs its request's bytes ‖ the granted range. Signers and
    verifiers take it as ``range_digest``.
    """
    return block.canonical_bytes() + window.to_bytes()


def range_digest(block: PatientBlock | RequestBlock, window: TimeRange) -> Prehashed:
    """``range_message`` prehashed: the block's kept hash state, copied and fed the range."""
    state = block._hashed.copy()
    state.update(window.to_bytes())
    return Prehashed(state.digest())


Block = PatientBlock | RequestBlock | ApprovalBlock

_BLOCK_KINDS = {kind.KIND: kind for kind in Block.__args__}


def decode_block(data: bytes, group: GroupParams) -> Block:
    """Parse canonical block bytes; raises FormatError on malformed input.

    Decoding is canonical (the block re-encodes to ``data``), so the
    block's hash state is the one fed with ``data``. ``data`` itself is not
    kept. A patient block's ring proofs keep their branch records, the bulk
    of its bytes, as the slices they were read from (``RingProof``), so it
    holds about its wire size and no per-branch object; a block that is
    asked for its bytes joins them with its other fields then.
    """
    kind = _BLOCK_KINDS.get(data[0] if data else None)
    if kind is None:
        raise enc.FormatError("missing or unknown block kind")
    block = enc.decode(data[1:], kind.read_from, group)
    block.__dict__["_hashed"] = digest_state(data)
    return block


# ---------------------------------------------------------------------------
# Patient-side secrets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSecrets:
    """Everything the patient must retain off-chain for one of their blocks."""

    block_id: bytes
    block_key: KeyPair
    sym_key: bytes
    nonce: bytes
    data_ptr: bytes
    data_digest: bytes
    state: bytes
    visit_time: int


@dataclass(frozen=True)
class PatientSecrets:
    """The patient's private, strictly time-ordered block history."""

    records: tuple[BlockSecrets, ...] = ()

    @property
    def last_state(self) -> bytes:
        return self.records[-1].state if self.records else GENESIS_STATE

    def with_record(self, record: BlockSecrets) -> "PatientSecrets":
        if self.records and record.visit_time <= self.records[-1].visit_time:
            raise ValueError("visit times must be strictly increasing")
        return PatientSecrets(self.records + (record,))

    @cached_property
    def positions(self) -> dict[bytes, int]:
        """Block id -> index of its first record, built on the first lookup."""
        positions: dict[bytes, int] = {}
        for i, record in enumerate(self.records):
            positions.setdefault(record.block_id, i)
        return positions

    def index_of(self, block_id: bytes) -> int:
        try:
            return self.positions[block_id]
        except KeyError:
            raise KeyError("block not in this patient's history") from None

    def find(self, block_id: bytes) -> BlockSecrets | None:
        i = self.positions.get(block_id)
        return None if i is None else self.records[i]

    def state_before(self, index: int) -> bytes:
        return self.records[index - 1].state if index > 0 else GENESIS_STATE

    def in_window(self, window: TimeRange) -> tuple[BlockSecrets, ...]:
        """The contiguous run of records whose visit time falls in the window."""
        return tuple(r for r in self.records if window.contains(r.visit_time))


@dataclass(frozen=True)
class PatientContext:
    identity: KeyPair
    index: int
    secrets: PatientSecrets


@dataclass(frozen=True)
class HospitalContext:
    identity: KeyPair
    index: int


# ---------------------------------------------------------------------------
# Off-chain encrypted data store
# ---------------------------------------------------------------------------


class OffChainStore(enc.Stored):
    """Pointer-addressed ciphertext store; never sees plaintext or keys."""

    MAGIC = b"PHRS"

    def __init__(self) -> None:
        self._items: dict[bytes, bytes] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, ptr: bytes) -> bool:
        return ptr in self._items

    def put_encrypted(
        self, data: bytes, key: bytes, rng: random.Random | None = None
    ) -> tuple[bytes, bytes]:
        """Encrypt and store; returns (fresh random pointer, digest of the plaintext)."""
        ciphertext = sym_encrypt(key, data, rng)
        ptr = _rng(rng).randbytes(PTR_SIZE)
        while ptr in self._items:  # 2^-256 per draw; retry rather than surface
            ptr = _rng(rng).randbytes(PTR_SIZE)
        self._items[ptr] = ciphertext
        return ptr, digest(data)

    def get(self, ptr: bytes) -> bytes:
        return self._items[ptr]

    def to_bytes(self) -> bytes:
        parts = [enc.u32(len(self._items))]
        for ptr in sorted(self._items):
            parts.append(ptr)
            parts.append(enc.prefixed(self._items[ptr]))
        return b"".join(parts)

    @classmethod
    def read_from(cls, reader: enc.Reader) -> "OffChainStore":
        """Entries must come in strictly increasing pointer order, as ``to_bytes`` writes them."""
        store = cls()
        last = b""
        for _ in range(reader.u32()):
            ptr = reader.take(PTR_SIZE)
            if ptr <= last:
                raise enc.FormatError("store pointers are not strictly increasing")
            store._items[ptr] = reader.prefixed()
            last = ptr
        return store


# ---------------------------------------------------------------------------
# Block creation
# ---------------------------------------------------------------------------


def create_patient_block(
    patient: PatientContext,
    hospital: HospitalContext,
    data: bytes,
    condition_bits: bytes,
    directories: Directories,
    store: OffChainStore,
    visit_time: int,
    rng: random.Random | None = None,
) -> tuple[PatientBlock, PatientSecrets]:
    """Run the full block-creation flow for one visit.

    Fresh block keys for both parties, encrypted data stored off-chain,
    chained commitment under a fresh nonce, anonymous credentials, and both
    signatures over the body. Returns the block (ready for consensus
    submission) and the patient's secrets extended with the new record.
    """
    group = directories.group
    _check_enrolled(directories.patients.keys, patient.index, patient.identity.public, "patient")
    _check_enrolled(directories.hospitals.keys, hospital.index, hospital.identity.public, "hospital")

    patient_block_kp = keygen(group, rng)
    hospital_block_kp = keygen(group, rng)

    # Both credentials are one stream of draws and one commitment column.
    patient_credential, hospital_credential = credentials_prove(group, (
        (directories.patients.keys, patient.index, patient.identity.secret, patient_block_kp),
        (directories.hospitals.keys, hospital.index, hospital.identity.secret, hospital_block_kp),
    ), rng)

    sym_key = new_sym_key(rng)
    data_ptr, data_digest = store.put_encrypted(data, sym_key, rng)
    state = chain_state(sym_key, data_ptr, data_digest, patient.secrets.last_state)
    nonce = _rng(rng).randbytes(NONCE_SIZE)
    commitment = state_commitment(state, nonce)

    body = _body_bytes(group, condition_bits, commitment, patient_block_kp.public, hospital_block_kp.public)
    block = PatientBlock(
        patient_credential=patient_credential,
        hospital_credential=hospital_credential,
        patient_sig=sign(group, patient_block_kp, body, rng),
        hospital_sig=sign(group, hospital_block_kp, body, rng),
        condition_bits=condition_bits,
        commitment=commitment,
        patient_block_pk=patient_block_kp.public,
        hospital_block_pk=hospital_block_kp.public,
        group=group,
    )

    record = BlockSecrets(
        block_id=block.block_id,
        block_key=patient_block_kp,
        sym_key=sym_key,
        nonce=nonce,
        data_ptr=data_ptr,
        data_digest=data_digest,
        state=state,
        visit_time=visit_time,
    )
    return block, patient.secrets.with_record(record)


def _check_enrolled(keys: tuple[int, ...], index: int, public: int, who: str) -> None:
    if not (0 <= index < len(keys)) or keys[index] != public:
        raise EnrollmentError(f"{who} identity key is not enrolled at index {index}")


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------


# One vote as stored: u32 miner, u8 malicious, u8 approve, f64 seconds.
VOTE_RECORD = struct.Struct(">IBBd")
# Byte offset of each flag within a record: the size of the fields before it.
_VOTE_MALICIOUS, _VOTE_APPROVE = (struct.calcsize(VOTE_RECORD.format[:i]) for i in (2, 3))


def pack_votes(malicious: bytes, valid: bool, seconds: Sequence[float]) -> bytes:
    """The ``VOTE_RECORD``s of one round, in miner order.

    ``malicious[i]`` is miner i's flag (0 or 1) and ``seconds[i]`` its
    virtual verification time. Honest miners approve iff the block is
    valid, malicious miners never.
    """
    approve = (valid and not flag for flag in malicious)
    return b"".join(map(VOTE_RECORD.pack, range(len(malicious)), malicious, approve, seconds))


def approval_threshold(n_miners: int) -> int:
    """Votes needed for approval: at least half the pool."""
    return math.ceil(n_miners / 2)


@dataclass(frozen=True)
class ConsensusResult(enc.Wire):
    """The record of one consensus round, stored beside its block on the chain.

    ``vote_records`` holds one 14-byte ``VOTE_RECORD`` per miner, in miner
    order: u32 miner, u8 malicious flag, u8 approve flag, f64 virtual
    seconds, big-endian. These are the bytes ``to_bytes`` writes after the
    header and the u32 vote count, so a round keeps no per-miner objects.

    ``vote_records`` is the constructor's field, and a decoded result keeps
    the records it read. A result made by ``_of_round`` keeps instead the
    function that makes them from the round's inputs, and calls it once, on
    the first read of ``vote_records``; ``to_bytes``, ``==``,
    ``hash``, ``dataclasses.replace`` and ``repr`` read it, and copies and
    pickles of an unread result carry the function, so every one of them
    sees the same bytes.
    """

    approved: bool
    approvals: int
    rejections: int
    simulated_time: float
    vote_records: bytes

    @classmethod
    def _of_round(
        cls, approved: bool, approvals: int, rejections: int, simulated_time: float, records: Callable[[], bytes]
    ) -> "ConsensusResult":
        """A result whose ``vote_records`` are ``records()``, made on first read.
        ``records`` must pickle for the result to pickle unread."""
        result = cls.__new__(cls)
        result.__dict__.update(
            approved=approved, approvals=approvals, rejections=rejections, simulated_time=simulated_time, _round=records
        )
        return result

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: the records of a result kept as its round.
        make = self.__dict__.get("_round")
        if name != "vote_records" or make is None:
            raise AttributeError(name)
        records = self.__dict__["vote_records"] = make()
        return records

    def to_bytes(self) -> bytes:
        return b"".join((
            enc.u8(self.approved),
            enc.u32(self.approvals),
            enc.u32(self.rejections),
            enc.f64(self.simulated_time),
            enc.u32(len(self.vote_records) // VOTE_RECORD.size),
            self.vote_records,
        ))

    @classmethod
    def read_from(cls, reader: enc.Reader) -> "ConsensusResult":
        """Decode a record; raises FormatError unless it re-encodes to the bytes
        read, it holds at least one vote, its counts match its votes, its
        ``approved`` byte is the verdict ``approval_threshold`` gives those
        counts, its simulated time is finite and every vote's seconds lie in
        [0, simulated time] (-0.0 included)."""
        approved = reader.u8()
        approvals = reader.u32()
        rejections = reader.u32()
        simulated = reader.f64()
        if not math.isfinite(simulated):
            raise enc.FormatError(f"simulated time {simulated} is not finite")
        n_votes = reader.u32()
        records = reader.take(n_votes * VOTE_RECORD.size)
        malicious_flags = records[_VOTE_MALICIOUS::VOTE_RECORD.size]
        approve_flags = records[_VOTE_APPROVE::VOTE_RECORD.size]
        if approved > 1 or (malicious_flags + approve_flags).translate(None, b"\x00\x01"):
            raise enc.FormatError("flag byte is neither 0 nor 1")
        approving = approve_flags.count(1)
        if approvals != approving:
            raise enc.FormatError(f"{approvals} approvals recorded, {approving} votes approve")
        if approvals + rejections != n_votes:
            raise enc.FormatError(f"{approvals} + {rejections} votes counted, {n_votes} recorded")
        if not n_votes:
            raise enc.FormatError("a round holds no vote")
        if approved != (approvals >= approval_threshold(n_votes)):
            raise enc.FormatError(f"approved byte {approved} disagrees with {approvals} of {n_votes} votes")
        # The comparison is false for a NaN, and -0.0 is not below 0.
        if not all(0 <= seconds <= simulated for *_, seconds in VOTE_RECORD.iter_unpack(records)):
            raise enc.FormatError(f"a vote's seconds are outside [0, {simulated}]")
        return cls(bool(approved), approvals, rejections, simulated, records)


@dataclass(frozen=True)
class ChainEntry:
    block: Block
    record: ConsensusResult


class Chain(enc.Stored):
    """Append-only block list; appending requires an approved consensus record.

    Beside the entries, ``append`` keeps three indexes, so a chain read
    from bytes or rebuilt by re-appending its entries has them too:

    - ``_index``: block id -> position;
    - ``_patients``: patient block id -> block, in chain order, and
      ``_by_condition``: per (vector length in bytes, condition bit), the
      ids of the patient blocks whose condition vector has that length and
      carries that bit (``registry.conditions_in``), in chain order;
    - ``_forks``: parent id -> positions of the request blocks that fork
      it, in chain order, whatever the parent's kind.

    A vector of another length never matches a mask (``registry.mask_matcher``),
    so a one-bit mask's (length, bit) list is its exact answer.
    """

    MAGIC = b"PHRC"

    def __init__(self, group: GroupParams):
        self.group = group
        self._entries: list[ChainEntry] = []
        self._index: dict[bytes, int] = {}
        self._patients: dict[bytes, PatientBlock] = {}
        self._by_condition: dict[tuple[int, int], list[bytes]] = {}
        self._forks: dict[bytes, list[int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, block: Block, record: ConsensusResult) -> None:
        if not record.approved:
            raise NotApprovedError("consensus record is not approved")
        block_id = block.block_id
        if block_id in self._index:
            raise ValueError("block already on chain")
        position = len(self._entries)
        self._index[block_id] = position
        self._entries.append(ChainEntry(block, record))
        if isinstance(block, PatientBlock):
            self._patients[block_id] = block
            size = len(block.condition_bits)
            for bit in conditions_in(block.condition_bits):
                self._by_condition.setdefault((size, bit), []).append(block_id)
        elif isinstance(block, RequestBlock):
            self._forks.setdefault(block.parent_ptr, []).append(position)

    def get(self, block_id: bytes) -> Block | None:
        pos = self._index.get(block_id)
        return self._entries[pos].block if pos is not None else None

    def entries(self) -> tuple[ChainEntry, ...]:
        return tuple(self._entries)

    def patient_blocks(self) -> tuple[PatientBlock, ...]:
        return tuple(self._patients.values())

    def matching(self, query_mask: bytes) -> list[bytes]:
        """Ids of the patient blocks whose condition bits cover the query
        mask (``registry.codes_match``), in chain order.

        A one-bit mask returns a copy of its (length, bit) list. A mask
        with more bits filters the rarest of its bits' lists, and a zero
        mask every patient block, through ``mask_matcher``.
        """
        size = len(query_mask)
        lists = [self._by_condition.get((size, bit), ()) for bit in conditions_in(query_mask)]
        if len(lists) == 1:
            return list(lists[0])
        matches = mask_matcher(query_mask)
        patients = self._patients
        return [
            block_id for block_id in min(lists, key=len, default=patients) if matches(patients[block_id].condition_bits)
        ]

    def forks_of(self, parent_ids) -> list[RequestBlock]:
        """The request blocks forking any of the given ids, in chain order.

        The ids forked are one set intersection with the per-parent index,
        which walks the smaller side when ``parent_ids`` is a set or a
        dict's keys.
        """
        forks = self._forks
        positions = sorted([pos for parent in forks.keys() & parent_ids for pos in forks[parent]])
        entries = self._entries
        return [entries[pos].block for pos in positions]

    def to_bytes(self) -> bytes:
        parts = [enc.prefixed(self.group.to_bytes()), enc.u32(len(self._entries))]
        for entry in self._entries:
            parts.append(enc.prefixed(entry.block.canonical_bytes()))
            parts.append(enc.prefixed(entry.record.to_bytes()))
        return b"".join(parts)

    @classmethod
    def read_from(cls, reader: enc.Reader) -> "Chain":
        group = GroupParams.from_bytes(reader.prefixed())
        chain = cls(group)
        for _ in range(reader.u32()):
            block = decode_block(reader.prefixed(), group)
            record = ConsensusResult.from_bytes(reader.prefixed())
            enc.build(chain.append, block, record)  # an unapproved record or a repeated block
        return chain
