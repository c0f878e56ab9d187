"""Researcher access flow: scan, fork, grant, disclose, verify.

A researcher scans the public condition bits, forks one matching block
into a request naming a visit-time window, and the patient answers with
an approval block (possibly narrowing the window) signed under the
forked block's key. The actual handover happens off-chain: the patient
sends a disclosure package with, per granted block, the symmetric key,
the data pointer, and the data digest, plus the chain state preceding
the first granted block and, for the last granted block only, its nonce
and identity. That is 3k + 2 items for k blocks: the terminal nonce and
block id travel as one item, since neither is usable without the other.

The researcher refolds the hidden chain states across the package and
compares the terminal commitment against the chain: any substitution,
omission, reordering, or truncation breaks the fold, and every block's
plaintext is checked against its digest after decryption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import encoding as enc
from .crypto import DecryptionError, KeyPair, digest, sign, sym_decrypt
from .group import GroupParams
from .ledger import (
    ApprovalBlock,
    Chain,
    NONCE_SIZE,
    OffChainStore,
    PatientBlock,
    PatientSecrets,
    RequestBlock,
    TimeRange,
    chain_state,
    range_digest,
    state_commitment,
)


class RangeError(ValueError):
    """Granted range is not contained in the requested range."""


class NonContiguousError(ValueError):
    """Selected blocks are not a contiguous run of the patient's history."""


def scan_blocks(chain: Chain, query_mask: bytes) -> list[bytes]:
    """Ids of the patient blocks whose condition bits cover the query mask, in chain order.

    Answered from the chain's (vector length, bit) index (``Chain.matching``):
    a one-bit mask is a copy of a kept id list, and a mask with more bits
    one ``codes_match`` per block carrying its rarest bit (per patient block
    for a zero mask), not one per block on the chain.
    """
    return chain.matching(query_mask)


def create_request_block(
    group: GroupParams,
    researcher_kp: KeyPair,
    parent: PatientBlock,
    requested_range: TimeRange,
    rng: random.Random | None = None,
) -> RequestBlock:
    """Fork a patient block into a signed access request."""
    return RequestBlock(
        parent_ptr=parent.block_id,
        requested_range=requested_range,
        researcher_pk=researcher_kp.public,
        signature=sign(group, researcher_kp, range_digest(parent, requested_range), rng),
        group=group,
    )


def pending_requests(chain: Chain, secrets: PatientSecrets) -> list[RequestBlock]:
    """Requests on chain that fork one of this patient's own blocks, in chain order.

    The chain's per-parent index meets the patient's kept id map
    (``PatientSecrets.positions``) in one set intersection: the cost grows
    with the smaller of the two and the requests found, not with the chain.
    """
    return chain.forks_of(secrets.positions.keys())


def create_approval_block(
    group: GroupParams,
    secrets: PatientSecrets,
    request: RequestBlock,
    granted_range: TimeRange,
    rng: random.Random | None = None,
) -> ApprovalBlock:
    """Grant a request, signing under the forked block's key.

    The granted range may narrow the requested one but never widen it.
    """
    if not request.requested_range.encloses(granted_range):
        raise RangeError("granted range must be contained in the requested range")
    record = secrets.find(request.parent_ptr)
    if record is None:
        raise KeyError("request does not fork a block owned by this patient")
    return ApprovalBlock(
        parent_ptr=request.block_id,
        granted_range=granted_range,
        signature=sign(group, record.block_key, range_digest(request, granted_range), rng),
        group=group,
    )


# ---------------------------------------------------------------------------
# Disclosure package
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisclosureEntry:
    """Per-block handover: symmetric key, data pointer, data digest."""

    sym_key: bytes
    data_ptr: bytes
    data_digest: bytes


@dataclass(frozen=True)
class DisclosurePackage(enc.Stored):
    """Off-chain bundle granting verifiable access to k >= 1 contiguous blocks."""

    MAGIC = b"PHRD"

    entries: tuple[DisclosureEntry, ...]
    prefix_state: bytes
    last_nonce: bytes
    last_block_id: bytes

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a disclosure must cover at least one block")

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def items(self) -> tuple[bytes, ...]:
        """The transmitted items, flattened: 3 per block, the prefix state,
        and the terminal nonce-and-id revelation as a single item."""
        flat: list[bytes] = []
        for entry in self.entries:
            flat.extend((entry.sym_key, entry.data_ptr, entry.data_digest))
        flat.append(self.prefix_state)
        flat.append(self.last_nonce + self.last_block_id)
        return tuple(flat)

    def to_bytes(self) -> bytes:
        return enc.u32(self.k) + b"".join(self.items)

    @classmethod
    def read_from(cls, reader: enc.Reader) -> "DisclosurePackage":
        flat = reader.take(96 * reader.u32())
        entries = tuple([
            DisclosureEntry(flat[i : i + 32], flat[i + 32 : i + 64], flat[i + 64 : i + 96])
            for i in range(0, len(flat), 96)
        ])
        return enc.build(cls, entries, reader.take(32), reader.take(NONCE_SIZE), reader.take(32))

    def describe(self) -> str:
        lines = [f"disclosure package: {self.k} blocks, {len(self.items)} items"]
        for i, entry in enumerate(self.entries):
            lines.append(f"  block {i}: ptr {entry.data_ptr.hex()[:16]} digest {entry.data_digest.hex()[:16]}")
        lines.append(f"  prefix state {self.prefix_state.hex()[:16]}")
        lines.append(f"  terminal block {self.last_block_id.hex()[:16]} nonce {self.last_nonce.hex()[:16]}")
        return "\n".join(lines)


def build_disclosure_package(secrets: PatientSecrets, block_ids) -> DisclosurePackage:
    """Assemble the handover for a contiguous run of the patient's blocks."""
    if not block_ids:
        raise ValueError("a disclosure must cover at least one block")
    indices = [secrets.index_of(block_id) for block_id in block_ids]
    first, last = indices[0], indices[-1]
    if indices != list(range(first, first + len(indices))):
        raise NonContiguousError("blocks must form a contiguous run in visit order")
    records = secrets.records[first : last + 1]
    return DisclosurePackage(
        entries=tuple(
            DisclosureEntry(r.sym_key, r.data_ptr, r.data_digest) for r in records
        ),
        prefix_state=secrets.state_before(first),
        last_nonce=records[-1].nonce,
        last_block_id=records[-1].block_id,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Researcher-side verdict on a disclosure package."""

    chain_ok: bool
    data_ok: tuple[bool, ...]
    failure_index: int | None

    @property
    def all_ok(self) -> bool:
        return self.chain_ok and all(self.data_ok)


def verify_disclosure(
    package: DisclosurePackage, chain: Chain, store: OffChainStore
) -> VerificationReport:
    """Refold the chain states and check every block's data against its digest.

    chain_ok requires the terminal commitment recomputed from the package to
    equal the on-chain commitment of the revealed last block. Never raises on
    a tampered package; failures land in the report.
    """
    chain_ok = False
    try:
        state = package.prefix_state
        for entry in package.entries:
            state = chain_state(entry.sym_key, entry.data_ptr, entry.data_digest, state)
        terminal = chain.get(package.last_block_id)
        if isinstance(terminal, PatientBlock):
            chain_ok = state_commitment(state, package.last_nonce) == terminal.commitment
    except ValueError:
        chain_ok = False

    data_ok = []
    for entry in package.entries:
        try:
            plaintext = sym_decrypt(entry.sym_key, store.get(entry.data_ptr))
            data_ok.append(digest(plaintext) == entry.data_digest)
        except (DecryptionError, KeyError, ValueError):
            data_ok.append(False)

    failure_index = next((i for i, ok in enumerate(data_ok) if not ok), None)
    return VerificationReport(chain_ok=chain_ok, data_ok=tuple(data_ok), failure_index=failure_index)
