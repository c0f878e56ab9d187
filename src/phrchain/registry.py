"""Enrollment registries and the public condition codebook.

A trusted third party is assumed to have vetted every participant;
enrollment here simply appends a verified public key to the ordered
list for its role. Key order is load-bearing: ring proofs commit to the
list digest, and a key's index is stable for the life of the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from . import encoding as enc
from .crypto import key_list_digest
from .group import GroupParams

ROLES = ("patient", "hospital", "researcher")
# Proper prefixes of a registry's keys kept (``Registry.prefix``): as many as
# the ring tables a process keeps (``group._RINGS``).
_PREFIXES = 4


class DuplicateKeyError(ValueError):
    """The public key is already enrolled."""


class UnknownConditionError(KeyError):
    """A condition name is not present in the codebook."""


@dataclass
class Registry(enc.Stored):
    """Ordered public-key registry for one role. Single-writer.

    Every key is a distinct prime-order subgroup element, checked at
    construction, at ``enroll`` and so at ``load``, through the key's kept
    verdict (``GroupParams.key_is_element``), which a ring's table over
    the registry's keys then reads instead of testing the key again. The
    key tuple and the digest are cached and rebuilt at most once per change;
    a prefix of the keys is one kept tuple per length (``prefix``).
    """

    MAGIC = b"PHRR"

    group: GroupParams
    role: str
    _keys: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        initial, self._keys = self._keys, []
        self._index: dict[int, int] = {}
        self._keys_cache: tuple[int, ...] | None = None
        self._digest_cache: bytes | None = None
        self._prefixes: dict[int, tuple[int, ...]] = {}
        for public in initial:
            self.enroll(public)

    @property
    def keys(self) -> tuple[int, ...]:
        if self._keys_cache is None:
            self._keys_cache = tuple(self._keys)
        return self._keys_cache

    def prefix(self, length: int) -> tuple[int, ...]:
        """The first ``length`` keys, or all of them when there are no more
        (``keys`` itself), as one tuple per length, kept for the last
        ``_PREFIXES`` lengths asked for: a ring table is found by its key
        tuple's identity (``GroupParams.ring_table``), so every proof
        checked over the same prefix meets one table. Keys are only
        appended, so a prefix holds for the life of the registry."""
        keys = self.keys
        if length >= len(keys):
            return keys
        prefix = self._prefixes.pop(length, None) or keys[:length]
        self._prefixes[length] = prefix
        if len(self._prefixes) > _PREFIXES:
            del self._prefixes[next(iter(self._prefixes))]
        return prefix

    @property
    def digest(self) -> bytes:
        if self._digest_cache is None:
            self._digest_cache = key_list_digest(self.group, self._keys)
        return self._digest_cache

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, public: int) -> bool:
        return public in self._index

    def enroll(self, public: int) -> int:
        """Append a verified public key; returns its stable index."""
        if not self.group.key_is_element(public):
            raise ValueError("public key is not a valid group element")
        if public in self._index:
            raise DuplicateKeyError(f"key already enrolled in {self.role} registry")
        self._index[public] = len(self._keys)
        self._keys.append(public)
        self._keys_cache = None
        self._digest_cache = None
        return len(self._keys) - 1

    def index_of(self, public: int) -> int:
        try:
            return self._index[public]
        except KeyError:
            raise ValueError(f"key not enrolled in {self.role} registry") from None

    def to_bytes(self) -> bytes:
        parts = [enc.prefixed(self.group.to_bytes()), enc.prefixed_str(self.role), enc.u32(len(self._keys))]
        parts.extend(self.group.encode_element(k) for k in self._keys)
        return b"".join(parts)

    @classmethod
    def read_from(cls, reader: enc.Reader) -> "Registry":
        group = GroupParams.from_bytes(reader.prefixed())
        role = reader.prefixed_str()
        keys = [group.decode_element(reader.take(group.element_size)) for _ in range(reader.u32())]
        return enc.build(cls, group, role, keys)

    def describe(self) -> str:
        lines = [f"{self.role} registry: {len(self._keys)} keys, digest {self.digest.hex()[:16]}"]
        for i, k in enumerate(self._keys):
            lines.append(f"  [{i:4d}] {self.group.encode_element(k).hex()[:32]}...")
        return "\n".join(lines)


@dataclass(frozen=True)
class Directories:
    """The three role registries every verifier consults."""

    patients: Registry
    hospitals: Registry
    researchers: Registry

    @property
    def group(self) -> GroupParams:
        return self.patients.group


def new_directories(group: GroupParams) -> Directories:
    return Directories(
        patients=Registry(group, "patient"),
        hospitals=Registry(group, "hospital"),
        researchers=Registry(group, "researcher"),
    )


@dataclass(frozen=True)
class ConditionCodebook(enc.Stored):
    """Stable-position condition names backing the public bit vector.

    Bit i covers lifetime_codes[i]; bit len(lifetime_codes) + j covers
    visit_codes[j]. Bit i is bit i of the vector read as a big-endian
    integer: ``encode`` writes that order, and ``mask_matcher`` and
    ``conditions_in`` read it. The codebook is public configuration shared by
    all parties, so positions must never be reordered once blocks exist.
    """

    MAGIC = b"PHRB"

    lifetime_codes: tuple[str, ...]
    visit_codes: tuple[str, ...]

    def __post_init__(self) -> None:
        names = self.lifetime_codes + self.visit_codes
        if len(set(names)) != len(names):
            raise ValueError("condition names must be unique across both lists")

    @classmethod
    def default(cls, lifetime: int = 128, visit: int = 128) -> "ConditionCodebook":
        return cls(
            lifetime_codes=tuple(f"lifetime-{i:03d}" for i in range(lifetime)),
            visit_codes=tuple(f"visit-{i:03d}" for i in range(visit)),
        )

    @property
    def n_bits(self) -> int:
        return len(self.lifetime_codes) + len(self.visit_codes)

    @property
    def n_bytes(self) -> int:
        return (self.n_bits + 7) // 8

    def encode(self, lifetime_set: Iterable[str], visit_set: Iterable[str]) -> bytes:
        """Bit vector with a 1 at each named condition's position."""
        value = 0
        for names, codes, offset in (
            (lifetime_set, self.lifetime_codes, 0),
            (visit_set, self.visit_codes, len(self.lifetime_codes)),
        ):
            for name in names:
                if name not in codes:
                    raise UnknownConditionError(name)
                value |= 1 << (offset + codes.index(name))
        return value.to_bytes(self.n_bytes, "big")

    def to_bytes(self) -> bytes:
        parts = [enc.u32(len(self.lifetime_codes))]
        parts.extend(enc.prefixed_str(n) for n in self.lifetime_codes)
        parts.append(enc.u32(len(self.visit_codes)))
        parts.extend(enc.prefixed_str(n) for n in self.visit_codes)
        return b"".join(parts)

    @classmethod
    def read_from(cls, reader: enc.Reader) -> "ConditionCodebook":
        lifetime = tuple(reader.prefixed_str() for _ in range(reader.u32()))
        visit = tuple(reader.prefixed_str() for _ in range(reader.u32()))
        return enc.build(cls, lifetime, visit)


def codes_match(bits: bytes, query_mask: bytes) -> bool:
    """True iff every condition set in the mask is also set in the vector."""
    return mask_matcher(query_mask)(bits)


def mask_matcher(query_mask: bytes) -> Callable[[bytes], bool]:
    """``codes_match`` against one mask, converted once for a scan's many vectors.

    A vector of another length than the mask never matches.
    """
    size, mask = len(query_mask), int.from_bytes(query_mask, "big")

    def matches(bits: bytes) -> bool:
        return len(bits) == size and int.from_bytes(bits, "big") & mask == mask

    return matches


def conditions_in(vector: bytes) -> Iterator[int]:
    """The positions of the conditions set in a vector, lowest first."""
    value = int.from_bytes(vector, "big")
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low
