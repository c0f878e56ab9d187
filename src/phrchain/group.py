"""Prime-order cyclic group arithmetic over a safe-prime modulus.

The reference instantiation works in the quadratic-residue subgroup of
Z_p* for the largest 256-bit safe prime p = 2q + 1, giving a prime group
order q of 255 bits and a canonical fixed-width byte encoding (32 bytes
per element and per scalar). Any other safe-prime triple (p = 2q + 1
with p and q prime, g generating the order-q subgroup) can be plugged in
through the same dataclass; tests use tiny groups to cross-check
arithmetic by brute force.

Because p is a safe prime, the order-q subgroup is exactly the set of
quadratic residues mod p, so subgroup membership is a Jacobi-symbol test
rather than an exponentiation. Powers of the generator are read from a
fixed-base comb table built once per parameter triple on first use, and
products of many powers use a Pippenger bucket multi-exponentiation.
The same bucket loop can also fold each low window's buckets into one
product per exponent bit, the product of the bases whose exponent has
that bit set; since the Jacobi symbol is multiplicative, the symbols of
those products test many bases for membership at once. Keys raised to
many powers get a smaller comb of their own: a 16-entry Lim-Lee table
per key, built lazily on the key's first power and kept packed as bytes
in a bounded module-level cache. Ring provers read the tables of the
ring keys, and so does ring verification in rings of up to 128 keys,
which checks each branch equation on its own; every other Schnorr-shaped
verification (signatures, Schnorr proofs, the possession half of a
credential) reads its public key's. A public key's membership verdict is
kept in a cache of the same bound.

These parameters are sized for protocol simulation and transcript-format
work, not for production key material.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

from . import encoding as enc

# Largest safe prime below 2**256: p = 2**256 - 36113, q = (p - 1) // 2.
_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF72EF
_Q = (_P - 1) // 2
_G = 4  # 2**2, a quadratic residue, hence a generator of the order-q subgroup

_SYSTEM_RNG = random.SystemRandom()


def _rng(rng: random.Random | None) -> random.Random:
    return _SYSTEM_RNG if rng is None else rng


@functools.lru_cache(maxsize=8)
def _comb_table(modulus: int, order: int, generator: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds generator**(d * 256**i) for every byte value d."""
    rows = []
    base = generator
    for _ in range((order.bit_length() + 7) // 8):
        row = [1, base]
        for _ in range(254):
            row.append(row[-1] * base % modulus)
        rows.append(tuple(row))
        base = row[-1] * base % modulus
    return tuple(rows)


# Per-key comb tables cached at once: enough for two registries of 8192
# keys, or for the ring keys and the verified keys of a smaller world. A
# table is 16 packed elements (512 bytes in the default group), about
# 0.7 KiB with its cache entry, so a full cache holds about 11 MiB.
_KEY_TABLES = 16384
_HEX_DIGITS = "0123456789abcdef"


def _key_span(order: int) -> int:
    """Bits per slice when an exponent below order is cut into four slices."""
    return -(-order.bit_length() // 4)


@functools.lru_cache(maxsize=_KEY_TABLES)
def _key_comb_table(modulus: int, order: int, key: int) -> bytes:
    """Entry d (of 16) is the product of key**(2**(span*j)) over the set bits j of d.

    Packed as one little-endian integer of 16 fixed-width fields, so a
    cached table costs 16 * element_size bytes rather than 16 int objects.
    """
    span = _key_span(order)
    powers = [key]
    for _ in range(3):
        powers.append(pow(powers[-1], 1 << span, modulus))
    table = [1]
    for power in powers:
        table += [entry * power % modulus for entry in table]
    size = (modulus.bit_length() + 7) // 8
    return b"".join(entry.to_bytes(size, "little") for entry in table)


@functools.lru_cache(maxsize=_KEY_TABLES)
def _key_verdict(group: "GroupParams", key: int) -> bool:
    return group.is_element(key)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0.

    Binary reduction: strip factors of two (each flips the sign when
    n = 3 or 5 mod 8), then swap by quadratic reciprocity (a flip when both
    are 3 mod 4) and reduce.
    """
    a %= n
    sign = 1
    while a:
        if not a & 1:
            twos = (a & -a).bit_length() - 1
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):
                sign = -sign
        if a & n & 2:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _fold_bit_planes(buckets: Sequence[int], modulus: int) -> list[int]:
    """Entry b is the product of buckets[d] over the digits d with bit b set.

    The top half of the digits are those with the top bit set. Multiplying
    each of them into its partner in the bottom half keeps every lower bit,
    so the next bit folds half as many buckets: about 2 * len(buckets)
    multiplications for all log2(len(buckets)) bits.
    """
    planes = []
    while len(buckets) > 1:
        half = len(buckets) // 2
        low, high = buckets[:half], buckets[half:]
        top = 1
        for bucket in high:
            if bucket != 1:
                top = top * bucket % modulus
        planes.append(top)
        buckets = [a * b % modulus for a, b in zip(low, high)]
    return planes[::-1]


def _window_bits(n_bases: int, exponent_bits: int) -> int:
    """Pippenger window minimising digit additions plus bucket sums."""
    return min(
        range(1, 17),
        key=lambda c: -(-exponent_bits // c) * (n_bases + (2 << c)),
    )


@dataclass(frozen=True)
class GroupParams(enc.Wire):
    """The prime-order subgroup of Z_modulus* for a safe prime modulus = 2 * order + 1."""

    group_id: str
    modulus: int
    order: int
    generator: int

    def __post_init__(self) -> None:
        if self.modulus != 2 * self.order + 1:
            raise ValueError("modulus must be the safe prime 2 * order + 1")
        if not (1 < self.generator < self.modulus):
            raise ValueError("generator out of range")
        if pow(self.generator, self.order, self.modulus) != 1:
            raise ValueError("generator order does not divide the declared group order")

    @functools.cached_property
    def _comb(self) -> tuple[tuple[int, ...], ...]:
        # Built on the first power of the generator, not when parameters
        # are decoded: the table grows with the square of the modulus size.
        return _comb_table(self.modulus, self.order, self.generator)

    @classmethod
    def default(cls) -> "GroupParams":
        return cls(group_id="modp256-v1", modulus=_P, order=_Q, generator=_G)

    @functools.cached_property
    def element_size(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    @functools.cached_property
    def scalar_size(self) -> int:
        return (self.order.bit_length() + 7) // 8

    def exp(self, base: int, exponent: int) -> int:
        """base**exponent for a subgroup element; negative exponents allowed."""
        exponent %= self.order
        if base != self.generator:
            return pow(base, exponent, self.modulus)
        modulus = self.modulus
        result = 1
        for row, digit in zip(self._comb, exponent.to_bytes(len(self._comb), "little")):
            if digit:
                result = result * row[digit] % modulus
        return result

    def key_exp(self, key: int, exponent: int) -> int:
        """key**exponent for a subgroup element raised to many powers: a ring
        key, or a public key whose signatures and proofs are verified.

        Lim-Lee comb: the reduced exponent is cut into four slices of span
        bits, and bit b of every slice together picks one of the key's 16
        table entries. Reading the bits from the top, one exponentiation is
        span squarings and span multiplications, against about
        bits(order) squarings for ``pow``. The table is built on the key's
        first call and shared through a cache keyed by (modulus, order, key).
        Building it costs about one ``pow`` and a warm call about half of
        one, so a key used twice about breaks even. The caller vouches that
        the key is in the subgroup: a table is kept for whatever it is given.
        """
        exponent %= self.order
        modulus, width, span = self.modulus, 8 * self.element_size, _key_span(self.order)
        packed = int.from_bytes(_key_comb_table(modulus, self.order, key), "little")
        entry_mask = (1 << width) - 1
        entries = {digit: packed >> width * i & entry_mask for i, digit in enumerate(_HEX_DIGITS)}
        # Writing a slice in binary and reading it back as hex spreads its
        # bits four apart, so hex digit b of the sum below is the index for bit b.
        mask = (1 << span) - 1
        interleaved = sum(int(f"{exponent >> span * j & mask:b}", 16) << j for j in range(4))
        result = 1
        for digit in f"{interleaved:0{span}x}":
            result = result * result * entries[digit] % modulus
        return result

    def key_is_element(self, key: int) -> bool:
        """``is_element`` for a public key, whose verdict is kept: verifiers
        meet the same keys again and again (an enrolled researcher's key
        signs every request; a fresh block key is tested by its possession
        proof, again by its block's signature, and a patient block key by
        every approval it signs). The verdicts
        sit in a cache keyed by (parameters, key), with as many entries as
        the comb-table cache; a miss goes through ``is_element``.
        """
        return _key_verdict(self, key)

    def multi_exp(self, bases: Sequence[int], exponents: Sequence[int]) -> int:
        """Product of base**exponent mod the modulus, for non-negative exponents."""
        return self.multi_exp_planes(bases, exponents, 0)[0]

    def multi_exp_planes(
        self, bases: Sequence[int], exponents: Sequence[int], planes: int
    ) -> tuple[int, list[int]]:
        """``multi_exp``, and for each bit b < planes the product of the bases
        whose exponent has bit b set.

        Pippenger's bucket method: exponents are cut into c-bit windows,
        top window first. Within a window each base is multiplied into the
        bucket of its digit, and the buckets are summed as
        sum_d d * bucket[d] with two multiplications per bucket. Digits are
        taken one window at a time, so memory stays at 2**c buckets. A
        window below bit ``planes`` also folds its buckets into one product
        per bit (``_fold_bit_planes``), about 2 * 2**c more multiplications.
        """
        if len(bases) != len(exponents):
            raise ValueError("bases and exponents differ in length")
        if exponents and min(exponents) < 0:
            raise ValueError("multi_exp takes non-negative exponents")
        modulus = self.modulus
        bits = max(exponents, default=0).bit_length()
        c = _window_bits(len(bases), bits)
        mask = (1 << c) - 1
        result = 1
        plane_products = [1] * planes
        for shift in range((bits - 1) // c * c if bits else -1, -1, -c):
            result = pow(result, 1 << c, modulus)
            buckets = [1] * (mask + 1)
            for base, exponent in zip(bases, exponents):
                digit = (exponent >> shift) & mask
                if digit:
                    buckets[digit] = buckets[digit] * base % modulus
            if shift < planes:
                plane_products[shift : shift + c] = _fold_bit_planes(buckets, modulus)[: planes - shift]
            running = 1
            window = 1
            for digit in range(mask, 0, -1):
                bucket = buckets[digit]
                if bucket != 1:
                    running = running * bucket % modulus
                window = window * running % modulus
            result = result * window % modulus
        return result, plane_products

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def random_scalar(self, rng: random.Random | None = None) -> int:
        """Uniform nonzero scalar in [1, order)."""
        return _rng(rng).randrange(1, self.order)

    def is_element(self, value: int) -> bool:
        """True iff value is in the prime-order subgroup (identity excluded).

        The subgroup is the quadratic residues mod the safe prime modulus,
        so membership is the Jacobi symbol (value / modulus) being 1.
        """
        return 1 < value < self.modulus and _jacobi(value, self.modulus) == 1

    def is_residue(self, value: int) -> bool:
        """True iff value mod the modulus is in the subgroup, the identity
        included: a nonzero quadratic residue. Batched ring verification
        tests its bucket products with it, and a product may be the
        identity. The symbol is taken by ``is_element``, so ``_jacobi`` has
        one caller and a traced ``is_element`` counts every symbol."""
        value %= self.modulus
        return value == 1 or self.is_element(value)

    def encode_element(self, value: int) -> bytes:
        return value.to_bytes(self.element_size, "big")

    def decode_element(self, data: bytes) -> int:
        """A value in [1, modulus), not tested for subgroup membership.

        Membership is tested where a value is used, because a test here
        costs one Jacobi symbol per element: a 4000/1000-key patient block
        decodes 5000 ring commitments, and 5000 ``is_element`` calls take
        0.28-0.31 s on a 2-vCPU host where a 256-bit ``pow`` takes about
        0.2 ms. ``Registry.enroll`` tests the keys it admits.
        ``credential_verify``, ``schnorr_verify`` and ``verify_signature``
        test their public keys in one shared gate, once per key
        (``key_is_element``). A Schnorr, signature or ring-branch
        commitment outside the subgroup fails its equation, whose other two
        terms are in the subgroup; rings of up to 128 keys check each branch
        equation, so they need no test of their own. Larger rings batch
        their equations and test the commitments through the
        multi-exponentiation's buckets.
        """
        if len(data) != self.element_size:
            raise enc.FormatError(f"element encoding must be {self.element_size} bytes")
        value = int.from_bytes(data, "big")
        if not (1 <= value < self.modulus):
            raise enc.FormatError("element out of range")
        return value

    def encode_scalar(self, value: int) -> bytes:
        return value.to_bytes(self.scalar_size, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_size:
            raise enc.FormatError(f"scalar encoding must be {self.scalar_size} bytes")
        value = int.from_bytes(data, "big")
        if value >= self.order:
            raise enc.FormatError("scalar out of range")
        return value

    def to_bytes(self) -> bytes:
        return (
            enc.prefixed_str(self.group_id)
            + enc.prefixed_int(self.modulus)
            + enc.prefixed_int(self.order)
            + enc.prefixed_int(self.generator)
        )

    @classmethod
    def read_from(cls, reader: enc.Reader) -> "GroupParams":
        return enc.build(
            cls, reader.prefixed_str(), reader.prefixed_int(), reader.prefixed_int(), reader.prefixed_int()
        )
