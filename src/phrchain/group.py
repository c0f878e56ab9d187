"""Prime-order cyclic group arithmetic over a safe-prime modulus.

The reference instantiation works in the quadratic-residue subgroup of
Z_p* for the largest 256-bit safe prime p = 2q + 1, giving a prime group
order q of 255 bits and a canonical fixed-width byte encoding (32 bytes
per element and per scalar). Any other safe-prime triple (p = 2q + 1
with p and q prime, g generating the order-q subgroup) can be plugged in
through the same dataclass; tests use tiny groups to cross-check
arithmetic by brute force.

Every exponentiation and every membership test runs in one kernel: a
thin ``ctypes`` binding to the BIGNUM functions of libcrypto, the OpenSSL
library that ``hashlib`` already loads. ``exp`` is ``BN_mod_exp_mont``,
``exp2`` (a^x * b^y, the shape of every Schnorr equation) is
``BN_mod_exp2_mont``, and ``is_element`` is ``BN_kronecker``: because p
is a safe prime, the order-q subgroup is exactly the set of quadratic
residues mod p, so membership is a Jacobi symbol rather than an
exponentiation. Each modulus keeps a Montgomery context in a bounded
cache, each thread its own scratch BIGNUMs (ctypes releases the GIL
around every call), and every BIGNUM call's return code is checked: a
failure raises ``BignumError``, never a value. A public key's membership
verdict is kept in a bounded cache, since verifiers meet the same keys
again and again.

These parameters are sized for protocol simulation and transcript-format
work, not for production key material.
"""

from __future__ import annotations

import ctypes
import functools
import random
import threading
from dataclasses import dataclass

from . import encoding as enc

# Largest safe prime below 2**256: p = 2**256 - 36113, q = (p - 1) // 2.
_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF72EF
_Q = (_P - 1) // 2
_G = 4  # 2**2, a quadratic residue, hence a generator of the order-q subgroup

_SYSTEM_RNG = random.SystemRandom()


def _rng(rng: random.Random | None) -> random.Random:
    return _SYSTEM_RNG if rng is None else rng


# ---------------------------------------------------------------------------
# The libcrypto kernel
# ---------------------------------------------------------------------------

_LIBCRYPTO = "libcrypto.so.3"
try:
    import _hashlib  # noqa: F401  -- loads the libcrypto the kernel binds to

    _lib = ctypes.CDLL(_LIBCRYPTO)
except (ImportError, OSError) as exc:
    raise ImportError(
        f"phrchain computes in the group through {_LIBCRYPTO}, the OpenSSL library hashlib loads, "
        f"and could not load it: {exc}"
    ) from exc


class BignumError(RuntimeError):
    """A libcrypto BIGNUM call reported failure: a program or library fault, never a verdict."""


def _bind(name: str, restype, *argtypes, failed=None):
    """The libcrypto function ``name`` with its C signature. A call whose
    result makes ``failed`` true raises ``BignumError`` with OpenSSL's error code."""
    function = getattr(_lib, name)
    function.restype, function.argtypes = restype, argtypes

    def check(result, _function, _args):
        if failed(result):
            code = _ERR_get_error()
            _ERR_clear_error()
            raise BignumError(f"{name} failed (OpenSSL error {code:#x})")
        return result

    if failed is not None:
        function.errcheck = check
    return function


def _zero(result) -> bool:
    """The failure value of calls that return 1 or a pointer on success."""
    return not result


_ptr, _bytes, _int = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
_ERR_get_error = _bind("ERR_get_error", ctypes.c_ulong)
_ERR_clear_error = _bind("ERR_clear_error", None)
_BN_CTX_new = _bind("BN_CTX_new", _ptr, failed=_zero)
_BN_new = _bind("BN_new", _ptr, failed=_zero)
_BN_bin2bn = _bind("BN_bin2bn", _ptr, _bytes, _int, _ptr, failed=_zero)
_BN_bn2binpad = _bind("BN_bn2binpad", _int, _ptr, _bytes, _int, failed=lambda result: result < 0)
_BN_MONT_CTX_new = _bind("BN_MONT_CTX_new", _ptr, failed=_zero)
_BN_MONT_CTX_set = _bind("BN_MONT_CTX_set", _int, _ptr, _ptr, _ptr, failed=_zero)
_BN_mod_exp_mont = _bind("BN_mod_exp_mont", _int, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, failed=_zero)
_BN_mod_exp2_mont = _bind("BN_mod_exp2_mont", _int, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, failed=_zero)
_BN_kronecker = _bind("BN_kronecker", _int, _ptr, _ptr, _ptr, failed=lambda result: result == -2)
_BN_free = _bind("BN_free", None, _ptr)
_BN_CTX_free = _bind("BN_CTX_free", None, _ptr)
_BN_MONT_CTX_free = _bind("BN_MONT_CTX_free", None, _ptr)


class _Scratch:
    """One thread's BN_CTX, four operand BIGNUMs and a result BIGNUM.

    Freed with its thread. Each pointer is None (NULL, which the free
    functions ignore) until its allocation succeeds, and the free
    functions are bound as defaults so that they outlive module teardown.
    """

    def __init__(self) -> None:
        self.ctx, self.operands, self.result = None, [], None
        self.ctx = _BN_CTX_new()
        self.operands = [_BN_new() for _ in range(4)]
        self.result = _BN_new()

    def __del__(self, free=_BN_free, free_ctx=_BN_CTX_free) -> None:
        for number in (*self.operands, self.result):
            free(number)
        free_ctx(self.ctx)


class _Threads(threading.local):
    def __init__(self) -> None:
        self.scratch = _Scratch()


_THREADS = _Threads()


class _Montgomery:
    """A modulus as a BIGNUM, its Montgomery context and its byte size."""

    def __init__(self, modulus: int) -> None:
        self.size = (modulus.bit_length() + 7) // 8
        self.modulus = self.context = None
        self.modulus = _BN_bin2bn(modulus.to_bytes(self.size, "big"), self.size, None)
        self.context = _BN_MONT_CTX_new()
        _BN_MONT_CTX_set(self.context, self.modulus, _THREADS.scratch.ctx)

    def __del__(self, free=_BN_free, free_context=_BN_MONT_CTX_free) -> None:
        free_context(self.context)
        free(self.modulus)


@functools.lru_cache(maxsize=8)
def _montgomery(modulus: int) -> _Montgomery:
    return _Montgomery(modulus)


def _load(number, value: int) -> None:
    """Set a scratch BIGNUM to a non-negative int."""
    size = (value.bit_length() + 7) // 8
    _BN_bin2bn(value.to_bytes(size, "big"), size, number)


def _read(number, size: int) -> int:
    """A BIGNUM below 2**(8 * size) as an int."""
    buffer = ctypes.create_string_buffer(size)
    _BN_bn2binpad(number, buffer, size)
    return int.from_bytes(buffer.raw, "big")


def _mod_exp(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod an odd modulus > 1, for 0 <= base < modulus and exponent >= 0."""
    mont, scratch = _montgomery(modulus), _THREADS.scratch
    a, x = scratch.operands[:2]
    _load(a, base)
    _load(x, exponent)
    _BN_mod_exp_mont(scratch.result, a, x, mont.modulus, scratch.ctx, mont.context)
    return _read(scratch.result, mont.size)


def _mod_exp2(a: int, x: int, b: int, y: int, modulus: int) -> int:
    """a**x * b**y mod an odd modulus > 1, for bases in [1, modulus) and exponents >= 0."""
    mont, scratch = _montgomery(modulus), _THREADS.scratch
    for number, value in zip(scratch.operands, (a, x, b, y)):
        _load(number, value)
    _BN_mod_exp2_mont(scratch.result, *scratch.operands, mont.modulus, scratch.ctx, mont.context)
    return _read(scratch.result, mont.size)


def _kronecker(value: int, modulus: int) -> int:
    """The Jacobi symbol (value / modulus) for 0 <= value and an odd modulus."""
    mont, scratch = _montgomery(modulus), _THREADS.scratch
    _load(scratch.operands[0], value)
    return _BN_kronecker(scratch.operands[0], mont.modulus, scratch.ctx)


# Public keys whose membership verdict is kept: enough for two registries
# of 8192 keys, or for the ring keys and the verified keys of a smaller world.
_KEY_VERDICTS = 16384


@functools.lru_cache(maxsize=_KEY_VERDICTS)
def _key_verdict(group: "GroupParams", key: int) -> bool:
    return group.is_element(key)


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
        if _mod_exp(self.generator, self.order, self.modulus) != 1:
            raise ValueError("generator order does not divide the declared group order")

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
        """base**exponent, the exponent taken mod the order (so it may be
        negative), for any int base; exact for subgroup elements."""
        return _mod_exp(base % self.modulus, exponent % self.order, self.modulus)

    def exp2(self, a: int, x: int, b: int, y: int) -> int:
        """a**x * b**y mod the modulus, for any int bases and exponents >= 0.

        Equal to ``pow(a, x, p) * pow(b, y, p) % p``, with 0**0 = 1.
        ``BN_mod_exp2_mont`` answers 0 whenever a base is 0, so a zero base
        is settled here.
        """
        if x < 0 or y < 0:
            raise ValueError("exp2 takes non-negative exponents")
        modulus = self.modulus
        a, b = a % modulus, b % modulus
        if not a:
            return 0 if x else _mod_exp(b, y, modulus)
        if not b:
            return 0 if y else _mod_exp(a, x, modulus)
        return _mod_exp2(a, x, b, y, modulus)

    def key_is_element(self, key: int) -> bool:
        """``is_element`` for a public key, whose verdict is kept: verifiers
        meet the same keys again and again (an enrolled researcher's key
        signs every request; a fresh block key is tested by its possession
        proof, again by its block's signature, and a patient block key by
        every approval it signs). The verdicts sit in a cache keyed by
        (parameters, key), bounded at 16384 keys; a miss goes through
        ``is_element``.
        """
        return _key_verdict(self, key)

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
        return 1 < value < self.modulus and _kronecker(value, self.modulus) == 1

    def encode_element(self, value: int) -> bytes:
        return value.to_bytes(self.element_size, "big")

    def decode_element(self, data: bytes) -> int:
        """A value in [1, modulus), not tested for subgroup membership.

        Membership is tested where a value is used, because a test here
        costs one Jacobi symbol per element and a 4000/1000-key patient
        block decodes 5000 ring commitments. ``Registry.enroll`` tests the
        keys it admits. ``credential_verify``, ``schnorr_verify`` and
        ``verify_signature`` test their public keys in one shared gate,
        once per key (``key_is_element``). A Schnorr, signature or
        ring-branch commitment needs no test of its own: every one of them
        is checked by an exact equation, t == g^s * y^-c, and the right
        side is in the subgroup whenever y is.
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
