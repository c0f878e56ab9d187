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
library that ``hashlib`` already loads. ``exp`` is ``BN_mod_exp_mont``
and ``is_element`` is ``BN_kronecker``: because p is a safe prime, the
order-q subgroup is exactly the set of quadratic residues mod p, so
membership is a Jacobi symbol rather than an exponentiation.
``schnorr_commitments`` is the one home of the Schnorr equation's right
side, g^s * y^-c, a ``BN_mod_exp2_mont`` per value with the generator
pinned in a BIGNUM kept per (modulus, generator) beside the modulus's
Montgomery context, so a column looks up one cached object. It is a
column computed lazily: a ring proof's branches in turn, or the one value
of a signature, a Schnorr proof or a possession half, so a verifier that
stops at the first failing branch stops the kernel there too.

A column of at least ``_SPLIT`` values is split in half with one worker
process, forked on the first such column from a process with one thread
alive, on a machine of more than one CPU (``os.sched_getaffinity``). The
caller computes the head lazily and the worker the tail, sent over a
``multiprocessing`` pipe as pickled int lists, on a CPU other than the
caller's; values are yielded in column order, so the caller sees the same
column either way. Only public values cross to the worker: keys,
challenges and responses, which are a proof's fields or the simulated
branches of one. A column closed early cancels a tail not yet read, and a
worker that fails or dies is stopped and its tail computed by the caller.
The worker exits at EOF on its request pipe and is reaped at interpreter
exit; a child forked later closes its parent's pipes and forks a worker
of its own.

The functions are bound without ``argtypes`` and are handed ctypes
pointers, so a call converts nothing. Each modulus keeps a Montgomery
context in a bounded cache, each thread its own scratch BIGNUMs and
output buffers (ctypes releases the GIL around every call), and every
BIGNUM call's return code is checked where it is made: a failure raises
``BignumError`` naming the call, never a value. A public key's
membership verdict is kept in a bounded cache, since verifiers meet the
same keys again and again.

The same binding is the package's one path into libcrypto for symmetric
encryption too: ``_gcm_seal`` and ``_gcm_open`` are AES-256-GCM through
EVP, behind ``crypto.sym_encrypt`` and ``crypto.sym_decrypt``. The cipher
is fetched once; each thread's scratch holds an encrypt and a decrypt
context, each set to the cipher once, so a call sets only its key and
nonce, and writes into the thread's output buffer. Every EVP return code
is checked where the call is made, and raises ``BignumError`` the same way.

These parameters are sized for protocol simulation and transcript-format
work, not for production key material.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import os
import random
import signal
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Sequence

from . import encoding as enc

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

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
    """A libcrypto call reported failure: a program or library fault, never a verdict.

    Every call the binding makes raises it, named in the message: the
    BIGNUM calls of the group kernel and the EVP calls of AES-GCM alike.
    A GCM tag that does not match is not a failure of this kind: it is the
    decryption's verdict, and ``crypto.sym_decrypt`` raises
    ``DecryptionError`` for it.
    """


class _Pointer(ctypes.c_void_p):
    """A pointer libcrypto returned. A subclass of ``c_void_p`` stays a ctypes
    object (``c_void_p`` itself would become an int), so it goes back into
    libcrypto as a pointer with no conversion, and it is false when NULL."""


def _function(name: str, restype=ctypes.c_int):
    """libcrypto's ``name`` returning ``restype``, with no ``argtypes`` and no
    ``errcheck``: every argument is passed as a ctypes pointer (``_Pointer``,
    a string buffer, bytes or None), or as an int for a C ``int``, and every
    caller checks the result itself (``_fail``). ``_lib[name]`` builds a
    fresh function object, where ``getattr`` would hand out CDLL's shared one."""
    function = _lib[name]
    function.restype = restype
    return function


_ERR_get_error = _function("ERR_get_error", ctypes.c_ulong)
_ERR_clear_error = _function("ERR_clear_error", None)
_BN_CTX_new = _function("BN_CTX_new", _Pointer)
_BN_new = _function("BN_new", _Pointer)
_BN_bin2bn = _function("BN_bin2bn", _Pointer)
_BN_bn2binpad = _function("BN_bn2binpad")
_BN_MONT_CTX_new = _function("BN_MONT_CTX_new", _Pointer)
_BN_MONT_CTX_set = _function("BN_MONT_CTX_set")
_BN_mod_exp_mont = _function("BN_mod_exp_mont")
_BN_mod_exp2_mont = _function("BN_mod_exp2_mont")
_BN_kronecker = _function("BN_kronecker")
_BN_free = _function("BN_free", None)
_BN_CTX_free = _function("BN_CTX_free", None)
_BN_MONT_CTX_free = _function("BN_MONT_CTX_free", None)
_EVP_CIPHER_fetch = _function("EVP_CIPHER_fetch", _Pointer)
_EVP_CIPHER_CTX_new = _function("EVP_CIPHER_CTX_new", _Pointer)
_EVP_EncryptInit_ex = _function("EVP_EncryptInit_ex")
_EVP_EncryptUpdate = _function("EVP_EncryptUpdate")
_EVP_EncryptFinal_ex = _function("EVP_EncryptFinal_ex")
_EVP_DecryptInit_ex = _function("EVP_DecryptInit_ex")
_EVP_DecryptUpdate = _function("EVP_DecryptUpdate")
_EVP_DecryptFinal_ex = _function("EVP_DecryptFinal_ex")
_EVP_CIPHER_CTX_ctrl = _function("EVP_CIPHER_CTX_ctrl")
_EVP_CIPHER_CTX_free = _function("EVP_CIPHER_CTX_free", None)


def _fail(name: str) -> NoReturn:
    """Raise ``BignumError`` for the failed libcrypto call ``name``, with OpenSSL's error code."""
    code = _ERR_get_error()
    _ERR_clear_error()
    raise BignumError(f"{name} failed (OpenSSL error {code:#x})")


def _allocated(pointer: _Pointer, name: str) -> _Pointer:
    if not pointer:
        _fail(name)
    return pointer


def _load(number: _Pointer | None, value: int, size: int) -> _Pointer:
    """Set a BIGNUM (a new one when ``number`` is None) to a non-negative
    int, written at ``size`` bytes, or at its own length when it is wider."""
    try:
        data = value.to_bytes(size, "big")
    except OverflowError:
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
    number = _BN_bin2bn(data, len(data), number)
    if not number:
        _fail("BN_bin2bn")
    return number


def _read(number: _Pointer, buffer) -> int:
    """A BIGNUM below 2**(8 * len(buffer)) as an int, read through ``buffer``."""
    if _BN_bn2binpad(number, buffer, len(buffer)) < 0:
        _fail("BN_bn2binpad")
    return int.from_bytes(buffer.raw, "big")


_AES_256_GCM = _allocated(_EVP_CIPHER_fetch(None, b"AES-256-GCM", None), "EVP_CIPHER_fetch")
_GCM_NONCE_SIZE = 12  # the cipher's default IV length, so no call sets it
_GCM_TAG_SIZE = 16
_EVP_CTRL_GCM_GET_TAG = 0x10
_EVP_CTRL_GCM_SET_TAG = 0x11
# EVP takes every length as a C int.
_INT_MAX = 2**31 - 1
# An output buffer up to this size is kept for the thread's next call.
_KEPT_TEXT = 1 << 20


class _Scratch:
    """One thread's BN_CTX, three operand BIGNUMs, a result BIGNUM and one
    output buffer per byte size; and its AES-256-GCM encrypt and decrypt
    contexts, each set to the cipher once, the int its EVP calls write
    lengths to, and its output buffer for ciphertexts and plaintexts.

    Freed with its thread. Each pointer is None (NULL, which the free
    functions ignore) until its allocation succeeds, and the free
    functions are bound as defaults so that they outlive module teardown.
    Nothing is kept in them from one kernel call to the next, so calls
    that interleave in one thread (two commitment columns) cannot clash.
    """

    def __init__(self) -> None:
        self.ctx, self.operands, self.result, self.buffers = None, [], None, {}
        self.sealer = self.opener = None
        self.ctx = _allocated(_BN_CTX_new(), "BN_CTX_new")
        self.operands = [_allocated(_BN_new(), "BN_new") for _ in range(3)]
        self.result = _allocated(_BN_new(), "BN_new")
        self.sealer = _allocated(_EVP_CIPHER_CTX_new(), "EVP_CIPHER_CTX_new")
        if not _EVP_EncryptInit_ex(self.sealer, _AES_256_GCM, None, None, None):
            _fail("EVP_EncryptInit_ex")
        self.opener = _allocated(_EVP_CIPHER_CTX_new(), "EVP_CIPHER_CTX_new")
        if not _EVP_DecryptInit_ex(self.opener, _AES_256_GCM, None, None, None):
            _fail("EVP_DecryptInit_ex")
        self.length = ctypes.pointer(ctypes.c_int())
        self.text = ctypes.create_string_buffer(0)
        self.text_view = memoryview(self.text)

    def buffer(self, size: int):
        buffer = self.buffers.get(size)
        if buffer is None:
            buffer = self.buffers[size] = ctypes.create_string_buffer(size)
        return buffer

    def text_buffer(self, size: int):
        """A buffer of at least ``size`` bytes and a memoryview of it: the
        thread's own, grown to the longest text up to ``_KEPT_TEXT`` bytes,
        or a fresh one above that."""
        if size > len(self.text):
            buffer = ctypes.create_string_buffer(size)
            if size > _KEPT_TEXT:
                return buffer, memoryview(buffer)
            self.text, self.text_view = buffer, memoryview(buffer)
        return self.text, self.text_view

    def __del__(self, free=_BN_free, free_ctx=_BN_CTX_free, free_cipher=_EVP_CIPHER_CTX_free) -> None:
        for number in (*self.operands, self.result):
            free(number)
        free_ctx(self.ctx)
        free_cipher(self.sealer)
        free_cipher(self.opener)


class _Threads(threading.local):
    def __init__(self) -> None:
        self.scratch = _Scratch()


_THREADS = _Threads()


class _Montgomery:
    """A modulus as a BIGNUM, its Montgomery context and its byte size."""

    def __init__(self, modulus: int) -> None:
        self.size = (modulus.bit_length() + 7) // 8
        self.modulus = self.context = None
        self.modulus = _load(None, modulus, self.size)
        self.context = _allocated(_BN_MONT_CTX_new(), "BN_MONT_CTX_new")
        if not _BN_MONT_CTX_set(self.context, self.modulus, _THREADS.scratch.ctx):
            _fail("BN_MONT_CTX_set")

    def __del__(self, free=_BN_free, free_context=_BN_MONT_CTX_free) -> None:
        free_context(self.context)
        free(self.modulus)


@functools.lru_cache(maxsize=8)
def _montgomery(modulus: int) -> _Montgomery:
    return _Montgomery(modulus)


class _Pinned:
    """A generator in [0, modulus) as a BIGNUM, read by every thread and never
    written, and its modulus's Montgomery context, held for as long as it is."""

    def __init__(self, modulus: int, base: int) -> None:
        self.number = None
        self.modulus, self.exponent_modulus, self.mont = modulus, modulus - 1, _montgomery(modulus)
        self.number = _load(None, base, self.mont.size)

    def commitment(self, key: int, challenge: int, response: int) -> int:
        """base^response * key^((-challenge) mod (modulus - 1)) mod the modulus,
        for a response >= 0 and any int key and challenge (see
        ``GroupParams.schnorr_commitments``)."""
        modulus = self.modulus
        key, exponent = key % modulus, -challenge % self.exponent_modulus
        if not key:
            if exponent:
                return 0
            key = 1
        mont, scratch = self.mont, _THREADS.scratch
        s_number, y_number, e_number = scratch.operands
        size = mont.size
        _load(s_number, response, size)
        _load(y_number, key, size)
        _load(e_number, exponent, size)
        if not _BN_mod_exp2_mont(
            scratch.result, self.number, s_number, y_number, e_number, mont.modulus, scratch.ctx, mont.context
        ):
            _fail("BN_mod_exp2_mont")
        return _read(scratch.result, scratch.buffer(size))

    def __del__(self, free=_BN_free) -> None:
        free(self.number)


@functools.lru_cache(maxsize=8)
def _pinned(modulus: int, base: int) -> _Pinned:
    return _Pinned(modulus, base)


# ---------------------------------------------------------------------------
# The worker process for long columns
# ---------------------------------------------------------------------------

# A column of at least this many values is split in half between the caller
# and the worker. A split already pays from 32 values (BENCH_26.json), but
# the worker computes up to a run past the point where its column is closed.
# Shorter columns, the researcher workload's 16/8-key rings and the rings of
# up to 129 keys whose kernel calls the tests count among them, stay in one
# process, where the kernel stops exactly where the reader stops. At this
# bound a split saves about 4 ms.
_SPLIT = 192
# The worker looks for a cancel between runs of this many values.
_RUN = 32
# The CPU the calling thread runs on, from the C library.
_sched_getcpu = ctypes.CDLL(None).sched_getcpu


def _serve(requests: Connection, replies: Connection) -> NoReturn:
    """The worker's life: answer each tail it is sent, until EOF on ``requests``.

    A cancel (None) read between tails is one whose tail was answered
    before the cancel arrived. The worker never returns into its parent's
    code: it leaves through ``os._exit``, with status 0 at EOF.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # its parent decides when it ends
        while True:
            tail = requests.recv()
            if tail is not None:
                replies.send(_answer(requests, *tail))
    except EOFError:
        status = 0
    finally:
        os._exit(status)


def _answer(requests: Connection, cpu: int, modulus: int, base: int, keys, challenges, responses) -> list[int] | None:
    """A tail's values, computed on ``cpu``, or None if a cancel arrives first
    or a value cannot be computed: the caller then computes the tail, and
    raises the error itself. The caller sends nothing else while a tail is
    out, so whatever arrives during one is its cancel.

    The caller names a CPU other than its own. A worker woken by its
    caller's pipe write was otherwise often run on the caller's CPU, and a
    split column then took as long as one computed whole.
    """
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {cpu})
    commitment = _pinned(modulus, base).commitment
    values: list[int] = []
    for start in range(0, len(keys), _RUN):
        if requests.poll():
            requests.recv()  # the cancel, or EOFError at EOF
            return None
        stop = start + _RUN
        try:
            values += map(commitment, keys[start:stop], challenges[start:stop], responses[start:stop])
        except Exception:
            return None
    return values


class _Worker:
    """A forked process that computes the tails of long columns: its pid, the
    connection it is sent requests on and the one it replies on. A column
    holds ``lock`` while it has a tail out with the worker. A stopped worker
    has pid 0 and is never asked again."""

    def __init__(self) -> None:
        # Imported here, so that a process that never splits a column does
        # not carry multiprocessing (about 0.5 MiB of resident set).
        from multiprocessing.connection import Pipe

        requests, self.requests = Pipe(duplex=False)
        self.replies, replies = Pipe(duplex=False)
        pid = os.fork()
        if not pid:
            self.requests.close()
            self.replies.close()
            _serve(requests, replies)
        requests.close()
        replies.close()
        self.pid, self.lock = pid, threading.Lock()

    def ask(self, tail: tuple | None) -> bool:
        """Send a tail, or a cancel for None; False, with the worker stopped,
        if it cannot be sent whole."""
        sent = False
        try:
            if self.pid:
                self.requests.send(tail)
                sent = True
        except OSError:
            pass
        finally:
            if not sent:
                self.stop(kill=True)
        return sent

    def answer(self, count: int) -> list[int] | None:
        """The ``count`` values of the tail asked for, or None when they are
        not all there: the worker did not compute them, or it failed (it is
        then stopped)."""
        answered = False
        values = None
        try:
            if self.pid:
                values = self.replies.recv()
                answered = True
        except (OSError, EOFError):
            pass
        finally:
            if not answered:
                self.stop(kill=True)
        return values if isinstance(values, list) and len(values) == count else None

    def cancel(self) -> None:
        """Withdraw the tail asked for and discard its reply, whichever the worker sends."""
        if self.ask(None):
            self.answer(0)

    def stop(self, kill: bool = False) -> None:
        """Close the pipes (the worker exits at EOF), kill the worker if asked,
        reap it and take it out of the pool. In a child forked later, the
        worker is not the child's own: the child closes its copies of the
        pipes, so that the worker still sees EOF when its parent ends, and
        finds nothing to reap."""
        pid, self.pid = self.pid, 0
        if not pid:
            return
        self.requests.close()
        self.replies.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            if kill:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if _workers and self in _workers:
            _workers.remove(self)


# This process's pool: None until the first long column, then the one worker
# it forked, or no worker on a machine of one CPU or once the worker has
# been stopped. One worker is all that has been measured (BENCH_26.json, on
# two CPUs); more would each need a share of the column and a CPU of their own.
_workers: list[_Worker] | None = None


def _idle_worker() -> _Worker | None:
    """The worker, now held for the caller's column, or None if there is
    none or another column holds it. A process forks its worker on its
    first call made with one thread alive: a fork while another thread runs
    could copy a lock that thread holds into the worker."""
    global _workers
    if _workers is None:
        if threading.active_count() > 1:
            return None
        _workers = []
        if len(os.sched_getaffinity(0)) > 1:
            with contextlib.suppress(OSError):
                _workers.append(_Worker())
    return next((worker for worker in tuple(_workers) if worker.lock.acquire(blocking=False)), None)


def _shared_column(modulus: int, base: int, keys, challenges, responses) -> Iterator[int]:
    """``GroupParams.schnorr_commitments`` with its tail half sent to the idle
    worker: the head computed here as it is asked for, the tail read when
    the column reaches it, or computed here if there is no idle worker or it
    fails."""
    commitment = _pinned(modulus, base).commitment
    keys, challenges, responses = list(keys), list(challenges), list(responses)
    count = min(len(keys), len(challenges), len(responses))
    head = count // 2
    worker = _idle_worker()
    unread = False
    try:
        if worker:
            here = _sched_getcpu()
            cpu = min((cpu for cpu in os.sched_getaffinity(0) if cpu != here), default=here)
            unread = worker.ask((cpu, modulus, base, keys[head:count], challenges[head:count], responses[head:count]))
        yield from map(commitment, keys[:head], challenges[:head], responses[:head])
        values = None
        if unread:
            unread = False
            values = worker.answer(count - head)
        if values is None:
            values = map(commitment, keys[head:count], challenges[head:count], responses[head:count])
        yield from values
    finally:
        if unread:
            worker.cancel()
        if worker:
            worker.lock.release()


def _stop_workers() -> None:
    """Stop this process's worker; the next long column forks a new one.
    Run at interpreter exit, and in every child forked later."""
    global _workers
    workers, _workers = _workers or [], None
    for worker in workers:
        worker.stop()


atexit.register(_stop_workers)
os.register_at_fork(after_in_child=_stop_workers)


def _mod_exp(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod an odd modulus > 1, for 0 <= base < modulus and exponent >= 0."""
    mont, scratch = _montgomery(modulus), _THREADS.scratch
    a, x = scratch.operands[:2]
    _load(a, base, mont.size)
    _load(x, exponent, mont.size)
    if not _BN_mod_exp_mont(scratch.result, a, x, mont.modulus, scratch.ctx, mont.context):
        _fail("BN_mod_exp_mont")
    return _read(scratch.result, scratch.buffer(mont.size))


def _kronecker(value: int, modulus: int) -> int:
    """The Jacobi symbol (value / modulus) for 0 <= value < modulus and an odd modulus."""
    mont, scratch = _montgomery(modulus), _THREADS.scratch
    number = _load(scratch.operands[0], value, mont.size)
    symbol = _BN_kronecker(number, mont.modulus, scratch.ctx)
    if symbol == -2:
        _fail("BN_kronecker")
    return symbol


# GCM is a stream mode: an Update call writes as many bytes as it reads, and
# a Final call writes none, so neither call's written length is read back.


def _gcm_seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """nonce || ciphertext || tag: AES-256-GCM with no associated data, for a
    32-byte key and a 12-byte nonce, all three ``bytes``."""
    size = len(plaintext)
    if size > _INT_MAX:
        raise ValueError(f"AES-GCM takes at most {_INT_MAX} bytes of plaintext")
    scratch = _THREADS.scratch
    context, length = scratch.sealer, scratch.length
    buffer, view = scratch.text_buffer(size + _GCM_TAG_SIZE)
    if not _EVP_EncryptInit_ex(context, None, None, key, nonce):
        _fail("EVP_EncryptInit_ex")
    if not _EVP_EncryptUpdate(context, buffer, length, plaintext, size):
        _fail("EVP_EncryptUpdate")
    if not _EVP_EncryptFinal_ex(context, buffer, length):
        _fail("EVP_EncryptFinal_ex")
    if not _EVP_CIPHER_CTX_ctrl(context, _EVP_CTRL_GCM_GET_TAG, _GCM_TAG_SIZE, ctypes.byref(buffer, size)):
        _fail("EVP_CIPHER_CTX_ctrl")
    return nonce + view[: size + _GCM_TAG_SIZE].tobytes()


def _gcm_open(key: bytes, sealed: bytes) -> bytes | None:
    """The plaintext of a ``_gcm_seal`` output of at least 28 bytes under a
    32-byte key, both ``bytes``, or None when its tag does not match.

    Nothing of an unauthenticated plaintext is returned, and the error
    queue the failed tag check may leave is cleared.
    """
    size = len(sealed) - _GCM_NONCE_SIZE - _GCM_TAG_SIZE
    if size > _INT_MAX:
        raise ValueError(f"AES-GCM takes at most {_INT_MAX} bytes of ciphertext")
    scratch = _THREADS.scratch
    context, length = scratch.opener, scratch.length
    buffer, view = scratch.text_buffer(size)
    # The nonce is read from the first 12 bytes of the sealed text itself.
    if not _EVP_DecryptInit_ex(context, None, None, key, sealed):
        _fail("EVP_DecryptInit_ex")
    if not _EVP_CIPHER_CTX_ctrl(context, _EVP_CTRL_GCM_SET_TAG, _GCM_TAG_SIZE, sealed[-_GCM_TAG_SIZE:]):
        _fail("EVP_CIPHER_CTX_ctrl")
    if not _EVP_DecryptUpdate(context, buffer, length, sealed[_GCM_NONCE_SIZE:-_GCM_TAG_SIZE], size):
        _fail("EVP_DecryptUpdate")
    if _EVP_DecryptFinal_ex(context, buffer, length) <= 0:
        _ERR_clear_error()
        return None
    return view[:size].tobytes()


# Public keys whose membership verdict is kept: enough for two registries
# of 8192 keys, or for the ring keys and the verified keys of a smaller world.
_KEY_VERDICTS = 16384


@functools.lru_cache(maxsize=_KEY_VERDICTS)
def _key_verdict(group: "GroupParams", key: int) -> bool:
    """``is_element`` for a public key, whose verdict is kept: verifiers
    meet the same keys again and again (every ring key is tested by
    every ring proof over it; an enrolled researcher's key signs every
    request; a fresh block key is tested by its possession proof,
    again by its block's signature, and a patient block key by every
    approval it signs). The verdicts sit in a cache keyed by (parameters, key),
    bounded at 16384 keys; a miss goes through ``is_element``. A hit
    costs a lookup: the parameters' hash is taken once (``__hash__``).
    """
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

    def __hash__(self) -> int:
        # Kept, not generated: the dataclass's hash would hash the four fields,
        # the 256-bit ints among them, at every lookup of a key's verdict.
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.group_id, self.modulus, self.order, self.generator))

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

    def schnorr_commitments(
        self, keys: Sequence[int], challenges: Iterable[int], responses: Iterable[int]
    ) -> Iterator[int]:
        """Lazily, for each (key y, challenge c, response s >= 0), the commitment
        g^s * y^((-c) mod (p - 1)) that makes the Schnorr equation hold, for
        any int key and challenge: ``pow`` gives the same value.

        The exponent is reduced mod p - 1, not mod the order, so the value
        is exact for every invertible key, not only for subgroup elements.
        A key of 0 mod p is settled here, since the kernel answers 0
        whenever a base is 0: its power is 0, or 0^0 = 1 when its exponent
        is 0. Every other value is one ``BN_mod_exp2_mont``, the
        generator pinned in a BIGNUM kept per (modulus, generator), the
        operands written at the modulus's byte size. Each value is
        computed when it is asked for, in the scratch numbers of the thread
        that asks, so a verifier that stops at the first failing branch
        makes no further exponentiation. The column holds its pinned
        generator, which outlives the generator's eviction from its cache.

        With at least ``_SPLIT`` keys, the column reads its inputs into lists
        at its first value and sends its tail half to the worker process
        (see the module docstring). It yields the same values in the same
        order; a tail the column is closed before reaching is cancelled.
        """
        if len(keys) >= _SPLIT:
            return _shared_column(self.modulus, self.generator, keys, challenges, responses)
        return map(_pinned(self.modulus, self.generator).commitment, keys, challenges, responses)

    # The verdict cache itself, bound as a method, so that a kept verdict is
    # read with no Python frame in between (see ``_key_verdict``).
    key_is_element = _key_verdict

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

        Ring-branch commitments do not come through here: a ring proof
        keeps its branches as their wire records, and the same range rule
        is checked on their bytes (``crypto._BranchLayout``), with the same
        error. Membership is tested where a value is used, because a test
        here costs one Jacobi symbol per element and a 4000/1000-key patient
        block holds 5000 ring commitments. Every public key is gated, and
        its verdict kept (``key_is_element``): ``ring_verify`` and
        ``credential_verify`` test every ring key, and
        ``credential_verify``, ``schnorr_verify`` and ``verify_signature``
        test their own public keys. A Schnorr, signature or ring-branch
        commitment needs no test of its own: every one of them is checked
        by an exact equation, t == g^s * y^-c, and the right side is in the
        subgroup whenever y is.
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
