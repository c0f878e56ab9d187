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
The commitment column is the one home of the Schnorr equation's right
side, g^s * y^-c, and it works on bytes: a prover hands it its simulated
branches' challenge and response bytes and gets back the commitments'
encodings (``schnorr_commitments``); a verifier hands it the records
t || c || s of its ring proofs' branches and gets back the index of a
failing record, or None (``schnorr_failure``); the one record of a
signature, a Schnorr proof or a possession half is the column's kernel
run once (``_Pinned.run``). Each value is one
``BN_mod_exp2_mont`` of the generator, pinned in a BIGNUM kept per
(modulus, generator) beside the modulus's Montgomery context, and of the
key's inverse y^-1 mod p, a BIGNUM kept in the key's entry beside its
membership verdict, so the challenge is the exponent as it stands; c and
s are read into BIGNUMs from their bytes, and the value is written to,
or compared with, bytes. A verifier's
column stops at the first record that fails, the kernel with it.

A column runs over an ordered list of segments, each a ring table and
the position it skips (``_Column``): a prover's column is each ring it
proves over without its witness position, and a verifier's the rings of
the proofs it checks, so a patient block's two credentials are one column
to prove and one to check. A ring table (``_Ring``,
``GroupParams.ring_table``) is a ring resolved once, at its first use, and
kept, the last ``_RINGS``: it holds the keys' entries by strong
reference, one membership verdict for the whole ring, which a verifier's
gate reads instead of testing each key, and the keys' encoding and its
digest, which is the ring's digest in a credential's joint context and
the table's name to the worker. A kept table is found by the identity of
its key tuple, as a registry hands it out (all its keys, or one kept
tuple per prefix length), before any key is read; any other ring's table
is made from its keys, whose entries the per-key cache mostly holds
already. A table prepares the inverses of its keys that have none yet
when it is made, all together, by Montgomery's trick: one
``BN_mod_inverse`` of their product and two multiplications a key
(``_prepare``); so a column reads its operands and prepares nothing. A
one-record check hands the kernel the entry its gate looked up, prepared
first if it is not, with no table.

A column of at least ``_SPLIT`` values is shared with one worker
process, forked on the first such column from a process with one thread
alive, on a machine of more than one CPU (``os.sched_getaffinity``).
Caller and worker speak over two ``os.pipe``s, each asked to hold
``_PIPE_BYTES``, in frames: a length (``_FRAME``), then the message's
bytes, so a process that shares a column loads no ``multiprocessing``
and no ``pickle``. The worker is sent the column's header, packed with
``struct`` (``_HEADER``, ``_SEGMENT``) and closed by the group's bytes,
which names each segment's table and says whether its keys follow (the
worker keeps the last ``_RINGS`` tables by name, and the caller mirrors
their names and groups), then all the keys of each
table the worker does not keep, then the records: a prover's as its
draws make them, a verifier's as its proofs hold them, with no copy;
keys and records go in messages of at most ``_CHUNK`` records' bytes.
A message is written only whole and without waiting, and only when it
leaves at most three quarters of the pipe's size unread; one that does
not is sent at the caller's next chance, so a worker that reads slowly
gets its messages late, one that is stopped is never waited for, and one
that cannot be written to is killed. The worker works forward from the head over what has arrived, on
a CPU other than the caller's, in runs of ``_RUN`` values, sending each
run's commitments or verdict back as it is done, and waits when it has
caught up. So it starts while the prover is still drawing, a simulated
branch depending on its own draws alone, and while the verifier is still
hashing its proofs' contexts. Once its records are all in, the
caller works backward from the tail and reads the replies between its
runs; the column is done where the two meet, wherever their speeds put
them. So the caller covers whatever the worker has not: all of it when
the worker is slow or stopped, or dies. A failing record found on either
side ends the column, and a column that ends, its draws raising
included, sends the worker its stop, an empty message it can read at any
point of the stream, without waiting for the run in flight; a worker
found then to have exited is reaped, and one still exiting by a later
column. Every request is numbered, and the next column drops the replies
to an earlier one. Both sides poll their pipe through ``select.poll``.
Only public bytes cross to the worker: keys, table names, challenges and
responses, which are a proof's fields or the simulated branches of one,
and the positions a prover skips, never a witness branch, a nonce or a
secret. The worker exits at EOF on its request pipe and is reaped at
interpreter exit; a child forked later closes its parent's pipes and
forks a worker of its own.

The functions are bound without ``argtypes`` and are handed ctypes
pointers, so a call converts nothing. Each modulus keeps a Montgomery
context in a bounded cache, each thread its own scratch BIGNUMs and
output buffers (ctypes releases the GIL around every call), and every
BIGNUM call's return code is checked where it is made: a failure raises
``BignumError`` naming the call, never a value. A public key's entry,
its membership verdict and its prepared inverse, is kept in a bounded
cache, since verifiers meet the same keys again and again, and in the
table of every kept ring it is in; the worker keeps entries of its own,
which hold the inverse alone, since it gates nothing, and its own copy
of each group, found by the group's bytes.

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
import collections
import contextlib
import ctypes
import fcntl
import functools
import gc
import hashlib
import itertools
import os
import random
import signal
import struct
import termios
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn, Sequence

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
_BN_mod_inverse = _function("BN_mod_inverse", _Pointer)
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
    """One thread's BN_CTX, three operand BIGNUMs, a result BIGNUM, a box
    that hands a kept BIGNUM's address to libcrypto as a pointer (``box``)
    and one output buffer per byte size; and its AES-256-GCM encrypt and decrypt
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
        self.box = _Pointer()
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
        self.modulus, self.base, self.mont = modulus, base, _montgomery(modulus)
        self.number = _load(None, base, self.mont.size)

    def run(
        self, group: "GroupParams", entries: Iterable["_Key"], records: bytes, at: int, start: int, width: int,
        out: bytearray | None,
    ) -> int | None:
        """Values ``start``, ``start + 1``, ... of a column, one per key's
        kept entry of ``entries`` (see ``GroupParams.schnorr_commitments``),
        in the calling thread.

        The run's records are the ``width`` bytes each from byte ``at`` of
        ``records`` on, one per value, and end in its challenge and
        response. A record of more than those two scalars starts with a
        commitment, and the run returns the index of the first one that
        differs from its value, or None; otherwise value i is written to
        ``out`` at ``i * element_size``. A key's operand is read from its
        entry, which is prepared before the run (``_prepare``).
        """
        mont, scratch, scalar = self.mont, _THREADS.scratch, group.scalar_size
        size = mont.size
        challenge_number, response_number = scratch.operands[:2]
        result, ctx, box, buffer = scratch.result, scratch.ctx, scratch.box, scratch.buffer(size)
        base, modulus, context = self.number, mont.modulus, mont.context
        bin2bn, exp2, bn2binpad = _BN_bin2bn, _BN_mod_exp2_mont, _BN_bn2binpad
        checked = width - 2 * scalar  # the commitment's width, 0 in a column that computes them
        at += checked
        for i, entry in zip(itertools.count(start), entries):
            inverse = entry.inverse
            challenge, response = records[at : at + scalar], records[at + scalar : at + 2 * scalar]
            if inverse:
                box.value = inverse
                if not bin2bn(challenge, scalar, challenge_number) or not bin2bn(response, scalar, response_number):
                    _fail("BN_bin2bn")
                if not exp2(result, base, response_number, box, challenge_number, modulus, ctx, context):
                    _fail("BN_mod_exp2_mont")
                if bn2binpad(result, buffer, size) < 0:
                    _fail("BN_bn2binpad")
                value = buffer.raw
            else:
                # A key of 0 mod p: its power is 0, or 0^0 = 1 when the
                # exponent -c is 0 mod p - 1, and the value is then g^s.
                value = 0
                if not int.from_bytes(challenge, "big") % (self.modulus - 1):
                    value = _mod_exp(self.base, int.from_bytes(response, "big"), self.modulus)
                value = value.to_bytes(size)
            if checked:
                if value != records[at - checked : at]:
                    return i
            else:
                out[i * size : (i + 1) * size] = value
            at += width
        return None

    def __del__(self, free=_BN_free) -> None:
        free(self.number)


@functools.lru_cache(maxsize=8)
def _pinned(modulus: int, base: int) -> _Pinned:
    return _Pinned(modulus, base)


class _Column:
    """What the caller and the worker both compute a column from: its group,
    the generator pinned for it, its segments and their pieces, its number
    of values, the width of its records, and the buffer its values go to,
    or None for a column of commitments to check.

    A column runs over an ordered list of segments, each a ring table and
    the ring position it skips (the ring's length when it skips none). A
    segment's values are its ring's keys in order, the skipped one left
    out, and each segment's values follow the last one's: so a prover's
    column is each of its rings without its witness position, whose key
    takes no value and whose record is not in the column, and a verifier's
    is the rings of the proofs it checks. A piece is a run of keys with no
    gap: (its first value, its end, its ring, the key index of value v
    less v).
    """

    __slots__ = ("group", "pinned", "segments", "pieces", "count", "width", "out")

    def __init__(self, group: "GroupParams", segments: Iterable[tuple["_Ring", int]], width: int) -> None:
        self.group, self.segments, self.width = group, tuple(segments), width
        self.pinned = _pinned(group.modulus, group.generator)
        pieces, count = [], 0
        for ring, skip in self.segments:
            length = len(ring.keys)
            if not 0 <= skip <= length:
                raise IndexError(f"position {skip} outside a ring of {length}")
            for low, high in ((0, skip), (skip + 1, length)):
                if low < high:
                    pieces.append((count, count + high - low, ring, low - count))
                    count += high - low
        self.pieces, self.count = tuple(pieces), count
        self.out = bytearray(count * group.element_size) if width == 2 * group.scalar_size else None

    def values(self, records: bytes, first: int, low: int, high: int) -> int | None:
        """Values ``low`` to ``high - 1`` (``_Pinned.run``), whose records are
        in ``records``, which starts at the record of value ``first``."""
        width = self.width
        at = (low - first) * width
        for start, end, ring, offset in self.pieces:
            if low >= end:
                continue
            stop = min(high, end)
            entries = ring.entries[low + offset : stop + offset]
            failed = self.pinned.run(self.group, entries, records, at, low, width, self.out)
            if failed is not None or stop == high:
                return failed
            at, low = at + (stop - low) * width, stop
        return None

    def compute(self, chunks: Iterable[bytes]) -> int | None:
        """The column, its records read from ``chunks`` as they come, each
        chunk whole records: shared with the idle worker when it has at
        least ``_SPLIT`` values (``_Worker.share``), else computed here,
        chunk by chunk, once its records are all in."""
        worker = None if self.count < _SPLIT else _idle_worker()
        if worker is not None:
            try:
                return worker.share(self, chunks)
            finally:
                worker.lock.release()
        for first, records in list(self.stream(chunks)):
            failed = self.values(records, first, first, first + len(records) // self.width)
            if failed is not None:
                return failed
        return None

    def stream(self, chunks: Iterable[bytes]) -> Iterator[tuple[int, bytes]]:
        """The chunks that hold records, each with the index of its first
        value, as they come; ValueError unless they are whole records, the
        column's count of them."""
        first, width = 0, self.width
        for chunk in chunks:
            count, left = divmod(len(chunk), width)
            if left or first + count > self.count:
                break
            if count:
                yield first, chunk
                first += count
        else:
            if first == self.count:
                return
        raise ValueError(f"a column of {self.count} values takes {self.count * width} bytes of records")


# ---------------------------------------------------------------------------
# The worker process for long columns
# ---------------------------------------------------------------------------

# A column of at least this many values is shared between the caller and the
# worker. A split already pays from 32 values (BENCH_26.json), but the worker
# computes up to a run past the point where its column ends. Shorter columns,
# the researcher workload's 16/8-key blocks (a column of 22 values to prove
# one, of 24 to check it) and the rings of up to 129 keys whose kernel calls
# the tests count among them, stay in one process, where the kernel stops
# exactly where the column does. At this bound a split saves about 4 ms.
_SPLIT = 192
# The worker computes a column in runs of this many values, and looks for its
# stop between runs; the caller reads the worker's replies between its own.
_RUN = 32
# A prover's draws reach the worker in chunks of this many records: the
# worker starts on the head once the first chunk is drawn.
_CHUNK = 128
# Ring tables kept: the caller's cache (``GroupParams.ring_table``), the
# worker's tables, and the caller's mirror of their names and groups.
_RINGS = 4
# Each pipe's size asked for (F_SETPIPE_SZ): the most a process may ask for
# without privileges, by default. A pipe that cannot be given it keeps the
# size it has.
_PIPE_BYTES = 1 << 20
# Every message on either pipe is a frame: its length, then its bytes.
_FRAME = struct.Struct(">I")
# A column's header: its number, the CPU the worker is to run on, the width of
# its records and its number of segments; then each segment, then the bytes of
# its group (``GroupParams.to_bytes``).
_HEADER = struct.Struct(">QIII")
# A segment of a header: its table's name, the position it skips, its number
# of keys, and whether they follow.
_SEGMENT = struct.Struct(">32sII?")
# A worker's reply: the column's number, the first and end index of the run,
# and the index of a failing commitment in it, or -1; a prover's values follow.
_REPLY = struct.Struct(">QIIi")
# The CPU the calling thread runs on, from the C library.
_sched_getcpu = ctypes.CDLL(None).sched_getcpu


def _receive(pipe: int) -> bytes:
    """The next frame's bytes from ``pipe``, waiting for all of them: EOFError at the pipe's end."""
    return _take(pipe, _FRAME.unpack(_take(pipe, _FRAME.size))[0])


def _take(pipe: int, size: int) -> bytes:
    """``size`` bytes from ``pipe``, read as they come: EOFError at its end
    (a pipe whose writer is blocked on a full pipe can hand a frame over in
    parts)."""
    data = b""
    while len(data) < size:
        more = os.read(pipe, size - len(data))
        if not more:
            raise EOFError
        data += more
    return data


def _serve(requests: int, replies: int) -> NoReturn:
    """The worker's life: answer each column it is sent, until EOF on ``requests``.

    Every request is a column's header, and each column reads its own
    messages up to and including its stop. The worker never returns into
    its parent's code: it leaves through ``os._exit``, with status 0 at EOF.
    """
    import select  # loaded by the parent, before the fork

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # its parent decides when it ends
        # The objects it was forked with are its parent's: a collection that
        # walked them would copy their pages and stall the worker.
        gc.freeze()
        waiting = select.poll()
        waiting.register(requests, select.POLLIN)
        rings: dict[bytes, _Ring] = {}
        while True:
            _answer(requests, replies, waiting.poll, rings, _receive(requests))
    except EOFError:
        os._exit(0)
    finally:  # any other way out
        os._exit(1)


def _answer(requests: int, replies: int, waiting, rings: dict, header: bytes) -> None:
    """Compute a column forward from its head, on ``cpu``, one run at a time
    over the records that have arrived, each run's reply sent as it is done
    (``_REPLY``), and wait for more records when it has caught up.

    The header (``_HEADER``) names the column, the CPU to run on and the
    width of the records, and each segment of the column (``_SEGMENT``):
    its table's name, the position it skips, its number of keys and whether
    its keys follow; its group's bytes close it (``_group_of_bytes``). The
    table is the one kept under its name when its keys do not follow; else
    it is made from the bytes of its keys, which follow the header in
    messages of any size (``_ring_of_bytes``), and kept once they are all
    in, segment after segment. The records come in chunks, and the column's stop, an empty
    message, can come at any point: before a table's keys are all in (the
    table is then not kept), before a chunk the worker waits for, or
    between runs, when ``waiting`` finds a message. The worker leaves the
    column at its stop, and otherwise reads on to it: after its last value,
    after a failing commitment, and after a value it cannot compute, which
    the caller then reaches and raises itself.

    The caller names a CPU other than its own. A worker woken by its
    caller's pipe write was otherwise often run on the caller's CPU, and a
    split column then took as long as one computed whole.
    """
    column, cpu, width, count = _HEADER.unpack_from(header)
    at = _HEADER.size + count * _SEGMENT.size  # where the group's bytes start
    group = _group_of_bytes(header[at:])
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {cpu})
    tables = []
    for name, skip, length, keyed in _SEGMENT.iter_unpack(header[_HEADER.size : at]):
        data = []
        while keyed and sum(map(len, data)) < length * group.element_size:
            data.append(_receive(requests))
            if not data[-1]:
                return
        tables.append((_use(rings, name, _ring_of_bytes(group, b"".join(data)) if keyed else None), skip))
    work, size = _Column(group, tables, width), group.element_size
    arrived = collections.deque()
    records, first, end, done = b"", 0, 0, 0  # the chunk in hand, its first value, its end, the values done
    while done < work.count:
        if done == end and not arrived or waiting(0):
            message = _receive(requests)
            if not message:
                return
            arrived.append(message)
        elif done == end:
            records, first = arrived.popleft(), done
            end = first + len(records) // width
        else:
            high = min(done + _RUN, end)
            try:
                failed = work.values(records, first, done, high)
            except BignumError:
                break
            values = b"" if work.out is None else work.out[done * size : high * size]
            reply = _REPLY.pack(column, done, high, -1 if failed is None else failed) + values
            os.write(replies, _FRAME.pack(len(reply)) + reply)  # a blocking write: written whole
            if failed is not None:
                break
            done = high
    while _receive(requests):
        pass


def _use(kept: dict, name: bytes, value=None):
    """The value kept under ``name`` in ``kept`` (``value`` itself, kept
    under it, when given), now the most recently used; past ``_RINGS``
    names the least recently used is dropped. The worker keeps its ring
    tables so, under their names, and the caller its mirror of them, each
    table's group under its name, in the same order."""
    kept_value = kept.pop(name, None)
    kept[name] = value = kept_value if value is None else value
    if len(kept) > _RINGS:
        del kept[next(iter(kept))]
    return value


def _key_bytes(group: "GroupParams", keys: Sequence[int]) -> bytes:
    """The keys at the element size, each reduced mod p if it does not fit:
    a key's values depend on it mod p alone."""
    widths = itertools.repeat(group.element_size)
    try:
        return b"".join(map(int.to_bytes, keys, widths))
    except OverflowError:
        return b"".join(map(int.to_bytes, (key % group.modulus for key in keys), widths))


def _ring_of_bytes(group: "GroupParams", data: bytes) -> "_Ring":
    """The worker's table of a ring: the keys whose bytes it was sent, with
    their operand entries (``_operand_entry``), those not yet prepared
    prepared together as the table is made: the worker computes values and
    gates nothing, so it reads no verdict."""
    size = group.element_size
    keys = tuple(int.from_bytes(data[at : at + size]) for at in range(0, len(data), size))
    return _Ring(group, keys, tuple(_operand_entry(group, key) for key in keys))


class _Worker:
    """A forked process that shares long columns with their callers: its
    pid, the pipe it is sent requests on, never blocking, the most bytes
    that may be left unread there (``budget``), the pipe it replies on and
    a poll of that one (each pipe an ``os.pipe`` file descriptor carrying
    frames, ``_FRAME``), the number of the last column it was sent, and
    the mirror of its ring tables (``rings``): the group of each, under the
    table's name and in the worker's order. A column holds ``lock`` while
    it shares the worker. A stopped worker has pid 0 and is never asked,
    read from or written to again: its pipes are closed, and their numbers
    may belong to other files by then."""

    def __init__(self) -> None:
        import select  # here, so that a process that never splits a column does not load it

        requests, self.requests = os.pipe()
        self.replies, replies = os.pipe()
        for pipe in (self.requests, self.replies):
            with contextlib.suppress(OSError):
                # Room for a 4000/1000-key block's keys and records, and for
                # their replies, so that neither side waits for the other.
                fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        # A pipe holds whole pages, and a message may leave one part-filled,
        # so it holds fewer bytes than its size: 102 messages of 8 KiB fill a
        # 1 MiB pipe at 820 KiB. Three quarters of it may be left unread; the
        # rest is room for the columns' stops.
        self.budget = fcntl.fcntl(self.requests, fcntl.F_GETPIPE_SZ) * 3 // 4
        try:
            pid = os.fork()
        except OSError:
            for pipe in (requests, self.requests, self.replies, replies):
                os.close(pipe)
            raise
        if not pid:
            os.close(self.requests)
            os.close(self.replies)
            _serve(requests, replies)
        os.close(requests)
        os.close(replies)
        os.set_blocking(self.requests, False)
        waiting = select.poll()
        waiting.register(self.replies, select.POLLIN)
        self.pid, self.lock, self.column, self.waiting = pid, threading.Lock(), 0, waiting.poll
        self.rings: dict[bytes, GroupParams] = {}

    def ask(self, *messages: bytes) -> bool:
        """Send the messages, each whole and in order, without waiting: False,
        with the worker stopped (killed and reaped), if one cannot be written
        whole at once. So the caller never waits for a worker that does not
        read, and a worker never acts on a torn message: it is killed while
        it waits for the rest. A column sends only what leaves at most
        ``budget`` bytes unread (``feed``), so this is for a worker that has
        died, and a column's stop always finds room."""
        sent = False
        try:
            sent = bool(self.pid) and all(
                os.writev(self.requests, (_FRAME.pack(len(m)), m)) == _FRAME.size + len(m) for m in messages
            )
        except OSError:
            pass
        finally:
            if not sent:
                self.stop(kill=True)
        return sent

    def feed(self, pending: collections.deque) -> bool:
        """Send the ``pending`` messages of a column, in order, up to the first
        that would leave more than ``budget`` bytes unread in the request
        pipe, which waits there for the next call: so a worker that is slow
        or stopped is sent no more than its pipe holds, and is not killed.
        A (name, group) item in ``pending`` is a table the worker
        keeps from there on in the stream, and goes into the mirror when the
        messages before it are sent. Whether a message was sent."""
        if not self.pid:
            return False
        unread = struct.unpack("i", fcntl.ioctl(self.requests, termios.FIONREAD, bytes(4)))[0]
        messages = []
        while pending:
            if type(pending[0]) is tuple:
                _use(self.rings, *pending[0])
            else:
                unread += _FRAME.size + len(pending[0])
                if unread > self.budget:
                    break
                messages.append(pending[0])
            pending.popleft()
        return bool(messages) and self.ask(*messages)

    def share(self, work: _Column, chunks: Iterable[bytes]) -> int | None:
        """``_Pinned.run`` over the column, split where the worker and the caller meet.

        The worker is sent the column's header, with each segment's table
        named (``_answer``), followed by the bytes of all the keys of each
        table the worker does not keep under that name and group, and none
        of a table it keeps. Then each chunk of records as the caller has
        it, with no copy, and the worker works forward from the head over
        what has arrived. Keys and records go in messages of up to
        ``_CHUNK`` records' bytes, each sent once the pipe has room for it
        (``feed``), tried after each chunk and between the caller's runs: a
        worker that reads slowly gets its messages late, a stopped one none
        past its pipe's room, and the worker's head ends where its records
        do. Once the last chunk is in, the caller works backward from the
        tail, over the chunks as it has them, in runs of ``_RUN`` values,
        reading the worker's replies between runs (and between chunks), and
        a value at a time once it is within a run of the worker; the column
        is done where the two meet. Whatever the worker has not reached is
        the caller's: all of it when the worker is slow or stopped, or dies.
        A failing commitment found on either side ends the column. However the column ends, an
        exception from ``chunks`` included, a worker sent the header is
        sent the column's stop, and the column returns without waiting for
        it; a worker found to have exited then is stopped (``reap``).

        Only public bytes cross: the group, the rings' keys and the tables'
        names, the records and the skipped positions. A prover's records
        are its simulated branches' challenges and responses, never a
        witness nonce; a skipped position says no more than the ring's
        keys without the witness's, which a column that left it out sent
        before.
        """
        self.column += 1
        here = _sched_getcpu()
        cpu = min((cpu for cpu in os.sched_getaffinity(0) if cpu != here), default=here)
        rings, segments, step = dict(self.rings), [], _CHUNK * work.width
        pending = collections.deque([b""])  # the header's place
        for ring, skip in work.segments:
            name, keyed = ring.digest, rings.get(ring.digest) != ring.group
            if keyed:
                encoding = memoryview(ring.encoding)
                pending.extend(encoding[at : at + step] for at in range(0, len(encoding), step))
            _use(rings, name, ring.group)
            pending.append((name, ring.group))
            segments.append(_SEGMENT.pack(name, skip, len(ring.keys), keyed))
        head = _HEADER.pack(self.column, cpu, work.width, len(segments))
        pending[0] = b"".join([head, *segments, work.group.to_bytes()])
        opened = listening = self.feed(pending)  # whatever is sent first is the header
        parts, met = [], 0
        try:
            for first, chunk in work.stream(chunks):
                parts.append((first, chunk))
                view = memoryview(chunk)
                pending.extend(view[at : at + step] for at in range(0, len(chunk), step))
                if self.feed(pending) and not opened:
                    opened = listening = True
                if listening:
                    listening, met, failed = self.hear(work, met)
                    if failed is not None:
                        return failed
            high = work.count
            while high > met:
                if pending and self.feed(pending) and not opened:
                    opened = listening = True
                if listening:
                    listening, met, failed = self.hear(work, met)
                    if failed is not None:
                        return failed
                    if high <= met:
                        break
                while parts[-1][0] >= high:
                    parts.pop()
                first, records = parts[-1]
                low = max(high - (_RUN if high - met > _RUN or not listening else 1), met, first)
                failed = work.values(records, first, low, high)
                if failed is not None:
                    return failed
                high = low
            return None
        finally:
            if opened and self.pid:
                self.ask(b"")
            self.reap()

    def hear(self, work: _Column, met: int) -> tuple[bool, int, int | None]:
        """Read the replies that have arrived, dropping those to earlier
        columns: whether the worker is still listening, the end of the head
        it has computed, and the index of a failing commitment it found, or
        None. A worker whose replies cannot be read is stopped."""
        out, size = work.out, work.group.element_size
        try:
            while self.pid and self.waiting(0):
                reply = _receive(self.replies)
                column, low, high, failed = _REPLY.unpack_from(reply)
                if column != self.column:
                    continue
                if failed >= 0:
                    return True, met, failed
                if out is not None:
                    out[low * size : high * size] = memoryview(reply)[_REPLY.size :]
                met = high
        except (OSError, EOFError):
            self.stop(kill=True)
        return bool(self.pid), met, None

    def reap(self) -> None:
        """Stop the worker if it has exited, so that a worker that dies
        during a column is reaped by that column, whether or not the caller
        read its end of the pipe. One still exiting (a worker forked from a
        large process takes milliseconds to exit once it is killed) is
        reaped by the first later column that writes to it, reads from it
        or ends."""
        with contextlib.suppress(ChildProcessError):
            if self.pid and os.waitpid(self.pid, os.WNOHANG)[0]:
                self.stop(reaped=True)

    def stop(self, kill: bool = False, reaped: bool = False) -> None:
        """Close the pipes (the worker exits at EOF), kill the worker if asked,
        reap it unless it has been, and take it out of the pool. In a child
        forked later, the worker is not the child's own: the child closes
        its copies of the pipes, so that the worker still sees EOF when its
        parent ends, and finds nothing to reap."""
        pid, self.pid = self.pid, 0
        if not pid:
            return
        os.close(self.requests)
        os.close(self.replies)
        if not reaped:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                if kill:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if _workers and self in _workers:
            _workers.remove(self)


# This process's pool: None until the first long column, then the one worker
# it forked, or no worker on a machine of one CPU, or once the worker has been
# stopped. One worker is all that has been measured (BENCH_26.json, on two
# CPUs); more would each need a share of the column and a CPU of their own.
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


# Public keys whose entry is kept: enough for two registries of 8192 keys,
# or for the ring keys and the verified keys of a smaller world.
_KEY_VERDICTS = 16384


class _Key:
    """A key's kept entry: its membership verdict, as its truth value, and,
    from the first ring table made over the key or the key's first
    one-record check on (``_prepare``), its operand in the column
    (``inverse``): the address of y^-1 mod p as a BIGNUM, or 0 for a key of
    0 mod p, which has no inverse. The column raises y^-1 to the challenge
    as it stands, so it takes no exponent mod p - 1. The address is a plain
    int, so a prepared key costs its BIGNUM and no ctypes object; the
    BIGNUM is freed with the entry."""

    __slots__ = ("inverse",)

    def __init__(self) -> None:
        self.inverse: int | None = None

    def __del__(self, free=_BN_free, pointer=_Pointer) -> None:
        if self.inverse:
            free(pointer(self.inverse))


class _Outsider(_Key):
    """The entry of a key outside the subgroup: false, and prepared like any other."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False


_PREPARING = threading.Lock()


def _prepare(group: "GroupParams", keys: Iterable[int], entries: Iterable[_Key]) -> None:
    """Set the operand of each entry of ``entries`` not yet prepared, for the
    key in the same place of ``keys``: once per entry, whatever the threads.

    Montgomery's trick (Montgomery, "Speeding the Pollard and elliptic
    curve methods of factorization", Math. Comp. 1987): one
    ``BN_mod_inverse``, of the product of the keys mod p, and each key's
    inverse recovered from it and the product of the keys before it, at
    two multiplications mod p and one ``BN_bin2bn`` a key, against a
    ``BN_mod_inverse`` a key. A key of 0 mod p stays out of the product,
    and its operand is 0. A ring table prepares its keys when it is made
    (``_Ring``), and a one-record check its key before its run
    (``crypto._schnorr_equation``): not when a verdict is made, so a
    registry enrolls its keys at the cost of their verdicts alone.
    """
    modulus, mont, scratch = group.modulus, _montgomery(group.modulus), _THREADS.scratch
    with _PREPARING:
        pending = {entry: key % modulus for key, entry in zip(keys, entries) if entry.inverse is None}
        if not pending:
            return
        prefixes, product = [], 1
        for value in pending.values():
            prefixes.append(product)
            product = product * value % modulus if value else product
        number = _load(scratch.operands[2], product, mont.size)
        if not _BN_mod_inverse(scratch.result, number, mont.modulus, scratch.ctx):
            _fail("BN_mod_inverse")
        inverse = _read(scratch.result, scratch.buffer(mont.size))  # of the product up to the entry, walking back
        for (entry, value), prefix in zip(reversed(pending.items()), reversed(prefixes)):
            entry.inverse = _load(None, inverse * prefix % modulus, mont.size).value if value else 0
            inverse = inverse * value % modulus if value else inverse


@functools.lru_cache(maxsize=_KEY_VERDICTS)
def _key_verdict(group: "GroupParams", key: int) -> _Key:
    """The kept entry of a public key: ``is_element`` as its truth value,
    kept because verifiers meet the same keys again and again (a registry
    makes it at enrollment, and every ring proof over the key reads it
    through its ring's table; an enrolled researcher's key
    signs every request; a fresh block key is tested by its possession
    proof, again by its block's signature, and a patient block key by every
    approval it signs), and the key's operand in the commitment column
    (``_Key``). The entries sit in a cache keyed by (parameters, key),
    bounded at 16384 keys; a miss goes through ``is_element``. A hit costs
    a lookup: the parameters' hash is taken once (``__hash__``).
    """
    return _Key() if group.is_element(key) else _Outsider()


@functools.lru_cache(maxsize=_KEY_VERDICTS)
def _operand_entry(group: "GroupParams", key: int) -> _Key:
    """The worker's kept entry of a key: its operand alone, with no
    membership test, which would cost a Jacobi symbol for every key the
    worker meets that was enrolled after it was forked."""
    return _Key()


class _Ring:
    """A ring resolved once: its keys, and the kept entry of each
    (``_key_verdict``), held here by strong reference, so that the per-key
    cache evicting an entry does not drop it while its ring is kept, every
    entry prepared when the table is made (``_prepare``). Worked out at
    first use and kept: one membership verdict for the whole ring, the
    keys' encoding, and its digest, which is the ring's digest in a
    credential's joint context and the table's name to the worker."""

    __slots__ = ("group", "keys", "entries", "_members", "_encoding", "_digest")

    def __init__(self, group: "GroupParams", keys: Sequence[int], entries: Sequence[_Key]) -> None:
        self.group, self.keys, self.entries = group, keys, entries
        _prepare(group, keys, entries)
        self._members = self._encoding = self._digest = None

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)

    @property
    def members(self) -> bool:
        """Whether every key is in the subgroup: every entry is true."""
        if self._members is None:
            self._members = all(self.entries)
        return self._members

    @property
    def encoding(self) -> bytes:
        """The keys at the element size (``_key_bytes``): for keys that fit,
        the bytes ``crypto.key_list_digest`` hashes after the count."""
        if self._encoding is None:
            self._encoding = _key_bytes(self.group, self.keys)
        return self._encoding

    @property
    def digest(self) -> bytes:
        """SHA-256 of the key count (u32) and the encoding: ``crypto.key_list_digest`` of the keys."""
        if self._digest is None:
            digest = hashlib.sha256(enc.u32(len(self.keys)))
            digest.update(self.encoding)
            self._digest = digest.digest()
        return self._digest


# The kept ring tables (``GroupParams.ring_table``), the most recently used
# last, under (parameters, the id of the key tuple the table holds, which
# keeps that id its own).
_ring_tables: collections.OrderedDict = collections.OrderedDict()
_RING_TABLES = threading.Lock()


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
        self, segments: Sequence[tuple[_Ring, int]], scalars: bytes | Iterable[bytes]
    ) -> bytes:
        """For each key y of each segment (a ring table, ``ring_table``, and
        the position it skips: that key takes no pair and no value), and the
        challenge c and response s that ``scalars`` holds for it (c || s,
        each ``scalar_size`` bytes big-endian, pair after pair, segment
        after segment), the commitment g^s * y^-c mod p that makes the
        Schnorr equation hold, encoded at ``element_size``, one after
        another. This is how a prover gets its simulated branches'
        commitments: a segment per ring it proves over, with its witness
        position skipped, and its draws as ``scalars``, an iterable of
        chunks of whole pairs, read as they come.

        It is one column (``_Pinned.run``): for any int key, the value
        ``pow`` gives, g^s * y^((-c) mod (p - 1)). The exponent is taken mod
        p - 1, not mod the order, so the value is exact for every
        invertible key, not only for subgroup elements, and a key of 0 mod
        p is settled as ``pow`` settles it: its power is 0, or 1 when c is
        0 mod p - 1. Every other value is one ``BN_mod_exp2_mont`` of the
        generator, pinned in a BIGNUM kept per (modulus, generator), and of
        y^-1 mod p, prepared in the key's kept entry (``_key_verdict``) at
        its first column, with c and s read into BIGNUMs from their bytes.
        A column of at least ``_SPLIT`` values is shared with the worker
        process, which starts on the head as soon as the first chunk is in
        (see the module docstring).
        """
        work = _Column(self, segments, 2 * self.scalar_size)
        work.compute((scalars,) if isinstance(scalars, bytes) else scalars)
        return bytes(work.out)

    def schnorr_failure(self, rings: Sequence[_Ring], records: bytes | Iterable[bytes]) -> int | None:
        """The index of a record t || c || s (``element_size`` and twice
        ``scalar_size`` bytes, big-endian, one record per key of each ring
        table in turn, back to back, in chunks of whole records) whose
        commitment t is not the value g^s * y^-c that
        ``schnorr_commitments`` gives for its key y, c and s; None when
        every record holds. This is how a verifier checks the Schnorr
        equations g^s == t * y^c of the branch records of its ring proofs,
        one chunk per proof; the one record of a signature, a Schnorr proof
        or a possession half is a run of one value (``crypto._schnorr_equation``).

        In one process the column stops at the first record that fails,
        and that is the index returned; a column shared with the worker
        stops at the first failure either side finds.
        """
        width = self.element_size + 2 * self.scalar_size
        work = _Column(self, ((ring, len(ring.keys)) for ring in rings), width)
        return work.compute((records,) if isinstance(records, bytes) else records)

    def ring_table(self, keys: Sequence[int]) -> _Ring:
        """The ring's table (``_Ring``), made at the ring's first use and kept,
        the last ``_RINGS`` of them: a verifier's gate reads its membership
        verdict, and its columns its keys' entries. A table is its own table.

        A kept table is found by the identity of its key tuple, which is how
        a registry hands out its keys (``Registry.keys``, and
        ``Registry.prefix``, one kept tuple per prefix length), before any
        key is read. Any other ring, a tuple equal to a kept one included,
        gets a table made from its keys, their entries read from the
        per-key cache (``key_is_element``) and those not yet prepared
        prepared together (``_prepare``); the table of a tuple is kept, and
        that of any other sequence is not.
        """
        if type(keys) is _Ring:
            return keys
        slot = (self, id(keys))
        with _RING_TABLES:
            table = _ring_tables.get(slot)
            if table is not None and table.keys is keys:
                _ring_tables.move_to_end(slot)
                return table
        table = _Ring(self, tuple(keys), tuple(map(self.key_is_element, keys)))
        if table.keys is keys:  # a tuple: any other sequence is copied, and no later call could find the copy
            with _RING_TABLES:
                _ring_tables[slot] = table
                _ring_tables.move_to_end(slot)
                while len(_ring_tables) > _RINGS:
                    _ring_tables.popitem(last=False)
        return table

    # The entry cache itself, bound as a method, so that a kept verdict is
    # read with no Python frame in between (see ``_key_verdict``); an entry
    # is true exactly when its key is in the subgroup.
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


# The worker's one copy of each group it is sent, found by the group's bytes
# (the end of a column's header): its key entries are keyed by (group, key),
# and a lookup by that one copy compares the group by identity, not field by
# field.
_group_of_bytes = functools.lru_cache(maxsize=8)(GroupParams.from_bytes)
