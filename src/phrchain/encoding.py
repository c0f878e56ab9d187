"""Canonical binary encoding: length-prefixed concatenation, big-endian.

Every serialized structure in this package is built from two primitives:
fixed-width fields written raw, and variable fields prefixed with a
big-endian u32 length. Persistent files start with a 4-byte magic and a
u16 format version.

Decoding is strict: ``decode`` reads one structure that must span its
input exactly, ``build`` reports a constructor's rejection of decoded
fields as ``FormatError``, ``Wire.from_bytes`` decodes a type from its
bytes, and ``Stored.load`` reads a file under its magic and
``FILE_VERSION``. A wire type supplies ``to_bytes`` and ``read_from``;
whatever decodes re-encodes to the bytes it was read from.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")

FILE_VERSION = 1


class FormatError(ValueError):
    """Raised when bytes do not parse as the expected structure."""


def u8(value: int) -> bytes:
    return struct.pack(">B", value)


def u16(value: int) -> bytes:
    return struct.pack(">H", value)


def u32(value: int) -> bytes:
    return struct.pack(">I", value)


def u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def f64(value: float) -> bytes:
    return struct.pack(">d", value)


def prefixed(data: bytes) -> bytes:
    """u32 length followed by the raw bytes."""
    return u32(len(data)) + data


def prefixed_str(text: str) -> bytes:
    return prefixed(text.encode("utf-8"))


def prefixed_int(value: int) -> bytes:
    """A non-negative integer as its minimal big-endian bytes, prefixed."""
    return prefixed(value.to_bytes((value.bit_length() + 7) // 8, "big"))


class Reader:
    """Sequential decoder over a bytes buffer; raises FormatError on overrun."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise FormatError(f"truncated input: wanted {n} bytes at offset {self._pos}")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack(">B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def prefixed(self) -> bytes:
        return self.take(self.u32())

    def prefixed_str(self) -> str:
        try:
            return self.prefixed().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("invalid utf-8 in string field") from exc

    def prefixed_int(self) -> int:
        data = self.prefixed()
        if data[:1] == b"\x00":
            raise FormatError("integer field has a leading zero byte")
        return int.from_bytes(data, "big")

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining() != 0:
            raise FormatError(f"{self.remaining()} trailing bytes after structure")


def decode(data: bytes, read: Callable[..., T], *args) -> T:
    """``read(reader, *args)`` over the whole of ``data``; trailing bytes are a FormatError."""
    reader = Reader(data)
    value = read(reader, *args)
    reader.expect_end()
    return value


def build(make: Callable[..., T], *fields) -> T:
    """``make(*fields)`` on decoded fields; a ValueError it raises becomes a FormatError."""
    try:
        return make(*fields)
    except ValueError as exc:
        raise FormatError(f"invalid {make.__qualname__}: {exc}") from exc


def write_versioned(path: Path | str, magic: bytes, version: int, payload: bytes) -> None:
    """Persist a payload under a 4-byte magic and u16 version header."""
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    Path(path).write_bytes(magic + u16(version) + payload)


def read_versioned(path: Path | str, magic: bytes, version: int) -> Reader:
    """Open a versioned file, check magic and version, return a Reader over the payload."""
    return Reader(_payload(path, magic, version))


def _payload(path: Path | str, magic: bytes, version: int) -> bytes:
    """The file's bytes after its magic and version, both checked."""
    data = Path(path).read_bytes()
    if len(data) < 6 or data[:4] != magic:
        raise FormatError(f"not a {magic!r} file: {path}")
    found = struct.unpack(">H", data[4:6])[0]
    if found != version:
        raise FormatError(f"unsupported {magic!r} version {found}, expected {version}")
    return data[6:]


class Wire:
    """Base of the types decoded from bytes alone: ``from_bytes`` over the
    subclass's ``read_from(reader)``."""

    __slots__ = ()

    @classmethod
    def from_bytes(cls: type[T], data: bytes) -> T:
        return decode(data, cls.read_from)


class Stored(Wire):
    """Base of the file types: ``save`` and ``load`` over the subclass's
    ``to_bytes``, ``read_from`` and four-byte ``MAGIC``."""

    __slots__ = ()
    MAGIC: bytes

    def save(self, path: Path | str) -> None:
        write_versioned(path, self.MAGIC, FILE_VERSION, self.to_bytes())

    @classmethod
    def load(cls: type[T], path: Path | str) -> T:
        return decode(_payload(path, cls.MAGIC, FILE_VERSION), cls.read_from)
