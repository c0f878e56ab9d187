import stat

import pytest
from hypothesis import given, strategies as st

from phrchain import encoding as enc


def test_fixed_width_round_trip():
    data = enc.u8(7) + enc.u16(300) + enc.u32(70000) + enc.u64(2**40) + enc.f64(1.5)
    reader = enc.Reader(data)
    assert reader.u8() == 7
    assert reader.u16() == 300
    assert reader.u32() == 70000
    assert reader.u64() == 2**40
    assert reader.f64() == 1.5
    reader.expect_end()


@given(st.binary(max_size=100), st.binary(max_size=100))
def test_prefixed_round_trip(a, b):
    reader = enc.Reader(enc.prefixed(a) + enc.prefixed(b))
    assert reader.prefixed() == a
    assert reader.prefixed() == b
    reader.expect_end()


def test_truncated_input_raises():
    reader = enc.Reader(enc.u32(10) + b"abc")
    with pytest.raises(enc.FormatError):
        reader.prefixed()


def test_trailing_bytes_detected():
    reader = enc.Reader(b"\x00\x01")
    reader.u8()
    with pytest.raises(enc.FormatError):
        reader.expect_end()


def test_versioned_file_round_trip(tmp_path):
    path = tmp_path / "blob.bin"
    enc.write_versioned(path, b"TEST", 1, b"payload")
    reader = enc.read_versioned(path, b"TEST", 1)
    assert reader.take(reader.remaining()) == b"payload"


def test_versioned_file_rejects_wrong_magic_or_version(tmp_path):
    path = tmp_path / "blob.bin"
    enc.write_versioned(path, b"TEST", 2, b"payload")
    with pytest.raises(enc.FormatError):
        enc.read_versioned(path, b"ELSE", 2)
    with pytest.raises(enc.FormatError):
        enc.read_versioned(path, b"TEST", 1)


def test_a_save_over_a_file_keeps_its_mode_and_a_symlink_keeps_its_link(tmp_path):
    path = tmp_path / "blob.bin"
    enc.write_versioned(path, b"TEST", 1, b"old")
    path.chmod(0o600)
    enc.write_versioned(path, b"TEST", 1, b"new")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert enc.read_versioned(path, b"TEST", 1).take(3) == b"new"
    link = tmp_path / "link.bin"
    link.symlink_to(path)
    enc.write_versioned(link, b"TEST", 1, b"via")
    assert link.is_symlink() and link.resolve() == path
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert enc.read_versioned(path, b"TEST", 1).take(3) == b"via"
    assert sorted(tmp_path.iterdir()) == [path, link]
