import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from phrchain import ConditionCodebook, Registry, codes_match, keygen
from phrchain import registry as registry_module
from phrchain.encoding import FormatError, Reader, prefixed_str, u32, write_versioned
from phrchain.group import GroupParams
from phrchain.registry import DuplicateKeyError, UnknownConditionError, conditions_in, mask_matcher


def reference_digest(group, keys):
    # Independent recomputation of the registry digest from raw key material.
    blob = u32(len(keys)) + b"".join(k.to_bytes(32, "big") for k in keys)
    return hashlib.sha256(blob).digest()


class TestRegistry:
    def test_enroll_into_empty(self, group):
        registry = Registry(group, "patient")
        kp = keygen(group, random.Random(0))
        assert registry.enroll(kp.public) == 0
        assert kp.public in registry
        assert registry.index_of(kp.public) == 0

    def test_a_prefix_is_one_kept_tuple_per_length(self, group, monkeypatch):
        # A proper prefix is the same tuple at every call, across later
        # enrollments, which only append; a length at or past the end is the
        # key tuple itself; the last four lengths asked for are kept.
        rng = random.Random(31)
        registry = Registry(group, "patient")
        for _ in range(10):
            registry.enroll(keygen(group, rng).public)
        first = registry.prefix(6)
        assert first == registry.keys[:6] and registry.prefix(6) is first
        assert registry.prefix(10) is registry.keys and registry.prefix(11) is registry.keys
        registry.enroll(keygen(group, rng).public)
        assert registry.prefix(6) is first and registry.prefix(10) == registry.keys[:10]
        assert registry.prefix(0) == ()
        for length in (1, 2, 3, 4):
            registry.prefix(length)
        assert registry.prefix(6) is not first and registry.prefix(6) == first  # dropped, made again
        assert len(registry._prefixes) == registry_module._PREFIXES == 4

    def test_duplicate_enrollment_rejected(self, group):
        registry = Registry(group, "hospital")
        kp = keygen(group, random.Random(1))
        registry.enroll(kp.public)
        with pytest.raises(DuplicateKeyError):
            registry.enroll(kp.public)

    def test_non_element_rejected(self, group):
        registry = Registry(group, "patient")
        with pytest.raises(ValueError):
            registry.enroll(0)
        with pytest.raises(ValueError):
            # order-2q element, outside the prime-order subgroup
            registry.enroll(group.modulus - 1)

    def test_unknown_role_rejected(self, group):
        with pytest.raises(ValueError):
            Registry(group, "auditor")

    def test_bulk_enrollment_indices_and_digest(self, group):
        registry = Registry(group, "patient")
        rng = random.Random(2)
        digests = {registry.digest}
        keys = []
        for i in range(1000):
            kp = keygen(group, rng)
            keys.append(kp.public)
            assert registry.enroll(kp.public) == i
            assert registry.digest == reference_digest(group, keys)
            digests.add(registry.digest)
        assert len(digests) == 1001  # digest changed on every enrollment

    def test_save_load_round_trip(self, group, tmp_path):
        registry = Registry(group, "researcher")
        rng = random.Random(3)
        for _ in range(5):
            registry.enroll(keygen(group, rng).public)
        path = tmp_path / "researchers.reg"
        registry.save(path)
        loaded = Registry.load(path)
        assert loaded.role == registry.role
        assert loaded.keys == registry.keys
        assert loaded.digest == registry.digest

    def test_describe_lists_keys(self, group):
        registry = Registry(group, "patient")
        registry.enroll(keygen(group, random.Random(4)).public)
        text = registry.describe()
        assert "patient registry: 1 keys" in text
        assert "[   0]" in text


    def test_construction_checks_every_key(self, group):
        keys = [keygen(group, random.Random(i)).public for i in range(3)]
        for bad in (1, group.modulus - 1, 0, group.modulus):
            with pytest.raises(ValueError):
                Registry(group, "patient", keys + [bad])
        with pytest.raises(DuplicateKeyError):
            Registry(group, "patient", keys + [keys[0]])

    @pytest.mark.parametrize("bad", ["minus-one", "duplicate"])
    def test_load_rejects_non_subgroup_and_duplicate_keys(self, group, tmp_path, bad):
        keys = [keygen(group, random.Random(i)).public for i in range(3)]
        registry = Registry(group, "hospital", keys)
        replacement = group.modulus - 1 if bad == "minus-one" else keys[0]
        raw = registry.to_bytes()
        raw = raw[: -group.element_size] + group.encode_element(replacement)
        path = tmp_path / "tampered.reg"
        write_versioned(path, b"PHRR", 1, raw)
        with pytest.raises(FormatError):
            Registry.load(path)

    def test_load_rejects_invalid_group_with_format_error(self, group, tmp_path):
        raw = Registry(group, "patient").to_bytes()
        # Swap the generator 4 for 5, a non-residue mod the default modulus.
        assert raw.count(b"\x00\x00\x00\x01\x04") == 1
        raw = raw.replace(b"\x00\x00\x00\x01\x04", b"\x00\x00\x00\x01\x05")
        path = tmp_path / "bad-group.reg"
        write_versioned(path, b"PHRR", 1, raw)
        with pytest.raises(FormatError):
            Registry.load(path)

    def test_loading_an_oversized_group_builds_no_generator_table(self, tmp_path):
        # 2**4423 - 1 is a Mersenne prime, so generator 4 passes the
        # constructor's checks. A byte-wise generator table would hold 553
        # rows of 256 elements of 553 bytes each, about 80 MB; loading keeps
        # only the modulus's Montgomery context, a few KB.
        modulus = 2**4423 - 1
        big = GroupParams(group_id="oversized", modulus=modulus, order=modulus // 2, generator=4)
        path = tmp_path / "oversized.reg"
        Registry(big, "patient").save(path)
        tracemalloc.start()
        try:
            loaded = Registry.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.group == big
        assert peak < 1 << 20

    def test_digest_computed_once_per_change(self, group, monkeypatch):
        calls = []
        original = registry_module.key_list_digest
        monkeypatch.setattr(
            registry_module, "key_list_digest", lambda *args: calls.append(1) or original(*args)
        )
        registry = Registry(group, "patient")
        rng = random.Random(5)
        keys = [keygen(group, rng).public for _ in range(50)]
        for key in keys:
            registry.enroll(key)
        assert calls == []
        assert registry.digest == registry.digest == reference_digest(group, keys)
        assert len(calls) == 1
        assert registry.keys is registry.keys
        assert registry.index_of(keys[17]) == 17
        with pytest.raises(ValueError):
            registry.index_of(keygen(group, rng).public)


class TestConditionCodebook:
    def test_default_dimensions(self):
        codebook = ConditionCodebook.default()
        assert len(codebook.lifetime_codes) == 128
        assert len(codebook.visit_codes) == 128
        assert codebook.n_bits == 256
        assert codebook.n_bytes == 32

    def test_empty_sets_encode_to_zero(self):
        codebook = ConditionCodebook.default()
        assert codebook.encode([], []) == bytes(32)

    def test_positions_are_stable(self):
        codebook = ConditionCodebook.default(lifetime=4, visit=4)
        bits = codebook.encode(["lifetime-002"], ["visit-001"])
        value = int.from_bytes(bits, "big")
        assert value == (1 << 2) | (1 << (4 + 1))

    def test_unknown_condition_rejected(self):
        codebook = ConditionCodebook.default(lifetime=4, visit=4)
        with pytest.raises(UnknownConditionError):
            codebook.encode(["nope"], [])
        with pytest.raises(UnknownConditionError):
            # lifetime names are not valid visit names
            codebook.encode([], ["lifetime-000"])

    def test_mask_equal_to_vector_matches(self):
        codebook = ConditionCodebook.default()
        bits = codebook.encode(["lifetime-001", "lifetime-005"], ["visit-000"])
        assert codes_match(bits, bits)

    def test_exhaustive_eight_bit_codebook(self):
        # Brute force over all 256x256 (vector, mask) pairs against set inclusion.
        for vector in range(256):
            for mask in range(256):
                expected = (vector & mask) == mask
                subset = {i for i in range(8) if mask >> i & 1} <= {
                    i for i in range(8) if vector >> i & 1
                }
                assert expected == subset
                assert codes_match(bytes([vector]), bytes([mask])) == expected

    def test_length_mismatch_never_matches(self):
        assert not codes_match(bytes(32), bytes(31))

    def test_save_load_round_trip(self, tmp_path):
        codebook = ConditionCodebook.default(lifetime=6, visit=3)
        path = tmp_path / "codes.book"
        codebook.save(path)
        assert ConditionCodebook.load(path) == codebook

    def test_read_rejects_duplicate_names_with_format_error(self):
        data = u32(1) + prefixed_str("asthma") + u32(1) + prefixed_str("asthma")
        with pytest.raises(FormatError):
            ConditionCodebook.read_from(Reader(data))

    @given(positions=st.sets(st.integers(0, 9)))
    def test_encoder_and_readers_share_one_bit_order(self, positions):
        codebook = ConditionCodebook.default(lifetime=6, visit=4)
        names = codebook.lifetime_codes + codebook.visit_codes

        def encode(chosen):
            return codebook.encode([names[i] for i in chosen if i < 6], [names[i] for i in chosen if i >= 6])

        bits = encode(positions)
        assert list(conditions_in(bits)) == sorted(positions)
        for i in range(10):
            assert mask_matcher(encode({i}))(bits) == (i in positions)

    @given(vector=st.integers(0, 2**16 - 1), mask=st.integers(0, 2**16 - 1))
    @settings(max_examples=300)
    def test_match_iff_subset_property(self, vector, mask):
        v_bytes, m_bytes = vector.to_bytes(2, "big"), mask.to_bytes(2, "big")
        v_set = {i for i in range(16) if vector >> i & 1}
        m_set = {i for i in range(16) if mask >> i & 1}
        assert codes_match(v_bytes, m_bytes) == (m_set <= v_set)
