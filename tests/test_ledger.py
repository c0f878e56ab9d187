import dataclasses
import errno
import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phrchain import (
    GENESIS_STATE,
    Chain,
    MinerPool,
    OffChainStore,
    PatientContext,
    PatientSecrets,
    TimeRange,
    chain_state,
    create_approval_block,
    create_patient_block,
    create_request_block,
    digest,
    keygen,
    new_sym_key,
    run_consensus,
    state_commitment,
    sym_decrypt,
    verify_block,
)
from phrchain.consensus import ConsensusResult
from phrchain import encoding
from phrchain.encoding import FormatError, prefixed, u32
from phrchain.ledger import VOTE_RECORD, BlockSecrets, EnrollmentError, NotApprovedError, decode_block


def oracle_state(sym_key, ptr, data_digest, prev):
    # Independent recomputation of the chained state from its documented layout.
    return hashlib.sha256(b"CHAIN" + sym_key + ptr + data_digest + prev).digest()


def oracle_commitment(state, nonce):
    return hashlib.sha256(b"CHAIN" + state + nonce).digest()


class TestChainState:
    def test_matches_oracle(self):
        rng = random.Random(0)
        for _ in range(50):
            sym, ptr, dd, prev = (rng.randbytes(32) for _ in range(4))
            assert chain_state(sym, ptr, dd, prev) == oracle_state(sym, ptr, dd, prev)

    def test_frozen_vector(self):
        # Pins the byte layout across refactors: computed from the documented
        # concatenation order with plain hashlib.
        sym = bytes(range(32))
        ptr = bytes([0xAA]) * 32
        dd = hashlib.sha256(b"record").digest()
        state = chain_state(sym, ptr, dd, GENESIS_STATE)
        assert state.hex() == "f03344d3500a68a93a2aafb5c8d50f40e693fe0c930fee2c301c25140ae1ad74"
        nonce = bytes([0x55]) * 32
        commitment = state_commitment(state, nonce)
        assert commitment.hex() == "e0207065c6081cb05ca12acf93e1547014ce094bd487e49641ad5a8500059e77"

    def test_every_field_matters(self):
        rng = random.Random(1)
        fields = [rng.randbytes(32) for _ in range(4)]
        base = chain_state(*fields)
        for i in range(4):
            altered = list(fields)
            altered[i] = bytes(b ^ 0x01 for b in altered[i])
            assert chain_state(*altered) != base

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            chain_state(bytes(31), bytes(32), bytes(32), bytes(32))
        with pytest.raises(ValueError):
            state_commitment(bytes(32), bytes(16))

    @pytest.mark.parametrize("index, name", enumerate(["sym_key", "data_ptr", "data_digest", "prev_state"]))
    @pytest.mark.parametrize("size", [0, 31, 33])
    def test_each_field_length_is_checked_and_named(self, index, name, size):
        fields = [bytes(32)] * 4
        fields[index] = bytes(size)
        with pytest.raises(ValueError, match=f"^{name} must be 32 bytes$"):
            chain_state(*fields)

    def test_commitment_matches_oracle_and_nonce_sensitivity(self):
        rng = random.Random(2)
        state = rng.randbytes(32)
        outputs = set()
        for _ in range(1000):
            nonce = rng.randbytes(32)
            commitment = state_commitment(state, nonce)
            assert commitment == oracle_commitment(state, nonce)
            outputs.add(commitment)
        assert len(outputs) == 1000
        assert state_commitment(state, bytes(32)) == state_commitment(state, bytes(32))


class TestOffChainStore:
    def test_round_trip(self):
        rng = random.Random(3)
        store = OffChainStore()
        key = new_sym_key(rng)
        ptr, data_digest = store.put_encrypted(b"payload", key, rng)
        assert data_digest == digest(b"payload")
        assert sym_decrypt(key, store.get(ptr)) == b"payload"

    def test_identical_data_gets_distinct_ptr_and_ciphertext(self):
        rng = random.Random(4)
        store = OffChainStore()
        key = new_sym_key(rng)
        seen_ptrs, seen_cts = set(), set()
        for _ in range(50):
            ptr, _ = store.put_encrypted(b"same data", key, rng)
            seen_ptrs.add(ptr)
            seen_cts.add(store.get(ptr))
        assert len(seen_ptrs) == 50
        assert len(seen_cts) == 50

    def test_save_load_round_trip(self, tmp_path):
        rng = random.Random(5)
        store = OffChainStore()
        key = new_sym_key(rng)
        ptr, _ = store.put_encrypted(b"persisted", key, rng)
        path = tmp_path / "data.store"
        store.save(path)
        loaded = OffChainStore.load(path)
        assert sym_decrypt(key, loaded.get(ptr)) == b"persisted"
        assert len(loaded) == 1


class TestTimeRange:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeRange(5, 4)
        assert TimeRange(2, 2).contains(2)

    def test_enclosure(self):
        assert TimeRange(1, 10).encloses(TimeRange(3, 7))
        assert TimeRange(1, 10).encloses(TimeRange(1, 10))
        assert not TimeRange(3, 7).encloses(TimeRange(1, 10))
        assert not TimeRange(3, 7).encloses(TimeRange(4, 8))


class TestPatientSecrets:
    def test_visit_times_strictly_increase(self, group):
        rng = random.Random(6)

        def record(t):
            sym, ptr, dd = rng.randbytes(32), rng.randbytes(32), rng.randbytes(32)
            return BlockSecrets(
                block_id=rng.randbytes(32),
                block_key=keygen(group, rng),
                sym_key=sym,
                nonce=rng.randbytes(32),
                data_ptr=ptr,
                data_digest=dd,
                state=chain_state(sym, ptr, dd, GENESIS_STATE),
                visit_time=t,
            )

        secrets = PatientSecrets().with_record(record(5))
        with pytest.raises(ValueError):
            secrets.with_record(record(5))
        with pytest.raises(ValueError):
            secrets.with_record(record(3))
        secrets = secrets.with_record(record(6))
        assert [r.visit_time for r in secrets.records] == [5, 6]
        assert secrets.in_window(TimeRange(6, 9)) == secrets.records[1:]
        assert secrets.state_before(0) == GENESIS_STATE
        assert secrets.state_before(1) == secrets.records[0].state

    def test_lookups_over_a_long_history_match_a_scan(self, group):
        rng = random.Random(8)
        key = keygen(group, rng)
        secrets = PatientSecrets()
        for t in range(1, 201):
            fields = [rng.randbytes(32) for _ in range(6)]
            secrets = secrets.with_record(BlockSecrets(fields[0], key, *fields[1:], visit_time=t))
        assert secrets.index_of(secrets.records[0].block_id) == 0  # fills the lookup map
        for i, record in enumerate(secrets.records):
            assert secrets.index_of(record.block_id) == i
            assert secrets.find(record.block_id) is record
        missing = rng.randbytes(32)
        assert secrets.find(missing) is None
        with pytest.raises(KeyError):
            secrets.index_of(missing)
        # A record added after a lookup is found in the new history, not in the old one.
        extended = secrets.with_record(dataclasses.replace(secrets.records[-1], block_id=missing, visit_time=201))
        assert extended.index_of(missing) == 200
        assert secrets.find(missing) is None


class TestBlockCreation:
    def test_created_block_verifies(self, make_world):
        world = make_world()
        block, _ = world.submit_block(world.patient(), b"visit one", 1, append=False)
        assert verify_block(block, world.directories)

    def test_sequential_chain_matches_independent_oracle(self, make_world):
        world = make_world()
        patient = world.patient()
        blocks = []
        for visit in range(1, 6):
            block, patient = world.submit_block(patient, f"visit {visit}".encode(), visit)
            blocks.append(block)
        # refold the whole chain from raw inputs only
        state = GENESIS_STATE
        for record, block in zip(patient.secrets.records, blocks):
            state = oracle_state(record.sym_key, record.data_ptr, record.data_digest, state)
            assert record.state == state
            assert block.commitment == oracle_commitment(state, record.nonce)

    def test_off_chain_data_recoverable_from_secrets(self, make_world):
        world = make_world()
        _, patient = world.submit_block(world.patient(), b"the record", 1)
        record = patient.secrets.records[0]
        plaintext = sym_decrypt(record.sym_key, world.store.get(record.data_ptr))
        assert plaintext == b"the record"
        assert digest(plaintext) == record.data_digest

    def test_unenrolled_party_refused(self, make_world):
        world = make_world()
        stranger = keygen(world.group, random.Random(70701))
        bad_patient = PatientContext(identity=stranger, index=0, secrets=PatientSecrets())
        with pytest.raises(EnrollmentError):
            create_patient_block(
                bad_patient,
                world.hospital(),
                b"x",
                world.codebook.encode([], []),
                world.directories,
                world.store,
                visit_time=1,
            )

    def test_foreign_registry_block_rejected_by_verifier(self, make_world):
        # Enrolled in a parallel deployment, not in the verifier's registries.
        world = make_world(seed=8)
        other = make_world(seed=9)
        block, _ = other.submit_block(other.patient(), b"foreign", 1, append=False)
        assert verify_block(block, other.directories)
        assert not verify_block(block, world.directories)

    def test_unenrolled_hospital_rejected_by_verifier(self, make_world, group):
        # The miners' registry carries different hospital keys than the one
        # the block was built against; the patient side still checks out.
        from phrchain.registry import Directories, Registry

        world = make_world(seed=10)
        block, _ = world.submit_block(world.patient(), b"data", 1, append=False)
        strangers = [keygen(group, random.Random(1000 + i)).public for i in range(4)]
        miners_view = Directories(
            patients=world.directories.patients,
            hospitals=Registry(group, "hospital", strangers),
            researchers=world.directories.researchers,
        )
        assert not verify_block(block, miners_view)

    def test_block_contains_no_identity_key_material(self, make_world):
        world = make_world()
        identity = world.patient_kps[0]
        raw_pk = world.group.encode_element(identity.public)
        for visit in range(1, 4):
            block, _ = world.submit_block(world.patient(), b"data", visit, append=False)
            raw = block.canonical_bytes()
            assert raw_pk not in raw
            assert digest(raw_pk) not in raw

    def test_block_serialization_round_trip(self, make_world):
        world = make_world()
        block, _ = world.submit_block(world.patient(), b"bytes", 1, append=False)
        raw = block.canonical_bytes()
        decoded = decode_block(raw, world.group)
        assert decoded.canonical_bytes() == raw
        assert decoded.block_id == block.block_id

    def test_decode_garbage_raises(self, group):
        with pytest.raises((FormatError, ValueError)):
            decode_block(b"\xff" + bytes(40), group)
        with pytest.raises((FormatError, ValueError)):
            decode_block(b"", group)


def _approved_record(n=3):
    votes = b"".join(VOTE_RECORD.pack(i, False, True, 0.001) for i in range(n))
    return ConsensusResult(True, n, 0, 0.01, votes)


def _rejected_record(n=3):
    votes = b"".join(VOTE_RECORD.pack(i, True, False, 0.0) for i in range(n))
    return ConsensusResult(False, 0, n, 0.01, votes)


class TestChain:
    def test_append_requires_approval(self, make_world):
        world = make_world()
        block, _ = world.submit_block(world.patient(), b"data", 1, append=False)
        chain = Chain(world.group)
        with pytest.raises(NotApprovedError):
            chain.append(block, _rejected_record())
        chain.append(block, _approved_record())
        assert chain.get(block.block_id).canonical_bytes() == block.canonical_bytes()

    def test_duplicate_append_rejected(self, make_world):
        world = make_world()
        block, _ = world.submit_block(world.patient(), b"data", 1, append=False)
        chain = Chain(world.group)
        chain.append(block, _approved_record())
        with pytest.raises(ValueError):
            chain.append(block, _approved_record())

    @pytest.mark.parametrize("case", ["unapproved", "repeated"])
    def test_from_bytes_rejects_invalid_entries_with_format_error(self, make_world, case):
        world = make_world()
        block, _ = world.submit_block(world.patient(), b"data", 1, append=False)
        if case == "unapproved":
            entries = [(block, _rejected_record())]
        else:
            entries = [(block, _approved_record())] * 2
        parts = [prefixed(world.group.to_bytes()), u32(len(entries))]
        for entry_block, record in entries:
            parts += [prefixed(entry_block.canonical_bytes()), prefixed(record.to_bytes())]
        with pytest.raises(FormatError):
            Chain.from_bytes(b"".join(parts))

    def test_save_load_round_trip(self, make_world, tmp_path):
        world = make_world()
        patient = world.patient()
        for visit in range(1, 4):
            _, patient = world.submit_block(patient, f"v{visit}".encode(), visit)
        path = tmp_path / "ledger.chain"
        world.chain.save(path)
        loaded = Chain.load(path)
        assert len(loaded) == 3
        assert loaded.to_bytes() == world.chain.to_bytes()

    def test_fresh_blocks_share_no_values(self, make_world):
        world = make_world()
        patient = world.patient()
        seen = set()
        for visit in range(1, 6):
            block, patient = world.submit_block(patient, b"same data", visit, append=False)
            record = patient.secrets.records[-1]
            values = {
                block.commitment,
                world.group.encode_element(block.patient_block_pk),
                world.group.encode_element(block.hospital_block_pk),
                record.sym_key,
                record.nonce,
                record.data_ptr,
            }
            assert not (values & seen)
            seen |= values


# SHA-256 of the seeded chain's file bytes, recorded while consensus records
# still held one object per vote: the chain file format must not change.
PINNED_CHAIN_SHA256 = "54c393a684a35ad174b7b72f5577a55beff765658c99004e9e0e1d8f77f24fe7"


@pytest.fixture()
def small_chain(make_world):
    """One patient block, a request for it and its approval, voted in by 20 miners."""
    world = make_world(seed=23)
    world.pool = MinerPool(n_miners=20, malicious_fraction=0.25, verify_jitter=1e-4)
    block, patient = world.submit_block(world.patient(), b"pinned", 1)
    request = create_request_block(world.group, world.researcher_kps[0], block, TimeRange(1, 2), world.rng)
    world.chain.append(request, run_consensus(request, world.pool, world.directories, 2, chain=world.chain))
    approval = create_approval_block(world.group, patient.secrets, request, TimeRange(1, 1), world.rng)
    world.chain.append(approval, run_consensus(approval, world.pool, world.directories, 3, chain=world.chain))
    return world.chain


class TestChainFormat:
    def test_seeded_chain_bytes_pinned(self, small_chain):
        assert len(small_chain) == 3
        assert hashlib.sha256(small_chain.to_bytes()).hexdigest() == PINNED_CHAIN_SHA256

    def test_a_save_that_fails_partway_leaves_the_old_chain(self, small_chain, tmp_path, monkeypatch):
        # The disk fills after half of the new chain's bytes are written.
        path = tmp_path / "ledger.chain"
        small_chain.save(path)
        saved = path.read_bytes()
        assert saved[:6] == Chain.MAGIC + b"\x00\x01" and saved[6:] == small_chain.to_bytes()
        real_open = open

        class Full:
            def __init__(self, file):
                self.file = file

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.file.write(data[: len(data) // 2])
                self.file.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(encoding, "open", lambda *args: Full(real_open(*args)), raising=False)
        with pytest.raises(OSError, match="No space"):
            small_chain.save(path)
        monkeypatch.undo()
        assert sorted(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == saved
        assert Chain.load(path).to_bytes() == small_chain.to_bytes()

    @given(data=st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # fixture is read-only here
    )
    def test_from_bytes_on_mutated_chain_returns_or_raises_format_error(self, small_chain, data):
        raw = bytearray(small_chain.to_bytes())
        for _ in range(data.draw(st.integers(1, 4))):
            position = data.draw(st.integers(0, len(raw) - 1))
            raw[position] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(raw)))
        try:
            decoded = Chain.from_bytes(bytes(raw[:cut]))
        except FormatError:
            return
        assert isinstance(decoded, Chain)
