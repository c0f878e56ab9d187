import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phrchain import (
    GENESIS_STATE,
    DisclosurePackage,
    MinerPool,
    PatientSecrets,
    TimeRange,
    build_disclosure_package,
    chain_state,
    create_approval_block,
    create_request_block,
    keygen,
    pending_requests,
    run_consensus,
    scan_blocks,
    verify_block,
    verify_disclosure,
)
from phrchain.access import DisclosureEntry, NonContiguousError, RangeError
from phrchain.encoding import FormatError, u32
from phrchain.ledger import BlockSecrets


def synth_secrets(group, k, seed=0, start_time=1):
    """Patient history fabricated directly from random material; no chain needed."""
    rng = random.Random(seed)
    secrets = PatientSecrets()
    for i in range(k):
        sym, ptr, dd = rng.randbytes(32), rng.randbytes(32), rng.randbytes(32)
        record = BlockSecrets(
            block_id=rng.randbytes(32),
            block_key=keygen(group, rng),
            sym_key=sym,
            nonce=rng.randbytes(32),
            data_ptr=ptr,
            data_digest=dd,
            state=chain_state(sym, ptr, dd, secrets.last_state),
            visit_time=start_time + i,
        )
        secrets = secrets.with_record(record)
    return secrets


@pytest.fixture()
def granted_world(make_world):
    """Five appended visits plus an approved researcher request over [2, 4]."""
    world = make_world(patients=3, hospitals=3, miners=6, seed=21)
    patient = world.patient()
    for visit in range(1, 6):
        _, patient = world.submit_block(patient, f"visit {visit} data".encode(), visit)
    parent = world.chain.get(patient.secrets.records[0].block_id)
    request = create_request_block(
        world.group, world.researcher_kps[0], parent, TimeRange(2, 4), world.rng
    )
    result = run_consensus(request, world.pool, world.directories, seed=77, chain=world.chain)
    world.chain.append(request, result)
    return world, patient, request


class TestScan:
    def test_zero_mask_matches_every_patient_block(self, make_world):
        world = make_world(seed=22)
        patient = world.patient()
        for visit in range(1, 4):
            bits = world.codebook.encode([f"lifetime-{visit:03d}"], [])
            _, patient = world.submit_block(patient, b"x", visit, bits=bits)
        assert len(scan_blocks(world.chain, bytes(32))) == 3

    def test_unused_bit_matches_nothing(self, make_world):
        world = make_world(seed=23)
        patient = world.patient()
        _, patient = world.submit_block(patient, b"x", 1)
        mask = world.codebook.encode(["lifetime-127"], [])
        assert scan_blocks(world.chain, mask) == []

    def test_matches_set_inclusion_brute_force(self, make_world):
        world = make_world(seed=24, miners=2)
        rng = random.Random(24)
        lifetime = world.codebook.lifetime_codes
        patient = world.patient()
        held = []
        for visit in range(1, 101):
            names = rng.sample(lifetime[:6], rng.randrange(0, 4))
            bits = world.codebook.encode(names, [])
            block, patient = world.submit_block(patient, b"x", visit, bits=bits)
            held.append((block.block_id, set(names)))
        for query_size in (0, 1, 2):
            query = set(rng.sample(lifetime[:6], query_size))
            mask = world.codebook.encode(sorted(query), [])
            expected = [bid for bid, names in held if query <= names]
            assert scan_blocks(world.chain, mask) == expected


class TestRequestFlow:
    def test_honest_request_passes_consensus(self, granted_world):
        world, _, request = granted_world
        result = run_consensus(
            request, MinerPool(n_miners=6), world.directories, seed=1, chain=world.chain
        )
        assert result.approved

    def test_dangling_parent_rejected(self, make_world):
        world = make_world(seed=25)
        block, _ = world.submit_block(world.patient(), b"never appended", 1, append=False)
        request = create_request_block(
            world.group, world.researcher_kps[0], block, TimeRange(1, 2), world.rng
        )
        assert not verify_block(request, world.directories, chain=world.chain)

    def test_altered_range_breaks_signature(self, granted_world):
        world, _, request = granted_world
        widened = dataclasses.replace(request, requested_range=TimeRange(1, 5))
        assert not verify_block(widened, world.directories, chain=world.chain)
        shifted = dataclasses.replace(request, requested_range=TimeRange(3, 4))
        assert not verify_block(shifted, world.directories, chain=world.chain)

    def test_patient_discovers_pending_request(self, granted_world):
        world, patient, request = granted_world
        pending = pending_requests(world.chain, patient.secrets)
        assert [r.block_id for r in pending] == [request.block_id]
        other = make_secrets_without(patient.secrets, request.parent_ptr)
        assert pending_requests(world.chain, other) == []


def make_secrets_without(secrets, block_id):
    kept = tuple(r for r in secrets.records if r.block_id != block_id)
    return PatientSecrets(kept)


class TestApprovalFlow:
    def test_grant_equal_to_request(self, granted_world):
        world, patient, request = granted_world
        approval = create_approval_block(
            world.group, patient.secrets, request, TimeRange(2, 4), world.rng
        )
        assert verify_block(approval, world.directories, chain=world.chain)

    def test_narrowed_grant_recorded_and_valid(self, granted_world):
        world, patient, request = granted_world
        approval = create_approval_block(
            world.group, patient.secrets, request, TimeRange(3, 4), world.rng
        )
        assert approval.granted_range == TimeRange(3, 4)
        assert verify_block(approval, world.directories, chain=world.chain)

    def test_widened_grant_refused(self, granted_world):
        world, patient, request = granted_world
        with pytest.raises(RangeError):
            create_approval_block(world.group, patient.secrets, request, TimeRange(1, 4), world.rng)
        with pytest.raises(RangeError):
            create_approval_block(world.group, patient.secrets, request, TimeRange(2, 5), world.rng)

    def test_non_owner_cannot_approve(self, granted_world):
        world, patient, request = granted_world
        stranger = make_secrets_without(patient.secrets, request.parent_ptr)
        with pytest.raises(KeyError):
            create_approval_block(world.group, stranger, request, TimeRange(2, 4), world.rng)

    def test_forged_wider_approval_rejected_by_miners(self, granted_world):
        # Signature forged correctly but over a range outside the request.
        world, patient, request = granted_world
        from phrchain.crypto import sign
        from phrchain.ledger import ApprovalBlock

        record = patient.secrets.find(request.parent_ptr)
        wide = TimeRange(1, 5)
        message = request.canonical_bytes() + wide.to_bytes()
        forged = ApprovalBlock(
            parent_ptr=request.block_id,
            granted_range=wide,
            signature=sign(world.group, record.block_key, message, world.rng),
            group=world.group,
        )
        assert not verify_block(forged, world.directories, chain=world.chain)

    @given(start=st.integers(0, 30), end=st.integers(0, 30))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # fixture is read-only here
    )
    def test_narrowing_soundness_property(self, granted_world, start, end):
        world, patient, request = granted_world
        if start > end:
            return
        window = TimeRange(start, end)
        if request.requested_range.encloses(window):
            approval = create_approval_block(world.group, patient.secrets, request, window)
            assert request.requested_range.encloses(approval.granted_range)
        else:
            with pytest.raises(RangeError):
                create_approval_block(world.group, patient.secrets, request, window)


class TestDisclosurePackage:
    def test_item_counts(self, group):
        for k, expected in ((1, 5), (4, 14)):
            secrets = synth_secrets(group, k)
            package = build_disclosure_package(secrets, [r.block_id for r in secrets.records])
            assert package.k == k
            assert len(package.items) == expected == 3 * k + 2

    def test_item_count_law_exhaustive(self, group):
        secrets = synth_secrets(group, 64)
        ids = [r.block_id for r in secrets.records]
        for k in range(1, 65):
            package = build_disclosure_package(secrets, ids[:k])
            assert len(package.items) == 3 * k + 2

    def test_first_block_prefix_is_genesis(self, group):
        secrets = synth_secrets(group, 3)
        package = build_disclosure_package(secrets, [secrets.records[0].block_id])
        assert package.prefix_state == GENESIS_STATE

    def test_interior_prefix_is_previous_state(self, group):
        secrets = synth_secrets(group, 3)
        package = build_disclosure_package(secrets, [secrets.records[1].block_id])
        assert package.prefix_state == secrets.records[0].state

    def test_non_contiguous_selection_refused(self, group):
        secrets = synth_secrets(group, 4)
        ids = [r.block_id for r in secrets.records]
        with pytest.raises(NonContiguousError):
            build_disclosure_package(secrets, [ids[0], ids[2]])
        with pytest.raises(NonContiguousError):
            build_disclosure_package(secrets, [ids[1], ids[0]])
        with pytest.raises(ValueError):
            build_disclosure_package(secrets, [])

    def test_zero_block_package_refused(self, group):
        fields = (bytes(32), bytes(32), bytes(32))
        with pytest.raises(FormatError):
            DisclosurePackage.from_bytes(u32(0) + b"".join(fields))
        with pytest.raises(ValueError):
            DisclosurePackage(entries=(), prefix_state=fields[0], last_nonce=fields[1], last_block_id=fields[2])

    def test_terminal_fields_are_last_blocks(self, group):
        secrets = synth_secrets(group, 5)
        ids = [r.block_id for r in secrets.records]
        package = build_disclosure_package(secrets, ids[1:4])
        assert package.last_block_id == ids[3]
        assert package.last_nonce == secrets.records[3].nonce
        # No nonce or id of any non-terminal block travels in the package.
        flat = b"".join(package.items)
        for record in secrets.records[:3] + secrets.records[4:]:
            assert record.nonce not in flat
        for other_id in ids[:3] + ids[4:]:
            assert other_id not in flat

    def test_serialization_and_file_round_trip(self, group, tmp_path):
        secrets = synth_secrets(group, 3)
        package = build_disclosure_package(secrets, [r.block_id for r in secrets.records])
        raw = package.to_bytes()
        assert DisclosurePackage.from_bytes(raw) == package
        path = tmp_path / "grant.pkg"
        package.save(path)
        assert DisclosurePackage.load(path) == package
        assert f"{package.k} blocks" in package.describe()


class TestVerifyDisclosure:
    def _package(self, world, patient, first, last):
        ids = [r.block_id for r in patient.secrets.records[first : last + 1]]
        return build_disclosure_package(patient.secrets, ids)

    def test_honest_package_verifies(self, granted_world):
        world, patient, _ = granted_world
        package = self._package(world, patient, 1, 3)
        report = verify_disclosure(package, world.chain, world.store)
        assert report.chain_ok
        assert report.data_ok == (True, True, True)
        assert report.failure_index is None
        assert report.all_ok

    def test_empty_replay_of_a_verified_package_refused(self, granted_world):
        # A researcher who verified blocks 1-2 can refold them to block 2's
        # state; with block 2's nonce and id that state matches block 2's
        # commitment, so an empty package ending at block 2 would pass the fold.
        world, patient, _ = granted_world
        package = self._package(world, patient, 0, 1)
        assert verify_disclosure(package, world.chain, world.store).all_ok
        state = package.prefix_state
        for entry in package.entries:
            state = chain_state(entry.sym_key, entry.data_ptr, entry.data_digest, state)
        replay = u32(0) + state + package.last_nonce + package.last_block_id
        with pytest.raises(FormatError):
            DisclosurePackage.from_bytes(replay)

    def test_single_item_flip_detected(self, granted_world):
        world, patient, _ = granted_world
        package = self._package(world, patient, 1, 3)
        raw = bytearray(package.to_bytes())
        flip_positions = random.Random(31).sample(range(4, len(raw)), 40)
        for position in flip_positions:
            mutated = bytearray(raw)
            mutated[position] ^= 0x80
            report = verify_disclosure(
                DisclosurePackage.from_bytes(bytes(mutated)), world.chain, world.store
            )
            assert not report.all_ok, position

    def test_omitted_interior_triple_detected(self, granted_world):
        world, patient, _ = granted_world
        package = self._package(world, patient, 1, 3)
        shortened = dataclasses.replace(package, entries=package.entries[:1] + package.entries[2:])
        report = verify_disclosure(shortened, world.chain, world.store)
        assert not report.chain_ok

    def test_reordered_triples_detected(self, granted_world):
        world, patient, _ = granted_world
        package = self._package(world, patient, 1, 3)
        swapped = dataclasses.replace(
            package, entries=(package.entries[1], package.entries[0], package.entries[2])
        )
        report = verify_disclosure(swapped, world.chain, world.store)
        assert not report.chain_ok

    def test_truncated_package_detected(self, granted_world):
        world, patient, _ = granted_world
        package = self._package(world, patient, 1, 3)
        truncated = dataclasses.replace(package, entries=package.entries[:-1])
        report = verify_disclosure(truncated, world.chain, world.store)
        assert not report.chain_ok

    def test_missing_terminal_block_fails_closed(self, granted_world):
        world, patient, _ = granted_world
        package = self._package(world, patient, 1, 3)
        dangling = dataclasses.replace(package, last_block_id=bytes(32))
        report = verify_disclosure(dangling, world.chain, world.store)
        assert not report.chain_ok

    def test_wrong_plaintext_digest_flagged_with_index(self, granted_world):
        world, patient, _ = granted_world
        package = self._package(world, patient, 1, 3)
        bad_entry = DisclosureEntry(
            package.entries[1].sym_key, package.entries[1].data_ptr, bytes(32)
        )
        tampered = dataclasses.replace(
            package, entries=(package.entries[0], bad_entry, package.entries[2])
        )
        report = verify_disclosure(tampered, world.chain, world.store)
        assert report.data_ok == (True, False, True)
        assert report.failure_index == 1

    def test_granted_range_confinement(self, granted_world):
        # The package pins down exactly one on-chain commitment: the terminal one.
        world, patient, _ = granted_world
        package = self._package(world, patient, 1, 3)
        commitments = [b.commitment for b in world.chain.patient_blocks()]

        candidates = set(package.items)
        state = package.prefix_state
        from phrchain import state_commitment

        for entry in package.entries:
            state = chain_state(entry.sym_key, entry.data_ptr, entry.data_digest, state)
            candidates.add(state)
        assert not candidates & set(commitments)

        terminal = state_commitment(state, package.last_nonce)
        assert commitments.count(terminal) == 1
        assert world.chain.get(package.last_block_id).commitment == terminal
