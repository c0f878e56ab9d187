"""Canonical decoding: every decoder returns a value or raises FormatError,
and whatever it returns re-encodes to exactly the bytes it was given."""

import copy
import dataclasses
import hashlib
import pickle
import random
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from phrchain import (
    Chain,
    ConditionCodebook,
    ConsensusResult,
    CredentialProof,
    DisclosurePackage,
    HospitalContext,
    MinerPool,
    OffChainStore,
    PatientContext,
    PatientSecrets,
    Registry,
    RingProof,
    TimeRange,
    build_disclosure_package,
    create_approval_block,
    create_patient_block,
    create_request_block,
    digest,
    keygen,
    new_directories,
    ring_prove,
    run_consensus,
)
from phrchain import encoding as enc
from phrchain.consensus import verify_block
from phrchain.encoding import FILE_VERSION, FormatError, Reader, prefixed, prefixed_str, u16, u32, write_versioned
from phrchain.group import GroupParams
from phrchain.ledger import PTR_SIZE, decode_block, range_digest, range_message

GROUP = GroupParams.default()


@pytest.fixture(scope="module")
def seeded():
    """A seeded run: two patient blocks, a request for the second and its
    approval, each voted in, and what the parties kept."""
    rng = random.Random(41)
    directories = new_directories(GROUP)
    patient_kp, hospital_kp, researcher_kp = (keygen(GROUP, rng) for _ in range(3))
    for registry, kp in ((directories.patients, patient_kp), (directories.hospitals, hospital_kp),
                         (directories.researchers, researcher_kp)):
        registry.enroll(kp.public)
        registry.enroll(keygen(GROUP, rng).public)
    codebook = ConditionCodebook.default(lifetime=3, visit=2)
    store = OffChainStore()
    pool = MinerPool(n_miners=6, malicious_fraction=0.34, verify_jitter=1e-4)
    chain = Chain(GROUP)
    secrets = PatientSecrets()
    for visit in (1, 2):
        patient = PatientContext(patient_kp, 0, secrets)
        block, secrets = create_patient_block(
            patient, HospitalContext(hospital_kp, 0), b"visit %d" % visit,
            codebook.encode(["lifetime-001"], ["visit-000"]), directories, store, visit, rng,
        )
        chain.append(block, run_consensus(block, pool, directories, seed=visit))
    request = create_request_block(GROUP, researcher_kp, block, TimeRange(1, 9), rng)
    chain.append(request, run_consensus(request, pool, directories, 3, chain=chain))
    approval = create_approval_block(GROUP, secrets, request, TimeRange(1, 2), rng)
    chain.append(approval, run_consensus(approval, pool, directories, 4, chain=chain))
    return SimpleNamespace(
        directories=directories, researcher_kp=researcher_kp, codebook=codebook, store=store, pool=pool,
        chain=chain, secrets=secrets, block=block, request=request, approval=approval,
    )


@pytest.fixture(scope="module")
def samples(seeded):
    """Canonical bytes of one value of every wire type, from the seeded run."""
    block, request, approval, chain = seeded.block, seeded.request, seeded.approval, seeded.chain
    directories, codebook, secrets = seeded.directories, seeded.codebook, seeded.secrets
    return {
        "patient-block": block.canonical_bytes(),
        "request-block": request.canonical_bytes(),
        "approval-block": approval.canonical_bytes(),
        "credential": block.patient_credential.to_bytes(GROUP),
        "consensus-result": chain.entries()[-1].record.to_bytes(),
        "chain": chain.to_bytes(),
        "store": seeded.store.to_bytes(),
        "package": build_disclosure_package(secrets, [e.block_id for e in secrets.records]).to_bytes(),
        "group": GROUP.to_bytes(),
        "registry": Registry.MAGIC + u16(FILE_VERSION) + directories.hospitals.to_bytes(),
        "codebook": ConditionCodebook.MAGIC + u16(FILE_VERSION) + codebook.to_bytes(),
    }


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decoders")


def _through_file(cls, tmp_dir):
    def decode(data):
        path = tmp_dir / "in.bin"
        path.write_bytes(data)
        return cls.load(path)

    def encode(value):
        path = tmp_dir / "out.bin"
        value.save(path)
        return path.read_bytes()

    return decode, encode


# name -> (decode(bytes) -> value, encode(value) -> bytes); files go through load and save.
CODECS = {
    "patient-block": (lambda data: decode_block(data, GROUP), lambda block: block.canonical_bytes()),
    "request-block": (lambda data: decode_block(data, GROUP), lambda block: block.canonical_bytes()),
    "approval-block": (lambda data: decode_block(data, GROUP), lambda block: block.canonical_bytes()),
    "credential": (lambda data: CredentialProof.from_bytes(data, GROUP), lambda proof: proof.to_bytes(GROUP)),
    "consensus-result": (ConsensusResult.from_bytes, ConsensusResult.to_bytes),
    "chain": (Chain.from_bytes, Chain.to_bytes),
    "store": (OffChainStore.from_bytes, OffChainStore.to_bytes),
    "package": (DisclosurePackage.from_bytes, DisclosurePackage.to_bytes),
    "group": (GroupParams.from_bytes, GroupParams.to_bytes),
    "registry": Registry,
    "codebook": ConditionCodebook,
}


def _codec(name, tmp_dir):
    codec = CODECS[name]
    return codec if isinstance(codec, tuple) else _through_file(codec, tmp_dir)


def damaged(data: bytes):
    """The input after up to four edits, each overwriting, inserting or removing
    up to eight bytes at some position, and then perhaps cut short."""
    position = st.integers(0, len(data))
    chunk = st.binary(min_size=1, max_size=8)
    edit = st.one_of(
        st.tuples(position, chunk).map(lambda e: (e[0], len(e[1]), e[1])),  # overwrite
        st.tuples(position, st.just(0), chunk),  # insert
        st.tuples(position, st.integers(1, 8), st.just(b"")),  # remove
    )

    def apply(edits):
        changes, cut = edits
        raw = data
        for at, removed, inserted in changes:
            at %= len(raw) + 1
            raw = raw[:at] + inserted + raw[at + removed:]
        return raw[:cut]

    return st.tuples(st.lists(edit, max_size=4), st.integers(0, len(data) + 32) | st.none()).map(apply)


@pytest.mark.parametrize("name", list(CODECS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_decoder_returns_canonical_value_or_raises_format_error(samples, file_dir, name, data):
    decode, encode = _codec(name, file_dir)
    raw = data.draw(damaged(samples[name]), label="input")
    try:
        value = decode(raw)
    except FormatError:
        return
    assert encode(value) == raw


# ---------------------------------------------------------------------------
# Field-built inputs: a canonical sample is decoded once through a recording
# Reader, and new inputs are rebuilt from its fields with a few of them
# redrawn. Lengths of enclosing fields are recomputed, so one draw can make
# a coordinated edit (a padded integer and its length) at any depth.
# ---------------------------------------------------------------------------

_READS = ("take", "u8", "u16", "u32", "u64", "f64", "prefixed", "prefixed_str", "prefixed_int")
_FORMATS = {"u8": ">B", "u16": ">H", "u32": ">I", "u64": ">Q", "f64": ">d"}


@dataclass
class Field:
    """One top-level read: its kind and value, and for a length-prefixed
    field that was decoded further, the bytes before the nested structure."""

    kind: str
    value: object
    head: bytes = b""
    nested: "_Recorder | None" = None


class _Recorder(Reader):
    """A Reader that keeps its top-level reads, and links the Reader over a
    prefixed field's bytes to that field."""

    root: "_Recorder | None" = None
    last: Field | None = None

    def __init__(self, data: bytes):
        super().__init__(data)
        self.fields: list[Field] = []
        self._depth = 0
        last = _Recorder.last
        if last is not None and last.kind == "prefixed" and last.nested is None and last.value.endswith(data):
            last.head, last.nested = last.value[: len(last.value) - len(data)], self
        _Recorder.root = _Recorder.root or self


def _recorded(kind):
    def read(self, *args):
        self._depth += 1
        try:
            value = getattr(Reader, kind)(self, *args)
        finally:
            self._depth -= 1
        if not self._depth:
            _Recorder.last = Field(kind, value)
            self.fields.append(_Recorder.last)
        return value

    return read


for _kind in _READS:
    setattr(_Recorder, _kind, _recorded(_kind))


def record(decode, data: bytes) -> tuple[bytes, _Recorder]:
    """The file header (if any) and the recorded root Reader of one decode."""
    _Recorder.root, _Recorder.last = None, None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enc, "Reader", _Recorder)
        decode(data)
    root = _Recorder.root
    assert data.endswith(root._data)
    return data[: len(data) - len(root._data)], root


def _fields(reader: _Recorder):
    for field in reader.fields:
        yield field
        if field.nested is not None:
            yield from _fields(field.nested)


def rebuild(reader: _Recorder, replace) -> bytes:
    """The reader's input from its fields, nested ones rebuilt first;
    ``replace(field, content)`` returns other bytes for a field, or None."""
    parts = []
    for field in reader.fields:
        kind, value = field.kind, field.value
        content = field.head + rebuild(field.nested, replace) if field.nested is not None else value
        encoded = replace(field, content)
        if encoded is not None:
            parts.append(encoded)
        elif kind == "take":
            parts.append(value)
        elif kind in _FORMATS:
            parts.append(struct.pack(_FORMATS[kind], value))
        elif kind == "prefixed":
            parts.append(prefixed(content))
        elif kind == "prefixed_str":
            parts.append(prefixed_str(value))
        else:
            parts.append(enc.prefixed_int(value))
    return b"".join(parts)


def field_built(header: bytes, root: _Recorder):
    """Inputs rebuilt from the recorded fields with one to three of them
    redrawn: counts and lengths from a small pool, fixed-width chunks from
    the sample's other chunks of that width (pointers, elements, scalars),
    integers with leading zero bytes, framing lengths off by one."""
    fields = list(_fields(root))
    index = {id(field): i for i, field in enumerate(fields)}
    chunks: dict[int, list[bytes]] = {}
    numbers: dict[str, set[int]] = {}
    for field in fields:
        if field.kind == "take":
            chunks.setdefault(len(field.value), []).append(field.value)
        elif field.kind in _FORMATS and field.kind != "f64":
            numbers.setdefault(field.kind, set()).add(field.value)

    def redrawn(field: Field, content) -> st.SearchStrategy[bytes]:
        kind, value = field.kind, field.value
        if kind == "take":
            return st.sampled_from(chunks[len(value)]) | st.binary(min_size=len(value), max_size=len(value))
        if kind == "f64":
            return st.binary(min_size=8, max_size=8)
        if kind in _FORMATS:
            width = struct.calcsize(_FORMATS[kind])
            pool = numbers[kind] | {0, 1, value - 1, value + 1, -1}
            return st.sampled_from(sorted(pool)).map(lambda n: (n % 256**width).to_bytes(width, "big"))
        if kind == "prefixed":
            misframed = st.sampled_from([-1, 1]).map(lambda off: u32((len(content) + off) % 2**32) + content)
            return misframed | st.binary(max_size=40).map(prefixed)
        if kind == "prefixed_str":
            return st.sampled_from([b"", b"\xff", b"\xc3"]).map(prefixed)
        minimal = value.to_bytes((value.bit_length() + 7) // 8, "big")
        padded = st.integers(1, 2).map(lambda zeros: prefixed(bytes(zeros) + minimal))
        return padded | st.sampled_from([0, 1, value - 1, value + 1]).map(lambda n: enc.prefixed_int(max(n, 0)))

    @st.composite
    def built(draw):
        chosen = draw(st.sets(st.integers(0, len(fields) - 1), min_size=1, max_size=3), label="fields")
        return header + rebuild(
            root, lambda field, content: draw(redrawn(field, content)) if index[id(field)] in chosen else None
        )

    return built()


@pytest.fixture(scope="module")
def recorded(samples, file_dir):
    return {name: record(_codec(name, file_dir)[0], samples[name]) for name in CODECS}


def test_recorded_fields_rebuild_every_sample(samples, recorded):
    for name, (header, root) in recorded.items():
        assert header + rebuild(root, lambda field, content: None) == samples[name], name
    nested = [field.nested for field in _fields(recorded["chain"][1]) if field.nested is not None]
    assert len(nested) == 1 + 2 * 4 + 2 * 2  # the group, 4 blocks and records, 2 patient blocks' credentials


@pytest.mark.parametrize("name", list(CODECS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_decoder_on_field_built_input(recorded, file_dir, name, data):
    decode, encode = _codec(name, file_dir)
    raw = data.draw(field_built(*recorded[name]), label="input")
    try:
        value = decode(raw)
    except FormatError:
        return
    assert encode(value) == raw


@pytest.mark.parametrize("name", ["patient-block", "request-block", "approval-block"])
def test_decoded_block_id_is_the_hash_of_its_input(samples, name):
    data = samples[name]
    block = decode_block(data, GROUP)
    assert not _held_bytes(block, data)  # the input bytes are not kept
    assert block.block_id == digest(data) == digest(block.canonical_bytes())
    assert block.canonical_bytes() == data


def _held_bytes(block, data: bytes) -> list[str]:
    """The names under which a block holds a bytes value as long as its encoding."""
    return [name for name, value in vars(block).items() if isinstance(value, bytes) and len(value) >= len(data)]


# SHA-256 of request and approval blocks, signatures included, recorded
# while a block kept its bytes and each range message was hashed whole:
# the seeded run's request and approval, then a request against its
# decoded parent and an approval of that request decoded.
PINNED_RANGE_BLOCKS = {
    "request": "7a88792d41169d909f3667a3acae380c0f6f979a33e78f037f8e660d570b9a79",
    "approval": "cace1cd82816966067af617483c1a2ca0bb163657585a3678a708d65b644a78c",
    "decoded-parent request": "1070fbf09148861dcc09e36d8c8468b3d96a4dbf1f9fcf2ad534748da7e36049",
    "decoded-request approval": "3d00f585781aaf1cc7995597915e58b02538dcc27711f9a524836798fd62fc6c",
}


class TestRangeSignatures:
    """Requests and approvals sign and check ``range_digest``, hashed on from
    each block's kept state; ``range_message`` is the oracle."""

    def test_the_range_digest_is_the_digest_of_the_range_message(self, seeded):
        decoded = Chain.from_bytes(seeded.chain.to_bytes())
        created = [seeded.block, seeded.request]
        # Decoded copies, and fresh copies whose state a range digest makes first.
        blocks = created + [decoded.get(b.block_id) for b in created] + [dataclasses.replace(b) for b in created]
        for block in blocks:
            for window in (TimeRange(0, 0), TimeRange(3, 7), TimeRange(2**63, 2**64 - 1)):
                expected = digest(range_message(block, window))
                assert range_digest(block, window).digest == expected
                assert range_digest(block, window).digest == expected  # the kept state is copied, not fed
            assert block.block_id == digest(block.canonical_bytes())

    def test_a_decoded_parent_keeps_no_bytes_once_signed_over(self, seeded, samples):
        chain = Chain.from_bytes(seeded.chain.to_bytes())
        parent = chain.get(seeded.block.block_id)
        request = create_request_block(GROUP, seeded.researcher_kp, parent, TimeRange(2, 2), random.Random(7))
        assert verify_block(request, seeded.directories, chain)
        received = decode_block(request.canonical_bytes(), GROUP)
        chain.append(received, run_consensus(received, seeded.pool, seeded.directories, 5, chain=chain))
        approval = create_approval_block(GROUP, seeded.secrets, received, TimeRange(2, 2), random.Random(8))
        assert verify_block(approval, seeded.directories, chain)
        for block, data in ((parent, samples["patient-block"]), (received, request.canonical_bytes())):
            assert "_encoding" not in vars(block) and not _held_bytes(block, data)
        signed = {
            "request": seeded.request, "approval": seeded.approval,
            "decoded-parent request": request, "decoded-request approval": approval,
        }
        assert {name: hashlib.sha256(block.canonical_bytes()).hexdigest() for name, block in signed.items()} == (
            PINNED_RANGE_BLOCKS
        )

    @pytest.mark.parametrize("name", ["patient-block", "request-block", "approval-block"])
    def test_a_block_copies_and_pickles_without_its_hash_state(self, samples, name):
        block = decode_block(samples[name], GROUP)
        for twin in (copy.copy(block), copy.deepcopy(block), pickle.loads(pickle.dumps(block))):
            assert twin == block and twin.block_id == block.block_id
            assert twin._hashed is not block._hashed
            if name != "approval-block":
                window = TimeRange(1, 2)
                assert range_digest(twin, window) == range_digest(block, window)


def _store_bytes(*entries):
    return u32(len(entries)) + b"".join(ptr + prefixed(ciphertext) for ptr, ciphertext in entries)


class TestStoreOrder:
    def test_duplicate_pointer_rejected(self):
        ptr = bytes(range(PTR_SIZE))
        with pytest.raises(FormatError, match="strictly increasing"):
            OffChainStore.from_bytes(_store_bytes((ptr, b"a"), (ptr, b"b")))

    def test_out_of_order_pointers_rejected(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            OffChainStore.from_bytes(_store_bytes((b"\xff" * PTR_SIZE, b"a"), (bytes(PTR_SIZE), b"b")))


class TestGroupField:
    def test_leading_zero_byte_rejected(self, tiny_group):
        def encoded(modulus):
            return prefixed_str("tiny-23") + prefixed(modulus) + prefixed(b"\x0b") + prefixed(b"\x04")

        assert tiny_group.to_bytes() == encoded(b"\x17")
        assert GroupParams.from_bytes(encoded(b"\x17")) == tiny_group
        with pytest.raises(FormatError, match="leading zero"):
            GroupParams.from_bytes(encoded(b"\x00\x17"))

    def test_junk_inside_registry_group_field_rejected(self, tiny_group, tmp_path):
        path = tmp_path / "padded.registry"
        write_versioned(path, Registry.MAGIC, FILE_VERSION,
                        prefixed(tiny_group.to_bytes() + b"junk") + prefixed_str("patient") + u32(0))
        with pytest.raises(FormatError, match="trailing"):
            Registry.load(path)

    def test_junk_inside_chain_group_field_rejected(self, tiny_group):
        with pytest.raises(FormatError, match="trailing"):
            Chain.from_bytes(prefixed(tiny_group.to_bytes() + b"junk") + u32(0))


def _ring_proof(data: bytes) -> RingProof:
    return enc.decode(data, RingProof.read_from, GROUP)


class TestRingBody:
    """``RingProof.read_from`` takes the branch records in one read and checks
    their range rules on the bytes: a count larger than the body, a cut at
    any branch boundary and an out-of-range field are each a ``FormatError``."""

    @pytest.fixture()
    def proof_bytes(self):
        rng = random.Random(42)
        kps = [keygen(GROUP, rng) for _ in range(4)]
        proof = ring_prove(GROUP, [kp.public for kp in kps], 2, kps[2].secret, b"ctx", rng)
        return proof.to_bytes(GROUP)

    def test_round_trip(self, proof_bytes):
        assert _ring_proof(proof_bytes).to_bytes(GROUP) == proof_bytes

    def test_hostile_branch_count(self, proof_bytes):
        for count in (2**32 - 1, 5, 2**32 // 96 + 1):
            with pytest.raises(FormatError, match="truncated"):
                _ring_proof(u32(count) + proof_bytes[4:])

    def test_truncated_at_every_branch_boundary(self, proof_bytes):
        width = GROUP.element_size + 2 * GROUP.scalar_size
        ends = [4 + width * i + offset for i in range(4) for offset in (0, GROUP.element_size, width - 1)]
        for end in ends + [len(proof_bytes) - 1]:
            with pytest.raises(FormatError, match="truncated"):
                _ring_proof(proof_bytes[:end])

    @pytest.mark.parametrize("field", ["commitment", "challenge", "response"])
    def test_out_of_range_field_refused(self, proof_bytes, field):
        element, scalar = GROUP.element_size, GROUP.scalar_size
        width = element + 2 * scalar
        start = {"commitment": 0, "challenge": element, "response": element + scalar}[field]
        size = element if field == "commitment" else scalar
        values = (0, GROUP.modulus, 2**256 - 1) if field == "commitment" else (GROUP.order, 2**256 - 1)
        message = "element out of range" if field == "commitment" else "scalar out of range"
        for branch in range(4):
            at = 4 + branch * width + start
            for value in values:
                data = proof_bytes[:at] + value.to_bytes(size, "big") + proof_bytes[at + size:]
                with pytest.raises(FormatError, match=message):
                    _ring_proof(data)
