"""Differential tests: ``ring_verify`` against the per-branch verifier.

``reference_ring_verify`` is the straightforward verifier that checks each
branch equation on its own with ``pow``. It is kept here as the oracle.
The library checks every branch on its own as well, through one value
of the commitment column each (t == g^s * y^-c). The corpus mixes honest
proofs, forged responses, the byte-flip / omission / transposition /
witness-free-forgery mutation classes of the acceptance suite,
commitments outside the subgroup, the identity commitment the per-branch
equation accepts, and ring keys a ``Registry`` would refuse, which both
verifiers reject before any equation. Rings above 128 keys, which an earlier
verifier batched, keep their own corpus and the sign attack of Boyd and
Pavlovski, which defeats a weighted batch without a membership test.
"""

import dataclasses
import functools
import hashlib
import os
import random
import secrets

import pytest

from phrchain import (
    RingProof,
    SchnorrProof,
    credential_prove,
    credential_verify,
    crypto,
    keygen,
    ring_prove,
    ring_verify,
    schnorr_prove,
    sign,
)
from phrchain import group as group_module
from phrchain.crypto import _commitment_bytes, _ring_binding_challenge
from phrchain.encoding import FormatError, Reader, decode
from phrchain.group import GroupParams

# The full corpus runs at the small sizes and a lighter one at the large.
RING_SIZES = (1, 2, 3, 8, 64, 128)
LARGE_RING_SIZES = (129, 200)


@functools.lru_cache(maxsize=None)
def _euler_member(p, q, key):
    return 1 < key < p and pow(key, q, p) == 1


def reference_ring_verify(group, ring, proof, context):
    """Per-branch verifier: range checks, ring keys in the subgroup (Euler's
    criterion), binding hash, challenge sum, m equations."""
    if len(proof.branches) != len(ring) or len(ring) == 0:
        return False
    if not all(_euler_member(group.modulus, group.order, key) for key in ring):
        return False
    for branch in proof.branches:
        if not (0 <= branch.challenge < group.order and 0 <= branch.response < group.order):
            return False
        if not (1 <= branch.commitment < group.modulus):
            return False
    commitments = b"".join(group.encode_element(b.commitment) for b in proof.branches)
    binding = _ring_binding_challenge(group, context, _commitment_bytes(group, commitments))
    if binding != proof.binding_challenge:
        return False
    if sum(b.challenge for b in proof.branches) % group.order != binding:
        return False
    for key, branch in zip(ring, proof.branches):
        lhs = pow(group.generator, branch.response, group.modulus)
        rhs = branch.commitment * pow(key, branch.challenge, group.modulus) % group.modulus
        if lhs != rhs:
            return False
    return True


def craft(group, ring, index, secret, context, rng, *, fixed=None, nonce=None, replace=None):
    """A ring proof built the way ``ring_prove`` builds one, with overrides.

    ``fixed`` maps a simulated branch to its (challenge, response);
    ``nonce`` sets the witness nonce; ``replace`` maps a branch to a
    commitment substituted before the binding hash, so the hash and the
    challenge split stay consistent and only the branch equation can fail.
    """
    fixed = fixed or {}
    replace = replace or {}
    witness_nonce = group.random_scalar(rng) if nonce is None else nonce
    commitments, simulated = [], {}
    for i, key in enumerate(ring):
        if i == index:
            commitment = pow(group.generator, witness_nonce, group.modulus)
        else:
            c, s = fixed.get(i) or (group.random_scalar(rng), group.random_scalar(rng))
            commitment = group.exp(group.generator, s) * group.exp(key, -c) % group.modulus
            simulated[i] = (c, s)
        commitments.append(replace.get(i, commitment))
    return bind(group, context, commitments, index, secret, witness_nonce, simulated)


def bind(group, context, commitments, index, secret, nonce, simulated):
    """Hash the commitments and solve the witness branch, as the prover does.

    ``simulated`` maps every other branch to its (challenge, response).
    """
    encoded = b"".join(map(group.encode_element, commitments))
    binding = _ring_binding_challenge(group, context, _commitment_bytes(group, encoded))
    real_c = (binding - sum(c for c, _ in simulated.values())) % group.order
    real_s = (nonce + real_c * secret) % group.order
    branches = tuple(
        SchnorrProof(t, real_c, real_s) if i == index else SchnorrProof(t, *simulated[i])
        for i, t in enumerate(commitments)
    )
    return RingProof(branches, binding)


def negate_simulated(group, ring, index, secret, context, rng, base, positions):
    """``base`` re-proved with the simulated commitments at ``positions``
    negated and re-bound into the hash: each of those branch equations is off
    by a factor -1 alone, which a batch raises to its weight."""
    return craft(
        group, ring, index, secret, context, rng,
        fixed={i: (base.branches[i].challenge, base.branches[i].response) for i in positions},
        replace={i: group.modulus - base.branches[i].commitment for i in positions},
    )


def _with_branch(proof, i, branch):
    branches = list(proof.branches)
    branches[i] = branch
    return RingProof(tuple(branches), proof.binding_challenge)


def corpus(group, size, rng):
    """(label, ring, proof, expected verdict or None when either is allowed) triples."""
    kps = [keygen(group, rng) for _ in range(size)]
    ring = [kp.public for kp in kps]
    ctx = b"ctx"
    p, q = group.modulus, group.order
    witness = size // 2
    secret = kps[witness].secret
    other = (witness + 1) % size

    # Every branch up to 64 keys; the ends and the middle above, to keep the
    # 128-key corpus fast.
    spots = range(size) if size <= 64 else (0, witness, size - 1)
    honest = {}
    for index in spots:
        honest[index] = ring_prove(group, ring, index, kps[index].secret, ctx, rng)
        yield f"honest@{index}", ring, honest[index], True
    base = honest[witness]

    for i in spots:
        branch = base.branches[i]
        forged = SchnorrProof(branch.commitment, branch.challenge, (branch.response + 1) % q)
        yield f"forged-response@{i}", ring, _with_branch(base, i, forged), False

    # Acceptance 08: every single-byte flip of the serialized proof.
    if size <= 3:
        raw = base.to_bytes(group)
        for position in range(len(raw)):
            mutated = bytearray(raw)
            mutated[position] ^= 0x01
            try:
                reader = Reader(bytes(mutated))
                parsed = RingProof.read_from(reader, group)
                reader.expect_end()
            except (FormatError, ValueError):
                continue
            yield f"byte-flip@{position}", ring, parsed, None

    # Acceptance 08: witness-free forgery, every branch simulated.
    branches = []
    for key in ring:
        c, s = group.random_scalar(rng), group.random_scalar(rng)
        t = group.exp(group.generator, s) * group.exp(key, -c) % group.modulus
        branches.append(SchnorrProof(t, c, s))
    commitments = b"".join(group.encode_element(b.commitment) for b in branches)
    binding = _ring_binding_challenge(group, ctx, _commitment_bytes(group, commitments))
    yield "witness-free", ring, RingProof(tuple(branches), binding), None

    # Acceptance 07: omission, transposition, wrong context.
    yield "omitted-branch", ring, RingProof(base.branches[1:], base.binding_challenge), False
    if size > 1:
        swapped = list(base.branches)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        yield "transposed", ring, RingProof(tuple(swapped), base.binding_challenge), None
        yield "wrong-ring", list(reversed(ring)), base, None
    yield "wrong-context", ring, craft(group, ring, witness, secret, b"other", rng), False

    if size > 1:
        # Two forged responses whose errors cancel in an unweighted product.
        up, down = base.branches[0], base.branches[-1]
        pair = _with_branch(base, 0, SchnorrProof(up.commitment, up.challenge, (up.response + 1) % q))
        pair = _with_branch(
            pair, size - 1, SchnorrProof(down.commitment, down.challenge, (down.response - 1) % q)
        )
        yield "compensating-responses", ring, pair, False

    # Commitment substitutions, each re-bound into the hash.
    def rebound(**overrides):
        return craft(group, ring, witness, secret, ctx, rng, **overrides)

    t = base.branches[witness].commitment
    yield "negated-witness-commitment", ring, rebound(replace={witness: p - t}), False
    yield "identity-witness-commitment", ring, rebound(nonce=0), True
    if size > 1:
        yield "identity-c0-s0", ring, rebound(fixed={other: (0, 0)}), True
        for label, value in (("zero", 0), ("one", 1), ("minus-one", p - 1), ("modulus", p)):
            yield f"commitment-{label}", ring, rebound(replace={other: value}), False
        yield "negated-simulated-commitment", ring, negate_simulated(
            group, ring, witness, secret, ctx, rng, base, (other,)
        ), False
    simulated = [i for i in range(size) if i != witness]
    for count in (2, 3):
        if len(simulated) >= count:
            yield f"negated-simulated-{count}", ring, negate_simulated(
                group, ring, witness, secret, ctx, rng, base, simulated[:count]
            ), False

    # Ring keys a Registry refuses, at a simulated branch, each rejected by
    # the gate: the honest proof (whose equation still holds at y + p and
    # y - p), one simulated with the hostile key itself, and one whose
    # hostile branch has c = s = 0, whose equation any key satisfies.
    if size > 1:
        y = ring[other]
        hostile_keys = (
            ("plus-modulus", y + p), ("minus-modulus", y - p), ("zero", 0), ("negated", -y),
            ("wide", y + 2**256), ("minus-one", p - 1), ("identity", 1),
        )
        for label, key in hostile_keys:
            hostile = list(ring)
            hostile[other] = key
            yield f"key-{label}", hostile, base, False
            yield f"key-{label}-simulated", hostile, craft(group, hostile, witness, secret, ctx, rng), False
            yield f"key-{label}-c0-s0", hostile, craft(
                group, hostile, witness, secret, ctx, rng, fixed={other: (0, 0)}
            ), False


def large_corpus(group, size, rng):
    """The labels of ``corpus`` that matter above 128 keys, at the first,
    middle and last branch, as (label, ring, proof, expected) triples."""
    kps = [keygen(group, rng) for _ in range(size)]
    ring = [kp.public for kp in kps]
    ctx = b"ctx"
    q = group.order
    witness = size // 3
    secret = kps[witness].secret
    ends = (0, size // 2, size - 1)
    for index in ends:
        yield f"honest@{index}", ring, ring_prove(group, ring, index, kps[index].secret, ctx, rng), True
    base = ring_prove(group, ring, witness, secret, ctx, rng)
    for i in ends:
        branch = base.branches[i]
        forged = SchnorrProof(branch.commitment, branch.challenge, (branch.response + 1) % q)
        yield f"forged-response@{i}", ring, _with_branch(base, i, forged), False
    p = group.modulus
    for label, value in (("zero", 0), ("one", 1), ("minus-one", p - 1), ("modulus", p)):
        replaced = craft(group, ring, witness, secret, ctx, rng, replace={ends[1]: value})
        yield f"commitment-{label}", ring, replaced, False
    for i in ends:
        yield f"negated-simulated-commitment@{i}", ring, negate_simulated(
            group, ring, witness, secret, ctx, rng, base, (i,)
        ), False
    # Two signs cancel in one product of the negated commitments; three do not.
    for count in (2, 3):
        yield f"negated-simulated-{count}", ring, negate_simulated(
            group, ring, witness, secret, ctx, rng, base, ends[:count]
        ), False


@pytest.fixture(params=["default", "tiny-23"])
def any_group(request, group, tiny_group):
    return group if request.param == "default" else tiny_group


@pytest.mark.parametrize("size", RING_SIZES + LARGE_RING_SIZES)
def test_batched_verify_agrees_with_per_branch_oracle(any_group, size):
    rng = random.Random(1000 + size)
    verdicts = set()
    cases = corpus if size in RING_SIZES else large_corpus
    for label, ring, proof, expected in cases(any_group, size, rng):
        reference = reference_ring_verify(any_group, ring, proof, b"ctx")
        assert ring_verify(any_group, ring, proof, b"ctx") == reference, label
        # In a group of order 11 a wrong branch or hash matches by chance one
        # time in eleven, so only the default group pins the verdict itself.
        if expected is not None and any_group.order > 2**128:
            assert reference == expected, label
        verdicts.add(reference)
    assert verdicts == {True, False}


@pytest.mark.parametrize("size", RING_SIZES + LARGE_RING_SIZES)
def test_decoded_proofs_agree_with_in_memory_and_pow(any_group, size):
    # Every corpus entry, rebuilt from SchnorrProof objects, encoded and
    # decoded: a proof kept as its wire records gets the verdict of the
    # same proof held as ints and of the pow oracle. An entry whose bytes
    # break a range rule is refused at decode, and rejected in memory.
    rng = random.Random(1000 + size)
    cases = corpus if size in RING_SIZES else large_corpus
    decoded_verdicts = set()
    for label, ring, proof, _ in cases(any_group, size, rng):
        in_memory = RingProof(tuple(proof.branches), proof.binding_challenge)
        reference = reference_ring_verify(any_group, ring, in_memory, b"ctx")
        assert ring_verify(any_group, ring, in_memory, b"ctx") == reference, label
        wire = in_memory.to_bytes(any_group)
        try:
            decoded = decode(wire, RingProof.read_from, any_group)
        except FormatError:
            assert reference is False, label
            continue
        assert ring_verify(any_group, ring, decoded, b"ctx") == reference, label
        assert decoded.to_bytes(any_group) == wire, label
        assert decoded.branches == in_memory.branches, label
        assert decoded == in_memory, label
        decoded_verdicts.add(reference)
    assert decoded_verdicts == {True, False}


def test_out_of_range_values_that_keep_every_equation_are_rejected(group):
    # A challenge c + q or a response s + q still fits its 32 bytes, and it
    # keeps the challenge sum, the binding hash and every branch equation
    # (g and each key have order q). Only the range rules refuse it: the
    # ring gate for a proof in memory, bare or in a credential, and the
    # decoder for its bytes.
    rng = random.Random(128)
    kps = [keygen(group, rng) for _ in range(4)]
    ring = [kp.public for kp in kps]
    p, q = group.modulus, group.order
    block_kp = keygen(group, rng)
    credential = credential_prove(group, ring, 2, kps[2].secret, block_kp, rng)
    bare = ring_prove(group, ring, 1, kps[1].secret, b"ctx", rng)
    checks = (
        (bare, lambda proof: ring_verify(group, ring, proof, b"ctx"), b"ctx"),
        (credential.membership, lambda proof: credential_verify(
            group, ring, block_kp.public, dataclasses.replace(credential, membership=proof)
        ), credential.joint_context),
    )
    for honest, verify, context in checks:
        assert verify(honest)
        for i, branch in enumerate(honest.branches):
            for shifted in (
                SchnorrProof(branch.commitment, branch.challenge + q, branch.response),
                SchnorrProof(branch.commitment, branch.challenge, branch.response + q),
            ):
                forged = _with_branch(honest, i, shifted)
                assert sum(b.challenge for b in forged.branches) % q == forged.binding_challenge
                assert all(
                    pow(group.generator, b.response, p) == b.commitment * pow(y, b.challenge, p) % p
                    for y, b in zip(ring, forged.branches)
                )
                assert reference_ring_verify(group, ring, forged, context) is False
                assert verify(forged) is False
                with pytest.raises(FormatError, match="scalar out of range"):
                    decode(forged.to_bytes(group), RingProof.read_from, group)


def test_weights_do_not_come_from_caller_rng(group, monkeypatch):
    # A prover who controls the caller's RNG controls nothing the verifier
    # decides with.
    rng = random.Random(5)
    kps = [keygen(group, rng) for _ in range(129)]
    ring = [kp.public for kp in kps]
    proof = craft(group, ring, 0, kps[0].secret, b"ctx", rng)
    branch = proof.branches[3]
    forged = _with_branch(
        proof, 3, SchnorrProof(branch.commitment, branch.challenge, (branch.response + 1) % group.order)
    )
    monkeypatch.setattr(random.Random, "getrandbits", lambda self, k: 0)
    monkeypatch.setattr(random.Random, "randrange", lambda self, *args: 0)
    assert not ring_verify(group, ring, forged, b"ctx")


@pytest.fixture()
def calls(monkeypatch):
    """Records the draws from the operating system RNG (``secrets.randbits``,
    ``random.SystemRandom`` and ``os.urandom``), the values tested for
    membership during a check, and under ``commitments`` the products of
    two powers: each value the commitment column computes, one per ring
    branch and one per Schnorr-shaped check. The prover's column
    (``schnorr_commitments``, over its ring without the witness position)
    computes every value; the verifier's (``schnorr_failure``) stops at the
    first that fails, in one process. A Schnorr-shaped check runs the
    column's kernel on its one record (``crypto._schnorr_equation``)."""
    seen = {"system_draws": 0, "commitments": 0, "is_element": []}
    randbits, getrandbits, urandom = secrets.randbits, random.SystemRandom.getrandbits, os.urandom
    column, failure, is_element = GroupParams.schnorr_commitments, GroupParams.schnorr_failure, GroupParams.is_element
    equation = crypto._schnorr_equation

    def counted(draw):
        def wrapper(*args):
            seen["system_draws"] += 1
            return draw(*args)
        return wrapper

    def counted_column(self, keys, scalars, skip=None):
        seen["commitments"] += len(keys) - (skip is not None)
        return column(self, keys, scalars, skip)

    def counted_failure(self, keys, records):
        failed = failure(self, keys, records)
        seen["commitments"] += len(keys) if failed is None else failed + 1
        return failed

    def counted_equation(*args):
        seen["commitments"] += 1
        return equation(*args)

    def counted_is_element(self, value):
        seen["is_element"].append(value)
        return is_element(self, value)

    monkeypatch.setattr(secrets, "randbits", counted(randbits))
    monkeypatch.setattr(random.SystemRandom, "getrandbits", counted(getrandbits))
    monkeypatch.setattr(os, "urandom", counted(urandom))
    monkeypatch.setattr(GroupParams, "schnorr_commitments", counted_column)
    monkeypatch.setattr(GroupParams, "schnorr_failure", counted_failure)
    monkeypatch.setattr(crypto, "_schnorr_equation", counted_equation)
    monkeypatch.setattr(GroupParams, "is_element", counted_is_element)
    return seen


def _seeded_proofs(group, sizes, seed):
    """Per size, a ring of that many keys and an honest proof over it."""
    rng = random.Random(seed)
    kps = [keygen(group, rng) for _ in range(max(sizes))]
    ring = [kp.public for kp in kps]
    return [(ring[:m], ring_prove(group, ring[:m], 3, kps[3].secret, b"ctx", rng)) for m in sizes]


def test_small_rings_check_each_branch(group, calls):
    # One commitment per branch, no randomness and membership tests of
    # public keys alone, for bare ring proofs of 16 and 128 keys and for
    # both credentials of a 16/8-key patient block, whose possession half
    # is one more value. Both streams start from seed 14, so some of the
    # credentials' commitments equal keys of the 128-key ring: a value is
    # tested as a key, never as a commitment.
    rng = random.Random(14)
    kps = [keygen(group, rng) for _ in range(16)]
    ring = [kp.public for kp in kps]
    proofs = _seeded_proofs(group, (16, 128), 14)
    calls["commitments"] = 0
    for subring, proof in proofs:
        assert ring_verify(group, subring, proof, b"ctx")
    assert calls["commitments"] == 16 + 128
    credentials = []
    for size in (16, 8):
        block_kp = keygen(group, rng)
        credential = credential_prove(group, ring[:size], 1, kps[1].secret, block_kp, rng)
        credentials.append((ring[:size], block_kp.public, credential))
    calls["commitments"] = 0
    for subring, public, credential in credentials:
        assert credential_verify(group, subring, public, credential)
    assert calls["commitments"] == 16 + 1 + 8 + 1
    keys = {y for subring, _ in proofs for y in subring} | {public for _, public, _ in credentials}
    assert calls["system_draws"] == 0
    assert set(calls["is_element"]) <= keys


def test_large_rings_check_each_branch(group, calls):
    # Rings of 129 and 1000 keys take the same path as small ones: no bits
    # from the operating system RNG, and one commitment per branch.
    proofs = _seeded_proofs(group, (129, 1000), 15)
    calls["commitments"] = 0
    for ring, proof in proofs:
        assert ring_verify(group, ring, proof, b"ctx")
    assert calls["commitments"] == 129 + 1000
    assert calls["system_draws"] == 0
    assert not {b.commitment for _, proof in proofs for b in proof.branches} & set(calls["is_element"])
    assert not hasattr(crypto, "secrets")


def test_verify_stops_at_the_first_failing_branch(group, calls, monkeypatch):
    # A response forged at branch 3 of a 129-key ring: the column computes
    # branches 0 to 3, and the kernel runs four times, not 129.
    [(ring, proof)] = _seeded_proofs(group, (129,), 16)
    branch = proof.branches[3]
    forged = _with_branch(
        proof, 3, SchnorrProof(branch.commitment, branch.challenge, (branch.response + 1) % group.order)
    )
    kernel = []
    real = group_module._BN_mod_exp2_mont

    def counted(*args):
        kernel.append(args)
        return real(*args)

    monkeypatch.setattr(group_module, "_BN_mod_exp2_mont", counted)
    calls["commitments"] = 0
    assert not ring_verify(group, ring, forged, b"ctx")
    assert calls["commitments"] == len(kernel) == 4
    assert ring_verify(group, ring, proof, b"ctx")
    assert calls["commitments"] == 4 + 129


def test_seeded_transcripts_match_recorded_digest(group):
    # Recorded from the per-branch implementation: proving draws from the
    # caller's RNG in the same order, so transcripts stay byte-identical.
    rng = random.Random(2024)
    kps = [keygen(group, rng) for _ in range(9)]
    ring = [kp.public for kp in kps]
    block_kp = keygen(group, rng)
    blob = b"".join([
        credential_prove(group, ring, 4, kps[4].secret, block_kp, rng).to_bytes(group),
        ring_prove(group, ring, 0, kps[0].secret, b"ctx", rng).to_bytes(group),
        schnorr_prove(group, block_kp, b"ctx", rng).to_bytes(group),
        sign(group, block_kp, b"message", rng).to_bytes(group),
    ])
    assert len(blob) == 2156
    assert hashlib.sha256(blob).hexdigest() == (
        "100952b125bf627beefa3ead02c0795847c73dae2db96783a98b430bf7480079"
    )


def batch_only_verify(group, ring, proof, rng):
    """A weighted batch of the branch equations with no membership test of
    any kind: g^(sum w_i s_i) == prod t_i^w_i * y_i^(w_i c_i mod q).

    Each power is one ``exp``, exact here: every weight is below the order,
    so t_i^w_i needs no reduction even for a commitment outside the subgroup.
    """
    p = group.modulus
    weights = [rng.getrandbits(128) for _ in ring]
    lhs = pow(group.generator, sum(w * b.response for w, b in zip(weights, proof.branches)), p)
    rhs = 1
    for w, key, b in zip(weights, ring, proof.branches):
        rhs = rhs * group.exp(b.commitment, w) * group.exp(key, w * b.challenge) % p
    return lhs == rhs


def test_sign_attack_rejected_above_threshold(group):
    # A prover negates one to three simulated commitments before hashing.
    # Each bad equation is off by -1 alone, so a weighted product without a
    # membership test holds whenever the negated weights sum to an even number.
    rng = random.Random(77)
    size = 200
    kps = [keygen(group, rng) for _ in range(size)]
    ring = [kp.public for kp in kps]
    witness, nonce = 7, group.random_scalar(rng)
    honest = craft(group, ring, witness, kps[witness].secret, b"ctx", rng, nonce=nonce)
    simulated = {i: (b.challenge, b.response) for i, b in enumerate(honest.branches) if i != witness}
    batch_only_accepted = 0
    for _ in range(120):
        positions = rng.sample(sorted(simulated), rng.randint(1, 3))
        commitments = [b.commitment for b in honest.branches]
        for i in positions:
            commitments[i] = group.modulus - commitments[i]
        proof = bind(group, b"ctx", commitments, witness, kps[witness].secret, nonce, simulated)
        assert not ring_verify(group, ring, proof, b"ctx"), positions
        batch_only_accepted += batch_only_verify(group, ring, proof, rng)
    assert batch_only_accepted > 0


def test_prover_kernel_calls_do_not_depend_on_the_witness_index(group, monkeypatch):
    # The witness check, the simulated branches' column, then the witness
    # commitment: one sequence of kernel calls for every index of an 8-key ring.
    rng = random.Random(17)
    kps = [keygen(group, rng) for _ in range(8)]
    ring = [kp.public for kp in kps]
    sequence = []
    for name in ("_BN_mod_exp_mont", "_BN_mod_exp2_mont"):
        def recorded(*args, name=name, real=getattr(group_module, name)):
            sequence.append(name)
            return real(*args)

        monkeypatch.setattr(group_module, name, recorded)
    sequences = set()
    for index, kp in enumerate(kps):
        sequence.clear()
        ring_prove(group, ring, index, kp.secret, b"ctx", rng)
        sequences.add(tuple(sequence))
    assert sequences == {("_BN_mod_exp_mont",) + ("_BN_mod_exp2_mont",) * 7 + ("_BN_mod_exp_mont",)}
