import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from phrchain import (
    credential_prove,
    credential_verify,
    keygen,
    ring_prove,
    ring_verify,
    schnorr_prove,
    schnorr_verify,
    sign,
    verify_signature,
)
from phrchain import group as group_module
from phrchain.encoding import FormatError
from phrchain.group import BignumError, GroupParams, _Key

PACKAGE_ROOT = Path(group_module.__file__).resolve().parents[1]

# Safe primes p = 2q + 1; 4 generates the order-q subgroup of each.
SAFE_PRIMES = (5, 7, 11, 23, 47, 59, 83, 107, 167, 179, 227, 263)


def test_default_parameters_are_a_safe_prime_group(group):
    # sympy is the independent primality oracle here.
    assert sympy.isprime(group.modulus)
    assert sympy.isprime(group.order)
    assert group.modulus == 2 * group.order + 1
    assert group.modulus.bit_length() == 256
    assert pow(group.generator, group.order, group.modulus) == 1
    assert group.generator != 1


def test_element_and_scalar_sizes(group):
    assert group.element_size == 32
    assert group.scalar_size == 32


def test_encode_decode_round_trip(group):
    rng = random.Random(0)
    for _ in range(50):
        x = group.exp(group.generator, group.random_scalar(rng))
        assert group.decode_element(group.encode_element(x)) == x
        s = group.random_scalar(rng)
        assert group.decode_scalar(group.encode_scalar(s)) == s


def test_decode_rejects_out_of_range(group):
    with pytest.raises(FormatError):
        group.decode_element(group.encode_element(group.modulus - 1)[:-1])
    with pytest.raises(FormatError):
        group.decode_element(bytes(32))  # zero is not an element
    with pytest.raises(FormatError):
        group.decode_element(group.modulus.to_bytes(32, "big"))
    too_big = (group.order + 5).to_bytes(32, "big")
    with pytest.raises(FormatError):
        group.decode_scalar(too_big)
    with pytest.raises(FormatError):
        group.decode_scalar(bytes(33))


def test_invalid_generator_rejected(group):
    with pytest.raises(ValueError):
        GroupParams(group_id="bad", modulus=group.modulus, order=group.order, generator=1)
    with pytest.raises(ValueError):
        # order 2q element: -1 is not in the quadratic-residue subgroup
        GroupParams(group_id="bad", modulus=23, order=11, generator=22)


def test_exp_handles_negative_exponents(group):
    rng = random.Random(1)
    y = group.exp(group.generator, group.random_scalar(rng))
    c = group.random_scalar(rng)
    assert group.exp(y, c) * group.exp(y, -c) % group.modulus == 1


def test_identity_exponent_gives_generator(group):
    assert group.exp(group.generator, 1) == group.generator


def test_keygen_seeded_is_byte_identical(group):
    a = keygen(group, random.Random(1234))
    b = keygen(group, random.Random(1234))
    assert a == b
    assert group.encode_element(a.public) == group.encode_element(b.public)


def test_keygen_public_matches_secret(group):
    rng = random.Random(2)
    for _ in range(20):
        kp = keygen(group, rng)
        assert 1 <= kp.secret < group.order
        assert kp.public == group.exp(group.generator, kp.secret)


def test_keygen_distinct_seeds_distinct_publics(group):
    # Collision scan across independently seeded draws.
    publics = {keygen(group, random.Random(seed)).public for seed in range(10_000)}
    assert len(publics) == 10_000


def test_tiny_group_discrete_log_oracle(tiny_group):
    # Brute-force dlog in the order-11 subgroup confirms keygen arithmetic.
    rng = random.Random(4)
    table = {tiny_group.exp(tiny_group.generator, e): e for e in range(tiny_group.order)}
    for _ in range(50):
        kp = keygen(tiny_group, rng)
        assert table[kp.public] == kp.secret

    subgroup = set(table)
    assert len(subgroup) == tiny_group.order
    for value in range(1, tiny_group.modulus):
        assert tiny_group.is_element(value) == (value in subgroup and value != 1)


def test_modulus_must_be_safe_prime_of_order():
    # 4**22 == 1 mod 23 (Fermat), but 22 is not (23 - 1) / 2, so the order-22
    # "subgroup" would contain non-residues and the Jacobi test would be wrong.
    with pytest.raises(ValueError):
        GroupParams(group_id="bad", modulus=23, order=22, generator=4)


@given(exponent=st.integers(-(2**300), 2**300))
@settings(max_examples=200, deadline=None)
def test_comb_exp_equals_pow(group, exponent):
    assert group.exp(group.generator, exponent) == pow(
        group.generator, exponent % group.order, group.modulus
    )


def test_comb_exp_exhaustive_on_tiny_group(tiny_group):
    for exponent in range(-30, 30):
        assert tiny_group.exp(tiny_group.generator, exponent) == pow(
            tiny_group.generator, exponent % tiny_group.order, tiny_group.modulus
        )


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0: the oracle for ``is_element``.

    Binary reduction: strip factors of two (each flips the sign when
    n = 3 or 5 mod 8), then swap by quadratic reciprocity (a flip when both
    are 3 mod 4) and reduce.
    """
    a %= n
    sign = 1
    while a:
        if not a & 1:
            twos = (a & -a).bit_length() - 1
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):
                sign = -sign
        if a & n & 2:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _euler_is_element(group, value):
    return 1 < value < group.modulus and pow(value, group.order, group.modulus) == 1


def _jacobi_is_element(group, value):
    return 1 < value < group.modulus and _jacobi(value, group.modulus) == 1


def test_jacobi_is_element_exhaustive_on_tiny_group(tiny_group):
    for value in range(-3, tiny_group.modulus + 3):
        expected = _euler_is_element(tiny_group, value)
        assert tiny_group.is_element(value) == _jacobi_is_element(tiny_group, value) == expected


@given(value=st.integers(-5, 2**256 + 5))
@settings(max_examples=300, deadline=None)
def test_jacobi_is_element_equals_euler(group, value):
    assert group.is_element(value) == _jacobi_is_element(group, value) == _euler_is_element(group, value)


def test_jacobi_is_element_on_edge_values(group):
    p = group.modulus
    for value in (0, 1, 2, 3, 4, p - 4, p - 2, p - 1, p, p + 1):
        assert group.is_element(value) == _jacobi_is_element(group, value) == _euler_is_element(group, value)
    rng = random.Random(9)
    squares = [pow(rng.randrange(2, p - 1), 2, p) for _ in range(200)]
    assert all(group.is_element(x) for x in squares)
    assert not any(group.is_element(p - x) for x in squares)


@pytest.mark.parametrize("modulus", SAFE_PRIMES)
def test_is_element_against_the_jacobi_oracle_on_small_safe_primes(modulus):
    g = GroupParams(f"tiny-{modulus}", modulus, modulus // 2, 4)
    for value in range(-2, 2 * modulus):
        assert g.is_element(value) == _jacobi_is_element(g, value)


# ---------------------------------------------------------------------------
# The libcrypto kernel against pow
# ---------------------------------------------------------------------------


def _bases(group):
    """Subgroup keys, the values a key can be mistaken for (0, p, -y, y + p,
    2^300), and any int."""
    p, q, g = group.modulus, group.order, group.generator
    key = st.integers(1, q - 1).map(lambda secret: pow(g, secret, p))
    return st.one_of(
        st.sampled_from([0, 1, p - 1, p, 2**300, -(2**300)]),
        key,
        key.map(lambda y: -y),
        key.map(lambda y: y + p),
        st.integers(-(2**300), 2**300),
    )


_EXPONENTS = st.one_of(st.just(0), st.integers(0, 2**300))


@given(base=_bases(GroupParams.default()), exponent=st.one_of(st.just(0), st.integers(-(2**300), 2**300)))
@settings(max_examples=300, deadline=None)
def test_exp_equals_pow(group, base, exponent):
    assert group.exp(base, exponent) == pow(base, exponent % group.order, group.modulus)


# The kernel's one two-base product, g^s * y^e (``BN_mod_exp2_mont``), is a
# value of the commitment column; a signature's check takes a column of one.
# The column reads each challenge and response as ``scalar_size`` bytes; the
# helpers below hand it an int outside that range by its class mod p - 1,
# which is all that the value depends on (g^(p - 1) = y^(p - 1) = 1, and a
# key of 0 meets 0^0 exactly when -c is 0 mod p - 1).


def _fit(group, value):
    if not 0 <= value < 256**group.scalar_size:
        value %= group.modulus - 1
    return value.to_bytes(group.scalar_size, "big")


def _scalars(group, challenges, responses):
    """The prover column's input: c || s for each branch."""
    return b"".join(_fit(group, c) + _fit(group, s) for c, s in zip(challenges, responses))


def _elements(group, data):
    size = group.element_size
    return [int.from_bytes(data[i : i + size], "big") for i in range(0, len(data), size)]


def _commitments(group, keys, challenges, responses):
    """The prover's column (``schnorr_commitments``) over int inputs, decoded."""
    ring = group.ring_table(keys)
    return _elements(group, group.schnorr_commitments([(ring, len(ring))], _scalars(group, challenges, responses)))


def _records(group, commitments, challenges, responses):
    """The verifier column's input: t || c || s for each branch."""
    return b"".join(
        group.encode_element(t) + _fit(group, c) + _fit(group, s) for t, c, s in zip(commitments, challenges, responses)
    )


def _both_columns(group, keys, challenges, responses):
    """The prover's column, checked by the verifier's (``schnorr_failure``):
    every value holds as its record's commitment, and a commitment one off
    fails at its own index."""
    values, ring = _commitments(group, keys, challenges, responses), group.ring_table(keys)
    assert group.schnorr_failure([ring], _records(group, values, challenges, responses)) is None
    if values:
        last = len(values) - 1
        wrong = values[:last] + [values[last] ^ 1]
        assert group.schnorr_failure([ring], _records(group, wrong, challenges, responses)) == last
    return values


def _one_value(group, key, challenge, response):
    """g^response * key^((-challenge) mod (p - 1)) as a signature's check takes it."""
    [value] = _commitments(group, (key,), (challenge,), (response,))
    return value


@given(
    key=_bases(GroupParams.default()),
    challenge=st.integers(-(2**300), 2**300),
    response=_EXPONENTS,
)
@settings(max_examples=300, deadline=None)
def test_exp2_equals_pow_product(group, key, challenge, response):
    assert [_one_value(group, key, challenge, response)] == _column_oracle(group, [key], [challenge], [response])


@pytest.mark.parametrize("modulus", SAFE_PRIMES[:4])
def test_exp_and_exp2_exhaustive_on_tiny_groups(modulus):
    # Every residue, 0 and the modulus itself among the bases and keys,
    # every exponent class (and p - 1 itself) for exp, and for the
    # one-value column every challenge class mod p - 1 (so a key of 0 meets
    # 0^0) and every response below the modulus.
    g = GroupParams(f"tiny-{modulus}", modulus, modulus // 2, 4)
    bases = range(-1, modulus + 1)
    for a in bases:
        for x in range(-2 * g.order, 2 * g.order + 1):
            assert g.exp(a, x) == pow(a, x % g.order, modulus)
        for challenge in range(modulus):
            for response in range(modulus):
                expected = pow(4, response, modulus) * pow(a, -challenge % (modulus - 1), modulus) % modulus
                assert _one_value(g, a, challenge, response) == expected, (a, challenge, response)


# ---------------------------------------------------------------------------
# Keyed powers and products of powers through the kernel
# ---------------------------------------------------------------------------


def _key_exp_oracle(group, key, exponent):
    return pow(key, exponent % group.order, group.modulus)


def _key_powers(group, key, exponent):
    """key^exponent both ways the program computes a power of a public key:
    ``exp``, and the key half of the Schnorr commitment, where
    g^0 * key^-(-exponent) is a column of one value."""
    return group.exp(key, exponent), _one_value(group, key, -exponent, 0)


@given(secret=st.integers(1, GroupParams.default().order - 1), exponent=st.integers(-(2**300), 2**300))
@settings(max_examples=300, deadline=None)
def test_key_exp_equals_pow(group, secret, exponent):
    key = pow(group.generator, secret, group.modulus)
    assert _key_powers(group, key, exponent) == (_key_exp_oracle(group, key, exponent),) * 2


def test_key_exp_edge_exponents(group):
    rng = random.Random(16)
    q = group.order
    for key in [keygen(group, rng).public for _ in range(5)] + [1, group.generator]:
        for exponent in (0, 1, q - 1, q, q + 1, -1, -q, 2**256, 2**256 + 1):
            assert _key_powers(group, key, exponent) == (_key_exp_oracle(group, key, exponent),) * 2


def test_key_exp_exhaustive_on_tiny_group(tiny_group):
    # Every subgroup element, the identity included, at every exponent
    # class from both sides of zero.
    elements = [x for x in range(1, tiny_group.modulus) if pow(x, tiny_group.order, tiny_group.modulus) == 1]
    assert len(elements) == tiny_group.order
    for key in elements:
        for exponent in range(-2 * tiny_group.order, 2 * tiny_group.order + 1):
            expected = _key_exp_oracle(tiny_group, key, exponent)
            assert _key_powers(tiny_group, key, exponent) == (expected, expected)


def test_key_exp_cold_and_warm_cache_agree(group):
    # The one cache a keyed power reads is the modulus's Montgomery context.
    rng = random.Random(17)
    key, exponent = keygen(group, rng).public, group.random_scalar(rng)
    group_module._montgomery.cache_clear()
    cold = _key_powers(group, key, -exponent)
    assert group_module._montgomery.cache_info().currsize == 1
    warm = _key_powers(group, key, -exponent)
    assert group_module._montgomery.cache_info().hits >= 1
    assert cold == warm == (_key_exp_oracle(group, key, -exponent),) * 2


# More inputs for the column: runs of up to 40 hostile (key, challenge,
# response) rows, and random keys at fixed counts with exponents mod q,
# 128-bit and 0, each run one column against pow.


@given(
    rows=st.lists(
        st.tuples(_bases(GroupParams.default()), st.integers(-(2**300), 2**300), _EXPONENTS),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_multi_exp_equals_pow_product(group, rows):
    keys, challenges, responses = zip(*rows)
    assert _both_columns(group, keys, challenges, responses) == _column_oracle(group, keys, challenges, responses)


@pytest.mark.parametrize("count", [0, 1, 2, 5, 6, 7, 64, 300])
def test_multi_exp_at_fixed_sizes(group, tiny_group, count):
    rng = random.Random(count)
    for g in (group, tiny_group):
        keys = [rng.randrange(1, g.modulus) for _ in range(count)] + [1]
        for exponents in (
            [rng.randrange(g.order) for _ in range(count)] + [0],
            [rng.getrandbits(128) for _ in range(count)] + [0],
            [0] * (count + 1),
        ):
            responses = exponents[1:] + exponents[:1]
            assert _both_columns(g, keys, exponents, responses) == _column_oracle(g, keys, exponents, responses)


# ---------------------------------------------------------------------------
# The commitment column: g^s * y^((-c) mod (p - 1)) for each ring branch
# ---------------------------------------------------------------------------


def _column_oracle(group, keys, challenges, responses):
    p = group.modulus
    return [
        pow(group.generator, s, p) * pow(y, -c % (p - 1), p) % p for y, c, s in zip(keys, challenges, responses)
    ]


def _column_inputs(group, m, seed):
    rng = random.Random(seed)
    keys = [keygen(group, rng).public for _ in range(m)]
    return keys, [group.random_scalar(rng) for _ in keys], [group.random_scalar(rng) for _ in keys]


@pytest.mark.parametrize("m", [1, 2, 128, 4000])
def test_commitment_column_equals_pow(group, m):
    keys, challenges, responses = _column_inputs(group, m, 40 + m)
    assert _both_columns(group, keys, challenges, responses) == _column_oracle(group, keys, challenges, responses)


def test_commitment_column_on_hostile_keys(group):
    # Keys a Registry refuses, each with every challenge shape: 0 and p - 1
    # (so a key of 0 mod p meets 0^0), 1, order - 1, the widest the bytes
    # hold and a random one; responses 0, the widest and random.
    p = group.modulus
    rng = random.Random(41)
    non_residue = p - keygen(group, rng).public
    assert not group.is_element(non_residue)
    hostile = (0, 1, p - 1, p, -1, 2**256, non_residue, 2 * p, -p)
    rows = [
        (key, challenge, response)
        for key in hostile
        for challenge in (0, 1, group.order - 1, p - 1, 2**256 - 1, group.random_scalar(rng))
        for response in (0, 2**256 - 1, group.random_scalar(rng))
    ]
    keys, challenges, responses = zip(*rows)
    column = _both_columns(group, keys, challenges, responses)
    assert column == _column_oracle(group, keys, challenges, responses)
    assert column == [_one_value(group, *row) for row in rows]


def test_columns_refuse_records_of_the_wrong_length(group):
    ring = group.ring_table([group.generator] * 3)
    with pytest.raises(ValueError, match="takes 192 bytes"):
        group.schnorr_commitments([(ring, 3)], bytes(191))
    with pytest.raises(ValueError, match="takes 288 bytes"):
        group.schnorr_failure([ring], bytes(289))


@pytest.mark.parametrize("modulus", SAFE_PRIMES[:4])
def test_commitment_column_exhaustive_on_tiny_groups(modulus):
    # Every key residue (0 and the modulus among them), every challenge
    # class mod p - 1 and every response below the order, in one column.
    g = GroupParams(f"tiny-{modulus}", modulus, modulus // 2, 4)
    rows = [
        (key, challenge, response)
        for key in range(-1, modulus + 1)
        for challenge in range(modulus)
        for response in range(g.order)
    ]
    keys, challenges, responses = zip(*rows)
    assert _both_columns(g, keys, challenges, responses) == _column_oracle(g, keys, challenges, responses)


def _watch_the_column(monkeypatch, inside, values):
    """While the column computes a run of values (``_Pinned.run``), ``inside``
    is not empty; each key it reaches, one per value, goes to ``values``."""
    run = group_module._Pinned.run

    def watched(self, group, keys, *args):
        inside.append(True)
        try:
            return run(self, group, (values.append(key) or key for key in keys), *args)
        finally:
            inside.pop()

    monkeypatch.setattr(group_module._Pinned, "run", watched)


def test_provers_and_verifiers_reach_the_kernel_only_through_the_column(group, monkeypatch):
    # Every BN_mod_exp2_mont call is made while the commitment column is
    # computing a value, once a value, for every prover and every verifier.
    rng = random.Random(44)
    kps = [keygen(group, rng) for _ in range(4)]
    ring = [kp.public for kp in kps]
    block_kp = keygen(group, rng)
    real = group_module._BN_mod_exp2_mont
    inside, kernel, values = [], [], []

    def recorded(*args):
        kernel.append(bool(inside))
        return real(*args)

    monkeypatch.setattr(group_module, "_BN_mod_exp2_mont", recorded)
    _watch_the_column(monkeypatch, inside, values)
    signature = sign(group, kps[0], b"message", rng)
    proof = schnorr_prove(group, kps[0], b"ctx", rng)
    membership = ring_prove(group, ring, 1, kps[1].secret, b"ctx", rng)
    credential = credential_prove(group, ring, 2, kps[2].secret, block_kp, rng)
    assert len(kernel) == len(values) == 2 * (len(ring) - 1)
    assert verify_signature(group, ring[0], b"message", signature)
    assert schnorr_verify(group, ring[0], proof, b"ctx")
    assert ring_verify(group, ring, membership, b"ctx")
    assert credential_verify(group, ring, block_kp.public, credential)
    assert len(kernel) == len(values) == 2 * (len(ring) - 1) + 1 + 1 + len(ring) + len(ring) + 1
    assert all(kernel)


def test_columns_between_other_kernel_calls_in_one_thread(group, tiny_group):
    # Columns of two groups share the thread's scratch numbers, taken in
    # turn, with a one-value column, an exp and a membership test between them.
    first = _column_inputs(group, 50, 42)
    second = _column_inputs(tiny_group, 50, 43)
    second = ([y + 23 * i for i, y in enumerate(second[0])], *second[1:])
    a_values, b_values = [], []
    for i in range(0, 50, 10):
        a_values += _both_columns(group, *(column[i : i + 10] for column in first))
        assert _one_value(group, 7, -11, 5) == pow(4, 5, group.modulus) * pow(7, 11, group.modulus) % group.modulus
        assert group.exp(3, 5) == 243 and not group.is_element(group.modulus - 4)
        b_values += _both_columns(tiny_group, *(column[i : i + 10] for column in second))
    assert a_values == _column_oracle(group, *first)
    assert b_values == _column_oracle(tiny_group, *second)


def test_threads_compute_columns_exactly(group, tiny_group):
    # As for one-value columns: more threads than cores, switching often,
    # overlapping in the kernel on the pinned generator that every thread of
    # a modulus reads.
    groups = [group, tiny_group, group, tiny_group]
    jobs = [_column_inputs(g, 300, 50 + i) for i, g in enumerate(groups)]
    start = threading.Barrier(len(groups))
    results = [None] * len(groups)

    def work(i):
        start.wait(timeout=60)
        results[i] = _both_columns(groups[i], *jobs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(groups))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for g, job, result in zip(groups, jobs, results):
        assert result == _column_oracle(g, *job)


def test_contexts_are_bounded_and_rebuilt_after_eviction(group):
    groups = [GroupParams(f"tiny-{p}", p, p // 2, 4) for p in SAFE_PRIMES] + [group]
    for _ in range(2):
        for g in groups:
            p = g.modulus
            assert _one_value(g, 3, 5, 7) == pow(3, -5 % (p - 1), p) * pow(4, 7, p) % p
    for cache in (group_module._montgomery, group_module._pinned):
        assert cache.cache_info().currsize <= cache.cache_info().maxsize == 8


def test_key_entries_keep_their_operands_and_free_them_when_evicted(group, monkeypatch):
    # A key is prepared once, at its first column, in its kept entry, and a
    # later column reads the operand there; an evicted entry frees its
    # BIGNUM once no kept ring table holds it either, and the key is
    # prepared afresh at its next column.
    keys, challenges, responses = _column_inputs(group, 6, 47)
    expected = _column_oracle(group, keys, challenges, responses)
    group_module._key_verdict.cache_clear()
    group_module._ring_tables.clear()
    prepared, prepare = [], group_module._prepare
    freed, finalize = [], _Key.__del__
    monkeypatch.setattr(group_module, "_prepare", lambda g, key, entry: prepared.append(key) or prepare(g, key, entry))
    monkeypatch.setattr(_Key, "__del__", lambda self: freed.append(self.inverse) or finalize(self))
    assert group.key_is_element(keys[0]).inverse is None  # a verdict alone prepares nothing
    assert _commitments(group, keys, challenges, responses) == expected
    assert _commitments(group, keys, challenges, responses) == expected
    assert prepared == keys
    addresses = [group.key_is_element(key).inverse for key in keys]
    assert all(addresses) and len(set(addresses)) == 6
    for value in range(-1, -group_module._KEY_VERDICTS - 1, -1):
        group.key_is_element(value)  # cheap non-members push the six keys out
    group_module._ring_tables.clear()
    assert set(addresses) <= set(freed)
    assert _commitments(group, keys, challenges, responses) == expected
    assert prepared == keys + keys
    group_module._key_verdict.cache_clear()



def test_equal_key_tuples_share_one_kept_table(group):
    # A stale prefix of a registry, sliced afresh at each check, is a new
    # tuple each time: it finds the table kept for the first such slice and
    # takes that slot over, so the live ring's table stays kept, and a tuple
    # that stays finds the table by its identity from then on.
    keys = tuple(_column_inputs(group, 300, 48)[0])
    group_module._ring_tables.clear()
    live, stale = group.ring_table(keys), group.ring_table(keys[:200])
    for _ in range(2 * group_module._RINGS):
        assert group.ring_table(keys[:200]) is stale
    assert len(group_module._ring_tables) == 2 and group.ring_table(keys) is live
    kept = keys[:200]
    assert group.ring_table(kept) is stale and group_module._ring_tables[(group, id(kept))] == (kept, stale)
    group_module._ring_tables.clear()

def test_threads_compute_exp2_exactly(group, tiny_group):
    # ctypes releases the GIL around each libcrypto call, so the threads
    # (more of them than cores, switching often) overlap inside the kernel,
    # each with its own scratch numbers; two of them share the tiny modulus.
    # Each value is a column of its own, as a signature's check takes it,
    # so every value looks up the modulus's context and pinned generator.
    rng = random.Random(31)
    groups = [group, tiny_group, group, tiny_group]
    jobs = [
        [(rng.randrange(g.modulus), rng.getrandbits(256), rng.getrandbits(256)) for _ in range(300)]
        for g in groups
    ]
    start = threading.Barrier(len(groups))
    results = [None] * len(groups)

    def work(i):
        start.wait(timeout=60)
        results[i] = [_one_value(groups[i], *job) for job in jobs[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(groups))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for g, job_list, result in zip(groups, jobs, results):
        assert result == _column_oracle(g, *zip(*job_list))


def test_a_failing_bignum_call_raises():
    # libcrypto has no Montgomery form for an even modulus, and says so.
    with pytest.raises(BignumError, match="BN_MONT_CTX_set"):
        group_module._mod_exp(3, 5, 24)


@pytest.mark.parametrize(
    "blocker",
    [
        "sys.modules['_hashlib'] = None",
        "def refuse(name, *args, **kwargs):\n    raise OSError(f'{name}: cannot open shared object file')\n"
        "ctypes.CDLL = refuse",
    ],
    ids=["no-hashlib", "no-libcrypto"],
)
def test_import_fails_naming_libcrypto(blocker):
    # No fallback: without the library, importing the package fails and says which library.
    code = f"import ctypes, sys\n{blocker}\nimport phrchain\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE_ROOT), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode != 0
    assert "ImportError: phrchain computes in the group through libcrypto.so.3" in result.stderr


def test_verifiers_raise_on_a_failing_bignum_call(group, monkeypatch):
    # A kernel fault is a program fault: no verifier may turn it into False.
    rng = random.Random(32)
    kps = [keygen(group, rng) for _ in range(3)]
    ring = [kp.public for kp in kps]
    block_kp = keygen(group, rng)
    signature = sign(group, kps[0], b"message", rng)
    proof = schnorr_prove(group, kps[0], b"ctx", rng)
    membership = ring_prove(group, ring, 1, kps[1].secret, b"ctx", rng)
    credential = credential_prove(group, ring, 2, kps[2].secret, block_kp, rng)
    checks = (
        lambda: verify_signature(group, ring[0], b"message", signature),
        lambda: schnorr_verify(group, ring[0], proof, b"ctx"),
        lambda: ring_verify(group, ring, membership, b"ctx"),
        lambda: credential_verify(group, ring, block_kp.public, credential),
    )
    assert all(check() for check in checks)
    even = group_module._BN_bin2bn(b"\x18", 1, None)
    real = group_module._BN_mod_exp2_mont

    def refused(result, a, x, b, y, modulus, ctx, mont):
        # The real call, with a modulus libcrypto refuses.
        return real(result, a, x, b, y, even, ctx, None)

    monkeypatch.setattr(group_module, "_BN_mod_exp2_mont", refused)
    try:
        for check in checks:
            with pytest.raises(BignumError, match="BN_mod_exp2_mont"):
                check()
    finally:
        group_module._BN_free(even)


@pytest.mark.parametrize(
    "call, failure", [("BN_mod_exp2_mont", 0), ("BN_bin2bn", None), ("BN_bn2binpad", -1)]
)
def test_provers_raise_on_a_failing_bignum_call_in_the_column(group, monkeypatch, call, failure):
    # A kernel fault while a prover computes its simulated branches is a
    # program fault too: the prover raises and returns no proof. The call
    # answers its failure value only inside the commitment column.
    rng = random.Random(33)
    kps = [keygen(group, rng) for _ in range(3)]
    ring = [kp.public for kp in kps]
    block_kp = keygen(group, rng)
    real = getattr(group_module, f"_{call}")
    inside = []

    def refused(*args):
        return failure if inside else real(*args)

    monkeypatch.setattr(group_module, f"_{call}", refused)
    _watch_the_column(monkeypatch, inside, [])
    provers = (
        lambda: ring_prove(group, ring, 1, kps[1].secret, b"ctx", rng),
        lambda: credential_prove(group, ring, 2, kps[2].secret, block_kp, rng),
        lambda: _commitments(group, ring, [1, 2, 3], [4, 5, 6]),
    )
    for prove in provers:
        with pytest.raises(BignumError, match=call):
            prove()
    monkeypatch.undo()
    # The fault left nothing behind in the thread's scratch numbers.
    assert ring_verify(group, ring, ring_prove(group, ring, 1, kps[1].secret, b"ctx", rng), b"ctx")
