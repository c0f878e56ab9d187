import itertools
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from phrchain import keygen
from phrchain.encoding import FormatError
from phrchain.group import GroupParams, _fold_bit_planes, _key_comb_table


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
    assert group.mul(group.exp(y, c), group.exp(y, -c)) == 1


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


def test_generator_table_shared_across_default_calls():
    assert GroupParams.default()._comb is GroupParams.default()._comb


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


def _key_exp_oracle(group, key, exponent):
    return pow(key, exponent % group.order, group.modulus)


@given(secret=st.integers(1, GroupParams.default().order - 1), exponent=st.integers(-(2**300), 2**300))
@settings(max_examples=300, deadline=None)
def test_key_exp_equals_pow(group, secret, exponent):
    key = pow(group.generator, secret, group.modulus)
    assert group.key_exp(key, exponent) == _key_exp_oracle(group, key, exponent)


def test_key_exp_edge_exponents(group):
    rng = random.Random(16)
    q = group.order
    for key in [keygen(group, rng).public for _ in range(5)] + [1, group.generator]:
        for exponent in (0, 1, q - 1, q, q + 1, -1, -q, 2**256, 2**256 + 1):
            assert group.key_exp(key, exponent) == _key_exp_oracle(group, key, exponent)


def test_key_exp_exhaustive_on_tiny_group(tiny_group):
    # Every subgroup element, the identity included, at every exponent
    # class from both sides of zero.
    elements = [x for x in range(1, tiny_group.modulus) if pow(x, tiny_group.order, tiny_group.modulus) == 1]
    assert len(elements) == tiny_group.order
    for key in elements:
        for exponent in range(-2 * tiny_group.order, 2 * tiny_group.order + 1):
            assert tiny_group.key_exp(key, exponent) == _key_exp_oracle(tiny_group, key, exponent)


def test_key_exp_cold_and_warm_cache_agree(group):
    rng = random.Random(17)
    key, exponent = keygen(group, rng).public, group.random_scalar(rng)
    _key_comb_table.cache_clear()
    cold = group.key_exp(key, -exponent)
    assert _key_comb_table.cache_info().currsize == 1
    warm = group.key_exp(key, -exponent)
    assert _key_comb_table.cache_info().hits >= 1
    assert cold == warm == _key_exp_oracle(group, key, -exponent)


def test_key_table_is_sixteen_packed_elements(group, tiny_group):
    for g in (group, tiny_group):
        key = g.generator
        packed = _key_comb_table(g.modulus, g.order, key)
        assert len(packed) == 16 * g.element_size
        assert packed[: g.element_size] == (1).to_bytes(g.element_size, "little")


def _pow_product(group, bases, exponents):
    result = 1
    for base, exponent in zip(bases, exponents):
        result = result * pow(base, exponent, group.modulus) % group.modulus
    return result


@given(
    pairs=st.lists(
        st.tuples(st.integers(1, 2**256), st.one_of(st.just(0), st.integers(0, 2**300))),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_multi_exp_equals_pow_product(group, pairs):
    # Arbitrary residues, not only subgroup elements: multi_exp is exact.
    bases = [base % group.modulus or 1 for base, _ in pairs]
    exponents = [exponent for _, exponent in pairs]
    assert group.multi_exp(bases, exponents) == _pow_product(group, bases, exponents)


@pytest.mark.parametrize("count", [0, 1, 2, 5, 6, 7, 64, 300])
def test_multi_exp_at_fixed_sizes(group, tiny_group, count):
    rng = random.Random(count)
    for g in (group, tiny_group):
        bases = [rng.randrange(1, g.modulus) for _ in range(count)]
        for exponents in (
            [rng.randrange(g.order) for _ in range(count)],
            [rng.getrandbits(128) for _ in range(count)],
            [0] * count,
        ):
            assert g.multi_exp(bases, exponents) == _pow_product(g, bases, exponents)


def test_multi_exp_rejects_length_mismatch_and_negative_exponents(group):
    with pytest.raises(ValueError):
        group.multi_exp([group.generator], [])
    for count in (1, 10):
        with pytest.raises(ValueError):
            group.multi_exp([group.generator] * count, [1] * (count - 1) + [-1])


def _naive_plane(values, selectors, bit, modulus):
    """Product of the values whose selector has the given bit set."""
    result = 1
    for value, selector in zip(values, selectors):
        if selector >> bit & 1:
            result = result * value % modulus
    return result


@given(data=st.data(), c=st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_fold_bit_planes_equals_naive_products(group, data, c):
    p = group.modulus
    buckets = data.draw(st.lists(st.one_of(st.just(1), st.integers(1, p - 1)), min_size=2**c, max_size=2**c))
    planes = _fold_bit_planes(buckets, p)
    assert planes == [_naive_plane(buckets, range(2**c), bit, p) for bit in range(c)]


@given(
    pairs=st.lists(st.tuples(st.integers(1, 2**256), st.integers(0, 2**300)), max_size=40),
    planes=st.integers(0, 140),
)
@settings(max_examples=60, deadline=None)
def test_multi_exp_planes_reads_bit_products(group, pairs, planes):
    # Plane b is the product of the bases whose exponent has bit b set,
    # whatever the window size multi_exp picks for this many bases.
    p = group.modulus
    bases = [base % p or 1 for base, _ in pairs]
    exponents = [exponent for _, exponent in pairs]
    product, products = group.multi_exp_planes(bases, exponents, planes)
    assert product == _pow_product(group, bases, exponents)
    assert products == [_naive_plane(bases, exponents, bit, p) for bit in range(planes)]


@pytest.mark.parametrize("count", [1, 300, 8000])
def test_multi_exp_planes_at_ring_verify_sizes(group, count):
    # 8000 bases is a 4000-key ring, where the windows are 10 bits wide and
    # the window at bit 120 reaches past the 128 planes that are read.
    rng = random.Random(count)
    p = group.modulus
    bases = [rng.randrange(1, p) for _ in range(count)]
    half = count // 2
    exponents = [rng.getrandbits(128) for _ in range(half)]
    exponents += [rng.randrange(group.order) for _ in range(count - half)]
    product, products = group.multi_exp_planes(bases, exponents, 128)
    assert product == group.multi_exp(bases, exponents)
    for bit in (0, 9, 10, 119, 120, 127):
        assert products[bit] == _naive_plane(bases, exponents, bit, p)


def _bucket_membership(group, commitments, keys, rng):
    """The membership read of ring_verify above 128 keys, alone: rounds of
    fresh k-bit weights on the commitments and exponents below the order on
    the keys, each passing only if every bit-plane product is a residue."""
    k = min(128, group.order.bit_length() - 1)
    for _ in range(-(-128 // k)):
        exponents = [rng.getrandbits(k) for _ in commitments] + [rng.randrange(group.order) for _ in keys]
        _, planes = group.multi_exp_planes(commitments + keys, exponents, k)
        if not all(map(group.is_residue, planes)):
            return False
    return True


def test_bucket_membership_exhaustive_on_tiny_group(tiny_group):
    # Every multiset of up to three values in [1, 23) among the commitments
    # of a 129-key ring whose other commitments and keys are subgroup elements.
    g = tiny_group
    rng = random.Random(23)
    keys = [keygen(g, rng).public for _ in range(129)]
    fill = [g.exp(g.generator, g.random_scalar(rng)) for _ in range(129)]
    for count in range(4):
        for values in itertools.combinations_with_replacement(range(1, g.modulus), count):
            commitments = list(values) + fill[count:]
            members = all(g.is_element(v) or v == 1 for v in values)
            assert _bucket_membership(g, commitments, keys, rng) == members, values


def test_is_residue_admits_the_identity(group, tiny_group):
    for g in (group, tiny_group):
        for value in (0, 1, 2, g.modulus - 1, g.modulus, g.modulus + 1):
            assert g.is_residue(value) == (value % g.modulus == 1 or g.is_element(value % g.modulus))


def _euler_is_element(group, value):
    return 1 < value < group.modulus and pow(value, group.order, group.modulus) == 1


def test_jacobi_is_element_exhaustive_on_tiny_group(tiny_group):
    for value in range(-3, tiny_group.modulus + 3):
        assert tiny_group.is_element(value) == _euler_is_element(tiny_group, value)


@given(value=st.integers(-5, 2**256 + 5))
@settings(max_examples=300, deadline=None)
def test_jacobi_is_element_equals_euler(group, value):
    assert group.is_element(value) == _euler_is_element(group, value)


def test_jacobi_is_element_on_edge_values(group):
    p = group.modulus
    for value in (0, 1, 2, 3, 4, p - 4, p - 2, p - 1, p, p + 1):
        assert group.is_element(value) == _euler_is_element(group, value)
    rng = random.Random(9)
    squares = [pow(rng.randrange(2, p - 1), 2, p) for _ in range(200)]
    assert all(group.is_element(x) for x in squares)
    assert not any(group.is_element(p - x) for x in squares)
