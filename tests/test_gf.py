import pytest
from hypothesis import given, settings, strategies as st

from diagsync.gf import MAX_Q, build_field, factor_prime_power, field_for_order, is_prime

# the modulus of every non-prime field up to MAX_Q, as the earlier Rabin
# irreducibility test chose it
MODULI = {
    4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1), 25: (2, 0, 1),
    27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1), 64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1), 121: (1, 0, 1), 125: (1, 1, 0, 1), 128: (1, 1, 0, 0, 0, 0, 0, 1),
}


def test_prime_field_arithmetic():
    f = build_field(13)
    assert f.add(6, 9) == 2
    assert f.mul(6, 9) == 2  # 54 mod 13
    assert f.inv(2) == 7


def test_gf9_modulus_square():
    f = build_field(3, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1, smallest by encoding
    x = f.element([0, 1])
    assert f.mul(x, x) == 2  # x^2 == -1 == 2


def test_gf8_multiplicative_group():
    f = build_field(2, 3)
    for z in range(1, 8):
        assert f.pow(z, 7) == 1
    assert sorted(f.pow(f.generator(), k) for k in range(7)) == list(range(1, 8))


def test_field_for_order_rejects_non_prime_power():
    for q in (6, 12, 18, 1):
        with pytest.raises(ValueError):
            field_for_order(q)
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(5, 0)
    with pytest.raises(ValueError):
        field_for_order(2 * MAX_Q)


def test_moduli_pinned():
    non_prime = [q for q in range(4, MAX_Q + 1)
                 if factor_prime_power(q) not in (None, (q, 1))]
    assert {q: field_for_order(q).modulus for q in non_prime} == MODULI


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(17) == (17, 1)
    assert factor_prime_power(25) == (5, 2)
    assert factor_prime_power(24) is None
    assert is_prime(2) and not is_prime(9)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 13, 16, 17, 25, 27, 29])
def test_field_axioms_exhaustive_small(q):
    f = field_for_order(q)
    assert f.q == q
    # group axioms on a sample diagonal plus full commutativity spot checks
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in range(min(q, 11)):
        for b in range(min(q, 11)):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(min(q, 7)):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [9, 25, 27])
def test_multiplicative_order_divides(q):
    f = field_for_order(q)
    for a in range(1, q):
        assert (q - 1) % f.multiplicative_order(a) == 0


@given(st.sampled_from([5, 7, 9, 13, 16]), st.data())
@settings(max_examples=60, deadline=None)
def test_mul_associative_random(q, data):
    f = field_for_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
