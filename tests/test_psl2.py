import random

import pytest
from hypothesis import given, settings, strategies as st

from diagsync.psl2 import (
    PSL2,
    alternating_type_subgroup,
    borel_subgroup,
    build_group,
    closure,
    cyclic_subgroup,
    dihedral_subgroup,
    is_subgroup,
    mask_elements,
    sylow_subgroup,
    unipotent_subgroup,
)


@pytest.mark.parametrize("q,order", [(13, 1092), (9, 360), (17, 2448), (8, 504), (5, 60)])
def test_group_orders(q, order):
    assert build_group(q).order == order


def test_rejects_bad_q():
    with pytest.raises(ValueError):
        PSL2(3)
    with pytest.raises(ValueError):
        PSL2(6)


def test_group_axioms_random():
    g = build_group(13)
    rng = random.Random(0)
    e = g.identity
    for _ in range(300):
        a, b, c = (rng.randrange(g.order) for _ in range(3))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.mul(a, e) == a and g.mul(e, a) == a
        assert g.mul(a, g.inv(a)) == e


def test_canonical_consistency_between_table_and_scalar():
    g = build_group(13)
    rng = random.Random(1)
    table = g.mult_table()
    for _ in range(200):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        g._table = None
        scalar = g.mul(a, b)
        g._table = table
        assert scalar == g.mul(a, b)


@pytest.mark.parametrize("q", [8, 9])
def test_product_rows_without_table_match_table(q):
    fresh = PSL2(q)                      # no table built yet
    table = build_group(q).mult_table()
    idx = [0, 5, 17, fresh.order - 1]
    assert (fresh.mul_rows(idx) == table[idx]).all()
    assert fresh.mul_column(idx, 42) == table[idx, 42].tolist()
    assert fresh._table is None


def test_order_census_q13():
    g = build_group(13)
    # independent oracle: bucket elements by order computed from scratch
    census = {}
    for i in range(g.order):
        x, n = i, 1
        while x != g.identity:
            x = g.mul(x, i)
            n += 1
        census[n] = census.get(n, 0) + 1
    assert census == {1: 1, 2: 91, 3: 182, 6: 182, 7: 468, 13: 168}


def test_conjugacy_classes_q13():
    g = build_group(13)
    cls = g.conjugacy_classes()
    assert len(cls) == 9
    assert sorted(c.element_order for c in cls if c.element_order > 1) == [2, 3, 6, 7, 7, 7, 13, 13]
    assert sum(c.size for c in cls) == g.order
    for c in cls:
        assert g.order % c.size == 0
        assert c.size == bin(c.members).count("1")
    order13 = [c for c in cls if c.element_order == 13]
    assert [c.size for c in order13] == [84, 84]


def test_class_closure_under_conjugation():
    g = build_group(13)
    rng = random.Random(2)
    for c in g.conjugacy_classes():
        for _ in range(10):
            x = rng.randrange(g.order)
            assert (c.members >> g.conj(c.rep, x)) & 1


def test_inverse_classes():
    for q, self_paired in [(13, True), (17, True), (7, False)]:
        g = build_group(q)
        for c in g.conjugacy_classes():
            inv_mask = 0
            for x in mask_elements(c.members):
                inv_mask |= 1 << g.inv(x)
            assert inv_mask == g.conjugacy_classes()[c.inverse_class].members
            if self_paired:
                assert c.inverse_class == c.id
        if not self_paired:
            swapped = [c for c in g.conjugacy_classes() if c.inverse_class != c.id]
            assert swapped  # q = 7 has a swapped pair of unipotent classes


def test_fusion_orbits_q13():
    g = build_group(13)
    labels = {o.label: tuple(g.conjugacy_classes()[i].label for i in o.class_ids)
              for o in g.fusion_orbits()}
    assert labels == {"1": ("1",), "2": ("2",), "3": ("3",), "6": ("6",),
                      "7": ("7A", "7B", "7C"), "13": ("13A", "13B")}


def test_fused_orders_q17():
    g = build_group(17)
    assert sorted(o.element_order for o in g.fusion_orbits() if o.element_order > 1) == [2, 3, 4, 8, 9, 17]


def test_point_stabilizers():
    for q, size in [(13, 78), (17, 136)]:
        g = build_group(q)
        stab = g.point_stabilizer(g.q)
        assert bin(stab).count("1") == size
        assert is_subgroup(g, stab)


def test_two_transitivity_q13():
    g = build_group(13)
    rng = random.Random(3)
    pts = range(g.q + 1)
    for _ in range(20):
        a, b = rng.sample(pts, 2)
        c, d = rng.sample(pts, 2)
        found = any(g.act_point(i, a) == c and g.act_point(i, b) == d
                    for i in range(g.order))
        assert found


def test_action_is_homomorphism():
    g = build_group(9)
    rng = random.Random(4)
    for _ in range(100):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        pt = rng.randrange(g.q + 1)
        assert g.act_point(g.mul(x, y), pt) == g.act_point(y, g.act_point(x, pt))


@given(st.sampled_from([5, 7, 8, 9, 13]), st.data())
@settings(max_examples=40, deadline=None)
def test_mul_index_welldefined(q, data):
    # products of canonical representatives canonicalize consistently
    g = build_group(q)
    i = data.draw(st.integers(0, g.order - 1))
    j = data.draw(st.integers(0, g.order - 1))
    k = g.mul(i, j)
    assert 0 <= k < g.order
    assert g.mul(g.inv(j), g.inv(i)) == g.inv(k)


def test_subgroup_constructions():
    g = build_group(13)
    uni = unipotent_subgroup(g)
    assert bin(uni).count("1") == 13 and is_subgroup(g, uni)
    syl13 = sylow_subgroup(g, 13)
    assert bin(syl13).count("1") == 13
    syl2 = sylow_subgroup(g, 2)
    assert bin(syl2).count("1") == 4 and is_subgroup(g, syl2)
    syl7 = sylow_subgroup(g, 7)
    assert bin(syl7).count("1") == 7
    d13 = dihedral_subgroup(g, 13)
    assert d13 is not None and bin(d13).count("1") == 26 and is_subgroup(g, d13)
    a4 = alternating_type_subgroup(g, "A4")
    assert a4 is not None and bin(a4).count("1") == 12 and is_subgroup(g, a4)
    borel = borel_subgroup(g)
    assert bin(borel).count("1") == 78


def test_sylow2_q7():
    g = build_group(7)
    syl2 = sylow_subgroup(g, 2)
    assert syl2 is not None and bin(syl2).count("1") == 8
    assert is_subgroup(g, syl2)


def test_closure_and_cyclic():
    g = build_group(9)
    gens = g.generators()
    assert bin(closure(g, gens)).count("1") == g.order
    for i in range(0, g.order, 37):
        sub = cyclic_subgroup(g, i)
        assert bin(sub).count("1") == g.element_order(i)


@pytest.mark.parametrize("q", [7, 8, 13, 16])
def test_pow_matches_repeated_mul(q):
    g = build_group(q)
    for x in range(0, g.order, 29):
        n = g.element_order(x)
        for k in (0, 1, n, n + 1):
            expected = g.identity
            for _ in range(k):
                expected = g.mul(expected, x)
            assert g.pow(x, k) == expected
        assert g.pow(x, n) == g.identity and g.pow(x, n + 1) == x
