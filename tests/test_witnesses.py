import pytest

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
    mask_from,
    stabilizer_torus_element,
    subgroup_library,
    sylow_subgroup,
    unipotent_subgroup,
)
from diagsync.witnesses import (
    WitnessError,
    coset_action,
    coset_halving_check,
    find_exact_factorisation,
    find_sharply_transitive_set,
    index_six_subgroup,
    spreading_witness,
    squares_of_stabilizer,
    verify_exact_factorisation,
    verify_sharply_transitive,
)


@pytest.mark.parametrize("q,orders", [(7, {24, 21}), (8, {56}), (11, {55, 60}), (29, {60, 203})])
def test_find_exact_factorisation(q, orders):
    group = build_group(q) if q != 29 else PSL2(29)
    fac = find_exact_factorisation(group)
    assert fac is not None and fac.verified
    assert len(fac.a_elements) * len(fac.b_elements) == group.order
    assert {len(fac.a_elements)} & orders or {len(fac.b_elements)} & orders


def test_factorisation_none_for_q9():
    assert find_exact_factorisation(build_group(9)) is None


def test_verify_factorisation_rejects_degenerate():
    g = build_group(7)
    whole = (1 << g.order) - 1
    ident = 1 << g.identity
    fac = verify_exact_factorisation(g, whole, ident)
    assert not fac.verified
    assert not fac.checks["nontrivial_proper"]


def test_verify_factorisation_product_bijection():
    g = build_group(7)
    fac = find_exact_factorisation(g)
    assert fac.checks["product_bijection"]
    redo = verify_exact_factorisation(g, mask_from(fac.a_elements),
                                      mask_from(fac.b_elements))
    assert redo.verified


def test_sharply_transitive_literal_permutations():
    # a classical sharply transitive set of six permutations of six points,
    # written as image tuples (0-indexed)
    def cyc(*cycles, n=6):
        img = list(range(n))
        for cycle in cycles:
            for i, x in enumerate(cycle):
                img[x] = cycle[(i + 1) % len(cycle)]
        return tuple(img)

    literal = [
        cyc(),
        cyc((0, 1), (2, 3, 4, 5)),
        cyc((0, 2), (1, 3, 5, 4)),
        cyc((0, 3), (1, 4, 2, 5)),
        cyc((0, 4), (1, 5, 3, 2)),
        cyc((0, 5), (1, 2, 4, 3)),
    ]
    ok, why = verify_sharply_transitive(literal, 6)
    assert ok, why


def test_sharply_transitive_rejections():
    ok, why = verify_sharply_transitive([(0, 1), (1, 0)], 3)
    assert not ok and "cardinality" in why
    ok, why = verify_sharply_transitive([(0, 1, 2), (0, 2, 1), (1, 2, 0)], 3)
    assert not ok and "sharpness" in why
    ok, _ = verify_sharply_transitive([(0,)], 1)
    assert ok


def test_sharply_transitive_in_group_q9():
    g = build_group(9)
    sub = index_six_subgroup(g)
    assert sub is not None and sub.bit_count() == 60
    wit = find_sharply_transitive_set(g, sub)
    assert wit is not None and wit.verified and wit.degree == 6
    _, images = coset_action(g, sub)
    ok, why = verify_sharply_transitive([images[e] for e in wit.elements], 6)
    assert ok, why


@pytest.mark.parametrize("q,size", [(13, 39), (17, 68), (5, 5)])
def test_squares_of_stabilizer(q, size):
    g = build_group(q)
    stab = g.point_stabilizer(g.q)
    sq = squares_of_stabilizer(g, stab)
    assert sq.bit_count() == size
    assert stab.bit_count() == 2 * size


def test_squares_rejected_for_wrong_residue():
    g = build_group(7)
    with pytest.raises(WitnessError):
        squares_of_stabilizer(g, g.point_stabilizer(g.q))


@pytest.mark.parametrize("q,big", [(13, 6), (17, 8)])
def test_coset_halving(q, big):
    g = build_group(q)
    ok, bad, details = coset_halving_check(g)
    assert ok and bad is None
    assert details["value_set"] == [0, big]
    assert details["square_value_set"] == [0, big // 2]


@pytest.mark.parametrize("q,lam", [(13, 78), (17, 136)])
def test_spreading_witness_small(q, lam):
    g = build_group(q)
    wit = spreading_witness(g)
    assert wit.verified and wit.lam == lam
    assert wit.total == g.order
    assert wit.distinct_images == (q + 1) ** 2
    assert g.order % wit.total == 0  # |A| divides the vertex count


def test_sylow_counts_sanity():
    g = build_group(13)
    syl = sylow_subgroup(g, 13)
    members = mask_elements(syl)
    assert len(members) == 13
    assert all(g.element_order(x) in (1, 13) for x in members)


# -- the subgroup library against the factor list it replaced -------------------------


def reference_candidate_factors(group):
    """The factor list the factorisation search used before psl2.subgroup_library."""
    def _first_of_order(group, m):
        for i, o in enumerate(group.orders()):
            if o == m:
                return i
        raise ValueError(f"no element of order {m}")

    def _pow(group, g, k):
        out = group.identity
        x = g
        while k:
            if k & 1:
                out = group.mul(out, x)
            x = group.mul(x, x)
            k >>= 1
        return out

    out = set()
    out.add(borel_subgroup(group))
    out.add(unipotent_subgroup(group))
    torus = stabilizer_torus_element(group)
    m1 = group.element_order(torus)
    uni = mask_elements(unipotent_subgroup(group))
    for k in range(1, m1 + 1):
        if m1 % k:
            continue
        step = _pow(group, torus, m1 // k)
        out.add(closure(group, uni + [step]))
    n = group.order
    r = 2
    while r <= n:
        if n % r == 0:
            s = sylow_subgroup(group, r)
            if s:
                out.add(s)
            while n % r == 0:
                n //= r
        r += 1
    for m in sorted({group.element_order(g) for g in range(group.order)} - {1}):
        out.add(cyclic_subgroup(group, _first_of_order(group, m)))
        if m > 2:
            d = dihedral_subgroup(group, m)
            if d:
                out.add(d)
    for kind in ("A4", "S4", "A5"):
        a = alternating_type_subgroup(group, kind)
        if a:
            out.add(a)
    return sorted(out, key=lambda mask: -mask.bit_count())


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17])
def test_subgroup_library_is_the_old_factor_list(q):
    group = build_group(q)
    library = subgroup_library(group)
    assert set(library) == set(reference_candidate_factors(group))
    # largest first, ties in ascending mask order; cached on the group
    assert list(library) == sorted(library, key=lambda mask: (-mask.bit_count(), mask))
    assert subgroup_library(group) is library
    assert all(is_subgroup(group, mask) for mask in library)
