import random

import numpy as np
import pytest

from diagsync import witnesses
from diagsync.pipeline import _verify_witness, certificate_digest, sealed
from diagsync.psl2 import (
    PSL2,
    alternating_type_subgroup,
    borel_subgroup,
    build_group,
    closure,
    cyclic_subgroup,
    dihedral_subgroup,
    is_subgroup,
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
    verify_spreading_multiset,
)
from masks import mask_from


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
    whole = np.arange(g.order)
    ident = np.array([g.identity])
    fac = verify_exact_factorisation(g, whole, ident)
    assert not fac.verified
    assert not fac.checks["nontrivial_proper"]


def test_verify_factorisation_product_bijection():
    g = build_group(7)
    fac = find_exact_factorisation(g)
    assert fac.checks["product_bijection"]
    redo = verify_exact_factorisation(g, np.array(fac.a_elements), np.array(fac.b_elements))
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
    assert sub is not None and len(sub) == 60
    wit = find_sharply_transitive_set(g, sub)
    assert wit is not None and wit.verified and wit.degree == 6
    _, images = coset_action(g, sub)
    ok, why = verify_sharply_transitive([images[e] for e in wit.elements], 6)
    assert ok, why


def reference_coset_action(group, h):
    """The coset action read from every product h*x, images as tuples: the
    reference for coset_action.  Column x of the products is the coset H x,
    so its minimum is the coset's least element, and the reps are the
    elements equal to their column's minimum."""
    least = group.mul_rows(h).min(axis=0)
    reps = np.flatnonzero(least == np.arange(group.order))
    images = np.searchsorted(reps, least)[group.mul_rows(reps)].T
    return reps.tolist(), [tuple(row) for row in images.tolist()]


def reference_sharply_transitive(images, degree):
    """Member against member: the scalar reference for
    verify_sharply_transitive."""
    if len(images) != degree:
        return False, f"cardinality {len(images)} != degree {degree}"
    if len(set(images)) != len(images):
        return False, "duplicate permutation images"
    for i, b1 in enumerate(images):
        for b2 in images[i + 1:]:
            if any(x == y for x, y in zip(b1, b2)):
                return False, "sharpness violated: two members agree on a point"
    return True, "ok"


@pytest.mark.parametrize("q", [7, 8, 9])
def test_coset_action_matches_the_coset_walk(q):
    # every library subgroup, with the table and on field arithmetic
    for group in (build_group(q), PSL2(q)):
        for h in subgroup_library(group):
            reps, images = coset_action(group, h)
            want_reps, want_images = reference_coset_action(group, h)
            assert reps.tolist() == want_reps
            assert list(map(tuple, images.tolist())) == want_images


def test_sharp_witness_on_a_large_subgroup_builds_degree_rows(monkeypatch):
    # the cyclic subgroup of order q+1 acts regularly on the projective
    # line, the cosets of the Borel subgroup; without the table the action
    # asks for one row of products per coset, never one per subgroup element
    q = 16
    group = PSL2(q)
    borel = borel_subgroup(group)
    degree = group.order // len(borel)
    cyclic = cyclic_subgroup(group, int(np.flatnonzero(group.orders() == q + 1)[0]))
    mul_rows = group.mul_rows

    def bounded(idx):
        assert len(idx) <= degree, f"{len(idx)} product rows for degree {degree}"
        return mul_rows(idx)

    monkeypatch.setattr(group, "mul_rows", bounded)
    payload = witnesses.SharplyTransitiveWitness(
        q, degree, tuple(cyclic.tolist()), tuple(borel.tolist()), True).payload()
    problems = []
    assert _verify_witness(group, sealed(payload), problems) and not problems
    short = sealed({**payload, "elements": payload["elements"][:-1]})
    assert not _verify_witness(group, short, problems) and not problems


def test_sharp_check_matches_the_pairwise_oracle():
    rng = random.Random(5)
    g = build_group(9)
    _, images = coset_action(g, index_six_subgroup(g))
    wit = find_sharply_transitive_set(g, index_six_subgroup(g))
    sets = [[tuple(images[e]) for e in wit.elements]]
    for _ in range(300):
        degree = rng.randrange(1, 6)
        perms = [tuple(rng.sample(range(degree), degree))
                 for _ in range(degree + rng.choice((-1, 0, 0, 0, 1)))]
        sets.append(perms)
        if len(perms) > 1:
            sets.append(perms[:-1] + [perms[0]])            # a duplicate
    sets += [[tuple(images[e]) for e in rng.sample(range(g.order), 6)] for _ in range(100)]
    verdicts = set()
    for perms in sets:
        degree = len(perms[0]) if perms else 0
        got = verify_sharply_transitive(perms, degree)
        assert got == reference_sharply_transitive(perms, degree), perms
        verdicts.add(got[1].split()[0])
    assert verdicts == {"ok", "cardinality", "duplicate", "sharpness"}


@pytest.mark.parametrize("q,size", [(13, 39), (17, 68), (5, 5)])
def test_squares_of_stabilizer(q, size):
    g = build_group(q)
    stab = g.point_stabilizer(g.q)
    sq = squares_of_stabilizer(g, stab)
    assert len(sq) == size
    assert len(stab) == 2 * size


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
    members = syl.tolist()
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
    out.add(mask_from(borel_subgroup(group)))
    out.add(mask_from(unipotent_subgroup(group)))
    torus = stabilizer_torus_element(group)
    m1 = group.element_order(torus)
    uni = unipotent_subgroup(group).tolist()
    for k in range(1, m1 + 1):
        if m1 % k:
            continue
        step = _pow(group, torus, m1 // k)
        out.add(mask_from(closure(group, uni + [step])))
    n = group.order
    r = 2
    while r <= n:
        if n % r == 0:
            s = sylow_subgroup(group, r)
            if s is not None:
                out.add(mask_from(s))
            while n % r == 0:
                n //= r
        r += 1
    for m in sorted({group.element_order(g) for g in range(group.order)} - {1}):
        out.add(mask_from(cyclic_subgroup(group, _first_of_order(group, m))))
        if m > 2:
            d = dihedral_subgroup(group, m)
            if d is not None:
                out.add(mask_from(d))
    for kind in ("A4", "S4", "A5"):
        a = alternating_type_subgroup(group, kind)
        if a is not None:
            out.add(mask_from(a))
    return sorted(out, key=lambda mask: -mask.bit_count())


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17])
def test_subgroup_library_is_the_old_factor_list(q):
    group = build_group(q)
    library = subgroup_library(group)
    masks = [mask_from(h) for h in library]
    # the same sets; largest first, ties in the order of the ints with their
    # bits set; cached on the group
    assert sorted(masks) == sorted(reference_candidate_factors(group))
    assert masks == sorted(masks, key=lambda mask: (-mask.bit_count(), mask))
    assert subgroup_library(group) is library
    assert all(is_subgroup(group, h) for h in library)


# -- the vectorized checks: rejections and pinned payloads -------------------------------


def test_is_subgroup_rejections():
    g = build_group(7)
    borel = borel_subgroup(g)
    assert is_subgroup(g, borel)
    assert not is_subgroup(g, np.setdiff1d(borel, [g.identity]))         # no identity
    three = next(x for x in range(g.order) if g.element_order(x) == 3)
    assert not is_subgroup(g, np.array([g.identity, three]))             # no inverse
    four = next(x for x in range(g.order) if g.element_order(x) == 4)
    assert not is_subgroup(g, np.array([g.identity, four, g.inv(four)]))  # g^2 missing
    assert not is_subgroup(g, np.append(cyclic_subgroup(g, four), g.order))   # past the group
    assert not is_subgroup(g, np.append(cyclic_subgroup(g, four), -1))


def test_is_subgroup_without_table():
    g = PSL2(16)
    assert g._table is None
    borel = borel_subgroup(g)
    assert is_subgroup(g, borel)
    dropped = next(x for x in borel.tolist() if x != g.identity)
    assert not is_subgroup(g, np.setdiff1d(borel, [dropped]))


def test_factorisation_rejects_colliding_products(monkeypatch):
    # only a non-subgroup factor can collide; pass the subgroup checks to
    # reach the product count
    g = build_group(7)
    fac = find_exact_factorisation(g)
    big, small = sorted((fac.a_elements, fac.b_elements), key=len, reverse=True)
    outside = [x for x in range(g.order) if x not in big]
    z, a = outside[0], big[-1]
    b = [g.identity, z, g.mul(a, z)]            # a * z == 1 * (a z)
    b += [x for x in outside if x not in b][:len(small) - len(b)]
    monkeypatch.setattr(witnesses, "is_subgroup", lambda group, mask: True)
    bad = verify_exact_factorisation(g, np.array(big), np.sort(b))
    assert not bad.verified
    assert not bad.checks["product_bijection"]
    assert all(v for k, v in bad.checks.items() if k != "product_bijection")


def _moved_square(g):
    stab = g.point_stabilizer(g.q)
    sq = squares_of_stabilizer(g, stab).tolist()
    other = next(x for x in stab.tolist() if x not in sq)
    return sq[:-1] + [other]


@pytest.mark.parametrize("q", [5, 13, 29])
def test_multiset_check_accepts_the_squares(q):
    g = build_group(q)
    sq = squares_of_stabilizer(g, g.point_stabilizer(q)).tolist()
    wit = verify_spreading_multiset(g, q, sq)
    assert wit.payload() == spreading_witness(g).payload()
    assert wit.distinct_images == (q + 1) ** 2
    assert certificate_digest(wit.payload()) == PINNED_DIGESTS[q][-1]


# the first translate whose sum a moved square changes, as the check names it
MOVED_SQUARE_ERRORS = {5: "image sum 8 != lambda 10 at point 0, rep 1",
                       13: "image sum 76 != lambda 78 at point 0, rep 10",
                       29: "image sum 404 != lambda 406 at point 0, rep 9"}


@pytest.mark.parametrize("q", [5, 13, 29])
def test_multiset_check_rejects_a_moved_square(q, monkeypatch):
    g = build_group(q)
    moved = _moved_square(g)
    with pytest.raises(WitnessError, match="index-2 subgroup"):
        verify_spreading_multiset(g, q, moved)
    # the translate sums catch it on their own
    monkeypatch.setattr(witnesses, "is_subgroup", lambda group, mask: True)
    with pytest.raises(WitnessError) as err:
        verify_spreading_multiset(g, q, moved)
    assert str(err.value) == MOVED_SQUARE_ERRORS[q]


@pytest.mark.parametrize("q", [13, 29])
def test_multiset_check_rejects_the_other_coset(q):
    # weight 2 on the non-squares of the stabilizer: a coset, not a subgroup
    g = build_group(q)
    stab = g.point_stabilizer(q)
    sq = squares_of_stabilizer(g, stab)
    coset = np.setdiff1d(stab, sq).tolist()
    with pytest.raises(WitnessError) as err:
        verify_spreading_multiset(g, q, coset)
    assert str(err.value) == "the squares are not an index-2 subgroup of the stabilizer"


def test_multiset_check_rejects_bad_inputs():
    g = build_group(13)
    sq = squares_of_stabilizer(g, g.point_stabilizer(13)).tolist()
    with pytest.raises(WitnessError, match="index-2 subgroup"):
        verify_spreading_multiset(g, 0, sq)                # another point
    with pytest.raises(WitnessError, match="index-2 subgroup"):
        verify_spreading_multiset(g, 13, sq[:5])
    with pytest.raises(WitnessError, match="projective point"):
        verify_spreading_multiset(g, 14, sq)
    with pytest.raises(WitnessError, match="group element"):
        verify_spreading_multiset(g, 13, sq + [g.order])


# sealed digests of the witnesses as the scalar implementation produced them
PINNED_DIGESTS = {
    5: ["f47ee63d6c774196f3c37e054bd1c37f34e067a440ff80c4714d20fcdb5f26fa",
        "c26451c124fea7956e59984080e8a0078154c56039b4af4144de598db18b09dd"],
    9: ["594cbc9d2b1a4ef43e77a1d1b905352519ba734b00c2da472851eed697af3bf3",
        "b9e02ba7dc938845a5debdaf12e5305ad1999ec3cd98c0a548ebbc55a9781ecb"],
    13: ["d09c49addaef5fa06d4da303bc801a3a10703f5aa8ba1dc8d9700a15a575c472"],
    29: ["313d08525cb6a64bdf887fa93187ef66c254bbc094bdfaf908d770ab104be099",
         "07fd1dd19b393d70d75268bf3426a353779beca8928de100db66a82d326fdac7"],
    31: ["e1a7b29b9e9f2a293b5f1c84452dacd62eb07c7506127b2cdfdc832cec6d4102"],
}


@pytest.mark.parametrize("q", sorted(PINNED_DIGESTS))
def test_witness_payloads_are_pinned(q):
    g = build_group(q)
    found = [find_exact_factorisation(g)]
    if found[0] is None:
        six = index_six_subgroup(g)
        found = [find_sharply_transitive_set(g, six)] if six is not None else []
    if q % 4 == 1:
        found.append(spreading_witness(g))
    assert [certificate_digest(w.payload()) for w in found] == PINNED_DIGESTS[q]


@pytest.mark.slow
def test_spreading_witness_q37():
    g = build_group(37)
    wit = spreading_witness(g)
    assert wit.verified and wit.lam == 666
    assert wit.distinct_images == 38 ** 2


# -- the linear checks against the product-based ones they replaced ---------------------


def quadratic_is_subgroup(group, els):
    """The subgroup test before the generated closure: all |H|^2 products."""
    n = group.order
    if ((els < 0) | (els >= n)).any():
        return False
    member = np.zeros(n, dtype=bool)
    member[els] = True
    if not member[group.identity] or not member[group.inverses()[els]].all():
        return False
    return all(member[block].all() for _, block in group.product_blocks(els, els))


def product_coset_halving_check(group):
    """The coset-halving check as |T1|^2 products h2^-1 h1."""
    q, n = group.q, group.order
    t1 = group.point_stabilizer(q)
    t2 = group.point_stabilizer(0)
    sq = np.unique(group.mul_pairs(t1, t1))
    assert quadratic_is_subgroup(group, sq) and 2 * len(sq) == len(t1)
    square = np.zeros(n, dtype=bool)
    square[sq] = True
    counts = np.zeros(n, dtype=np.int64)
    counts_sq = np.zeros(n, dtype=np.int64)
    for _, block in group.product_blocks(group.inverses()[t2], t1):
        counts += np.bincount(block.ravel(), minlength=n)
        counts_sq += np.bincount(block[:, square[t1]].ravel(), minlength=n)
    big = (q - 1) // 2
    bad = np.flatnonzero((2 * counts_sq != counts) | ((counts != 0) & (counts != big)))
    if len(bad):
        t = int(bad[0])
        return False, t, {"count": int(counts[t]), "squares": int(counts_sq[t])}
    return True, None, {"value_set": [0, big], "square_value_set": [0, big // 2]}


def product_spreading_multiset(group, stabilizer_point, squares, subgroup=quadratic_is_subgroup):
    """The multiset check as stabilizer x coset-representative products."""
    q, n = group.q, group.order
    if not 0 <= stabilizer_point <= q:
        raise WitnessError(f"{stabilizer_point} is not a projective point")
    if not all(isinstance(x, (int, np.integer)) and 0 <= x < n for x in squares):
        raise WitnessError("a square is not a group element")
    stab = group.point_stabilizer(stabilizer_point)
    sq = np.unique(np.array(squares, dtype=np.intp))
    weights = np.ones(n, dtype=np.int8)
    weights[stab] = 0
    if (weights[sq] != 0).any() or 2 * len(sq) != len(stab) or not subgroup(group, sq):
        raise WitnessError("the squares are not an index-2 subgroup of the stabilizer")
    weights[sq] = 2
    total = int(weights.sum())
    if total != n:
        raise WitnessError("multiset size differs from the vertex count")
    lam = len(stab)
    images = 0
    for pt in range(q + 1):
        image = group.act_points(pt)
        reps = np.sort(np.unique(image, return_index=True)[1])
        cover = np.zeros(n, dtype=np.int64)
        sums = np.zeros(len(reps), dtype=np.int64)
        for _, block in group.product_blocks(np.flatnonzero(image == pt), reps):
            cover += np.bincount(block.ravel(), minlength=n)
            sums += weights[block].sum(axis=0)
        if (cover != 1).any():
            raise WitnessError(f"stabilizer translates do not partition the group at point {pt}")
        bad = np.flatnonzero(sums != lam)
        if len(bad):
            k = bad[0]
            raise WitnessError(
                f"image sum {sums[k]} != lambda {lam} at point {pt}, rep {reps[k]}")
        images += len(reps)
    if images != (q + 1) ** 2:
        raise WitnessError(f"found {images} distinct images, expected {(q + 1) ** 2}")
    rng = random.Random(0)
    inverses = group.inverses()
    for _ in range(20):
        x, y = rng.randrange(n), rng.randrange(n)
        s = int(weights[group.mul_pairs(group.mul_pairs(inverses[x], stab), y)].sum())
        if s != lam:
            raise WitnessError(f"random image sum {s} != lambda {lam}")
    return witnesses.SpreadingWitness(q, lam, total, stabilizer_point, tuple(sq.tolist()),
                                      images, True)


def _outcome(check, *args):
    """A check's result, or the type and text of the error it raised."""
    try:
        return check(*args)
    except WitnessError as exc:
        return "WitnessError", str(exc)


@pytest.mark.parametrize("q", [5, 9, 13, 29])
def test_multiset_checks_match_the_product_oracles(q, monkeypatch):
    g = build_group(q)
    stab = g.point_stabilizer(q)
    sq = squares_of_stabilizer(g, stab)
    inputs = {"squares": sq.tolist(), "moved square": _moved_square(g),
              "other coset": np.setdiff1d(stab, sq).tolist(), "truncated": sq.tolist()[:-1]}
    assert coset_halving_check(g) == product_coset_halving_check(g)
    for name, squares in inputs.items():
        assert (_outcome(verify_spreading_multiset, g, q, squares)
                == _outcome(product_spreading_multiset, g, q, squares)), name
    # with the subgroup test passed, the translate sums decide alone
    monkeypatch.setattr(witnesses, "is_subgroup", lambda group, mask: True)
    for name, squares in inputs.items():
        assert (_outcome(verify_spreading_multiset, g, q, squares)
                == _outcome(product_spreading_multiset, g, q, squares,
                            lambda group, mask: True)), name


@pytest.mark.parametrize("q", [7, 8, 9, 13, 16, 29])
def test_is_subgroup_matches_the_quadratic_oracle(q):
    g = build_group(q)
    rng = np.random.default_rng(q)
    for h in subgroup_library(g):
        outside = np.setdiff1d(np.arange(g.order), h)
        trials = [h, np.delete(h, rng.integers(len(h)))]
        if len(outside):
            trials.append(np.sort(np.append(h, rng.choice(outside))))
        for els in trials:
            assert is_subgroup(g, els) == quadratic_is_subgroup(g, els), (len(h), len(els))


def test_multiset_check_ties_multiplication_to_the_fibres(monkeypatch):
    # the first seeded translate S y of the spot checks comes out as S z,
    # another fibre; the translate sums and two-sided checks never form S y
    g = PSL2(13)
    stab = g.point_stabilizer(13)
    sq = squares_of_stabilizer(g, stab).tolist()
    rng = random.Random(0)
    x, y = rng.randrange(g.order), rng.randrange(g.order)
    assert x != g.identity
    image = g.act_points(13)
    z = int(np.argmax(image != image[y]))
    mul_pairs = g.mul_pairs

    def skewed(i, j):
        if np.ndim(j) == 0 and j == y and np.array_equal(i, stab):
            j = z
        return mul_pairs(i, j)

    monkeypatch.setattr(g, "mul_pairs", skewed)
    with pytest.raises(WitnessError, match="not a fibre of the action"):
        verify_spreading_multiset(g, 13, sq)
