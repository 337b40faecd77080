import hashlib
import json
import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diagsync import psl2
from diagsync.gf import MAX_Q, factor_prime_power
from diagsync.graphs import InvalidClassSet, resolve_classes
from diagsync.psl2 import (
    PSL2,
    alternating_type_subgroup,
    borel_subgroup,
    build_group,
    closure,
    cyclic_subgroup,
    dihedral_subgroup,
    is_subgroup,
    label_sort_key,
    subgroup_library,
    sylow_subgroup,
    unipotent_subgroup,
)
from masks import mask_elements, mask_from, mask_of


@pytest.mark.parametrize("q,order", [(13, 1092), (9, 360), (17, 2448), (8, 504), (5, 60)])
def test_group_orders(q, order):
    assert build_group(q).order == order


def test_rejects_bad_q():
    with pytest.raises(ValueError):
        PSL2(3)
    with pytest.raises(ValueError):
        PSL2(6)


def reference_elements(g) -> list:
    """Every determinant-one matrix modulo sign, by scalar field arithmetic.

    Of M and -M it keeps the one whose first nonzero entry x has x <= -x as
    integers, and it sorts the 4-tuples.
    """
    f, q = g.field, g.q

    def canonical(m):
        x = next(entry for entry in m if entry)
        return m if x <= f.neg(x) else tuple(f.neg(entry) for entry in m)

    out = set()
    for a in range(1, q):
        for b in range(q):
            for c in range(q):
                out.add(canonical((a, b, c, f.mul(f.inv(a), f.add(1, f.mul(b, c))))))
    for b in range(1, q):
        for d in range(q):
            out.add(canonical((0, b, f.neg(f.inv(b)), d)))
    return sorted(out)


@pytest.mark.parametrize("q", [4, 5, 8, 9, 13, 16, 25, 27])
def test_elements_match_scalar_enumeration(q):
    g = build_group(q)
    assert g.entries.T.tolist() == [list(m) for m in reference_elements(g)]


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
        assert c.size == np.count_nonzero(g.class_of_array() == c.id)
    order13 = [c for c in cls if c.element_order == 13]
    assert [c.size for c in order13] == [84, 84]


def test_class_closure_under_conjugation():
    g = build_group(13)
    rng = random.Random(2)
    for c in g.conjugacy_classes():
        for _ in range(10):
            x = rng.randrange(g.order)
            assert g.class_of(g.mul(g.mul(g.inv(x), c.rep), x)) == c.id


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_conjugation_orbits_are_the_classes(q):
    g = build_group(q)
    every = np.arange(g.order)
    classes = sorted((c.rep, _members(g, c.id)) for c in g.conjugacy_classes())
    found = psl2.orbits(g.conjugate(every, every[:, None]), np.ones(g.order, dtype=bool))
    assert [(v, mask_of(orbit)) for v, orbit in found] == classes


def _orbit_walk(g):
    """Oracle: the classes as conjugation orbits, one per class, each from the
    least element not yet in an orbit; returns (reps, class of every element)."""
    every = np.arange(g.order)
    class_of = np.full(g.order, -1)
    reps = []
    while (class_of < 0).any():
        rep = int(np.argmax(class_of < 0))
        class_of[g.conjugate(rep, every)] = len(reps)
        reps.append(rep)
    return reps, class_of


@pytest.mark.parametrize("q", [q for q in range(4, 33) if factor_prime_power(q)] + [64, 81])
def test_trace_keys_give_the_conjugation_orbits(q):
    g = PSL2(q)
    reps, walked = _orbit_walk(g)
    classes = g.conjugacy_classes()
    assert len(classes) == ((q + 5) // 2 if q % 2 else q + 1)
    # the same reps, and each orbit lies in the class of its rep
    assert sorted(c.rep for c in classes) == reps
    class_of = g.class_of_array()
    assert (class_of[reps][walked] == class_of).all()
    every = np.arange(g.order)
    for c in classes:
        centralizer = np.count_nonzero(g.mul_pairs(c.rep, every) == g.mul_pairs(every, c.rep))
        assert c.size * centralizer == g.order


def test_classes_take_no_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("classes computed from products")

    monkeypatch.setattr(PSL2, "mul_pairs", refuse)
    monkeypatch.setattr(PSL2, "conjugate", refuse)
    assert len(PSL2(9).conjugacy_classes()) == 7


def _members(g, *class_ids) -> int:
    """The mask of the elements in the given classes."""
    return mask_of(np.isin(g.class_of_array(), class_ids))


def _class_data_digest(g) -> str:
    data = {
        "classes": [[c.id, c.label, c.element_order, c.rep, c.size, hex(_members(g, c.id)),
                     c.inverse_class, c.fusion_orbit] for c in g.conjugacy_classes()],
        "fusion": [[o.id, o.label, o.element_order, list(o.class_ids), o.size,
                    hex(_members(g, *o.class_ids))] for o in g.fusion_orbits()],
        "orders": g.orders().tolist(),
    }
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the canonical JSON of the classes, the fusion orbits and the element
# orders, every prime power 4 <= q <= 49 and q = 53, 59, 61, 64, table-free
GOLDEN_CLASS_DATA = {
    4: "e7ee1e6c6754e734f36fbcdbf7304ea84ad03ba1d1d6fad836f3ae0b57a5627a",
    5: "478bf67463b030e1e662a1964c0fc18451add14b6fd6b52c4de6a99e406599b9",
    7: "b2df587b10e875d908eac7b0c5797b9102259aba30a0f6ecf2be706596d5e021",
    8: "7ea2cd66c7dc98d07ec48eaecce758b8867d285951c944ffcbdecf08678dd4bd",
    9: "741e2a87a25f3a42d8ffc5a552e24c311c62dedc8495b23b2caced8d8c3ac600",
    11: "34d8b25c3e8dda08993661bae2b3031ce8c868d29f1986810d566b14b12bc725",
    13: "e9c51dc0fa48c525d81bc834f3c226f07257ac58409e59c117ef876e11ed6e55",
    16: "7450f58cf00f73f45c47ff6de48e6ec780942d518570ad7460f94e03741a305a",
    17: "347f5e8fb9112f7df6978b8ec5fce6bdda1dd1c5c1091393b1bbe680e594d5c4",
    19: "d77ae445656d3f3afc5ed08e3bb6dc9fe60f0474336b9922458e4494cacddf5f",
    23: "4b7e4421486011a2d6e7e9498ca222b654682ac03f0b1ea613fba90d4edf503e",
    25: "4295aa03b4eba681f6663c48c3d62caa2cd8da2a28ec48319931fc84ab36c434",
    27: "b8f61287f571c123808bc88af002947460e4bfaa325cae94e03cfc2846f8cc0f",
    29: "d0de7b2c080ec186b321ba2600d8637a470a88e8ae264a59558b1589df3d1625",
    31: "dfdf3dfef65a8090c0f61bd4034847fdd445b9c0781f25901cd8f6477374b8d3",
    32: "64a28ff41acf1554fd08c0bed808ba1917e3ad15f82e3b1e2f35c7752c6b4aab",
    37: "2e70339174ec1688e1b287093d4494f443c85edd8db714380adb846349463c15",
    41: "03491eee40c84b43039cfaa6112f44ed7315a8774cb3c0cf55e82b75b0f182cf",
    43: "485a66827678a7491f5df8786458d5a9260d8af9f7b24422d41bb9ec0342d799",
    47: "e6783b5ef2c291e2b7a826c0c9bc20c93ffe3b5f7ac8492e9a8a0aa452eb9011",
    49: "751744c944b7bcb4d9f85ec0802893d746283bfe1aa4832aa156b51ffffef119",
    53: "9eef00ac7c0a64fd3bbcb2d733ca948b851fc0ef1e6fa5d90f6585d79fdf90dc",
    59: "1256f62b7d9fc6518265fba0b62f252f39809f6c05f79decbef9929822c3a2f7",
    61: "114d6c500baa2890bce9b6e4327e00430af0ad1c5b25b26b2adb5c3db688f65d",
    64: "020c388cdae529cc05b9947d3e1d89e84ed9a49480b1f70cd07de0bbd2ad16c9",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_CLASS_DATA))
def test_class_data_is_golden(q):
    assert _class_data_digest(PSL2(q)) == GOLDEN_CLASS_DATA[q]


def test_letter_suffixes_continue_past_h():
    suffixes = [psl2._letters(k) for k in range(MAX_Q)]
    assert "".join(suffixes[:8]) == "ABCDEFGH"
    assert suffixes[8:28] == [*"IJKLMNOPQRSTUVWXYZ", "AA", "AB"]
    assert len(set(suffixes)) == MAX_Q
    labels = [f"19{x}" for x in suffixes]
    assert sorted(labels, key=label_sort_key) == labels


@pytest.mark.parametrize("q", sorted(GOLDEN_CLASS_DATA))
def test_class_labels_are_distinct_and_name_their_class(q):
    g = PSL2(q)
    classes = g.conjugacy_classes()
    labels = [c.label for c in classes]
    assert all(labels) and len(set(labels)) == len(labels)
    assert sorted(labels, key=label_sort_key) == labels
    for c in classes[1:]:
        if c.inverse_class == c.id:
            assert resolve_classes(g, [c.label])[2] == (c.id,)
        else:
            with pytest.raises(InvalidClassSet, match="inverse-closed"):
                resolve_classes(g, [c.label])


def test_inverse_classes():
    for q, self_paired in [(13, True), (17, True), (7, False)]:
        g = build_group(q)
        for c in g.conjugacy_classes():
            inv_mask = 0
            for x in mask_elements(_members(g, c.id)):
                inv_mask |= 1 << g.inv(x)
            assert inv_mask == _members(g, c.inverse_class)
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
        assert len(stab) == size
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
    assert len(uni) == 13 and is_subgroup(g, uni)
    syl13 = sylow_subgroup(g, 13)
    assert len(syl13) == 13
    syl2 = sylow_subgroup(g, 2)
    assert len(syl2) == 4 and is_subgroup(g, syl2)
    syl7 = sylow_subgroup(g, 7)
    assert len(syl7) == 7
    d13 = dihedral_subgroup(g, 13)
    assert d13 is not None and len(d13) == 26 and is_subgroup(g, d13)
    a4 = alternating_type_subgroup(g, "A4")
    assert a4 is not None and len(a4) == 12 and is_subgroup(g, a4)
    borel = borel_subgroup(g)
    assert len(borel) == 78


def test_sylow2_q7():
    g = build_group(7)
    syl2 = sylow_subgroup(g, 2)
    assert syl2 is not None and len(syl2) == 8
    assert is_subgroup(g, syl2)


def test_closure_and_cyclic():
    g = build_group(9)
    gens = g.generators()
    assert len(closure(g, gens)) == g.order
    for i in range(0, g.order, 37):
        sub = cyclic_subgroup(g, i)
        assert len(sub) == g.element_order(i)


# sha256 of every subgroup_library array's dtype and bytes, in library order,
# every prime power 4 <= q <= 49: computed with the closure-walk constructions
GOLDEN_LIBRARY = {
    4: "3fdaf7fed8d95338fe6f28f4dfe2ce1a28086488a719f32e23e92d2ca0836dae",
    5: "934d999f3ef726a48923523be1ff0bbb6f53bc0c0f94cf4d2ff3309a3a472a48",
    7: "6dbe0230d323287afd1c676908193f9dfb5d0614925ee443b6e080e7c98252fb",
    8: "140c715cff9211899f48150ac2e8637feb4cea409d78318b28e9f8d1289e0097",
    9: "60586bc7162825e9490b11664979d46401abb347560c5df5bd03f8afce20fb45",
    11: "c9fbaa71106a382da272461ae3168f8bffb77b0a8c976aa39f2fa9721882a650",
    13: "cad9a6b52ed72974c4d9a1b8b1109aa3c554afb1a0202d9f5fd37ae2363904da",
    16: "dd18a5ffe19d405fadc9298b2c971dcaaac239587d24cf90bec781d489a16919",
    17: "b2c337c329bd8f3da973d80623decdaae4a3c120e5f6847a576aefca61c38e91",
    19: "2dc361c9cdbb94ff1eae34c03d087130088c7d2cac0ec1f5dc5fb3850cbbcf56",
    23: "1c02f8f96cd2be1144088d498069eb2dd0b05ecca3cc2e86345a6c1085e04b65",
    25: "a0c212aa113e8a7335c6b16c0784ee07248ed2b0df3e3719de6c01d4b734fb2a",
    27: "b94ada22033613c156b5a52fd9cefb83722c3787a1d9e871cd7cb7a6be4f589b",
    29: "f1574e7d9c50162ac5980c8b7eca355739396d4d2569824477ccce6abc3097b0",
    31: "d0ab9269a48f357ddf5772da0f48ba1736531db199d3c753692807cd583e58c2",
    32: "6a47bba79146832d7583184b41b7c32799dbc85af6d123483d0cca3ad8af0a17",
    37: "6af3edb03874ebcf3650399cebe54b5109d15fbe3439c8cdcf660d2b9511db50",
    41: "fcae5c72c6be72d1605872371c03bcb24a156da9ad9b51f1ee8cf2c605e4ef1b",
    43: "2d1c4ea301b30927e08ea426eaa840583b7c965704af4b241b968a2d9227ced8",
    47: "d9bc84f07b947131936a44406aa26e357eb15105f510e584d4226334d73a4382",
    49: "f0a8e5594cc5ee9a154693d31bdab913ba6c478addd1c805785c258de685bee7",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_LIBRARY))
def test_subgroup_library_is_golden(q):
    digest = hashlib.sha256()
    for sub in subgroup_library(build_group(q)):
        digest.update(str(sub.dtype).encode())
        digest.update(sub.tobytes())
    assert digest.hexdigest() == GOLDEN_LIBRARY[q]


# Dickson's theorem: PSL(2,q) contains A4 unless q = 2^e with e odd, S4 iff
# q = +-1 mod 8, and A5 iff q = 0 or +-1 mod 5.  The element orders of each
# kind: {order: count}.
DICKSON = {
    "A4": (lambda q: q % 2 == 1 or q % 3 == 1, {1: 1, 2: 3, 3: 8}),
    "S4": (lambda q: q % 8 in (1, 7), {1: 1, 2: 9, 3: 8, 4: 6}),
    "A5": (lambda q: q % 5 in (0, 1, 4), {1: 1, 2: 15, 3: 20, 5: 24}),
}


@pytest.mark.parametrize("q", [q for q in range(4, 65) if factor_prime_power(q)])
def test_alternating_types_follow_dickson(q):
    g = PSL2(q)
    for kind, (exists, order_counts) in DICKSON.items():
        sub = alternating_type_subgroup(g, kind)
        assert (sub is not None) == exists(q), kind
        if sub is not None:
            assert Counter(g.element_order(x) for x in sub.tolist()) == order_counts
            assert is_subgroup(g, sub)


@pytest.mark.parametrize("q", [7, 8, 13, 16])
def test_pow_matches_repeated_mul(q):
    g = build_group(q)
    for x in range(0, g.order, 29):
        n = g.element_order(x)
        powers = g.powers(x)
        assert len(powers) == n
        for k in (0, 1, n - 1, n, n + 1):
            expected = g.identity
            for _ in range(k):
                expected = g.mul(expected, x)
            assert powers[k % n] == expected
        assert powers[n % n] == g.identity and powers[(n + 1) % n] == x


# -- the vectorized product kernel against the scalar arithmetic ------------------------

KERNEL_QS = [5, 8, 9, 13, 16, 25, 27]     # table groups first, then table-free ones


@lru_cache(maxsize=None)
def scalar_group(q):
    """A group that never builds a table, so mul and act_point use field arithmetic."""
    return PSL2(q)


@given(st.sampled_from(KERNEL_QS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_mul_pairs_matches_scalar_mul(q, seed):
    oracle = scalar_group(q)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, oracle.order, (7, 1))
    j = rng.integers(0, oracle.order, (1, 11))
    expected = [[oracle.mul(int(x), int(y)) for y in j[0]] for x in i[:, 0]]
    # build_group gathers from its table up to q = 13; the oracle never does
    for group in (build_group(q), oracle):
        assert group.mul_pairs(i, j).tolist() == expected
        assert group.mul_pairs(i[:, 0], j[0, 3]).tolist() == [row[3] for row in expected]
    assert oracle._table is None


@given(st.sampled_from(KERNEL_QS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_act_points_matches_act_point(q, seed):
    g = scalar_group(q)
    rng = np.random.default_rng(seed)
    sample = rng.integers(0, g.order, 50)
    for pt in range(q + 1):
        images = g.act_points(pt)
        assert images[sample].tolist() == [g.act_point(int(x), pt) for x in sample]
    stab = g.point_stabilizer(int(rng.integers(0, q + 1)))
    assert len(stab) == g.order // (q + 1)


@pytest.mark.parametrize("q", KERNEL_QS)
def test_inverses_match_scalar_mul(q):
    g = scalar_group(q)
    inverses = g.inverses()
    for x in range(0, g.order, 7):
        assert g.mul(x, int(inverses[x])) == g.identity == g.mul(int(inverses[x]), x)


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_blocked_table_equals_scalar_products(q):
    oracle = scalar_group(q)
    table = build_group(q).mult_table()
    expected = [[oracle.mul(x, y) for y in range(oracle.order)] for x in range(oracle.order)]
    assert table.tolist() == expected


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 17])
def test_table_equals_table_free_products(q):
    # every q with a table: the gathered rows against field arithmetic
    table = build_group(q).mult_table()
    oracle = scalar_group(q)
    every = np.arange(oracle.order)
    assert table.shape == (oracle.order, oracle.order)
    for start, block in oracle.product_blocks(every, every):
        assert (table[start:start + len(block)] == block).all()
    assert oracle._table is None


def test_table_from_a_non_generating_list_is_refused():
    g = PSL2(7)
    g.generators = lambda: [int(g.lookup(1, 1, 0, 1))]     # a unipotent of order 7
    with pytest.raises(ValueError, match="reach 7 of 168"):
        g.mult_table()
    assert g._table is None


def test_mul_outer_blocks_match_row_by_row():
    g = scalar_group(16)
    xs = np.arange(0, g.order, 3)
    every = np.arange(g.order)
    rows = g.mul_outer(xs, every)
    assert len(xs) * g.order > psl2._BLOCK
    assert (rows == np.stack([g.mul_pairs(x, every) for x in xs])).all()
    sample = [(0, 0), (17, 4079), (len(xs) - 1, 123)]
    assert [int(rows[r, c]) for r, c in sample] == [g.mul(int(xs[r]), c) for r, c in sample]


@given(st.lists(st.sets(st.integers(0, 40)), max_size=12))
def test_distinct_sets_order_like_their_masks(sets):
    # descending element lists compare as the ints with those bits set
    arrays = [np.array(sorted(x), dtype=np.intp) for x in sets] + [None]
    got = [mask_from(h) for h in psl2.distinct_sets(arrays)]
    assert got == sorted({mask_from(x) for x in sets})


def test_closure_limit():
    g = build_group(9)
    borel = borel_subgroup(g)
    gens = [x for x in borel.tolist() if g.element_order(x) > 2]
    assert np.array_equal(closure(g, gens), borel)
    assert np.array_equal(closure(g, gens, limit=len(borel)), borel)
    with pytest.raises(ValueError):
        closure(g, gens, limit=len(borel) - 1)
