import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diagsync.feasibility import (
    SideFamily,
    _SideTables,
    _points,
    _unit_lead,
    _vertices,
    enumerate_feasible_pairs,
    family_description,
    putative_table,
)
from diagsync.linalg import rref
from diagsync.psl2 import build_group, label_sort_key
from diagsync.scheme import macwilliams_transform, rational_fusion_scheme


@pytest.fixture(scope="module")
def s13():
    return rational_fusion_scheme(build_group(13))


@pytest.fixture(scope="module")
def s17():
    return rational_fusion_scheme(build_group(17))


@pytest.fixture(scope="module")
def t17(s17):
    return putative_table(s17)     # about 0.3 s: built once for the module


def frac(values):
    return tuple(Fraction(v) for v in values)


def test_pair_13_unique_solution(s13):
    fams = enumerate_feasible_pairs(s13, ("13",))
    assert len(fams) == 1
    f = fams[0]
    assert (f.omega_target, f.alpha_target) == (13, 84)
    # canonical relation order (1, 2, 3, 6, 7, 13)
    assert f.clique.base == frac([1, 0, 0, 0, 0, 12]) and f.clique.dim == 0
    assert f.coclique.base == frac([1, 7, 14, 14, 48, 0]) and f.coclique.dim == 0


def test_pair_37_family(s13):
    fams = enumerate_feasible_pairs(s13, ("3", "7"))
    assert len(fams) == 1
    f = fams[0]
    assert (f.omega_target, f.alpha_target) == (42, 26)
    assert f.clique.base == frac([1, 0, 14, 0, 27, 0])
    assert f.coclique.dim == 1
    assert f.coclique.entry_range == (0, 13)
    assert f.coclique.valid_range == (0, 13)
    # the family interpolates from order-6-heavy to involution-heavy cocliques
    assert f.coclique.vector(Fraction(0)) == frac([1, 0, 0, 13, 0, 12])
    assert f.coclique.vector(Fraction(13)) == frac([1, 13, 0, 0, 0, 12])


def test_pair_2_eliminated(s13):
    assert enumerate_feasible_pairs(s13, ("2",)) == []


def test_all_solutions_satisfy_system(s13):
    # soundness at every vertex of every valid region: both Schur-product
    # conditions and the size product, exactly
    labels = sorted(s13.nontrivial_labels(), key=label_sort_key)
    for size in range(1, len(labels)):
        for clique_side in itertools.combinations(labels, size):
            for f in enumerate_feasible_pairs(s13, clique_side):
                assert f.omega_target * f.alpha_target == s13.omega
                for va in map(f.clique.vector, f.clique.valid_vertices):
                    for vb in map(f.coclique.vector, f.coclique.valid_vertices):
                        assert all(x * y == 0 for x, y in zip(va[1:], vb[1:]))
                        ta = macwilliams_transform(va, s13)
                        tb = macwilliams_transform(vb, s13)
                        assert all(x >= 0 for x in ta) and all(x >= 0 for x in tb)
                        assert ta[0] * tb[0] == s13.omega
                        assert all(x * y == 0 for x, y in zip(ta[1:], tb[1:]))
                        assert all(x >= 0 for x in va) and all(x >= 0 for x in vb)


def test_putative_table_q13(s13):
    rows = putative_table(s13)
    assert len(rows) == 8
    novel = [r for r in rows if r.novel]
    assert len(novel) == 6
    targets = {(tuple(r.clique_classes), r.omega_target, r.alpha_target) for r in novel}
    assert targets == {
        (("13",), 13, 84), (("7",), 14, 78),
        (("3", "13"), 39, 28), (("3", "7"), 42, 26),
        (("2", "13"), 26, 42), (("2", "7"), 28, 39),
    }
    repeats = {tuple(r.clique_classes) for r in rows if not r.novel}
    assert repeats == {("6", "7"), ("6", "13")}


def test_putative_table_q13_ranges(s13):
    rows = {tuple(r.clique_classes): r for r in putative_table(s13)}
    expected = {
        ("3", "13"): (0, 7),
        ("3", "7"): (0, 13),
        ("2", "13"): (0, 14),
        ("2", "7"): (0, 26),
    }
    for key, rng in expected.items():
        fam = rows[key].families[0]
        assert fam.coclique.entry_range == rng
    # transform-nonnegativity trims two of the displayed ranges
    assert rows[("2", "13")].families[0].coclique.valid_range == (Fraction(7, 2), 14)
    assert rows[("2", "7")].families[0].coclique.valid_range == (Fraction(13, 2), 26)


def test_putative_table_q17(t17):
    rows = t17
    assert len(rows) == 23
    assert sum(r.novel for r in rows) == 20
    # spot rows, including one listed from the complementary side
    by_key = {frozenset(r.clique_classes): (r.omega_target, r.alpha_target)
              for r in rows}
    assert by_key[frozenset(["3"])] == (9, 272)
    assert by_key[frozenset(["17"])] == (17, 144)
    assert by_key[frozenset(["2", "3", "9"])] == (36, 68)
    assert by_key[frozenset(["4", "8", "9"])] == (72, 34)


def test_putative_table_q17_skips_supersets_of_dead_zero_sets(s17, monkeypatch):
    # one elimination per (side, zero set) and no family for a superset of a
    # dead (zero set, size): without the skip it makes 2,278 and 8,805
    calls = {"_eliminate": 0, "_make_family": 0}
    for name in calls:
        method = getattr(_SideTables, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(_SideTables, name, counted)
    putative_table(s17)
    assert calls == {"_eliminate": 1022, "_make_family": 3057}


def _table_digest(rows, labels) -> str:
    data = [{"clique_classes": list(r.clique_classes),
             "coclique_classes": list(r.coclique_classes),
             "omega_target": r.omega_target, "alpha_target": r.alpha_target,
             "novel": r.novel,
             "families": [family_description(f, labels) for f in r.families]}
            for r in rows]
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the canonical JSON of every table row; q=9 and q=13 have
# one-parameter families, q=11 two-parameter ones and q=25 families of up
# to three parameters
GOLDEN_TABLES = {
    4: "9e3352581c6a64ee01c9575a1db3671bf12711c98e6f949156ec201f1061787d",
    5: "9e3352581c6a64ee01c9575a1db3671bf12711c98e6f949156ec201f1061787d",
    7: "0973f4d84277bb26f5cc400fe06cd127394c1290249373369f5fad0ca84aba9e",
    8: "bdf6fccb56836e35212bcc2e2b510633db3600564ddc7f24cdf66bed078bf376",
    9: "1f733681e00bcc1ac5019e273b73346e2f8bca8cb421ddbfa8501c0b5a5e2dc2",
    11: "01c9e11e5235f9882b8c89d983a19b0322dfdc0427068987bda17375d7435305",
    13: "991d483ad63bed5dcd7fb69a8a677dc78c29887438e9d8b671b7f182f682b16c",
    17: "c0e07fb616927ea3207b02f5130045fe5ffc2cb047786db4401258142c7678da",
    25: "4dada0bb2066108d2d398db708bfb358bd092a1fadd6b6bf6ed6facdbd124d9d",
}


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 25])
def test_putative_table_is_golden(q):
    scheme = rational_fusion_scheme(build_group(q))
    assert _table_digest(putative_table(scheme), scheme.labels()) == GOLDEN_TABLES[q]


def test_putative_table_q17_is_golden(s17, t17):
    assert _table_digest(t17, s17.labels()) == GOLDEN_TABLES[17]


# sha256 of every proper fused class set's enumerate_feasible_pairs output,
# in both orientations; the sets with more than d/2 classes are reached by
# `diagsync feasibility --classes` but by no table row
GOLDEN_PAIRS = {
    5: "93cd78378d845f26e9be65e6ac30a9d6553001a62da4acb99397f0998be559aa",
    7: "1a3cfe91c4ca6113526cf3cbe60bc422964c1162df31a2a3a91436d4b6918380",
    8: "06ffdbefb2657509a5b3a9eb2b68de4c219243e4e2d440eae59405679c602401",
    9: "308a6b3ff7043085fb1899e6c1c696fa182dd132982991749a52da64022f4650",
    11: "b2a4364506513b441184dc286eeebf694f66bac0aa56d391288a4ec490a84919",
    13: "30d35288467da9a302f36a7a5bd1c9ae87fa6fe59b3e7d3641b27ba85856d1d8",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_PAIRS))
def test_feasible_pairs_of_every_class_set_are_golden(q):
    scheme = rational_fusion_scheme(build_group(q))
    labels = scheme.labels()
    nontrivial = sorted(scheme.nontrivial_labels(), key=label_sort_key)
    data = [[list(combo), [family_description(f, labels)
                           for f in enumerate_feasible_pairs(scheme, combo)]]
            for size in range(1, len(nontrivial))
            for combo in itertools.combinations(nontrivial, size)]
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_PAIRS[q]


def _vertices_by_tight_rows(rows, dim):
    """Reference: every point where dim rows are tight and all rows hold."""
    verts = set()
    for combo in itertools.combinations(rows, dim):
        red, pivots = rref([list(cs) + [-c0] for c0, cs in combo])
        if pivots != list(range(dim)):
            continue
        point = tuple(red[r][dim] for r in range(dim))
        if all(c0 + sum(c * t for c, t in zip(cs, point)) >= 0 for c0, cs in rows):
            verts.add(point)
    return sorted(verts)


@st.composite
def bounded_regions(draw):
    # a box keeps every region bounded; the drawn rows cut it, often to
    # nothing, and small coefficients make ties and repeated rows common
    dim = draw(st.integers(1, 3))
    box = [(3, tuple(-int(i == k) for i in range(dim))) for k in range(dim)]
    box += [(2, tuple(int(i == k) for i in range(dim))) for k in range(dim)]
    coeff = st.integers(-2, 2)
    rows = draw(st.lists(st.tuples(coeff, st.tuples(*[coeff] * dim)), max_size=5))
    return box + rows, dim


@given(bounded_regions())
@settings(max_examples=200, deadline=None)
def test_vertices_match_every_tight_combination(region):
    rows, dim = region
    assert list(_points(_vertices(rows, dim))) == _vertices_by_tight_rows(rows, dim)


def test_one_parameter_family_over_a_point_collapses():
    # entries 1 - 2t and -1 + 2t are both nonnegative only at t = 1/2
    fam = SideFamily(frac([1, 1, -1]), (frac([0, -2, 2]),), 1,
                     ((Fraction(1), frac([-2])), (Fraction(-1), frac([2]))),
                     (frac([Fraction(1, 2)]),), (frac([Fraction(1, 2)]),))
    point = _unit_lead(fam)
    assert point.dim == 0 and point.base == frac([1, 0, 0])
    assert point.entry_vertices == point.valid_vertices == ((),)
    assert point.contains_vector(frac([1, 0, 0]))
    assert not point.contains_vector(frac([1, 1, -1]))
