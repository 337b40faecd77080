import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from diagsync.gf import factor_prime_power
from diagsync.psl2 import PSL2, FusionOrbit, build_group, sylow_subgroup
from diagsync.scheme import (
    FusionNotAScheme,
    IrrationalEigenvalue,
    NonSymmetricScheme,
    _build_scheme,
    design_orthogonal,
    dual_degree_set,
    group_scheme,
    inner_distribution,
    macwilliams_transform,
    rational_fusion_scheme,
)
from scheme_matrices import adjacency_matrices, projection_matrices_scaled


def frac(values):
    return tuple(Fraction(v) for v in values)


def test_group_scheme_q13_shape():
    s = group_scheme(build_group(13))
    assert len(s.relations) == 9
    assert sum(s.sizes()) == 1092
    assert s.eigen is None and "irrational" in s.eigen_diagnostic
    # p_{0j}^k = delta_jk comes out of the axioms check at build time
    assert s.p[0][3][3] == 1 and s.p[0][3][2] == 0


def test_group_scheme_rejects_non_real_classes():
    with pytest.raises(NonSymmetricScheme):
        group_scheme(build_group(7))


def test_rational_fusion_always_symmetric_q7():
    s = rational_fusion_scheme(build_group(7))
    assert s.eigen is not None
    assert [r.label for r in s.relations] == ["1", "2", "3", "4", "7"]


def test_fused_q13_eigen_rows():
    s = rational_fusion_scheme(build_group(13))
    assert s.labels() == ["1", "2", "3", "6", "7", "13"]
    q = s.eigen.Q
    by_label = {r.label: q[r.id] for r in s.relations}
    # the dual eigenvalue rows for the order-6 and order-7 relations,
    # as multisets of integers (column order is our canonical one)
    assert sorted(by_label["6"]) == sorted(frac([1, -14, 0, 13, -14, 14]))
    assert sorted(by_label["7"]) == sorted(frac([1, 0, 12, -13, 0, 0]))
    assert s.eigen.multiplicities[0] == 1
    assert sorted(s.eigen.multiplicities) == [1, 98, 169, 196, 196, 432]


def test_scheme_axioms_exhaustive_q9():
    s = rational_fusion_scheme(build_group(9))
    adj = adjacency_matrices(s)
    n = len(s.relations)
    total = np.zeros_like(adj[0])
    for a in adj:
        total += a
    assert (total == 1).all()
    assert (adj[0] == np.eye(s.omega, dtype=np.int64)).all()
    for i in range(n):
        for j in range(n):
            prod = adj[i] @ adj[j]
            expected = np.zeros_like(prod)
            for k in range(n):
                expected += s.p[i][j][k] * adj[k]
            assert (prod == expected).all()


@pytest.mark.parametrize("q", [5, 8, 9, 13])
def test_projection_idempotents(q):
    s = rational_fusion_scheme(build_group(q))
    if s.omega <= 600:
        mats, scale = projection_matrices_scaled(s)
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                prod = a @ b
                assert (prod == (scale * a if i == j else 0)).all()
    else:
        # random-vector check: F_i F_j v == delta_ij F_i v
        mats, scale = projection_matrices_scaled(s)
        rng = np.random.default_rng(5)
        v = rng.integers(-3, 4, size=s.omega)
        images = [a @ v for a in mats]
        for i, a in enumerate(mats):
            for j in range(len(mats)):
                assert ((a @ images[j]) == (scale * images[i] if i == j else 0)).all()


def test_inner_distribution_examples_q13():
    g = build_group(13)
    s = rational_fusion_scheme(g)
    syl = sylow_subgroup(g, 13).tolist()
    # canonical relation order (1, 2, 3, 6, 7, 13)
    assert inner_distribution(syl, s) == frac([1, 0, 0, 0, 0, 12])
    assert inner_distribution([g.identity], s) == frac([1, 0, 0, 0, 0, 0])
    assert inner_distribution(range(g.order), s) == frac([1, 91, 182, 182, 468, 168])


def test_macwilliams_examples_q13():
    g = build_group(13)
    s = rational_fusion_scheme(g)
    t = macwilliams_transform(frac([1, 0, 0, 0, 0, 12]), s)
    assert t[0] == 13 and sorted(t) == list(frac([0, 13, 169, 182, 364, 364]))
    t0 = macwilliams_transform(frac([1, 0, 0, 0, 0, 0]), s)
    assert t0 == tuple(Fraction(m) for m in [1] + s.eigen.multiplicities[1:])
    # distribution of a hypothetical 84-element coclique partner, canonical order
    t84 = macwilliams_transform(frac([1, 7, 14, 14, 48, 0]), s)
    assert t84[0] == 84 and sorted(t84) == list(frac([0, 0, 0, 0, 84, 1008]))


def test_dual_degree_and_design_orthogonality():
    g = build_group(13)
    s = rational_fusion_scheme(g)
    everything = list(range(g.order))
    assert dual_degree_set(everything, s) == frozenset()
    assert design_orthogonal([g.identity], everything, s)
    assert not design_orthogonal([g.identity], [5], s)
    syl = sylow_subgroup(g, 13).tolist()
    assert dual_degree_set(syl, s) != frozenset()


@pytest.mark.parametrize("q", [13, 17])
def test_table_free_scheme_equals_tabled(q):
    # a group built without its table reads the products of the scheme
    # from field arithmetic; the fused scheme must be the same
    fresh = PSL2(q)
    free, tabled = rational_fusion_scheme(fresh), rational_fusion_scheme(build_group(q))
    assert fresh._table is None and build_group(q)._table is not None
    assert free.labels() == tabled.labels() and free.p == tabled.p
    assert free.eigen.P == tabled.eigen.P and free.eigen.Q == tabled.eigen.Q
    assert free.eigen.multiplicities == tabled.eigen.multiplicities


def test_fusion_scheme_is_built_once_and_frees_its_group():
    group = PSL2(7)
    group.mult_table()
    first, again = rational_fusion_scheme(group), rational_fusion_scheme(group)
    assert first.group is again.group is group and first.relations is again.relations
    # the kept scheme holds no reference back to the group, so reference
    # counting alone frees a discarded group and its table
    ref = weakref.ref(group)
    gc.disable()
    try:
        del group, first, again
        assert ref() is None
    finally:
        gc.enable()


def _merged(group, parts):
    """One relation record per part of a partition of the class ids."""
    classes = group.conjugacy_classes()
    return [FusionOrbit(rid, "+".join(classes[c].label for c in part),
                        classes[part[0]].element_order, part,
                        sum(classes[c].size for c in part))
            for rid, part in enumerate(parts)]


def test_full_merge_has_the_complete_graph_eigenmatrix():
    g = build_group(13)
    rels = _merged(g, [(0,), tuple(range(1, len(g.conjugacy_classes())))])
    merged = _build_scheme(g, rels, require_eigen=True)
    assert len(merged.relations) == 2
    assert merged.eigen.Q == [[Fraction(1), Fraction(1091)], [Fraction(1), Fraction(-1)]]


def test_partial_fusion_rejected_q13():
    # merging only two of the three order-7 classes breaks the axioms
    g = build_group(13)
    ids = {c.label: c.id for c in g.conjugacy_classes()}
    part = [(ids["1"],), (ids["2"],), (ids["3"],), (ids["6"],),
            (ids["7A"], ids["7B"]), (ids["7C"],), (ids["13A"], ids["13B"])]
    with pytest.raises((FusionNotAScheme, IrrationalEigenvalue)):
        _build_scheme(g, _merged(g, part), require_eigen=True)


PRIME_POWERS = [q for q in range(4, 50) if factor_prime_power(q)]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_fused_relations_are_the_fusion_orbits(q):
    g = PSL2(q)
    s = rational_fusion_scheme(g)
    assert s.relations == g.fusion_orbits()
    orbit_of_class = np.array([c.fusion_orbit for c in g.conjugacy_classes()])
    assert (s._rel_of == orbit_of_class[g.class_of_array()]).all()


# sha256 of json.dumps(payload()) of the fused scheme, every prime power
# 4 <= q <= 49, computed with the Fraction eigen split that preceded the
# integer one
SCHEME_DIGESTS = {
    4: "fcc0c55cc14a9cbeb3039c2f6bb06baefade1aa9afceeddf902c8249fbdad1ec",
    5: "fcc0c55cc14a9cbeb3039c2f6bb06baefade1aa9afceeddf902c8249fbdad1ec",
    7: "0f22e36b5493d7a4b97dfb1f1fc75af065332cfe3e644b0b2396dc2d25b8c902",
    8: "e7dd6058bf4486fcb42f218d540cf9c90099e4a7bee623588a69d4a76bdfbb94",
    9: "8de76de4b920736b1708c621e2d7e553ff64003401a8a8806bcf1472cedf2afd",
    11: "27ec6c79d7b80abb4326fb24da9ab0df991dd6aa3be51914f4c182f11590c93a",
    13: "88f49495c982d1bdaf13da60b8b15baf7e00b567e4c39f3c63a5c5394213f0b8",
    16: "f9753084a46d84a5b7cab6f6ca05c0bc1accdb1b32b90f52e79f9a7248f029d7",
    17: "2ef2aeca29b03b2f7020616824ec77cfbe4c2f07d31f4a9c8f3d5f03ea1a33b4",
    19: "aeadf67eaf0603d76e6e8d1d78d679e9d6b5264cb9c0635151455594c478ebb5",
    23: "b9beb0eb79341aae9553b0047f7a411d9fc691bb4c0916243109f56044a0244d",
    25: "fd114d5e40e995a9472ac2e18f8ca080385c70d8fedf6f3357f8b7892b702db8",
    27: "391fefcebef96e384a11b909dd7726d00fd394d0c27b7f6a07d765f6c750e14c",
    29: "4e7bb73189fd439119ab9829554e075fbb0b06fa4acc0207086353aae6ea5374",
    31: "d0757857f69585d4af032205e5114b672ce9aadacc336a374b8b60cc21f0a096",
    32: "a2642f1898c2b67c87b776ef5a4f6718ecfe4812b96671c5502aac0b1114375b",
    37: "d3f7b8ca6f5076bc2842c01748f659506e7d175471b34225487420055e560a8f",
    41: "2c10c6d6137ced7212757677a6d2b6c3a7168d785f8f8714ddce0f264a2733f6",
    43: "bc8a43756c7c4ce37c7b56a3daaeb4b3f9fe1e63cb63612ba35d25287a6e996f",
    47: "299899f220d247ee53058dfd134957eef0614b388b87810a1d687df8a2065b1d",
    49: "ecf6c28bd813e93accf326b21961c3058e5c3b60a8a7e23a678d896922e16ca3",
}


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_fused_scheme_payload_is_golden(q):
    payload = json.dumps(rational_fusion_scheme(PSL2(q)).payload())
    assert hashlib.sha256(payload.encode()).hexdigest() == SCHEME_DIGESTS[q]


# the relation that the group scheme's diagnostic names, and the degree of the
# irrational factor of that relation's characteristic polynomial
UNFUSED_DIAGNOSTICS = {4: ("5A", 2), 5: ("5A", 2), 8: ("7A", 3), 9: ("5A", 2),
                       13: ("7A", 3), 16: ("5A", 6), 17: ("8A", 2), 25: ("12A", 2),
                       29: ("5A", 6)}


@pytest.mark.parametrize("q", sorted(UNFUSED_DIAGNOSTICS))
def test_unfused_diagnostic_names_the_first_irrational_relation(q):
    s = group_scheme(build_group(q))
    label, degree = UNFUSED_DIAGNOSTICS[q]
    assert s.eigen is None and s.eigen_diagnostic == (
        f"relation {label}: characteristic polynomial has an irrational factor "
        f"of degree {degree}")
    # floating-point oracle: the relations before it have integer eigenvalues
    # only, and it has `degree` others
    named = s.labels().index(label)
    for i in range(1, named + 1):
        values = np.linalg.eigvals(np.array(s.p[i], dtype=float))
        off = np.abs(values - np.round(values.real)) > 1e-6
        assert off.sum() == (degree if i == named else 0)


@pytest.mark.parametrize("q", [4, 5, 8, 9, 13, 16])
def test_unfused_relations_are_the_classes(q):
    g = build_group(q)
    s = group_scheme(g)
    classes = g.conjugacy_classes()
    assert [(r.id, r.label, r.element_order, r.class_ids, r.size)
            for r in s.relations] == [(c.id, c.label, c.element_order, (c.id,), c.size)
                                      for c in classes]
    assert (s._rel_of == g.class_of_array()).all()
    # the bound on integer roots keeps q=16 from trying every divisor
    assert s.eigen is None and "irrational" in s.eigen_diagnostic


def test_delsarte_bound_random_pairs_q9():
    g = build_group(9)
    s = rational_fusion_scheme(g)
    rng = random.Random(7)
    conn = np.isin(g.class_of_array(), s.relations[2].class_ids + s.relations[4].class_ids)
    elems = list(range(g.order))

    def adjacent(u, v):
        return conn[g.mul(u, g.inv(v))]

    for _ in range(50):
        # greedy random clique and coclique
        clique, coclique = [], []
        for v in rng.sample(elems, 120):
            if all(adjacent(v, u) for u in clique):
                clique.append(v)
            if all(not adjacent(v, u) for u in coclique) and v not in clique:
                coclique.append(v)
        assert len(clique) * len(coclique) <= g.order
