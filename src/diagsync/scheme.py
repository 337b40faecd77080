"""Conjugacy-class association schemes and their rational fusions.

The diagonal action of T x T on T has orbitals indexed by conjugacy classes:
(u, v) lies in the relation of the class containing u*v^-1.  When every class
is inverse-closed these orbitals form a symmetric association scheme (the
group scheme of T).  Merging classes along power-map (rational) orbits gives
a fusion whose eigenvalues are rational, which is the scheme the rest of the
pipeline works in.  The relations are the group's own records: its fusion
orbits (``PSL2.fusion_orbits``) for the fusion, one ``FusionOrbit`` per class
for the group scheme.  Their order and labels are the group's, so the one
label rule lives in ``psl2``.

Eigenmatrices are computed exactly, on Python integers: the intersection
matrices B_i of the scheme generate a commutative semisimple algebra.  The
roots of each B_i's characteristic polynomial (Faddeev-LeVerrier, exact
integer divisions) must all be integers, and each common eigenspace, held as
an integer basis V, splits by the kernels of (B_i - mu I) V over those roots.
The one-dimensional spaces left are the rows of P, whose entries are the
integer eigenvalues; the multiplicities and the dual eigenmatrix Q follow
from the orthogonality relations.  No floating point is involved anywhere,
and Fractions only in Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from . import linalg
from .psl2 import PSL2, FusionOrbit


class NonSymmetricScheme(Exception):
    """Some class is not inverse-closed, so the orbitals are not symmetric."""


class FusionNotAScheme(Exception):
    """The requested merge of relations violates the scheme axioms."""


class IrrationalEigenvalue(Exception):
    """A characteristic polynomial has an irreducible factor of degree > 1."""


@dataclass
class EigenData:
    P: list[list[int]]                # rows: eigenspaces, columns: relations
    Q: list[list[Fraction]]           # rows: relations, columns: eigenspaces
    multiplicities: list[int]


@dataclass
class AssociationScheme:
    group: PSL2
    relations: list[FusionOrbit]      # the identity first
    p: list[list[list[int]]]          # p[i][j][k]
    eigen: EigenData | None = None
    eigen_diagnostic: str = ""
    _rel_of: np.ndarray = field(default=None, repr=False)

    @property
    def omega(self) -> int:
        return self.group.order

    @property
    def d(self) -> int:
        return len(self.relations) - 1

    def sizes(self) -> list[int]:
        return [r.size for r in self.relations]

    def relation_of_element(self, g: int) -> int:
        return int(self._rel_of[g])

    def labels(self) -> list[str]:
        return [r.label for r in self.relations]

    def nontrivial_labels(self) -> list[str]:
        return [r.label for r in self.relations[1:]]

    def payload(self) -> dict:
        """Relations, sizes, multiplicities and the eigenmatrices P and Q as
        strings; the last three are None without rational eigen data."""
        eigen = self.eigen
        return {
            "relations": self.labels(), "sizes": self.sizes(),
            "multiplicities": eigen.multiplicities if eigen else None,
            "P": [[str(x) for x in row] for row in eigen.P] if eigen else None,
            "Q": [[str(x) for x in row] for row in eigen.Q] if eigen else None,
        }


def _intersection_numbers(group: PSL2, rels: list[FusionOrbit],
                          rel_of: np.ndarray) -> list[list[list[int]]]:
    """p[i][j][k]: for a rep g of each class in relation k, the number of
    elements v with g v^-1 in relation i and v in relation j; the counts
    must agree across the classes of a merged relation."""
    n = len(rels)
    inv = group.inverses()
    p = [[[0] * n for _ in range(n)] for _ in range(n)]
    classes = group.conjugacy_classes()
    for rel in rels:
        reps = [classes[c].rep for c in rel.class_ids]
        i_vecs = rel_of[group.mul_rows(reps)[:, inv]].astype(np.int64)     # rep * v^-1
        counts = [np.bincount(i_vec * n + rel_of, minlength=n * n).reshape(n, n)
                  for i_vec in i_vecs]
        if any(not np.array_equal(counts[0], other) for other in counts[1:]):
            raise FusionNotAScheme(
                f"intersection numbers differ inside merged relation {rel.label}")
        for i, row in enumerate(counts[0].tolist()):
            for j, value in enumerate(row):
                p[i][j][rel.id] = value
    return p


def _verify_axioms(scheme: AssociationScheme) -> None:
    n = len(scheme.relations)
    sizes = scheme.sizes()
    p = scheme.p
    for j in range(n):
        for k in range(n):
            if p[0][j][k] != (1 if j == k else 0):
                raise FusionNotAScheme("identity relation fails p0jk = delta")
    for i in range(n):
        for j in range(n):
            if sum(p[i][j][k] * sizes[k] for k in range(n)) != sizes[i] * sizes[j]:
                raise FusionNotAScheme("row-sum identity fails")
            for k in range(n):
                if p[i][j][k] * sizes[k] != p[k][j][i] * sizes[i]:
                    raise FusionNotAScheme("size-weighted symmetry fails")


def _build_scheme(group: PSL2, rels: list[FusionOrbit],
                  require_eigen: bool) -> AssociationScheme:
    classes = group.conjugacy_classes()
    for rel in rels:
        if {classes[c].inverse_class for c in rel.class_ids} != set(rel.class_ids):
            raise NonSymmetricScheme(
                "a relation is not inverse-closed: " +
                ",".join(classes[c].label for c in rel.class_ids))
    if rels[0].class_ids != (group.class_of(group.identity),):
        raise FusionNotAScheme("identity class must form its own relation")
    rel_of_class = np.empty(len(classes), dtype=np.int16)
    for rel in rels:
        rel_of_class[list(rel.class_ids)] = rel.id
    rel_of = rel_of_class[group.class_of_array()]
    p = _intersection_numbers(group, rels, rel_of)
    scheme = AssociationScheme(group, rels, p, _rel_of=rel_of)
    _verify_axioms(scheme)
    try:
        scheme.eigen = _eigen_data(scheme)
    except IrrationalEigenvalue as exc:
        if require_eigen:
            raise
        scheme.eigen_diagnostic = str(exc)
    return scheme


def group_scheme(group: PSL2) -> AssociationScheme:
    """Scheme of all conjugacy classes; refuses when a class is not real."""
    rels = [FusionOrbit(c.id, c.label, c.element_order, (c.id,), c.size)
            for c in group.conjugacy_classes()]
    return _build_scheme(group, rels, require_eigen=False)


def rational_fusion_scheme(group: PSL2) -> AssociationScheme:
    """Fusion along power-map orbits; always symmetric with rational eigenvalues.

    Built once per group, as nothing changes a built scheme.  The group's
    store keeps it without its group field, which each call fills in.
    """
    kept = group.derived("fusion_scheme", lambda group: replace(
        _build_scheme(group, group.fusion_orbits(), require_eigen=True), group=None))
    return replace(kept, group=group)


# -- exact eigen decomposition --------------------------------------------------


def _eigen_data(scheme: AssociationScheme) -> EigenData:
    n = len(scheme.relations)
    sizes = scheme.sizes()
    mats = scheme.p         # B_i = mats[i]: B_i u = u_i u for each row u of P
    # common eigenspaces as integer bases, from the columns of the identity
    spaces = [[[int(r == c) for r in range(n)] for c in range(n)]]
    for i in range(1, n):
        if all(len(basis) == 1 for basis in spaces):
            break
        # no eigenvalue of a matrix exceeds its largest absolute row sum,
        # and the entries of B_i are the counts p[i][j][k] >= 0
        roots, remaining = linalg.integer_roots(linalg.charpoly(mats[i]),
                                                max(map(sum, mats[i])))
        if remaining:
            raise IrrationalEigenvalue(
                f"relation {scheme.relations[i].label}: characteristic polynomial "
                f"has an irrational factor of degree {remaining}")
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            images = [_apply(mats[i], v) for v in basis]
            total = 0
            for root in sorted(set(roots)):
                # the columns (B_i - root I) v, v in the basis; a kernel vector
                # c gives the eigenvector sum_v c_v v
                shifted = [[w[r] - root * v[r] for w, v in zip(images, basis)]
                           for r in range(n)]
                sub = []
                for c in linalg.nullspace(shifted):
                    v = [sum(map(mul, c, col)) for col in zip(*basis)]
                    content = gcd(*v)
                    sub.append([x // content for x in v])
                if sub:
                    new_spaces.append(sub)
                    total += len(sub)
            if total != len(basis):
                raise IrrationalEigenvalue("eigenspace splitting lost dimensions")
        spaces = new_spaces
    if any(len(b) != 1 for b in spaces):
        raise IrrationalEigenvalue("common eigenspaces did not split to dimension one")
    rows = []
    for (v,) in spaces:
        if v[0] == 0:
            raise IrrationalEigenvalue("eigenvector with vanishing identity coordinate")
        if any(x % v[0] for x in v):
            raise IrrationalEigenvalue("eigenvector verification failed")
        rows.append([x // v[0] for x in v])
    # verify the eigen equations exactly: B_i u = u_i * u
    for u in rows:
        for i in range(n):
            if _apply(mats[i], u) != [u[i] * x for x in u]:
                raise IrrationalEigenvalue("eigenvector verification failed")
    rows.sort(key=lambda u: (u != sizes, u))
    omega = scheme.omega
    # sums of u_j^2 / k_j scaled by the common multiple L of the sizes k_j;
    # u_0 = 1 keeps each sum at L or more, so every multiplicity is positive
    scale = lcm(*sizes)
    weights = [scale // k for k in sizes]
    mults = []
    for u in rows:
        norm = sum(w * x * x for w, x in zip(weights, u))
        if omega * scale % norm:
            raise IrrationalEigenvalue(
                f"non-integral multiplicity {Fraction(omega * scale, norm)}")
        mults.append(omega * scale // norm)
    if sum(mults) != omega:
        raise IrrationalEigenvalue("multiplicities do not sum to the vertex count")
    # P * Q = omega * I with Q[j][b] = m_b u_b[j] / k_j, times L
    for a in range(n):
        for b in range(n):
            val = mults[b] * sum(w * x * y for w, x, y in zip(weights, rows[a], rows[b]))
            if val != (omega * scale if a == b else 0):
                raise IrrationalEigenvalue("P*Q != omega*I")
    q = [[Fraction(mults[b] * rows[b][j], sizes[j]) for b in range(n)] for j in range(n)]
    return EigenData(P=rows, Q=q, multiplicities=mults)


def _apply(mat: list[list[int]], v: list[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in mat]


# -- distributions and transforms ------------------------------------------------


def inner_distribution(vertices, scheme: AssociationScheme) -> tuple[Fraction, ...]:
    verts = list(vertices)
    if not verts:
        raise ValueError("inner distribution of an empty set")
    group = scheme.group
    counts = [0] * len(scheme.relations)
    for u in verts:
        for v in verts:
            counts[scheme.relation_of_element(group.mul(u, group.inv(v)))] += 1
    size = len(verts)
    return tuple(Fraction(c, size) for c in counts)


def macwilliams_transform(dist, scheme: AssociationScheme) -> tuple[Fraction, ...]:
    if scheme.eigen is None:
        raise ValueError("scheme has no exact dual eigenmatrix: " + scheme.eigen_diagnostic)
    q = scheme.eigen.Q
    n = len(scheme.relations)
    return tuple(sum((Fraction(dist[j]) * q[j][i] for j in range(n)), Fraction(0))
                 for i in range(n))


def dual_degree_set(vertices, scheme: AssociationScheme) -> frozenset[int]:
    transform = macwilliams_transform(inner_distribution(vertices, scheme), scheme)
    return frozenset(i for i in range(1, len(transform)) if transform[i] != 0)


def design_orthogonal(c1, c2, scheme: AssociationScheme) -> bool:
    return not (dual_degree_set(c1, scheme) & dual_degree_set(c2, scheme))
