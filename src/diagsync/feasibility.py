"""Inner-distribution feasibility for extremal clique/coclique pairs.

For a complementary pair {I, I^c} of fused class sets, a clique C of the
graph on I and a coclique S with |C| * |S| = |Omega| would have inner
distributions a (supported on I) and b (supported on I^c) satisfying

  * a_i, b_i >= 0 and a_0 = b_0 = 1,
  * (aQ)_m >= 0 and (bQ)_m >= 0 for every eigenspace m,
  * (aQ)_m * (bQ)_m = 0 for every m >= 1,
  * |C| = sum(a) and |S| = sum(b) positive integers with product |Omega|.

The solver fixes, for each of the 2^d zero sets Z, that the clique side's
transform vanishes at the eigenspaces in Z and the coclique side's at the
rest.  Each side's system (its transform equations at its zero set plus the
row fixing its size) is eliminated once per zero set on Python integers,
with Q scaled once to an integer matrix and the size carried as a second
right-hand column, so one pass gives the sizes at which the system is
consistent, its particular solution and its kernel.  The walk visits the
clique side's zero sets in increasing order, which puts every subset of a
zero set before the set, then the coclique cells those sizes need, again
in increasing order.  A zero set no size satisfies, or a (zero set, size)
with an empty entry or valid region, kills every superset of its zero set
(at that size): a larger zero set only adds equations, so the skip is
exact.  The clique family A(Z, s) pairs with the coclique family
B(Z^c, |Omega|/s), and within one `putative_table` call each class set's
families are computed once, whichever side it is on.

Constraint rows are integer numerators over the system's one denominator.
A region's vertices are the ends of the segments it cuts from the lines
where all but one of its parameters are fixed by tight rows; with one
parameter that is the interval from the largest lower bound to the least
upper bound.  Fractions appear only once a family survives both regions,
in its base, directions, rows and vertices, and in merging the survivors
into maximal affine families.  Every step is exact; no tolerance is
involved.

Each family is an affine map from a parameter polytope into distribution
space, stored by its base point, directions, the affine rows cutting out the
``entry`` region (support equalities and entrywise nonnegativity alone) and
the parameter-space vertex lists of two regions: the ``entry`` region and
the ``valid`` region, which also enforces nonnegativity of the MacWilliams
transform.  Membership in the latter is what actual subsets must satisfy; the
former is the conventional way one-parameter families are displayed.  A
single point is the family of dimension 0, whose one vertex is ``()``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import eliminate, rref
from .psl2 import label_sort_key
from .scheme import AssociationScheme

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class SideFamily:
    base: Vec                       # vector over relations at parameter 0
    dirs: tuple[Vec, ...]           # affine directions; () for a single point
    size: int
    entry_rows: tuple[tuple[Fraction, Vec], ...]    # affine constraints >= 0
    entry_vertices: tuple[Vec, ...]  # sorted parameter-space vertices of the
    valid_vertices: tuple[Vec, ...]  # entry and of the valid region

    @property
    def dim(self) -> int:
        return len(self.dirs)

    @property
    def entry_range(self) -> tuple[Fraction, Fraction]:
        """Parameter interval of a one-parameter family's entry region."""
        return self.entry_vertices[0][0], self.entry_vertices[-1][0]

    @property
    def valid_range(self) -> tuple[Fraction, Fraction]:
        return self.valid_vertices[0][0], self.valid_vertices[-1][0]

    def vector(self, params) -> Vec:
        if not isinstance(params, (tuple, list)):
            params = (params,)
        out = list(self.base)
        for t, d in zip(params, self.dirs):
            for i, x in enumerate(d):
                out[i] += t * x
        return tuple(out)

    def entry_corner_vectors(self) -> list[Vec]:
        return [self.vector(v) for v in self.entry_vertices]

    def support(self, labels: list[str]) -> tuple[str, ...]:
        out = set()
        for vec in self.entry_corner_vectors():
            for r in range(1, len(vec)):
                if vec[r] != 0:
                    out.add(labels[r])
        return tuple(sorted(out, key=label_sort_key))

    def contains_vector(self, vec: Vec) -> bool:
        """Exact membership of a full distribution vector in the entry region."""
        if self.dim == 0:
            return self.base == vec
        diff = [v - b for v, b in zip(vec, self.base)]
        cols = [list(d) for d in self.dirs]
        aug = [[cols[j][i] for j in range(self.dim)] + [diff[i]]
               for i in range(len(diff))]
        red, pivots = rref(aug)
        if self.dim in pivots or len(pivots) != self.dim:
            return False
        params = [Fraction(0)] * self.dim
        for r, pc in enumerate(pivots):
            params[pc] = red[r][self.dim]
        for r in range(len(pivots), len(red)):
            if red[r][self.dim] != 0:
                return False
        return all(c0 + sum(c * t for c, t in zip(coeffs, params)) >= 0
                   for c0, coeffs in self.entry_rows)


@dataclass(frozen=True)
class FeasiblePair:
    clique: SideFamily
    coclique: SideFamily

    @property
    def omega_target(self) -> int:
        return self.clique.size

    @property
    def alpha_target(self) -> int:
        return self.coclique.size


@dataclass
class TableRow:
    clique_classes: tuple[str, ...]
    coclique_classes: tuple[str, ...]
    omega_target: int
    alpha_target: int
    families: list[FeasiblePair]
    novel: bool = True            # False: families repeat earlier rows' (swapped)

    def payload(self, labels: list[str]) -> dict:
        return {"clique_classes": list(self.clique_classes),
                "coclique_classes": list(self.coclique_classes),
                "omega_target": self.omega_target, "alpha_target": self.alpha_target,
                "novel": self.novel,
                "families": [family_description(f, labels) for f in self.families]}


# -- one-sided systems, tabulated over zero sets -----------------------------------


class _SideTables:
    """Families of one scheme's sides by (class set, zero set, size), each
    computed at most once, with Q scaled once to an integer matrix.

    A zero set is a bit mask over the nontrivial eigenspaces (bit m for
    eigenspace m + 1).  A zero set whose system no integer size satisfies
    kills every superset, and a (zero set, size) without a family kills
    every superset at that size: a larger zero set only adds equations.
    Callers that visit zero sets in increasing order meet each set after
    its subsets, so the supersets are skipped unsolved.
    """

    def __init__(self, scheme: AssociationScheme):
        q = scheme.eigen.Q
        den = lcm(*(x.denominator for row in q for x in row))
        self.q = [[int(x * den) for x in row] for row in q]
        self.scheme = scheme
        omega = scheme.omega
        self.sizes = [s for s in range(2, omega // 2 + 1) if omega % s == 0]
        self.systems: dict[tuple, tuple | None] = {}          # (side, zero set)
        self.families: dict[tuple, SideFamily | None] = {}    # (side, zero set, size)
        # (side, size) -> dead zero sets; size None: no size is consistent
        self.dead: dict[tuple, list[int]] = {}

    def _dead(self, side: tuple[int, ...], size: int | None, mask: int) -> bool:
        return any(m & ~mask == 0 for m in self.dead.get((side, size), ()))

    def system(self, side: tuple[int, ...], mask: int):
        """The side's transform equations at the zero set plus the size row,
        eliminated once with the size as a second right-hand column.

        Returns (rows, pivots, det, fixed) with fixed the one consistent size
        or None when every size is consistent; None when no integer size is.
        """
        if (side, mask) not in self.systems:
            system = None
            if not self._dead(side, None, mask):
                system = self._eliminate(side, mask)
                if system is None:
                    self.dead.setdefault((side, None), []).append(mask)
            self.systems[side, mask] = system
        return self.systems[side, mask]

    def _eliminate(self, side: tuple[int, ...], mask: int):
        q = self.q
        nv = len(side)
        # row: coefficients | constant | coefficient of the size
        rows = [[q[r][m + 1] for r in side] + [-q[0][m + 1], 0]
                for m in range(self.scheme.d) if mask >> m & 1]
        rows.append([1] * nv + [-1, 1])
        red, pivots, det = eliminate(rows, nv)
        fixed = None
        for row in red[len(pivots):]:
            c, e = row[nv], row[nv + 1]
            if not e:
                if c:
                    return None
            elif c % e or (fixed is not None and fixed != -c // e):
                return None
            else:
                fixed = -c // e
        return red[:len(pivots)], pivots, det, fixed

    def sizes_of(self, side: tuple[int, ...], mask: int) -> list[int]:
        """Candidate sizes, increasing, at which the zero set may have a family."""
        system = self.system(side, mask)
        if system is None:
            return []
        return [s for s in self.sizes if system[3] in (None, s)
                and not self._dead(side, s, mask)]

    def family(self, side: tuple[int, ...], mask: int, size: int) -> SideFamily | None:
        key = (side, mask, size)
        if key not in self.families:
            fam = None
            system = None if self._dead(side, size, mask) else self.system(side, mask)
            if system is not None:
                if system[3] in (None, size):
                    fam = self._make_family(side, system, size)
                if fam is None:
                    self.dead.setdefault((side, size), []).append(mask)
            self.families[key] = fam
        return self.families[key]

    def _make_family(self, side: tuple[int, ...], system, size: int) -> SideFamily | None:
        """Family over the entrywise-feasible region, or None when infeasible.

        As actual subsets demand, the family must contain a point with
        nonnegative MacWilliams transform: its valid region is nonempty.
        Base, directions and rows are integer numerators over det.
        """
        red, pivots, det, _ = system
        nv = len(side)
        q = self.q
        n = len(q)
        base = [0] * n
        base[0] = det
        for row, pc in zip(red, pivots):
            base[side[pc]] = row[nv] + size * row[nv + 1]
        dirs = []
        for fc in range(nv):
            if fc not in pivots:
                d = [0] * n
                d[side[fc]] = det
                for row, pc in zip(red, pivots):
                    d[side[pc]] = -row[fc]
                dirs.append(d)
        dim = len(dirs)
        entry_rows = [(base[r], tuple(d[r] for d in dirs)) for r in side]
        entry = _vertices(entry_rows, dim)
        if not entry:
            return None
        support = (0,) + side
        transform_rows = [(sum(base[j] * q[j][m] for j in support),
                           tuple(sum(d[j] * q[j][m] for j in support) for d in dirs))
                          for m in range(n)]
        valid = _vertices(entry_rows + transform_rows, dim)
        if not valid:
            return None

        def frac(values):
            return tuple(Fraction(x, det) for x in values)

        fam = SideFamily(frac(base), tuple(map(frac, dirs)), size,
                         tuple((Fraction(c0, det), frac(cs)) for c0, cs in entry_rows),
                         _points(entry), _points(valid))
        return _unit_lead(fam) if dim == 1 else fam


def _vertices(rows, dim: int) -> list[tuple[tuple[int, ...], int]]:
    """Vertices of {t : c0 + c.t >= 0 for every row (c0, c)} in R^dim, each as
    integer numerators over a positive denominator (bounded regions only).

    A vertex ends the segment that the region cuts from a line on which
    dim - 1 independent rows are tight, so the walk goes over those lines.
    With one parameter the one line is the whole space.
    """
    if any(c0 < 0 for c0, cs in rows if not any(cs)):
        return []
    if dim == 0:
        return [((), 1)]
    # the distinct hyperplanes: rows in lowest terms, constant rows left out
    planes = list(dict.fromkeys((c0 // g, tuple(c // g for c in cs))
                                for c0, cs in rows if any(cs)
                                for g in [gcd(c0, *cs)]))
    verts = set()
    for combo in itertools.combinations(planes, dim - 1):
        red, pivots, det = eliminate([list(cs) + [-c0] for c0, cs in combo], dim)
        if len(pivots) < dim - 1:
            continue
        free = next(c for c in range(dim) if c not in pivots)
        # the line t = (base + s * way) / det
        base, way = [0] * dim, [0] * dim
        way[free] = det
        for row, pc in zip(red, pivots):
            base[pc], way[pc] = row[dim], -row[free]
        line = [(c0 * det + sum(map(operator.mul, cs, base)),
                 sum(map(operator.mul, cs, way))) for c0, cs in planes]
        for s, den in _segment(line):
            point = [b * den + s * w for b, w in zip(base, way)]
            g = gcd(det * den, *point)
            verts.add((tuple(t // g for t in point), det * den // g))
    return list(verts)


def _segment(rows) -> list[tuple[int, int]]:
    """Ends of {s : a0 + a1 s >= 0 for every row (a0, a1)} as (numerator,
    positive denominator): the largest lower and the least upper bound."""
    lo = hi = None
    for a0, a1 in rows:
        if a1 > 0:
            if lo is None or -a0 * lo[1] > lo[0] * a1:
                lo = (-a0, a1)
        elif a1 < 0:
            if hi is None or a0 * hi[1] < hi[0] * -a1:
                hi = (a0, -a1)
        elif a0 < 0:
            return []
    if lo is not None and hi is not None:
        if lo[0] * hi[1] > hi[0] * lo[1]:
            return []
        if lo[0] * hi[1] == hi[0] * lo[1]:
            hi = None
    return [end for end in (lo, hi) if end is not None]


def _points(verts) -> tuple[Vec, ...]:
    return tuple(sorted(tuple(Fraction(t, den) for t in point) for point, den in verts))


def _unit_lead(fam: SideFamily) -> SideFamily:
    """A one-parameter family in display form: unit lead coefficient and an
    entry range starting at 0; over a single point, that point."""
    (d,) = fam.dirs
    scale = next(x for x in d if x != 0)
    # the parameter t becomes (t - shift) * scale, 0 at the low end of the range
    shift = fam.entry_vertices[0 if scale > 0 else -1][0]
    base = tuple(b + shift * x for b, x in zip(fam.base, d))
    if len(fam.entry_vertices) == 1:
        rows = tuple((c0 + c1 * shift, ()) for c0, (c1,) in fam.entry_rows)
        return SideFamily(base, (), fam.size, rows, ((),), ((),))
    rows = tuple((c0 + c1 * shift, (c1 / scale,)) for c0, (c1,) in fam.entry_rows)

    def params(verts):
        return tuple(sorted(((t - shift) * scale,) for (t,) in verts))

    return SideFamily(base, (tuple(x / scale for x in d),), fam.size, rows,
                      params(fam.entry_vertices), params(fam.valid_vertices))


def enumerate_feasible_pairs(scheme: AssociationScheme, clique_labels) -> list[FeasiblePair]:
    """All maximal feasible (clique, coclique) families for one class-set pair.

    clique_labels designates the side whose graph the clique lives in; the
    coclique side is its complement among nontrivial fused classes.
    """
    return _feasible_pairs(_SideTables(scheme), clique_labels)


def _feasible_pairs(tables: _SideTables, clique_labels) -> list[FeasiblePair]:
    scheme = tables.scheme
    clique_set = set(map(str, clique_labels))
    a = tuple(r.id for r in scheme.relations[1:] if r.label in clique_set)
    b = tuple(r.id for r in scheme.relations[1:] if r.label not in clique_set)
    if len(a) != len(clique_set):
        raise ValueError("unknown fused class label in " + repr(tuple(clique_labels)))
    if not b:
        raise ValueError("clique side must be a proper subset of the classes")
    omega = scheme.omega
    full = (1 << scheme.d) - 1
    # clique zero sets in increasing order, then the coclique cells they need
    # in increasing order: either way a zero set comes after its subsets
    live = [(mask, s, fam) for mask in range(full + 1) for s in tables.sizes_of(a, mask)
            if (fam := tables.family(a, mask, s)) is not None]
    for mask, s in sorted({(full ^ mask, omega // s) for mask, s, _ in live}):
        tables.family(b, mask, s)
    out = [FeasiblePair(fa, fb) for mask, s, fa in live
           if (fb := tables.family(b, full ^ mask, omega // s)) is not None]
    return _dedupe(out)


def _dedupe(pairs: list[FeasiblePair]) -> list[FeasiblePair]:
    kept: list[FeasiblePair] = []
    for cand in sorted(pairs, key=_family_extent, reverse=True):
        if not any(_pair_contains(big, cand) for big in kept):
            kept.append(cand)
    return kept


def _family_extent(pair: FeasiblePair) -> int:
    return pair.clique.dim + pair.coclique.dim


def _pair_contains(big: FeasiblePair, small: FeasiblePair) -> bool:
    if (big.omega_target, big.alpha_target) != (small.omega_target, small.alpha_target):
        return False
    return (_side_contains(big.clique, small.clique)
            and _side_contains(big.coclique, small.coclique))


def _side_contains(big: SideFamily, small: SideFamily) -> bool:
    return all(big.contains_vector(v) for v in small.entry_corner_vectors())


# -- the putative table -----------------------------------------------------------


def putative_table(scheme: AssociationScheme) -> list[TableRow]:
    """One row per surviving case of the complementation-reduced analysis.

    Cases are indexed by the clique-side support X, ranging over class sets
    with at most floor(d/2) classes (some side of any witness pair has support
    that small, so this is complete up to swapping clique and coclique).  A
    case contributes a row when it has a family whose clique support is
    exactly X.  A row whose families all repeat, with clique and coclique
    exchanged, solutions of earlier rows is flagged novel=False: refuting the
    earlier rows refutes it too, but it still names a graph pair to resolve.
    """
    labels = scheme.labels()
    nontrivial = sorted(scheme.nontrivial_labels(), key=label_sort_key)
    half = scheme.d // 2
    tables = _SideTables(scheme)
    rows: list[TableRow] = []
    kept: list[FeasiblePair] = []
    emitted_pairs: set[frozenset] = set()
    for size in range(1, half + 1):
        for combo in itertools.combinations(nontrivial, size):
            rest = tuple(l for l in nontrivial if l not in combo)
            pair_key = frozenset((frozenset(combo), frozenset(rest)))
            if pair_key in emitted_pairs:
                continue  # mirror orientation of an already-listed pair
            fams = _feasible_pairs(tables, combo)
            exact = [f for f in fams if f.clique.support(labels) == combo]
            if not exact:
                continue
            emitted_pairs.add(pair_key)
            novel_fams = [f for f in exact if not _duplicate_of_kept(f, kept)]
            kept.extend(novel_fams)
            by_target: dict[tuple[int, int], list[FeasiblePair]] = {}
            for f in exact:
                by_target.setdefault((f.omega_target, f.alpha_target), []).append(f)
            novel_targets = {(f.omega_target, f.alpha_target) for f in novel_fams}
            for (om, al), group in sorted(by_target.items()):
                rows.append(TableRow(combo, rest, om, al, group,
                                     novel=(om, al) in novel_targets))
    rows.sort(key=lambda r: (len(r.clique_classes),
                             [label_sort_key(l) for l in r.clique_classes]))
    return rows


def _duplicate_of_kept(pair: FeasiblePair, kept: list[FeasiblePair]) -> bool:
    """True when every solution of the family already occurs, possibly with
    clique and coclique exchanged, in one of the kept families."""
    corners_a = pair.clique.entry_corner_vectors()
    corners_b = pair.coclique.entry_corner_vectors()
    for fam in kept:
        ok = True
        for va in corners_a:
            for vb in corners_b:
                direct = (fam.clique.contains_vector(va)
                          and fam.coclique.contains_vector(vb))
                swapped = (fam.clique.contains_vector(vb)
                           and fam.coclique.contains_vector(va))
                if not (direct or swapped):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def family_description(pair: FeasiblePair, labels: list[str]) -> dict:
    """JSON-friendly rendering of one feasible family."""

    def side(fam: SideFamily) -> dict:
        data = {
            "size": fam.size,
            "support": list(fam.support(labels)),
            "base": [str(x) for x in fam.base],
        }
        if fam.dim == 1:
            data["direction"] = [str(x) for x in fam.dirs[0]]
            data["entry_range"] = [str(x) for x in fam.entry_range]
            data["valid_range"] = [str(x) for x in fam.valid_range]
        elif fam.dim >= 2:
            data["directions"] = [[str(x) for x in d] for d in fam.dirs]
            data["entry_vertices"] = [[str(x) for x in v] for v in fam.entry_vertices]
            data["valid_vertices"] = [[str(x) for x in v] for v in fam.valid_vertices]
        return data

    return {"clique": side(pair.clique), "coclique": side(pair.coclique)}
