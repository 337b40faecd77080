"""Inner-distribution feasibility for extremal clique/coclique pairs.

For a complementary pair {I, I^c} of fused class sets, a clique C of the
graph on I and a coclique S with |C| * |S| = |Omega| would have inner
distributions a (supported on I) and b (supported on I^c) satisfying

  * a_i, b_i >= 0 and a_0 = b_0 = 1,
  * (aQ)_m >= 0 and (bQ)_m >= 0 for every eigenspace m,
  * (aQ)_m * (bQ)_m = 0 for every m >= 1,
  * |C| = sum(a) and |S| = sum(b) positive integers with product |Omega|.

The solver enumerates the 2^d assignments of which side's transform vanishes
at each nontrivial eigenspace, solves each resulting exact linear system over
the rationals, intersects with the nonnegativity constraints, keeps solutions
whose sizes divide |Omega|, and merges the survivors into maximal affine
families.  Every step is exact; no tolerance is involved.

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
from dataclasses import dataclass
from fractions import Fraction

from .linalg import nullspace, rref
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


# -- one-sided affine systems ----------------------------------------------------


def _solve_side(scheme: AssociationScheme, side_ids: list[int], zero_cols: list[int],
                sigma: int | None):
    """Affine solution space of one side's system, or None when inconsistent."""
    q = scheme.eigen.Q
    n = len(scheme.relations)
    nv = len(side_ids)
    rows = []
    rhs = []
    for m in zero_cols:
        rows.append([q[r][m] for r in side_ids])
        rhs.append(-q[0][m])
    if sigma is not None:
        rows.append([Fraction(1)] * nv)
        rhs.append(Fraction(sigma - 1))
    if rows:
        aug = [row + [rh] for row, rh in zip(rows, rhs)]
        red, pivots = rref(aug)
        if nv in pivots:
            return None
        x = [Fraction(0)] * nv
        for r, pc in enumerate(pivots):
            x[pc] = red[r][nv]
        dirs_small = nullspace([row[:nv] for row in rows]) if nv else []
    else:
        x = [Fraction(0)] * nv
        dirs_small = [[Fraction(int(i == j)) for i in range(nv)] for j in range(nv)]
    base = [Fraction(0)] * n
    base[0] = Fraction(1)
    for vi, r in enumerate(side_ids):
        base[r] = x[vi]
    dirs = []
    for dv in dirs_small:
        full = [Fraction(0)] * n
        for vi, r in enumerate(side_ids):
            full[r] = dv[vi]
        dirs.append(full)
    return base, dirs


def _constraints(scheme, base, dirs, side_ids, include_transform):
    """Affine rows (c0, coeffs) whose values must be nonnegative."""
    q = scheme.eigen.Q
    n = len(scheme.relations)
    rows = []
    for r in side_ids:
        rows.append((base[r], tuple(d[r] for d in dirs)))
    if include_transform:
        for m in range(n):
            c0 = sum((base[j] * q[j][m] for j in range(n)), Fraction(0))
            coeffs = tuple(sum((d[j] * q[j][m] for j in range(n)), Fraction(0))
                           for d in dirs)
            rows.append((c0, coeffs))
    return rows


def _vertices(rows, dim: int) -> list[Vec]:
    """Vertices of {t : row(t) >= 0} in R^dim (bounded polytopes only)."""
    verts: set[Vec] = set()
    for combo in itertools.combinations(range(len(rows)), dim):
        mat = [list(rows[i][1]) + [-rows[i][0]] for i in combo]
        red, pivots = rref(mat)
        if len(pivots) != dim or dim in pivots:
            continue
        point = [Fraction(0)] * dim
        for r, pc in enumerate(pivots):
            point[pc] = red[r][dim]
        if all(c0 + sum(c * t for c, t in zip(coeffs, point)) >= 0
               for c0, coeffs in rows):
            verts.add(tuple(point))
    return sorted(verts)


def _make_family(scheme, base, dirs, side_ids) -> SideFamily | None:
    """Family over the entrywise-feasible region, or None when infeasible.

    As actual subsets demand, the family must contain a point with
    nonnegative MacWilliams transform: its valid region is nonempty.
    """
    size = sum(base[1:], Fraction(1))
    if size.denominator != 1:
        return None
    entry_rows = _constraints(scheme, base, dirs, side_ids, include_transform=False)
    entry = _vertices(entry_rows, len(dirs))
    if not entry:
        return None
    valid = _vertices(_constraints(scheme, base, dirs, side_ids, include_transform=True),
                      len(dirs))
    if not valid:
        return None
    fam = SideFamily(tuple(base), tuple(map(tuple, dirs)), int(size),
                     tuple(entry_rows), tuple(entry), tuple(valid))
    return _unit_lead(fam) if fam.dim == 1 else fam


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


def _sigma_span(base, dirs) -> Fraction | None:
    if any(sum(d[1:], Fraction(0)) != 0 for d in dirs):
        return None
    return sum(base[1:], Fraction(1))


def _divisor_splits(omega: int):
    return [(s, omega // s) for s in range(2, omega // 2 + 1) if omega % s == 0]


def enumerate_feasible_pairs(scheme: AssociationScheme, clique_labels) -> list[FeasiblePair]:
    """All maximal feasible (clique, coclique) families for one class-set pair.

    clique_labels designates the side whose graph the clique lives in; the
    coclique side is its complement among nontrivial fused classes.
    """
    clique_set = set(map(str, clique_labels))
    a_ids = [r.id for r in scheme.relations[1:] if r.label in clique_set]
    b_ids = [r.id for r in scheme.relations[1:] if r.label not in clique_set]
    if len(a_ids) != len(clique_set):
        raise ValueError("unknown fused class label in " + repr(tuple(clique_labels)))
    if not b_ids:
        raise ValueError("clique side must be a proper subset of the classes")
    omega = scheme.omega
    d = scheme.d
    out: list[FeasiblePair] = []
    for bits in range(1 << d):
        zero_a = [m + 1 for m in range(d) if bits >> m & 1]
        zero_b = [m + 1 for m in range(d) if not bits >> m & 1]
        a_free = _solve_side(scheme, a_ids, zero_a, None)
        if a_free is None:
            continue
        sigma_a = _sigma_span(*a_free)
        if sigma_a is not None:
            if (sigma_a.denominator != 1 or not 2 <= sigma_a <= omega // 2
                    or omega % int(sigma_a)):
                continue
            splits = [(int(sigma_a), omega // int(sigma_a))]
        else:
            splits = _divisor_splits(omega)
        for sa, sb in splits:
            a_sys = _solve_side(scheme, a_ids, zero_a, sa)
            if a_sys is None:
                continue
            a_fam = _make_family(scheme, *a_sys, a_ids)
            if a_fam is None:
                continue
            b_sys = _solve_side(scheme, b_ids, zero_b, sb)
            if b_sys is None:
                continue
            b_fam = _make_family(scheme, *b_sys, b_ids)
            if b_fam is None:
                continue
            out.append(FeasiblePair(a_fam, b_fam))
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
    rows: list[TableRow] = []
    kept: list[FeasiblePair] = []
    emitted_pairs: set[frozenset] = set()
    for size in range(1, half + 1):
        for combo in itertools.combinations(nontrivial, size):
            rest = tuple(l for l in nontrivial if l not in combo)
            pair_key = frozenset((frozenset(combo), frozenset(rest)))
            if pair_key in emitted_pairs:
                continue  # mirror orientation of an already-listed pair
            fams = enumerate_feasible_pairs(scheme, combo)
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
