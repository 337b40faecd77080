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

Each family records two feasible regions for its parameters: the ``entry``
region is cut out by the support equalities and entrywise nonnegativity
alone, while the ``valid`` region additionally enforces nonnegativity of the
MacWilliams transform.  Membership in the latter is what actual subsets must
satisfy; the former is the conventional way one-parameter families are
displayed.
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
    entry_range: tuple[Fraction, Fraction] | None   # dim-1 families only
    valid_range: tuple[Fraction, Fraction] | None   # None when psd-empty
    entry_vertices: tuple[Vec, ...]  # parameter-space vertices (dim >= 2) or ()
    valid_vertices: tuple[Vec, ...]
    entry_rows: tuple[tuple[Fraction, Vec], ...]    # affine constraints >= 0
    valid_rows: tuple[tuple[Fraction, Vec], ...]
    psd_feasible: bool

    @property
    def dim(self) -> int:
        return len(self.dirs)

    def vector(self, params) -> Vec:
        if not isinstance(params, (tuple, list)):
            params = (params,)
        out = list(self.base)
        for t, d in zip(params, self.dirs):
            for i, x in enumerate(d):
                out[i] += t * x
        return tuple(out)

    def entry_corner_vectors(self) -> list[Vec]:
        if self.dim == 0:
            return [self.base]
        if self.dim == 1:
            lo, hi = self.entry_range
            pts = [self.vector((lo,)), self.vector((hi,))]
            return pts if pts[0] != pts[1] else pts[:1]
        return [self.vector(v) for v in self.entry_vertices]

    def valid_corner_vectors(self) -> list[Vec]:
        if not self.psd_feasible:
            return []
        if self.dim == 0:
            return [self.base]
        if self.dim == 1:
            lo, hi = self.valid_range
            pts = [self.vector((lo,)), self.vector((hi,))]
            return pts if pts[0] != pts[1] else pts[:1]
        return [self.vector(v) for v in self.valid_vertices]

    def support(self, labels: list[str]) -> tuple[str, ...]:
        out = set()
        for vec in self.entry_corner_vectors():
            for r in range(1, len(vec)):
                if vec[r] != 0:
                    out.add(labels[r])
        return tuple(sorted(out, key=label_sort_key))

    def contains_vector(self, vec: Vec, region: str = "entry") -> bool:
        """Exact membership of a full distribution vector in a feasible region."""
        rows = self.entry_rows if region == "entry" else self.valid_rows
        if self.dim == 0:
            return self.base == vec and (region == "entry" or self.psd_feasible)
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
                   for c0, coeffs in rows)


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
    notes: list[str] | None = None


def candidate_class_sets(scheme: AssociationScheme) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All unordered complementary pairs of nonempty proper fused class sets."""
    labels = sorted(scheme.nontrivial_labels(), key=label_sort_key)
    pairs = []
    seen = set()
    for r in range(1, len(labels)):
        for combo in itertools.combinations(labels, r):
            rest = tuple(l for l in labels if l not in combo)
            if not rest:
                continue
            key = frozenset((frozenset(combo), frozenset(rest)))
            if key in seen:
                continue
            seen.add(key)
            pairs.append((combo, rest))
    pairs.sort(key=lambda p: (len(p[0]), [label_sort_key(l) for l in p[0]]))
    return pairs


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


def _interval(rows) -> tuple[Fraction, Fraction] | None:
    lo, hi = None, None
    for c0, coeffs in rows:
        c1 = coeffs[0]
        if c1 == 0:
            if c0 < 0:
                return None
        elif c1 > 0:
            bound = -c0 / c1
            lo = bound if lo is None or bound > lo else lo
        else:
            bound = -c0 / c1
            hi = bound if hi is None or bound < hi else hi
    if lo is None or hi is None or lo > hi:
        return None
    return (lo, hi)


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


def _point_ok(rows) -> bool:
    return all(c0 >= 0 for c0, _ in rows)


def _make_family(scheme, base, dirs, side_ids) -> SideFamily | None:
    """Family over the entrywise-feasible region, or None when infeasible.

    As actual subsets demand, the family must contain a point with
    nonnegative MacWilliams transform.  The reported parameter range is
    always the entrywise one; the psd-refined subrange is carried alongside.
    """
    entry_rows = _constraints(scheme, base, dirs, side_ids, include_transform=False)
    valid_rows = _constraints(scheme, base, dirs, side_ids, include_transform=True)
    size = sum(base[1:], Fraction(1))
    if size.denominator != 1:
        return None
    size = int(size)
    if not dirs:
        if not _point_ok(entry_rows):
            return None
        if not _point_ok(valid_rows):
            return None
        return SideFamily(tuple(base), (), size, None, None, (), (),
                          tuple(entry_rows), tuple(valid_rows), True)
    if len(dirs) == 1:
        entry = _interval(entry_rows)
        if entry is None:
            return None
        valid = _interval(valid_rows)
        if valid is None:
            return None
        d = dirs[0]
        lead = next(r for r in range(len(d)) if d[r] != 0)
        scale = d[lead]
        d = tuple(x / scale for x in d)
        lo_e, hi_e = sorted((entry[0] * scale, entry[1] * scale))
        shifted = tuple(b + lo_e * x for b, x in zip(base, d))
        if lo_e == hi_e:
            point_rows_e = _constraints(scheme, list(shifted), [], side_ids, False)
            point_rows_v = _constraints(scheme, list(shifted), [], side_ids, True)
            if not _point_ok(point_rows_v):
                return None
            return SideFamily(shifted, (), size, None, None, (), (),
                              tuple(point_rows_e), tuple(point_rows_v), True)
        rows_e = _constraints(scheme, list(shifted), [list(d)], side_ids, False)
        rows_v = _constraints(scheme, list(shifted), [list(d)], side_ids, True)
        lo_v, hi_v = sorted((valid[0] * scale, valid[1] * scale))
        return SideFamily(shifted, (d,), size,
                          (Fraction(0), hi_e - lo_e), (lo_v - lo_e, hi_v - lo_e),
                          (), (), tuple(rows_e), tuple(rows_v), True)
    entry_verts = _vertices(entry_rows, len(dirs))
    if not entry_verts:
        return None
    valid_verts = _vertices(valid_rows, len(dirs))
    if not valid_verts:
        return None
    return SideFamily(tuple(base), tuple(tuple(d) for d in dirs), size,
                      None, None, tuple(entry_verts), tuple(valid_verts),
                      tuple(entry_rows), tuple(valid_rows), True)


def _sigma_span(base, dirs) -> Fraction | None:
    if any(sum(d[1:], Fraction(0)) != 0 for d in dirs):
        return None
    return sum(base[1:], Fraction(1))


def _divisor_splits(omega: int):
    return [(s, omega // s) for s in range(2, omega // 2 + 1) if omega % s == 0]


def enumerate_feasible_pairs(scheme: AssociationScheme, clique_labels,
                             divisibility_filter: bool = True) -> list[FeasiblePair]:
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
    relaxed: list[FeasiblePair] = []
    for bits in range(1 << d):
        zero_a = [m + 1 for m in range(d) if bits >> m & 1]
        zero_b = [m + 1 for m in range(d) if not bits >> m & 1]
        a_free = _solve_side(scheme, a_ids, zero_a, None)
        if a_free is None:
            continue
        sigma_a = _sigma_span(*a_free)
        if sigma_a is not None:
            bad = (sigma_a.denominator != 1 or not 2 <= sigma_a <= omega // 2
                   or omega % int(sigma_a))
            if bad:
                if not divisibility_filter:
                    _collect_relaxed(scheme, a_ids, b_ids, zero_a, zero_b,
                                     sigma_a, omega, relaxed)
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
    result = _dedupe(out)
    if not divisibility_filter:
        result = result + relaxed
    return result


def _collect_relaxed(scheme, a_ids, b_ids, zero_a, zero_b, sigma_a, omega, sink):
    """Solutions admitted only because size integrality/divisibility is waived."""
    if sigma_a is None or sigma_a <= 1:
        return
    base_a, dirs_a = _solve_side(scheme, a_ids, zero_a, None)
    rows_a = _constraints(scheme, base_a, dirs_a, a_ids, include_transform=True)
    if dirs_a:
        if len(dirs_a) == 1 and _interval(rows_a) is None:
            return
    elif not _point_ok(rows_a):
        return
    sigma_b = Fraction(omega) / sigma_a
    b_sys = _solve_side(scheme, b_ids, zero_b, None)
    if b_sys is None:
        return
    base_b, dirs_b = b_sys
    forced_b = _sigma_span(base_b, dirs_b)
    if forced_b is not None and forced_b != sigma_b:
        return
    fam_a = SideFamily(tuple(base_a), (), -1, None, None, (), (), (), (), False)
    fam_b = SideFamily(tuple(base_b), (), -1, None, None, (), (), (), (), False)
    sink.append(FeasiblePair(fam_a, fam_b))


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
    return all(big.contains_vector(v, region="entry")
               for v in small.entry_corner_vectors())


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
                note = None if (om, al) in novel_targets else \
                    ["families repeat earlier rows with clique and coclique swapped"]
                rows.append(TableRow(combo, rest, om, al, group,
                                     novel=(om, al) in novel_targets, notes=note))
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
            "psd_feasible": fam.psd_feasible,
        }
        if fam.dim == 1:
            data["direction"] = [str(x) for x in fam.dirs[0]]
            data["entry_range"] = [str(fam.entry_range[0]), str(fam.entry_range[1])]
            if fam.valid_range is not None:
                data["valid_range"] = [str(fam.valid_range[0]), str(fam.valid_range[1])]
        elif fam.dim >= 2:
            data["directions"] = [[str(x) for x in d] for d in fam.dirs]
            data["entry_vertices"] = [[str(x) for x in v] for v in fam.entry_vertices]
            data["valid_vertices"] = [[str(x) for x in v] for v in fam.valid_vertices]
        return data

    return {"clique": side(pair.clique), "coclique": side(pair.coclique)}
