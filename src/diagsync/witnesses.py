"""Group-theoretic witnesses for the negative directions.

Exact factorisations T = AB, searched among the subgroups of
``psl2.subgroup_library``, and sharply transitive sets give non-synchronising
witnesses for the diagonal action.  The non-spreading witness is a weighted
multiset: weight 2 on the squares of a point stabilizer, weight 1 outside the
stabilizer, which meets every translate of the stabilizer in a constant total.
Every witness is verified by exhaustive counting, independently of how it was
found, and the verification record travels with the witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .psl2 import PSL2, alternating_type_subgroup, is_subgroup, mask_elements, subgroup_library

MAX_CONJUGATES = 40      # random conjugates of B tried per pair before moving on


class WitnessError(Exception):
    pass


@dataclass
class ExactFactorisation:
    q: int
    a_elements: tuple[int, ...]
    b_elements: tuple[int, ...]
    verified: bool
    checks: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {"kind": "exact_factorisation", "q": self.q,
                "A": list(self.a_elements), "B": list(self.b_elements),
                "verified": self.verified, "checks": self.checks}


@dataclass
class SharplyTransitiveWitness:
    q: int
    degree: int
    elements: tuple[int, ...]          # group element indices
    subgroup: tuple[int, ...]          # coset-action kernel subgroup
    verified: bool

    def payload(self) -> dict:
        return {"kind": "sharply_transitive", "q": self.q, "degree": self.degree,
                "elements": list(self.elements), "subgroup": list(self.subgroup),
                "verified": self.verified}


@dataclass
class SpreadingWitness:
    q: int
    lam: int
    total: int
    stabilizer_point: int
    squares: tuple[int, ...]
    distinct_images: int
    verified: bool

    def payload(self) -> dict:
        return {"kind": "non_spreading_multiset", "q": self.q, "lambda": self.lam,
                "total": self.total, "stabilizer_point": self.stabilizer_point,
                "squares": list(self.squares),
                "distinct_images": self.distinct_images, "verified": self.verified}


# -- exact factorisations -----------------------------------------------------------


def verify_exact_factorisation(group: PSL2, a: np.ndarray, b: np.ndarray) -> ExactFactorisation:
    """Exhaustive verification of T = AB with trivial intersection, A and B
    ascending element arrays."""
    checks = {}
    checks["a_subgroup"] = is_subgroup(group, a)
    checks["b_subgroup"] = is_subgroup(group, b)
    checks["nontrivial_proper"] = (1 < len(a) < group.order and
                                   1 < len(b) < group.order)
    checks["order_product"] = len(a) * len(b) == group.order
    checks["trivial_intersection"] = np.intersect1d(a, b).tolist() == [group.identity]
    if all(checks.values()):
        hit = np.zeros(group.order, dtype=bool)
        for _, block in group.product_blocks(a, b):
            hit[block] = True
        checks["product_bijection"] = bool(hit.all())
    else:
        checks["product_bijection"] = False
    ok = all(checks.values())
    return ExactFactorisation(group.q, tuple(a.tolist()), tuple(b.tolist()), ok, checks)


def find_exact_factorisation(group: PSL2):
    """Targeted search over the subgroup library, largest first.

    Returns a verified factorisation, or None within budget.
    """
    cands = subgroup_library(group)
    rng = random.Random(group.q)
    for a in cands:
        na = len(a)
        if na <= 1 or na >= group.order:
            continue
        if group.order % na:
            continue
        need = group.order // na
        in_a = np.zeros(group.order, dtype=bool)
        in_a[a] = True
        for b in cands:
            if len(b) != need or need <= 1:
                continue
            trial = b
            for attempt in range(MAX_CONJUGATES):
                if np.count_nonzero(in_a[trial]) == 1:      # both hold the identity
                    fac = verify_exact_factorisation(group, a, trial)
                    if fac.verified:
                        return fac
                    break
                g = rng.randrange(group.order)
                trial = np.sort(group.conjugate(b, g))
    return None


# -- sharply transitive sets ----------------------------------------------------------


def coset_action(group: PSL2, h: np.ndarray):
    """Right-coset action of the group on H\\T; returns (reps, images).

    images[g] is the tuple of coset indices (H x)^g = H (x g).
    """
    n = group.order
    coset_of = np.full(n, -1)
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] < 0:
            coset_of[group.mul_pairs(h, x)] = len(reps)
            reps.append(x)
    images = coset_of[group.mul_rows(reps)].T.tolist()
    return reps, [tuple(row) for row in images]


def verify_sharply_transitive(images: list[tuple[int, ...]], degree: int):
    """Check a set of permutation images for sharp transitivity.

    Returns (ok, reason).  Cardinality mismatch and a sharpness violation are
    reported distinctly.
    """
    if len(images) != degree:
        return False, f"cardinality {len(images)} != degree {degree}"
    if len(set(images)) != len(images):
        return False, "duplicate permutation images"
    for i, b1 in enumerate(images):
        for b2 in images[i + 1:]:
            if any(x == y for x, y in zip(b1, b2)):
                return False, "sharpness violated: two members agree on a point"
    return True, "ok"


def find_sharply_transitive_set(group: PSL2, subgroup: np.ndarray):
    """Search a sharply transitive set for the right-coset action of T on the
    cosets of a subgroup.

    Pins the identity (right translation preserves sharpness) and extends by
    pairwise everywhere-disagreeing fixed-point-free elements, the
    candidates held as int bitsets.
    """
    reps, images = coset_action(group, subgroup)
    degree = len(reps)
    perms = np.array(images)
    fpf = np.flatnonzero((perms != np.arange(degree)).all(axis=1)).tolist()
    # discordance masks among candidates, one packed bitset row each
    moving = perms[fpf]
    discord = (moving[:, None] != moving[None]).all(axis=2)
    masks = [int.from_bytes(row, "little")
             for row in np.packbits(discord, axis=1, bitorder="little")]
    chosen: list[int] = []

    def extend(cand: int) -> bool:
        if len(chosen) == degree - 1:
            return True
        if cand.bit_count() < degree - 1 - len(chosen):
            return False
        for i in mask_elements(cand):
            chosen.append(fpf[i])
            # members are interchangeable: only extend with higher indices
            if extend(cand & masks[i] >> (i + 1) << (i + 1)):
                return True
            chosen.pop()
        return False

    if extend((1 << len(fpf)) - 1):
        elements = tuple([group.identity] + chosen)
        ok, _ = verify_sharply_transitive([images[g] for g in elements], degree)
        if ok:
            return SharplyTransitiveWitness(
                group.q, degree, elements, tuple(subgroup.tolist()), True)
    return None


def index_six_subgroup(group: PSL2):
    """An index-6 subgroup when one exists (the alternating-five subgroup)."""
    a5 = alternating_type_subgroup(group, "A5")
    if a5 is not None and group.order // len(a5) == 6:
        return a5
    return None


# -- the non-spreading multiset --------------------------------------------------------


def squares_of_stabilizer(group: PSL2, stab: np.ndarray) -> np.ndarray:
    """The set {t^2 : t in the stabilizer}; verified to be an index-2 subgroup."""
    if group.q % 4 != 1:
        raise WitnessError("square-set construction requires q = 1 mod 4")
    sq = np.unique(group.mul_pairs(stab, stab)).astype(np.intp)
    if not is_subgroup(group, sq):
        raise WitnessError("squares of the stabilizer do not form a subgroup")
    if 2 * len(sq) != len(stab):
        raise WitnessError("squares of the stabilizer do not have index 2")
    return sq


def coset_halving_check(group: PSL2):
    """For two point stabilizers T1, T2: |T1^2 meet T2 t| == |T1 meet T2 t| / 2.

    Exhaustive over all t; also checks the two intersection-size value sets.
    T1 is the stabilizer of infinity and T2 that of 0.  Under the right
    action T2 t = {g : 0 g = 0 t}, the fibre of the image of 0 at t, so
    |T1 meet T2 t| counts the members of T1 that send 0 where t does: one
    bincount over T1 and one over its squares, read back at every t.
    Returns (ok, counterexample_t or None, details).
    """
    q = group.q
    if q % 4 != 1:
        raise WitnessError("check requires q = 1 mod 4")
    t1 = group.point_stabilizer(q)      # infinity
    image0 = group.act_points(0)
    counts = np.bincount(image0[t1], minlength=q + 1)[image0]
    counts_sq = np.bincount(image0[squares_of_stabilizer(group, t1)], minlength=q + 1)[image0]
    big = (q - 1) // 2
    bad = np.flatnonzero((2 * counts_sq != counts) | ((counts != 0) & (counts != big)))
    if len(bad):
        t = int(bad[0])
        return False, t, {"count": int(counts[t]), "squares": int(counts_sq[t])}
    return True, None, {"value_set": [0, big], "square_value_set": [0, big // 2]}


def verify_spreading_multiset(group: PSL2, stabilizer_point: int, squares) -> SpreadingWitness:
    """Exhaustively verify a weight-2/weight-1 multiset and return its witness.

    The multiset has weight 2 on squares, which must be an index-2 subgroup of
    the stabilizer of stabilizer_point, and weight 1 outside that stabilizer.
    Every right translate of every point stabilizer must meet it in lambda,
    the stabilizer order.  Under the right action S_p y = {g : p g = p y},
    so the right translates of the stabilizer of p are the fibres of the
    image of p: one bincount over image * 3 + weight gives each fibre's size,
    which must be lambda for the translates to partition the group, and its
    weight sum, which must be lambda too.  A failing translate is named by
    its least element, the least of all failing ones.  Twenty seeded
    two-sided translates x^-1 S y are spot-checked on top: each is a right
    translate of x^-1 S x, another point's stabilizer.  For the same y the
    product S y must be the fibre at y, so multiplication still meets the
    action.
    """
    q, n = group.q, group.order
    if not 0 <= stabilizer_point <= q:
        raise WitnessError(f"{stabilizer_point} is not a projective point")
    if not all(isinstance(x, (int, np.integer)) and 0 <= x < n for x in squares):
        raise WitnessError("a square is not a group element")
    stab_image = group.act_points(stabilizer_point)
    stab = np.flatnonzero(stab_image == stabilizer_point)
    sq = np.unique(np.array(squares, dtype=np.intp))
    weights = np.ones(n, dtype=np.int8)
    weights[stab] = 0
    if (weights[sq] != 0).any() or 2 * len(sq) != len(stab) or not is_subgroup(group, sq):
        raise WitnessError("the squares are not an index-2 subgroup of the stabilizer")
    weights[sq] = 2
    total = int(weights.sum())
    if total != n:
        raise WitnessError("multiset size differs from the vertex count")
    lam = len(stab)
    images = 0
    for pt in range(q + 1):
        image = group.act_points(pt)
        counts = np.bincount(image * 3 + weights, minlength=3 * (q + 1)).reshape(q + 1, 3)
        sizes = counts.sum(axis=1)
        sums = counts[:, 1] + 2 * counts[:, 2]
        if ((sizes != 0) & (sizes != lam)).any():
            raise WitnessError(f"stabilizer translates do not partition the group at point {pt}")
        bad = (sizes != 0) & (sums != lam)
        if bad.any():
            rep = int(bad[image].argmax())
            raise WitnessError(
                f"image sum {sums[image[rep]]} != lambda {lam} at point {pt}, rep {rep}")
        images += int(np.count_nonzero(sizes))
    expected_images = (q + 1) ** 2
    if images != expected_images:
        raise WitnessError(f"found {images} distinct images, expected {expected_images}")
    # spot-check random two-sided images against the fibre counts
    rng = random.Random(0)
    inverses = group.inverses()
    for _ in range(20):
        x, y = rng.randrange(n), rng.randrange(n)
        s = int(weights[group.mul_pairs(group.mul_pairs(inverses[x], stab), y)].sum())
        if s != lam:
            raise WitnessError(f"random image sum {s} != lambda {lam}")
        translate = np.sort(group.mul_pairs(stab, y))
        if not np.array_equal(translate, np.flatnonzero(stab_image == stab_image[y])):
            raise WitnessError(f"the stabilizer translate by {y} is not a fibre of the action")
    return SpreadingWitness(q, lam, total, stabilizer_point, tuple(sq.tolist()),
                            images, True)


def spreading_witness(group: PSL2) -> SpreadingWitness:
    """Build and exhaustively verify the weight-2/weight-1 multiset witness."""
    q = group.q
    ok, bad_t, _ = coset_halving_check(group)
    if not ok:
        raise WitnessError(f"stabilizer-coset halving fails at t={bad_t}")
    sq = squares_of_stabilizer(group, group.point_stabilizer(q))
    return verify_spreading_multiset(group, q, sq.tolist())
