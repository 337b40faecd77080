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

from .psl2 import (
    PSL2,
    alternating_type_subgroup,
    is_subgroup,
    mask_elements,
    mask_from,
    subgroup_library,
)


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


def verify_exact_factorisation(group: PSL2, a_mask: int, b_mask: int) -> ExactFactorisation:
    """Exhaustive verification of T = AB with trivial intersection."""
    idbit = 1 << group.identity
    checks = {}
    checks["a_subgroup"] = is_subgroup(group, a_mask)
    checks["b_subgroup"] = is_subgroup(group, b_mask)
    a = mask_elements(a_mask)
    b = mask_elements(b_mask)
    checks["nontrivial_proper"] = (1 < len(a) < group.order and
                                   1 < len(b) < group.order)
    checks["order_product"] = len(a) * len(b) == group.order
    checks["trivial_intersection"] = (a_mask & b_mask) == idbit
    products = set()
    if all(checks.values()):
        for x in a:
            for y in b:
                products.add(group.mul(x, y))
        checks["product_bijection"] = len(products) == group.order
    else:
        checks["product_bijection"] = False
    ok = all(checks.values())
    return ExactFactorisation(group.q, tuple(a), tuple(b), ok, checks)


def find_exact_factorisation(group: PSL2, max_conjugates: int = 40):
    """Targeted search over the subgroup library, largest first.

    Returns a verified factorisation, or None within budget.
    """
    idbit = 1 << group.identity
    cands = subgroup_library(group)
    orders = {mask: mask.bit_count() for mask in cands}
    rng = random.Random(group.q)
    for a_mask in cands:
        na = orders[a_mask]
        if na <= 1 or na >= group.order:
            continue
        if group.order % na:
            continue
        need = group.order // na
        for b_mask in cands:
            if orders[b_mask] != need or need <= 1:
                continue
            trial = b_mask
            for attempt in range(max_conjugates):
                if (a_mask & trial) == idbit:
                    fac = verify_exact_factorisation(group, a_mask, trial)
                    if fac.verified:
                        return fac
                    break
                g = rng.randrange(group.order)
                trial = mask_from(group.conj(x, g) for x in mask_elements(b_mask))
    return None


# -- sharply transitive sets ----------------------------------------------------------


def coset_action(group: PSL2, subgroup_mask: int):
    """Right-coset action of the group on H\\T; returns (reps, images).

    images[g] is the tuple of coset indices (H x)^g = H (x g).
    """
    h = mask_elements(subgroup_mask)
    n = group.order
    coset_of = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for hh in h:
            coset_of[group.mul(hh, x)] = idx
    images = []
    for g in range(n):
        images.append(tuple(coset_of[group.mul(reps[c], g)] for c in range(len(reps))))
    return reps, images


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


def find_sharply_transitive_set(group: PSL2, subgroup_mask: int):
    """Search a sharply transitive set for the right-coset action of T.

    Pins the identity (right translation preserves sharpness) and extends by
    pairwise everywhere-disagreeing fixed-point-free elements.
    """
    reps, images = coset_action(group, subgroup_mask)
    degree = len(reps)
    fpf = [g for g in range(group.order)
           if g != group.identity and all(images[g][c] != c for c in range(degree))]
    # discordance masks among candidates
    index = {g: i for i, g in enumerate(fpf)}
    masks = [0] * len(fpf)
    for i, g in enumerate(fpf):
        for j in range(i + 1, len(fpf)):
            h = fpf[j]
            if all(x != y for x, y in zip(images[g], images[h])):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    chosen: list[int] = []

    def extend(cand: int) -> bool:
        if len(chosen) == degree - 1:
            return True
        if cand.bit_count() < degree - 1 - len(chosen):
            return False
        m = cand
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            chosen.append(fpf[i])
            # members are interchangeable: only extend with higher indices
            if extend(cand & masks[i] & ~((low << 1) - 1)):
                return True
            chosen.pop()
        return False

    if extend((1 << len(fpf)) - 1):
        elements = tuple([group.identity] + chosen)
        ok, _ = verify_sharply_transitive([images[g] for g in elements], degree)
        if ok:
            return SharplyTransitiveWitness(
                group.q, degree, elements, tuple(mask_elements(subgroup_mask)), True)
    return None


def index_six_subgroup(group: PSL2):
    """An index-6 subgroup when one exists (the alternating-five subgroup)."""
    a5 = alternating_type_subgroup(group, "A5")
    if a5 and group.order // a5.bit_count() == 6:
        return a5
    return None


# -- the non-spreading multiset --------------------------------------------------------


def squares_of_stabilizer(group: PSL2, stab_mask: int) -> int:
    """The set {t^2 : t in the stabilizer}; verified to be an index-2 subgroup."""
    if group.q % 4 != 1:
        raise WitnessError("square-set construction requires q = 1 mod 4")
    sq = 0
    for t in mask_elements(stab_mask):
        sq |= 1 << group.mul(t, t)
    if not is_subgroup(group, sq):
        raise WitnessError("squares of the stabilizer do not form a subgroup")
    if 2 * sq.bit_count() != stab_mask.bit_count():
        raise WitnessError("squares of the stabilizer do not have index 2")
    return sq


def coset_halving_check(group: PSL2):
    """For two point stabilizers T1, T2: |T1^2 meet T2 t| == |T1 meet T2 t| / 2.

    Exhaustive over all t; also checks the two intersection-size value sets.
    Returns (ok, counterexample_t or None, details).
    """
    q = group.q
    if q % 4 != 1:
        raise WitnessError("check requires q = 1 mod 4")
    t1 = group.point_stabilizer(q)      # infinity
    t2 = group.point_stabilizer(0)
    sq = squares_of_stabilizer(group, t1)
    n = group.order
    counts = [0] * n
    counts_sq = [0] * n
    t2_elems = mask_elements(t2)
    for h1 in mask_elements(t1):
        weight_sq = (sq >> h1) & 1
        for h2 in t2_elems:
            t = group.mul(group.inv(h2), h1)
            counts[t] += 1
            counts_sq[t] += weight_sq
    big = (q - 1) // 2
    for t in range(n):
        if 2 * counts_sq[t] != counts[t] or counts[t] not in (0, big):
            return False, t, {"count": counts[t], "squares": counts_sq[t]}
    return True, None, {"value_set": [0, big], "square_value_set": [0, big // 2]}


def spreading_witness(group: PSL2, rng_seed: int = 0) -> SpreadingWitness:
    """Build and exhaustively verify the weight-2/weight-1 multiset witness."""
    q = group.q
    ok, bad_t, _ = coset_halving_check(group)
    if not ok:
        raise WitnessError(f"stabilizer-coset halving fails at t={bad_t}")
    t1 = group.point_stabilizer(q)
    sq = squares_of_stabilizer(group, t1)
    n = group.order
    weights = [0] * n
    for t in range(n):
        if (sq >> t) & 1:
            weights[t] = 2
        elif not (t1 >> t) & 1:
            weights[t] = 1
    total = sum(weights)
    if total != n:
        raise WitnessError("multiset size differs from the vertex count")
    lam = t1.bit_count()
    images = 0
    for pt in range(q + 1):
        stab = group.point_stabilizer(pt) if pt != q else t1
        stab_elems = mask_elements(stab)
        seen = 0
        for t in range(n):
            if (seen >> t) & 1:
                continue
            total_w = 0
            for h in stab_elems:
                x = group.mul(h, t)
                seen |= 1 << x
                total_w += weights[x]
            if total_w != lam:
                raise WitnessError(
                    f"image sum {total_w} != lambda {lam} at point {pt}, rep {t}")
            images += 1
    expected_images = (q + 1) ** 2
    if images != expected_images:
        raise WitnessError(f"found {images} distinct images, expected {expected_images}")
    # spot-check random two-sided images against the deduplicated enumeration
    rng = random.Random(rng_seed)
    t1_elems = mask_elements(t1)
    for _ in range(20):
        x, y = rng.randrange(n), rng.randrange(n)
        xi = group.inv(x)
        s = sum(weights[group.mul(group.mul(xi, h), y)] for h in t1_elems)
        if s != lam:
            raise WitnessError(f"random image sum {s} != lambda {lam}")
    return SpreadingWitness(q, lam, total, q, tuple(mask_elements(sq)),
                            images, True)
