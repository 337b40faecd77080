"""Correctness checks on analyze reports, made apart from the program.

Element indices are re-derived here from the canonical enumeration that the
diagsync README documents (determinant-one matrices modulo sign, the sign
fixed by the first nonzero entry, tuples sorted lexicographically), with this
file's own 2x2 matrix arithmetic mod q.  This is done for prime q only, where
field elements are plain residues.  Reference values are the paper's.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

# dual eigenmatrix Q of the fused q=13 scheme, rows by relation label
PAPER_Q13 = {
    "1": [1, 98, 432, 169, 196, 196],
    "6": [1, -14, 0, 13, -14, 14],
    "2": [1, -14, 0, 13, 28, -28],
    "3": [1, 14, 0, 13, -14, -14],
    "7": [1, 0, 12, -13, 0, 0],
    "13": [1, 7, -36, 0, 14, 14],
}
# (omega, alpha) targets of the six novel q=13 rows
PAPER_TARGETS_Q13 = sorted([(13, 84), (14, 78), (39, 28), (42, 26), (26, 42), (28, 39)])
PAPER_ALPHA_3_13 = 22


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))


class PrimePSL2:
    """PSL(2,p) for prime p, indexed as the diagsync README documents."""

    def __init__(self, p: int):
        self.p = p
        els = set()
        for a in range(1, p):
            ainv = pow(a, -1, p)
            for b in range(p):
                for c in range(p):
                    els.add(self.canonical((a, b, c, ainv * (1 + b * c) % p)))
        for b in range(1, p):
            c = -pow(b, -1, p) % p
            for d in range(p):
                els.add(self.canonical((0, b, c, d)))
        self.elements = sorted(els)

    def canonical(self, m):
        p = self.p
        first = next(x for x in m if x)
        return m if first < p - first else tuple(-x % p for x in m)

    def mul(self, x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        p = self.p
        return self.canonical(((a1 * a2 + b1 * c2) % p, (a1 * b2 + b1 * d2) % p,
                               (c1 * a2 + d1 * c2) % p, (c1 * b2 + d1 * d2) % p))

    def inv(self, x):
        a, b, c, d = x
        p = self.p
        return self.canonical((d, -b % p, -c % p, a))

    def order(self, x) -> int:
        ident = self.canonical((1, 0, 0, 1))
        k, y = 1, x
        while y != ident:
            y = self.mul(y, x)
            k += 1
        return k

    def quotient_order(self, u: int, v: int) -> int:
        """Order of u * v^-1, from element indices."""
        return self.order(self.mul(self.elements[u], self.inv(self.elements[v])))


def group_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def _witnesses(report):
    """(classes, vertices, is_clique) for every clique/coclique in a report."""
    for gv in report["graphs"]:
        for cert in gv["certificates"]:
            kind = cert.get("kind")
            if kind in ("realized_clique", "realized_coclique"):
                yield gv["clique_classes"], cert["vertices"], kind == "realized_clique"
            elif kind in ("clique", "coclique") and cert["vertices"]:
                yield cert["graph"]["classes"], cert["vertices"], kind == "clique"


def check_pairwise(report, group: PrimePSL2) -> None:
    """Every fused label is an element order; every witness holds pairwise."""
    orders = {group.order(m) for m in group.elements}
    labels = report["scheme"]["relations"]
    _require(all(x.isdigit() for x in labels), f"q={group.p}: fused labels {labels}")
    _require(sorted(int(x) for x in labels) == sorted(orders),
             f"q={group.p}: fused labels {labels} are not the element orders {sorted(orders)}")
    checked = 0
    for classes, verts, is_clique in _witnesses(report):
        chosen = {int(x) for x in classes}
        for u, v in itertools.combinations(verts, 2):
            adjacent = group.quotient_order(u, v) in chosen
            _require(adjacent == is_clique,
                     f"q={group.p}: witness on {classes} fails at ({u}, {v})")
        checked += 1
    _require(checked > 0, f"q={group.p}: the report carries no clique or coclique")


def check_q13_paper(report) -> None:
    labels = report["scheme"]["relations"]
    mine = [[Fraction(x) for x in row] for row in report["scheme"]["Q"]]
    ref = [PAPER_Q13[lab] for lab in labels]
    n = len(labels)
    _require(any(all(mine[r][perm[c]] == ref[r][c] for r in range(n) for c in range(n))
                 for perm in itertools.permutations(range(n))),
             "q=13: Q differs from the paper's for every column permutation")
    targets = sorted((r["omega_target"], r["alpha_target"])
                     for r in report["feasibility"] if r["novel"])
    _require(targets == PAPER_TARGETS_Q13, f"q=13: targets {targets}")
    for gv in report["graphs"]:
        for cert in gv["certificates"]:
            if cert.get("kind") == "coclique" and \
                    sorted(cert["graph"]["classes"]) == ["13", "3"] and cert["exhaustive"]:
                _require(cert["size"] == PAPER_ALPHA_3_13,
                         f"q=13: alpha(G[3,13]) = {cert['size']}")


def check_witnesses(report, group: PrimePSL2 | None) -> None:
    q = report["meta"]["q"]
    n = group_order(q)
    _require(report["meta"]["group_order"] == n, f"q={q}: group order")
    for wit in report["witnesses"]:
        kind = wit["kind"]
        if kind == "non_spreading_multiset":
            _require(wit["lambda"] == q * (q - 1) // 2, f"q={q}: lambda {wit['lambda']}")
            _require(wit["distinct_images"] == (q + 1) ** 2,
                     f"q={q}: {wit['distinct_images']} images")
        elif kind == "exact_factorisation":
            a, b = wit["A"], wit["B"]
            _require(len(a) * len(b) == n, f"q={q}: |A||B| = {len(a) * len(b)}")
            if group is not None:
                els = group.elements
                products = {group.mul(els[x], els[y]) for x in a for y in b}
                _require(len(products) == n, f"q={q}: {len(products)} distinct products")


def check_verdict(report, expect_separating: set[str]) -> None:
    q = report["meta"]["q"]
    v = report["verdict"]
    _require(v["separating"] in expect_separating,
             f"q={q}: separating {v['separating']}, expected one of {sorted(expect_separating)}")
    if q % 4 == 1 or v["separating"] == "NO":
        _require(v["spreading"] == "NO", f"q={q}: spreading {v['spreading']}")


def claims(report) -> int:
    """Settled rows plus YES/NO separating and spreading verdicts."""
    settled = sum(gv["status"] != "UNRESOLVED" for gv in report["graphs"])
    v = report["verdict"]
    return settled + sum(v[k] in ("YES", "NO") for k in ("separating", "spreading"))


def outcome(report):
    """What a warm re-run must reproduce."""
    return (report["verdict"]["separating"], report["verdict"]["spreading"],
            [gv["status"] for gv in report["graphs"]])
