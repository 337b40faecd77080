"""Small exact linear-algebra helpers over the rationals.

Matrices are lists of rows of Fractions or ints.  All elimination goes
through `eliminate`, a fraction-free Gauss-Jordan pass on Python integers
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968): every entry it produces is a minor of the
input, so each division in it is exact and no entry grows past the size of
a determinant.  `rref` scales each row by the least common multiple of its
denominators, eliminates, and divides by the one common pivot value at the
end; `nullspace` reads integer kernel vectors from the same pass.  Sizes
here are tiny (at most a few dozen rows).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Matrix = list[list[Fraction]]


def eliminate(m: list[list[int]], width: int | None = None
              ) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Pivots are sought in the first `width` columns (every column by default).
    Returns (rows, pivots, det) with det > 0: row r < len(pivots) holds det
    at column pivots[r] and 0 at every other pivot column, and the rows
    below are zero in the first `width` columns.  The rows divided by det
    are the reduced row echelon form.
    """
    m = [row[:] for row in m]
    rows = len(m)
    cols = (len(m[0]) if m else 0) if width is None else width
    pivots: list[int] = []
    det = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                # Bareiss step: every quotient is a minor of the input, so exact
                m[i] = ([(p * x - f * y) // det for x, y in zip(m[i], top)] if f
                        else [p * x // det for x in m[i]])
        pivots.append(c)
        det = p
        r += 1
    if det < 0:
        m = [[-x for x in row] for row in m]
        det = -det
    return m, pivots, det


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    red, pivots, det = eliminate([integer_row(row) for row in m])
    return [[Fraction(x, det) for x in row] for row in red], pivots


def integer_row(row) -> list[int]:
    """The row scaled by the least common multiple of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def nullspace(m: Matrix) -> list[list[int]]:
    """Integer basis of the right kernel (columns as vectors): for each free
    column, the primitive vector that is positive there and zero at the
    other free columns."""
    cols = len(m[0])
    red, pivots, det = eliminate([integer_row(row) for row in m])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = det
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        content = gcd(*v)
        basis.append([x // content for x in v])
    return basis


def charpoly(m: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(xI - M) of an integer matrix,
    coefficients low to high, by Faddeev-LeVerrier: M_1 = M, c_(n-k) =
    -tr(M_k) / k, M_(k+1) = M (M_k + c_(n-k) I).  The coefficients are
    integers, so each division is exact."""
    n = len(m)
    coeffs = [0] * n + [1]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        c = -sum(mk[r][r] for r in range(n)) // k
        coeffs[n - k] = c
        if k < n:
            for r in range(n):
                mk[r][r] += c
            cols = list(zip(*mk))
            mk = [[sum(map(mul, row, col)) for col in cols] for row in m]
    return coeffs


def integer_roots(poly: list[int], bound: int) -> tuple[list[int], int]:
    """Integer roots (with multiplicity) of a monic integer polynomial whose
    roots all lie in [-bound, bound].

    Returns (roots, remaining_degree) where remaining_degree is the degree of
    the factor left after dividing out all integer roots.  Candidates are
    tried in the order 0, 1, -1, 2, -2, ..., bound, -bound.
    """
    roots: list[int] = []
    for x in (s * m for m in range(bound + 1) for s in (1, -1)):
        while len(poly) > 1 and _poly_eval(poly, x) == 0:
            roots.append(x)
            poly = _deflate(poly, x)
        if len(poly) == 1:
            break
    return roots, len(poly) - 1


def _poly_eval(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _deflate(poly: list[int], root: int) -> list[int]:
    out = [0] * (len(poly) - 1)
    acc = 0
    for i in range(len(poly) - 1, 0, -1):
        acc = poly[i] + root * acc
        out[i - 1] = acc
    return out
