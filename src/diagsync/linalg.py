"""Small exact linear-algebra helpers over the rationals.

Matrices are lists of rows of Fractions or ints.  All elimination goes
through `eliminate`, a fraction-free Gauss-Jordan pass on Python integers
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968): every entry it produces is a minor of the
input, so each division in it is exact and no entry grows past the size of
a determinant.  `rref` scales each row by the least common multiple of its
denominators, eliminates, and divides by the one common pivot value at the
end.  Sizes here are tiny (at most a few dozen rows).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            f = ai[k]
            if f:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += f * bk[j]
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


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


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of the right kernel (columns as vectors)."""
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_in_span(basis: list[Vector], targets: list[Vector]) -> Matrix:
    """Coefficients X with  span-basis * X = targets  (columns), exact.

    basis: list of m independent vectors of length n; targets: list of k
    vectors of length n, each lying in the span.  Returns the m x k matrix X.
    """
    nrows = len(basis[0])
    m, k = len(basis), len(targets)
    aug = [[basis[j][i] for j in range(m)] + [targets[t][i] for t in range(k)]
           for i in range(nrows)]
    red, pivots = rref(aug)
    if len(pivots) != m or any(p >= m for p in pivots):
        raise ValueError("targets are not in the span of the basis")
    x = [[Fraction(0)] * k for _ in range(m)]
    for r, pc in enumerate(pivots):
        for t in range(k):
            x[pc][t] = red[r][m + t]
    # consistency: rows below the pivots must vanish
    for r in range(len(pivots), len(red)):
        if any(red[r][m + t] for t in range(k)) and not any(red[r][:m]):
            raise ValueError("targets are not in the span of the basis")
    return x


def charpoly(m: Matrix) -> list[Fraction]:
    """Characteristic polynomial det(xI - M), coefficients low to high."""
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        trace = sum((mk[i][i] for i in range(n)), Fraction(0))
        c = -trace / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def integer_roots(coeffs: list[Fraction], bound: int) -> tuple[list[int], int]:
    """Integer roots (with multiplicity) of a monic integer polynomial whose
    roots all lie in [-bound, bound].

    Returns (roots, remaining_degree) where remaining_degree is the degree of
    the factor left after dividing out all integer roots.  Candidates are
    tried in the order 0, 1, -1, 2, -2, ..., bound, -bound.
    """
    poly = [int(c) for c in coeffs]
    assert all(c == ci for c, ci in zip(coeffs, poly)), "polynomial not integral"
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
