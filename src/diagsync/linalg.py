"""Small exact linear-algebra helpers over the rationals.

Matrices are lists of rows of Fractions.  Sizes here are tiny (at most a
dozen rows), so clarity beats asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction

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


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


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


def integer_roots(coeffs: list[Fraction]) -> tuple[list[int], int]:
    """Integer roots (with multiplicity) of a monic integer polynomial.

    Returns (roots, remaining_degree) where remaining_degree is the degree of
    the factor left after dividing out all integer roots.
    """
    poly = [int(c) for c in coeffs]
    assert all(c == ci for c, ci in zip(coeffs, poly)), "polynomial not integral"
    roots: list[int] = []
    # strip powers of x
    while len(poly) > 1 and poly[0] == 0:
        roots.append(0)
        poly = poly[1:]
    while len(poly) > 1:
        const = poly[0]
        if const == 0:
            roots.append(0)
            poly = poly[1:]
            continue
        found = None
        for cand in _signed_divisors(const):
            if _poly_eval(poly, cand) == 0:
                found = cand
                break
        if found is None:
            break
        roots.append(found)
        poly = _deflate(poly, found)
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


def _signed_divisors(n: int):
    n = abs(n)
    divs = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            divs.append(f)
            if f != n // f:
                divs.append(n // f)
        f += 1
    for d in sorted(divs):
        yield d
        yield -d
