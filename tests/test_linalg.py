from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from diagsync.linalg import eliminate, integer_row, nullspace, rref


def oracle_rref(m):
    """Plain Gauss-Jordan over Fractions: the reference the integer
    elimination must reproduce exactly."""
    m = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
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
    return m, pivots


def oracle_nullspace(m):
    cols = len(m[0])
    red, pivots = oracle_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-7, max_value=7, max_denominator=6))


@st.composite
def matrices(draw):
    """Small rational matrices: some of full random entries (zero rows and
    columns come often), some products of two thin factors (rank deficient)."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    rank = draw(st.integers(0, 3))
    left = [[draw(entries) for _ in range(rank)] for _ in range(rows)]
    right = [[draw(entries) for _ in range(cols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rref_matches_fraction_gauss_jordan(m):
    assert rref(m) == oracle_rref(m)


@given(matrices().filter(lambda m: m and m[0]))
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_fraction_gauss_jordan(m):
    # integer vectors: each is primitive and positive at its free column, and
    # divided by its entry there it is the oracle's vector
    basis = nullspace(m)
    _, pivots = oracle_rref(m)
    free = [c for c in range(len(m[0])) if c not in pivots]
    assert len(basis) == len(free)
    assert all(v[fc] > 0 and gcd(*v) == 1 for v, fc in zip(basis, free))
    assert [[Fraction(x, v[fc]) for x in v] for v, fc in zip(basis, free)] == \
        oracle_nullspace(m)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)


@given(matrices(), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_eliminate_with_a_width_reduces_the_leading_columns(m, width):
    # pivots only in the first `width` columns: those columns reduce as the
    # matrix of them alone would, and the rows below the pivots vanish there
    width = min(width, len(m[0]) if m else 0)
    red, pivots, det = eliminate([integer_row(row) for row in m], width)
    assert det > 0
    lead, lead_pivots = oracle_rref([row[:width] for row in m])
    assert pivots == lead_pivots
    assert [[Fraction(x, det) for x in row[:width]] for row in red] == lead


def test_edge_shapes():
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([[], []], [])
    assert nullspace([[]]) == []
    assert rref([[0, 0], [0, 0], [0, 0]]) == ([[0, 0], [0, 0], [0, 0]], [])
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    # more rows than columns, with a zero column
    assert rref([[0, 2], [0, 4], [0, Fraction(1, 3)]]) == ([[0, 1], [0, 0], [0, 0]], [1])
    assert nullspace([[0, 2], [0, 4], [0, Fraction(1, 3)]]) == [[1, 0]]
