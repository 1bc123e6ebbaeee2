"""Every exact elimination route agrees: the determinant modes, the Gauss-Jordan
solver over Q, and the stretch's fraction-free kernel with its budget check."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffres import CoeffSymbol, SymPoly, det_laplace
from diffres.determinant import _det_residue
from diffres.lp import adjugate, matrix_rank
from diffres.stretch import (_bareiss, _Budget, resultant_factor_2_2,
                             strip_content)
from test_determinant import det_rational

PRIMES = (2, 3, 7, 101, 2147483647)

# six in ten entries are zero: the square matrices are sparse too
ENTRY = st.integers(0, 9).flatmap(
    lambda r: st.integers(-9, 9) if r < 4 else st.just(0))


@st.composite
def integer_matrices(draw, max_n=6):
    """(rows, forced_singular): a small mostly-zero integer matrix, in a
    third of the draws given a repeated row or a zero column."""
    n = draw(st.integers(1, max_n))
    rows = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["free", "repeated-row", "zero-column"]))
    if kind == "repeated-row" and n > 1:
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        rows[i] = list(rows[k])
    elif kind == "zero-column":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return rows, kind != "free" and (n > 1 or kind == "zero-column")


def constant_grid(rows):
    return [[SymPoly.const(v) for v in row] for row in rows]


def sparse_rows(rows):
    """The {column: value} rows the sparse kernels take (zeros included:
    the kernels drop them)."""
    return [dict(enumerate(row)) for row in rows]


@settings(deadline=None)
@given(integer_matrices())
def test_determinant_modes_agree(case):
    rows, singular = case
    exact = det_rational(sparse_rows([[Fraction(v) for v in row]
                                      for row in rows]))
    assert exact.denominator == 1
    if singular:
        assert exact == 0
    assert det_laplace(constant_grid(rows)) == SymPoly.const(exact)
    kernel = _bareiss(constant_grid(rows), _Budget(60))
    assert kernel == SymPoly.const(exact)
    for p in PRIMES:
        assert _det_residue(sparse_rows(rows), p)[0] == exact.numerator % p


# six in ten entries are zero; the rest are n/q with q drawn from 1, 2, 3, 7
RATIONAL = st.integers(0, 9).flatmap(
    lambda r: st.just(0) if r >= 4 else st.builds(
        Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7])))


@st.composite
def rational_matrices(draw, max_n=6):
    """(rows, forced_singular): a mostly-zero rational matrix, n = 0 allowed,
    in a third of the draws given a zero row or a repeated scaled row."""
    n = draw(st.integers(0, max_n))
    rows = [[draw(RATIONAL) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["free", "zero-row", "scaled-row"]))
    if kind == "zero-row" and n:
        rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * n
    elif kind == "scaled-row" and n > 1:
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        rows[i] = [Fraction(-2, 3) * v for v in rows[k]]
    return rows, ((kind == "zero-row" and n > 0)
                  or (kind == "scaled-row" and n > 1))


@settings(deadline=None)
@given(rational_matrices())
def test_sparse_kernel_agrees_with_cofactor_expansion(case):
    rows, singular = case
    exact = det_rational(sparse_rows(rows))
    assert isinstance(exact, Fraction)
    if singular:
        assert exact == 0
    assert det_laplace(constant_grid(rows)) == SymPoly.const(exact)
    if len(rows) > 1:
        assert det_rational(sparse_rows([rows[1], rows[0]] + rows[2:])) == -exact


@settings(deadline=None)
@given(integer_matrices())
def test_gauss_jordan_agrees_with_the_determinant(case):
    rows, _ = case
    n = len(rows)
    B = [[Fraction(v) for v in row] for row in rows]
    found = adjugate(rows)
    det = det_rational(sparse_rows(B))
    if det == 0:
        assert found is None
        assert matrix_rank(B) < n
        return
    assert matrix_rank(B) == n
    p, adj = found
    assert p == abs(det)
    assert [[sum(B[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[p * (i == j) for j in range(n)]
                                   for i in range(n)]


def test_stretch_budget_stops_the_determinant():
    start = time.monotonic()
    with pytest.raises(TimeoutError, match="determinant"):
        resultant_factor_2_2(time_budget=0)
    assert time.monotonic() - start < 10


def test_strip_content_scales_an_integer_polynomial_to_a_unit_coefficient():
    a, b = (SymPoly.symbol(CoeffSymbol(s, 0, 0)) for s in "ab")
    p = 6 * a * a - 4 * a * b + 10 * b
    q = strip_content(p)
    assert q == Fraction(3, 2) * a * a - a * b + Fraction(5, 2) * b
    assert 4 * q == p
    # an integral coefficient is an int, whatever Fraction made it
    assert {type(c) for _, c in (4 * q).terms()} <= {int}
    assert type(q.coefficient(next((a * b).terms())[0])) is int
    assert strip_content(-3 * a + 3 * b) == b - a
    assert {type(c) for _, c in strip_content(-3 * a + 3 * b).terms()} <= {int}
    assert strip_content(SymPoly.zero()) == SymPoly.zero()
