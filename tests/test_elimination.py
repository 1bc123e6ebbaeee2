"""Every exact elimination route agrees: the determinant modes and the
Gauss-Jordan solver over Q.  On integer lines through the pinned degree-two
system the exact determinant has the shape the resultant theory predicts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffres import (CoeffSymbol, Specialization, SymPoly, SystemSpec,
                     build_square_matrix, det_laplace, det_specialized,
                     system_symbols)
from diffres.determinant import _det_residue
from diffres.lp import adjugate, matrix_rank
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


# (2,2) with both top coefficients at one and every derivative symbol at
# zero: ten symbols stay free
PINNED = {CoeffSymbol("a", 0, 2): 1, CoeffSymbol("b", 0, 2): 1,
          CoeffSymbol("a", 0, 0, 1): 0, CoeffSymbol("b", 0, 0, 1): 0,
          CoeffSymbol("a", 0, 1, 1): 0, CoeffSymbol("b", 0, 1, 1): 0,
          CoeffSymbol("a", 0, 2, 1): 0, CoeffSymbol("b", 0, 2, 1): 0,
          CoeffSymbol("a", 1, 0, 1): 0, CoeffSymbol("b", 1, 0, 1): 0,
          CoeffSymbol("a", 1, 1, 1): 0, CoeffSymbol("b", 1, 1, 1): 0,
          CoeffSymbol("a", 2, 0, 1): 0, CoeffSymbol("b", 2, 0, 1): 0}
A11, B11 = CoeffSymbol("a", 1, 1), CoeffSymbol("b", 1, 1)


def interpolate(values):
    """Coefficients, constant first, of the polynomial of degree below
    len(values) through (t, values[t]) for t = 0, 1, ...: Newton's divided
    differences over Q, expanded by Horner's rule."""
    c = [Fraction(v) for v in values]
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    poly = [c[-1]]
    for i in range(len(c) - 2, -1, -1):   # poly * (t - i) + c[i]
        poly = [c[i] - i * poly[0]] + [
            lo - i * hi for lo, hi in zip(poly, poly[1:])] + [poly[-1]]
    return poly


def root_multiplicity(poly, root):
    """How often t - root divides the nonzero polynomial `poly`."""
    m = 0
    while True:
        quotient, carry = [], Fraction(0)
        for c in reversed(poly):
            carry = carry * root + c
            quotient.append(carry)
        if quotient.pop():
            return m
        poly, m = quotient[::-1], m + 1


def test_interpolation_and_multiplicity_on_a_known_polynomial():
    # 3 (t - 5/2)^2 (t + 1) = 3t^3 - 12t^2 + 15t/4 + 75/4
    poly = [Fraction(75, 4), Fraction(15, 4), Fraction(-12), Fraction(3)]
    values = [sum(c * t ** k for k, c in enumerate(poly)) for t in range(6)]
    assert interpolate(values) == poly + [0, 0]
    assert root_multiplicity(poly, Fraction(5, 2)) == 2
    assert root_multiplicity(poly, Fraction(-1)) == 1
    assert root_multiplicity(poly, Fraction(1)) == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 42])
def test_pinned_determinant_on_a_line_has_degree_30_and_w_to_the_fourth(seed):
    """On a seeded integer line base + t dir through the ten free symbols,
    det(t) has degree 30, and the factor W/2 = b(1,1) - a(1,1) of the
    extraneous factor, linear in t, divides it exactly four times.  Entries
    within 1e6 keep the line generic; within 20, seed 7 gave degree 24 and
    a W constant on the line."""
    spec = SystemSpec(2, 2)
    free = sorted(system_symbols(spec) - PINNED.keys())
    assert len(free) == 10
    rng = random.Random(seed)
    base = {s: rng.randint(-10 ** 6, 10 ** 6) for s in free}
    direction = {s: rng.randint(-10 ** 6, 10 ** 6) for s in free}
    assert direction[A11] != direction[B11], "W is constant on the line"
    matrix = build_square_matrix(spec)

    def det_at(t):
        values = {**PINNED, **{s: base[s] + t * direction[s] for s in free}}
        return det_specialized(matrix, Specialization(
            {s: Fraction(v) for s, v in values.items()}))

    poly = interpolate([det_at(t) for t in range(32)])
    assert sum(c * 32 ** k for k, c in enumerate(poly)) == det_at(32)
    while poly and not poly[-1]:
        poly.pop()
    assert len(poly) - 1 == 30
    w_root = Fraction(base[A11] - base[B11], direction[B11] - direction[A11])
    assert root_multiplicity(poly, w_root) == 4
