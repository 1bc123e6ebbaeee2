"""Exact simplex engine, phase-one certificates and basis certificates."""

import hashlib
import random
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diffres.lp import (_augmented, _integers, _phase_one, _pivot, adjugate,
                        integer_certificate, matrix_rank, optimal, simplex)
from diffres.errors import CertificateFailure, Unbounded


F = Fraction
small_rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))

# what a basis certifies on min c.x, A x = b, x >= 0
BasisReport = namedtuple("BasisReport",
                         "feasible strictly_feasible optimal x objective")


class SingularBasis(Exception):
    """The reference's chosen columns are not a basis."""


def fraction_solve(B, rhs):
    """B x = rhs by Gauss-Jordan over the Fractions, B with no more columns
    than rows; None when its columns are dependent or no x solves it."""
    rows = [[F(v) for v in row] + [F(r)] for row, r in zip(B, rhs)]
    n = len(rows[0]) - 1
    for c in range(n):
        found = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if found is None:
            return None
        rows[c], rows[found] = rows[found], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * v for a, v in zip(rows[i], rows[c])]
    if any(row[n] for row in rows[n:]):
        return None
    return [row[n] for row in rows[:n]]


def verify_basis_reference(A, b, c, basis) -> BasisReport:
    """A basis certified in Fractions, apart from the library's elimination:
    x_B from B x = b, y from y B = c_B, both multiplied back, then the
    reduced costs y A - c <= 0 column by column.  SingularBasis when the
    columns are too few, too many or dependent."""
    A = [[F(v) for v in row] for row in A]
    b = [F(v) for v in b]
    c = [F(v) for v in c]
    m = len(A)
    if len(basis) != m:
        raise SingularBasis(f"basis needs {m} columns, got {len(basis)}")
    B = [[A[i][j] for j in basis] for i in range(m)]
    xb = fraction_solve(B, b)
    if xb is None:
        raise SingularBasis(f"columns {tuple(basis)} are linearly dependent")
    Bt = [list(col) for col in zip(*B)]
    cb = [c[j] for j in basis]
    y = fraction_solve(Bt, cb)
    if (y is None or any(sum(v * x for v, x in zip(row, xb)) != bi
                         for row, bi in zip(B, b))
            or any(sum(v * yi for v, yi in zip(col, y)) != cj
                   for col, cj in zip(Bt, cb))):
        raise CertificateFailure(f"solves on basis {tuple(basis)} do not multiply back")
    n = len(A[0])
    optimal = all(sum(y[i] * A[i][j] for i in range(m)) - c[j] <= 0
                  for j in range(n))
    x = [F(0)] * n
    for value, j in zip(xb, basis):
        x[j] = value
    return BasisReport(
        feasible=all(v >= 0 for v in xb),
        strictly_feasible=all(v > 0 for v in xb),
        optimal=optimal,
        x=tuple(x),
        objective=sum(c[j] * x[j] for j in range(n)),
    )


def catalog_verdict(A, b, c, basis):
    """The same report through the pieces a catalog basis is certified by
    (`lattice.PointSystem`), on [A | b] and c scaled to integers:
    `adjugate` gives B adj = p I, checked exactly, so x_B = adj b / p, and
    `optimal` tests the reduced costs from adj.  None when the columns are
    not a square nonsingular B."""
    if len(basis) != len(A):
        return None
    Ab = _augmented(A, b)
    A, b = [row[:-1] for row in Ab], [row[-1] for row in Ab]
    found = adjugate([[row[j] for j in basis] for row in A])
    if found is None:
        return None
    p, adj = found
    xb = [sum(a * v for a, v in zip(row, b)) for row in adj]
    (cost,) = _integers([c])
    x = [F(0)] * len(A[0])
    for value, j in zip(xb, basis):
        x[j] = F(value, p)
    return BasisReport(
        feasible=all(v >= 0 for v in xb),
        strictly_feasible=all(v > 0 for v in xb),
        optimal=optimal(list(zip(*A)), cost, basis, p, list(zip(*adj)),
                        [j for j in range(len(A[0])) if j not in basis]),
        x=tuple(x),
        objective=sum(F(cj) * xj for cj, xj in zip(c, x)),
    )


def certified(A, b, c, basis) -> BasisReport:
    """`catalog_verdict`, asserted equal to the Fraction reference field by
    field."""
    got = catalog_verdict(A, b, c, basis)
    expected = verify_basis_reference(A, b, c, basis)
    for field in BasisReport._fields:
        assert repr(getattr(got, field)) == repr(getattr(expected, field)), field
    return got


class TestInverse:
    """The inverse as the adjugate over |det B|."""

    def test_product_is_identity(self):
        B = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        p, adj = adjugate(B)
        assert p == 18   # |det B|
        for i in range(3):
            for j in range(3):
                assert sum(B[i][k] * adj[k][j] for k in range(3)) == p * (i == j)

    def test_singular_returns_none(self):
        assert adjugate([[1, 2], [2, 4]]) is None


class TestRank:
    def test_full_rank(self):
        assert matrix_rank([[1, 0], [0, 1]]) == 2

    def test_deficient(self):
        assert matrix_rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
        assert matrix_rank([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]]) == 2
        assert matrix_rank([[0, 0], [0, 0]]) == 0


class TestSimplex:
    def test_minimizes_exactly(self):
        # min x + y  s.t.  x + 2y = 4, 3x + 2y = 8, x, y >= 0
        result = simplex([[1, 2], [3, 2]], [4, 8], [1, 1])
        assert result.status == "optimal"
        assert result.x == [F(2), F(1)]
        assert result.objective == 3

    def test_fractional_optimum_is_exact(self):
        # min -2x - 3y over 3x + y <= 7, x + 2y <= 5: corner (9/5, 8/5)
        result = simplex([[3, 1, 1, 0], [1, 2, 0, 1]], [7, 5], [-2, -3, 0, 0])
        assert result.status == "optimal"
        assert result.objective == F(-42, 5)
        assert result.x[:2] == [F(9, 5), F(8, 5)]

    def test_infeasible(self):
        # x1 + x2 = -1 cannot hold with nonnegative variables
        result = simplex([[1, 1]], [-1], [1, 1])
        assert result.status == "infeasible"

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            simplex([[1, -1]], [0], [-1, 0])

    def test_degenerate_cycling_guard(self):
        # Beale's cycling example; Bland's rule must terminate at -1/20
        A = [[F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
             [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
             [0, 0, 1, 0, 0, 0, 1]]
        b = [0, 0, 1]
        c = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
        result = simplex(A, b, c)
        assert result.status == "optimal"
        assert result.objective == F(-1, 20)

    def test_feasibility_probe(self):
        assert integer_certificate([[1, 1]], [1])[0]
        assert not integer_certificate([[1, 1]], [-2])[0]


class TestVerifyBasis:
    def test_certifies_known_optimum(self):
        A = [[1, 2], [3, 2]]
        b = [4, 8]
        c = [1, 1]
        report = certified(A, b, c, [0, 1])
        assert report.feasible and report.strictly_feasible
        assert report.optimal
        assert report.objective == 3
        assert simplex(A, b, c).objective == report.objective

    def test_feasible_but_not_optimal(self):
        # maximize profit written as min of negatives; slack-only basis is
        # feasible at the origin but improvable
        A = [[1, 1, 1, 0], [1, 3, 0, 1]]
        b = [4, 6]
        c = [-2, -1, 0, 0]
        report = certified(A, b, c, [2, 3])
        assert report.feasible
        assert not report.optimal

    def test_a_corrupted_adjugate_entry_is_caught(self, monkeypatch):
        # the adjugate checks B adj = p I instead of trusting the elimination
        from diffres import lp
        real = lp._row_reduce

        def corrupted(rows, ncols):
            found = real(rows, ncols)
            rows[0][-1] += 1
            return found

        monkeypatch.setattr(lp, "_row_reduce", corrupted)
        with pytest.raises(CertificateFailure):
            adjugate([[1, 2], [3, 2]])

    def test_infeasible_basis_reported(self):
        A = [[1, 1], [1, -1]]
        b = [1, 3]
        report = certified(A, b, [1, 1], [0, 1])
        # B^-1 b = (2, -1): not a feasible corner
        assert not report.feasible
        assert not report.strictly_feasible


def full_pivot(rows, den, r, c):
    """The fraction-free step on every row but r, a zero multiplier too:
    (piv row_i - row_i[c] row_r) / den, each division checked exact."""
    piv = rows[r][c]
    out = []
    for i, row in enumerate(rows):
        if i == r:
            out.append(list(row))
            continue
        pairs = [divmod(piv * a - row[c] * b, den) for a, b in zip(row, rows[r])]
        assert all(rem == 0 for _, rem in pairs)
        out.append([v for v, _ in pairs])
    return out, piv


@st.composite
def mid_elimination(draw):
    """(rows, den, r, c): an integer matrix, many entries zero, after one to
    three steps of `full_pivot` on drawn nonzero entries of fresh rows, and
    the nonzero entry of a fresh row to pivot on next."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -4, 7))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    den, fresh = 1, list(range(m))
    for _ in range(draw(st.integers(1, min(3, m - 1)))):
        choices = [(i, j) for i in fresh for j in range(n) if rows[i][j]]
        assume(choices)
        r, c = draw(st.sampled_from(choices))
        rows, den = full_pivot(rows, den, r, c)
        fresh.remove(r)
    choices = [(i, j) for i in fresh for j in range(n) if rows[i][j]]
    assume(choices)
    r, c = draw(st.sampled_from(choices))
    return rows, den, r, c


class TestPivot:
    # rows (2 1 0 / 0 3 1 / 4 0 2 / 0 0 5) after the step on (0, 0)
    AFTER_ONE = [[2, 1, 0], [0, 6, 2], [0, -4, 4], [0, 0, 10]]

    @settings(deadline=None, max_examples=300)
    @given(mid_elimination())
    @example((AFTER_ONE, 2, 2, 1))   # den 2, pivot -4: row 3 only rescaled
    @example((AFTER_ONE, 2, 1, 2))   # pivot 2 = den: row 0 left alone
    def test_pivot_equals_the_full_update(self, tableau):
        rows, den, r, c = tableau
        expected, piv = full_pivot(rows, den, r, c)
        got = [list(row) for row in rows]
        assert _pivot(got, den, r, c) == piv
        assert got == expected

    def test_a_row_left_alone_is_the_same_list(self):
        rows = [list(row) for row in self.AFTER_ONE]
        untouched = rows[0]
        _pivot(rows, 2, 1, 2)
        assert rows[0] is untouched and rows[0] == [2, 1, 0]


def integers_reference(rows):
    """`_integers` as every entry made a Fraction: the rows times the lcm
    of their denominators."""
    rows = [[F(v) for v in row] for row in rows]
    s = 1
    for row in rows:
        for v in row:
            s = s * v.denominator // gcd(s, v.denominator)
    return [[int(v * s) for v in row] for row in rows]


class TestIntegers:
    @given(st.lists(st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=5),
                    min_size=1, max_size=4))
    def test_int_rows_come_back_unchanged(self, rows):
        passed = [list(row) for row in rows]
        got = _integers(passed)
        assert got == rows == integers_reference(rows)
        assert all(type(v) is int for row in got for v in row)
        # fresh lists: `matrix_rank` reduces them in place
        got[0][0] += 1
        assert passed == rows

    @given(st.lists(st.lists(st.one_of(st.integers(-9, 9), small_rationals),
                             min_size=1, max_size=5), min_size=1, max_size=4))
    @example([[F(1, 2), 3], [F(-2, 3), 0]])
    @example([[True, 2]])
    def test_mixed_rows_are_scaled_as_before(self, rows):
        got = _integers(rows)
        assert got == integers_reference(rows)
        assert all(type(v) is int for row in got for v in row)

    def test_a_float_is_refused(self):
        with pytest.raises(TypeError, match="a float is not read as an exact rational"):
            _integers([[F(1, 2), 0.5]])
        with pytest.raises(TypeError, match="a float is not read as an exact rational"):
            simplex([[1, 1]], [0.1], [1, 1])



def integer_data(A, b):
    """[A | b] times the one positive integer `lp._integers` picks, split
    back into A and b: the data `integer_certificate` reads."""
    Ab = _integers([list(row) + [v] for row, v in zip(A, b)])
    return [row[:-1] for row in Ab], [row[-1] for row in Ab]


def certificate_holds(A, b, verdict) -> bool:
    """Check a verdict of `integer_certificate` on A x = b, x >= 0 exactly,
    without the solver's tableau.

    Feasible: the basis has as many columns as A has rank, and B x_B = b
    has a solution x_B >= 0, unique since its columns are independent.
    Infeasible: the Farkas vector has w A >= 0 and w b < 0.  Both hold for
    [A | b] scaled by a positive number exactly when they hold for it.
    """
    feasible, cert = verdict
    if feasible:
        x_b = fraction_solve([[row[j] for j in cert] for row in A], b)
        return (x_b is not None and all(v >= 0 for v in x_b)
                and len(cert) == matrix_rank(A))
    return (len(cert) == len(A)
            and all(sum(w * row[j] for w, row in zip(cert, A)) >= 0
                    for j in range(len(A[0])))
            and sum(w * v for w, v in zip(cert, b)) < 0)


class TestPhaseOne:
    """`integer_certificate`, the phase one the sparse layer runs, on
    rational data scaled to integers."""

    def test_farkas_vector_undoes_row_flips(self):
        # x1 + x2 = -1 is flipped before phase one; w = (1) proves it empty
        verdict = integer_certificate([[1, 1]], [-1])
        assert verdict == (False, (1,))
        assert certificate_holds([[1, 1]], [-1], verdict)

    def test_certificates_on_random_systems(self):
        rng = random.Random(7)
        verdicts = set()
        for _ in range(400):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.3:
                A[-1] = [a + c for a, c in zip(A[0], A[1])]   # redundant row
            b = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(m)]
            verdict = integer_certificate(*integer_data(A, b))
            assert certificate_holds(A, b, verdict), (A, b)
            assert verdict[0] == (simplex(A, b, [0] * n).status == "optimal")
            verdicts.add(verdict[0])
        assert verdicts == {True, False}

    def test_certificates_on_every_box_point(self):
        from diffres import DEFAULT_PERTURBATION, SystemSpec, lattice
        A = lattice._constraint_matrix(SystemSpec(1, 2))
        for q in product(range(7), repeat=3):
            b = [q[k] - DEFAULT_PERTURBATION[k] for k in range(3)] + [1] * 4
            verdict = integer_certificate(*integer_data(A, b))
            assert certificate_holds(A, b, verdict), q
            if verdict[0]:
                assert len(verdict[1]) == 7


@st.composite
def lp_systems(draw):
    """(A, b, c) with 1-4 rows and 1-6 columns; A integer or small-rational,
    its last row sometimes the sum of the first two."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entries = st.integers(-3, 3) if draw(st.booleans()) else small_rationals
    A = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        A[-1] = [a + c for a, c in zip(A[0], A[1])]
    b = draw(st.lists(st.builds(F, st.integers(-8, 8), st.integers(1, 3)),
                      min_size=m, max_size=m))
    c = draw(st.lists(small_rationals, min_size=n, max_size=n))
    return A, b, c


def final_basis(A, b, c):
    """The basis `simplex` ends on, sorted, by its two phases replayed on
    the tableau; () when the system is infeasible."""
    tab, farkas = _phase_one(_augmented(A, b))
    if farkas is not None:
        return ()
    n = len(A[0])
    (cost,) = _integers([c])
    tab.run(cost + [0] * (tab.n - n), [j < n for j in range(tab.n)])
    return tuple(sorted(tab.basis))


@settings(deadline=None, max_examples=300)
@given(lp_systems())
def test_simplex_phase_one_and_verify_basis_agree(system):
    A, b, c = system
    feasible, cert = integer_certificate(*integer_data(A, b))
    assert certificate_holds(A, b, (feasible, cert))
    try:
        result = simplex(A, b, c)
    except Unbounded:
        assert feasible
        return
    assert (result.status == "optimal") == feasible
    if not feasible:
        return
    assert all(sum(F(a) * x for a, x in zip(row, result.x)) == bi
               for row, bi in zip(A, b))
    assert sum(F(cj) * x for cj, x in zip(c, result.x)) == result.objective
    basis = final_basis(A, b, c)
    if len(basis) == len(A):   # no redundant row was dropped
        report = certified(A, b, c, basis)
        assert report.feasible and report.optimal
        assert report.objective == result.objective
        assert list(report.x) == result.x


@st.composite
def lp_systems_with_bases(draw):
    """lp_systems with a drawn basis: m columns, repeats allowed (so often
    singular), or at times one column too few or too many."""
    A, b, c = draw(lp_systems())
    m, n = len(A), len(A[0])
    size = draw(st.sampled_from((m, m, m, m - 1, m + 1)))
    return A, b, c, draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))


@settings(deadline=None, max_examples=300)
@given(lp_systems_with_bases())
@example(([[1, 2, 2], [2, 4, 4]], [1, 2], [0, 0, 0], [1, 2]))      # singular
@example(([[1, 0], [0, 1]], [1, 1], [0, 0], [0]))                  # wrong size
@example(([[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6], [-2, -1, 0, 0], [2, 3]))  # not optimal
@example(([[F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],                   # Fractions
           [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0], [0, 0, 1, 0, 0, 0, 1]],
          [0, 0, 1], [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0], [0, 2, 6]))
def test_verify_basis_matches_the_fraction_reference(system):
    A, b, c, basis = system
    try:
        verify_basis_reference(A, b, c, basis)
    except SingularBasis:
        assert catalog_verdict(A, b, c, basis) is None
        return
    certified(A, b, c, basis)


# a phase-one verdict in Fractions, the form the digest below pins
Feasibility = namedtuple("Feasibility", "feasible basis x farkas")


def phase_one(A, b) -> Feasibility:
    """`lp._phase_one` on rational data: its basis with x, or its Farkas
    vector over the tableau's denominator."""
    tab, farkas = _phase_one(_augmented(A, b))
    if farkas is not None:
        return Feasibility(False, (), (), tuple(F(w, tab.den) for w in farkas))
    return Feasibility(True, tuple(sorted(tab.basis)),
                       tuple(tab.solution()[:len(A[0])]), ())


def test_solver_outputs_are_pinned():
    """Verdicts, bases, x, objectives and Farkas vectors on 300 seeded
    systems, many degenerate, hash to the value the Fraction tableau gave:
    scaling to integers must leave Bland's path as it was."""
    rng = random.Random(11)
    digest = hashlib.sha256()
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 7)
        A = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)]
             for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1] = [a + c for a, c in zip(A[0], A[1])]
        b = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        digest.update(repr(phase_one(A, b)).encode())
        try:
            r = simplex(A, b, c)
            digest.update(repr((r.status, r.x, r.objective,
                                final_basis(A, b, c))).encode())
        except Unbounded:
            digest.update(b"unbounded")
    assert digest.hexdigest() == (
        "92768c950814b0d6f7eca36656b8d2c916e380df25eef2697576154de84be846")
