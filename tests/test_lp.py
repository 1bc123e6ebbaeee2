"""Exact simplex engine, phase-one certificates and basis verification."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from diffres import SingularBasis
from diffres.lp import (adjugate, feasible, matrix_rank, phase_one, simplex,
                        solve_square, verify_basis)
from diffres.errors import Unbounded


F = Fraction


class TestSolveSquare:
    def test_inverse_action(self):
        B = [[F(2), F(1)], [F(1), F(3)]]
        x = solve_square(B, [F(5), F(10)])
        assert x == [F(1), F(3)]

    def test_singular_returns_none(self):
        B = [[F(1), F(2)], [F(2), F(4)]]
        assert solve_square(B, [F(1), F(1)]) is None


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
        assert feasible([[1, 1]], [1])
        assert not feasible([[1, 1]], [-2])


class TestVerifyBasis:
    def test_certifies_known_optimum(self):
        A = [[1, 2], [3, 2]]
        b = [4, 8]
        c = [1, 1]
        report = verify_basis(A, b, c, [0, 1])
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
        report = verify_basis(A, b, c, [2, 3])
        assert report.feasible
        assert not report.optimal

    def test_singular_basis_raises(self):
        A = [[1, 2, 2], [2, 4, 4]]
        with pytest.raises(SingularBasis):
            verify_basis(A, [1, 2], [0, 0, 0], [1, 2])

    def test_wrong_size_raises(self):
        with pytest.raises(SingularBasis):
            verify_basis([[1, 0], [0, 1]], [1, 1], [0, 0], [0])

    def test_a_wrong_solve_is_caught(self, monkeypatch):
        # verify_basis multiplies its solves back instead of trusting them
        from diffres import lp
        from diffres.errors import CertificateFailure
        real = lp.solve_square
        monkeypatch.setattr(lp, "solve_square",
                            lambda B, rhs: [v + 1 for v in real(B, rhs)])
        with pytest.raises(CertificateFailure):
            verify_basis([[1, 2], [3, 2]], [4, 8], [1, 1], [0, 1])

    def test_infeasible_basis_reported(self):
        A = [[1, 1], [1, -1]]
        b = [1, 3]
        report = verify_basis(A, b, [1, 1], [0, 1])
        # B^-1 b = (2, -1): not a feasible corner
        assert not report.feasible
        assert not report.strictly_feasible


def certificate_holds(A, b, cert) -> bool:
    """Check a phase-one certificate exactly, without the solver's tableau.

    Feasible: x >= 0 vanishes off the basis and solves A x = b, and the basis
    columns are independent and span the row space of A, so x_B = B^-1 b.
    Infeasible: the Farkas vector has w A >= 0 and w b < 0.
    """
    A = [[F(v) for v in row] for row in A]
    b = [F(v) for v in b]
    m, n = len(A), len(A[0])
    if cert.feasible:
        x = cert.x
        columns = [[A[i][j] for j in cert.basis] for i in range(m)]
        return (len(x) == n and all(v >= 0 for v in x)
                and all(x[j] == 0 for j in range(n) if j not in cert.basis)
                and all(sum(A[i][j] * x[j] for j in range(n)) == b[i]
                        for i in range(m))
                and matrix_rank(columns) == len(cert.basis) == matrix_rank(A))
    w = cert.farkas
    return (len(w) == m
            and all(sum(w[i] * A[i][j] for i in range(m)) >= 0 for j in range(n))
            and sum(w[i] * b[i] for i in range(m)) < 0)


class TestPhaseOne:
    def test_farkas_vector_undoes_row_flips(self):
        # x1 + x2 = -1 is flipped before phase one; w = (1) proves it empty
        cert = phase_one([[1, 1]], [-1])
        assert not cert.feasible
        assert cert.farkas == (F(1),)
        assert certificate_holds([[1, 1]], [-1], cert)

    def test_certificates_on_random_systems(self):
        rng = random.Random(7)
        verdicts = set()
        for _ in range(400):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.3:
                A[-1] = [a + c for a, c in zip(A[0], A[1])]   # redundant row
            b = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(m)]
            cert = phase_one(A, b)
            assert certificate_holds(A, b, cert), (A, b)
            assert cert.feasible == feasible(A, b)
            assert cert.feasible == (simplex(A, b, [0] * n).status == "optimal")
            verdicts.add(cert.feasible)
        assert verdicts == {True, False}

    def test_certificates_on_every_box_point(self):
        from diffres import DEFAULT_LIFTINGS, SystemSpec, build_lp
        spec = SystemSpec(1, 2)
        for q in product(range(7), repeat=3):
            inst = build_lp(q, spec, DEFAULT_LIFTINGS)
            cert = phase_one(inst.A, inst.b)
            assert certificate_holds(inst.A, inst.b, cert), q
            if cert.feasible:
                assert len(cert.basis) == 7


small_rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


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


@settings(deadline=None, max_examples=300)
@given(lp_systems())
def test_simplex_phase_one_and_verify_basis_agree(system):
    A, b, c = system
    cert = phase_one(A, b)
    assert certificate_holds(A, b, cert)
    assert feasible(A, b) == cert.feasible
    try:
        result = simplex(A, b, c)
    except Unbounded:
        assert cert.feasible
        return
    assert (result.status == "optimal") == cert.feasible
    if not cert.feasible:
        return
    assert all(sum(F(a) * x for a, x in zip(row, result.x)) == bi
               for row, bi in zip(A, b))
    assert sum(F(cj) * x for cj, x in zip(c, result.x)) == result.objective
    if len(result.basis) == len(A):   # no redundant row was dropped
        report = verify_basis(A, b, c, result.basis)
        assert report.feasible and report.optimal
        assert report.objective == result.objective
        assert list(report.x) == result.x


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
            digest.update(repr((r.status, r.x, r.objective, r.basis)).encode())
        except Unbounded:
            digest.update(b"unbounded")
    assert digest.hexdigest() == (
        "92768c950814b0d6f7eca36656b8d2c916e380df25eef2697576154de84be846")
