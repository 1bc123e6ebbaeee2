"""Generic systems and the derivation operator."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diffres import (CoeffSymbol, DiffPoly, DiffresError, SymPoly,
                     SystemSpec, YMonomial, bset, build_square_matrix, delta,
                     generic_poly, generic_system)
from diffres import diffsys
from diffres.diffsys import YM_ONE, ym_key


def test_spec_validation():
    assert SystemSpec(2, 3).validate().D == 7
    assert SystemSpec(2, 3).N == 64
    with pytest.raises(ValueError):
        SystemSpec(3, 2).validate()
    with pytest.raises(ValueError):
        SystemSpec(0, 1).validate()


def test_degree_bound_identity():
    for d1 in range(1, 7):
        for d2 in range(d1, 7):
            spec = SystemSpec(d1, d2)
            assert spec.N == (spec.D + 1) ** 2 == 4 * (d1 + d2 - 1) ** 2


class TestGenericSystem:
    def test_degree_one_support(self):
        f1, _ = generic_system(SystemSpec(1, 1))
        assert f1.support_set() == (YM_ONE, YMonomial(1, 0, 0), YMonomial(0, 1, 0))

    def test_degree_two_shape(self):
        f1, _ = generic_system(SystemSpec(2, 2))
        assert len(f1.support_set()) == 6
        # one fresh symbol per monomial, order zero
        for m, coeff in f1.items():
            assert len(coeff) == 1
            ((mono, c),) = list(coeff.terms())
            assert c == 1 and len(mono) == 1
            sym, e = mono[0]
            assert e == 1 and sym.deriv == 0 and sym.system == "a"
            assert (sym.k, sym.l) == (m.ey, m.ey1)

    def test_support_count_formula(self):
        _, f2 = generic_system(SystemSpec(2, 3))
        assert len(f2.support_set()) == 10  # C(3+2, 2)


class TestDelta:
    def test_constant_term(self):
        p = DiffPoly({YM_ONE: SymPoly.symbol(CoeffSymbol("a", 0, 0))})
        out = delta(p)
        assert out.coefficient(YM_ONE) == SymPoly.symbol(CoeffSymbol("a", 0, 0, 1))

    def test_hand_leibniz_degree_two(self):
        f1, _ = generic_system(SystemSpec(2, 2))
        df1 = delta(f1)
        top = SymPoly.symbol(CoeffSymbol("a", 0, 2, 1)) \
            + SymPoly.symbol(CoeffSymbol("a", 1, 1, 0))
        assert df1.coefficient(YMonomial(0, 2, 0)) == top
        assert df1.coefficient(YMonomial(0, 1, 1)) == \
            2 * SymPoly.symbol(CoeffSymbol("a", 0, 2, 0))
        assert df1.coefficient(YMonomial(1, 0, 1)) == \
            SymPoly.symbol(CoeffSymbol("a", 1, 1, 0))

    def test_support_identity_all_small_specs(self):
        for d1 in range(1, 6):
            for d2 in range(d1, 6):
                f1, f2 = generic_system(SystemSpec(d1, d2))
                for f, d in ((f1, d1), (f2, d2)):
                    expected = bset(3, d).union(
                        bset(3, d - 1).scaled(YMonomial(0, 0, 1))).as_set()
                    assert set(delta(f).support_set()) == expected

    def test_rejects_second_derivative_monomials(self):
        p = DiffPoly({YMonomial(0, 0, 1): SymPoly.one()})
        with pytest.raises(DiffresError):
            delta(p)

    def test_coefficients_are_integer_linear_forms(self):
        for d1, d2 in ((1, 1), (1, 2), (2, 2), (2, 3)):
            f1, f2 = generic_system(SystemSpec(d1, d2))
            for f in (delta(f1), delta(f2)):
                for _, coeff in f.items():
                    assert coeff.total_degree() == 1
                    for mono, c in coeff.terms():
                        assert c.denominator == 1
                        assert all(s.deriv <= 1 for s, _ in mono)


class TestMemo:
    def test_generic_poly_is_made_once(self):
        assert generic_poly("a", 3) is generic_poly("a", 3)

    def test_generic_poly_is_one_object_however_order_is_passed(self):
        p = generic_poly("a", 3)
        assert generic_poly("a", 3, 1) is p
        assert generic_poly("a", 3, order=1) is p
        assert generic_poly(system="a", degree=3, order=1) is p
        assert delta(generic_poly("a", 3, order=1)) is delta(p)
        assert generic_poly("a", 3, order=0) is generic_poly("a", 3, 0)
        assert generic_poly("a", 3, 0) is not p

    def test_delta_is_kept_on_its_argument(self):
        p = generic_poly("b", 2)
        assert delta(p) is delta(p)

    def test_kept_delta_equals_delta_of_an_uncached_copy(self):
        for system in ("a", "b"):
            for degree in range(7):
                for order in (0, 1):
                    p = generic_poly(system, degree, order)
                    assert delta(p) == delta(DiffPoly(dict(p.items())))

    def test_a_second_square_matrix_reuses_the_generic_polynomials(self):
        build_square_matrix(SystemSpec(2, 3))
        hits = diffsys._generic_poly.cache_info().hits
        build_square_matrix(SystemSpec(2, 3))
        assert diffsys._generic_poly.cache_info().hits > hits


def test_delta_is_a_derivation_on_products(rng):
    from conftest import random_sympoly
    for _ in range(60):
        def random_dp():
            out = {}
            for _ in range(rng.randint(1, 4)):
                m = YMonomial(rng.randint(0, 2), rng.randint(0, 2), 0)
                coeff = random_sympoly(rng, max_terms=2, max_exp=1)
                if not coeff.is_zero():
                    out[m] = coeff
            return DiffPoly(out)
        p, q = random_dp(), random_dp()
        assert delta(p * q) == delta(p) * q + p * delta(q)


def test_support_is_canonically_ordered():
    f1, _ = generic_system(SystemSpec(2, 3))
    s = delta(f1).support_set()
    assert list(s) == sorted(s, key=ym_key)
    assert DiffPoly.zero().support_set() == ()


def test_a_coefficient_that_is_not_a_sympoly_is_refused():
    with pytest.raises(TypeError, match="coefficient of 1 is 5, not a SymPoly"):
        DiffPoly({YM_ONE: 5, YMonomial(1, 0, 0): Fraction(1, 2)})
    with pytest.raises(TypeError, match=r"coefficient of y is Fraction\(1, 2\)"):
        DiffPoly({YM_ONE: 5 * SymPoly.one(), YMonomial(1, 0, 0): Fraction(1, 2)})
    # a zero SymPoly is still dropped
    p = DiffPoly({YM_ONE: SymPoly.zero(), YMonomial(0, 1, 0): 2 * SymPoly.one()})
    assert p.support_set() == (YMonomial(0, 1, 0),)


def test_json_dump_shape():
    f1, _ = generic_system(SystemSpec(1, 1))
    data = f1.to_json()
    assert data == [
        {"monomial": [0, 0, 0], "coeff": "a(0,0)"},
        {"monomial": [1, 0, 0], "coeff": "a(1,0)"},
        {"monomial": [0, 1, 0], "coeff": "a(0,1)"},
    ]


@pytest.mark.parametrize("point", [(0.1, 0, 0), (0, 0, False)])
def test_evaluate_point_refuses_an_inexact_point(point):
    f1, _ = generic_system(SystemSpec(1, 1))
    with pytest.raises(TypeError, match="is not read as an exact rational"):
        f1.evaluate_point(point)


@given(st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)),
                min_size=3, max_size=3))
def test_evaluate_point_is_a_ring_homomorphism(point):
    f1, f2 = generic_system(SystemSpec(1, 2))
    df1 = delta(f1)
    at = [p.evaluate_point(point) for p in (f1, f2, df1)]
    assert (f1 * f2 + df1).evaluate_point(point) == at[0] * at[1] + at[2]
    assert (f1 - f1).evaluate_point(point) == SymPoly.zero()
    y, y1, y2 = point
    assert DiffPoly({YMonomial(2, 1, 1): SymPoly.one()}).evaluate_point(point) \
        == SymPoly.const(Fraction(y) ** 2 * y1 * y2)
