"""Exact polynomial core: ring laws, evaluation, division, text round trip."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diffres import (CoeffSymbol, DivisionByZero, NotDivisible,
                     Specialization, SymPoly, UnassignedSymbol, parse_symbol,
                     parse_sympoly)
from diffres.sympoly import (MAX_EXPONENT, mono_make, mono_mul, mono_order,
                             parse_rational)
from conftest import SYMBOL_POOL, random_sympoly

A0 = CoeffSymbol("a", 0, 0)
B0 = CoeffSymbol("b", 0, 0)


def sym(s):
    return SymPoly.symbol(s)


class TestSymbols:
    def test_render_parse_roundtrip(self):
        for s in [CoeffSymbol("a", 0, 2, 1), CoeffSymbol("b", 3, 1, 0),
                  CoeffSymbol("a", 1, 1, 0, fresh=True),
                  CoeffSymbol("b", 0, 0, 3)]:
            assert parse_symbol(s.render()) == s

    def test_rendering_shapes(self):
        assert CoeffSymbol("a", 0, 2, 1).render() == "a(0,2)'"
        assert CoeffSymbol("a", 1, 1, 0, fresh=True).render() == "c(1,1)"

    def test_total_order_is_deterministic(self):
        pool = sorted(SYMBOL_POOL)
        assert pool == sorted(reversed(pool))


class TestAddMul:
    def test_add_identity(self):
        p = sym(A0) * 3 + 1
        assert p + SymPoly.zero() == p

    def test_add_cancellation(self):
        assert 2 * sym(A0) + -2 * sym(A0) == SymPoly.zero()

    def test_add_merges_terms(self):
        left = sym(A0) + sym(B0)
        right = sym(A0) - sym(B0)
        assert left + right == 2 * sym(A0)

    def test_mul_identity(self):
        p = sym(A0) ** 2 - 5
        assert p * SymPoly.one() == p

    def test_mul_monomials(self):
        assert sym(A0) * sym(A0) == sym(A0) ** 2

    def test_binomial_square(self):
        p = sym(A0) + sym(B0)
        expected = sym(A0) ** 2 + 2 * sym(A0) * sym(B0) + sym(B0) ** 2
        assert p ** 2 == expected


class TestEval:
    def test_eval_zero(self):
        s = Specialization({A0: Fraction(7)})
        assert SymPoly.zero().evaluate(s) == 0

    def test_eval_square(self):
        s = Specialization({A0: Fraction(3)})
        assert (sym(A0) ** 2).evaluate(s) == 9

    def test_eval_hand_arithmetic(self):
        s = Specialization({A0: Fraction(1, 2), B0: Fraction(4)})
        assert (2 * sym(A0) * sym(B0) + 1).evaluate(s) == 5

    def test_missing_symbol_raises(self):
        s = Specialization({A0: Fraction(1)})
        with pytest.raises(UnassignedSymbol):
            sym(B0).evaluate(s)

    def test_a_second_positional_argument_is_refused(self):
        # `zero` is keyword-only: a stray positional set is no zero point
        with pytest.raises(TypeError):
            Specialization({A0: Fraction(1)}, {A0, B0})

    def test_values_come_back_as_fractions(self):
        half = Fraction(1, 2)
        s = Specialization({A0: 3, B0: half})
        assert type(s[A0]) is Fraction and s[A0] == 3
        assert s[B0] is half


class TestExactDiv:
    def test_divide_by_one(self):
        p = 3 * sym(A0) * sym(B0) - 2
        assert p.exact_div(SymPoly.one()) == p

    def test_difference_of_squares(self):
        p = sym(A0) ** 2 - sym(B0) ** 2
        q = sym(A0) - sym(B0)
        assert p.exact_div(q) == sym(A0) + sym(B0)

    def test_independent_symbols_not_divisible(self):
        with pytest.raises(NotDivisible):
            sym(A0).exact_div(sym(B0))

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            sym(A0).exact_div(SymPoly.zero())

    def test_product_division_roundtrip(self, rng):
        for _ in range(300):
            p = random_sympoly(rng)
            q = random_sympoly(rng)
            if q.is_zero():
                continue
            assert (p * q).exact_div(q) == p


class TestRingAxioms:
    def test_thousand_random_triples(self):
        rng = random.Random(7)
        for _ in range(1000):
            p, q, r = (random_sympoly(rng, max_terms=3, max_exp=2)
                       for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_eval_is_ring_homomorphism(self, rng):
        for _ in range(200):
            p, q, r = (random_sympoly(rng) for _ in range(3))
            values = {s: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for s in SYMBOL_POOL}
            s = Specialization(values)
            assert (p * q + r).evaluate(s) == \
                p.evaluate(s) * q.evaluate(s) + r.evaluate(s)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
def test_constants_embed_homomorphically(x, y, z):
    lhs = SymPoly.const(x) * SymPoly.const(y) + SymPoly.const(z)
    assert lhs == SymPoly.const(x * y + z)


@given(st.integers(0, 6))
def test_power_matches_repeated_product(e):
    p = sym(A0) + 2 * sym(B0)
    expected = SymPoly.one()
    for _ in range(e):
        expected = expected * p
    assert p ** e == expected


class TestTextForm:
    def test_fixed_point_of_parse_render(self, rng):
        for _ in range(200):
            p = random_sympoly(rng)
            text = p.render()
            again = parse_sympoly(text)
            assert again == p
            assert again.render() == text

    def test_zero_renders_as_zero(self):
        assert SymPoly.zero().render() == "0"
        assert parse_sympoly("0") == SymPoly.zero()

    def test_round_trip_of_a_polynomial_with_thousands_of_terms(self, monkeypatch):
        p = SymPoly({mono_make({A0: i % 50, B0: i // 50,
                                CoeffSymbol("a", 1, 0, 1): i % 7}):
                     Fraction((-1) ** i * (i + 1), 1 + i % 5)
                     for i in range(2500)})
        assert len(p) == 2500
        text = p.render()
        # the parser sums its terms in one dict, not one polynomial per term
        monkeypatch.setattr(SymPoly, "__add__", None)
        again = parse_sympoly(text)
        assert again == p
        assert again.render() == text

    def test_parse_merges_repeated_monomials(self):
        assert parse_sympoly("a(0,0) + 2*b(0,0) - a(0,0)") == 2 * sym(B0)
        assert parse_sympoly("a(0,0) - a(0,0)") == SymPoly.zero()

    def test_derivative_symbols_render_with_primes(self):
        p = sym(CoeffSymbol("a", 0, 2, 1))
        assert p.render() == "a(0,2)'"
        assert parse_sympoly("a(0,2)'") == p


class TestDerivation:
    def test_symbol_derivative_bumps_order(self):
        p = sym(A0)
        assert p.derivative() == sym(CoeffSymbol("a", 0, 0, 1))

    def test_second_derivative_merges_equal_terms(self):
        def d(s, order):
            return sym(s._replace(deriv=order))
        assert (sym(A0) * sym(B0)).derivative().derivative() == \
            d(A0, 2) * sym(B0) + 2 * d(A0, 1) * d(B0, 1) + sym(A0) * d(B0, 2)

    def test_product_rule_on_symbols(self, rng):
        for _ in range(100):
            p = random_sympoly(rng, max_terms=3, max_exp=2)
            q = random_sympoly(rng, max_terms=3, max_exp=2)
            lhs = (p * q).derivative()
            rhs = p.derivative() * q + p * q.derivative()
            assert lhs == rhs


# -- derivation and substitution as ring maps -------------------------------

TERM = st.builds(
    lambda c, d, powers: SymPoly({mono_make(powers): Fraction(c, d)}),
    st.integers(-6, 6), st.integers(1, 4),
    st.dictionaries(st.sampled_from(SYMBOL_POOL), st.integers(1, 2),
                    max_size=2))
POLY = st.lists(TERM, max_size=4).map(lambda terms: sum(terms, SymPoly.zero()))
MAPPING = st.dictionaries(st.sampled_from(SYMBOL_POOL), POLY, max_size=3)


@given(POLY, POLY)
def test_derivative_obeys_the_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@settings(deadline=None)
@given(POLY, POLY, MAPPING)
def test_substitute_is_a_ring_homomorphism(p, q, mapping):
    assert (p + q).substitute(mapping) == \
        p.substitute(mapping) + q.substitute(mapping)
    assert (p * q).substitute(mapping) == \
        p.substitute(mapping) * q.substitute(mapping)


@given(POLY)
def test_substituting_each_symbol_by_itself_is_the_identity(p):
    assert p.substitute({s: sym(s) for s in SYMBOL_POOL}) == p


# -- exact coefficients: ints where integral, never a float -------------------

INT_TERM = st.builds(
    lambda c, powers: SymPoly({mono_make(powers): c}), st.integers(-6, 6),
    st.dictionaries(st.sampled_from(SYMBOL_POOL), st.integers(1, 2),
                    max_size=2))
INT_POLY = st.lists(INT_TERM, max_size=4).map(
    lambda terms: sum(terms, SymPoly.zero()))


def coefficient_types(*polys):
    return {type(c) for p in polys for _, c in p.terms()}


@settings(deadline=None)
@given(INT_POLY, INT_POLY, INT_POLY | POLY, MAPPING, st.integers(-5, 5))
def test_no_operation_yields_a_float_coefficient(p, q, r, mapping, k):
    # integer inputs give int coefficients: ring operations, derivation and
    # an exact quotient, whose integral coefficients come back as ints
    ints = [p + q, p - q, -p, p * q, k * p, p + k, k - p, p ** 3,
            p.derivative(), SymPoly.const(Fraction(4, 2)),
            SymPoly.symbol(A0, Fraction(6, 2))]
    if q:
        ints.append((p * q).exact_div(q))
        assert ints[-1] == p
    assert coefficient_types(*ints) <= {int}
    # with fractions mixed in, substitution, division and the render text
    # still give only ints and Fractions
    exact = [p * r, r.substitute(mapping), p.substitute(mapping),
             parse_sympoly(r.render()), parse_sympoly(p.render())]
    if r:
        exact.append((p * r).exact_div(r))
        assert exact[-1] == p
    assert coefficient_types(*exact) <= {int, Fraction}
    assert coefficient_types(parse_sympoly(p.render())) <= {int}
    assert SymPoly({m: Fraction(c) for m, c in p.terms()}).render() == p.render()


def test_an_integral_fraction_is_stored_as_an_int():
    a, b = sym(A0), sym(B0)
    q = (6 * a * a - 4 * a * b + 10 * b) * Fraction(1, 4)
    assert q == Fraction(3, 2) * a * a - a * b + Fraction(5, 2) * b
    assert {m: type(c) for m, c in q.terms()} == {
        mono_make({A0: 2}): Fraction, mono_make({A0: 1, B0: 1}): int,
        mono_make({B0: 1}): Fraction}
    assert coefficient_types(4 * q, SymPoly({(): Fraction(6, 3)})) == {int}


# -- the kept text: made by the first render, never carried to a new value ----

def assert_renders_fresh(p):
    text = p.render()
    assert text == SymPoly(dict(p.terms())).render()
    assert parse_sympoly(text) == p and p.render() is text


@settings(deadline=None)
@given(POLY, POLY, MAPPING, st.integers(-3, 3))
def test_every_result_renders_as_a_fresh_value(p, q, mapping, k):
    # render the operands first: a text copied into a result then shows
    for v in (p, q, *mapping.values()):
        v.render()
    results = [p + q, p - q, -p, p * q, k * p, p + k, p ** 2, p.derivative(),
               p.substitute(mapping), parse_sympoly(p.render())]
    if q:
        results.append((p * q).exact_div(q))
    for r in results:
        assert_renders_fresh(r)


def test_a_new_value_does_not_carry_its_operands_text():
    p = 3 * sym(A0) * sym(B0) - sym(A0) + 2
    text = p.render()
    for q in (-p, p + 1, p * 2, p.substitute({A0: sym(B0)})):
        assert q != p and q.render() != text
        assert_renders_fresh(q)
    assert p.render() is text
    assert SymPoly.zero().render() == "0" and (p - p).render() == "0"


LONG_MONO = st.dictionaries(st.sampled_from(SYMBOL_POOL), st.integers(1, 3),
                           max_size=5).map(mono_make)


@given(LONG_MONO, LONG_MONO)
def test_mono_mul_adds_exponents(m1, m2):
    powers = Counter(dict(m1)) + Counter(dict(m2))
    assert mono_mul(m1, m2) == mono_make(powers) == mono_mul(m2, m1)


# -- the term order ----------------------------------------------------------

ORDER_POOL = SYMBOL_POOL + [CoeffSymbol("b", 1, 0, 2),
                            CoeffSymbol("a", 1, 1, 0, fresh=True)]
MONO = st.dictionaries(st.sampled_from(ORDER_POOL), st.integers(1, 3),
                       max_size=3).map(mono_make)


def graded_lex_reference(monos):
    """Largest first: degree, then exponent vectors over the sorted alphabet
    compared lexicographically."""
    alphabet = sorted(ORDER_POOL)

    def dense(m):
        powers = dict(m)
        return [powers.get(s, 0) for s in alphabet]
    return sorted(monos, key=lambda m: (sum(dense(m)), dense(m)), reverse=True)


@given(st.lists(MONO, max_size=12))
@example([mono_make({B0: 2}), mono_make({A0: 1, B0: 1}), mono_make({A0: 2}),
          mono_make({ORDER_POOL[-1]: 1, A0: 1}), mono_make({}),
          mono_make({CoeffSymbol("a", 0, 0, 1): 2})])
def test_mono_order_is_graded_lex_on_dense_exponents(monos):
    assert sorted(monos, key=mono_order) == graded_lex_reference(monos)


@pytest.mark.parametrize("text, value", [
    ("3/4", Fraction(3, 4)), (" -0.25 ", Fraction(-1, 4)),
    ("1E-3", Fraction(1, 1000)), ("2.5e+1", Fraction(25)),
    ("1_0e1_0", Fraction(10) ** 11),
    (f"1e{MAX_EXPONENT}", Fraction(10) ** MAX_EXPONENT),
    (f"-1e-{MAX_EXPONENT}", -Fraction(1, 10 ** MAX_EXPONENT)),
    (7, Fraction(7)), (Fraction(2, 3), Fraction(2, 3))])
def test_parse_rational_reads_exact_text(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    f"1e{MAX_EXPONENT + 1}", f"0.5E-{MAX_EXPONENT + 1}", "1e+99_999_999",
    "2e99999999 "])
def test_parse_rational_refuses_a_huge_exponent(text):
    with pytest.raises(ValueError, match="number out of range"):
        parse_rational(text)


def test_a_specialization_reads_text_values_exactly():
    assert Specialization({A0: "-0.25", B0: 3})[A0] == Fraction(-1, 4)
    with pytest.raises(ValueError, match="number out of range"):
        Specialization({A0: "1e99999"})


@pytest.mark.parametrize("make", [
    lambda: parse_rational(0.1), lambda: SymPoly.const(0.1),
    lambda: SymPoly.symbol(A0, 0.1), lambda: Specialization({A0: 0.1})],
    ids=["parse_rational", "const", "symbol", "specialization"])
def test_a_float_is_refused(make):
    with pytest.raises(TypeError, match="a float is not read as an exact rational"):
        make()


@pytest.mark.parametrize("make", [
    lambda: parse_rational(True), lambda: parse_rational(False),
    lambda: Specialization({A0: True})],
    ids=["parse_rational-true", "parse_rational-false", "specialization"])
def test_a_bool_is_refused(make):
    # True would be read as the number 1
    with pytest.raises(TypeError, match="a bool is not read as an exact rational"):
        make()


def test_a_json_number_is_read_as_its_text():
    # a JSON file's 0.1 reaches parse_rational as text; a float never does
    data = json.loads('{"a(0,0)": 0.1}', parse_float=parse_rational)
    assert Specialization.from_json(data)[A0] == Fraction(1, 10)
    with pytest.raises(ValueError, match=r"value of a\(0,0\) is not a number"):
        Specialization.from_json({"a(0,0)": 0.1})
