"""Iterated-resultant elimination oracle."""

import random
from fractions import Fraction

import pytest

from diffres import (CoeffSymbol, DegreeZero, DiffPoly, IntermediateZero,
                     SymPoly, SystemSpec, YMonomial, build_square_matrix,
                     common_zero_specialization, delta, det_specialized,
                     eliminate_iterated, generic_system,
                     random_specialization, sylvester_resultant)
from diffres.diffsys import YM_ONE

S = CoeffSymbol("a", 0, 0)
T = CoeffSymbol("b", 0, 0)


def linear_in(var: str, shift: SymPoly) -> DiffPoly:
    axis = {"y": YMonomial(1, 0, 0), "y1": YMonomial(0, 1, 0),
            "y2": YMonomial(0, 0, 1)}[var]
    return DiffPoly({axis: SymPoly.one(), YM_ONE: -shift})


class TestSylvester:
    def test_linear_case(self):
        r = sylvester_resultant(linear_in("y", SymPoly.symbol(S)),
                                linear_in("y", SymPoly.symbol(T)), "y")
        value = r.coefficient(YM_ONE)
        assert value in (SymPoly.symbol(S) - SymPoly.symbol(T),
                         SymPoly.symbol(T) - SymPoly.symbol(S))

    def test_common_root_gives_zero(self):
        p = linear_in("y", SymPoly.symbol(S))
        assert sylvester_resultant(p, p, "y").is_zero()

    def test_degree_zero_rejected(self):
        p = linear_in("y", SymPoly.symbol(S))
        q = DiffPoly({YM_ONE: SymPoly.symbol(T)})
        with pytest.raises(DegreeZero):
            sylvester_resultant(p, q, "y")

    def test_derivative_pair_cross_determinant(self):
        # for degree one, eliminating the top variable from the two
        # derivatives is the 2x2 cross determinant of their linear forms
        spec = SystemSpec(1, 1)
        f1, f2 = generic_system(spec)
        df1, df2 = delta(f1), delta(f2)
        r = sylvester_resultant(df1, df2, "y2")
        a01 = SymPoly.symbol(CoeffSymbol("a", 0, 1))
        b01 = SymPoly.symbol(CoeffSymbol("b", 0, 1))
        explicit = DiffPoly.zero()
        low1 = DiffPoly({m: c for m, c in df1.items() if m.ey2 == 0})
        low2 = DiffPoly({m: c for m, c in df2.items() if m.ey2 == 0})
        explicit = low1 * DiffPoly({YM_ONE: b01}) - low2 * DiffPoly({YM_ONE: a01})
        assert r == explicit or r == -explicit

    def test_classic_discriminant(self):
        # res_y(y^2 - s, y - t) = t^2 - s up to sign
        s, t = SymPoly.symbol(S), SymPoly.symbol(T)
        p = DiffPoly({YMonomial(2, 0, 0): SymPoly.one(), YM_ONE: -s})
        q = linear_in("y", t)
        r = sylvester_resultant(p, q, "y").coefficient(YM_ONE)
        assert r in (t * t - s, s - t * t)


class TestEliminateIterated:
    def test_output_is_symbol_only_and_nonzero(self):
        out = eliminate_iterated(SystemSpec(1, 1))
        assert not out.is_zero()
        assert all(sym.deriv <= 1 for sym in out.symbols())

    def test_vanishes_on_common_zeros(self):
        spec = SystemSpec(1, 1)
        out = eliminate_iterated(spec)
        rng = random.Random(17)
        for seed in range(40):
            point = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            s = common_zero_specialization(spec, point, rng_seed=seed)
            assert out.evaluate(s) == 0

    def test_cross_probe_with_matrix_determinant(self):
        spec = SystemSpec(1, 1)
        out = eliminate_iterated(spec)
        M = build_square_matrix(spec)
        generic = random_specialization(spec, 2718)
        assert out.evaluate(generic) != 0
        assert det_specialized(M, generic) != 0

    def test_a_collapsed_resultant_raises(self, monkeypatch):
        from diffres import oracle
        monkeypatch.setattr(oracle, "sylvester_resultant",
                            lambda p, q, var: DiffPoly.zero())
        with pytest.raises(IntermediateZero, match="collapsed at stage y2"):
            eliminate_iterated(SystemSpec(1, 1))

    def test_degrees_past_one_one_rejected(self):
        with pytest.raises(ValueError, match=r"only for degrees \(1, 1\)"):
            eliminate_iterated(SystemSpec(2, 2))
