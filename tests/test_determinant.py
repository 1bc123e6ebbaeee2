"""Determinant modes and specialization generators."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from diffres import (CapExceeded, CoeffSymbol, PolyMatrix, Specialization,
                     SymPoly, SystemSpec, YMonomial, build_square_matrix,
                     certify, common_zero_specialization, crt_combine, delta,
                     det_laplace, det_modular, det_specialized, det_symbolic,
                     generic_system, hadamard_bound, kernel_certifies,
                     nonzero_random_probe, random_specialization,
                     ranking_specialization, system_symbols)
from diffres import determinant
from diffres.cli import main
from diffres.determinant import _det_residue, _det_scaled, _pivot_order, is_prime
from diffres.matrices import F1, RowLabel, build_carra_ferro
from conftest import matrix_from_grid

ROOT = Path(__file__).resolve().parent.parent

A = CoeffSymbol("a", 0, 0)
B = CoeffSymbol("b", 0, 0)
C = CoeffSymbol("a", 1, 0)


class TestSymbolic:
    def test_diagonal_product(self):
        grid = [[SymPoly.symbol(A), SymPoly.zero(), SymPoly.zero()],
                [SymPoly.zero(), SymPoly.symbol(B), SymPoly.zero()],
                [SymPoly.zero(), SymPoly.zero(), SymPoly.symbol(C)]]
        M = matrix_from_grid(grid)
        assert det_symbolic(M) == \
            SymPoly.symbol(A) * SymPoly.symbol(B) * SymPoly.symbol(C)

    def test_zero_column_gives_zero(self):
        grid = [[SymPoly.symbol(A), SymPoly.zero()],
                [SymPoly.symbol(B), SymPoly.zero()]]
        assert det_symbolic(matrix_from_grid(grid)) == SymPoly.zero()

    def test_cap(self):
        M = build_square_matrix(SystemSpec(1, 2))
        with pytest.raises(CapExceeded):
            det_symbolic(M)  # 16x16 over the default cap of 8

    def test_degree_one_degree_and_fixture(self):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        d = det_symbolic(M)
        assert d.total_degree() == 4
        assert len(d.symbols()) == 12
        universe = system_symbols(spec)
        values = {s: Fraction(0) for s in universe}
        values[CoeffSymbol("a", 0, 1, 0)] = Fraction(1)
        values[CoeffSymbol("a", 0, 0, 0)] = Fraction(1)
        values[CoeffSymbol("b", 0, 1, 0)] = Fraction(1)
        values[CoeffSymbol("b", 1, 0, 0)] = Fraction(1)
        assert abs(d.evaluate(Specialization(values))) == 1

    def test_agrees_with_rational_determinant_at_points(self, rng):
        from conftest import SYMBOL_POOL, random_sympoly
        for _ in range(25):
            n = rng.randint(1, 4)
            grid = [[random_sympoly(rng, max_terms=2, max_exp=1)
                     for _ in range(n)] for _ in range(n)]
            d = det_symbolic(matrix_from_grid(grid))
            for _ in range(2):
                s = Specialization({x: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                    for x in SYMBOL_POOL})
                rows = [{j: v.evaluate(s) for j, v in enumerate(row)}
                        for row in grid]
                assert d.evaluate(s) == det_rational(rows)

    def test_sixteen_by_sixteen_agrees_with_specialized(self):
        spec = SystemSpec(1, 2)
        M = build_square_matrix(spec)
        d = det_symbolic(M, cap=16)
        assert len(d) == 3873
        assert hashlib.sha256(d.render().encode()).hexdigest() == \
            "ec341e849bad000f1d1f2e38b0feb67aab7be9fa828c5e4d8465daae7d7f9aa1"
        for seed in (0, 1):
            s = random_specialization(spec, seed)
            assert d.evaluate(s) == det_specialized(M, s) != 0


class TestSpecialized:
    def test_common_zero_on_axis_fixture(self):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        universe = system_symbols(spec)
        values = {s: Fraction(0) for s in universe}
        values[CoeffSymbol("a", 0, 1, 0)] = Fraction(1)
        values[CoeffSymbol("a", 1, 0, 0)] = Fraction(1)
        values[CoeffSymbol("b", 0, 1, 0)] = Fraction(1)
        values[CoeffSymbol("b", 1, 0, 0)] = Fraction(-1)
        assert det_specialized(M, Specialization(values)) == 0

    def test_all_zeros_gives_zero(self):
        spec = SystemSpec(1, 2)
        M = build_square_matrix(spec)
        universe = system_symbols(spec)
        s = Specialization({sym: Fraction(0) for sym in universe})
        assert det_specialized(M, s) == 0

    def test_agreement_with_symbolic(self, rng):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        d = det_symbolic(M)
        for trial in range(50):
            s = random_specialization(spec, 5000 + trial)
            assert d.evaluate(s) == det_specialized(M, s)

    def test_rational_entries(self):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        universe = system_symbols(spec)
        rng = random.Random(3)
        values = {s: Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                  for s in universe}
        s = Specialization(values)
        assert det_specialized(M, s) == det_symbolic(M).evaluate(s)


def common_zero_reference(spec, point, rng_seed=0):
    """The common-zero generator solved over `SymPoly`: each polynomial
    collapsed at the point by `DiffPoly.evaluate_point`, each constant
    symbol solved from the linear form that gives, the draws as in
    `common_zero_specialization`."""
    spec = SystemSpec(*spec).validate()
    point = tuple(Fraction(v) for v in point)
    rng = random.Random(rng_seed)
    universe = system_symbols(spec)
    values = {s: Fraction(rng.randint(-10 ** 6, 10 ** 6))
              for s in sorted(universe)}
    f1, f2 = generic_system(spec)
    targets = [(f1.evaluate_point(point), CoeffSymbol("a", 0, 0, 0)),
               (f2.evaluate_point(point), CoeffSymbol("b", 0, 0, 0)),
               (delta(f1).evaluate_point(point), CoeffSymbol("a", 0, 0, 1)),
               (delta(f2).evaluate_point(point), CoeffSymbol("b", 0, 0, 1))]
    for at_point, sym in targets:
        values[sym] = Fraction(0)
        values[sym] = -at_point.evaluate(values)
    result = Specialization(values)
    for at_point, _ in targets:
        assert at_point.evaluate(result) == 0
    return result


# zero, integer and (negative) fractional coordinates
COORDINATES = st.one_of(st.just(Fraction(0)), st.integers(-30, 30).map(Fraction),
                        st.fractions(-30, 30, max_denominator=40))


class TestCommonZero:
    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4),
                                 (4, 4)]),
           point=st.tuples(COORDINATES, COORDINATES, COORDINATES),
           seed=st.integers(0, 2 ** 62))
    @example(spec=(4, 4), point=(Fraction(0), Fraction(7), Fraction(-5, 7)), seed=3)
    @example(spec=(1, 1), point=(Fraction(-1, 2), Fraction(0), Fraction(-9)), seed=0)
    def test_matches_the_sympoly_reference(self, spec, point, seed):
        assert common_zero_specialization(spec, point, rng_seed=seed).to_json() \
            == common_zero_reference(spec, point, rng_seed=seed).to_json()

    @pytest.mark.parametrize("point", [(0.1, 0.2, 0.3), (True, 0, 0)])
    def test_an_inexact_point_is_refused(self, point):
        # 0.1 would be read as 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="is not read as an exact rational"):
            common_zero_specialization((1, 1), point)

    def test_origin_forces_constant_symbols_to_zero(self):
        spec = SystemSpec(2, 2)
        s = common_zero_specialization(spec, (0, 0, 0), rng_seed=5)
        assert s[CoeffSymbol("a", 0, 0, 0)] == 0
        assert s[CoeffSymbol("b", 0, 0, 0)] == 0
        assert s[CoeffSymbol("a", 0, 0, 1)] == 0
        assert s[CoeffSymbol("b", 0, 0, 1)] == 0
        assert s[CoeffSymbol("a", 1, 1, 0)] != 0  # generic elsewhere

    def test_system_vanishes_at_point(self):
        spec = SystemSpec(2, 3)
        point = (Fraction(1), Fraction(2), Fraction(3))
        s = common_zero_specialization(spec, point, rng_seed=42)
        f1, f2 = generic_system(spec)
        for p in (f1, f2, delta(f1), delta(f2)):
            assert p.evaluate_point(point).evaluate(s) == 0
        M = build_square_matrix(spec)
        assert det_specialized(M, s) == 0

    def test_vanishing_across_seeds(self):
        spec = SystemSpec(1, 2)
        M = build_square_matrix(spec)
        rng = random.Random(0)
        for seed in range(25):
            point = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            s = common_zero_specialization(spec, point, rng_seed=seed)
            assert det_specialized(M, s) == 0

    def test_nonvanishing_probe(self):
        for d in ((1, 1), (2, 2)):
            spec = SystemSpec(*d)
            M = build_square_matrix(spec)
            ok, witness = nonzero_random_probe(M, spec, seed=11)
            assert ok and "seed" in witness

    def test_nonvanishing_probe_gives_up_after_ten_seeds(self, monkeypatch):
        seen = []

        def zero(matrix, s):
            seen.append(s)
            return 0

        monkeypatch.setattr(determinant, "det_specialized", zero)
        spec = SystemSpec(1, 1)
        ok, witness = nonzero_random_probe(build_square_matrix(spec), spec, seed=4)
        assert (ok, witness) == (False, {"seed": 4, "retries": 10})
        assert [s.to_json() for s in seen] == \
            [random_specialization(spec, 4 + k).to_json() for k in range(10)]


# sha256 of the JSON list of the specializations in the test below, taken
# when Specialization still wrapped every value, Fractions included
SPECIALIZATIONS_SHA256 = \
    "b101a4d9a4ec3dc9afe63d719d43eb29c86bb82296f50358cfa308b14f125062"


def test_specializations_are_unchanged():
    docs = []
    for d1, d2 in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4),
                   (3, 3), (3, 4), (4, 4)):
        for seed in range(3):
            made = (random_specialization((d1, d2), seed),
                    common_zero_specialization(
                        (d1, d2), (Fraction(-1, 2), Fraction(0), Fraction(7, 3)),
                        rng_seed=seed))
            for s in made:
                assert all(type(v) is Fraction for _, v in s.items())
                docs.append(s.to_json())
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest == SPECIALIZATIONS_SHA256


class TestModular:
    MODULI = [2147483647, 2147483629, 2147483587]

    def test_residues_vanish_for_common_zero(self):
        spec = SystemSpec(1, 2)
        M = build_square_matrix(spec)
        s = common_zero_specialization(spec, (1, 2, 3), rng_seed=9)
        # clear denominators: solve-adjusted values are integers at an
        # integer point with integer randomness
        assert det_modular(M, s, self.MODULI).residues == [0, 0, 0]

    def test_crt_matches_exact_value(self):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        for seed in range(50):
            s = random_specialization(spec, seed)
            exact = det_specialized(M, s)
            bound = hadamard_bound(M.specialize(s)[0])
            moduli = []
            product = 1
            for p in self.MODULI + [2147483579, 2147483563]:
                moduli.append(p)
                product *= p
                if product > 2 * bound:
                    break
            assert product > 2 * bound
            residues = det_modular(M, s, moduli).residues
            assert crt_combine(residues, moduli) == exact

    def test_cli_specializes_the_matrix_once(self, monkeypatch, capsys):
        calls = []
        specialize = PolyMatrix.specialize
        monkeypatch.setattr(PolyMatrix, "specialize",
                            lambda m, s: calls.append(m) or specialize(m, s))
        assert main(["det", "--d1", "2", "--d2", "2", "--mode", "modular"]) == 0
        assert len(calls) == 1 and '"residues"' in capsys.readouterr().out

    def test_single_small_modulus(self):
        grid = [[SymPoly.const(2), SymPoly.const(4)],
                [SymPoly.const(6), SymPoly.const(8)]]
        M = matrix_from_grid(grid)
        s = Specialization({})
        assert det_modular(M, s, [2]).residues == [0]

    def test_crt_lift_needs_twice_the_bound(self):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        s = random_specialization(spec, 0)
        exact = det_specialized(M, s)
        bound = hadamard_bound(M.specialize(s)[0])
        two = self.MODULI[:2]
        assert two[0] * two[1] <= 2 * bound     # two 31-bit primes fall short
        assert det_modular(M, s, two).value is None
        assert det_modular(M, s, self.MODULI).value == exact

    def test_composite_and_unit_moduli_are_rejected(self):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        s = random_specialization(spec, 0)
        for moduli in ([4, 9], [1], [2147483647, 561]):
            with pytest.raises(ValueError):
                det_modular(M, s, moduli)

    def test_a_repeated_modulus_is_rejected_before_any_elimination(
            self, monkeypatch):
        calls = []
        monkeypatch.setattr(determinant, "_det_residue",
                            lambda *args: calls.append(args))
        M = build_square_matrix(SystemSpec(1, 1))
        s = random_specialization((1, 1), 0)
        p, q = self.MODULI[:2]
        for moduli in ([p] * 6, [p, q, p]):
            with pytest.raises(ValueError, match=f"modulus {p} is repeated"):
                det_modular(M, s, moduli)
        assert calls == []
        with pytest.raises(ValueError, match="coprime"):
            crt_combine([5, 5], [p, p])

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(3000) if is_prime(n)] == \
            [n for n in range(3000) if trial(n)]
        assert is_prime(2147483647) and is_prime(2 ** 61 - 1)
        # strong pseudoprimes to the bases 2, 3, 5 and 7, and a Carmichael number
        assert not is_prime(3215031751) and not is_prime(561)
        with pytest.raises(ValueError):
            is_prime(2 ** 89 - 1)

    def test_hadamard_bound_of_int_rows(self):
        """The int rows of `PolyMatrix.specialize`, each row norm rounded
        up past its integer square root."""
        rows = [{0: 3, 1: -4}, {0: 1, 1: 1}, {2: -2}]
        # |det| = 14; row norms 5, sqrt(2) and 2
        assert hadamard_bound(rows) == 6 * 2 * 3
        assert hadamard_bound(rows[:1]) == 6 and hadamard_bound([]) == 1

    def test_rejects_non_square_matrices(self):
        s = random_specialization((1, 2), 0)
        tall = build_carra_ferro(1, 2, 1, 1)
        assert (tall.nrows, tall.ncols) == (28, 20)
        wide = PolyMatrix([RowLabel(F1, YMonomial(0, 0, 0))],
                          [YMonomial(1, 0, 0), YMonomial(0, 0, 0)],
                          [SymPoly.const(2)], [((0, 1), (0, 0))])
        for matrix in (tall, wide):
            with pytest.raises(ValueError, match="non-square"):
                det_modular(matrix, s, [101])

    def test_rejects_rational_specialization(self):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        universe = system_symbols(spec)
        values = {sym: Fraction(1, 2) for sym in universe}
        with pytest.raises(ValueError):
            det_modular(M, Specialization(values), [7])


def _degrees(d):
    return f"{d[0]}-{d[1]}"


PRIMES_31 = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
             2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
             2147483423, 2147483399)    # the largest 31-bit primes, descending


def _primes_above(bound):
    """Descending 61-bit primes whose product exceeds bound."""
    primes, product, p = [], 1, 2 ** 61 - 1
    while product <= bound:
        if is_prime(p):
            primes.append(p)
            product *= p
        p -= 2
    return primes


class TestSparseKernel:
    """The sparse exact determinant against independent routes on the real
    square matrices."""

    @pytest.mark.parametrize("d", [(1, 2), (2, 2), (2, 3)], ids=_degrees)
    def test_matches_the_crt_lift_of_the_residues(self, d):
        M = build_square_matrix(SystemSpec(*d))
        for seed in range(3):
            s = random_specialization(d, 700 + seed)
            exact = det_specialized(M, s)
            bound = hadamard_bound(M.specialize(s)[0])
            moduli = _primes_above(2 * bound)
            lifted = det_modular(M, s, moduli)
            assert exact != 0 and lifted.bound == bound and lifted.value == exact

    @pytest.mark.parametrize("d", [(1, 2), (2, 2), (2, 3)], ids=_degrees)
    def test_vanishes_at_negative_fractional_common_zeros(self, d):
        M = build_square_matrix(SystemSpec(*d))
        rng = random.Random(f"negative-zeros:{d}")
        for seed in range(3):
            # an odd numerator over an even denominator is never an integer
            point = tuple(Fraction(-2 * rng.randint(0, 8) - 1,
                                   2 * rng.randint(1, 4)) for _ in range(3))
            s = common_zero_specialization(d, point, rng_seed=seed)
            assert det_specialized(M, s) == 0

    @pytest.mark.parametrize("d, mode, extra, name", [
        ((2, 2), "specialized", (), "det_2_2_seed0"),
        ((2, 3), "specialized", (), "det_2_3_seed0"),
        ((3, 3), "specialized", (), "det_3_3_seed0"),
        ((2, 3), "specialized", ("--common-zero", "1/2", "-3/4", "5/7"),
         "det_2_3_seed0_common_zero"),
        # twelve 31-bit primes beat twice the Hadamard bound: the CRT lifts
        ((1, 2), "modular", ("--moduli", *map(str, PRIMES_31)),
         "det_1_2_seed0_modular"),
        # the two default moduli fall short: residues and a crt_note
        ((2, 3), "modular", (), "det_2_3_seed0_modular"),
        ((2, 2), "modular", ("--common-zero", "1", "-2", "3"),
         "det_2_2_seed0_modular_common_zero")],
        ids=["2-2", "2-3", "3-3", "2-3-common-zero", "1-2-modular",
             "2-3-modular", "2-2-modular-common-zero"])
    def test_cli_output_is_pinned(self, d, mode, extra, name, capsys):
        assert main(["det", "--d1", str(d[0]), "--d2", str(d[1]),
                     "--mode", mode, "--seed", "0", *extra]) == 0
        pinned = Path(__file__).parent / "data" / f"{name}.json"
        assert capsys.readouterr().out == pinned.read_text()


# sha256 of repr(_pivot_order(M)) of the square matrices.  Up to (3,4) the
# orders are those of the former analysis on the sparsity pattern, every
# entry and fill-in taken as nonzero, pinned while the elimination loop
# still kept the column index by set differences.  At (3,3), (4,4) and (5,5)
# the pattern planned pivots that every specialization cancels; the residue
# analysis keeps the pattern's first 76, 143 and 232 pivots (their sha256
# below) and completes the order from there.
PIVOT_ORDER_SHA256 = {
    (1, 1): "182da7c4e64a06a507c0c6f92ca8e788bdae9f84f95eca51168e02e4ee0e006f",
    (1, 2): "a279cb7b601bcf0057782ae0fb63b033b957aef281a75fdcc1536f2fc7349377",
    (2, 2): "e9d43bd73fb3d721fdeab34a1f1c68b9b36ba571f966cbde1d1478303e326461",
    (2, 3): "f0597560339be0f4c6932844bf956a7106c2ee44d21afc85a9cb3391e97c8f71",
    (3, 3): "35b14788b5c4d8dd13d5d12ff8ce0d07a3622389fa22c371ac983401e315e7dc",
    (3, 4): "5810a8999f0a3af34208c76fe371dd032e5da9be5dbcf80b2812f59dd9fcad26",
    (4, 4): "9a752a7714d803203d782d4da986ce83885306bb7436f32d8b3812809325ba9e",
    (5, 5): "71b90ff4ca702f6654cbad6ba5e328064469326a2f53b2fc2d1965ceab67b8de",
}
PATTERN_PREFIX_SHA256 = {
    (3, 3): (76, "8a9f858daf3a4cf9c5dbfcc9d67cc0e950c5e241b3dd9bab255e33938bc422d5"),
    (4, 4): (143, "07ca0e198f4a0d69dbab3cd7a35cc36b67d95fe351aa1d9aadf11f1d6542a980"),
    (5, 5): (232, "51c2dad625fe3eaeeffa5f4dc24d9b1470edae4ced43072273a094dcea19f815"),
}


def _order_sha256(order):
    return hashlib.sha256(repr(order).encode()).hexdigest()


@pytest.mark.parametrize("d", sorted(PIVOT_ORDER_SHA256), ids=_degrees)
def test_pivot_orders_are_unchanged(d):
    """Markowitz ties go to the first entry found, so the order follows
    dict insertion order: fill-in joins a row in the pivot row's order."""
    assert _order_sha256(_pivot_order(_square_matrix(d))) == PIVOT_ORDER_SHA256[d]


@pytest.mark.parametrize("d", sorted(PATTERN_PREFIX_SHA256), ids=_degrees)
def test_pivot_orders_keep_the_pattern_prefix(d):
    n, digest = PATTERN_PREFIX_SHA256[d]
    assert _order_sha256(_pivot_order(_square_matrix(d))[:n]) == digest


def test_the_pivot_order_does_not_follow_the_hash_seed():
    """`PolyMatrix.symbols()` is a set, whose order follows PYTHONHASHSEED;
    the analysis draws its point over the sorted symbols."""
    code = ("import hashlib\n"
            "from diffres import SystemSpec, build_square_matrix\n"
            "from diffres.determinant import _pivot_order\n"
            "M = build_square_matrix(SystemSpec(3, 3))\n"
            "print(' '.join(x.render() for x in M.symbols()))\n"
            "print(hashlib.sha256(repr(_pivot_order(M)).encode()).hexdigest())\n")
    set_orders = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        set_order, digest = proc.stdout.splitlines()
        set_orders.add(set_order)
        assert digest == PIVOT_ORDER_SHA256[(3, 3)]
    assert len(set_orders) == 2


def det_rational(rows, order=()):
    """The exact determinant of a square matrix of sparse `Fraction` rows,
    {column: value} each, replaying `order`: `_det_scaled` of the rows read
    as ints over the lcm of all their denominators."""
    denom = lcm(*(v.denominator for row in rows for v in row.values()))
    return _det_scaled([{j: v.numerator * (denom // v.denominator)
                         for j, v in row.items() if v} for row in rows],
                       denom, order)


def det_rational_reference(rows, order=()):
    """`det_rational` with a `Fraction` factor per row, and the column index
    kept by the set of fill-in columns taken before each row update and a
    scan of the pivot row after it."""
    live, factor = {}, {}
    for i, row in enumerate(rows):
        denom = lcm(*(v.denominator for v in row.values()))
        ints = {j: v.numerator * (denom // v.denominator)
                for j, v in row.items() if v}
        content = gcd(*ints.values())
        live[i] = {j: v // content for j, v in ints.items()}
        factor[i] = Fraction(content, denom)

    def update(i, row_i, gik, pv, row_k, cols):
        fill = row_k.keys() - row_i.keys()
        g = gcd(pv, gik)
        a, b = pv // g, gik // g
        if a != 1:
            for j in row_i:
                row_i[j] *= a
        for j, v in row_k.items():
            x = row_i.get(j, 0) - b * v
            if x:
                row_i[j] = x
            else:
                del row_i[j]
        for j in fill:
            cols[j].add(i)
        for j in row_k:
            if j not in row_i:
                cols[j].discard(i)
        content = gcd(*row_i.values())
        if content > 1:
            for j in row_i:
                row_i[j] //= content
        if a != 1 or content > 1:
            factor[i] *= Fraction(content, a)

    pivots, sign = determinant._eliminate(live, order, update)
    return prod((pv * factor[k] for k, _, pv in pivots), start=Fraction(sign))


# mostly zeros, so that grids are sparse and often singular
SPARSE_VALUES = (0, 0, 0, 0, 0, 1, -1, 2, -3, 7)
PRIME = 2147483647
RATIONAL_ENTRIES = st.builds(Fraction, st.integers(-9, 9),
                             st.sampled_from([1, 1, 2, 3, 7]))


@lru_cache(maxsize=8)
def _square_matrix(d):
    return build_square_matrix(SystemSpec(*d))


@st.composite
def sparse_grids(draw):
    """Square integer grids up to 6x6, some with an empty row or column."""
    n = draw(st.integers(0, 6))
    grid = [[draw(st.sampled_from(SPARSE_VALUES)) for _ in range(n)]
            for _ in range(n)]
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            if draw(st.booleans()):
                grid[k] = [0] * n
                break
            grid[i][k] = 0
    return grid


def _zero_pivot_order(grid, order, k):
    """`order` with a zero entry planned as its k-th pivot, or None.

    A row holding zeros in the first k pivot columns is untouched by those
    k steps, so its zeros outside them are still zero at step k; k is
    lowered until such a row has such a zero.
    """
    for step in range(min(k, len(order)), -1, -1):
        rows = {i for i, _ in order[:step]}
        cols = {j for _, j in order[:step]}
        for i, row in enumerate(grid):
            if i in rows or any(row[j] for j in cols):
                continue
            for j, v in enumerate(row):
                if j not in cols and not v:
                    return list(order[:step]) + [(i, j)] + list(order[step:])
    return None


def _replay_orders(grid, data):
    """The analyzed pivot order of the grid, a permutation of it, the empty
    order and, where one exists, the analyzed order with a zero planned
    pivot."""
    polys = [[SymPoly.const(v) for v in row] for row in grid]
    analyzed = list(_pivot_order(matrix_from_grid(polys)))
    orders = [analyzed, data.draw(st.permutations(analyzed)), []]
    zero_pivot = _zero_pivot_order(grid, analyzed,
                                   data.draw(st.integers(0, len(grid))))
    if zero_pivot is not None:
        orders.append(zero_pivot)
    return orders


class TestReplayedOrder:
    """`det_rational` replays a planned pivot order while the planned
    entries are nonzero; whatever the order, the value is the determinant."""

    @settings(deadline=None, max_examples=300)
    @given(sparse_grids(), st.data())
    def test_any_order_gives_the_determinant(self, grid, data):
        rows = [{j: Fraction(v) for j, v in enumerate(row)} for row in grid]
        expected = det_laplace([[SymPoly.const(v) for v in row] for row in grid])
        for order in _replay_orders(grid, data):
            assert SymPoly.const(det_rational(rows, order)) == expected

    @settings(deadline=None, max_examples=300)
    @given(sparse_grids(), st.data())
    def test_residue_replay_is_the_determinant_mod_p(self, grid, data):
        """Modulo 2 and 3 some nonzero entries are zero residues, so planned
        pivots miss and the search takes over."""
        rows = [dict(enumerate(row)) for row in grid]
        exact = det_rational([{j: Fraction(v) for j, v in row.items()}
                              for row in rows])
        for order in _replay_orders(grid, data):
            for p in (2, 3, PRIME):
                residue, pivots = _det_residue(rows, p, order)
                assert residue == exact.numerator % p
                # det_modular replays one prime's pivots for the next
                replayed, _ = _det_residue(rows, PRIME, pivots)
                assert replayed == exact.numerator % PRIME

    def test_a_zero_planned_pivot_is_not_taken(self):
        rows = [{j: Fraction(v) for j, v in enumerate(row)}
                for row in ([0, 2, 0], [3, 0, 0], [0, 0, 5])]
        for order in ([(0, 0)], [(2, 2), (1, 1)], [(2, 2), (0, 0), (1, 1)]):
            assert det_rational(rows, order) == -30

    def test_a_row_emptied_without_cancellation_stops_the_pivots(self):
        """Two rows that hold only column 0: the first pivot leaves the
        other row empty with nothing cancelled, and no pivot follows."""
        grid = [[1, 0, 0], [2, 0, 0], [0, 1, 1]]
        M = matrix_from_grid([[SymPoly.const(v) for v in row] for row in grid])
        assert _pivot_order(M) == ((0, 0),)
        rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in grid]
        assert det_rational(rows) == 0
        assert _det_residue(rows, PRIME) == (0, [(0, 0)])

    def test_analyzed_order_covers_the_square_matrices(self):
        for d in ((d1, d2) for d2 in range(1, 6) for d1 in range(1, d2 + 1)):
            M = build_square_matrix(SystemSpec(*d))
            order = _pivot_order(M)
            assert _pivot_order(M) is order    # computed once per matrix
            assert sorted(i for i, _ in order) == list(range(M.nrows))
            assert sorted(j for _, j in order) == list(range(M.ncols))

    @pytest.mark.parametrize("d", [(3, 3), (4, 4)], ids=_degrees)
    def test_a_replayed_random_determinant_makes_no_search(self, d, monkeypatch):
        """The analysis sees the cancellations that every specialization
        shares, so a random one takes every planned pivot."""
        M = _square_matrix(d)
        order = _pivot_order(M)
        s = random_specialization(d, 11)
        searches = []
        search = determinant._markowitz_pivot
        monkeypatch.setattr(determinant, "_markowitz_pivot",
                            lambda *args: searches.append(args) or search(*args))
        rows, den = M.specialize(s)     # the elimination takes the rows over
        value = _det_scaled(rows, den, order) * den ** len(rows)
        assert value.denominator == 1 and value != 0
        assert _det_residue(M.specialize(s)[0], PRIME, order) == (
            value.numerator % PRIME, list(order))
        assert searches == []

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.just(Fraction(0)), RATIONAL_ENTRIES),
                 min_size=n, max_size=n), min_size=n, max_size=n)),
        st.data())
    def test_matches_the_fraction_factor_reference(self, grid, data):
        """Mixed denominators; in some draws a zero row, a zero column or a
        scaled copy of another row (singular); the empty grid at n = 0."""
        n = len(grid)
        kind = data.draw(st.sampled_from(["row", "column", "copy", "free"]))
        k = data.draw(st.integers(0, max(n - 1, 0)))
        if kind == "row" and n:
            grid[k] = [Fraction(0)] * n
        elif kind == "column" and n:
            for row in grid:
                row[k] = Fraction(0)
        elif kind == "copy" and n > 1:
            grid[k] = [Fraction(-3, 5) * v for v in grid[(k + 1) % n]]
        rows = [{j: v for j, v in enumerate(row) if v} for row in grid]
        for order in _replay_orders(grid, data):
            assert det_rational(rows, order) == det_rational_reference(rows, order)

    @settings(deadline=None, max_examples=30)
    @given(d=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]),
           seed=st.integers(0, 2 ** 62),
           point=st.none() | st.tuples(COORDINATES, COORDINATES, COORDINATES),
           replay=st.booleans())
    def test_square_matrices_match_the_reference(self, d, seed, point, replay):
        M = _square_matrix(d)
        s = (random_specialization(d, seed) if point is None
             else common_zero_specialization(d, point, rng_seed=seed))
        ints, den = M.specialize(s)
        rows = [{j: Fraction(v, den) for j, v in row.items()} for row in ints]
        order = _pivot_order(M) if replay else ()
        value = det_rational(rows, order)
        assert _det_scaled(ints, den, order) == value
        assert value == det_rational_reference(rows, order)
        if point is not None:
            assert value == 0

    def test_row_factors_stay_in_lowest_terms(self, monkeypatch):
        """The kernel's num[i] / den[i] pairs, read from its row update."""
        factors = []
        eliminate = determinant._eliminate

        def spy(live, order, update):
            result = eliminate(live, order, update)
            cells = dict(zip(update.__code__.co_freevars, update.__closure__))
            if "num" in cells:      # the ring over Z, not the residues
                num, den = cells["num"].cell_contents, cells["den"].cell_contents
                factors.extend((num[k], den[k]) for k, _, _ in result[0])
            return result

        monkeypatch.setattr(determinant, "_eliminate", spy)
        _pivot_order.cache_clear()      # its analysis runs under the spy too
        M = _square_matrix((2, 3))
        for seed in range(3):
            s = common_zero_specialization(
                (2, 3), (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 7)),
                rng_seed=seed)
            _det_scaled(*M.specialize(s), _pivot_order(M))
            _det_scaled(*M.specialize(random_specialization((2, 3), seed)))
        assert any(abs(n) > 1 for n, _ in factors)
        assert any(abs(d) > 1 for _, d in factors)
        assert all(gcd(n, d) == 1 for n, d in factors)

    def test_rejects_a_grid_that_is_not_square(self):
        negative = [{0: Fraction(1)}, {-1: Fraction(4), 1: Fraction(5)}]
        wide = [{0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
                {0: Fraction(4), 1: Fraction(5), 2: Fraction(6)}]
        for rows in (negative, wide):
            with pytest.raises(ValueError, match="non-square"):
                det_rational(rows)
            with pytest.raises(ValueError, match="non-square"):
                _det_residue(rows, PRIME)


def _zero_free(s):
    """The same values with no `zero`: `det_specialized` eliminates."""
    return Specialization(dict(s.items()))


KERNEL_POINT = (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 7))


class TestKernelVector:
    """`kernel_certifies`, M(s) v = 0 for v the column monomials at a
    point, against the exact determinant, and the path of `det_specialized`
    that returns 0 on it."""

    @pytest.mark.parametrize("d", [(1, 2), (2, 2), (2, 3)], ids=_degrees)
    def test_holds_exactly_where_the_determinant_vanishes(self, d):
        M = _square_matrix(d)
        rng = random.Random(f"kernel:{d}")
        for seed in range(4):
            point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(3))
            s = common_zero_specialization(d, point, rng_seed=seed)
            assert s.zero == point
            rows, den = M.specialize(s)
            assert kernel_certifies(rows, M.cols, point)
            assert _det_scaled(rows, den, _pivot_order(M)) == 0
            rows, den = M.specialize(random_specialization(d, seed))
            assert not kernel_certifies(rows, M.cols, point)
            assert _det_scaled(rows, den, _pivot_order(M)) != 0

    def test_permuted_columns_fail(self):
        M = _square_matrix((2, 3))
        rows, _ = M.specialize(common_zero_specialization((2, 3), KERNEL_POINT))
        swapped = (M.cols[1], M.cols[0]) + M.cols[2:]
        for cols in (M.cols[::-1], swapped):
            assert not kernel_certifies(rows, cols, KERNEL_POINT)

    def test_one_corrupted_row_fails(self):
        M = _square_matrix((2, 3))
        rows, _ = M.specialize(common_zero_specialization((2, 3), KERNEL_POINT))
        one = M.cols.index(YMonomial(0, 0, 0))    # v is nonzero there
        for k in (0, len(rows) // 2, len(rows) - 1):
            corrupted = [dict(row) for row in rows]
            corrupted[k][one] = corrupted[k].get(one, 0) + 1
            assert not kernel_certifies(corrupted, M.cols, KERNEL_POINT)

    @pytest.mark.parametrize("point", [(0.5, Fraction(1), Fraction(1)),
                                       (Fraction(1), True, Fraction(1))])
    def test_an_inexact_point_is_refused(self, point):
        # 0.5 is exact as a binary float, and still refused: no float is read
        M = _square_matrix((1, 1))
        rows, _ = M.specialize(random_specialization((1, 1), 0))
        with pytest.raises(TypeError, match="is not read as an exact rational"):
            kernel_certifies(rows, M.cols, point)

    def test_columns_without_the_constant_fail(self):
        """At the origin v is 0 off the constant column, so without it
        v = 0 and M v = 0 would prove nothing."""
        M = _square_matrix((2, 2))
        origin = (Fraction(0),) * 3
        rows, _ = M.specialize(common_zero_specialization((2, 2), origin))
        assert kernel_certifies(rows, M.cols, origin)
        cols = tuple(YMonomial(0, 0, 9) if c == YMonomial(0, 0, 0) else c
                     for c in M.cols)
        assert not kernel_certifies(rows, cols, origin)

    def test_a_false_zero_gets_the_exact_determinant(self):
        M = _square_matrix((2, 3))
        r = random_specialization((2, 3), 5)
        value = det_specialized(M, _zero_free(r))
        assert value != 0
        assert det_specialized(
            M, Specialization(dict(r.items()), zero=KERNEL_POINT)) == value
        s = common_zero_specialization((2, 3), KERNEL_POINT, rng_seed=5)
        moved = Specialization(dict(s.items()), zero=(1, 2, 3))
        assert det_specialized(M, moved) == 0

    def test_the_zero_path_neither_analyzes_nor_eliminates(self, monkeypatch):
        M = build_square_matrix(SystemSpec(2, 3))   # no cached pivot order
        s = common_zero_specialization((2, 3), KERNEL_POINT)
        before = _pivot_order.cache_info()
        monkeypatch.setattr(determinant, "_det_scaled", None)
        assert det_specialized(M, s) == 0
        assert _pivot_order.cache_info() == before

    def test_no_entry_goes_through_sympoly_evaluate(self, monkeypatch):
        """Random, common-zero, false-zero and ranking specializations of
        the square and transformed matrices, every entry made in ints."""
        spec = SystemSpec(2, 2)
        M = _square_matrix((2, 3))
        transformed, _ = certify(spec)
        r = random_specialization((2, 3), 1)
        s = common_zero_specialization((2, 3), KERNEL_POINT, rng_seed=1)
        monkeypatch.setattr(SymPoly, "evaluate",
                            lambda *args: pytest.fail("SymPoly.evaluate called"))
        assert det_specialized(M, r) != 0
        assert det_specialized(M, s) == 0
        assert det_specialized(M, _zero_free(s)) == 0
        false_zero = Specialization(dict(r.items()), zero=KERNEL_POINT)
        assert det_specialized(M, false_zero) == det_specialized(M, r)
        assert det_specialized(transformed, ranking_specialization(spec)) != 0

    @pytest.mark.parametrize("d", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)],
                             ids=_degrees)
    def test_values_match_the_zero_free_elimination(self, d):
        M = _square_matrix(d)
        rng = random.Random(f"zero-free:{d}")
        for seed in range(3):
            point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(3))
            for s in (common_zero_specialization(d, point, rng_seed=seed),
                      random_specialization(d, seed)):
                assert det_specialized(M, s) == det_specialized(M, _zero_free(s))

    def test_the_zero_stays_out_of_the_json(self):
        s = common_zero_specialization((2, 2), KERNEL_POINT, rng_seed=3)
        assert s.to_json() == _zero_free(s).to_json()
        assert Specialization.from_json(s.to_json()).zero is None
        assert random_specialization((2, 2), 3).zero is None
