"""Substitution, four-step elimination, and the transversal certificate."""

import re
from fractions import Fraction

import pytest

from diffres import (CertificateFailure, CoeffSymbol, SymPoly, SystemSpec,
                     YMonomial, build_square_matrix, build_sparse_matrix,
                     certify, column_set, default_main_monomials,
                     det_specialized, eliminate, grc_partition,
                     partition_divisibility, ranking_specialization,
                     transform_12)
from diffres.certificate import fresh_symbol, step_symbols, substitution_symbol
from diffres.diffsys import YM_ONE, ym_mul
from diffres.matrices import F1, RowLabel, build_carra_ferro
from diffres.monomials import closed_form_sets
from conftest import matrix_from_grid


class TestTransform:
    def test_targeted_entry_collapses_to_fresh_symbol(self):
        spec = SystemSpec(2, 2)
        M = build_square_matrix(spec)
        Mt = transform_12(M, spec)
        target_col = ym_mul(YMonomial(1, 1, 0), M.rows[0].mult)
        j = M.cols.index(target_col)
        before = M.entry(0, j)
        after = Mt.entry(0, j)
        # before: derivative symbol plus d1 times the pure-y coefficient
        assert before == SymPoly.symbol(CoeffSymbol("a", 1, 1, 1)) \
            + 2 * SymPoly.symbol(CoeffSymbol("a", 2, 0, 0))
        assert after == SymPoly.symbol(fresh_symbol(spec))

    def test_all_other_entries_identical(self):
        spec = SystemSpec(2, 2)
        M = build_square_matrix(spec)
        Mt = transform_12(M, spec)
        old = substitution_symbol(spec)
        changed = 0
        for i, (cols, _) in enumerate(M.row_entries):
            for j in cols:
                value = M.entry(i, j)
                if old in value.symbols():
                    changed += 1
                    continue
                assert j in Mt.row_entries[i][0]
                assert Mt.entry(i, j).render() == value.render()
        assert changed == 10  # one entry per derivative-of-f1 row

    def test_double_application_is_stable(self):
        spec = SystemSpec(1, 2)
        Mt = transform_12(build_square_matrix(spec), spec)
        Mtt = transform_12(Mt, spec)
        def rendered(M):
            return [{j: M.pool[x].render() for j, x in zip(*row)}
                    for row in M.row_entries]
        assert rendered(Mt) == rendered(Mtt)

    def test_replaced_symbol_is_gone(self):
        spec = SystemSpec(2, 3)
        Mt = transform_12(build_square_matrix(spec), spec)
        assert substitution_symbol(spec) not in Mt.symbols()


class TestEliminate:
    def test_degree_one_transversal(self):
        spec = SystemSpec(1, 1)
        Mt, cert = certify(spec)
        pairing = {r.poly: c for step in cert.steps
                   for r, c in zip(step.deleted_rows, step.deleted_cols)}
        assert pairing == {
            "f1'": YMonomial(0, 0, 1),
            "f2'": YMonomial(0, 1, 0),
            "f1": YMonomial(1, 0, 0),
            "f2": YM_ONE,
        }
        assert cert.counts == (1, 1, 1, 1)
        assert abs(cert.coefficient) == 1

    def test_reference_exponents_degree_two(self):
        spec = SystemSpec(2, 2)
        Mt, cert = certify(spec)
        assert cert.counts == (10, 10, 10, 6)
        exponents = dict(cert.unique_monomial)
        assert exponents == {
            CoeffSymbol("a", 0, 2, 0): 10,
            CoeffSymbol("b", 0, 2, 1): 10,
            CoeffSymbol("a", 2, 0, 0): 10,
            CoeffSymbol("b", 0, 0, 0): 6,
        }

    def test_succeeds_across_specs(self):
        for d in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
            Mt, cert = certify(SystemSpec(*d))
            assert sum(cert.counts) == SystemSpec(*d).N
            assert cert.coefficient != 0
            assert abs(cert.coefficient) == Fraction(d[0]) ** cert.counts[0]

    def test_step_column_sets_match_closed_forms(self):
        spec = SystemSpec(2, 3)
        Mt, cert = certify(spec)
        m1, m2, t1, t2 = closed_form_sets(spec)
        d1, d2 = spec.d1, spec.d2
        expected = [
            t1.scaled(YMonomial(d1, 0, 0)).as_set(),
            m1.scaled(YMonomial(0, d1 - 1, 1)).as_set(),
            t2.as_set(),
            m2.scaled(YMonomial(0, d2, 0)).as_set(),
        ]
        for step, cols in zip(cert.steps, expected):
            assert set(step.deleted_cols) == cols
        # disjoint and exhaustive
        union = set()
        for step in cert.steps:
            assert union.isdisjoint(step.deleted_cols)
            union |= set(step.deleted_cols)
        assert union == column_set(spec).as_set()

    def test_elimination_requires_transform_first(self):
        spec = SystemSpec(2, 2)
        M = build_square_matrix(spec)
        # without the substitution, the first step symbol still occurs in the
        # derivative rows, which the disjointness scan must catch
        with pytest.raises(CertificateFailure) as info:
            eliminate(M, spec)
        assert str(info.value) == ("step symbol a(2,0) leaks into row "
                                   "y1^3*f1' at column y*y1^4")

    def test_a_rectangular_matrix_is_refused(self):
        with pytest.raises(CertificateFailure, match="80x56, not square"):
            eliminate(build_carra_ferro(2, 2, 1, 1), SystemSpec(2, 2))

    def test_an_absent_step_symbol_is_refused(self):
        spec = SystemSpec(2, 2)
        sym = step_symbols(spec)[0][0]
        Mt = transform_12(build_square_matrix(spec), spec).substitute({sym: 0})
        with pytest.raises(CertificateFailure,
                           match=re.escape(f"{sym} occurs 0 times")):
            eliminate(Mt, spec)

    def test_a_step_symbol_entering_nonlinearly_is_refused(self):
        spec = SystemSpec(2, 2)
        sym = step_symbols(spec)[0][0]
        square = SymPoly.symbol(sym) * SymPoly.symbol(sym)
        Mt = transform_12(build_square_matrix(spec), spec).substitute({sym: square})
        with pytest.raises(CertificateFailure,
                           match=re.escape(f"{sym} does not enter entry (")
                           + r".*\) linearly"):
            eliminate(Mt, spec)

    def test_two_rows_on_one_column_are_refused(self):
        spec = SystemSpec(1, 1)
        sym = step_symbols(spec)[0][0]
        rows = [RowLabel(F1, YM_ONE), RowLabel(F1, YMonomial(1, 0, 0))]
        x = SymPoly.symbol(sym)
        matrix = matrix_from_grid([[x, SymPoly.one()], [x, SymPoly.zero()]], rows)
        with pytest.raises(CertificateFailure,
                           match=re.escape(f"{sym} repeats a column inside its block")):
            eliminate(matrix, spec)

    def test_rows_outside_the_four_blocks_are_refused(self):
        matrix = matrix_from_grid([[SymPoly.one()]], [RowLabel("p1", YM_ONE)])
        with pytest.raises(CertificateFailure,
                           match="1 rows / 1 columns remain after the four steps"):
            eliminate(matrix, SystemSpec(1, 1))

    def test_unit_multipliers_are_degree_factors(self):
        spec = SystemSpec(3, 3)
        Mt, cert = certify(spec)
        step2 = cert.steps[1]
        assert set(step2.unit_coefficients) == {Fraction(3)}
        assert cert.sign * cert.coefficient == Fraction(3) ** cert.counts[0]


class TestRankingCrossCheck:
    def test_ranking_specialization_isolates_unique_monomial(self):
        for d in ((1, 1), (1, 2), (2, 2)):
            spec = SystemSpec(*d)
            Mt, cert = certify(spec)
            s = ranking_specialization(spec)
            value = det_specialized(Mt, s)
            assert value != 0

    def test_unique_coefficient_agrees_with_full_expansion(self):
        # the 4x4 case is small enough to expand symbolically
        from diffres import det_symbolic
        spec = SystemSpec(1, 1)
        Mt, cert = certify(spec)
        full = det_symbolic(Mt)
        assert full.coefficient(cert.unique_monomial) == cert.coefficient


class TestRearrangedMatrices:
    def test_divisibility_partition_matrix_certifies(self):
        spec = SystemSpec(2, 2)
        part = partition_divisibility(column_set(spec),
                                      default_main_monomials(spec))
        rearranged = build_sparse_matrix(part, spec)
        Mt = transform_12(rearranged, spec)
        cert = eliminate(Mt, spec)
        assert cert.counts == (10, 10, 10, 6)

    def test_lp_partition_matrix_certifies(self):
        spec = SystemSpec(2, 2)
        result = grc_partition(spec)
        raw = build_sparse_matrix(result.partition, spec)
        Mt = transform_12(raw, spec)
        cert = eliminate(Mt, spec)
        assert sum(cert.counts) == 36
        assert cert.coefficient != 0
