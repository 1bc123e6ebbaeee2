"""Column sets, main monomials, and partition agreement."""

from math import comb

import pytest

from diffres import (MonomialSet, SystemSpec, YMonomial, bset,
                     closed_form_partition, closed_form_sets, column_set,
                     default_main_monomials, delta, generic_system,
                     multiplier_sizes, partition_divisibility)
from diffres.diffsys import YM_ONE, ym_div, ym_divides, ym_mul


class TestBset:
    def test_one_variable(self):
        assert bset(2, 2).elems == (YM_ONE, YMonomial(1, 0, 0), YMonomial(2, 0, 0))

    def test_two_variables_count(self):
        s = bset(3, 3)
        assert len(s) == 10
        assert YMonomial(0, 2, 0) in s and YMonomial(1, 1, 0) in s

    def test_degree_zero(self):
        assert bset(4, 0).elems == (YM_ONE,)

    def test_negative_bound_is_empty(self):
        assert len(bset(2, -1)) == 0

    def test_count_formulas(self):
        for j in range(6):
            assert len(bset(2, j)) == j + 1
            assert len(bset(3, j)) == (j + 1) * (j + 2) // 2
            assert len(bset(4, j)) == comb(j + 3, 3)

    def test_rejects_bad_alphabet(self):
        with pytest.raises(ValueError):
            bset(5, 1)

    def test_generated_in_order_equals_the_sorted_box(self):
        def reference(i, j):
            out = []
            for a in range(j + 1):
                for b in range(j - a + 1 if i >= 3 else 1):
                    for c in range(j - a - b + 1 if i == 4 else 1):
                        out.append(YMonomial(a, b, c))
            return MonomialSet.of(out, f"B{i}^{j}")
        for i in (2, 3, 4):
            for j in range(-1, 13):
                assert bset(i, j) == reference(i, j)


class TestColumnSet:
    def test_degree_one(self):
        E = column_set(SystemSpec(1, 1))
        assert E.elems == (YM_ONE, YMonomial(1, 0, 0), YMonomial(0, 1, 0),
                           YMonomial(0, 0, 1))

    def test_reference_count(self):
        assert len(column_set(SystemSpec(2, 2))) == 36
        assert len(column_set(SystemSpec(2, 3))) == 64

    def test_equals_the_box_union_its_y2_lift(self):
        for d1 in range(1, 7):
            for d2 in range(d1, 7):
                spec = SystemSpec(d1, d2)
                assert column_set(spec) == bset(3, spec.D).union(
                    bset(3, spec.D - 1).scaled(YMonomial(0, 0, 1)), "E")

    def test_y2_exponent_bounded(self):
        for spec in ((1, 2), (2, 2), (3, 4)):
            assert all(m.ey2 <= 1 for m in column_set(SystemSpec(*spec)))


class TestPartition:
    def test_degree_one_forced(self):
        spec = SystemSpec(1, 1)
        part = partition_divisibility(column_set(spec),
                                      default_main_monomials(spec))
        assert part.s1.elems == (YMonomial(0, 0, 1),)
        assert part.s2.elems == (YMonomial(0, 1, 0),)
        assert part.s3.elems == (YMonomial(1, 0, 0),)
        assert part.s4.elems == (YM_ONE,)

    def test_reference_shape_degree_two(self):
        spec = SystemSpec(2, 2)
        part = partition_divisibility(column_set(spec),
                                      default_main_monomials(spec))
        assert part.sizes() == (10, 10, 10, 6)
        y2y1 = YMonomial(0, 1, 1)
        s1_expected = bset(3, 3).scaled(y2y1).as_set()
        assert part.s1.as_set() == s1_expected
        s2_expected = bset(3, 3).scaled(YMonomial(0, 2, 0)).as_set()
        assert part.s2.as_set() == s2_expected
        s3_expected = (bset(2, 3)
                       .union(bset(2, 2).scaled(YMonomial(0, 1, 0)))
                       .union(bset(2, 2).scaled(YMonomial(0, 0, 1)))
                       .scaled(YMonomial(2, 0, 0))).as_set()
        assert part.s3.as_set() == s3_expected
        s4_expected = (bset(2, 1)
                       .union(bset(2, 1).scaled(YMonomial(0, 1, 0)))
                       .union(bset(2, 1).scaled(YMonomial(0, 0, 1)))).as_set()
        assert part.s4.as_set() == s4_expected

    def test_multiplier_sizes(self):
        assert multiplier_sizes(SystemSpec(2, 2)) == (10, 10, 10, 6)
        assert multiplier_sizes(SystemSpec(1, 1)) == (1, 1, 1, 1)

    def test_sizes_sum_to_matrix_size(self):
        for d1 in range(1, 7):
            for d2 in range(d1, 7):
                spec = SystemSpec(d1, d2)
                assert sum(multiplier_sizes(spec)) == spec.N

    def test_closed_forms_equal_divisibility_cascade(self):
        for d1 in range(1, 7):
            for d2 in range(d1, 7):
                spec = SystemSpec(d1, d2)
                div = partition_divisibility(column_set(spec),
                                             default_main_monomials(spec))
                closed = closed_form_partition(spec)
                for a, b in zip(div.sets(), closed.sets()):
                    assert a.as_set() == b.as_set(), (d1, d2, a.label)

    def test_membership_in_a_closed_form_block(self):
        spec = SystemSpec(2, 3)
        for block in closed_form_sets(spec):
            members = set(block.elems)
            for m in bset(3, spec.D):
                assert (m in block) == (m in members)
            assert all(m in block for m in block)
            assert YMonomial(spec.D + 1, 0, 0) not in block

    def test_validate_cover_detects_overlap(self):
        spec = SystemSpec(1, 1)
        E = column_set(spec)
        part = partition_divisibility(E, default_main_monomials(spec))
        bad = type(part)(part.s1, part.s1, part.s3, part.s4)
        with pytest.raises(ValueError):
            bad.validate_cover(E)


class TestClosure:
    def test_row_monomials_stay_inside_columns(self):
        # every multiple (m / mm_i) * p_i keeps its support inside the columns
        for d1, d2 in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
            spec = SystemSpec(d1, d2)
            f1, f2 = generic_system(spec)
            polys = (delta(f1), delta(f2), f1, f2)
            mm = default_main_monomials(spec).as_tuple()
            E = column_set(spec)
            cols = E.as_set()
            part = partition_divisibility(E, default_main_monomials(spec))
            for block, poly, main in zip(part.sets(), polys, mm):
                for monomial in block:
                    assert ym_divides(main, monomial)
                    mult = ym_div(monomial, main)
                    for m in poly.support_set():
                        assert ym_mul(m, mult) in cols, (d1, d2, monomial)
