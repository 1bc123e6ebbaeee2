"""Square and rectangular matrix builders."""

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from diffres import (ClosureViolation, CoeffSymbol,
                     Specialization, SymPoly, SystemSpec, YMonomial, bset,
                     build_carra_ferro, build_sparse_matrix,
                     build_square_matrix, certify, carra_ferro_shape,
                     closed_form_partition, column_set,
                     common_zero_specialization, grc_partition,
                     random_specialization, system_symbols, transform_12,
                     zero_columns)
from diffres.diffsys import YM_ONE, DiffPoly, generic_system, ym_mul
from diffres.matrices import DF1, DF2, F1, F2, RowLabel, _fill_rows, row_polys
from conftest import matrix_from_grid


def keys(M):
    """The (i, j) of every stored entry, in row-major order."""
    return [(i, j) for i, (cols, _) in enumerate(M.row_entries) for j in cols]


class TestSquareMatrix:
    def test_degree_one_layout(self):
        M = build_square_matrix(SystemSpec(1, 1))
        assert [r.poly for r in M.rows] == [DF1, DF2, F1, F2]
        assert all(r.mult == YM_ONE for r in M.rows)
        assert list(M.cols) == [YMonomial(0, 0, 1), YMonomial(0, 1, 0),
                                YMonomial(1, 0, 0), YM_ONE]
        f1_row = [M.entry(2, j).render() for j in range(4)]
        assert f1_row == ["0", "a(0,1)", "a(1,0)", "a(0,0)"]

    def test_reference_blocks(self):
        M = build_square_matrix(SystemSpec(2, 2))
        assert M.nrows == M.ncols == 36
        assert M.meta["block_counts"] == [10, 10, 10, 6]

    def test_sixteen_by_sixteen(self):
        M = build_square_matrix(SystemSpec(1, 2))
        assert M.nrows == M.ncols == 16

    def test_squareness_all_small_specs(self):
        for d1 in range(1, 7):
            for d2 in range(d1, 7):
                spec = SystemSpec(d1, d2)
                M = build_square_matrix(spec)
                assert M.nrows == M.ncols == spec.N

    def test_entries_rederive_from_row_polynomials(self):
        spec = SystemSpec(2, 3)
        M = build_square_matrix(spec)
        polys = row_polys(spec)
        for i, label in enumerate(M.rows):
            shifted = polys[label.poly] * DiffPoly({label.mult: SymPoly.one()})
            for j, col in enumerate(M.cols):
                assert M.entry(i, j) == shifted.coefficient(col)

    def test_entries_are_small_integer_linear_forms(self):
        for d1, d2 in ((1, 2), (2, 2), (3, 4)):
            M = build_square_matrix(SystemSpec(d1, d2))
            for i, j in keys(M):
                v = M.entry(i, j)
                assert v.total_degree() == 1
                for _, c in v.terms():
                    assert c.denominator == 1
                    assert abs(c) <= max(d1, d2)

    def test_block_column_coverage(self):
        # the derivative block alone already touches every column
        spec = SystemSpec(2, 2)
        M = build_square_matrix(spec)
        E = column_set(spec).as_set()
        df1_cols = set()
        for (i, j) in keys(M):
            if M.rows[i].poly == DF1:
                df1_cols.add(M.cols[j])
        assert df1_cols == E

    def test_f1_band_structure(self):
        # support of the f1 block equals the banded union of one-variable
        # boxes, a strict subset of the columns once y2 bands are counted
        spec = SystemSpec(2, 3)
        d1, D = spec.d1, spec.D
        M = build_square_matrix(spec)
        got = set()
        for (i, j) in keys(M):
            if M.rows[i].poly == F1:
                got.add(M.cols[j])
        expected = set()
        for k in range(d1 + spec.d2):
            expected |= bset(2, D - k).scaled(YMonomial(0, k, 0)).as_set()
        for k in range(2 * d1 - 1):
            expected |= bset(2, D - k - 1).scaled(YMonomial(0, k, 1)).as_set()
        assert got == expected
        assert got <= column_set(spec).as_set()


class TestCarraFerro:
    def test_reference_counterexample_shape(self):
        M = build_carra_ferro(2, 2, 1, 1)
        assert (M.nrows, M.ncols) == (80, 56)
        assert M.meta["D"] == 5
        assert M.meta["L1"] == M.meta["L2"] == 20

    def test_zero_column_is_exactly_top_power(self):
        M = build_carra_ferro(2, 2, 1, 1)
        assert zero_columns(M) == [YMonomial(0, 0, 5)]
        assert M.cols[0] == YMonomial(0, 0, 5)

    def test_degree_one_shape(self):
        shape = carra_ferro_shape(1, 1, 1, 1)
        assert shape["D"] == 1 and shape["L"] == 4
        M = build_carra_ferro(1, 1, 1, 1)
        assert (M.nrows, M.ncols) == (4, 4)

    def test_degree_one_matches_square_matrix_rows(self):
        cf = build_carra_ferro(1, 1, 1, 1)
        sq = build_square_matrix(SystemSpec(1, 1))
        # same four row polynomials, different block order
        def row_entries(M, i):
            return {j: M.entry(r, j) for (r, j) in keys(M) if r == i}

        cf_rows = {(r.poly.replace("p", "f"), r.mult): row_entries(cf, i)
                   for i, r in enumerate(cf.rows)}
        sq_rows = {(r.poly, r.mult): row_entries(sq, i)
                   for i, r in enumerate(sq.rows)}
        assert set(cf_rows) == set(sq_rows)
        for key in cf_rows:
            assert cf_rows[key] == sq_rows[key]

    def test_row_block_order(self):
        M = build_carra_ferro(2, 2, 1, 1)
        order = [r.poly for r in M.rows]
        assert order[:20] == ["p1'"] * 20
        assert order[20:40] == ["p1"] * 20
        assert order[40:60] == ["p2'"] * 20
        assert order[60:] == ["p2"] * 20

    def test_rejects_high_orders(self):
        with pytest.raises(ValueError):
            build_carra_ferro(2, 2, 2, 1)

    def test_zero_matrix_has_all_columns_zero(self):
        empty = matrix_from_grid([[SymPoly.zero(), SymPoly.zero()]])
        assert empty.rows == (RowLabel(F1, YM_ONE),) and not empty.pool
        assert zero_columns(empty) == [YM_ONE, YMonomial(1, 0, 0)]


class TestExports:
    def test_json_schema(self):
        M = build_square_matrix(SystemSpec(1, 1))
        data = M.to_json()
        assert data["shape"] == [4, 4]
        assert data["rows"][0] == {"poly": "f1'", "multiplier": [0, 0, 0]}
        assert data["cols"][0] == [0, 0, 1]
        assert all(isinstance(e[2], str) for e in data["entries"])
        json.dumps(data)  # must be serializable as-is

    def test_csv_export_after_specialization(self):
        spec = SystemSpec(1, 1)
        M = build_square_matrix(spec)
        universe = system_symbols(spec)
        s = Specialization({sym: Fraction(1) for sym in universe})
        text = M.to_csv(s)
        lines = text.strip().split("\n")
        assert lines[0].startswith("row,y^0*y1^0*y2^1")
        assert len(lines) == 5
        assert lines[3].split(",")[0] == "1*f1"


def test_polynomial_work_runs_once_per_pool_entry(monkeypatch):
    spec = SystemSpec(3, 3)
    M = build_square_matrix(spec)
    assert len(M.pool) < len(keys(M))
    for built in (M, build_carra_ferro(2, 3, 1, 1)):
        assert keys(built) == sorted(keys(built))
    calls = Counter()

    def count(name):
        method = getattr(SymPoly, name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(SymPoly, name, counted)

    count("render")
    count("substitute")
    M.to_json()
    assert calls["render"] == len(M.pool)
    transformed = transform_12(M, spec)
    assert calls["substitute"] == len(M.pool)
    assert len(transformed.pool) == len(M.pool)


@pytest.mark.parametrize("build, spec", [
    (lambda: build_square_matrix(SystemSpec(3, 3)), SystemSpec(3, 3)),
    (lambda: build_carra_ferro(2, 3, 1, 1), SystemSpec(2, 3)),
    (lambda: build_sparse_matrix(grc_partition(SystemSpec(2, 2)).partition,
                                 SystemSpec(2, 2)), SystemSpec(2, 2)),
], ids=["square_3_3", "carra_ferro_2_3", "sparse_2_2"])
def test_rows_equal_their_shifted_row_polynomial(build, spec):
    M = build()
    # the rectangular construction's p1, p2 are the square one's f1, f2
    polys = row_polys(spec)
    for label, row in zip(M.rows, M.row_entries):
        expected = {M.cols.index(ym_mul(m, label.mult)): c
                    for m, c in polys[label.poly.replace("p", "f")].items()}
        assert {j: M.pool[x] for j, x in zip(*row)} == expected
        assert list(row[0]) == sorted(row[0])


@pytest.mark.parametrize("build", [
    lambda: build_square_matrix(SystemSpec(2, 3)),
    lambda: build_sparse_matrix(grc_partition(SystemSpec(2, 2)).partition,
                                SystemSpec(2, 2)),
    lambda: build_carra_ferro(2, 3, 1, 1),
], ids=["square_2_3", "sparse_2_2", "carra_ferro_2_3"])
def test_rows_of_one_polynomial_share_one_pool_index_tuple(build):
    M = build()
    shared = {}
    for label, (cols, xs) in zip(M.rows, M.row_entries):
        assert type(cols) is tuple and type(xs) is tuple
        assert len(cols) == len(xs)
        assert shared.setdefault(label.poly, xs) is xs
    assert len({id(xs) for xs in shared.values()}) == len(shared) >= 4


def test_substitute_zeroing_one_pool_polynomial_keeps_the_row_form():
    M = build_square_matrix(SystemSpec(2, 2))
    sym = CoeffSymbol("a", 0, 0, 1)
    Ms = M.substitute({sym: 0})
    gone = [x for x, v in enumerate(M.pool) if v.substitute({sym: 0}).is_zero()]
    assert gone == [M.pool.index(SymPoly.symbol(sym))]
    assert len(Ms.pool) == len(M.pool) - 1
    dropped = 0
    for (cols, xs), (new_cols, new_xs) in zip(M.row_entries, Ms.row_entries):
        kept = [(j, M.pool[x]) for j, x in zip(cols, xs) if x not in gone]
        dropped += len(cols) - len(kept)
        assert [(j, Ms.pool[y]) for j, y in zip(new_cols, new_xs)] == kept
        assert list(new_cols) == sorted(set(new_cols))
    assert dropped == M.meta["block_counts"][0]   # one entry per f1' row
    for rows in (M.row_entries, Ms.row_entries):
        tuples = {}
        for label, (_, xs) in zip(M.rows, rows):
            assert tuples.setdefault(label.poly, xs) is xs


def test_entry_is_zero_off_the_stored_columns():
    x, y = SymPoly.symbol(CoeffSymbol("a", 0, 0)), SymPoly.symbol(CoeffSymbol("b", 0, 0))
    zero = SymPoly.zero()
    M = matrix_from_grid([[zero, x, zero, zero, y, zero]])
    assert M.row_entries == [((1, 4), (0, 1))]
    assert [M.entry(0, j) for j in range(6)] == [zero, x, zero, zero, y, zero]
    square = build_square_matrix(SystemSpec(2, 2))
    cols, _ = square.row_entries[1]
    assert cols[0] > 0 and cols[-1] < square.ncols - 1
    gap = next(j for j in range(cols[0], cols[-1]) if j not in cols)
    for j in (0, gap, square.ncols - 1):
        assert square.entry(1, j).is_zero()


@pytest.mark.parametrize("d1, d2", [(d1, d2) for d2 in range(1, 5)
                                    for d1 in range(1, d2 + 1)])
def test_closed_form_partition_rebuilds_the_square_matrix_row_for_row(d1, d2):
    spec = SystemSpec(d1, d2)
    square = build_square_matrix(spec)
    sparse = build_sparse_matrix(closed_form_partition(spec), spec)
    assert sparse.rows == square.rows
    assert sparse.cols == square.cols
    assert sparse.row_entries == square.row_entries
    assert [v.render() for v in sparse.pool] == [v.render() for v in square.pool]
    assert sparse.meta.pop("provenance") == "ClosedForm"
    assert {**sparse.meta, "kind": "square"} == square.meta


def test_fill_outside_the_column_set_names_the_monomial():
    f1, _ = generic_system(SystemSpec(1, 1))
    y2 = YMonomial(0, 0, 1)
    # y2 * f1 reaches y1*y2, y*y2 and y2; leave out only y*y2
    cols = [YMonomial(0, 1, 1), y2]
    with pytest.raises(ClosureViolation, match=r"y\*y2 outside the column set"):
        _fill_rows([(RowLabel(F1, y2), f1)], cols)


def test_fill_outside_the_column_set_takes_no_column_by_a_carry():
    # y2 * y2 = y2^2 is outside; packed in base 2, one above the largest
    # column exponent, it would carry into y1, which is a column
    y2 = YMonomial(0, 0, 1)
    with pytest.raises(ClosureViolation, match=r"y2\^2 outside the column set"):
        _fill_rows([(RowLabel(F1, y2), DiffPoly({y2: SymPoly.const(1)}))],
                   [YMonomial(0, 1, 0), y2])


def test_substitute_drops_exactly_the_vanishing_entries():
    spec = SystemSpec(2, 2)
    M = build_square_matrix(spec)
    sym = CoeffSymbol("a", 0, 0, 0)
    Ms = M.substitute({sym: 0})
    images = {(i, j): M.entry(i, j).substitute({sym: 0}) for i, j in keys(M)}
    kept = [k for k, v in images.items() if not v.is_zero()]
    assert keys(Ms) == kept
    assert len(kept) < len(images)
    assert all(Ms.entry(i, j) == images[i, j] for i, j in kept)
    assert all(v for v in Ms.pool)
    universe = system_symbols(spec)
    rng = Random(7)
    values = {s: Fraction(rng.randint(-9, 9)) for s in universe}
    values[sym] = Fraction(0)
    s = Specialization(values)
    assert Ms.specialize(s) == M.specialize(s)


# --- specialization in ints --------------------------------------------------

def assert_specializes_entrywise(M, s):
    """`M.specialize(s)`, int rows over one denominator, against
    `SymPoly.evaluate` of each entry, and the denominator the least one."""
    rows, den = M.specialize(s)
    assert den > 0 and all(type(v) is int for row in rows for v in row.values())
    assert [{j: Fraction(v, den) for j, v in row.items()} for row in rows] == \
        [{j: v for j, x in zip(*row) if (v := M.pool[x].evaluate(s))}
         for row in M.row_entries]
    assert gcd(den, *(v for row in rows for v in row.values())) == 1


@lru_cache(maxsize=None)
def _specialized_matrix(kind, d):
    spec = SystemSpec(*d)
    if kind == "sparse":
        return build_sparse_matrix(grc_partition(spec).partition, spec)
    if kind == "transform_12":
        return certify(spec)[0]
    return build_square_matrix(spec)


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(["square", "sparse", "transform_12"]),
       d=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]),
       values=st.sampled_from(["random", "common-zero", "fractional"]),
       seed=st.integers(0, 2 ** 62))
def test_int_rows_are_the_evaluated_entries(kind, d, values, seed):
    """Random, common-zero and fractional specializations of the square,
    sparse (GRC partition, at (2,2) only) and transformed matrices; a
    symbol no generator draws (the fresh one of `transform_12`) gets a
    fraction."""
    if kind == "sparse":
        d = (2, 2)
    M = _specialized_matrix(kind, d)
    rng = Random(seed)
    if values == "random":
        table = dict(random_specialization(d, seed).items())
    elif values == "common-zero":
        point = (_fraction(rng), _fraction(rng), _fraction(rng))
        table = dict(common_zero_specialization(d, point, rng_seed=seed).items())
    else:
        table = {}
    for sym in sorted(M.symbols() - table.keys()):
        table[sym] = _fraction(rng)
    assert_specializes_entrywise(M, Specialization(table))


_SYMS = [CoeffSymbol("a", 0, 0), CoeffSymbol("b", 1, 0), CoeffSymbol("a", 0, 1, 1)]
_TERMS = st.tuples(st.tuples(*[st.integers(0, 3)] * 3),
                   st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 6])))


@settings(deadline=None, max_examples=200)
@given(grid=st.lists(st.lists(st.lists(_TERMS, max_size=3), min_size=3, max_size=3),
                     min_size=1, max_size=3),
       values=st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
                       min_size=3, max_size=3))
def test_higher_degrees_and_fractional_coefficients(grid, values):
    """Pool entries of degree up to 9 with fractional coefficients and
    constants: each scales by L^t and the coefficients' lcm."""
    polys = [[sum((c * SymPoly.symbol(_SYMS[0]) ** a * SymPoly.symbol(_SYMS[1]) ** b
                   * SymPoly.symbol(_SYMS[2]) ** e for (a, b, e), c in terms),
                  SymPoly.zero()) for terms in row] for row in grid]
    M = matrix_from_grid(polys)
    assert M.cols == tuple(YMonomial(k, 0, 0) for k in range(3))
    assert_specializes_entrywise(M, Specialization(dict(zip(_SYMS, values))))
