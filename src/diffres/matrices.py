"""Macaulay-style square matrices and the larger rectangular construction.

Rows are monomial multiples of the four polynomials (derivatives included);
columns are the monomials of the chosen column set in decreasing canonical
order.  Entries are stored sparsely and every stored entry is nonzero, so a
row re-derives exactly from its label and generating polynomial.

The square matrix has one assembly, `_block_matrix`, fed two ways: the
closed-form multiplier sets (`build_square_matrix`) or a four-block
partition of the column set divided by the main monomials
(`build_sparse_matrix`, the sparse-resultant route).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import (Collection, Dict, List, Mapping, NamedTuple, Sequence,
                    Tuple)

from .errors import ClosureViolation
from .diffsys import (DiffPoly, SystemSpec, YMonomial, delta, generic_poly,
                      generic_system, ym_csv_name, ym_div, ym_divides, ym_key,
                      ym_render)
from .monomials import (Partition, closed_form_sets, column_set,
                        default_main_monomials)
from .output import dumps, json_list
from .sympoly import Specialization, SymPoly, mono_degree

# Row polynomial tags for the square construction; derivatives carry primes.
DF1, DF2, F1, F2 = "f1'", "f2'", "f1", "f2"
SQUARE_BLOCK_ORDER = (DF1, DF2, F1, F2)


class RowLabel(NamedTuple):
    poly: str          # "f1", "f1'", "p2", "p2''", ...
    mult: YMonomial    # the row is mult * (the named polynomial)

    def render(self) -> str:
        return f"{ym_render(self.mult)}*{self.poly}"


# (column indices, pool indices) of a PolyMatrix row
Row = Tuple[Tuple[int, ...], Tuple[int, ...]]


class PolyMatrix:
    """Labeled sparse matrix with polynomial entries and fixed orderings.

    `row_entries[i]` is a pair (columns, pool indices): the row's column
    indices, increasing, and as many indices into `pool`, the nonzero entry
    polynomials, one per shared object.  All rows of one row polynomial
    share one pool-index tuple object, so per-polynomial work (evaluation,
    substitution, symbol scans, rendering) runs once per pool polynomial
    or per distinct tuple, not once per entry.
    """

    __slots__ = ("rows", "cols", "pool", "row_entries", "meta")

    def __init__(self, rows: Sequence[RowLabel], cols: Sequence[YMonomial],
                 pool: Sequence[SymPoly], row_entries: Sequence[Row],
                 meta: dict | None = None):
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.pool = tuple(pool)
        self.row_entries = list(row_entries)
        self.meta = dict(meta or {})

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def entry(self, i: int, j: int) -> SymPoly:
        cols, xs = self.row_entries[i]
        k = bisect_left(cols, j)
        return self.pool[xs[k]] if k < len(cols) and cols[k] == j else SymPoly.zero()

    def symbols(self) -> set:
        return set().union(*(v.symbols() for v in self.pool))

    def substitute(self, mapping) -> "PolyMatrix":
        images = [v.substitute(mapping) for v in self.pool]
        row_entries = self.row_entries
        if not all(images):   # drop the entries of the vanishing polynomials
            reindex = {x: y for y, x in enumerate(x for x, w in enumerate(images) if w)}
            kept = per_tuple(row_entries, lambda xs: (
                [k for k, x in enumerate(xs) if x in reindex],
                tuple(reindex[x] for x in xs if x in reindex)))
            row_entries = [(tuple([cols[k] for k in keep]), ys)
                           for cols, xs in row_entries for keep, ys in [kept[id(xs)]]]
        return PolyMatrix(self.rows, self.cols, [w for w in images if w],
                          row_entries, self.meta)

    def specialize(self, s: Specialization) -> Tuple[List[Dict[int, int]], int]:
        """The specialized rows in ints, {j: value} each, nonzero values
        only, and their least common denominator den: entry (i, j) is
        rows[i][j] / den.  The values of `s` are read as ints over L, the
        lcm of their denominators, and each pool polynomial is one int dot
        product over its `_int_forms`."""
        syms, top, scale, forms = _int_forms(self)
        values = [s[x] for x in syms]
        L = lcm(*(v.denominator for v in values))
        n = {x: v.numerator * (L // v.denominator) for x, v in zip(syms, values)}
        n[None] = L
        pool = [sum(c * prod(map(n.__getitem__, f)) for c, f in form)
                for form in forms]
        den = scale * L ** top
        if (g := gcd(den, *pool)) > 1:
            den, pool = den // g, [v // g for v in pool]
        by_tuple = per_tuple(self.row_entries, lambda xs: [pool[x] for x in xs])
        rows = [dict(zip(cols, by_tuple[id(xs)])) for cols, xs in self.row_entries]
        if 0 in pool:   # drop the entries of a polynomial that vanishes at s
            rows = [{j: v for j, v in row.items() if v} for row in rows]
        return rows, den

    def row_label_map(self) -> Dict[RowLabel, Dict[YMonomial, SymPoly]]:
        """Row content keyed by label, for order-insensitive comparison."""
        return {label: {self.cols[j]: self.pool[x] for j, x in zip(*row)}
                for label, row in zip(self.rows, self.row_entries)}

    def _json_head(self) -> dict:
        """The keys of `to_json` that come before "rows"."""
        return {
            "shape": [self.nrows, self.ncols],
            "meta": {k: v for k, v in self.meta.items()
                     if isinstance(v, (str, int, list, tuple))},
        }

    def to_json(self) -> dict:
        texts = [v.render() for v in self.pool]
        return {**self._json_head(),
                "rows": [{"poly": r.poly, "multiplier": list(r.mult)}
                         for r in self.rows],
                "cols": [list(c) for c in self.cols],
                "entries": [[i, j, texts[x]] for i, row in enumerate(self.row_entries)
                            for j, x in zip(*row)]}

    def json_pieces(self, extra: dict) -> List[str]:
        """`dumps({**self.to_json(), **extra})`, byte for byte, as a list of
        pieces, with no string of the whole document: only the short keys go
        through `dumps`, "rows" and "cols" take one f-string per item, and
        "entries" one string per matrix row, one join of a list filled by
        slice assignment with each column index formatted once and each
        pool-index tuple's entry tails (the polynomials' text) made once."""
        head = dumps(self._json_head())[:-2]  # less the closing "\n}"
        tail = "," + dumps(extra)[1:] if extra else "\n}"
        polys = {p: dumps(p) for p in {r.poly for r in self.rows}}
        rows = [f'    {{\n      "poly": {polys[p]},\n      "multiplier": [\n'
                f'        {a},\n        {b},\n        {c}\n      ]\n    }}'
                for p, (a, b, c) in self.rows]
        cols = [f"    [\n      {a},\n      {b},\n      {c}\n    ]"
                for a, b, c in self.cols]
        js = [str(j) for j in range(self.ncols)]
        tails = [f",\n      {dumps(v.render())}\n    ]" for v in self.pool]
        row_tails = per_tuple(self.row_entries, lambda xs: [tails[x] for x in xs])
        entries = []
        for i, (columns, xs) in enumerate(self.row_entries):
            if columns:
                lead = f"    [\n      {i},\n      "
                parts = [",\n" + lead] * (3 * len(columns))
                parts[0] = lead
                parts[1::3] = [js[j] for j in columns]
                parts[2::3] = row_tails[id(xs)]
                entries.append("".join(parts))
        return [head, ',\n  "rows": ', *json_list(rows),
                ',\n  "cols": ', *json_list(cols),
                ',\n  "entries": ', *json_list(entries), tail]

    def to_csv(self, s: Specialization) -> str:
        header = ["row"] + [ym_csv_name(c) for c in self.cols]
        lines = [",".join(header)]
        rows, den = self.specialize(s)
        for label, row in zip(self.rows, rows):
            texts = {j: str(Fraction(v, den)) for j, v in row.items()}
            dense = [texts.get(j, "0") for j in range(self.ncols)]
            lines.append(",".join([label.render()] + dense))
        return "\n".join(lines) + "\n"


def per_tuple(row_entries: Sequence[Row], fn) -> dict:
    """`fn` of each distinct pool-index tuple of the rows, keyed by its id:
    work made once per row polynomial, not once per row."""
    distinct = {id(xs): xs for _, xs in row_entries}
    return {k: fn(xs) for k, xs in distinct.items()}


@lru_cache(maxsize=16)
def _int_forms(matrix: PolyMatrix) -> tuple:
    """The pool as int forms, made once per matrix: the symbols; t, the top
    degree of a term; C, the lcm of the coefficients' denominators; per
    polynomial, per term, C times its coefficient and its factors, the
    symbols with multiplicity and None up to t.  With each value n/L read
    as n and None as L, a form sums to C L^t times the polynomial's value."""
    terms = [t for p in matrix.pool for t in p.terms()]
    top = max((mono_degree(m) for m, _ in terms), default=0)
    scale = lcm(*(c.denominator for _, c in terms))
    factors = {m: tuple(s for s, e in m for _ in range(e)) +
               (None,) * (top - mono_degree(m)) for m, _ in terms}
    forms = tuple(tuple((int(c * scale), factors[m]) for m, c in p.terms())
                  for p in matrix.pool)
    return tuple(sorted({s for m in factors for s, _ in m})), top, scale, forms


def _distinct(values) -> Tuple[List[SymPoly], Dict[int, int]]:
    """The distinct nonzero objects among `values`, and id -> index among them."""
    distinct = {id(v): v for v in values if v}
    return list(distinct.values()), {k: x for x, k in enumerate(distinct)}


def _fill_rows(row_plan: Sequence[Tuple[RowLabel, DiffPoly]],
               cols: Sequence[YMonomial]) -> Tuple[List[SymPoly], List[Row]]:
    """A pool of the row polynomials' coefficient objects, and per row its
    (columns, pool indices).  Each polynomial's pool indices are one tuple,
    shared by all its rows; a row is one comprehension of column lookups.
    `cols` descend in `ym_key`, a monomial order, so taking each
    polynomial's terms in that order gives every row increasing columns.

    Columns are found by packed exponents (e*B + e1)*B + e2, with the base B
    above every exponent of a column and of a term times a multiplier: the
    packing is then linear and one-to-one, so a row's keys are its
    multiplier's key plus each term's, and no monomial outside the column
    set lands on a column by a carry."""
    polys = {id(poly): poly for _, poly in row_plan}.values()
    top_term = max((max(m) for poly in polys for m, _ in poly.items()), default=0)
    top_mult = max((max(label.mult) for label, _ in row_plan), default=0)
    base = max([top_term + top_mult, *map(max, cols)]) + 1

    def pack(m: YMonomial) -> int:
        return (m[0] * base + m[1]) * base + m[2]

    col_index = {pack(c): j for j, c in enumerate(cols)}
    pool, index = _distinct(c for poly in polys for _, c in poly.items())
    terms = {}  # per polynomial: its terms' packed keys, and their pool indices
    for poly in polys:
        ordered = sorted(poly.items(), key=lambda t: ym_key(t[0]), reverse=True)
        terms[id(poly)] = (tuple(pack(m) for m, _ in ordered),
                           tuple(index[id(c)] for _, c in ordered))
    row_entries = []
    for label, poly in row_plan:
        shift = pack(label.mult)
        keys, xs = terms[id(poly)]
        try:
            row_entries.append((tuple([col_index[k + shift] for k in keys]), xs))
        except KeyError as exc:
            e, rest = divmod(exc.args[0], base * base)
            outside = YMonomial(e, *divmod(rest, base))
            raise ClosureViolation(
                f"row {label.render()} produces {ym_render(outside)} "
                "outside the column set") from None
    return pool, row_entries


def row_polys(spec: SystemSpec) -> Dict[str, DiffPoly]:
    """The four row polynomials of the square matrix, by block tag."""
    f1, f2 = generic_system(spec)
    return {DF1: delta(f1), DF2: delta(f2), F1: f1, F2: f2}


def _block_matrix(spec: SystemSpec,
                  multipliers: Mapping[str, Collection[YMonomial]],
                  meta: dict) -> PolyMatrix:
    """The square matrix whose rows are, block by block in SQUARE_BLOCK_ORDER,
    each multiplier in decreasing canonical order times the block's row
    polynomial; columns: the column set in decreasing canonical order."""
    polys = row_polys(spec)
    row_plan = [(RowLabel(tag, mult), polys[tag]) for tag in SQUARE_BLOCK_ORDER
                for mult in sorted(multipliers[tag], key=ym_key, reverse=True)]
    cols = column_set(spec).elems[::-1]
    pool, row_entries = _fill_rows(row_plan, cols)
    block_counts = [len(multipliers[tag]) for tag in SQUARE_BLOCK_ORDER]
    matrix = PolyMatrix([r for r, _ in row_plan], cols, pool, row_entries,
                        meta={**meta, "block_counts": block_counts})
    assert matrix.nrows == matrix.ncols == spec.N
    return matrix


def build_square_matrix(spec: SystemSpec) -> PolyMatrix:
    """The square matrix whose determinant the construction certifies.

    Block rows: multiplier sets from the closed forms times (df1, df2, f1, f2).
    """
    spec = SystemSpec(*spec).validate()
    multipliers = dict(zip(SQUARE_BLOCK_ORDER, closed_form_sets(spec)))
    return _block_matrix(spec, multipliers,
                         {"kind": "square", "spec": [spec.d1, spec.d2]})


def build_sparse_matrix(part: Partition, spec: SystemSpec) -> PolyMatrix:
    """Square matrix with one row per column monomial, per the partition.

    The row for a monomial in block i is (monomial / mm_i) times the block's
    polynomial; closure into the column set is enforced entry by entry.
    """
    spec = SystemSpec(*spec).validate()
    multipliers = {}
    for tag, mm, block in zip(SQUARE_BLOCK_ORDER,
                              default_main_monomials(spec).as_tuple(), part.sets()):
        for monomial in block:
            if not ym_divides(mm, monomial):
                raise ClosureViolation(
                    f"main monomial of {tag} does not divide {ym_render(monomial)}")
        multipliers[tag] = [ym_div(monomial, mm) for monomial in block]
    return _block_matrix(spec, multipliers,
                         {"kind": "sparse", "spec": [spec.d1, spec.d2],
                          "provenance": part.provenance})


def carra_ferro_shape(d1: int, d2: int, n: int, m: int) -> dict:
    """Row/column counts of the rectangular construction."""
    from math import comb
    D = 1 + (n + 1) * (d1 - 1) + (m + 1) * (d2 - 1)
    v = m + n + 1
    L = comb(v + D, v)
    L1 = comb(v + D - d1, v)
    L2 = comb(v + D - d2, v)
    return {"D": D, "L": L, "L1": L1, "L2": L2,
            "rows": (n + 1) * L1 + (m + 1) * L2}


def build_carra_ferro(d1: int, d2: int, n: int, m: int) -> PolyMatrix:
    """Rectangular matrix of all derivative rows over the full degree-D box.

    The first polynomial has order m and degree d1 and receives derivatives
    up to order n; the second has order n and degree d2 and receives
    derivatives up to order m.  The alphabet (y, y1, y2) stops at y2 and
    the generic polynomials have order <= 1, so each order is 0 or 1.
    """
    if min(d1, d2) < 1:
        raise ValueError("degrees must be >= 1")
    if not {n, m} <= {0, 1}:
        raise ValueError(f"orders must be 0 or 1, got n = {n}, m = {m}")
    from .monomials import bset

    shape = carra_ferro_shape(d1, d2, n, m)
    D = shape["D"]
    var_count = m + n + 1  # monomials live in bset(var_count + 1, .)

    p1 = generic_poly("a", d1, m)
    p2 = generic_poly("b", d2, n)

    cols = bset(var_count + 1, D).elems[::-1]
    mult1 = bset(var_count + 1, D - d1).elems[::-1]
    mult2 = bset(var_count + 1, D - d2).elems[::-1]

    row_plan: List[Tuple[RowLabel, DiffPoly]] = []
    for name, p, top, mults in (("p1", p1, n, mult1), ("p2", p2, m, mult2)):
        for level in range(top, -1, -1):
            tag, poly = name + "'" * level, delta(p) if level else p
            row_plan.extend((RowLabel(tag, mult), poly) for mult in mults)

    pool, row_entries = _fill_rows(row_plan, cols)
    matrix = PolyMatrix([r for r, _ in row_plan], cols, pool, row_entries,
                        meta={"kind": "carra-ferro",
                              "params": [d1, d2, n, m], **shape})
    assert matrix.nrows == shape["rows"] and matrix.ncols == shape["L"]
    return matrix


def zero_columns(matrix: PolyMatrix) -> List[YMonomial]:
    hit = set().union(*(cols for cols, _ in matrix.row_entries))
    return [c for j, c in enumerate(matrix.cols) if j not in hit]
