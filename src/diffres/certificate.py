"""Nonsingularity certificate for the square matrix.

The certificate is produced in two stages.  First a substitution replaces
the one derivative symbol that shares an entry with the step-one symbol by a
fresh indeterminate minus d1 times that symbol, which cancels the overlap
and leaves every other entry byte-identical.  Then four elimination steps
peel off row blocks: at each step the designated symbol must occur in
exactly one remaining entry of each row of its block and nowhere else in the
remaining matrix.  The (row, column) pairs that the steps delete form a
transversal, and the product of the designated symbols raised to the block
sizes is a monomial that no other permutation of the determinant expansion
can produce.  Its coefficient in the determinant is the transversal's sign
times the linear factors with which each step symbol enters its entries,
+-d1^n1; the certificate carries the steps, the sign and that coefficient.
Any wrong occurrence count is a fatal CertificateFailure: the procedure is
a proof artifact, never downgraded to a warning.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Dict, List, NamedTuple, Tuple

from .errors import CertificateFailure
from .determinant import perm_sign
from .diffsys import SystemSpec, YMonomial, system_symbols, ym_render
from .matrices import DF1, DF2, F1, F2, PolyMatrix, RowLabel, build_square_matrix, per_tuple
from .symbols import CoeffSymbol
from .sympoly import Monomial, Specialization, SymPoly, mono_make


def substitution_symbol(spec: SystemSpec) -> CoeffSymbol:
    """The order-1 symbol replaced before elimination."""
    return CoeffSymbol("a", spec.d1 - 1, 1, 1)


def fresh_symbol(spec: SystemSpec) -> CoeffSymbol:
    return CoeffSymbol("a", spec.d1 - 1, 1, 0, fresh=True)


def step_symbols(spec: SystemSpec) -> List[Tuple[CoeffSymbol, str]]:
    """(symbol, row block) per elimination step, in execution order."""
    spec = SystemSpec(*spec).validate()
    return [
        (CoeffSymbol("a", spec.d1, 0, 0), F1),    # constant-in-derivative row coefficient of y^d1
        (CoeffSymbol("a", 0, spec.d1, 0), DF1),   # appears as d1 * symbol at the y2-columns
        (CoeffSymbol("b", 0, 0, 0), F2),          # constant coefficient
        (CoeffSymbol("b", 0, spec.d2, 1), DF2),   # derivative of the top coefficient
    ]


def transform_12(matrix: PolyMatrix, spec: SystemSpec) -> PolyMatrix:
    """Replace the overlap symbol by (fresh - d1 * step-one symbol).

    Idempotent in effect: once applied the replaced symbol is gone, so a
    second application changes nothing.
    """
    spec = SystemSpec(*spec).validate()
    old = substitution_symbol(spec)
    replacement = (SymPoly.symbol(fresh_symbol(spec))
                   - spec.d1 * SymPoly.symbol(step_symbols(spec)[0][0]))
    return matrix.substitute({old: replacement})


class CertStep(NamedTuple):
    symbol: CoeffSymbol
    block: str
    deleted_rows: Tuple[RowLabel, ...]
    deleted_cols: Tuple[YMonomial, ...]
    unit_coefficients: Tuple[Fraction, ...]   # factor of the symbol per entry


class Certificate(NamedTuple):
    steps: Tuple[CertStep, ...]
    unique_monomial: Monomial
    sign: int                          # sign of the transversal permutation
    counts: Tuple[int, int, int, int]  # (n1, n2, n3, n4) by row block df1, df2, f1, f2
    coefficient: Fraction              # of the unique monomial in det


def _symbol_occurrences(entry: SymPoly, sym: CoeffSymbol, sym_mono: Monomial):
    """(linear coefficient, clean) for one entry, `sym_mono` the monomial of
    sym alone; clean means the symbol only appears as that term."""
    clean = all(mono == sym_mono or all(s != sym for s, _ in mono)
                for mono, _ in entry.terms())
    return entry.coefficient(sym_mono), clean


def eliminate(matrix: PolyMatrix, spec: SystemSpec) -> Certificate:
    """Run the four elimination steps and emit the transversal.

    Works on any matrix whose rows are labeled multiples of the four
    polynomials: the standard block layout, or any rearranged partition
    with the same main monomials, which is what makes row moves between
    blocks machine-checkable.
    """
    spec = SystemSpec(*spec).validate()
    n = matrix.nrows
    if n != matrix.ncols:
        raise CertificateFailure(f"matrix is {matrix.nrows}x{matrix.ncols}, not square")

    row_entries = matrix.row_entries
    pool_symbols = [v.symbols() for v in matrix.pool]

    alive_rows = set(range(n))
    alive_cols = set(range(n))
    steps: List[CertStep] = []
    counts: List[int] = []
    perm: Dict[int, int] = {}

    for sym, block in step_symbols(spec):
        sym_mono = mono_make({sym: 1})
        # per distinct pool-index tuple, the positions whose entry holds sym
        at = per_tuple(row_entries, lambda xs: [
            k for k, x in enumerate(xs) if sym in pool_symbols[x]])
        block_rows = sorted(i for i in alive_rows
                            if matrix.rows[i].poly == block)
        pairs: List[Tuple[int, int]] = []
        units: List[Fraction] = []
        for i in block_rows:
            js, xs = row_entries[i]
            hits = [k for k in at[id(xs)] if js[k] in alive_cols]
            if len(hits) != 1:
                raise CertificateFailure(
                    f"step symbol {sym} occurs {len(hits)} times in row "
                    f"{matrix.rows[i].render()}, expected exactly once")
            j = js[hits[0]]
            unit, clean = _symbol_occurrences(matrix.pool[xs[hits[0]]], sym,
                                               sym_mono)
            if not clean or unit == 0:
                raise CertificateFailure(
                    f"step symbol {sym} does not enter entry "
                    f"({matrix.rows[i].render()}, {ym_render(matrix.cols[j])}) linearly")
            pairs.append((i, j))
            units.append(unit)
        # the symbol must be absent from every other remaining entry
        for i in alive_rows:
            if matrix.rows[i].poly == block:
                continue
            js, xs = row_entries[i]
            for j in (js[k] for k in at[id(xs)]):
                if j in alive_cols:
                    raise CertificateFailure(
                        f"step symbol {sym} leaks into row "
                        f"{matrix.rows[i].render()} at column "
                        f"{ym_render(matrix.cols[j])}")
        cols = [j for _, j in pairs]
        if len(set(cols)) != len(cols):
            raise CertificateFailure(
                f"step symbol {sym} repeats a column inside its block")
        for i, j in pairs:
            perm[i] = j
        alive_rows -= set(i for i, _ in pairs)
        alive_cols -= set(cols)
        counts.append(len(pairs))
        steps.append(CertStep(
            symbol=sym, block=block,
            deleted_rows=tuple(matrix.rows[i] for i, _ in pairs),
            deleted_cols=tuple(matrix.cols[j] for _, j in pairs),
            unit_coefficients=tuple(units)))

    if alive_rows or alive_cols:
        raise CertificateFailure(
            f"{len(alive_rows)} rows / {len(alive_cols)} columns remain after "
            "the four steps")

    unique = mono_make({sym: cnt for (sym, _), cnt
                        in zip(step_symbols(spec), counts)})
    sign = perm_sign(tuple(perm[i] for i in range(n)))
    by_block = dict(zip((F1, DF1, F2, DF2), counts))
    return Certificate(
        steps=tuple(steps),
        unique_monomial=unique,
        sign=sign,
        counts=(by_block[DF1], by_block[DF2], by_block[F1], by_block[F2]),
        coefficient=sign * prod(u for step in steps for u in step.unit_coefficients),
    )


def certify(spec: SystemSpec) -> Tuple[PolyMatrix, Certificate]:
    """Convenience pipeline: build the matrix, transform, eliminate."""
    spec = SystemSpec(*spec).validate()
    transformed = transform_12(build_square_matrix(spec), spec)
    return transformed, eliminate(transformed, spec)


RANKING_BASE = 10 ** 6


def ranking_specialization(spec: SystemSpec) -> Specialization:
    """Step symbols get t, t^2, t^3, t^4 for t = RANKING_BASE; every other
    symbol gets zero.

    Under this assignment the transformed matrix keeps exactly the entries
    that witness the transversal (plus lower-ranked strays), so a nonzero
    determinant isolates the unique monomial's contribution.
    """
    spec = SystemSpec(*spec).validate()
    values = {s: Fraction(0) for s in system_symbols(spec) | {fresh_symbol(spec)}}
    for power, (sym, _) in enumerate(step_symbols(spec), start=1):
        values[sym] = Fraction(RANKING_BASE) ** power
    return Specialization(values)
