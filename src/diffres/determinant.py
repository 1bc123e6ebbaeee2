"""Exact determinants and specialization generators.

Three evaluation modes, all exact:

* symbolic: fraction-free elimination over the polynomial ring, for small
  matrices only (every division is checked by the exact-division routine, so
  a pivot-logic bug surfaces as NotDivisible instead of a wrong answer);
* specialized: rational entries are scaled to integers row by row and
  eliminated fraction-free with machine-unbounded Python integers;
* modular: residues modulo a list of primes, recombined by the Chinese
  remainder theorem when the modulus product beats the Hadamard bound.

The common-zero generator solves the four constant coefficients so that the
system and its derivatives all vanish at a chosen rational point, which
forces the specialized determinant to vanish exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, gcd, isqrt, lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapExceeded
from .diffsys import SystemSpec, delta, generic_system, system_symbols
from .matrices import PolyMatrix
from .symbols import CoeffSymbol
from .sympoly import Specialization, SymPoly

SYMBOLIC_CAP_DEFAULT = 8
SIGN_NOTE = ("value tied to the canonical decreasing column order and the "
             "block row order; claims hold up to global sign")


def det_symbolic(matrix: PolyMatrix, cap: int = SYMBOLIC_CAP_DEFAULT) -> SymPoly:
    """Fraction-free determinant over the polynomial ring."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n > cap:
        raise CapExceeded(f"symbolic determinant capped at {cap}x{cap}, got {n}")
    grid = [[matrix.entry(i, j) for j in range(n)] for i in range(n)]
    return _bareiss_poly(grid)


def _bareiss_poly(grid: List[List[SymPoly]]) -> SymPoly:
    n = len(grid)
    if n == 0:
        return SymPoly.one()
    sign = 1
    prev = SymPoly.one()
    for k in range(n - 1):
        # sparsest nonzero pivot anywhere in the live block
        pivot = None
        for i in range(k, n):
            for j in range(k, n):
                if not grid[i][j].is_zero():
                    if pivot is None or len(grid[i][j]) < len(grid[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            return SymPoly.zero()
        pi, pj = pivot
        if pi != k:
            grid[pi], grid[k] = grid[k], grid[pi]
            sign = -sign
        if pj != k:
            for row in grid:
                row[pj], row[k] = row[k], row[pj]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                value = grid[k][k] * grid[i][j] - grid[i][k] * grid[k][j]
                grid[i][j] = value.exact_div(prev)
            grid[i][k] = SymPoly.zero()
        prev = grid[k][k]
    return grid[n - 1][n - 1] * sign


def det_laplace(grid: Sequence[Sequence[SymPoly]]) -> SymPoly:
    """Cofactor expansion with minor memoization; independent cross-check."""
    n = len(grid)
    cache: Dict[Tuple[int, Tuple[int, ...]], SymPoly] = {}

    def minor(row: int, cols: Tuple[int, ...]) -> SymPoly:
        if not cols:
            return SymPoly.one()
        key = (row, cols)
        if key in cache:
            return cache[key]
        total = SymPoly.zero()
        for pos, j in enumerate(cols):
            v = grid[row][j]
            if v.is_zero():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            term = v * sub
            total = total + (term if pos % 2 == 0 else -term)
        cache[key] = total
        return total

    return minor(0, tuple(range(n)))


def det_rational(rows: List[List[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix via integer Bareiss."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    grid: List[List[int]] = []
    for row in rows:
        denom = lcm(*(v.denominator for v in row)) if row else 1
        scale *= denom
        grid.append([int(v * denom) for v in row])
    return Fraction(_bareiss_int(grid), 1) / scale


def _bareiss_int(grid: List[List[int]]) -> int:
    n = len(grid)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if grid[k][k] == 0:
            for i in range(k + 1, n):
                if grid[i][k] != 0:
                    grid[i], grid[k] = grid[k], grid[i]
                    sign = -sign
                    break
            else:
                return 0  # live column is zero, so the determinant is too
        for i in range(k + 1, n):
            gik = grid[i][k]
            gkk = grid[k][k]
            row_i = grid[i]
            row_k = grid[k]
            for j in range(k + 1, n):
                row_i[j] = (gkk * row_i[j] - gik * row_k[j]) // prev
            row_i[k] = 0
        prev = grid[k][k]
    return sign * grid[n - 1][n - 1]


def det_specialized(matrix: PolyMatrix, s: Specialization) -> Fraction:
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    return det_rational(matrix.specialize(s))


def _det_mod(rows: List[List[int]], p: int) -> int:
    n = len(rows)
    grid = [[v % p for v in row] for row in rows]
    det = 1
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if grid[i][k] % p:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != k:
            grid[pivot_row], grid[k] = grid[k], grid[pivot_row]
            det = -det
        piv = grid[k][k]
        det = det * piv % p
        inv = pow(piv, -1, p)
        for i in range(k + 1, n):
            factor = grid[i][k] * inv % p
            if factor:
                row_i = grid[i]
                row_k = grid[k]
                for j in range(k, n):
                    row_i[j] = (row_i[j] - factor * row_k[j]) % p
    return det % p


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n below 3.3e24; ValueError above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large to certify as a prime")
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def det_modular(matrix: PolyMatrix, s: Specialization,
                moduli: Sequence[int]) -> List[int]:
    """Residues of the specialized determinant modulo primes; requires
    integer entries (the elimination divides, so each modulus must be prime)."""
    for p in moduli:
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not a prime")
    dense = matrix.specialize(s)
    for row in dense:
        for v in row:
            if v.denominator != 1:
                raise ValueError("modular mode needs an integral specialization")
    int_rows = [[int(v) for v in row] for row in dense]
    return [_det_mod([row[:] for row in int_rows], p) for p in moduli]


def crt_combine(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Symmetric-range CRT lift of the residues."""
    value, modulus = 0, 1
    for r, p in zip(residues, moduli):
        g = gcd(modulus, p)
        if g != 1:
            raise ValueError("moduli must be pairwise coprime")
        inv = pow(modulus % p, -1, p)
        value = value + modulus * ((r - value) * inv % p)
        modulus *= p
    value %= modulus
    if value > modulus // 2:
        value -= modulus
    return value


def crt_lift(residues: Sequence[int], moduli: Sequence[int],
             bound: int) -> Optional[int]:
    """The integer of absolute value at most `bound` with these residues, or
    None when the moduli's product does not exceed twice the bound (the
    residues then do not determine it)."""
    if prod(moduli) <= 2 * bound:
        return None
    return crt_combine(residues, moduli)


def hadamard_bound(rows: List[List[Fraction]]) -> int:
    """Integer bound with |det| <= bound, rounding each |entry| up."""
    bound = 1
    for row in rows:
        norm_sq = sum(ceil(abs(v)) ** 2 for v in row)
        bound *= isqrt(norm_sq) + 1
    return bound


# --- specialization generators ---------------------------------------------

def random_specialization(spec: SystemSpec, rng_seed: int,
                          lo: int = -10 ** 6, hi: int = 10 ** 6,
                          include_fresh: bool = False) -> Specialization:
    rng = random.Random(rng_seed)
    universe = system_symbols(SystemSpec(*spec).validate(),
                              include_fresh=include_fresh)
    values = {s: Fraction(rng.randint(lo, hi))
              for s in sorted(universe, key=lambda s: s.key())}
    return Specialization(values, universe)


def common_zero_specialization(spec: SystemSpec,
                               point: Tuple[Fraction, Fraction, Fraction],
                               rng_seed: int = 0) -> Specialization:
    """Random assignment adjusted so the four polynomials share a zero.

    Each of the four constant-like symbols enters its polynomial linearly
    with unit coefficient, so solving them one at a time (base coefficients
    before derivative ones) lands the system exactly on the given point.
    """
    spec = SystemSpec(*spec).validate()
    point = tuple(Fraction(v) for v in point)
    rng = random.Random(rng_seed)
    universe = system_symbols(spec)
    values = {s: Fraction(rng.randint(-10 ** 6, 10 ** 6))
              for s in sorted(universe, key=lambda s: s.key())}

    f1, f2 = generic_system(spec)
    targets = [
        (f1, CoeffSymbol("a", 0, 0, 0)),
        (f2, CoeffSymbol("b", 0, 0, 0)),
        (delta(f1), CoeffSymbol("a", 0, 0, 1)),
        (delta(f2), CoeffSymbol("b", 0, 0, 1)),
    ]
    for poly, sym in targets:
        values[sym] = Fraction(0)
        residue = poly.evaluate_point(point).evaluate(values)
        values[sym] = -residue
    result = Specialization(values, universe)
    for poly, _ in targets:
        assert poly.evaluate_point(point).evaluate(result) == 0
    return result


def nonzero_random_probe(matrix: PolyMatrix, spec: SystemSpec, seed: int,
                         retries: int = 10,
                         include_fresh: bool = False) -> Tuple[bool, dict]:
    """Schwartz–Zippel style nonvanishing probe with a retry budget."""
    for attempt in range(retries):
        s = random_specialization(spec, seed + attempt,
                                  include_fresh=include_fresh)
        value = det_specialized(matrix, s)
        if value != 0:
            return True, {"seed": seed + attempt, "value": str(value)}
    return False, {"seed": seed, "retries": retries}
