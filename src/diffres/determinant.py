"""Exact determinants and specialization generators.

* symbolic: cofactor expansion with memoized minors (`det_laplace`) over
  the polynomial ring, for small matrices only (the cap); it needs no
  division, and each minor of the trailing rows is expanded once, so the
  16x16 matrix at (1,2) takes seconds;
* specialized and modular: one sparse elimination with Markowitz (1957)
  pivots, `_eliminate`, given a row update per ring, which also keeps the
  column -> rows index: over Z, in ints from `PolyMatrix.specialize` (int
  rows over one denominator, no Fraction per entry) to the last pivot,
  each changed row divided by its content and its factor kept as a pair of
  ints, one Fraction made at the return (the exact value); and over F_p
  (the residues, recombined by the Chinese remainder theorem when the
  modulus product beats twice the Hadamard bound).  The square matrix is
  sparse (density 0.15 at (2,3), 0.13 at (3,3)), and choosing the entry of
  least fill-in cost keeps it so; only the rows that hold the pivot column
  change.  Over Z, as in sparse direct solvers, the pivot order is
  analyzed once per matrix and replayed on each specialization: it is the
  pivots of one elimination modulo 2^61 - 1 at a fixed point, which sees
  the cancellations every specialization shares; from the first planned
  pivot that is zero (a common zero, a symbol set to 0) the search takes
  over.  Over F_p the first prime searches and each next one replays the
  pivots of the one before, so a one-shot call pays for no analysis.

A specialization solved for a common zero (`Specialization.zero`) needs no
elimination: the rows are monomial multiples of f1, f2, f1' and f2', so the
vector v of the column monomials at the point is a kernel vector of the
specialized matrix, and v != 0 since the monomial 1 is a column.
`kernel_certifies` checks M v = 0 on the int rows, one dot product per
row (the rows' common denominator cannot turn a nonzero product into 0),
and `det_specialized` returns 0 only on that proof; a zero that fails it
costs that pass and the same int rows are eliminated.

The cofactor expansion works over any ring: the oracle runs it on Sylvester
matrices of differential polynomials, and the tests check the sparse
kernels against it.

The common-zero generator solves the four constant coefficients so that the
system and its derivatives all vanish at a chosen rational point, which
forces the specialized determinant to vanish exactly, and records the point
as the specialization's `zero`.  It solves in integers,
on integer linear forms of the four polynomials made once per spec, each
solved coefficient one fraction over the point's common denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapExceeded
from .diffsys import YM_ONE, SystemSpec, YMonomial, system_symbols
from .matrices import DF1, DF2, F1, F2, PolyMatrix, row_polys
from .symbols import CoeffSymbol
from .sympoly import Specialization, SymPoly, parse_rational

SYMBOLIC_CAP_DEFAULT = 8
SIGN_NOTE = ("value tied to the canonical decreasing column order and the "
             "block row order; claims hold up to global sign")


def det_symbolic(matrix: PolyMatrix, cap: int = SYMBOLIC_CAP_DEFAULT) -> SymPoly:
    """The determinant over the polynomial ring, by `det_laplace`."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n > cap:
        raise CapExceeded(f"symbolic determinant capped at {cap}x{cap}, got {n}")
    return det_laplace([[matrix.entry(i, j) for j in range(n)] for i in range(n)])


def det_laplace(grid: Sequence[Sequence]):
    """Cofactor expansion along the rows, each minor expanded once (memoized
    by its first row and its columns).

    Works over any commutative ring whose elements have +, -, *, is_zero()
    and a static zero() (SymPoly and DiffPoly); the empty grid gives one.
    """
    n = len(grid)
    if n == 0:
        return SymPoly.one()
    zero = type(grid[0][0]).zero()
    cache: Dict[Tuple[int, Tuple[int, ...]], object] = {}

    def minor(row: int, cols: Tuple[int, ...]):
        if len(cols) == 1:
            return grid[row][cols[0]]
        key = (row, cols)
        if key in cache:
            return cache[key]
        total = zero
        for pos, j in enumerate(cols):
            v = grid[row][j]
            if v.is_zero():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            if sub.is_zero():
                continue
            term = v * sub
            total = total + (term if pos % 2 == 0 else -term)
        cache[key] = total
        return total

    return minor(0, tuple(range(n)))


def _det_scaled(rows: Sequence[Dict[int, int]], denom: int,
                order: Sequence[Tuple[int, int]] = ()) -> Fraction:
    """Exact determinant of rows / denom, a square matrix of sparse int
    rows, {column: value} each, nonzero values only (the elimination takes
    them over), replaying `order`.  The caller guarantees n = len(rows)
    rows with columns in range(n): a tall or zero-padded wide matrix reads
    as square and gives 0.

    Each row is divided by its content, and a pair of ints per row,
    num / den in lowest terms, records what the content, denom and the
    scalings took out; the one Fraction, made at the return, is the signed
    product of pivot * num over the product of den.  The row update is
    row_i <- (pv/g) row_i - (gik/g) row_k, g = gcd(pv, gik), then
    content-divided."""
    live: Dict[int, Dict[int, int]] = {}
    num: List[int] = []     # row i's factor is num[i] / den[i], two ints
    den: List[int] = []
    for i, row in enumerate(rows):
        content = gcd(*row.values())
        live[i] = {j: v // content for j, v in row.items()} if content > 1 else row
        g = gcd(content, denom)
        num.append(content // g)
        den.append(denom // g)

    def update(i, row_i, gik, pv, row_k, cols):
        g = gcd(pv, gik)
        a, b = pv // g, gik // g
        if a != 1:
            for j in row_i:
                row_i[j] *= a
        for j, v in row_k.items():
            if x := row_i.get(j, 0) - b * v:
                row_i[j] = x
                cols[j].add(i)      # a no-op unless j is a fill-in
            else:
                del row_i[j]
                cols[j].discard(i)
        content = gcd(*row_i.values())
        if content > 1:
            for j in row_i:
                row_i[j] //= content
        if a != 1 or content > 1:
            # content / a is in lowest terms (row_k is primitive): cross-reduce
            g1, g2 = gcd(num[i], a), gcd(content, den[i])
            num[i] = num[i] // g1 * (content // g2)
            den[i] = den[i] // g2 * (a // g1)

    pivots, sign = _eliminate(live, order, update)
    return Fraction(sign * prod(pv * num[k] for k, _, pv in pivots),
                    prod(den[k] for k, _, _ in pivots))


def _det_residue(rows: Sequence[Dict[int, int]], p: int,
                 order: Sequence[Tuple[int, int]] = ()) -> Tuple[int, list]:
    """The determinant modulo the prime p of a square matrix of sparse rows
    with integer values (ints or integral Fractions), shaped as for
    `_det_scaled`, replaying `order`; the row update is
    row_i <- row_i - (gik / pv mod p) row_k.  Returns the residue and the
    pivots taken, (row, column) each."""
    live = {i: {j: r for j, v in row.items() if (r := v.numerator % p)}
            for i, row in enumerate(rows)}
    inverse = lru_cache(maxsize=None)(lambda v: pow(v, -1, p))   # once per pivot

    def update(i, row_i, gik, pv, row_k, cols):
        f = gik * inverse(pv) % p
        for j, v in row_k.items():
            if x := (row_i.get(j, 0) - f * v) % p:
                row_i[j] = x
                cols[j].add(i)
            else:
                del row_i[j]
                cols[j].discard(i)

    pivots, sign = _eliminate(live, order, update)
    return (sign * prod(pv for _, _, pv in pivots) % p,
            [(k, j) for k, j, _ in pivots])


def _eliminate(live: Dict[int, Dict[int, int]], order: Sequence[Tuple[int, int]],
               update: Callable) -> Tuple[List[Tuple[int, int, int]], int]:
    """Sparse elimination of the square matrix `live`, {i: {j: v}} with
    nonzero values, over the ring of the row update.

    The pivots replay `order`, a list of (row, column), while each planned
    entry is live; from the first miss on, `_markowitz_pivot` picks them.
    Only the rows holding the pivot column change, each by
    ``update(i, row_i, gik, pv, row_k, cols)``, which folds row_k (pivot pv
    removed) into row_i (entry gik removed), drops what it cancels and
    keeps the column -> rows index: i joins cols[j] on a fill-in at j,
    leaves it on a cancellation.
    Returns the pivots (row, column, value) and the sign of the permutation
    they form, 0 when a row or column runs empty (the pivots stop there).
    """
    cols: Dict[int, set] = {j: set() for j in range(len(live))}
    for i, row in live.items():
        if not row.keys() <= cols.keys():
            raise ValueError("determinant of a non-square matrix")
        for j in row:
            cols[j].add(i)
    pivots: List[Tuple[int, int, int]] = []
    if not all(live.values()):
        return pivots, 0
    planned = iter(order)
    while live:
        k, pj = next(planned, (None, None))
        if pj not in live.get(k, ()):
            planned = iter(())
            pivot = _markowitz_pivot(live, cols)
            if pivot is None:
                return pivots, 0
            k, pj = pivot
        row_k = live.pop(k)
        pv = row_k.pop(pj)
        for j in row_k:
            cols[j].discard(k)
        targets = cols.pop(pj)
        targets.discard(k)
        pivots.append((k, pj, pv))
        for i in targets:
            row_i = live[i]
            update(i, row_i, row_i.pop(pj), pv, row_k, cols)
            if not row_i:
                return pivots, 0
    return pivots, (perm_sign([k for k, _, _ in pivots])
                    * perm_sign([j for _, j, _ in pivots]))


def _markowitz_pivot(live: Dict[int, Dict[int, int]],
                     cols: Dict[int, set]) -> Optional[Tuple[int, int]]:
    """The (row, column) of least Markowitz cost (r - 1)(c - 1), r and c the
    nonzeros in its row and column, ties going to the first found (rows by
    length, entries in row order); None when a column is empty."""
    least_col = min(len(s) for s in cols.values()) - 1
    if least_col < 0:
        return None
    best = None
    for i in sorted(live, key=lambda i: len(live[i])):
        r = len(live[i]) - 1
        if best is not None and r * least_col >= best[0]:
            break
        for j in live[i]:
            cost = r * (len(cols[j]) - 1)
            if best is None or cost < best[0]:
                best = (cost, i, j)
    return best[1:]


_PLAN_PRIME = 2 ** 61 - 1


@lru_cache(maxsize=16)
def _pivot_order(matrix: PolyMatrix) -> Tuple[Tuple[int, int], ...]:
    """The pivots of one elimination of the matrix modulo _PLAN_PRIME at a
    fixed point, one draw of `random.Random(0)` per symbol in sorted order;
    it stops where a row or column runs empty."""
    rng = random.Random(0)
    point = Specialization({x: Fraction(rng.randrange(1, _PLAN_PRIME))
                            for x in sorted(matrix.symbols())})
    rows, _ = matrix.specialize(point)
    return tuple(_det_residue(rows, _PLAN_PRIME)[1])


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of range(n): (-1) ** (n - number of cycles)."""
    cycles, seen = 0, [False] * len(perm)
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


def det_specialized(matrix: PolyMatrix, s: Specialization) -> Fraction:
    """The exact determinant of the matrix at `s`: 0 when `s.zero` is set
    and `kernel_certifies` proves it on the specialized int rows, else
    their elimination, replaying the matrix's analyzed pivot order."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows, den = matrix.specialize(s)
    if s.zero is not None and kernel_certifies(rows, matrix.cols, s.zero):
        return Fraction(0)
    return _det_scaled(rows, den, _pivot_order(matrix))


def _weights(point: Sequence[Fraction], tops: Sequence[int]) -> List[List[int]]:
    """Per coordinate n/q of top exponent t, the ints n^k q^(t-k), k = 0..t:
    a monomial y^a y1^b y2^c at the point, times the product of the q^t, is
    the product of the a-th, b-th and c-th of them."""
    return [[v.numerator ** k * v.denominator ** (t - k) for k in range(t + 1)]
            for v, t in zip(point, tops)]


def kernel_certifies(rows: Sequence[Dict[int, int]],
                     cols: Sequence[YMonomial],
                     point: Sequence[Fraction]) -> bool:
    """True when the rows, sparse over the columns `cols`, vanish on v, the
    column monomials at `point`, and v != 0: the constant monomial is a
    column.  Then the columns are dependent and a square matrix has
    determinant 0; False proves nothing.

    One dot product per row, in ints on the int rows of
    `PolyMatrix.specialize` (their denominator does not change which
    products vanish; Fraction rows work too): v scaled by the product of
    the coordinates' denominators to the top exponents."""
    if YM_ONE not in cols:
        return False
    tops = [max(c[k] for c in cols) for k in range(3)]
    wy, wy1, wy2 = _weights(list(map(parse_rational, point)), tops)
    v = [wy[a] * wy1[b] * wy2[c] for a, b, c in cols]
    return not any(sum(map(mul, row.values(), map(v.__getitem__, row)))
                   for row in rows)


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


class ModularDet(NamedTuple):
    residues: List[int]         # one per modulus, in the given order
    bound: int                  # Hadamard bound of the specialized int rows
    value: Optional[int]        # the CRT lift, None when the moduli fall short


def det_modular(matrix: PolyMatrix, s: Specialization,
                moduli: Sequence[int]) -> ModularDet:
    """The specialized determinant modulo primes, and its CRT lift when the
    product of the moduli exceeds twice the Hadamard bound (the residues
    then determine it); requires integer entries (the elimination divides,
    so each modulus must be prime, and none repeated)."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows, den = matrix.specialize(s)
    for k, p in enumerate(moduli):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not a prime")
        if p in moduli[:k]:
            raise ValueError(f"modulus {p} is repeated")
    if den != 1:
        raise ValueError("modular mode needs an integral specialization")
    residues, order = [], ()
    for p in moduli:    # the first prime searches, the others replay
        residue, order = _det_residue(rows, p, order)
        residues.append(residue)
    bound = hadamard_bound(rows)
    value = crt_combine(residues, moduli) if prod(moduli) > 2 * bound else None
    return ModularDet(residues, bound, value)


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


def hadamard_bound(rows: Sequence[Dict[int, int]]) -> int:
    """Integer bound on |det| of sparse int rows."""
    bound = 1
    for row in rows:
        norm_sq = sum(abs(v) ** 2 for v in row.values())
        bound *= isqrt(norm_sq) + 1
    return bound


# --- specialization generators ---------------------------------------------

RANDOM_RANGE = 10 ** 6   # random values are drawn from [-RANDOM_RANGE, RANDOM_RANGE]


def random_specialization(spec: SystemSpec, rng_seed: int) -> Specialization:
    rng = random.Random(rng_seed)
    symbols = sorted(system_symbols(SystemSpec(*spec).validate()))
    return Specialization({s: Fraction(rng.randint(-RANDOM_RANGE, RANDOM_RANGE))
                           for s in symbols})


@lru_cache(maxsize=16)
def _integer_forms(spec: SystemSpec) -> tuple:
    """The symbols in draw order; per row polynomial, in solving order, the
    constant symbol that enters it once, at 1, and the polynomial as an
    integer form ((y-monomial, ((int, symbol), ...)), ...), y-monomial 1 last
    so a form at a solution adds its one fraction last; the top exponents."""
    universe = tuple(sorted(system_symbols(spec)))
    polys = row_polys(spec)
    forms = tuple(
        (CoeffSymbol(name, 0, 0, order),
         tuple((m, tuple((int(c), s) for ((s, _),), c in coeff.terms()))
               for m, coeff in sorted(polys[tag].items(), reverse=True)))
        for tag, name, order in ((F1, "a", 0), (F2, "b", 0), (DF1, "a", 1), (DF2, "b", 1)))
    tops = tuple(max(m[v] for _, form in forms for m, _ in form) for v in range(3))
    return universe, forms, tops


def common_zero_specialization(spec: SystemSpec,
                               point: Tuple[Fraction, Fraction, Fraction],
                               rng_seed: int = 0) -> Specialization:
    """Random assignment adjusted so the four polynomials share a zero.

    Each of the four constant-like symbols enters its polynomial linearly
    with unit coefficient, so solving them one at a time (base coefficients
    before derivative ones) lands the system exactly on the given point,
    which the result carries as its `zero`.
    """
    spec = SystemSpec(*spec).validate()
    point = tuple(map(parse_rational, point))
    rng = random.Random(rng_seed)
    universe, forms, tops = _integer_forms(spec)
    values = {s: rng.randint(-RANDOM_RANGE, RANDOM_RANGE) for s in universe}
    wy, wy1, wy2 = _weights(point, tops)

    def scaled(form):   # the form's value at the point times wy[0] wy1[0] wy2[0]
        return sum(wy[a] * wy1[b] * wy2[c] * sum(k * values[s] for k, s in terms)
                   for (a, b, c), terms in form)

    for sym, form in forms:
        values[sym] = 0
        values[sym] = Fraction(-scaled(form), wy[0] * wy1[0] * wy2[0])
    assert all(scaled(form) == 0 for _, form in forms)
    return Specialization(values, zero=point)


PROBE_RETRIES = 10


def nonzero_random_probe(matrix: PolyMatrix, spec: SystemSpec,
                         seed: int) -> Tuple[bool, dict]:
    """Schwartz–Zippel style nonvanishing probe: seeds seed, seed + 1, ...,
    PROBE_RETRIES of them."""
    for attempt in range(PROBE_RETRIES):
        value = det_specialized(matrix, random_specialization(spec, seed + attempt))
        if value != 0:
            return True, {"seed": seed + attempt, "value": str(value)}
    return False, {"seed": seed, "retries": PROBE_RETRIES}
