"""The benchmark's own arithmetic, used to check the program's outputs.

Nothing here imports `diffres`: every expected value is recomputed from the
paper's definitions (column sets, vertex lists, binomial shapes) or by
textbook algorithms (elimination modulo a prime, Leibniz expansion), so a
wrong output of the program cannot also be the benchmark's expectation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations
from math import comb
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Term = Tuple[Fraction, Tuple[Tuple[str, int], ...]]

# Two primes for the residue check of random determinants.
PRIMES = (2 ** 61 - 1, 2 ** 31 - 1)


class CheckFailed(Exception):
    """An op's output contradicts the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- exact determinants ------------------------------------------------------

def det_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant modulo the prime p by Gaussian elimination over F_p."""
    grid = [[v % p for v in row] for row in rows]
    n = len(grid)
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if grid[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            grid[k], grid[pivot] = grid[pivot], grid[k]
            det = -det
        row_k = grid[k]
        det = det * row_k[k] % p
        inv = pow(row_k[k], -1, p)
        for i in range(k + 1, n):
            factor = grid[i][k] * inv % p
            if factor:
                grid[i] = [(a - factor * b) % p
                           for a, b in zip(grid[i], row_k)]
    return det % p


def leibniz_det(grid: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant as the signed sum over all permutations (small n only)."""
    n = len(grid)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        product = Fraction(1)
        for row, col in enumerate(perm):
            product *= grid[row][col]
            if not product:
                break
        total += -product if inversions % 2 else product
    return total


def residue(value: Fraction, p: int) -> int:
    return value.numerator % p * pow(value.denominator % p, -1, p) % p


# --- polynomial text (the program's canonical rendering) ---------------------

_FACTOR = re.compile(r"^([abc]\(\d+,\d+\)'*)(?:\^(\d+))?$")
_RATIONAL = re.compile(r"^\d+(?:/\d+)?$")


def parse_poly(text: str) -> List[Term]:
    """Terms of a rendered polynomial: '3/2*a(0,1)^2*b(1,0)' - 'a(0,0)' ..."""
    text = text.strip()
    if text == "0":
        return []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if op == "+" else -1 for op in pieces[1::2]]
    terms: List[Term] = []
    for s, body in zip(signs, pieces[0::2]):
        coeff = Fraction(s)
        factors: Dict[str, int] = {}
        for part in body.split("*"):
            if _RATIONAL.match(part):
                coeff *= Fraction(part)
                continue
            m = _FACTOR.match(part)
            if m is None:
                raise CheckFailed(f"cannot parse factor {part!r}")
            exp = int(m.group(2) or 1)
            factors[m.group(1)] = factors.get(m.group(1), 0) + exp
        terms.append((coeff, tuple(sorted(factors.items()))))
    return terms


def eval_poly(terms: Iterable[Term], values: Mapping[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for coeff, factors in terms:
        v = coeff
        for name, exp in factors:
            v *= values[name] ** exp
        total += v
    return total


def eval_poly_mod(terms: Iterable[Term], values: Mapping[str, int], p: int) -> int:
    total = 0
    for coeff, factors in terms:
        v = residue(coeff, p)
        for name, exp in factors:
            v = v * pow(values[name], exp, p) % p
        total += v
    return total % p


def term_degree(term: Term) -> int:
    return sum(exp for _, exp in term[1])


# --- paper quantities --------------------------------------------------------

def square_size(d1: int, d2: int) -> int:
    return 4 * (d1 + d2 - 1) ** 2


def column_set(d1: int, d2: int) -> set:
    """Degree <= D monomials in (y, y1) plus y2 times degree <= D-1 ones."""
    D = 2 * d1 + 2 * d2 - 3
    cols = {(a, b, 0) for a in range(D + 1) for b in range(D + 1 - a)}
    cols |= {(a, b, 1) for a in range(D) for b in range(D - a)}
    return cols


def main_monomials(d1: int, d2: int) -> Tuple[Tuple[int, int, int], ...]:
    """Main monomials of df1, df2, f1, f2, in block order."""
    return ((0, d1 - 1, 1), (0, d2, 0), (d1, 0, 0), (0, 0, 0))


def divisibility_partition(d1: int, d2: int) -> List[set]:
    """First main monomial (among the first three) that divides wins."""
    blocks: List[set] = [set(), set(), set(), set()]
    mms = main_monomials(d1, d2)[:3]
    for m in column_set(d1, d2):
        for idx, mm in enumerate(mms):
            if all(a <= b for a, b in zip(mm, m)):
                blocks[idx].add(m)
                break
        else:
            blocks[3].add(m)
    return blocks


def carra_ferro_shape(d1: int, d2: int) -> Tuple[int, int]:
    """(rows, columns) of the rectangular construction with n = m = 1."""
    D = 1 + 2 * (d1 - 1) + 2 * (d2 - 1)
    L1, L2 = comb(D - d1 + 3, 3), comb(D - d2 + 3, 3)
    return 2 * L1 + 2 * L2, comb(D + 3, 3)


def vertex_lists(d1: int, d2: int) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """Vertex lists of the four Newton polytopes in LP-variable order."""
    def derived(d):
        return ((0, 0, 0), (0, 0, 1), (0, d - 1, 1), (0, d, 0),
                (d - 1, 0, 1), (d, 0, 0))

    def base(d):
        return ((0, 0, 0), (0, d, 0), (d, 0, 0))

    return (derived(d1), derived(d2), base(d1), base(d2))


# lambda index (1-based, within the block) of each block's main monomial
TARGET_VERTEX = {1: 3, 2: 4, 3: 3, 4: 1}


def check_decomposition(d1: int, d2: int, point: Sequence[int],
                        delta: Sequence[Fraction], heights: Sequence[Sequence[int]],
                        case: int, lam: Sequence[Fraction],
                        objective: Fraction) -> None:
    """A.lam = b, lam >= 0, the case block on its target vertex, c.lam = objective."""
    lists = vertex_lists(d1, d2)
    columns = [v for verts in lists for v in verts]
    expect(len(lam) == len(columns), f"{point}: lambda has {len(lam)} entries")
    expect(all(v >= 0 for v in lam), f"{point}: negative lambda")
    for axis in range(3):
        lhs = sum(v[axis] * x for v, x in zip(columns, lam))
        expect(lhs == point[axis] - delta[axis],
               f"{point}: axis {axis} sums to {lhs}")
    offset = 0
    for block, verts in enumerate(lists, start=1):
        chunk = lam[offset:offset + len(verts)]
        expect(sum(chunk) == 1, f"{point}: block {block} sums to {sum(chunk)}")
        if block == case:
            target = TARGET_VERTEX[case] - 1
            expect(all(x == (1 if k == target else 0) for k, x in enumerate(chunk)),
                   f"{point}: block {case} is not on its target vertex")
        offset += len(verts)
    costs = [sum(h * x for h, x in zip(heights[block], v))
             for block, verts in enumerate(lists) for v in verts]
    cost = sum(c * x for c, x in zip(costs, lam))
    expect(cost == objective, f"{point}: c.lam = {cost}, reported {objective}")


# --- the degree-(1,1) system, written out by hand ----------------------------

SYMBOLS_1_1 = tuple(f"{s}({k},{l}){p}" for s in "ab"
                    for k, l in ((0, 0), (1, 0), (0, 1)) for p in ("", "'"))


def matrix_1_1(v: Mapping[str, Fraction]) -> List[List[Fraction]]:
    """The 4x4 matrix at (1,1): rows df1, df2, f1, f2; columns y2, y1, y, 1.

    f = c(0,0) + c(1,0) y + c(0,1) y1 and
    df = c(0,0)' + c(1,0)' y + (c(1,0) + c(0,1)') y1 + c(0,1) y2.
    """
    def derived(s):
        return [v[f"{s}(0,1)"], v[f"{s}(1,0)"] + v[f"{s}(0,1)'"],
                v[f"{s}(1,0)'"], v[f"{s}(0,0)'"]]

    def base(s):
        return [Fraction(0), v[f"{s}(0,1)"], v[f"{s}(1,0)"], v[f"{s}(0,0)"]]

    return [derived("a"), derived("b"), base("a"), base("b")]


def common_zero_1_1(v: Dict[str, Fraction],
                    point: Sequence[Fraction]) -> Dict[str, Fraction]:
    """Adjust the constant coefficients so f1, f2, df1, df2 vanish at point."""
    y, y1, y2 = point
    out = dict(v)
    for s in "ab":
        out[f"{s}(0,0)"] = -(out[f"{s}(1,0)"] * y + out[f"{s}(0,1)"] * y1)
        out[f"{s}(0,0)'"] = -(out[f"{s}(1,0)'"] * y
                              + (out[f"{s}(1,0)"] + out[f"{s}(0,1)'"]) * y1
                              + out[f"{s}(0,1)"] * y2)
    return out
