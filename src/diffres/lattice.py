"""The LP point system of the sparse-resultant route: the lattice points of
a perturbed Minkowski sum, decided exactly by LP feasibility instead of any
convex-hull geometry, and the certified basis catalog.

The constraint matrix depends only on the degrees, b(q) only on the point
and the perturbation, and the costs only on the liftings.  So the point
system and the sorted lattice points are built once per (spec,
perturbation) and kept by `scanned`, an `lru_cache` of the 16 latest
pairs, keyed by the validated `SystemSpec` and the perturbation as a tuple
of Fractions; `lattice_points`, `sparse.grc_partition` and the
`basis-certification` check read it, with `costs` for the liftings.  All of
it is in integers (b(q) scaled by the lcm D of the perturbation's
denominators).  Each catalog basis carries (p, adj) with B adj = p I, and
per basic variable a form a.q + k whose value at q is p D x_B.  Only the
sum's bounding box, shifted by delta, is scanned.  A point is decided by
the Farkas vectors found so far, then by the first catalog basis feasible
there, which the scan keeps per point with x_B and lambda, then by the
phase-one bases found so far, with phase one only when none decides.
Every verdict rests on a certificate checked exactly when it was made.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import lcm
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CertificateFailure, InvalidPerturbation
from . import lp
from .diffsys import SystemSpec
from .monomials import MonomialSet, column_set

Point = Tuple[int, int, int]

DEFAULT_PERTURBATION: Tuple[Fraction, Fraction, Fraction] = (
    Fraction(1, 100), Fraction(1, 100), Fraction(1, 100))


def vertex_lists(spec: SystemSpec) -> Tuple[Tuple[Point, ...], ...]:
    """The four vertex lists in the order that fixes the LP columns.

    Degenerate coincidences for d1 = 1 are kept: the list length is what the
    LP's 18 columns are built from.
    """
    spec = SystemSpec(*spec).validate()
    d1, d2 = spec.d1, spec.d2
    v1 = ((0, 0, 0), (0, 0, 1), (0, d1 - 1, 1), (0, d1, 0), (d1 - 1, 0, 1), (d1, 0, 0))
    v2 = ((0, 0, 0), (0, 0, 1), (0, d2 - 1, 1), (0, d2, 0), (d2 - 1, 0, 1), (d2, 0, 0))
    v3 = ((0, 0, 0), (0, d1, 0), (d1, 0, 0))
    v4 = ((0, 0, 0), (0, d2, 0), (d2, 0, 0))
    return (v1, v2, v3, v4)


BLOCK_SIZES = (6, 6, 3, 3)
TARGET_VERTEX = {1: 3, 2: 4, 3: 3, 4: 1}   # lambda index of the main monomial


def var_index(i: int, j: int) -> int:
    return sum(BLOCK_SIZES[:i - 1]) + (j - 1)


def _constraint_matrix(spec: SystemSpec) -> List[List[int]]:
    cols = [v for verts in vertex_lists(spec) for v in verts]
    rows = [[v[axis] for v in cols] for axis in range(3)]
    for i in range(1, 5):
        offset = var_index(i, 1)
        rows.append([int(offset <= j < offset + BLOCK_SIZES[i - 1])
                     for j in range(len(cols))])
    return rows


def costs(vertices: Tuple[Tuple[Point, ...], ...],
          lift: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The lifting heights of the 18 vertex columns, from `vertex_lists`."""
    return tuple(sum(map(mul, vec, v))
                 for vec, verts in zip(lift, vertices) for v in verts)


def check_perturbation(delta_vec: Sequence[Fraction]) -> None:
    # no int lies in (0, 1), and a float or a text is not read exactly
    if len(delta_vec) != 3 or any(type(d) is not Fraction or not 0 < d < 1
                                  for d in delta_vec):
        raise InvalidPerturbation(
            f"perturbation must be three Fractions in (0, 1): {delta_vec}")


def lattice_points(spec: SystemSpec,
                   delta_vec: Sequence[Fraction] = DEFAULT_PERTURBATION) -> List[Point]:
    """Integer points of the perturbed Minkowski sum, by exact feasibility.

    q - delta lies in the sum's bounding box and 0 < delta < 1, so only
    lo_k < q_k <= hi_k is scanned, lo_k and hi_k the sums over the blocks
    of their least and greatest coordinate on axis k.  Off it a Farkas
    vector proves q infeasible: e_k less lo_ik on block i's convexity row
    if q_k <= lo_k, -e_k plus hi_ik if q_k > hi_k.  A scanned point is kept
    when the vertex-decomposition system for it admits a nonnegative
    solution.  Each verdict rests on an exactly checked basis or Farkas
    vector, reused across the points of the scan; the scan is kept per
    (spec, delta_vec), and each call returns a fresh list.
    """
    spec = SystemSpec(*spec).validate()
    check_perturbation(delta_vec)
    return list(scanned(spec, tuple(delta_vec))[1])


@lru_cache(maxsize=16)
def scanned(spec: SystemSpec, delta_vec: Tuple[Fraction, ...]
            ) -> Tuple["PointSystem", Tuple[Point, ...]]:
    """The point system of (spec, delta) and its lattice points, sorted,
    kept for the 16 latest pairs; neither changes after this scan.  The
    spec is validated and delta checked by the caller."""
    system = PointSystem(spec, delta_vec)
    blocks = vertex_lists(spec)
    box = [range(sum(min(v[k] for v in verts) for verts in blocks) + 1,
                 sum(max(v[k] for v in verts) for verts in blocks) + 1)
           for k in range(3)]
    found = [q for q in iter_product(*box) if system.feasible(q)]
    found.sort(key=lambda p: (sum(p), p[2], p[1], p[0]))
    return system, tuple(found)


# --- certified basis catalog -------------------------------------------------

# Scanned in order; each entry is (case, id, basis columns), the columns
# given below by their (block, vertex) digits.  Every basis contains exactly
# one variable of its case's block, its target vertex's, which the block's
# convexity row then sets to one: a catalog basis feasible at a point puts
# its block on the target vertex.  `PointSystem` checks the columns.
CASE_BASES: Tuple[Tuple[int, str, Tuple[int, ...]], ...] = tuple(
    (int(bid[0]), bid, tuple(var_index(int(ij[0]), int(ij[1]))
                             for ij in digits.split()))
    for bid, digits in (
        ("1.1", "13 23 24 32 33 41 43"),
        ("1.2", "13 23 24 31 32 33 41"),
        ("1.3", "13 23 24 32 33 41 42"),
        ("1.4", "13 23 24 33 41 42 43"),
        ("2.1", "13 14 24 31 32 33 41"),
        ("2.2", "13 14 24 33 41 42 43"),
        ("2.3", "13 14 24 32 33 41 43"),
        ("2.4", "13 14 24 32 33 41 42"),
        ("2.5", "11 12 13 24 31 33 41"),
        ("2.6", "13 14 15 24 33 41 43"),
        ("2.7", "12 13 14 15 24 33 41"),
        ("3.1", "15 16 24 26 33 41 43"),
        ("3.2", "13 15 23 24 33 41 43"),
        ("3.3", "15 23 24 25 33 41 43"),
        ("3.4", "12 13 15 23 24 33 41"),
        ("4.1", "11 12 21 24 26 31 41"),
        ("4.2", "11 12 24 26 31 33 41"),
        ("4.3", "11 12 15 24 26 33 41"),
        ("4.4", "12 13 23 24 31 33 41"),
        ("4.5", "12 23 24 25 31 33 41"),
        ("4.6", "12 21 22 23 25 31 41"),
        ("4.7", "12 15 23 25 26 33 41"),
    ))


# --- per-call certificates ---------------------------------------------------

Form = Tuple[int, int, int, int]
Kept = Tuple[int, List[int], Tuple[Fraction, ...]]   # index, form values, lam
_ZERO = Fraction(0)


def _values(forms: Sequence[Form], q: Point) -> Optional[List[int]]:
    """The forms' values at q; None from the first negative one on."""
    q0, q1, q2 = q
    values = []
    for a0, a1, a2, k in forms:
        v = a0 * q0 + a1 * q1 + a2 * q2 + k
        if v < 0:
            return None
        values.append(v)
    return values


class _CatalogBasis(NamedTuple):
    case: int
    bid: str
    columns: Tuple[int, ...]
    p: int                         # B adj = p I, p > 0
    adj_columns: Tuple[Tuple[int, ...], ...]   # u = c_B adj, per call
    nonbasic: Tuple[int, ...]      # the columns whose reduced costs vary
    forms: Tuple[Form, ...]        # one per row of adj: p D x_B at q


class PointSystem:
    """A lam = b(q), lam >= 0 for one spec and perturbation, set up once.

    A depends only on the spec, so only b(q) moves from point to point; all
    of it is held in integers, with b'(q) = D b(q) = (D q - D delta, D, D, D,
    D) and D the lcm of delta's denominators.  A point is decided by a
    certificate already in hand when one applies: a Farkas vector w
    (w A >= 0, w b'(q) < 0) proves it infeasible, a basis B (adj b'(q) >= 0
    for B adj = p I, p > 0) proves it feasible.  The nonsingular catalog
    bases are the first basis certificates, and the first one feasible at
    a point is kept (`catalog_basis`); phase one runs only when none
    decides, and its certificate is checked exactly before its basis joins
    `bases` or its vector `farkas`.  `scanned` keeps one per (spec,
    perturbation), for the 16 latest pairs, with the points its scan kept.
    After that scan `grc_partition` only reads: the vertex table, A's
    columns, each catalog basis's adj columns and nonbasic columns, `D`,
    `rhs`, the column set and, per point, the kept catalog basis.
    """

    def __init__(self, spec: SystemSpec, delta_vec: Sequence[Fraction]):
        self.spec = spec
        self.vertices = vertex_lists(spec)
        self.A = _constraint_matrix(spec)
        self.A_columns = tuple(zip(*self.A))
        self.D = lcm(*(d.denominator for d in delta_vec))
        self.Ddelta = [int(d * self.D) for d in delta_vec]
        self.catalog: List[_CatalogBasis] = []
        for case, bid, columns in CASE_BASES:
            block = range(var_index(case, 1), var_index(case + 1, 1))
            if [j for j in columns if j in block] != [var_index(case, TARGET_VERTEX[case])]:
                raise CertificateFailure(f"catalog basis {bid} holds a column of "
                                         f"block {case} besides its target vertex")
            found = self._basis(columns)
            if found is not None:
                p, adj, forms = found
                nonbasic = tuple(j for j in range(len(self.A_columns))
                                 if j not in columns)
                self.catalog.append(_CatalogBasis(
                    case, bid, columns, p, tuple(zip(*adj)), nonbasic, forms))
        self.bases: List[Tuple[Form, ...]] = []
        self.farkas: List[Form] = []
        self.kept: Dict[Point, Optional[Kept]] = {}

    @cached_property
    def cover(self) -> MonomialSet:
        """The column set the partition must tile, made on first use."""
        return column_set(self.spec)

    def _basis(self, columns: Sequence[int]):
        """(p, adj, forms) of the basis on these columns, B adj = p I as
        `lp.adjugate` checks it; None when the columns are dependent."""
        found = lp.adjugate([[row[j] for j in columns] for row in self.A])
        if found is None:
            return None
        p, adj = found
        return p, adj, tuple(map(self._form, adj))

    def _form(self, row: Sequence[int]) -> Form:
        """row . b'(q) as the integers (a0, a1, a2, k) of a.q + k."""
        D = self.D
        return (D * row[0], D * row[1], D * row[2],
                D * sum(row[3:]) - sum(r * d for r, d in zip(row, self.Ddelta)))

    def rhs(self, q: Point) -> List[int]:
        """b'(q) = D b(q)."""
        return [self.D * q[k] - self.Ddelta[k] for k in range(3)] + [self.D] * 4

    def feasible(self, q: Point) -> bool:
        """Whether q is a lattice point, by the first certificate in hand
        that decides it, else by phase one; unless a Farkas vector rules q
        out, its catalog basis is kept on the way."""
        if _values(self.farkas, q) is None:    # a Farkas form is negative
            return False
        if self.catalog_basis(q) or any(_values(forms, q) is not None
                                        for forms in self.bases):
            return True
        feasible, cert = lp.integer_certificate(self.A, self.rhs(q))
        if feasible:
            # A has full row rank 7 (every block holds the origin vertex and
            # the vertices span R^3), so the basis is square
            found = self._basis(cert)
            if found is None or _values(found[2], q) is None:
                raise CertificateFailure(
                    f"phase-one basis {cert} does not certify {q}")
            self.bases.append(found[2])
        else:
            form = self._form(cert)
            if (any(sum(map(mul, cert, col)) < 0 for col in self.A_columns)
                    or _values([form], q) is not None):
                raise CertificateFailure(
                    f"phase-one Farkas vector does not certify {q} infeasible")
            self.farkas.append(form)
        return feasible

    def optimal(self, c: Sequence[int]) -> List[bool]:
        """Per catalog basis, whether it is optimal for the integer costs c:
        `lp.optimal` on the kept columns of A and of adj."""
        A = self.A_columns
        return [lp.optimal(A, c, b.columns, b.p, b.adj_columns, b.nonbasic)
                for b in self.catalog]

    def catalog_basis(self, q: Point) -> Optional[Kept]:
        """The first catalog basis feasible at q, as (index, form values,
        lam), or None; the catalog is evaluated up to it, each basis's forms
        up to their first negative one.  Kept per point as the scan reaches
        it: none of it depends on the liftings."""
        if q not in self.kept:
            self.kept[q] = None
            for k, basis in enumerate(self.catalog):
                values = _values(basis.forms, q)
                if values is not None:
                    scale = basis.p * self.D     # lam = values / scale
                    lam = [_ZERO] * sum(BLOCK_SIZES)
                    for v, j in zip(values, basis.columns):
                        if v:
                            lam[j] = Fraction(v, scale)
                    self.kept[q] = (k, values, tuple(lam))
                    break
        return self.kept[q]
