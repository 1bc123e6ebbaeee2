"""Sparse-resultant machinery: vertex lists, lattice points, LP partition.

The column monomials are recovered as the lattice points of a perturbed
Minkowski sum, decided exactly by LP feasibility instead of any convex-hull
geometry.  For each point a 7x18 linear program over the four vertex lists
is solved; an optimal solution that concentrates one block on a single
vertex assigns the point to that block (its generalized row content).  With
suitable integer liftings the selected vertices are exactly the four main
monomials, the blocks tile the column set, and the square matrix that
`matrices.build_sparse_matrix` assembles from the partition is a row
rearrangement of the standard one after a short list of legal moves.

The constraint matrix depends only on the degrees, b(q) only on the point
and the perturbation, and the costs only on the liftings.  So the point
system and the sorted lattice points are built once per (spec,
perturbation) and kept by `scanned`, an `lru_cache` of the 16 latest
pairs, keyed by the validated `SystemSpec` and the perturbation as a tuple
of Fractions; `lattice_points`, `grc_partition` and the
`basis-certification` check read it, with `costs` for the liftings.  All of
it is in integers (b(q) scaled by the lcm D of the perturbation's
denominators).  Each catalog basis carries (p, adj) with B adj = p I, and
per basic variable a form a.q + k whose value at q is p D x_B.  Only the
sum's bounding box, shifted by delta, is scanned.  A point is decided by
the Farkas vectors found so far, then by the catalog bases feasible there,
which the scan keeps per point with x_B and lambda, then by the phase-one
bases found so far, with phase one only when none decides.  So every
call after the scan, the first too, pays only for its liftings: the
costs, read off the kept vertex table; optimality of each catalog basis,
u = c_B adj and u A_j <= p c_j at the nonbasic columns j, on the kept
columns of A and adj; per point, the objective of the first kept
feasible basis that is optimal; and the restricted-LP searches.  Every
verdict rests on a certificate checked exactly when it was made.

Ties between alternative optima are broken deterministically: the catalog
of certified bases is scanned in its fixed order requiring strict
feasibility, then weak feasibility, then a restricted-LP search over the
four target vertices in block order, solved by `lp.simplex` on the same
kept point system and b'(q).  The choice is recorded per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import lcm
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (CertificateFailure, DiffresError, IllegalMove,
                     Infeasible, InvalidPerturbation, NoVertexOptimum)
from . import lp
from .diffsys import (SystemSpec, YMonomial, support, ym_divides, ym_div,
                      ym_mul, ym_render)
from .matrices import SQUARE_BLOCK_ORDER, row_polys
from .monomials import (MonomialSet, Partition, column_set,
                        default_main_monomials)

Point = Tuple[int, int, int]
LiftVector = Tuple[int, int, int]

DEFAULT_PERTURBATION: Tuple[Fraction, Fraction, Fraction] = (
    Fraction(1, 100), Fraction(1, 100), Fraction(1, 100))


class Liftings(NamedTuple):
    """One integer height vector per polytope, acting on (y, y1, y2)."""

    l1: LiftVector
    l2: LiftVector
    l3: LiftVector
    l4: LiftVector

    def as_tuple(self) -> Tuple[LiftVector, ...]:
        return (self.l1, self.l2, self.l3, self.l4)


# Integer liftings satisfying every merged optimality constraint checked by
# validate_liftings below.
DEFAULT_LIFTINGS = Liftings((7, -4, -5), (5, -9, 5), (6, 2, 1), (8, 4, 7))


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


def costs(vertices: Tuple[Tuple[Point, ...], ...], lift: Liftings
          ) -> Tuple[int, ...]:
    """The lifting heights of the 18 vertex columns, from `vertex_lists`."""
    return tuple(sum(map(mul, vec, v))
                 for vec, verts in zip(lift, vertices) for v in verts)


def _check_perturbation(delta_vec: Sequence[Fraction]) -> None:
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
    _check_perturbation(delta_vec)
    return list(scanned(spec, tuple(delta_vec))[1])


@lru_cache(maxsize=16)
def scanned(spec: SystemSpec, delta_vec: Tuple[Fraction, ...]
            ) -> Tuple["_PointSystem", Tuple[Point, ...]]:
    """The point system of (spec, delta) and its lattice points, sorted,
    kept for the 16 latest pairs; neither changes after this scan.  The
    spec is validated and delta checked by the caller."""
    system = _PointSystem(spec, delta_vec)
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
# its block on the target vertex.  `_PointSystem` checks the columns.
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
Feasible = Tuple[int, List[int], Tuple[Fraction, ...]]   # index, form values, lam
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


class _PointSystem:
    """A lam = b(q), lam >= 0 for one spec and perturbation, set up once.

    A depends only on the spec, so only b(q) moves from point to point; all
    of it is held in integers, with b'(q) = D b(q) = (D q - D delta, D, D, D,
    D) and D the lcm of delta's denominators.  A point is decided by a
    certificate already in hand when one applies: a Farkas vector w
    (w A >= 0, w b'(q) < 0) proves it infeasible, a basis B (adj b'(q) >= 0
    for B adj = p I, p > 0) proves it feasible.  The nonsingular catalog
    bases are the first basis certificates, and what they give at a point
    is kept (`feasible_catalog`); phase one runs only when none decides,
    and its certificate is checked exactly before its basis joins `bases`
    or its vector `farkas`.  `scanned` keeps one per (spec, perturbation),
    for the 16 latest pairs, with the points its scan kept.  After that
    scan `grc_partition` only reads: the vertex table, A's columns, each
    catalog basis's adj columns and nonbasic columns, `D`, `rhs`, the
    column set and, per point, the kept catalog bases.
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
        self.kept: Dict[Point, Tuple[Feasible, ...]] = {}

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
        out, its feasible catalog bases are kept on the way."""
        if _values(self.farkas, q) is None:    # a Farkas form is negative
            return False
        if self.feasible_catalog(q) or any(_values(forms, q) is not None
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

    def feasible_catalog(self, q: Point) -> Tuple[Feasible, ...]:
        """The catalog bases feasible at q, as (index, form values, lam):
        those with every form >= 1 (x_B > 0), then those whose least form
        is 0, each in catalog order.  A basis's forms are evaluated up to
        its first negative one.  Kept per point, as the scan reaches it:
        none of it depends on the liftings."""
        if q not in self.kept:
            found: List[Feasible] = []
            for k, basis in enumerate(self.catalog):
                values = _values(basis.forms, q)
                if values is None:
                    continue
                scale = basis.p * self.D     # lam = values / scale
                lam = [_ZERO] * sum(BLOCK_SIZES)
                for v, j in zip(values, basis.columns):
                    if v:
                        lam[j] = Fraction(v, scale)
                found.append((k, values, tuple(lam)))
            self.kept[q] = tuple(sorted(found, key=lambda e: min(e[1]) == 0))
        return self.kept[q]


class LiftingReport(NamedTuple):
    passed: bool
    violations: Tuple[str, ...]
    degenerate: Tuple[str, ...]   # inequalities holding with equality


def validate_liftings(lift: Liftings) -> LiftingReport:
    """Check the merged optimality constraints on the lifting heights."""
    (l11, l12, l13), (l21, l22, l23) = lift.l1, lift.l2
    (l31, l32, l33), (l41, l42, l43) = lift.l3, lift.l4
    inequalities = [
        ("L11 - L12 - L21 + L22 <= 0", l11 - l12 - l21 + l22),
        ("L13 <= L23", l13 - l23),
        ("L21 <= L31", l21 - l31),
        ("L31 <= L11", l31 - l11),
        ("L11 <= L41", l11 - l41),
        ("L22 <= L12", l22 - l12),
        ("L12 <= L32", l12 - l32),
        ("L32 <= L42", l32 - l42),
    ]
    violations = []
    degenerate = []
    for name, value in inequalities:
        if value > 0:
            violations.append(name)
        elif value == 0:
            degenerate.append(name)
    if l31 != l32 + l41 - l42:
        violations.append("L31 = L32 + L41 - L42")
    return LiftingReport(passed=not violations,
                         violations=tuple(violations),
                         degenerate=tuple(degenerate))


# --- GRC partition -----------------------------------------------------------

@dataclass(frozen=True)
class GrcAssignment:
    point: Point
    case: int                      # 1..4
    vertex_index: int              # j with lambda_{case, j} = 1
    vertex: Point
    main_monomial: YMonomial
    basis_id: str                  # catalog id, or "search"
    lam: Tuple[Fraction, ...]
    objective: Fraction


@dataclass(frozen=True)
class GrcPartitionResult:
    partition: Partition
    assignments: Dict[Point, GrcAssignment]
    liftings: Liftings
    perturbation: Tuple[Fraction, ...]


def _catalog_assignment(q: Point, system: _PointSystem, optimal: Sequence[bool],
                        c: Sequence[int]) -> Optional[GrcAssignment]:
    """The first catalog basis feasible at q, as `feasible_catalog` orders
    them, that is optimal for c (`optimal`, per basis); None when there is
    none.  Such a basis puts its block on the target vertex; only the
    objective is computed here."""
    for k, values, lam in system.feasible_catalog(q):
        if optimal[k]:
            basis = system.catalog[k]
            case = basis.case
            j = TARGET_VERTEX[case]
            vertex = system.vertices[case - 1][j - 1]
            objective = sum(map(mul, map(c.__getitem__, basis.columns), values))
            return GrcAssignment(q, case, j, vertex, YMonomial(*vertex), basis.bid,
                                 lam, Fraction(objective, basis.p * system.D))
    return None


def _search_assignment(system: _PointSystem, q: Point, c: Sequence[int]
                       ) -> GrcAssignment:
    """The restricted search over the four target vertices, block order: the
    first case whose optimum with lambda_{case, j} pinned to one equals the
    full optimum.  Each LP is solved on b'(q) = D b(q), so lambda and the
    objective are D times their values until the return."""
    A, b, D = system.A, system.rhs(q), system.D
    best = lp.simplex(A, b, c)
    if best.status != "optimal":
        raise Infeasible(f"lattice point {q} admits no decomposition")
    for case in (1, 2, 3, 4):
        j = TARGET_VERTEX[case]
        offset = var_index(case, 1)
        pinned = var_index(case, j)
        # drop the block's columns and its spent convexity row
        keep = [k for k in range(len(c))
                if not offset <= k < offset + BLOCK_SIZES[case - 1]]
        rows = [r for r in range(len(A)) if r != 2 + case]
        restricted = lp.simplex([[A[r][k] for k in keep] for r in rows],
                                [b[r] - D * A[r][pinned] for r in rows],
                                [c[k] for k in keep])
        if (restricted.status == "optimal"
                and restricted.objective + D * c[pinned] == best.objective):
            lam = [Fraction(0)] * len(c)
            for k, v in zip(keep, restricted.x):
                lam[k] = v / D
            lam[pinned] = Fraction(1)
            vertex = system.vertices[case - 1][j - 1]
            return GrcAssignment(q, case, j, vertex, YMonomial(*vertex), "search",
                                 tuple(lam), best.objective / D)
    raise NoVertexOptimum(f"no optimal solution at {q} pins a target vertex")


def grc_partition(spec: SystemSpec, lift: Liftings = DEFAULT_LIFTINGS,
                  delta_vec: Sequence[Fraction] = DEFAULT_PERTURBATION
                  ) -> GrcPartitionResult:
    """Assign every lattice point to a block via its LP optimum."""
    spec = SystemSpec(*spec).validate()
    report = validate_liftings(lift)
    if not report.passed:
        raise DiffresError(f"liftings violate: {', '.join(report.violations)}")
    _check_perturbation(delta_vec)
    delta_vec = tuple(delta_vec)
    system, points = scanned(spec, delta_vec)
    # the costs depend only on the liftings: certify optimality once per call
    c = costs(system.vertices, lift)
    optimal = system.optimal(c)
    assignments: Dict[Point, GrcAssignment] = {}
    buckets: Dict[int, List[YMonomial]] = {1: [], 2: [], 3: [], 4: []}
    for q in points:
        assignment = (_catalog_assignment(q, system, optimal, c)
                      or _search_assignment(system, q, c))
        assignments[q] = assignment
        monomial = YMonomial(q[0] - 1, q[1] - 1, q[2] - 1)
        buckets[assignment.case].append(monomial)
    partition = Partition(
        *(MonomialSet.of(buckets[i], f"S{i}") for i in (1, 2, 3, 4)),
        provenance="LPDriven")
    partition.validate_cover(system.cover)
    return GrcPartitionResult(partition, assignments, lift, delta_vec)


# --- moves -------------------------------------------------------------------

# Moves that turn the LP partition for degrees (2, 2) with the default
# liftings into the divisibility partition: (monomial, from block, to block).
MOVES_TO_DIVISIBILITY_2_2: Tuple[Tuple[YMonomial, int, int], ...] = (
    (YMonomial(3, 1, 1), 3, 1),
    (YMonomial(2, 1, 1), 3, 1),
    (YMonomial(2, 0, 1), 4, 3),
    (YMonomial(2, 1, 0), 4, 3),
    (YMonomial(3, 0, 0), 4, 3),
    (YMonomial(2, 0, 0), 4, 3),
    (YMonomial(1, 1, 1), 4, 1),
    (YMonomial(0, 1, 1), 4, 1),
)


def apply_moves(part: Partition, moves: Sequence[Tuple[YMonomial, int, int]],
                spec: SystemSpec) -> Partition:
    """Relocate monomials between blocks, validating each move.

    A move is legal when the destination's main monomial (the spec's
    default) divides the moved monomial and every monomial of (moved / mm)
    times the destination polynomial stays inside the spec's column set.
    """
    spec = SystemSpec(*spec).validate()
    polys = row_polys(spec)
    mm_by_block = dict(enumerate(default_main_monomials(spec).as_tuple(), 1))
    sets = {i + 1: list(s.elems) for i, s in enumerate(part.sets())}
    col_set = column_set(spec).as_set()
    for monomial, src, dst in moves:
        monomial = YMonomial(*monomial)
        if monomial not in sets[src]:
            raise IllegalMove(
                f"{ym_render(monomial)} is not currently in S{src}")
        target_mm = mm_by_block[dst]
        if not ym_divides(target_mm, monomial):
            raise IllegalMove(
                f"main monomial {ym_render(target_mm)} of block {dst} does "
                f"not divide {ym_render(monomial)}")
        mult = ym_div(monomial, target_mm)
        for m in support(polys[SQUARE_BLOCK_ORDER[dst - 1]]):
            shifted = ym_mul(m, mult)
            if shifted not in col_set:
                raise IllegalMove(
                    f"moving {ym_render(monomial)} to S{dst} pushes "
                    f"{ym_render(shifted)} outside the column set")
        sets[src].remove(monomial)
        sets[dst].append(monomial)
    return Partition(
        *(MonomialSet.of(sets[i], f"S{i}") for i in (1, 2, 3, 4)),
        provenance=part.provenance + "+moves")
