"""Sparse-resultant partition: generalized row content and partition moves.

For each lattice point (`lattice`) a 7x18 linear program over the four
vertex lists is solved; an optimal solution that concentrates one block on
a single vertex assigns the point to that block (its generalized row
content).  With suitable integer liftings the selected vertices are exactly
the four main monomials, the blocks tile the column set, and the square
matrix that `matrices.build_sparse_matrix` assembles from the partition is
a row rearrangement of the standard one after `moves_to_divisibility`.
Every call, the first too, reads the point system that `lattice.scanned`
keeps and pays only for its liftings: the costs, each catalog basis's
optimality (u = c_B adj, u A_j <= p c_j at the nonbasic columns j), per
point the objective of the first kept feasible basis that is optimal, and
the restricted-LP searches.

Ties between alternative optima are broken deterministically: the catalog
of certified bases is scanned in its fixed order requiring strict
feasibility, then weak feasibility, then a restricted-LP search over the
four target vertices in block order, solved by `lp.simplex` on the same
kept point system and b'(q).  The choice is recorded per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DiffresError, IllegalMove, Infeasible, NoVertexOptimum
from . import lp
from .diffsys import SystemSpec, YMonomial, ym_divides, ym_div, ym_mul, ym_render
from .lattice import (BLOCK_SIZES, DEFAULT_PERTURBATION, TARGET_VERTEX, Point,
                      PointSystem, check_perturbation, costs, scanned,
                      var_index)
from .matrices import SQUARE_BLOCK_ORDER, row_polys
from .monomials import (MonomialSet, Partition, column_set,
                        default_main_monomials, partition_divisibility)

LiftVector = Tuple[int, int, int]


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
    violations, degenerate = [], []
    for name, value in inequalities:
        if value > 0:
            violations.append(name)
        elif value == 0:
            degenerate.append(name)
    if l31 != l32 + l41 - l42:
        violations.append("L31 = L32 + L41 - L42")
    return LiftingReport(not violations, tuple(violations), tuple(degenerate))


# --- GRC partition -----------------------------------------------------------

@dataclass(frozen=True)
class GrcAssignment:
    case: int                      # 1..4
    vertex_index: int              # j with lambda_{case, j} = 1
    basis_id: str                  # catalog id, or "search"
    lam: Tuple[Fraction, ...]
    objective: Fraction


@dataclass(frozen=True)
class GrcPartitionResult:
    partition: Partition
    assignments: Dict[Point, GrcAssignment]


def _catalog_assignment(q: Point, system: PointSystem, optimal: Sequence[bool],
                        c: Sequence[int]) -> Optional[GrcAssignment]:
    """The first catalog basis feasible at q, as `feasible_catalog` orders
    them, that is optimal for c (`optimal`, per basis); None when there is
    none.  Such a basis puts its block on the target vertex; only the
    objective is computed here."""
    for k, values, lam in system.feasible_catalog(q):
        if optimal[k]:
            basis = system.catalog[k]
            objective = sum(map(mul, map(c.__getitem__, basis.columns), values))
            return GrcAssignment(basis.case, TARGET_VERTEX[basis.case], basis.bid, lam,
                                 Fraction(objective, basis.p * system.D))
    return None


def _search_assignment(system: PointSystem, q: Point, c: Sequence[int]
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
            return GrcAssignment(case, j, "search", tuple(lam), best.objective / D)
    raise NoVertexOptimum(f"no optimal solution at {q} pins a target vertex")


def grc_partition(spec: SystemSpec, lift: Liftings = DEFAULT_LIFTINGS,
                  delta_vec: Sequence[Fraction] = DEFAULT_PERTURBATION
                  ) -> GrcPartitionResult:
    """Assign every lattice point to a block via its LP optimum."""
    spec = SystemSpec(*spec).validate()
    report = validate_liftings(lift)
    if not report.passed:
        raise DiffresError(f"liftings violate: {', '.join(report.violations)}")
    check_perturbation(delta_vec)
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
    return GrcPartitionResult(partition, assignments)


# --- moves -------------------------------------------------------------------

# The moves that `moves_to_divisibility` derives for degrees (2, 2) with the
# default liftings: (monomial, from block, to block).  No library function
# reads this table; it stays for the benchmark's `lp-partition` check.
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


def moves_to_divisibility(part: Partition, spec: SystemSpec
                          ) -> List[Tuple[YMonomial, int, int]]:
    """The moves that take each monomial of `part` outside its block of the
    spec's divisibility partition straight to that block, in block order;
    none when `part` is that partition.  `apply_moves` checks each one."""
    target = partition_divisibility(column_set(spec), default_main_monomials(spec))
    home = {m: i for i, s in enumerate(target.sets(), 1) for m in s}
    return [(m, i, home[m]) for i, s in enumerate(part.sets(), 1)
            for m in s if home[m] != i]


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
        for m in polys[SQUARE_BLOCK_ORDER[dst - 1]].support_set():
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
