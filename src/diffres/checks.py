"""Named verification suites.

Each acceptance criterion is one function `check_x(spec, seed)`: it asserts
the criterion at one degree pair (a SystemSpec, or None for a criterion
that sweeps its own pairs) and returns its witness data (seeds, counts,
values), deterministically given the seed.  `SUITES` is the one table of
suites: a row gives the report name, the degree pairs and the criterion.
`run_checks` alone loops over the pairs, times each call and reports an
AssertionError as a failure.  The CLI `check` command and the acceptance
tests both run through here, so there is exactly one implementation of
every criterion.

Reports are produced sequentially and order-normalized by name before
emission; nothing in a check depends on when any other check runs, so a
worker pool may execute them concurrently without changing the output.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import lp
from .certificate import certify, ranking_specialization
from .determinant import (common_zero_specialization, det_specialized,
                          det_symbolic, kernel_certifies, nonzero_random_probe,
                          random_specialization)
from .diffsys import SystemSpec, YMonomial, system_symbols, ym_render
from .lattice import (CASE_BASES, DEFAULT_PERTURBATION, costs,
                      lattice_points, scanned, var_index)
from .matrices import (build_carra_ferro, build_sparse_matrix,
                       build_square_matrix, zero_columns)
from .monomials import column_set, multiplier_sizes
from .oracle import eliminate_iterated
from .sparse import (DEFAULT_LIFTINGS, apply_moves, grc_partition,
                     moves_to_divisibility, validate_liftings)
from .symbols import CoeffSymbol
from .sympoly import Specialization


class CheckReport(NamedTuple):
    name: str
    spec: Optional[Tuple[int, int]]
    status: str                    # "pass" | "fail"
    witness: Dict[str, object]
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        spec = f" d={self.spec}" if self.spec else ""
        return f"[{self.status.upper():4}] {self.name}{spec}  ({self.runtime:.2f}s)"


def _report(name: str, d: Optional[Tuple[int, int]],
            criterion: Callable[..., Dict[str, object]], seed: int) -> CheckReport:
    start = time.perf_counter()
    try:
        witness = criterion(SystemSpec(*d) if d else None, seed)
        status = "pass"
    except AssertionError as exc:
        witness = {"error": str(exc)}
        status = "fail"
    return CheckReport(name, d, status, witness,
                       runtime=time.perf_counter() - start)


def _random_point(rng: random.Random) -> Tuple[Fraction, Fraction, Fraction]:
    def coord() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return (coord(), coord(), coord())


VANISHING_SPECS = ((1, 1), (1, 2), (2, 2), (2, 3))   # det == 0 by elimination too
KERNEL_VECTOR_SPECS = ((3, 3), (4, 4), (5, 5))        # by kernel vector only
VANISHING_TRIALS = 100   # common-zero specializations per spec
CERTIFICATE_SPECS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))
LP_SPECS = ((1, 2), (2, 2), (2, 3), (3, 3))


# --- criterion 1 -------------------------------------------------------------

def check_sizes(spec: Optional[SystemSpec], seed: int) -> Dict[str, object]:
    for d1 in range(1, 7):
        for d2 in range(d1, 7):
            spec = SystemSpec(d1, d2)
            matrix = build_square_matrix(spec)
            n = spec.N
            assert matrix.nrows == matrix.ncols == n, \
                f"{(d1, d2)}: shape {matrix.nrows}x{matrix.ncols} != {n}"
            assert n == (spec.D + 1) ** 2 == 4 * (d1 + d2 - 1) ** 2
            counts = tuple(matrix.meta["block_counts"])
            assert sum(counts) == n, f"{(d1, d2)}: blocks {counts}"
            assert counts == multiplier_sizes(spec)
    m22 = build_square_matrix(SystemSpec(2, 2))
    assert m22.nrows == 36
    assert tuple(m22.meta["block_counts"]) == (10, 10, 10, 6)
    return {"specs": 21, "reference": {"d": [2, 2], "N": 36,
                                       "blocks": [10, 10, 10, 6]}}


# --- criterion 2 -------------------------------------------------------------

def check_carra_ferro(spec: SystemSpec, seed: int) -> Dict[str, object]:
    matrix = build_carra_ferro(*spec, 1, 1)
    meta = matrix.meta
    assert (matrix.nrows, matrix.ncols) == (80, 56), \
        f"shape {matrix.nrows}x{matrix.ncols}"
    assert meta["D"] == 5 and meta["L"] == 56
    assert meta["L1"] == meta["L2"] == 20
    zeros = zero_columns(matrix)
    assert YMonomial(0, 0, 5) in zeros, "column y2^5 is not identically zero"
    assert matrix.cols[0] == YMonomial(0, 0, 5)
    return {"shape": [80, 56], "zero_columns": [ym_render(c) for c in zeros]}


# --- criterion 3 -------------------------------------------------------------

def check_certificate(spec: SystemSpec, seed: int) -> Dict[str, object]:
    transformed, cert = certify(spec)
    n1, n2, n3, n4 = cert.counts
    assert cert.counts == multiplier_sizes(spec), \
        f"counts {cert.counts} != multiplier sizes {multiplier_sizes(spec)}"
    assert cert.coefficient == cert.sign * spec.d1 ** n1, \
        f"unique-monomial coefficient {cert.coefficient} != sign * d1^n1"
    # f1's top and pure-y coefficients, f2's top derivative and its constant
    expected = {CoeffSymbol("a", 0, spec.d1): n1, CoeffSymbol("b", 0, spec.d2, 1): n2,
                CoeffSymbol("a", spec.d1, 0): n3, CoeffSymbol("b", 0, 0): n4}
    assert dict(cert.unique_monomial) == expected, \
        f"unique monomial {dict(cert.unique_monomial)}"
    rank_spec = ranking_specialization(spec)
    assert det_specialized(transformed, rank_spec) != 0, \
        "ranking specialization killed the determinant"
    return {"counts": list(cert.counts), "coefficient": str(cert.coefficient),
            "sign": cert.sign}


# --- criteria 4 and 5 --------------------------------------------------------

def check_vanishing(spec: SystemSpec, seed: int) -> Dict[str, object]:
    """Every common-zero specialization has a kernel vector, the column
    monomials at its point; at VANISHING_SPECS the exact elimination, run
    on a copy of the values that carries no zero, gives det == 0 as well."""
    matrix = build_square_matrix(spec)
    rng = random.Random(seed * 7919 + spec.d1 * 101 + spec.d2)
    eliminate = spec in VANISHING_SPECS
    for trial in range(VANISHING_TRIALS):
        point = _random_point(rng)
        s = common_zero_specialization(spec, point, rng_seed=seed + trial)
        assert kernel_certifies(matrix.specialize(s)[0], matrix.cols, s.zero), \
            f"trial {trial} at point {point}: no kernel vector"
        if eliminate:
            value = det_specialized(
                matrix, Specialization(dict(s.items())))
            assert value == 0, \
                f"trial {trial} at point {point}: det = {value}"
    return {"trials": VANISHING_TRIALS, "seed": seed,
            "method": "elimination" if eliminate else "kernel-vector"}


def check_nonvanishing(spec: SystemSpec, seed: int) -> Dict[str, object]:
    matrix = build_square_matrix(spec)
    ok, witness = nonzero_random_probe(matrix, spec, seed=seed)
    assert ok, f"ten random specializations all vanished: {witness}"
    return witness


# --- criterion 6 -------------------------------------------------------------

def _specialization_from(spec: SystemSpec,
                         values: Dict[CoeffSymbol, int]) -> Specialization:
    return Specialization({**dict.fromkeys(system_symbols(spec), 0), **values})


def check_linear_case(spec: SystemSpec, seed: int) -> Dict[str, object]:
    matrix = build_square_matrix(spec)
    assert [r.poly for r in matrix.rows] == ["f1'", "f2'", "f1", "f2"]
    assert list(matrix.cols) == [YMonomial(0, 0, 1), YMonomial(0, 1, 0),
                                 YMonomial(1, 0, 0), YMonomial(0, 0, 0)]
    # f1 = y1 + 1, f2 = y1 + y, every derivative symbol zero
    s1 = _specialization_from(spec, {
        CoeffSymbol("a", 0, 1, 0): 1, CoeffSymbol("a", 0, 0, 0): 1,
        CoeffSymbol("b", 0, 1, 0): 1, CoeffSymbol("b", 1, 0, 0): 1})
    v1 = det_specialized(matrix, s1)
    assert abs(v1) == 1, f"fixture determinant {v1}"
    # f1 = y1 + y, f2 = y1 - y: common zero at the origin
    s2 = _specialization_from(spec, {
        CoeffSymbol("a", 0, 1, 0): 1, CoeffSymbol("a", 1, 0, 0): 1,
        CoeffSymbol("b", 0, 1, 0): 1, CoeffSymbol("b", 1, 0, 0): -1})
    assert det_specialized(matrix, s2) == 0
    symbolic = det_symbolic(matrix)
    assert symbolic.total_degree() == 4
    for trial in range(50):
        s = random_specialization(spec, seed + 1000 + trial)
        assert symbolic.evaluate(s) == det_specialized(matrix, s), \
            f"trial {trial}: symbolic and specialized paths disagree"
    return {"fixture_value": str(v1), "degree": symbolic.total_degree(),
            "terms": len(symbolic)}


# --- criterion 7 -------------------------------------------------------------

def check_lp_partition(spec: SystemSpec, seed: int) -> Dict[str, object]:
    lift_report = validate_liftings(DEFAULT_LIFTINGS)
    assert lift_report.passed, f"liftings violate {lift_report.violations}"

    points = lattice_points(spec)
    E = column_set(spec)
    shifted = sorted(((m.ey + 1, m.ey1 + 1, m.ey2 + 1) for m in E),
                     key=lambda p: (sum(p), p[2], p[1], p[0]))
    assert len(points) == spec.N and points == shifted, \
        "lattice points differ from the shifted column set"

    result = grc_partition(spec)
    result.partition.validate_cover(E)
    moves = moves_to_divisibility(result.partition, spec)
    moved = apply_moves(result.partition, moves, spec)
    assert not moves_to_divisibility(moved, spec), \
        "moves do not reach the divisibility partition"

    rearranged = build_sparse_matrix(moved, spec)
    square = build_square_matrix(spec)
    assert rearranged.row_label_map() == square.row_label_map(), \
        "rearranged matrix differs from the square construction"

    raw = build_sparse_matrix(result.partition, spec)
    rng = random.Random(seed)
    for trial in range(100):
        s = common_zero_specialization(spec, _random_point(rng),
                                       rng_seed=seed + trial)
        assert det_specialized(raw, s) == 0, f"raw matrix trial {trial}"
    ok, witness = nonzero_random_probe(raw, spec, seed=seed)
    assert ok, "raw LP matrix vanished on ten random specializations"
    return {"partition_sizes": list(result.partition.sizes()),
            "moves": len(moves),
            "nonzero_witness": witness}


# --- criterion 8 -------------------------------------------------------------

def check_basis_certification(spec: SystemSpec, seed: int) -> Dict[str, object]:
    # each decomposition grc_partition prints, checked on the kept integer
    # point system, where b' = D b(q): so the solver's objective is D times
    # the LP's
    system, points = scanned(spec, DEFAULT_PERTURBATION)
    A, c, D = system.A, costs(system.vertices, DEFAULT_LIFTINGS), system.D
    assert lp.matrix_rank(A) == 7
    cols = next(columns for case, bid, columns in CASE_BASES if bid == "1.1")
    assert lp.matrix_rank([[row[j] for j in cols] for row in A]) == 7
    assignments = grc_partition(spec).assignments
    for q in points:
        a = assignments[q]
        assert min(a.lam) >= 0, f"{q}: lambda has a negative entry"
        assert a.lam[var_index(a.case, a.vertex_index)] == 1, \
            f"{q}: lambda does not pin vertex {a.vertex_index} of block {a.case}"
        assert [D * sum(map(mul, row, a.lam)) for row in A] == system.rhs(q), \
            f"{q}: lambda is not a decomposition of the point"
        best = lp.simplex(A, system.rhs(q), c)
        assert D * sum(map(mul, c, a.lam)) == D * a.objective == best.objective, \
            f"{q}: objective {a.objective} differs from the solver's {best.objective / D}"
    return {"points": len(points),
            "bases_used": sorted({a.basis_id for a in assignments.values()})}


# --- criterion 9 -------------------------------------------------------------

def check_oracle(spec: SystemSpec, seed: int) -> Dict[str, object]:
    matrix = build_square_matrix(spec)
    candidate = eliminate_iterated(spec)
    assert not candidate.is_zero()
    rng = random.Random(seed)
    for trial in range(100):
        s = common_zero_specialization(spec, _random_point(rng),
                                       rng_seed=seed + trial)
        v_oracle = candidate.evaluate(s)
        v_det = det_specialized(matrix, s)
        assert v_oracle == 0 and v_det == 0, \
            f"trial {trial}: oracle {v_oracle}, det {v_det}"
    generic = random_specialization(spec, seed + 424242)
    assert candidate.evaluate(generic) != 0
    assert det_specialized(matrix, generic) != 0
    return {"trials": 100, "oracle_terms": len(candidate)}


# suite name -> (report name, degree pairs, criterion); `all` runs every suite
SUITES: Dict[str, Tuple[str, tuple, Callable[..., Dict[str, object]]]] = {
    "sizes": ("sizes", (None,), check_sizes),
    "carra-ferro": ("carra-ferro", ((2, 2),), check_carra_ferro),
    "certificate": ("certificate", CERTIFICATE_SPECS, check_certificate),
    "vanishing": ("vanishing", VANISHING_SPECS + KERNEL_VECTOR_SPECS,
                  check_vanishing),
    "nonvanishing": ("nonvanishing", VANISHING_SPECS, check_nonvanishing),
    "linear": ("linear-case", ((1, 1),), check_linear_case),
    "lp-partition": ("lp-partition", LP_SPECS, check_lp_partition),
    "basis": ("basis-certification", LP_SPECS, check_basis_certification),
    "oracle": ("oracle", ((1, 1),), check_oracle),
}


def run_checks(suite: str = "all", seed: int = 0) -> List[CheckReport]:
    """Run one named suite, or every suite."""
    if suite == "all":
        selected = list(SUITES.values())
    elif suite in SUITES:
        selected = [SUITES[suite]]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(['all', *sorted(SUITES)])}")
    reports = [_report(name, d, criterion, seed)
               for name, pairs, criterion in selected for d in pairs]
    reports.sort(key=lambda r: (r.name, r.spec or (0, 0)))
    return reports
