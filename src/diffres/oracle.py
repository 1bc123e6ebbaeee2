"""Independent elimination oracle via iterated univariate resultants.

The variables are removed one at a time with Sylvester determinants, each of
which is an explicit combination of its two inputs, so the final
symbol-only polynomial vanishes wherever the whole system has a common
zero.  This route never touches the matrix construction it is used to
cross-check.
"""

from __future__ import annotations

from typing import Dict, List

from .determinant import det_laplace
from .errors import DegreeZero, IntermediateZero
from .diffsys import (DiffPoly, SystemSpec, YMonomial, delta, generic_system,
                      YM_ONE)
from .sympoly import SymPoly

VAR_INDEX = {"y": 0, "y1": 1, "y2": 2}


def coefficients_in(p: DiffPoly, var: str) -> List[DiffPoly]:
    """Coefficient list of p along one variable, constant term first."""
    axis = VAR_INDEX[var]
    degree = p.degree_in(axis)
    buckets: List[Dict[YMonomial, SymPoly]] = [dict() for _ in range(degree + 1)]
    for m, c in p.items():
        e = m[axis]
        rest = list(m)
        rest[axis] = 0
        buckets[e][YMonomial(*rest)] = c
    return [DiffPoly(b) for b in buckets]


def sylvester_resultant(p: DiffPoly, q: DiffPoly, var: str) -> DiffPoly:
    """Determinant of the Sylvester matrix of p and q in one variable."""
    if var not in VAR_INDEX:
        raise ValueError(f"unknown variable {var!r}")
    pc = coefficients_in(p, var)
    qc = coefficients_in(q, var)
    m, n = len(pc) - 1, len(qc) - 1
    if m <= 0 or n <= 0:
        raise DegreeZero(f"both inputs need positive degree in {var}")
    size = m + n
    zero = DiffPoly.zero()
    grid: List[List[DiffPoly]] = []
    for shift in range(n):
        row = [zero] * size
        for k, coeff in enumerate(reversed(pc)):   # leading coefficient first
            row[shift + k] = coeff
        grid.append(row)
    for shift in range(m):
        row = [zero] * size
        for k, coeff in enumerate(reversed(qc)):
            row[shift + k] = coeff
        grid.append(row)
    return det_laplace(grid)


def eliminate_iterated(spec: SystemSpec) -> SymPoly:
    """Chain the variables away: y2 first, then y1, then y.

    Returns a polynomial purely in the coefficient symbols.  Degrees (1, 1)
    only: term growth is explosive beyond them.  Raises IntermediateZero
    when a resultant collapses, which would mean two inputs share a factor.
    """
    spec = SystemSpec(*spec).validate()
    if (spec.d1, spec.d2) != (1, 1):
        raise ValueError("iterated elimination runs only for degrees (1, 1)")
    f1, f2 = generic_system(spec)
    df1, df2 = delta(f1), delta(f2)

    def checked(p: DiffPoly, stage: str) -> DiffPoly:
        if p.is_zero():
            raise IntermediateZero(f"resultant collapsed at stage {stage}")
        return p

    e1 = checked(sylvester_resultant(df1, df2, "y2"), "y2")
    e2 = checked(sylvester_resultant(f1, f2, "y1"), "y1 (base pair)")
    e3 = checked(sylvester_resultant(e1, f1, "y1"), "y1 (derived pair)")
    out = checked(sylvester_resultant(e2, e3, "y"), "y")
    if out.support_set() != (YM_ONE,):
        raise IntermediateZero("final stage still contains variables")
    return out.coefficient(YM_ONE)
