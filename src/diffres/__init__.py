"""Matrix constructions for the elimination theory of two generic
first-order differential polynomials, with exact verification throughout.

The package builds the square matrix whose determinant carries the
differential resultant, the larger rectangular construction it improves on,
a transversal certificate that the determinant is not identically zero, and
the sparse-resultant route that recovers the same matrix from exact linear
programs over lifted Newton polytopes.  All arithmetic is over arbitrary
precision rationals; nothing is ever rounded.
"""

from .errors import (CapExceeded, CertificateFailure, ClosureViolation,
                     DegreeZero, DiffresError, DivisionByZero, IllegalMove,
                     Infeasible, IntermediateZero, InvalidPerturbation,
                     NoVertexOptimum, NotDivisible, SingularBasis, Unbounded,
                     UnassignedSymbol)
from .symbols import CoeffSymbol, parse_symbol
from .sympoly import Monomial, Specialization, SymPoly, parse_sympoly
from .diffsys import (DiffPoly, SystemSpec, YMonomial, delta, generic_poly,
                      generic_system, support, system_symbols, ym_render)
from .monomials import (MainMonomials, MonomialSet, Partition, bset,
                        closed_form_partition, closed_form_sets, column_set,
                        default_main_monomials, multiplier_sizes,
                        partition_divisibility)
from .matrices import (PolyMatrix, RowLabel, build_carra_ferro,
                       build_sparse_matrix, build_square_matrix,
                       carra_ferro_shape, zero_columns)
from .certificate import (Certificate, certify, eliminate,
                          ranking_specialization, transform_12,
                          unique_monomial_coefficient)
from .determinant import (common_zero_specialization, crt_combine,
                          det_laplace, det_modular, det_specialized,
                          det_symbolic, hadamard_bound, kernel_certifies,
                          nonzero_random_probe, random_specialization)
from .sparse import (DEFAULT_LIFTINGS, DEFAULT_PERTURBATION, GrcAssignment,
                     GrcPartitionResult, Liftings, LPInstance,
                     MOVES_TO_DIVISIBILITY_2_2, Polytope, apply_moves,
                     build_lp, grc_partition, lattice_points, newton_data,
                     simplex_solve, validate_liftings, vertex_lists)
from .oracle import eliminate_iterated, sylvester_resultant
from .checks import CheckReport, run_checks

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
