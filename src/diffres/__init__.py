"""Matrix constructions for the elimination theory of two generic
first-order differential polynomials, with exact verification throughout.

The package builds the square matrix whose determinant carries the
differential resultant, the larger rectangular construction it improves on,
a transversal certificate that the determinant is not identically zero, and
the sparse-resultant route that recovers the same matrix from exact linear
programs over lifted Newton polytopes.  All arithmetic is over arbitrary
precision rationals; nothing is ever rounded.

Names load on first use.  `import diffres` imports no submodule: each name
of `__all__` is looked up in `_EXPORTS`, its submodule is imported when the
name is first read (`diffres.SymPoly`, `from diffres import certify`), and
the value is kept in the package namespace from then on.  The submodules
themselves (`diffres.sparse`, `from diffres import lp`) load the same way.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": ("CapExceeded", "CertificateFailure", "ClosureViolation",
               "DegreeZero", "DiffresError", "DivisionByZero", "IllegalMove",
               "Infeasible", "IntermediateZero", "InvalidPerturbation",
               "NoVertexOptimum", "NotDivisible", "Unbounded",
               "UnassignedSymbol"),
    "symbols": ("CoeffSymbol", "parse_symbol"),
    "sympoly": ("Monomial", "Specialization", "SymPoly", "parse_sympoly"),
    "diffsys": ("DiffPoly", "SystemSpec", "YMonomial", "delta", "generic_poly",
                "generic_system", "system_symbols", "ym_render"),
    "monomials": ("MainMonomials", "MonomialSet", "Partition", "bset",
                  "closed_form_partition", "closed_form_sets", "column_set",
                  "default_main_monomials", "multiplier_sizes",
                  "partition_divisibility"),
    "output": (),
    "matrices": ("PolyMatrix", "RowLabel", "build_carra_ferro",
                 "build_sparse_matrix", "build_square_matrix",
                 "carra_ferro_shape", "zero_columns"),
    "certificate": ("Certificate", "certify", "eliminate",
                    "ranking_specialization", "transform_12"),
    "determinant": ("common_zero_specialization", "crt_combine", "det_laplace",
                    "det_modular", "det_specialized", "det_symbolic",
                    "hadamard_bound", "kernel_certifies", "nonzero_random_probe",
                    "random_specialization"),
    "lp": (),
    "lattice": ("DEFAULT_PERTURBATION", "lattice_points", "vertex_lists"),
    "sparse": ("DEFAULT_LIFTINGS", "GrcAssignment", "GrcPartitionResult",
               "Liftings", "MOVES_TO_DIVISIBILITY_2_2", "apply_moves",
               "grc_partition", "validate_liftings"),
    "oracle": ("eliminate_iterated", "sylvester_resultant"),
    "checks": ("CheckReport", "run_checks"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
