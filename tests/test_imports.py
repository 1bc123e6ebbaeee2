"""Start-up: which modules each entry point imports, and the package's names.

Each import graph is read in a fresh interpreter, since the test process has
long since imported every module."""

import importlib
import json
import subprocess
import sys

import pytest

import diffres

# the package's names, pinned, by the submodule each comes from ("lp"
# re-exports only itself)
EXPORTS = {
    "errors": ["CapExceeded", "CertificateFailure", "ClosureViolation",
               "DegreeZero", "DiffresError", "DivisionByZero", "IllegalMove",
               "Infeasible", "IntermediateZero", "InvalidPerturbation",
               "NoVertexOptimum", "NotDivisible", "Unbounded",
               "UnassignedSymbol"],
    "symbols": ["CoeffSymbol", "parse_symbol"],
    "sympoly": ["Monomial", "Specialization", "SymPoly", "parse_sympoly"],
    "diffsys": ["DiffPoly", "SystemSpec", "YMonomial", "delta", "generic_poly",
                "generic_system", "system_symbols", "ym_render"],
    "monomials": ["MainMonomials", "MonomialSet", "Partition", "bset",
                  "closed_form_partition", "closed_form_sets", "column_set",
                  "default_main_monomials", "multiplier_sizes",
                  "partition_divisibility"],
    "output": [],
    "matrices": ["PolyMatrix", "RowLabel", "build_carra_ferro",
                 "build_sparse_matrix", "build_square_matrix",
                 "carra_ferro_shape", "zero_columns"],
    "certificate": ["Certificate", "certify", "eliminate",
                    "ranking_specialization", "transform_12"],
    "determinant": ["common_zero_specialization", "crt_combine", "det_laplace",
                    "det_modular", "det_specialized", "det_symbolic",
                    "hadamard_bound", "kernel_certifies", "nonzero_random_probe",
                    "random_specialization"],
    "lp": [],
    "lattice": ["DEFAULT_PERTURBATION", "lattice_points", "vertex_lists"],
    "sparse": ["DEFAULT_LIFTINGS", "GrcAssignment", "GrcPartitionResult",
               "Liftings", "MOVES_TO_DIVISIBILITY_2_2", "apply_moves",
               "grc_partition", "validate_liftings"],
    "oracle": ["eliminate_iterated", "sylvester_resultant"],
    "checks": ["CheckReport", "run_checks"],
}


def loaded_by(code: str) -> set:
    """The modules that running `code` in a fresh interpreter adds to
    sys.modules."""
    script = ("import json, sys\nbefore = set(sys.modules)\n" + code +
              "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_package_imports_no_submodule():
    loaded = loaded_by("import diffres")
    assert "diffres" in loaded
    assert {m for m in loaded if m.startswith("diffres.")} == set()


def test_a_build_imports_neither_the_lp_layers_nor_dataclasses():
    loaded = loaded_by("from diffres import cli\n"
                       "assert cli.main(['build', '--d1', '1', '--d2', '1']) == 0")
    assert "diffres.matrices" in loaded
    unwanted = {"diffres.sparse", "diffres.lp", "diffres.checks",
                "dataclasses"}
    assert loaded & unwanted == set()


def test_the_cli_import_brings_the_traced_layers():
    """A tracer that wraps the layers right after importing the package the
    way the benchmark does finds `certificate` and `oracle` loaded."""
    loaded = loaded_by("import importlib\nimport diffres\n"
                       "for s in ('determinant', 'matrices', 'sparse', 'cli'):\n"
                       "    importlib.import_module('diffres.' + s)")
    assert {"diffres.certificate", "diffres.oracle"} <= loaded


def test_every_exported_name_is_its_module_attribute():
    pinned = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])
    assert len(pinned) == 89
    assert diffres.__all__ == pinned
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"diffres.{module}")
        assert getattr(diffres, module) is source
        for name in names:
            assert getattr(diffres, name) is getattr(source, name), name
    assert set(diffres.__all__) <= set(dir(diffres))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diffres.no_such_name
