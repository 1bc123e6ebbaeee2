"""Tests of the benchmark's own checkers and span bookkeeping.

Run with `python -m pytest bench` from the root of the repository.  The
program is used as already imported; the one test that re-imports it checks
that a timed set-up puts the original modules back, so these tests leave the
package's modules untouched for any test that runs after them.
"""

import dataclasses
import json
import os
import random
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

from diffres import cli, determinant, matrices, sparse  # noqa: E402

PACKAGE = SimpleNamespace(determinant=determinant, matrices=matrices,
                          sparse=sparse, cli=cli)


# --- reference arithmetic against hand-computed values -----------------------

@pytest.mark.parametrize("rows,p,expected", [
    ([[2, 1], [1, 3]], 7, 5),
    ([[0, 1], [1, 0]], 11, 10),                          # pivot swap: det -1
    ([[1, 2], [2, 4]], 13, 0),                           # singular
    ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 7, 4),          # det -3
    ([[1, 0, 2, -1], [3, 0, 0, 5], [2, 1, 4, -3], [1, 0, 5, 0]], 7, 2),  # 30
    ([[1, 0, 2, -1], [3, 0, 0, 5], [2, 1, 4, -3], [1, 0, 5, 0]], 2 ** 61 - 1, 30),
])
def test_det_mod_p_hand_computed(rows, p, expected):
    assert refcheck.det_mod_p(rows, p) == expected


@pytest.mark.parametrize("rows,expected", [
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]], Fraction(5, 12)),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], -3),
    ([[1, 0, 2, -1], [3, 0, 0, 5], [2, 1, 4, -3], [1, 0, 5, 0]], 30),
    ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 1),
    ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 0, 5, 0]], 0),
])
def test_leibniz_det_hand_computed(rows, expected):
    grid = [[Fraction(v) for v in row] for row in rows]
    assert refcheck.leibniz_det(grid) == expected


def test_parse_poly_reads_rendered_text():
    terms = refcheck.parse_poly("-3/2*a(0,1)^2*b(1,0) + a(0,0)' - 7")
    values = {"a(0,1)": Fraction(2), "b(1,0)": Fraction(1, 3),
              "a(0,0)'": Fraction(5)}
    assert refcheck.eval_poly(terms, values) == Fraction(-3, 2) * 4 / 3 + 5 - 7
    assert [refcheck.term_degree(t) for t in terms] == [3, 1, 0]


def test_hand_written_1_1_matrix_matches_the_program():
    m = matrices.build_square_matrix((1, 1))
    rng = random.Random(5)
    for _ in range(3):
        s = determinant.random_specialization((1, 1), rng.getrandbits(30))
        values = {k: Fraction(v) for k, v in s.to_json().items()}
        assert refcheck.leibniz_det(refcheck.matrix_1_1(values)) == \
            determinant.det_specialized(m, s)


def test_column_set_and_shapes():
    assert len(refcheck.column_set(2, 2)) == refcheck.square_size(2, 2) == 36
    assert refcheck.carra_ferro_shape(2, 2) == (80, 56)
    assert [len(b) for b in refcheck.divisibility_partition(2, 2)] == [10, 10, 10, 6]


# --- a corrupted output is a failed op, not a passed one ----------------------

def _first(ops, kind, spec):
    return next(op for op in ops if op.kind == kind and op.spec == spec)


def test_det_sweep_counts_a_corrupted_determinant_as_failed():
    wl = workloads.DetSweep(PACKAGE, seed=3, seconds=1)
    ops = wl.setup()
    op = _first(ops, "random", (2, 3))
    zero_op = _first(ops, "common-zero", (2, 3))
    good = wl.run(op)
    assert run.check_all(wl, [op, zero_op], [good, Fraction(0)]) == (0, 0)
    assert run.check_all(wl, [op, zero_op], [good + 1, Fraction(1)]) == (2, 2)


def test_lp_partition_counts_corrupted_lambdas_as_failed():
    wl = workloads.LpPartition(PACKAGE, seed=3, seconds=1)
    lift = sparse.Liftings(*workloads.draw_liftings(random.Random(3)))
    op = workloads.Op("drawn", (1, 1), lift)
    good = wl.run(op)
    assert run.check_all(wl, [op], [good]) == (0, 0)
    q, a = next(iter(good.assignments.items()))
    lam = list(a.lam)
    lam[0], lam[1] = lam[1], lam[0] + 1
    corrupted = dataclasses.replace(
        good, assignments={**good.assignments,
                           q: dataclasses.replace(a, lam=tuple(lam))})
    assert run.check_all(wl, [op], [corrupted]) == (1, 1)


def test_symbolic_counts_corrupted_cli_output_as_failed():
    wl = workloads.Symbolic(PACKAGE, seed=3, seconds=1)
    cert = workloads.Op("certificate", (2, 2),
                        ["certificate", "--d1", "2", "--d2", "2"])
    det = workloads.Op("det", (1, 1), ["det", "--d1", "1", "--d2", "1",
                                       "--mode", "symbolic"])
    outputs = [wl.run(cert), wl.run(det)]
    assert run.check_all(wl, [cert, det], outputs) == (0, 0)
    cert_payload, det_payload = (json.loads(text) for _, text in outputs)
    cert_payload["coefficient"] = str(3 * Fraction(cert_payload["coefficient"]))
    det_payload["value"] += " + 1"
    bad_cert = (0, json.dumps(cert_payload))
    bad_det = (0, json.dumps(det_payload))
    assert run.check_all(wl, [cert, det], [bad_cert, bad_det]) == (2, 2)
    assert run.check_all(wl, [cert], [(1, outputs[0][1])]) == (1, 1)


def test_a_raising_op_is_failed_but_not_wrong():
    wl = workloads.Symbolic(PACKAGE, seed=3, seconds=1)
    op = workloads.Op("common-zero", (1, 1), None)
    assert run.check_all(wl, [op], [run.OpError(RuntimeError("boom"))]) == (1, 0)


def test_a_timed_set_up_leaves_the_running_modules_in_place():
    before = run.package_modules()
    assert run.timed_set_up(workloads.LpPartition, 3, 1) > 0
    after = run.package_modules()
    assert after.keys() == before.keys()
    assert all(after[name] is module for name, module in before.items())


# --- span bookkeeping ---------------------------------------------------------

def test_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.wrap("lp.solve_square", leaf)

    def outer():
        time.sleep(0.002)
        traced_leaf()
        traced_leaf()

    tracer.wrap("lp.verify_basis", outer)()
    stats, by_parent = tracer.summary()
    assert stats["lp.solve_square"][0] == 2
    assert by_parent[("lp.solve_square", "lp.verify_basis")] == 2
    total = tracer.end[0] - tracer.start[0]
    assert stats["lp.verify_basis"][1] + stats["lp.solve_square"][1] == total
    assert stats["lp.verify_basis"][1] < total - 4_000_000
