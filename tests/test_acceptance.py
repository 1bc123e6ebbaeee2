"""Acceptance gate: one test per criterion, at the stated budget.

Every criterion runs through the same named suites the CLI exposes, prints
one pass/fail line, and asserts both the mathematical content (inside the
suite) and the wall-clock budget the criterion states.  All value checks
are exact; there are no numeric tolerances anywhere.

The final criterion (deep expansion of the degree-two determinant with
factor extraction) is optional by its own wording and runs only under
``pytest -m stretch``.
"""

import pytest

from diffres import run_checks


def _run(suite: str, budget: float, seed: int = 0):
    reports = run_checks(suite, seed=seed)
    total = 0.0
    for report in reports:
        print(report.line())
        total += report.runtime
    failures = [r for r in reports if not r.passed]
    assert not failures, "; ".join(
        f"{r.name} {r.spec}: {r.witness.get('error')}" for r in failures)
    assert total < budget, f"suite {suite} took {total:.1f}s (budget {budget}s)"
    return reports


def test_criterion_1_size_identities():
    _run("sizes", budget=1.0)


def test_criterion_2_rectangular_counterexample():
    _run("carra-ferro", budget=5.0)


def test_criterion_3_uniqueness_certificate():
    reports = _run("certificate", budget=50.0)
    assert all(r.runtime < 10.0 for r in reports)
    by_spec = {r.spec: r for r in reports}
    assert set(by_spec) == {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)}
    assert by_spec[(2, 2)].witness["counts"] == [10, 10, 10, 6]


def test_criterion_4_vanishing_property():
    reports = _run("vanishing", budget=60.0)
    methods = {r.spec: r.witness["method"] for r in reports}
    assert methods == {(1, 1): "elimination", (1, 2): "elimination",
                       (2, 2): "elimination", (2, 3): "elimination",
                       (3, 3): "kernel-vector", (4, 4): "kernel-vector",
                       (5, 5): "kernel-vector"}
    assert all(r.witness["trials"] == 100 for r in reports)


def test_criterion_5_nonvanishing_property():
    _run("nonvanishing", budget=10.0)


def test_criterion_6_linear_ground_truth():
    reports = _run("linear", budget=1.0)
    assert reports[0].witness["degree"] == 4


def test_criterion_7_lp_partition_reproduction():
    reports = _run("lp-partition", budget=120.0)
    assert reports[0].witness["partition_sizes"] == [6, 10, 8, 12]


def test_criterion_8_basis_certification():
    reports = _run("basis", budget=60.0)
    assert reports[0].witness["points"] == 36


def test_criterion_9_oracle_consistency():
    _run("oracle", budget=30.0)


@pytest.mark.stretch
def test_criterion_10_stretch_factor_extraction():
    # Optional by its own statement; the expansion outgrows this
    # implementation's reach, and a budgeted failure here does not fail the
    # build.  Run explicitly with: pytest -m stretch
    reports = run_checks("stretch", seed=0)
    for report in reports:
        print(report.line())
    assert all(r.passed for r in reports)
