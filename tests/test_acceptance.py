"""Acceptance gate: one test per criterion, at the stated budget.

Every criterion runs through the same named suites the CLI exposes, prints
one pass/fail line, and asserts both the mathematical content (inside the
suite) and the wall-clock budget the criterion states.  All value checks
are exact; there are no numeric tolerances anywhere.

Each suite's reports are pinned at seed 0: the sha256 of their names, specs,
statuses and witnesses, so a change to the code that runs the suites cannot
change what they report.
"""

import hashlib
import json

import pytest

from diffres import run_checks

WITNESS_PINS = {
    "sizes": "05a30cda8c41d4e3b58fc951ee22a268895e0b59586a27efdc85d068776927fe",
    "carra-ferro": "10c11454e1e9a16965c556effd05e8812c09262cb37fda5f4aead326857fc13b",
    "certificate": "ac35b4ec3f231d94cb379b33e01997525a3450b89495fc03f2ff9c4ea6279af1",
    "vanishing": "55512af8f10e3117384c96a201ae92aa66f59d45aa1b27b18ec2668294852c7a",
    "nonvanishing": "e4f41667555a37b0f177ed22b8f6cfdcd4a4460ae9b0f9791b2c75f6866ad93a",
    "linear": "f6874ceb345144227bf31fc58a9afa368cea9ded3ebda1b056d6c400af671fb8",
    "lp-partition": "ce277b1f77a1fc8b60e4626af2bfc0abe09a38448fd13dfd7fad50c7e8627634",
    "basis": "4783f369031c41eab37d2878b2d691dc4b554ec17dff950d8ce77b75d02f7f68",
    "oracle": "fa7ec3e4c59edf16b577eae7b02901fdd9d026de7165bfaa268dcf6bad066ec4",
}


def _witness_digest(reports) -> str:
    blob = json.dumps([[r.name, r.spec, r.status, r.witness] for r in reports],
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run(suite: str, budget: float):
    reports = run_checks(suite, seed=0)
    total = 0.0
    for report in reports:
        print(report.line())
        total += report.runtime
    failures = [r for r in reports if not r.passed]
    assert not failures, "; ".join(
        f"{r.name} {r.spec}: {r.witness.get('error')}" for r in failures)
    assert total < budget, f"suite {suite} took {total:.1f}s (budget {budget}s)"
    assert _witness_digest(reports) == WITNESS_PINS[suite]
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


@pytest.mark.parametrize("forge", [lambda c: -c, lambda c: 0 * c],
                         ids=["negated", "zero"])
def test_criterion_3_fails_on_a_wrong_coefficient(monkeypatch, forge):
    from diffres import checks
    certify = checks.certify

    def forged(spec):
        transformed, cert = certify(spec)
        return transformed, cert._replace(coefficient=forge(cert.coefficient))
    monkeypatch.setattr(checks, "certify", forged)
    by_spec = {r.spec: r for r in run_checks("certificate", seed=0)}
    for d in ((1, 2), (2, 2)):
        wrong = forge(certify(d)[1].coefficient)
        assert by_spec[d].status == "fail"
        assert by_spec[d].witness == {
            "error": f"unique-monomial coefficient {wrong} != sign * d1^n1"}


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
    by_spec = {r.spec: r for r in reports}
    assert set(by_spec) == {(1, 2), (2, 2), (2, 3), (3, 3)}
    assert by_spec[(2, 2)].witness["partition_sizes"] == [6, 10, 8, 12]


def test_criterion_7_reference_report_is_unchanged():
    """The (2,2) report, with the moves derived, is the one the table of
    eight moves gave: its digest is the suite's pin from when (2,2) was the
    suite's only pair."""
    report = next(r for r in run_checks("lp-partition", seed=0) if r.spec == (2, 2))
    assert report.witness["moves"] == 8
    assert (_witness_digest([report])
            == "62d0776c4c42c29dd8e033e3a1fdf7083c30286e5a2400121796fa01ea612d9d")


def test_criterion_8_basis_certification():
    reports = _run("basis", budget=60.0)
    assert reports[0].witness["points"] == 36


# the criterion-8 report, less its runtime, beyond the suite's one pair: two
# passes and the first uncovered point where the catalog runs out
BASIS_REPORT_PINS = {
    (1, 1): "e26cec21f315b61141c0289fb4798c15944a2cc39a1e9065b635e52ca873b533",
    (1, 2): "b2fc456979ed02af70e1fca74549befa6b8ae74825d8a386173bbbf7ce38e4a4",
    (2, 3): "d42bf466ab95bf5c5edaa565a5d97d5bee2dff373049bc07db520756d0dc14a2",
    (3, 3): "60251260c26a8691bbede5f67a227d717937c12b4257425a490bc76abf376cd3",
}


@pytest.mark.parametrize("d", sorted(BASIS_REPORT_PINS))
def test_criterion_8_reports_are_pinned_at_other_degrees(d):
    from diffres.checks import _report, check_basis_certification
    r = _report("basis-certification", d, check_basis_certification, 0)
    blob = json.dumps([r.name, r.spec, r.status, r.witness],
                      sort_keys=True, default=str)
    assert hashlib.sha256(blob.encode()).hexdigest() == BASIS_REPORT_PINS[d], \
        (r.status, r.witness)


def test_criterion_9_oracle_consistency():
    _run("oracle", budget=30.0)
