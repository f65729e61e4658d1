"""Acceptance suite: the thirteen end-to-end criteria with runtime budgets.

Each test runs one criterion from homtrees.suites, prints a one-line
pass/fail verdict with the elapsed time (visible under ``pytest -s``, or
in the captured output when a test fails), and asserts both the verdict
and the budget.  This file sorts first alphabetically among the test
modules, so the timings below are cold-cache timings.  The last test
pins the exact stdout of `homtrees --machine verify --suite all`, printed
from the reports the criteria tests made.
"""

import hashlib
import time

from homtrees import cli, suites

# seconds, per criterion
BUDGETS = {
    1: 1.0,
    2: 1.0,
    3: 30.0,
    4: 120.0,
    5: 60.0,
    6: 120.0,
    7: 60.0,
    8: 1.0,
    9: 120.0,
    10: 60.0,
    11: 300.0,
    12: 60.0,
    13: 60.0,
}

# sha256 of `homtrees --machine verify --suite all` stdout, recorded at
# the commit before U𝔤 levels contracted their binomial rows
VERIFY_ALL_SHA256 = "b79f3d1be39aa0d25ed84db59f54d74f19d8bdcccfee209d8c5ac18d8c4156b3"

REPORTS = {}  # criterion number -> its report, for the verify pin


def _run(number):
    budget = BUDGETS[number]
    start = time.perf_counter()
    report = REPORTS[number] = suites.run_criterion(number)
    elapsed = time.perf_counter() - start
    status = "pass" if report.ok else "FAIL"
    print(
        "criterion %2d [%s] %6.2fs (budget %ds): %s"
        % (number, status, elapsed, budget, report.title)
    )
    for check in report.checks:
        if check.ok:
            mark = "pass"
        elif check.inconclusive:
            mark = "inconclusive"
        else:
            mark = "FAIL"
        line = "    [%s] %s" % (mark, check.name)
        if check.witness and not check.ok:
            line += " -- " + check.witness
        print(line)
    assert report.ok, "criterion %d failed" % number
    assert elapsed < budget, "criterion %d took %.2fs (budget %ds)" % (
        number,
        elapsed,
        budget,
    )


def test_criterion_01_catalan_counts():
    _run(1)


def test_criterion_02_s_homogeneity():
    _run(2)


def test_criterion_03_quotient_soundness():
    _run(3)


def test_criterion_04_indifference():
    _run(4)


def test_criterion_05_coproduct_binomials():
    _run(5)


def test_criterion_06_antipode_indices():
    _run(6)


def test_criterion_07_exponential_free():
    _run(7)


def test_criterion_08_no_completion():
    _run(8)


def test_criterion_09_classical_agreement():
    _run(9)


def test_criterion_10_alpha_zero():
    _run(10)


def test_criterion_11_exponential_ue():
    _run(11)


def test_criterion_12_functoriality():
    _run(12)


def test_criterion_13_convolution_laws():
    _run(13)


def test_verify_all_machine_stdout_is_pinned(monkeypatch, capsys):
    run_criterion = suites.run_criterion

    def reuse(number, escalation_cap=None):
        if escalation_cap is None and number in REPORTS:
            return REPORTS[number]
        return run_criterion(number, escalation_cap)

    monkeypatch.setattr(suites, "run_criterion", reuse)
    capsys.readouterr()
    assert cli.run(["--machine", "verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_ALL_SHA256
