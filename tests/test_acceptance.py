"""Acceptance gate: one test per claim the package promises to uphold.

Each test prints a single `criterion NN [...]: PASS/FAIL` line, so a
verbose pytest run doubles as the acceptance report. Criteria 1..9 call
the suite checks directly with the pinned seed; criterion 10 runs the
CLI verifier twice in subprocesses and compares bytes.
"""

import hashlib
import json
import subprocess
import sys

from esakiakit.suite import (check_bound_arithmetic, check_canonical_colorings,
                             check_census_collapse, check_coarsest_oracle,
                             check_duality_sanity, check_excluded_middle,
                             check_generator_counts, check_ladder_schedules,
                             check_truncation_widths)

SEED = 42
# Digest of the `verify --suite paper --seed 42` report. Refactors must keep
# the report byte-identical; update this only with a deliberate change to
# what the suite reports.
VERIFY_SHA256 = \
    "55b67a7d2280f4ce0db49e5db4116b293f58c7f9d82323203f200d69d40c9a26"


def report(cid, name, passed):
    print(f"criterion {cid:2d} [{name}]: {'PASS' if passed else 'FAIL'}")


def test_criterion_01_truncation_widths():
    result = check_truncation_widths(SEED)
    report(1, "truncation widths", result["pass"])
    assert result["pass"], result


def test_criterion_02_canonical_colorings_strict():
    result = check_canonical_colorings(SEED)
    report(2, "canonical colorings strict", result["pass"])
    assert result["pass"], result


def test_criterion_03_ladder_schedules():
    result = check_ladder_schedules(SEED)
    report(3, "ladder schedules", result["pass"])
    assert result["pass"], result
    assert result["schedules"] == 200


def test_criterion_04_census_collapse():
    result = check_census_collapse(SEED)
    report(4, "census collapse", result["pass"])
    assert result["pass"], result
    assert result["partitions"] >= 50


def test_criterion_05_generator_count_equivalence():
    result = check_generator_counts(SEED)
    report(5, "generator count equivalence", result["pass"])
    assert result["pass"], result
    assert result["posets"] == 88


def test_criterion_06_excluded_middle_cardinality():
    result = check_excluded_middle(SEED)
    report(6, "excluded middle cardinality", result["pass"])
    assert result["pass"], result
    assert result["maximum"] == 3


def test_criterion_07_coarsest_partition_oracle():
    result = check_coarsest_oracle(SEED)
    report(7, "coarsest partition oracle", result["pass"])
    assert result["pass"], result
    assert result["mismatches"] == 0


def test_criterion_08_residuation_and_subalgebra_counts():
    result = check_duality_sanity(SEED)
    report(8, "residuation and subalgebra counts", result["pass"])
    assert result["pass"], result


def test_criterion_09_bound_arithmetic():
    result = check_bound_arithmetic(SEED)
    report(9, "bound arithmetic", result["pass"])
    assert result["pass"], result


def test_criterion_10_determinism():
    cmd = [sys.executable, "-m", "esakiakit.cli",
           "verify", "--suite", "paper", "--seed", str(SEED)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    passed = (first.returncode == 0 and second.returncode == 0
              and first.stdout and first.stdout == second.stdout)
    report(10, "determinism", bool(passed))
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["pass"] is True
    assert hashlib.sha256(first.stdout).hexdigest() == VERIFY_SHA256
