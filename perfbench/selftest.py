"""The benchmark's checks must reject corrupted outputs.

Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

Each test produces a real output with the CLI, shows that its check passes,
corrupts one value and shows that the check then fails.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from shiftsieve.cli import main as cli_main  # noqa: E402


def run_cli(tmp_path, *argv) -> list[dict]:
    out = tmp_path / "out.csv"
    assert cli_main([*argv, "--out", str(out)]) == 0
    return checks.read_rows(str(out), "csv")


@pytest.mark.parametrize("cutoff", [300, 1000])
def test_flipped_eigenform_coefficient_is_caught(tmp_path, cutoff):
    rows = run_cli(tmp_path, "eigenform", "--weight", "12", "--cutoff", str(cutoff))
    a, lam = checks.parse_eigenform(rows)
    assert checks.check_eigenform(a, lam, 12, cutoff, random.Random(0)) == []
    for n in (2, 97, cutoff - 1):
        for wrong in (-a[n], a[n] + 1):
            bad = list(a)
            bad[n] = wrong
            assert checks.check_eigenform(bad, lam, 12, cutoff, random.Random(0)), (n, wrong)


def test_changed_s_total_is_caught(tmp_path):
    rows = run_cli(tmp_path, "shifted", "--function", "tau2", "--x", "1000", "--ell", "1",
                   "--epsilon", "0.5")
    table = checks.tau_m_table(2, 1001)
    assert checks.check_shifted(rows[0], table, 1000.0, 1, 0.5, exact=True) == []
    bad = dict(rows[0], s_total=repr(float(rows[0]["s_total"]) + 1))
    assert checks.check_shifted(bad, table, 1000.0, 1, 0.5, exact=True)


def test_wrong_bessel_value_is_caught(tmp_path):
    rows = run_cli(tmp_path, "specfun", "bessel", "--t", "1,5", "--w", "0.5,3")
    assert checks.check_bessel(rows) == []
    bad = [dict(row) for row in rows]
    bad[1]["value"] = repr(float(bad[1]["value"]) * (1 + 1e-6))
    assert checks.check_bessel(bad)


def test_perturbed_aell_value_is_caught(tmp_path):
    rows = run_cli(tmp_path, "specfun", "aell", "--ell", "2", "--y", "0.3")
    assert checks.check_aell(rows, 2, 0.3) == []
    bad = [dict(rows[0], value=repr(float(rows[0]["value"]) + 1e-4))]
    assert checks.check_aell(bad, 2, 0.3)


def test_rejection_check_wants_exit_1_and_one_line():
    assert checks.check_one_error_line(1, "error: x must be finite\n", None) == []
    assert checks.check_one_error_line(0, "", None)
    assert checks.check_one_error_line(1, "one\ntwo\n", None)
    assert checks.check_one_error_line(None, "", OverflowError("inf"))


def test_independent_tables_match_definitions():
    spf_tau = checks.tau_m_table(3, 200)
    for n in range(1, 201):
        brute = sum(1 for d in range(1, n + 1) if n % d == 0
                    for e in range(1, n // d + 1) if (n // d) % e == 0)
        assert spf_tau[n] == brute
    smooth = checks.smooth_parts(200, 7)
    for n in range(1, 201):
        part = 1
        for p, e in checks.factor(n):
            part *= p**e if p <= 7 else 1
        assert smooth[n] == part
    assert checks.eigenform_reference(12, 10)[1:] == (
        1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    for name in workloads.WORKLOADS:
        assert workloads.make_jobs(name, 7) == workloads.make_jobs(name, 7)


def test_csv_and_json_outputs_pass_alike(tmp_path):
    argv = ["specfun", "gammaratio", "--k", "100", "--s", "0,1,1+1j"]
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert cli_main(argv + ["--out", str(out), "--format", fmt]) == 0
        rows = checks.read_rows(str(out), fmt)
        assert len(rows) == 3 and checks.check_gammaratio(rows) == []
