import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from shiftsieve import arith, cli, largesieve, qexpansion, shifted, specfun

from .oracles import aell_unfold


def run(tmp_path, name, args):
    out = tmp_path / name
    rc = cli.main(args + ["--out", str(out)])
    return rc, out


class TestEigenformCommand:
    def test_csv_rows(self, tmp_path):
        rc, out = run(tmp_path, "eig.csv", ["eigenform", "--weight", "12", "--cutoff", "10"])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,a_f,lambda"
        assert len(lines) == 11
        assert lines[2].startswith("2,-24,")

    def test_single_row(self, tmp_path):
        rc, out = run(tmp_path, "one.csv", ["eigenform", "--weight", "12", "--cutoff", "1"])
        assert rc == 0
        assert out.read_text().strip().split("\n")[1] == "1,1,1"

    def test_unsupported_weight(self, tmp_path):
        rc, _ = run(tmp_path, "x.csv", ["eigenform", "--weight", "24", "--cutoff", "10"])
        assert rc == 1

    def test_rows_match_per_n_methods(self, tmp_path):
        # the table is written from one eigenvalue array; each row must read
        # as it did when built from form.a(n) and form.eigenvalue(n)
        for k in qexpansion.SUPPORTED_EIGEN_WEIGHTS:
            rc, out = run(tmp_path, f"eig{k}.csv",
                          ["eigenform", "--weight", str(k), "--cutoff", "400"])
            assert rc == 0
            form = qexpansion.eigenform(k, 400)
            expected = ["n,a_f,lambda"] + [
                f"{n},{form.a(n)},{form.eigenvalue(n):.15g}" for n in range(1, 401)
            ]
            assert out.read_text().split("\n")[:-1] == expected

    def test_json_format(self, tmp_path):
        rc, out = run(
            tmp_path, "eig.json",
            ["eigenform", "--weight", "12", "--cutoff", "3", "--format", "json"],
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["rows"][1]["a_f"] == "-24"


class TestShiftedCommand:
    def test_tau2_report(self, tmp_path):
        rc, out = run(
            tmp_path, "sh.csv",
            ["shifted", "--function", "tau2", "--x", "1000", "--ell", "1", "--epsilon", "0.5"],
        )
        assert rc == 0
        header, row = out.read_text().strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["s_total"]) == 39486.0
        assert float(cells["s_small"]) == 372.0

    def test_weight_variant(self, tmp_path):
        rc, out = run(
            tmp_path, "shw.csv",
            ["shifted", "--weight", "12", "--x", "500", "--ell", "2", "--epsilon", "0.3"],
        )
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 2

    def test_requires_exactly_one_source(self, tmp_path):
        rc, _ = run(
            tmp_path, "bad.csv",
            ["shifted", "--x", "100", "--ell", "1", "--epsilon", "0.5"],
        )
        assert rc == 1
        rc, _ = run(
            tmp_path, "bad2.csv",
            ["shifted", "--weight", "12", "--function", "tau2", "--x", "100",
             "--ell", "1", "--epsilon", "0.5"],
        )
        assert rc == 1

    def test_bad_shift(self, tmp_path):
        rc, _ = run(
            tmp_path, "bad3.csv",
            ["shifted", "--function", "tau2", "--x", "100", "--ell", "0", "--epsilon", "0.5"],
        )
        assert rc == 1


class TestSievecheckCommand:
    def test_all_hold(self, tmp_path):
        rc, out = run(tmp_path, "sc.csv", ["sievecheck", "--count", "25", "--seed", "42"])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 26
        assert all(line.endswith("true") for line in lines[1:])

    def test_corrupted_omega_exits_two(self, tmp_path, monkeypatch):
        # inflate the reported class counts without striking more residues:
        # H is overstated, the bound collapses, and the violation must trip
        real = largesieve.random_admissible_system

        def corrupted(rng, n_max=100_000, z_max=50):
            sys_i, q = real(rng, n_max=n_max, z_max=z_max)
            fake_omega = {p: tuple(range(p - 1)) for p in sys_i.primes}
            bad = largesieve.OmegaSystem(
                n_range=sys_i.n_range, primes=sys_i.primes, omega=fake_omega,
                a=sys_i.a, a_ell=sys_i.a_ell, w=sys_i.w, v=sys_i.v, r=sys_i.r,
                x=sys_i.x, z=sys_i.z, m_start=sys_i.m_start,
            )
            # keep the struck classes as reported so the brute count stays put
            sifted = largesieve.sift_bruteforce(sys_i)
            monkeypatch.setattr(largesieve, "sift_bruteforce", lambda _s: sifted)
            return bad, q

        monkeypatch.setattr(largesieve, "random_admissible_system", corrupted)
        rc, out = run(tmp_path, "scbad.csv", ["sievecheck", "--count", "1", "--seed", "1"])
        assert rc == 2
        assert "false" in out.read_text()


class TestMkCommand:
    def test_report(self, tmp_path):
        rc, out = run(tmp_path, "mk.csv", ["mk", "--weight", "12", "--cutoff", "2000"])
        assert rc == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "weight,cutoff,L_sym2,gap,M_k,sqrt_M_k,Y_star,ems_lhs,ems_rhs"
        assert row.startswith("12,2000,")


class TestSpecfunCommand:
    def test_bessel_grid(self, tmp_path):
        rc, out = run(
            tmp_path, "b.csv", ["specfun", "bessel", "--t", "0,1", "--w", "0.5,1"],
        )
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 5

    def test_bessel_bound_ratio_is_the_library_check(self, tmp_path):
        rc, out = run(tmp_path, "b.csv", ["specfun", "bessel", "--t", "0,1,5",
                                          "--w", "0.1,1,10", "--A", "2", "--eps", "0.1"])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().split()[1:]]
        assert len(rows) == 9
        for t, w, _, ratio in rows:
            check = specfun.bessel_bound_check(float(t), float(w), A=2, eps=0.1)
            assert check.holds and float(ratio) == pytest.approx(check.ratio, rel=1e-14)

    def test_aell_bound_ratio_at_A_and_eps(self, tmp_path):
        rc, out = run(tmp_path, "a.csv", ["specfun", "aell", "--ell", "1,6", "--y", "0.3",
                                          "--A", "2", "--eps", "0.3"])
        assert rc == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().split()[1:]]
        assert len(rows) == 2
        for (ell, y, value, ratio), tau in zip(rows, (1, 4)):
            scale = 1.0 / (ell * y)
            bound = tau * y**0.5 * scale**2 * (1.0 + scale) ** 0.3
            assert ratio == pytest.approx(abs(value) / bound, rel=1e-13)

    def test_aell_at_large_w_against_unfolding(self, tmp_path):
        # the spectral stop rule wrote 3.25e-18 and -2.63e-18 here, with exit 0
        rc, out = run(tmp_path, "a.csv", ["specfun", "aell", "--ell", "30,100", "--y", "0.3"])
        assert rc == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().split()[1:]]
        assert [row[0] for row in rows] == [30, 100]
        for ell, y, value, _ in rows:
            assert abs(value - aell_unfold(int(ell), y, specfun.DEFAULT_BUMP)) <= 1e-9

    def test_empty_grid_flags_usage_error(self, tmp_path):
        rc, _ = run(tmp_path, "none.csv", ["specfun", "bessel"])
        assert rc == 1

    def test_theta_grid(self, tmp_path):
        rc, out = run(tmp_path, "t.csv", ["specfun", "theta", "--re", "2", "--im", "0,1"])
        assert rc == 0
        assert out.read_text().startswith("re,im,theta_re,theta_im,abs_phi")

    def test_theta_far_from_the_real_axis(self, tmp_path):
        # sin(pi s) overflows past |Im s| ~ 226; theta and |varphi| from
        # mpmath 1.3.0 at 30 digits
        rc, out = run(tmp_path, "t.csv", ["specfun", "theta", "--re=-1,0.25",
                                          "--im", "300,1000"])
        assert rc == 0
        rows = {(r[0], r[1]): [float(v) for v in r[2:]]
                for r in (line.split(",") for line in out.read_text().split()[1:])}
        theta_re, theta_im, abs_phi = rows["-1", "300"]
        assert theta_re == pytest.approx(1.581313087078996e-203, rel=1e-10)
        assert theta_im == pytest.approx(-2.775802047779815e-203, rel=1e-10)
        assert abs_phi == pytest.approx(9.402153169736472, rel=1e-10)
        assert rows["0.25", "1000"][2] == pytest.approx(15.45117453050666, rel=1e-10)

    def test_theta_left_of_the_strip_and_far_up_the_critical_line(self, tmp_path):
        # theta(s) = theta(1/2 - s) left of Re s = 1/4, and |varphi| = 1 on
        # Re s = 1/2; theta from mpmath 1.3.0 at 30 digits
        rc, out = run(tmp_path, "t.csv", ["specfun", "theta", "--re=-100,0.5", "--im", "0.5,1e6"])
        assert rc == 0
        rows = {(r[0], r[1]): [float(v) for v in r[2:]]
                for r in (line.split(",") for line in out.read_text().split()[1:])}
        assert all(math.isfinite(v) for row in rows.values() for v in row)
        theta_re, theta_im, _ = rows["-100", "0.5"]
        assert theta_re == pytest.approx(-1.60723346494502e106, rel=1e-10)
        assert theta_im == pytest.approx(-9.99569251734535e106, rel=1e-10)
        assert rows["0.5", "1000000"][2] == 1.0

    def test_gammaratio_large_k(self, tmp_path):
        # (z + s - 1/2) log(1 + s/z) and log Gamma differences of size z log z
        # no longer cancel: the value is mpmath's to 1e-12 at k = 1e8
        rc, out = run(tmp_path, "g.csv", ["specfun", "gammaratio", "--k", "100000000",
                                          "--s", "0.5"])
        assert rc == 0
        error = float(out.read_text().split()[1].split(",")[3])
        assert error == pytest.approx(1.25000001171875e-09, rel=1e-12)

    def test_gammaratio_exact_zeros(self, tmp_path):
        rc, out = run(
            tmp_path, "g.csv", ["specfun", "gammaratio", "--k", "100", "--s", "0,1"],
        )
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[3] == "0" for row in rows)

    def test_wweight_grid(self, tmp_path):
        rc, out = run(
            tmp_path, "w.csv",
            ["specfun", "wweight", "--k", "50", "--Y", "1", "--ell", "1"],
        )
        assert rc == 0
        assert out.read_text().startswith("k,Y,n,w_weight,main_term,envelope")

    def test_unknown_usage(self, tmp_path):
        rc = cli.main(["specfun", "nonsense", "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestDeterminism:
    COMMANDS = [
        ["eigenform", "--weight", "16", "--cutoff", "40"],
        ["shifted", "--function", "tau2", "--x", "2000", "--ell", "2", "--epsilon", "0.4"],
        ["sievecheck", "--count", "10", "--seed", "7"],
        ["mk", "--weight", "12", "--cutoff", "1500"],
        ["specfun", "bessel", "--t", "0,2", "--w", "1"],
        ["specfun", "gammaratio", "--k", "500", "--s", "1,2,1+1j"],
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
    def test_byte_identical_reruns(self, tmp_path, args):
        rc1, out1 = run(tmp_path, "a.out", args)
        rc2, out2 = run(tmp_path, "b.out", args)
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_determinism(self, tmp_path):
        args = ["sievecheck", "--count", "8", "--seed", "3", "--format", "json"]
        _, out1 = run(tmp_path, "a.json", args)
        _, out2 = run(tmp_path, "b.json", args)
        assert out1.read_bytes() == out2.read_bytes()


class TestBoundary:
    """Bad input and numerical failure: exit 1 and one line on stderr."""

    def rejected(self, tmp_path, capsys, args):
        rc, out = run(tmp_path, "rej.csv", args)
        assert rc == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_infinite_x(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, ["shifted", "--function", "tau2", "--x", "inf",
                                         "--ell", "1", "--epsilon", "0.5"])

    def test_nan_x(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, ["shifted", "--function", "tau2", "--x", "nan",
                                         "--ell", "1", "--epsilon", "0.5"])

    def test_infinite_big_y(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, ["specfun", "wweight", "--k", "50", "--Y", "inf",
                                         "--ell", "1"])

    def test_nonfinite_float_list(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, ["specfun", "bessel", "--t", "1,-inf", "--w", "1"])

    def test_nonfinite_eps(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, ["specfun", "bessel", "--t", "1", "--w", "1",
                                         "--eps", "nan"])

    def test_aell_nan_y_within_a_second(self, tmp_path, capsys):
        start = time.perf_counter()
        self.rejected(tmp_path, capsys, ["specfun", "aell", "--ell", "1", "--y", "nan"])
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("args", [
        ["specfun", "theta", "--re", "2", "--im", "0", "--A", "3"],
        ["eigenform", "--weight", "12", "--cutoff", "3", "--seed", "1"],
        ["specfun", "wweight", "--k", "50", "--Y", "1", "--ell", "1,2"],
        ["specfun", "bessel", "--t", "", "--w", "1"],
    ], ids=["theta-A", "eigenform-seed", "wweight-ell-list", "bessel-empty-t"])
    def test_refused_by_its_parser(self, tmp_path, capsys, args):
        self.rejected(tmp_path, capsys, args)

    def test_verb_help_lists_its_own_options(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["specfun", "aell", "--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        assert "--y" in text and "--t" not in text

    @pytest.mark.parametrize("args, option", [
        (["aell", "--ell", "1", "--y", "1e-300"], "--y"),
        (["aell", "--ell", "1", "--y", "0.3", "--A", "100000"], "--A"),
        (["aell", "--ell", "1", "--y", "0.3", "--eps", "1e308"], "--eps"),
        (["bessel", "--t", "1", "--w", "1e-300", "--A", "100000"], "--A"),
        (["aell", "--ell", "1", "--y", "1e300"], "--y"),
    ], ids=["aell-tiny-y", "aell-huge-A", "aell-huge-eps", "bessel-huge-A", "aell-huge-y"])
    def test_bound_outside_float_range_names_its_option(self, tmp_path, capsys, args, option):
        rc, out = run(tmp_path, "rej.csv", ["specfun"] + args)
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {option} ")

    def test_wweight_row_cap_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        # about Y(k-1)/(8 pi) = 4e16 rows: counted from the n ranges, not written
        def fail(*args, **kwargs):
            raise AssertionError("w_weight called")

        monkeypatch.setattr(specfun, "w_weight", fail)
        rc, out = run(tmp_path, "rej.csv", ["specfun", "wweight", "--k", "100000000",
                                            "--Y", "1e10", "--ell", "1"])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "39788735375086484" in err[0] and str(cli.WWEIGHT_ROWS_MAX) in err[0]

    def test_wweight_row_cap_counts_every_pair(self, tmp_path, capsys, monkeypatch):
        args = ["specfun", "wweight", "--k", "50,60", "--Y", "1,2", "--ell", "1"]
        rc, out = run(tmp_path, "all.csv", args)
        assert rc == 0
        rows = len(out.read_text().splitlines()) - 1
        assert rows > 4 * 2  # each of the four (k, Y) pairs writes more than two rows
        monkeypatch.setattr(cli, "WWEIGHT_ROWS_MAX", rows)
        rc, at_cap = run(tmp_path, "cap.csv", args)
        assert rc == 0 and at_cap.read_bytes() == out.read_bytes()
        monkeypatch.setattr(cli, "WWEIGHT_ROWS_MAX", rows - 1)
        self.rejected(tmp_path, capsys, args)

    @pytest.mark.parametrize("k, big_y", [("100000000", "1e308"), ("12", "1e300")],
                             ids=["peak-overflows", "peak-finite"])
    def test_wweight_astronomic_peak_names_k_y_and_cap(self, tmp_path, capsys, monkeypatch,
                                                       k, big_y):
        def fail(*args, **kwargs):
            raise AssertionError("w_weight called")

        monkeypatch.setattr(specfun, "w_weight", fail)
        rc, out = run(tmp_path, "rej.csv", ["specfun", "wweight", "--k", k, "--Y", big_y,
                                            "--ell", "1"])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "--k" in err[0] and "--Y" in err[0] and str(cli.WWEIGHT_ROWS_MAX) in err[0]
        assert max(len(d) for d in re.findall(r"\d+", err[0])) < 20

    @staticmethod
    def _refused_naming(capsys, out, option: str, cap=None) -> None:
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {option} ")
        assert cap is None or str(cap) in err[0]
        assert max(len(d) for d in re.findall(r"\d+", err[0])) < 20

    @pytest.mark.parametrize("ell", ["100000000000000000", "1" + "0" * 320, "1,-1" + "0" * 320],
                             ids=["past-factorize", "past-float", "late-in-list"])
    def test_aell_ell_cap_refused_before_any_work(self, tmp_path, capsys, monkeypatch, ell):
        def fail(*args, **kwargs):
            raise AssertionError("work done")

        monkeypatch.setattr(specfun, "a_ell_y", fail)
        monkeypatch.setattr(arith, "prime_table", fail)
        rc, out = run(tmp_path, "rej.csv", ["specfun", "aell", "--ell", ell, "--y", "0.3"])
        assert rc == 1
        self._refused_naming(capsys, out, "--ell", cli.AELL_ELL_MAX)

    def test_aell_ell_cap_admits_the_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "AELL_ELL_MAX", 6)
        rc, _ = run(tmp_path, "at.csv", ["specfun", "aell", "--ell", "-6", "--y", "0.3"])
        assert rc == 0
        self.rejected(tmp_path, capsys, ["specfun", "aell", "--ell", "7", "--y", "0.3"])

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_wweight_ell_past_float_range_refused_before_any_work(self, tmp_path, capsys,
                                                                  monkeypatch, sign):
        def fail(*args, **kwargs):
            raise AssertionError("w_weight called")

        monkeypatch.setattr(specfun, "w_weight", fail)
        args = ["specfun", "wweight", "--k", "12", "--Y", "2", "--ell"]
        rc, out = run(tmp_path, "rej.csv", args + [sign + "1" + "0" * 320])
        assert rc == 1
        self._refused_naming(capsys, out, "--ell")
        # an --ell inside the float range is taken: no n reaches the peak
        rc, out = run(tmp_path, "in.csv", args + [sign + "1" + "0" * 300])
        assert rc == 0 and out.read_text() == "k,Y,n,w_weight,main_term,envelope\n"

    @pytest.mark.parametrize("command", ["eigenform", "mk"])
    @pytest.mark.parametrize("cutoff", ["100000000", "1" + "0" * 400], ids=["1e8", "1e400"])
    def test_cutoff_cap_refused_before_any_product(self, tmp_path, capsys, monkeypatch,
                                                   command, cutoff):
        self._no_tables(monkeypatch)
        rc, out = run(tmp_path, "rej.csv", [command, "--weight", "12", "--cutoff", cutoff])
        assert rc == 1
        self._refused_naming(capsys, out, "--cutoff", cli.CUTOFF_MAX)

    @pytest.mark.parametrize("command", ["eigenform", "mk"])
    def test_cutoff_cap_admits_the_cap(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "CUTOFF_MAX", 30)
        rc, _ = run(tmp_path, "at.csv", [command, "--weight", "12", "--cutoff", "30"])
        assert rc == 0
        self.rejected(tmp_path, capsys, [command, "--weight", "12", "--cutoff", "31"])

    @staticmethod
    def _no_tables(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("table built")

        for module, name in ((arith, "multiplicative_table"), (qexpansion, "delta_qexp"),
                             (shifted, "unit_handle"), (largesieve, "random_admissible_system")):
            monkeypatch.setattr(module, name, fail)

    @pytest.mark.parametrize("source, x", [
        (["--function", "tau2"], "1e9"), (["--function", "tau6"], "3e7"),
        (["--function", "one"], "1e12"), (["--weight", "12"], "3e8"),
        (["--weight", "26"], "2e6"),
    ], ids=["tau2", "tau6", "one", "weight12", "weight26"])
    def test_shifted_cap_refused_before_any_table(self, tmp_path, capsys, monkeypatch,
                                                  source, x):
        self._no_tables(monkeypatch)
        rc, out = run(tmp_path, "rej.csv", ["shifted", *source, "--x", x, "--ell", "-3",
                                            "--epsilon", "0.5"])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        cap = cli.SHIFTED_LIMIT_MAX[source[0][2:]]
        assert len(err) == 1 and str(cap) in err[0] and err[0].startswith("error: --x")

    @pytest.mark.parametrize("source", [["--function", "tau3"], ["--weight", "12"]])
    def test_shifted_cap_counts_x_plus_ell(self, tmp_path, capsys, monkeypatch, source):
        args = ["shifted", *source, "--x", "400", "--ell", "-5", "--epsilon", "0.5"]
        monkeypatch.setitem(cli.SHIFTED_LIMIT_MAX, source[0][2:], 405)
        rc, _ = run(tmp_path, "at.csv", args)
        assert rc == 0
        monkeypatch.setitem(cli.SHIFTED_LIMIT_MAX, source[0][2:], 404)
        self.rejected(tmp_path, capsys, args)

    def test_sievecheck_count_cap_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        over = str(cli.SIEVECHECK_COUNT_MAX + 1)
        args = ["sievecheck", "--count", "3", "--seed", "5"]
        monkeypatch.setattr(cli, "SIEVECHECK_COUNT_MAX", 3)
        rc, _ = run(tmp_path, "at.csv", args)
        assert rc == 0
        self._no_tables(monkeypatch)
        self.rejected(tmp_path, capsys, ["sievecheck", "--count", "4", "--seed", "5"])
        monkeypatch.undo()
        self._no_tables(monkeypatch)
        self.rejected(tmp_path, capsys, ["sievecheck", "--count", over, "--seed", "5"])

    @pytest.mark.parametrize("args, option", [
        (["aell", "--ell", "1", "--y", "1e-307"], "--y"),
        (["aell", "--ell", "1,2", "--y", "0.3,1e-306", "--A", "0", "--eps", "0"], "--y"),
        (["aell", "--ell", "40000000000000000", "--y", "1e300"], "--y"),
        (["aell", "--ell", "2000000000", "--y", "1e-7"], "--y"),
        (["theta", "--re", "0.5", "--im", "1e300"], "--im"),
        (["theta", "--re", "0.5", "--im", "2,-1e18"], "--im"),
        (["theta", "--re", "1e300", "--im", "1"], "--re"),
        (["theta", "--re", "2,-250", "--im", "1"], "--re"),
        (["gammaratio", "--k", "1" + "0" * 320, "--s", "1"], "--k"),
        (["gammaratio", "--k", "100,1" + "0" * 200, "--s", "1+1j"], "--k"),
        (["gammaratio", "--k", "12", "--s", "1e300"], "--s"),
    ], ids=["aell-tiny-y", "aell-y-below-w-floor", "aell-w-past-float", "aell-no-route",
            "theta-im-1e300",
            "theta-im-1e18", "theta-re-1e300", "theta-re-negative", "gammaratio-k-321-digits",
            "gammaratio-k-1e200", "gammaratio-s-1e300"])
    def test_refused_in_one_line_without_warnings(self, tmp_path, capsys, monkeypatch,
                                                  args, option):
        def fail(*args, **kwargs):
            raise AssertionError("work done")

        monkeypatch.setattr(specfun, "a_ell_y", fail)
        monkeypatch.setattr(specfun, "zeta", fail)  # theta must not allocate the sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run(tmp_path, "rej.csv", ["specfun"] + args)
        assert rc == 1
        self._refused_naming(capsys, out, option)

    def test_theta_caps_admit_the_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "THETA_RE_MAX", 3)
        monkeypatch.setattr(cli, "THETA_IM_MAX", 5)
        rc, _ = run(tmp_path, "at.csv", ["specfun", "theta", "--re=-3,3", "--im=-5,5"])
        assert rc == 0
        self.rejected(tmp_path, capsys, ["specfun", "theta", "--re", "3.5", "--im", "1"])
        self.rejected(tmp_path, capsys, ["specfun", "theta", "--re", "2", "--im=-5.5"])

    def test_gammaratio_k_cap_admits_the_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GAMMARATIO_K_MAX", 100)
        rc, _ = run(tmp_path, "at.csv", ["specfun", "gammaratio", "--k", "100", "--s", "1+1j"])
        assert rc == 0
        self.rejected(tmp_path, capsys, ["specfun", "gammaratio", "--k", "101", "--s", "1+1j"])

    def test_aell_w_floor_admits_the_floor(self, tmp_path, capsys):
        floor = 2.4930857834148828e-306  # the smallest y with 2 pi y >= specfun.AELL_W_MIN
        args = ["specfun", "aell", "--ell", "1", "--A", "0", "--eps", "0", "--y"]
        rc, _ = run(tmp_path, "at.csv", args + [repr(floor)])
        assert rc == 0
        self.rejected(tmp_path, capsys, args + [repr(math.nextafter(floor, 0.0))])

    @pytest.mark.parametrize("exc", [specfun.ToleranceError("tail"), OverflowError("big"),
                                     ArithmeticError("guard"), MemoryError(),
                                     MemoryError("Unable to allocate 7.28 TiB")])
    def test_arithmetic_failure(self, tmp_path, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(specfun, "a_ell_y", fail)
        self.rejected(tmp_path, capsys, ["specfun", "aell", "--ell", "1", "--y", "0.3"])

    @pytest.mark.parametrize("bad", [lambda: np.float64(1e308) * 10.0,
                                     lambda: np.float64(1.0) / np.float64(0.0),
                                     lambda: np.sqrt(np.float64(-1.0))],
                             ids=["overflow", "divide", "invalid"])
    def test_numpy_warning_is_an_error(self, tmp_path, capsys, monkeypatch, bad):
        # a value computed beside a numpy warning is never written
        monkeypatch.setattr(specfun, "theta_s", lambda s: complex(bad()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.rejected(tmp_path, capsys, ["specfun", "theta", "--re", "2", "--im", "1"])
        assert np.geterr()["over"] != "raise"  # the setting is main's alone

    def test_numpy_underflow_stays_silent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(specfun, "theta_s", lambda s: complex(np.float64(1e-300) * 1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run(tmp_path, "u.csv", ["specfun", "theta", "--re", "2", "--im", "1"])
        assert rc == 0
        assert out.read_text().split()[1].split(",")[2] == "0"


@pytest.mark.parametrize("module", ["shiftsieve.cli", "shiftsieve"])
def test_python_dash_m_writes_output(tmp_path, module):
    out = tmp_path / "delta.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "eigenform", "--weight", "12", "--cutoff", "10",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[2].startswith("2,-24,")


class TestAtomicOut:
    ARGS = ["eigenform", "--weight", "12", "--cutoff", "10"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        # a file size limit of 100 bytes makes the write fail partway, as a
        # full disk would; the limit binds only the child process
        out = tmp_path / "eig.csv"
        out.write_bytes(b"old contents\n")
        code = (
            "import resource, signal, sys\n"
            "from shiftsieve import cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (100, resource.RLIM_INFINITY))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code, *self.ARGS, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "i/o error" in proc.stderr
        assert out.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eig.csv"]

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.csv"
        with open(plain, "w"):
            pass
        rc, out = run(tmp_path, "new.csv", self.ARGS)
        assert rc == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        # open(path, "w") keeps the mode of a file it overwrites
        out.chmod(0o640)
        rc, out = run(tmp_path, "new.csv", self.ARGS)
        assert rc == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "plain.csv"]

    def test_missing_directory_names_out_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "eig.csv"
        rc, _ = run(tmp_path, "missing/eig.csv", self.ARGS)
        assert rc == 1
        assert str(out) in capsys.readouterr().err

    def test_symlink_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"old contents\n")
        (tmp_path / "link.csv").symlink_to(target)
        rc, out = run(tmp_path, "link.csv", self.ARGS)
        assert rc == 0
        assert out.is_symlink()
        assert target.read_text().startswith("n,a_f,lambda\n")

    def expected(self, tmp_path):
        rc, out = run(tmp_path, "expected.csv", self.ARGS)
        assert rc == 0
        data = out.read_bytes()
        out.unlink()
        return data

    def test_fifo_written_in_place(self, tmp_path):
        expected = self.expected(tmp_path)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        rc, _ = run(tmp_path, "pipe", self.ARGS)
        reader.join(timeout=60)
        assert rc == 0
        assert received == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]

    def test_dev_stdout_streams(self, tmp_path):
        expected = self.expected(tmp_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "shiftsieve", *self.ARGS, "--out", "/dev/stdout"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected

    def test_hard_link_kept(self, tmp_path):
        expected = self.expected(tmp_path)
        first = tmp_path / "first.csv"
        first.write_bytes(b"old contents\n")
        os.link(first, tmp_path / "second.csv")
        rc, second = run(tmp_path, "second.csv", self.ARGS)
        assert rc == 0
        assert first.read_bytes() == second.read_bytes() == expected
        assert os.path.samefile(first, second)

    def test_read_only_directory_rewrites_in_place(self, tmp_path, monkeypatch):
        # the tests run as root, which may write anywhere, so deny the
        # directory through os.access, the check atomic_open makes
        expected = self.expected(tmp_path)
        out = tmp_path / "eig.csv"
        out.write_bytes(b"old contents\n")
        inode = out.stat().st_ino
        real_access = os.access

        def access(path, mode, **kwargs):
            if os.fspath(path) == str(tmp_path) and mode & os.W_OK:
                return False
            return real_access(path, mode, **kwargs)

        monkeypatch.setattr(os, "access", access)
        rc, _ = run(tmp_path, "eig.csv", self.ARGS)
        assert rc == 0
        assert out.stat().st_ino == inode
        assert out.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eig.csv"]
