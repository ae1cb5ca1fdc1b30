"""End-to-end command-line behavior: schemas, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from math import comb

import pytest

from braidrep import decomp as decomp_mod
from braidrep import hwspace as hw_mod
from braidrep.braid import BraidWord
from braidrep.cli import (MAX_RATIONAL_DIGITS, MAX_WEIGHT_SPACE_DIM, SUITES,
                          UsageError, _parse_rational, _require_weight_space,
                          _weight_space_dim_capped, main)
from braidrep.hwspace import IntegralityError
from braidrep.ring import InexactDivisionError
from braidrep.verma import TensorVec

from conftest import ratfunc_decomposition_oracle

PKG_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")
RUN_CHECKS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "run_checks.py")
EXPORT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "export_matrices.py")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasisCommand:
    def test_counts(self, capsys):
        code, out, _ = run_cli(["basis", "--n", "4", "--l", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["labels"]) == 6
        assert len(data["vectors"]) == 6

    def test_degree_zero(self, capsys):
        code, out, _ = run_cli(["basis", "--n", "2", "--l", "0"], capsys)
        data = json.loads(out)
        assert code == 0
        assert len(data["labels"]) == 1
        assert data["vectors"][0]["terms"][0]["idx"] == [0, 0]

    def test_usage_error(self, capsys):
        code, _, err = run_cli(["basis", "--n", "1", "--l", "1"], capsys)
        assert code == 2
        assert "requires" in err


class TestMatrixCommand:
    def test_degree_two_generator(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--n", "2", "--l", "2", "--word", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["basis"] == ["w(1,2)"]
        assert data["rows"] == [[{"terms": [[2, -4, "1"]]}]]

    def test_empty_word_identity(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--n", "3", "--l", "2", "--word", ""], capsys)
        data = json.loads(out)
        assert code == 0
        for r in range(3):
            for c in range(3):
                expected = [[0, 0, "1"]] if r == c else []
                assert data["rows"][r][c]["terms"] == expected

    def test_braid_relation_equality(self, capsys):
        code1, out1, _ = run_cli(
            ["matrix", "--n", "3", "--l", "1", "--word", "1 2 1"], capsys)
        code2, out2, _ = run_cli(
            ["matrix", "--n", "3", "--l", "1", "--word", "2 1 2"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_cancelling_word_prints_the_identity(self, fmt, capsys):
        # every letter of 1 3 -1 -3 cancels across the commuting generator
        outs = [run_cli(["matrix", "--n", "4", "--l", "2", "--word", word,
                         "--format", fmt], capsys) for word in ("1 3 -1 -3", "")]
        assert outs[0][0] == 0
        assert outs[0] == outs[1]

    def test_bad_word(self, capsys):
        code, _, err = run_cli(
            ["matrix", "--n", "3", "--l", "1", "--word", "7"], capsys)
        assert code == 2

    def test_exponent_overflow_exits_2(self, capsys):
        # sigma_1^262200 on V_{2,1} reaches s^-524400, past the packed-key
        # range; the word is too long for a subprocess argv, so in-process
        word = " ".join(["1"] * 262200)
        code, out, err = run_cli(
            ["matrix", "--n", "2", "--l", "1", "--word", word], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "524287" in err

    @pytest.mark.parametrize("exc", [InexactDivisionError, IntegralityError])
    def test_internal_faults_stay_loud(self, exc, monkeypatch):
        def fault(*args):
            raise exc("internal fault")

        monkeypatch.setattr(hw_mod, "rho_matrix", fault)
        with pytest.raises(exc):
            main(["matrix", "--n", "2", "--l", "1", "--word", "1"])


class TestInputBound:
    @pytest.mark.parametrize("argv", [
        ["basis", "--n", "40", "--l", "10"],
        ["matrix", "--n", "3", "--l", "1000000"],
        ["check", "--suite", "twist", "--n", "40", "--l", "10"],
        ["irreducible", "--n", "3", "--l", "1000000"],
        ["twist", "--n", "1000000", "--l", "2"],
    ])
    def test_oversized_request_exits_before_any_work(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 0.2
        assert code == 2
        assert out == ""
        assert "has dimension C(" in err and str(MAX_WEIGHT_SPACE_DIM) in err

    @pytest.mark.parametrize("argv, named", [
        (["decompose", "--n", "2", "--idx", "1000000,0"],
         "V_{2,1000000} has dimension C(1000001, 1000000)"),
        (["basis", "--n", str(10 ** 9), "--l", "0"],
         "n * C(n+l-1, l) = %d * C(%d, 0)" % (10 ** 9, 10 ** 9 - 1)),
        (["burau", "--n", "317"], "n^2 = 317^2"),
        (["burau", "--n", str(10 ** 9), "--unreduced"], "n^2 = %d^2" % 10 ** 9),
        (["lkb-matrix", "--n", "26"], "C(n,2)^2 = C(26, 2)^2"),
        (["lkb-matrix", "--n", str(10 ** 9), "--i", "1", "--positive"],
         "C(n,2)^2 = C(%d, 2)^2" % 10 ** 9),
        # all printed generators count: 46 * 47^2 and 13 * C(14, 2)^2 are
        # just over the limit, 45 * 46^2 and 12 * C(13, 2)^2 just under
        (["burau", "--n", "47"], "46 generator matrices of n^2 = 47^2"),
        (["burau", "--n", "47", "--unreduced"], "n^2 = 47^2"),
        (["lkb-matrix", "--n", "14"],
         "13 generator matrices of C(n,2)^2 = C(14, 2)^2"),
        (["lkb-matrix", "--n", "26", "--i", "1"],
         "1 generator matrix of C(n,2)^2 = C(26, 2)^2"),
    ])
    def test_oversized_n_exits_before_any_work(self, argv, named, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 0.2
        assert code == 2
        assert out == ""
        assert named in err and str(MAX_WEIGHT_SPACE_DIM) in err

    @pytest.mark.parametrize("suite, n, named", [
        ("lkb", 14, "13 generator matrices of C(n,2)^2 = C(14, 2)^2"),
        ("burau", 47, "46 generator matrices of n^2 = 47^2"),
    ])
    def test_check_suite_takes_its_command_bound(self, suite, n, named, capsys):
        # V_{n,0} has dimension 1, so only the generator bound refuses these
        start = time.perf_counter()
        code, out, err = run_cli(
            ["check", "--suite", suite, "--n", str(n), "--l", "0"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: check: ") and named in err
        SUITES[suite].bound("check", n - 1)     # one strand fewer is allowed

    @pytest.mark.parametrize("flag, value", [
        ("--q0", "1e200000"), ("--q0", "1e10000000"), ("--s0", "1e-5000"),
        ("--q0", "1" + "0" * 4300 + "/3"), ("--s0", "1" + "0" * 4301 + "2")])
    def test_oversized_rational_exits_before_any_work(self, flag, value, capsys):
        point = {"--q0": "2", "--s0": "3", flag: value}
        start = time.perf_counter()
        code, out, err = run_cli(["irreducible", "--n", "3", "--l", "2",
                                  "--q0", point["--q0"], "--s0", point["--s0"]],
                                 capsys)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s: " % flag)
        assert str(MAX_RATIONAL_DIGITS) in err

    def test_rational_digit_limit_is_inclusive(self, capsys):
        # 10^4299 has 4,300 digits and 10^4300 one more
        code, out, _ = run_cli(["irreducible", "--n", "3", "--l", "2",
                                "--q0", "1e4000", "--s0", "3"], capsys)
        assert code == 0
        assert json.loads(out)["params"]["q0"] == "1" + "0" * 4000
        assert _parse_rational("1e4299", "--q0") == 10 ** 4299
        assert _parse_rational("1" + "0" * 4299, "--q0") == 10 ** 4299
        for text in ("1e4300", "1e-4300", "15e4299",
                     "1" + "0" * 4300 + "/3", "1" + "0" * 4301 + "2"):
            with pytest.raises(UsageError, match="limited to %d digits"
                               % MAX_RATIONAL_DIGITS):
                _parse_rational(text, "--q0")

    def test_capped_dimension_decides_like_the_binomial(self):
        for n in range(2, 14):
            for l in range(14):
                dim = comb(n + l - 1, l)
                assert _weight_space_dim_capped(n, l, 10 ** 12) == dim
                for cap in (1, 10, 100, 1000, dim - 1, dim):
                    got = _weight_space_dim_capped(n, l, cap)
                    assert (got > cap) == (dim > cap)
                    assert got <= dim

    def test_limit_is_inclusive(self):
        # V_{n,1} has dimension n
        at_limit = argparse.Namespace(n=MAX_WEIGHT_SPACE_DIM, l=1)
        _require_weight_space(at_limit, "basis")
        over = argparse.Namespace(n=MAX_WEIGHT_SPACE_DIM + 1, l=1)
        with pytest.raises(UsageError, match=r"C\(%d, 1\)" % over.n):
            _require_weight_space(over, "basis")


class TestCheckCommand:
    def test_pass_suites(self, capsys):
        for suite, n, l in [("braid", 3, 2), ("yangbaxter", 3, 2),
                            ("equivariance", 3, 1), ("phi", 3, 2),
                            ("lkb", 3, 2), ("burau", 4, 1),
                            ("splitting", 2, 2), ("eigen", 3, 2),
                            ("twist", 3, 1)]:
            code, out, _ = run_cli(
                ["check", "--suite", suite, "--n", str(n), "--l", str(l)],
                capsys)
            assert code == 0, (suite, out)
            reports = json.loads(out)
            assert all(r["pass"] for r in reports)
            assert all({"check", "params", "pass", "witness"} == set(r)
                       for r in reports)

    def test_perturbed_braid_fails(self, capsys):
        code, out, _ = run_cli(
            ["check", "--suite", "braid", "--n", "3", "--l", "2",
             "--perturb"], capsys)
        assert code == 1
        assert any(not r["pass"] for r in json.loads(out))

    def test_parser_keeps_no_state_between_calls(self, capsys):
        # the parser is built once and reused: a flag of one call must not
        # reach the next one with the same argv minus that flag
        argv = ["check", "--suite", "braid", "--n", "3", "--l", "2"]
        assert run_cli(argv + ["--perturb"], capsys)[0] == 1
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert all(r["pass"] for r in json.loads(out))

    def test_wrong_twist_scalar_fails(self, capsys, monkeypatch):
        # negative control: Delta^4 acts by a scalar, but by the square of
        # the expected q^4 s^-12 on W_{3,2}
        twist = decomp_mod.full_twist_word
        monkeypatch.setattr(decomp_mod, "full_twist_word",
                            lambda n: BraidWord(n, twist(n).letters * 2))
        code, out, _ = run_cli(
            ["check", "--suite", "twist", "--n", "3", "--l", "2"], capsys)
        assert code == 1
        (report,) = json.loads(out)
        assert not report["pass"] and report["witness"] == "q^8*s^-24"

    def test_unknown_suite(self, capsys):
        for args, message in [(["nonsense", "--n", "3"], "unknown suite"),
                              (["splitting", "--n", "3", "--l", "0"],
                               "splitting requires --l >= 1")]:
            code, out, err = run_cli(["check", "--suite"] + args, capsys)
            assert code == 2
            assert out == ""
            assert message in err

    def test_thread_pool_env(self, capsys, monkeypatch):
        # BRAIDREP_THREADS once sized a thread pool; suites now run in
        # order and a stale setting must change nothing.
        args = ["check", "--suite", "braid", "--n", "3", "--l", "1"]
        code, plain, _ = run_cli(args, capsys)
        monkeypatch.setenv("BRAIDREP_THREADS", "4")
        code_env, out, _ = run_cli(args, capsys)
        assert code == code_env == 0
        assert out == plain

    def test_perturb_only_where_it_damages_something(self, capsys):
        for suite in ("equivariance", "phi", "lkb", "burau", "splitting",
                      "eigen", "twist"):
            code, out, err = run_cli(
                ["check", "--suite", suite, "--n", "4", "--l", "2",
                 "--perturb"], capsys)
            assert code == 2, suite
            assert out == ""
            assert "braid and yangbaxter" in err


class TestIrreducibleCommand:
    def test_explicit_point(self, capsys):
        code, out, _ = run_cli(
            ["irreducible", "--n", "3", "--l", "2", "--q0", "2", "--s0", "3"],
            capsys)
        assert code == 0
        data = json.loads(out)
        assert data["witness"]["commutant_dimension"] == 1
        assert "certified" in data["witness"]["verdict"]

    def test_seeded_point(self, capsys):
        code, out, _ = run_cli(
            ["irreducible", "--n", "2", "--l", "4", "--seed", "3"], capsys)
        assert code == 0

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_reducible_point_is_not_called_irreducible(self, fmt, capsys):
        # W_{5,2} is reducible at (2, 2) (test_decomp.py::TestCommutantGap),
        # and its commutant of dimension 1 proves End = scalars only
        code, out, _ = run_cli(["irreducible", "--n", "5", "--l", "2", "--q0", "2",
                                "--s0", "2", "--format", fmt], capsys)
        assert code == 0
        verdict = (json.loads(out)["witness"]["verdict"] if fmt == "json"
                   else out.split(" -> ")[1].strip())
        assert verdict == "End = scalars over Q(q,s): certified"
        assert "irreducible" not in verdict

    def test_guard_rejection(self, capsys):
        code, _, err = run_cli(
            ["irreducible", "--n", "3", "--l", "2", "--q0", "2", "--s0", "1"],
            capsys)
        assert code == 2
        assert "s0^2-1" in err

    def test_point_off_two_word_primes_is_certified_mod_p(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact path reached at a certified point")
        monkeypatch.setattr(decomp_mod, "fraction_rank", refuse)
        q0 = ((1 << 30) - 35) * ((1 << 61) - 1)
        code, out, _ = run_cli(["irreducible", "--n", "5", "--l", "3",
                                "--q0", str(q0), "--s0", "3"], capsys)
        assert code == 0
        assert json.loads(out)["witness"]["commutant_dimension"] == 1


class TestOtherCommands:
    def test_decompose(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--n", "3", "--idx", "1,0,0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["components"]) == 2
        assert data["components"][1]["terms"][0]["idx"] == [0, 0, 0]

    def test_decompose_values_match_oracle(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--n", "3", "--idx", "1,0,2"], capsys)
        assert code == 0
        data = json.loads(out)
        got = [TensorVec.from_json(comp) for comp in data["components"]]
        assert (data["n"], data["l"]) == (3, 3)
        assert got == ratfunc_decomposition_oracle(TensorVec.pure((1, 0, 2)))

    def test_decompose_validation(self, capsys):
        code, _, _ = run_cli(["decompose", "--n", "3", "--idx", "1,0"], capsys)
        assert code == 2

    def test_burau(self, capsys):
        code, out, _ = run_cli(["burau", "--n", "3"], capsys)
        data = json.loads(out)
        assert code == 0
        assert len(data) == 2
        assert data[0]["basis"] == ["u1", "u2"]

    def test_lkb_matrix_vars(self, capsys):
        code, out, _ = run_cli(["lkb-matrix", "--n", "3", "--i", "1"], capsys)
        data = json.loads(out)
        assert code == 0
        assert data[0]["vars"] == ["t", "Q"]
        assert data[0]["basis"][0] == "F(1,2)"

    def test_twist(self, capsys):
        code, out, _ = run_cli(["twist", "--n", "3", "--l", "1"], capsys)
        data = json.loads(out)
        assert code == 0
        assert data["scalar"]["terms"] == [[0, -6, "1"]]


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = run_cli(
                ["matrix", "--n", "4", "--l", "2", "--word", "1 -2 3"], capsys)
            runs.append(out)
        assert runs[0] == runs[1]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            ["twist", "--n", "2", "--l", "2", "--format", "text"], capsys)
        assert code == 0
        assert out.strip() == "q^4*s^-8"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            ["basis", "--n", "3", "--l", "1", "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["labels"] == ["w[0]@3", "w[0,0]@2"]

    def test_unwritable_output_file_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "x.json"
        code, out, err = run_cli(
            ["basis", "--n", "2", "--l", "1", "--output", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestSubprocessEntry:
    def test_module_invocation(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "braidrep.cli", "twist", "--n", "2",
             "--l", "1"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["scalar"]["terms"] == [[0, -4, "1"]]

    def test_run_checks_script(self):
        proc = subprocess.run(
            [sys.executable, RUN_CHECKS, "--nmax", "2", "--lmax", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout
        assert "0 failures" in proc.stdout
        proc = subprocess.run(
            [sys.executable, RUN_CHECKS, "--nmax", "3", "--lmax", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        failed = [line for line in proc.stdout.splitlines() if "FAIL" in line]
        assert len(failed) == 1
        assert failed[0].startswith("phi          n=3 l=1")
        assert failed[0].endswith("wmax-eigenvalue")

    @pytest.mark.parametrize("argv, named", [
        (["--nmax", "1"], "requires --nmax >= 2"),
        (["--lmax", "-1"], "requires --lmax >= 0"),
        # splitting builds V_{nmax+1,lmax}, equivariance V_{nmax,lmax+1}
        (["--nmax", "60", "--lmax", "9"], "V_{61,9} has dimension C(69, 9)"),
        (["--nmax", "30", "--lmax", "4"], "V_{30,5} has dimension C(34, 5)"),
    ])
    def test_run_checks_rejects_bad_sizes_before_any_row(self, argv, named):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, RUN_CHECKS] + argv,
                              capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and named in proc.stderr

    def test_run_checks_bounds_splitting_one_degree_up(self):
        # V_{13,7} and V_{12,8} pass the bound; splitting at lmax + 1 builds V_{13,8}
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, RUN_CHECKS, "--nmax", "12", "--lmax", "7"],
                              capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: run_checks: ")
        assert "V_{13,8} has dimension C(20, 8)" in proc.stderr

    def test_run_checks_bounds_the_generator_suites_at_nmax(self):
        # V_{100001,0} and V_{100000,1} pass the weight-space bound; the
        # burau and lkb rows at nmax would not
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, RUN_CHECKS, "--nmax", "100000",
                               "--lmax", "0"],
                              capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: run_checks: ")
        assert "generator matrices" in proc.stderr

    def test_run_checks_accepts_the_smallest_grid(self):
        proc = subprocess.run([sys.executable, RUN_CHECKS, "--nmax", "2", "--lmax", "0"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "11 rows, 0 failures" in proc.stdout

    def test_export_script_matches_rho_matrix(self):
        n, l = 3, 2
        proc = subprocess.run(
            [sys.executable, EXPORT, "--n", str(n), "--l", str(l), "--inverses"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert (data["n"], data["l"]) == (n, l)
        gens = [1, 2, -1, -2]
        assert sorted(data["generators"]) == sorted(str(k) for k in gens)
        for k in gens:
            expected = hw_mod.rho_matrix(n, l, [k]).to_json()
            assert data["basis"] == expected["basis"]
            assert data["generators"][str(k)] == expected["rows"], k

    @pytest.mark.parametrize("argv, named", [
        (["--n", "40", "--l", "12"], "V_{40,12} has dimension C(51, 12)"),
        (["--n", "1", "--l", "2"], "requires --n >= 2"),
        (["--n", "3", "--l", "-1"], "requires --l >= 0"),
    ])
    def test_export_script_rejects_bad_sizes_before_any_work(self, argv, named):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, EXPORT] + argv,
                              capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and named in proc.stderr

    def test_export_script_unwritable_out_is_a_usage_error(self, tmp_path):
        target = tmp_path / "missing_dir" / "x.json"
        proc = subprocess.run([sys.executable, EXPORT, "--n", "2", "--l", "1",
                               "--out", str(target)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_argparse_usage_exit_code(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "braidrep.cli", "matrix"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2


# SHA-256 of the standard output of fixed small commands, recorded before the
# packed-key ring; any change to the arithmetic must keep these bytes.  The two
# irreducible digests were recorded again when the verdict for a commutant of
# dimension 1 became "End = scalars over Q(q,s): certified".  The three check
# suites were recorded from the dense LKB transport and Burau comparison, and
# the two eigen runs from the direct form E(F^(1) v), before the commutator.
# The braid, equivariance and yangbaxter runs were recorded from letter
# matrices built through ``apply_letter``, before they were read from the
# R-matrix table.  The two splitting runs and the phi run at l = 1 were
# recorded while ``apply_letter`` kept its own accumulation loop; the phi run
# exits 1 on the documented wmax-eigenvalue erratum and prints its witness.
# Each entry names the exit code it must give: 1 for a failing check (the
# --perturb control and that erratum), 0 otherwise.
GOLDEN_STDOUT = [
    (["matrix", "--n", "3", "--l", "2", "--word", "1 -2 1"],
     0, "df984f846191e5c4eb6e848069878f3b053e66bf8496a1c38cd1de709bbe328d"),
    (["matrix", "--n", "4", "--l", "2", "--word", "1 2 -3", "--format", "text"],
     0, "3c6a4a377a2c23db02b92dce0e0252dd910780298bd66dc3b48597cd0fd46ba0"),
    (["decompose", "--n", "3", "--idx", "1,0,2"],
     0, "ae4cfbaf9d752dd2cdb9c9b79e08117b501c38990e108d1bd0b63721ec933aea"),
    (["decompose", "--n", "4", "--idx", "2,0,1,1", "--format", "text"],
     0, "32bccc419730ace8f2ce787af943ca8fa575989ef024a01b7eaf5a81449785bf"),
    (["basis", "--n", "4", "--l", "2"],
     0, "787e82221f01e68cfe73c200b88dae91cba54629f5e371c324d9cd211a65c409"),
    (["burau", "--n", "5"],
     0, "fceb96687d1ee98cf9016857b0cd1cf284649316cfbd7b969ff66a40bdad7155"),
    (["burau", "--n", "4", "--unreduced", "--format", "text"],
     0, "b85c9869dedff96aad1f89a05910beb8b55f9a0016e6f61daad8841c9a1df4c1"),
    (["lkb-matrix", "--n", "4"],
     0, "90a001ecbfcac7eb428dab58fea99486e11cae39a764cf97ef405f49d4ecbfc4"),
    (["lkb-matrix", "--n", "4", "--i", "2", "--positive", "--format", "text"],
     0, "061278de5bf45aa0e8be6c0e280f394d84c3e8b08479d39c4a33a957bdd0ea80"),
    (["twist", "--n", "4", "--l", "2"],
     0, "c888f23284b1424514d39d6da4712622d794da19a886d208b9807babefcfb1b3"),
    (["irreducible", "--n", "4", "--l", "2", "--q0", "2", "--s0", "3"],
     0, "08bf4e03711b5e5f9eae982347a95143370d4b2227ed463ab4067a3467749b91"),
    (["irreducible", "--n", "3", "--l", "3", "--seed", "7"],
     0, "b84d0b973ea696b166047a70799fb5b82c720e4f078ed9c5fc6899eeb0f8dbd5"),
    (["check", "--suite", "lkb", "--n", "5", "--l", "2"],
     0, "f8dd6c8add42a10fa145afded855a493aac771f06efb2d4b2b6525b6f5da0ec1"),
    (["check", "--suite", "burau", "--n", "5", "--l", "1", "--format", "text"],
     0, "07f2b2f8db703be723e72bca249011a7d78955369da132f1772d76545b625c5e"),
    (["check", "--suite", "phi", "--n", "4", "--l", "2"],
     0, "dc7470582b162365882326ee8b61c9ac330050993e3b9eb657e0e7563e9b3b2a"),
    (["check", "--suite", "eigen", "--n", "5", "--l", "3"],
     0, "758237ba5615f8b6da58ad444c852f70c583aeedb6843d3a7a651b68984dd0e9"),
    (["check", "--suite", "eigen", "--n", "4", "--l", "3", "--format", "text"],
     0, "62a1aa1b6e5287c38f42a2af034be083c434d4e7625b260b88dfac32b4f65568"),
    (["check", "--suite", "braid", "--n", "4", "--l", "3"],
     0, "e8e6efe4fc4c692c919cf95bba953b004294886a835cdd5e74e0ab563bb18356"),
    (["check", "--suite", "equivariance", "--n", "4", "--l", "3"],
     0, "ab07c3265aa50473b05a43024075204be168c5877dd0dd1c621f070d749e3618"),
    (["check", "--suite", "yangbaxter", "--n", "3", "--l", "2", "--perturb"],
     1, "74ccd12f2ed456b4ee296c22e55e06a9b4a6ccf917fe02e5f5349d5ec8820840"),
    (["check", "--suite", "splitting", "--n", "3", "--l", "2"],
     0, "52ae410a55e8f1bfe30d5b719f4889a24aef1b10036bc3b02f2a51d83b249f34"),
    (["check", "--suite", "splitting", "--n", "4", "--l", "3"],
     0, "ab2ef078b8b53f34e749bbbb091e35214775915261772cf1afed17ddc44ab7d9"),
    (["check", "--suite", "phi", "--n", "3", "--l", "1"],
     1, "d012f863a888f5542cb01b4b124309370ff346ef1acbbbd51915442274b0052e"),
]


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN_STDOUT,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN_STDOUT])
def test_golden_stdout(argv, exit_code, digest, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
