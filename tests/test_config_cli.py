"""Config loading and the command-line front end (exit codes, outputs)."""

import hashlib
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ccmkit
from ccmkit import cli
from ccmkit.certificates import Grid
from ccmkit.cli import main
from ccmkit.config import ConfigError, load_config
from ccmkit.controller import DampingParams, GainField, synthesize_gain
from ccmkit.expr import to_string
from ccmkit.geodesic import solve_geodesic


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NUMEX_MIN = "[system]\nbuiltin = numex\n"
METRIC = "[metric]\nM_1_1 = 2/5\nM_1_2 = 1/5\nM_2_2 = 3/5\n"  # the numex metric; bounds follow

CUSTOM_METRIC = "[metric]\nM_1_1 = 1\nM_2_2 = 1\np_lo = 1\np_hi = 1\n"
CUSTOM_SYSTEM = f"""
[system]
n = 2
m = 1
f1 = x2
f2 = -2*x1 - 3*x2
B_2_1 = 1
domain_lo = -5 -5
domain_hi = 5 5

{CUSTOM_METRIC}
[reference]
xd0 = 0 0
"""


def loaded_values(cfg):
    """What a loaded config holds, with every expression as `to_string` prints it."""
    def metric(field):
        return (field.role, field.p_lo, field.p_hi, field.lam,
                [[to_string(entry) for entry in row] for row in field.m_exprs])

    ref = cfg.reference
    return (cfg.system.name, metric(cfg.metric), metric(cfg.dual_metric), ref.xd0.tolist(),
            [to_string(entry) for entry in ref.ud_exprs], cfg.gain, cfg.sim, cfg.cert)


class TestLoadConfig:
    def test_builtin_shortcut(self, tmp_path):
        cfg = load_config(write_config(tmp_path, NUMEX_MIN))
        assert cfg.system.n == 2 and cfg.system.m == 1
        assert cfg.metric.role == "primal"
        assert cfg.dual_metric.role == "dual"
        assert np.allclose(cfg.reference.xd0, [3.0, -1.0])
        assert cfg.gain.source == "builtin"
        assert cfg.bundle is not None

    def test_custom_system(self, tmp_path):
        cfg = load_config(write_config(tmp_path, CUSTOM_SYSTEM))
        assert cfg.bundle is None
        assert np.allclose(cfg.system.eval_f(np.array([1.0, 2.0])), [2.0, -8.0])
        assert np.allclose(cfg.metric.eval(np.zeros(2)), np.eye(2))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.ini"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, NUMEX_MIN + "[extra]\nk = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path, NUMEX_MIN + "[simulation]\nstep = 1e-3\n"))

    def test_missing_system(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[metric]\nM_1_1 = 1\n"))

    def test_missing_metric_diagonal(self, tmp_path):
        text = CUSTOM_SYSTEM.replace("M_2_2 = 1\n", "")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, text))

    def test_bad_vector_length(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path, NUMEX_MIN + "[simulation]\nx0 = 1 2 3\n"))

    def test_unknown_gain_source(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path, NUMEX_MIN + "[gain]\nsource = magic\n"))

    def test_user_gain_needs_entries(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path, NUMEX_MIN + "[gain]\nsource = user\n"))

    def test_user_gain_loads(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            NUMEX_MIN + "[gain]\nsource = user\nK_1_1 = -(x2^2+1)\nK_1_2 = -x2^2\n",
        ))
        gain = GainField.from_exprs(cfg.system.n, cfg.system.m, cfg.gain.entries)
        assert np.allclose(gain(np.array([0.0, 2.0])), [[-5.0, -4.0]])

    def test_gamma_const_syntax(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, NUMEX_MIN + "[gain]\ngamma = const 2\n"))
        assert cfg.gain.gamma_const == 2.0
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path, NUMEX_MIN + "[gain]\ngamma = linear 2\n"))

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_gamma_const_must_be_positive(self, tmp_path, capsys, value):
        # a constant gamma <= 0 synthesized a gain that pumps energy in (or none)
        path = write_config(tmp_path, NUMEX_MIN + f"[gain]\ngamma = const {value}\n")
        assert main(["synthesize", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_custom_controller_needs_u(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path, NUMEX_MIN + "[simulation]\ncontroller = custom\n"))

    def test_certificate_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path, NUMEX_MIN + "[certificate]\nchecks = c1 bogus\n"))
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path,
                NUMEX_MIN + "[certificate]\nrobust_lambda_form = diag\n"))
        for setting in ("tol = nan", "tol = -1e-3", "lambda = inf", "gamma0 = 0", "gamma0 = nan"):
            with pytest.raises(ConfigError, match=r"\[certificate\]"):
                load_config(write_config(tmp_path, NUMEX_MIN + f"[certificate]\n{setting}\n"))

    def test_reference_needed_only_by_simulate(self, tmp_path, capsys):
        text = CUSTOM_SYSTEM.replace("[reference]\nxd0 = 0 0\n", "") + (
            "[gain]\nsource = user\nK_1_1 = -1\nK_1_2 = -1\n\n[certificate]\nchecks = killing\n")
        path, out = write_config(tmp_path, text), str(tmp_path / "out.txt")
        assert load_config(path).reference is None
        for argv in (["certify"], ["synthesize"], ["geodesic", "--from", "0 0", "--to", "3 4"]):
            assert main([argv[0], "--config", path, "--grid", "5", "--out", out, *argv[1:]]) == 0
        assert main(["simulate", "--config", path, "--grid", "5", "--out", out]) == 2
        assert capsys.readouterr().err == "config error: [reference] missing xd0\n"

    def test_builtin_gain_source_needs_a_builtin_system(self, tmp_path, capsys):
        # only a command that resolves a gain reads it
        text = CUSTOM_SYSTEM + "[gain]\nsource = builtin\n\n[certificate]\nchecks = killing\n"
        path, out = write_config(tmp_path, text), str(tmp_path / "out.txt")
        assert main(["certify", "--config", path, "--grid", "5", "--out", out]) == 0
        for command in ("synthesize", "simulate"):
            assert main([command, "--config", path, "--grid", "5", "--out", out]) == 2
            assert capsys.readouterr().err == (
                "config error: gain source=builtin needs a builtin system\n")

    @pytest.mark.parametrize("section", ["metric", "reference", "gain", "simulation",
                                         "certificate"])
    @pytest.mark.parametrize("name", ["numex", "microactuator"])
    def test_empty_section_reads_as_absent(self, tmp_path, name, section):
        text = f"[system]\nbuiltin = {name}\n"
        absent = load_config(write_config(tmp_path, text, "absent.ini"))
        empty = load_config(write_config(tmp_path, text + f"[{section}]\n", "empty.ini"))
        assert loaded_values(empty) == loaded_values(absent)

    def test_metric_override_keeps_builtin_dual(self, tmp_path):
        text = NUMEX_MIN + (
            "[metric]\nrole = dual\nM_1_1 = 3\nM_1_2 = -1\nM_2_2 = 2\n"
            "p_lo = 1\np_hi = 5\n"
        )
        cfg = load_config(write_config(tmp_path, text))
        assert np.allclose(cfg.dual_metric.eval(np.zeros(2)),
                           [[3.0, -1.0], [-1.0, 2.0]])
        assert cfg.metric.role == "primal"  # builtin primal retained

    @pytest.mark.parametrize("keys", ["builtin = numex\nsystem = microactuator",
                                      "system = microactuator\nbuiltin = numex"])
    def test_builtin_and_system_together_exit_two(self, tmp_path, capsys, keys):
        path = write_config(tmp_path, f"[system]\n{keys}\n")
        assert main(["certify", "--config", path, "--grid", "3"]) == 2
        assert capsys.readouterr() == (
            "", "config error: [system] sets both builtin and system; set one of them\n")


class TestCliCertify:
    def test_numex_passes(self, tmp_path, capsys):
        path = write_config(
            tmp_path, NUMEX_MIN + "[certificate]\nchecks = c1 killing\ngrid = 9\n")
        assert main(["certify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "all_pass: True" in out
        assert "grid_points_per_axis: 9" in out

    def test_zero_lambda_reports_the_asymptotic_test(self, tmp_path, capsys):
        # lambda = 0 asks for the asymptotic test (worst margin < -tol), and
        # the report names the rate it tested, not the metric's own rate
        path = write_config(
            tmp_path, NUMEX_MIN + "[certificate]\nchecks = c1\ngrid = 5\nlambda = 0\n")
        assert main(["certify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "requested_rate: 0.0\n" in out
        assert "all_pass: True" in out

    def test_grid_override(self, tmp_path, capsys):
        path = write_config(tmp_path, NUMEX_MIN)
        assert main(["certify", "--config", path, "--grid", "5"]) == 0
        assert "grid_points_per_axis: 5" in capsys.readouterr().out

    def test_dual_as_primal_fails(self, tmp_path, capsys):
        text = NUMEX_MIN + (
            "[metric]\nM_1_1 = 3\nM_1_2 = -1\nM_2_2 = 2\np_lo = 1\np_hi = 5\n"
            "[certificate]\nchecks = c1\ngrid = 5\n"
        )
        path = write_config(tmp_path, text)
        assert main(["certify", "--config", path]) == 1
        assert "all_pass: False" in capsys.readouterr().out

    def test_config_error_exit(self, tmp_path):
        path = write_config(tmp_path, NUMEX_MIN + "[gain]\nsource = magic\n")
        assert main(["certify", "--config", path]) == 2

    def test_missing_config_exit(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_grid_point_count_does_not_wrap(self, tmp_path, capsys):
        # 2^21 points per axis on the 3-state microactuator is 2^63 points
        path = write_config(tmp_path, "[system]\nbuiltin = microactuator\n")
        assert main(["certify", "--config", path, "--grid", str(2**21)]) == 2
        assert capsys.readouterr().err == (
            "bad grid: grid has 9223372036854775808 points, cap is 1000000\n")

    def test_seed_flag_removed(self, tmp_path):
        path = write_config(tmp_path, NUMEX_MIN)
        assert main(["certify", "--config", path, "--seed", "1"]) == 2

    def test_scaled_field_is_certified_without_a_symmetry_error(self, tmp_path, capsys):
        # entries near 1e8 round N^T Q N off symmetry by ~1e-7, within the
        # relative bound: both checks run and fail, with no traceback
        text = ("[system]\nn = 3\nm = 1\nf1 = sin(x2)*1e8\nf2 = x1*x3*1e7\nf3 = -x3\n"
                "B_3_1 = 1\ndomain_lo = -2 -2 -2\ndomain_hi = 2 2 2\n"
                "[metric]\nM_1_1 = 3 + x1^2\nM_1_2 = x1*x2/3\nM_1_3 = x2/5\n"
                "M_2_2 = 2 + sin(x3)\nM_3_3 = 1\np_lo = 1e-3\np_hi = 1e3\n"
                "[certificate]\nchecks = c1 robust\ngrid = 5\n")
        assert main(["certify", "--config", write_config(tmp_path, text)]) == 1
        out = capsys.readouterr()
        assert out.err == "" and out.out.count("\npass: False") == 2

    def test_undefined_field_names_the_point(self, tmp_path, capsys):
        # B_2_1 = 1/x1 is undefined on the x1 = 0 row of the 5 x 5 grid,
        # whose first point in row-major order is (0, -1)
        text = CUSTOM_SYSTEM.replace("B_2_1 = 1", "B_2_1 = 1/x1").replace("5 5", "1 1")
        text = text.replace("-5 -5", "-1 -1") + "[certificate]\ngrid = 5\n"
        assert main(["certify", "--config", write_config(tmp_path, text)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: divide by zero encountered in divide at x=[ 0. -1.]\n")

    def test_overflowing_field_names_the_point(self, tmp_path, capsys):
        # the first point in row-major order where B_2_1 overflows is (-1, -1),
        # named by the point-by-point re-run of the one numpy program
        text = CUSTOM_SYSTEM.replace("B_2_1 = 1", "B_2_1 = 1 + x1*1e300*1e300")
        text = text.replace("5 5", "1 1").replace("-5 -5", "-1 -1") + "[certificate]\ngrid = 5\n"
        assert main(["certify", "--config", write_config(tmp_path, text)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: overflow encountered in scalar multiply at x=[-1. -1.]\n")

    @pytest.mark.parametrize("m_11, checks", [
        ("1e300", "robust"),  # N^T M^2 N overflows inside the gamma0 solve
        ("1e300", "killing"),  # the Killing residual never reads the bounds
        ("1e307", "c1"),  # M df/dx would overflow in the metric's form
    ], ids=["robust", "killing", "c1"])
    def test_metric_outside_its_bounds_exits_three(self, tmp_path, capsys, m_11, checks):
        text = (NUMEX_MIN + f"[metric]\nM_1_1 = {m_11}\nM_2_2 = 2\np_lo = 0.1\np_hi = 2\n"
                f"lambda = 1\n[certificate]\nchecks = {checks}\ngrid = 3\n")
        assert main(["certify", "--config", write_config(tmp_path, text)]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: metric eigenvalue bounds violated at x=[-6. -6.]: "
            f"eigs in [2, {float(m_11):.6g}], declared [0.1, 2]\n")

    @pytest.mark.parametrize("checks", ["c1", "killing", "robust"])
    @pytest.mark.parametrize("m_11, message", [
        # (M + M^T) / 2 would overflow to inf; a NaN eigenvalue must fail the bounds
        ("1e308", "metric eigenvalue bounds violated at x=[-6. -6.]: "
                  "eigs in [2, 1e+308], declared [0.1, 2]"),
        ("1e309", "metric not finite at x=[-6. -6.]"),  # M_1_1 = inf
    ], ids=["1e308", "inf"])
    def test_overflowing_metric_exits_three(self, tmp_path, capsys, checks, m_11, message):
        text = (NUMEX_MIN + f"[metric]\nM_1_1 = {m_11}\nM_2_2 = 2\np_lo = 0.1\np_hi = 2\n"
                f"lambda = 1\n[certificate]\nchecks = {checks}\ngrid = 3\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["certify", "--config", write_config(tmp_path, text)]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("m_11, message", [
        # 1e150*(2 + x1) * 1e200 overflows in the generated form at the first point
        ("1e150*(2 + x1)", "overflow encountered in scalar multiply at x=[-1. -1.]"),
        ("1e150", "metric form not finite at x=[-1. -1.]"),  # 1e150 * 1e200 folds to inf
    ], ids=["overflow", "inf-literal"])
    def test_overflowing_metric_form_exits_three(self, tmp_path, capsys, m_11, message):
        # Tier-1 turns every RuntimeWarning into an error
        text = ("[system]\nn = 2\nm = 1\nf1 = 1e200*x2\nf2 = -x2\nB_2_1 = 1\n"
                "domain_lo = -1 -1\ndomain_hi = 1 1\n"
                f"[metric]\nM_1_1 = {m_11}\nM_2_2 = 1\np_lo = 0.5\np_hi = 1e151\n"
                "[certificate]\nchecks = c1 killing robust\ngrid = 5\n")
        assert main(["certify", "--config", write_config(tmp_path, text)]) == 3
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")

    def test_dual_metric_outside_its_bounds_exits_three(self, tmp_path, capsys):
        # W's eigenvalues 1.99 and 100.01 against p_hi = 2; the dual-W
        # conditions themselves hold, so only the bound check can fail it
        text = (NUMEX_MIN + "[metric]\nrole = dual\nM_1_1 = 100\nM_1_2 = -1\nM_2_2 = 2\n"
                "p_lo = 0.1\np_hi = 2\nlambda = 1\n[certificate]\nchecks = dual-w\ngrid = 3\n")
        assert main(["certify", "--config", write_config(tmp_path, text)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: metric eigenvalue bounds violated at x=[-6. -6.]: "
            "eigs in [1.9898, 100.01], declared [0.1, 2]\n")

    @pytest.mark.parametrize("section, argv", [
        pytest.param("", ["certify", "--grid", "1"], id="grid-1"),
        pytest.param("", ["certify", "--grid", "5000"], id="grid-5000"),
        pytest.param("[certificate]\ngrid = 1\n", ["certify"], id="config-grid-1"),
        pytest.param("[certificate]\ngrid = nan\n", ["certify"], id="config-grid-nan"),
        pytest.param("[gain]\ngamma = const abc\n", ["synthesize"], id="gamma-const-abc"),
        pytest.param("[certificate]\ngamma0 = abc\n", ["certify"], id="gamma0-abc"),
        pytest.param("", ["certify", "--out", "{tmp}/missing/dir/x.csv"], id="out-missing-dir"),
        pytest.param("", ["geodesic", "--from", "a,b", "--to", "1,0.5"], id="from-not-numbers"),
        pytest.param("", ["geodesic", "--from", "nan,0", "--to", "1,0.5"], id="from-nan"),
        pytest.param("", ["geodesic", "--from", "0,0", "--to", "inf,0.5"], id="to-inf"),
        pytest.param("[simulation]\ngeodesic_N = 1\n",
                     ["geodesic", "--from", "0,0", "--to", "1,0.5"], id="geodesic_N-1"),
        pytest.param("[simulation]\ngeodesic_N = inf\n", ["simulate"], id="geodesic_N-inf"),
        pytest.param("[certificate]\nchecks = robust c1\ntol = nan\n", ["certify"], id="tol-nan"),
        pytest.param("[certificate]\nchecks = robust c1\ngamma0 = -1\n", ["certify"],
                     id="gamma0-negative"),
        pytest.param("[certificate]\nchecks = robust c1\nlambda = -1\n", ["certify"],
                     id="lambda-negative"),
        pytest.param(METRIC + "p_lo = nan\np_hi = nan\n", ["certify"], id="metric-bounds-nan"),
        pytest.param(METRIC + "p_lo = 0.2\np_hi = nan\n", ["certify"], id="metric-p_hi-nan"),
        pytest.param(METRIC + "p_lo = 0.2\np_hi = inf\n", ["certify"], id="metric-p_hi-inf"),
        pytest.param(METRIC + "p_lo = 0.2\np_hi = 1\nlambda = nan\n", ["certify"],
                     id="metric-lambda-nan"),
        pytest.param(METRIC + "p_lo = 0.2\np_hi = 1\nlambda = inf\n", ["simulate"],
                     id="metric-lambda-inf"),
        pytest.param("[gain]\nr = nan\n", ["synthesize"], id="gain-r-nan"),
        pytest.param("[gain]\nr = inf\n", ["simulate"], id="gain-r-inf"),
        pytest.param("[gain]\ngamma0 = nan\n", ["synthesize"], id="gain-gamma0-nan"),
        pytest.param("[gain]\ngamma = const nan\n", ["synthesize"], id="gain-gamma-const-nan"),
        pytest.param("[gain]\ngamma = const -inf\n", ["simulate"], id="gain-gamma-const-inf"),
        pytest.param("[gain]\nr = -1\n", ["synthesize"], id="gain-r-negative"),
        pytest.param("[gain]\ngamma0 = -1\n", ["synthesize"], id="gain-gamma0-negative"),
    ])
    def test_malformed_input_exits_two(self, tmp_path, capsys, section, argv):
        path = write_config(tmp_path, NUMEX_MIN + section)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv[:1] + ["--config", path] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.strip()
        assert "Traceback" not in err

    @pytest.mark.parametrize("system, point", [
        pytest.param("n = 0\nm = -1\n\n[metric]\np_lo = 1\np_hi = 1\n\n[reference]\nxd0 =\n",
                     "", id="n0-m-1"),
        pytest.param("n = 2\nm = 0\nf1 = x2\nf2 = -x1\n\n[metric]\nM_1_1 = 1\nM_2_2 = 1\n"
                     "p_lo = 1\np_hi = 1\n\n[reference]\nxd0 = 0 0\n", "0,0", id="n2-m0"),
    ])
    @pytest.mark.parametrize("command", ["certify", "simulate", "synthesize", "geodesic"])
    def test_bad_dimensions_exit_two(self, tmp_path, capsys, system, point, command):
        path = write_config(tmp_path, "[system]\n" + system)
        ends = ["--from", point, "--to", point] if command == "geodesic" else []
        assert main([command, "--config", path, *ends]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [system]: need integers") and "Traceback" not in err

    @pytest.mark.parametrize("text, section, key, command", [
        pytest.param(CUSTOM_SYSTEM, "system", "f3 = 100*x1", "certify", id="custom-f3"),
        pytest.param(CUSTOM_SYSTEM, "system", "B_3_1 = 7", "certify", id="custom-B_3_1"),
        pytest.param(CUSTOM_SYSTEM, "metric", "M_2_1 = 5", "certify", id="custom-M_2_1"),
        pytest.param(NUMEX_MIN + "[reference]\nxd0 = 3 -1\n", "reference", "ud2 = 99",
                     "simulate", id="numex-ud2"),
        pytest.param(NUMEX_MIN + "[gain]\nsource = user\nK_1_1 = -1\nK_1_2 = -1\n", "gain",
                     "K_2_1 = 50", "simulate", id="numex-K_2_1"),
        pytest.param(NUMEX_MIN + "[gain]\nsource = user\nK_1_1 = -1\nK_1_2 = -1\n", "gain",
                     "K_1_3 = 50", "simulate", id="numex-K_1_3"),
    ])
    def test_indexed_key_out_of_range_exits_two(self, tmp_path, capsys, text, section, key,
                                                command):
        """Indexed keys exist only for the indices n and m allow."""
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key}\n")
        path = write_config(tmp_path, text + "[simulation]\nT = 0.1\nh = 0.01\n")
        assert main([command, "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "out.txt")]) == 2
        name = key.split(" = ")[0]
        assert capsys.readouterr().err == f"config error: unknown key '{name}' in [{section}]\n"

    @pytest.mark.parametrize("check, role, needs", [
        ("c1", "dual", "a primal metric"),
        ("killing", "dual", "a primal metric"),
        ("robust", "dual", "a primal metric"),
        ("dual-w", "primal", "a metric with role=dual"),
    ])
    def test_check_without_its_metric_exits_two(self, tmp_path, capsys, check, role, needs):
        text = CUSTOM_SYSTEM.replace("[metric]\n", f"[metric]\nrole = {role}\n")
        path = write_config(tmp_path, text + f"[certificate]\nchecks = {check}\n")
        assert main(["certify", "--config", path, "--grid", "5"]) == 2
        assert capsys.readouterr().err == f"config error: {check} check needs {needs}\n"


class TestCliExpressionErrors:
    """Bad gain expressions are config errors (exit 2), not tracebacks."""

    def run_user_gain(self, tmp_path, capsys, k_1_1):
        path = write_config(
            tmp_path, NUMEX_MIN + f"[gain]\nsource = user\nK_1_1 = {k_1_1}\n")
        code = main(["synthesize", "--config", path, "--grid", "5"])
        return code, capsys.readouterr().err

    def test_deeply_nested_sum(self, tmp_path, capsys):
        # deeper than the recursion limit, yet prints back as config text
        # that reparses to the same tree
        k_1_1 = " + ".join(["x1"] * 3000)
        path = write_config(
            tmp_path, NUMEX_MIN + f"[gain]\nsource = user\nK_1_1 = {k_1_1}\n")
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 0
        out = capsys.readouterr().out
        printed = next(line.split(" = ", 1)[1] for line in out.splitlines()
                       if line.startswith("K_1_1 = "))
        assert printed == k_1_1  # so it reparses to the tree of the input
        assert GainField.from_exprs(2, 1, [[printed, "0"]])([1.0, 0.0])[0, 0] == 3000.0

    def test_deep_gain_writes_nothing(self, tmp_path, capsys):
        # a gain that fails to parse fails after the output is opened, and
        # leaves no partial [gain] section behind
        path = write_config(tmp_path, NUMEX_MIN + "[gain]\nsource = user\nK_1_1 = -y1\n")
        out_path = tmp_path / "gain.ini"
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 2
        captured = capsys.readouterr()
        assert "[gain]" not in captured.out
        assert captured.err.startswith("config error:")
        assert main(["synthesize", "--config", path, "--grid", "5",
                     "--out", str(out_path)]) == 2
        assert "[gain]" not in out_path.read_text()

    def test_unknown_identifier(self, tmp_path, capsys):
        code, err = self.run_user_gain(tmp_path, capsys, "-y1")
        assert code == 2
        assert err.startswith("config error:")
        assert "y1" in err

    @pytest.mark.parametrize("section", [
        "[gain]\nsource = user\nK_1_1 = x1^1e400\n",
        "[simulation]\ncontroller = custom\nu1 = x1^1e400\n"])
    def test_infinite_exponent(self, tmp_path, capsys, section):
        path = write_config(tmp_path, NUMEX_MIN + section)
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err.endswith(
            "exponent must be an integer constant (offset 3)\n")

    def test_derivative_exponent_beyond_2_53(self, tmp_path, capsys):
        # f1 parses, but its Jacobian entry would need the exponent -2^53 - 1
        path = write_config(tmp_path, CUSTOM_SYSTEM.replace(
            "f1 = x2", "f1 = x2 + x1^-9007199254740992"))
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "exponent -9007199254740993 exceeds 2^53 in magnitude" in err
        assert "Traceback" not in err


class TestCliSynthesize:
    def test_micro_constant_gain_round_trip(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[system]\nbuiltin = microactuator\n"
            "[gain]\nsource = synthesized\ngamma = const 2\n",
        )
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 0
        emitted = capsys.readouterr().out
        assert "K_1_3 = -2.0" in emitted
        reload_path = write_config(
            tmp_path, "[system]\nbuiltin = microactuator\n" + emitted, "rt.ini")
        cfg = load_config(reload_path)
        assert cfg.gain.source == "user"
        gain = GainField.from_exprs(3, 1, cfg.gain.entries)
        assert np.allclose(gain(np.zeros(3)), [[0.0, 0.0, -2.0]], atol=1e-12)

    @pytest.mark.parametrize("entry, printed", [
        ("1e400", "1e999"), ("-1e400", "-1e999"), ("1e400*x1", "1e999*x1")])
    def test_infinite_gain_reads_back(self, tmp_path, capsys, entry, printed):
        path = write_config(tmp_path, NUMEX_MIN + f"[gain]\nsource = user\nK_1_1 = {entry}\n"
                            "K_1_2 = 0\n")
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synthesize", "--config", path]) == 0
            emitted, err = capsys.readouterr()
            assert err == "" and f"K_1_1 = {printed}\n" in emitted
            reloaded = write_config(tmp_path, NUMEX_MIN + emitted, "rt.ini")
            assert main(["synthesize", "--config", reloaded]) == 0
            assert capsys.readouterr() == (emitted, "")
            for config in (path, reloaded):
                code = main(["simulate", "--config", config, "--out", str(tmp_path / "t.csv")])
                runs.append((code, (tmp_path / "t.csv").read_bytes(), capsys.readouterr()))
        assert runs[0] == runs[1]

    def test_not_a_number_gain_is_a_numerical_failure(self, tmp_path, capsys):
        path = write_config(tmp_path, NUMEX_MIN + "[gain]\nsource = user\n"
                            "K_1_1 = 0\nK_1_2 = 1e400 - 1e400\n")
        assert main(["synthesize", "--config", path]) == 3
        assert capsys.readouterr() == ("", "numerical failure: K_1_2 is not a number\n")

    SYNTHESIZED = NUMEX_MIN + "[gain]\nsource = synthesized\nr = 2\ngamma0 = 0.5\n"

    def emitted_gain(self, tmp_path, capsys):
        """The gain `synthesize` prints, reloaded as a user gain, and the table
        of the 5 x 5 grid points of the numex box to sample it on."""
        path = write_config(tmp_path, self.SYNTHESIZED)
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 0
        emitted = capsys.readouterr().out
        assert "source = user" in emitted and "# sample" not in emitted
        # gamma is the Frobenius norm of F for every n, not the spectral norm `upsilon`
        assert "# gamma = (r/p_lo)*||d_f M + M A + A^T M||_F^2 with r=2\n" in emitted
        cfg = load_config(write_config(tmp_path, NUMEX_MIN + emitted, "rt.ini"))
        assert cfg.gain.source == "user"
        points = Grid.for_system(cfg.system, 5).array()
        return GainField.from_exprs(2, 1, cfg.gain.entries), points, cfg

    def test_numex_sampled_table_direction(self, tmp_path, capsys):
        gain, points, _ = self.emitted_gain(tmp_path, capsys)
        for k1, k2 in gain(points)[:, 0]:
            assert k1 < 0.0
            assert k2 / k1 == pytest.approx(3.0, rel=1e-9)

    def test_sampled_table_matches_per_point_gain(self, tmp_path, capsys):
        gain, points, cfg = self.emitted_gain(tmp_path, capsys)
        synthesized = synthesize_gain(cfg.system, cfg.metric,
                                      DampingParams(r=2.0, gamma0=0.5, lam=cfg.metric.lam))
        assert len(points) == 25
        for x in points:  # the printed formulas reparse to the same trees
            np.testing.assert_array_equal(gain(x), synthesized(x))

    def test_formulas_simulate_as_the_synthesized_gain(self, tmp_path, capsys):
        run = "[simulation]\ncontroller = dynext\nT = 0.5\nh = 1e-3\nx0 = -5 2\n"
        path = write_config(tmp_path, self.SYNTHESIZED + run)
        gain_path = tmp_path / "gain.ini"
        assert main(["synthesize", "--config", path, "--out", str(gain_path)]) == 0
        user = write_config(tmp_path, NUMEX_MIN + gain_path.read_text() + run, "user.ini")
        traces = []
        for config in (path, user):
            out = tmp_path / "trace.csv"
            assert main(["simulate", "--config", config, "--out", str(out)]) in (0, 1)
            traces.append(out.read_text())
        assert traces[0].count("\n") == 502
        assert traces[0] == traces[1]

    def test_uncertified_metric_blocks_synthesis(self, tmp_path):
        text = NUMEX_MIN + (
            "[metric]\nM_1_1 = 3\nM_1_2 = -1\nM_2_2 = 2\np_lo = 1\np_hi = 5\n"
            "[gain]\nsource = synthesized\n"
        )
        path = write_config(tmp_path, text)
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 1

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    @pytest.mark.parametrize("f1", ["0", "1e-12*x1"], ids=["margin-0", "margin-2e-12"])
    def test_metric_without_rate_gates_as_certify(self, tmp_path, capsys, command, f1):
        # with no lambda in [metric], a worst C1 margin of 0 or above fails
        # the gate as it fails certify, instead of giving a rate <= 0
        text = CUSTOM_SYSTEM.replace("f1 = x2\nf2 = -2*x1 - 3*x2", f"f1 = {f1}\nf2 = -x2")
        path = write_config(tmp_path, text + "[gain]\nsource = synthesized\n")
        out = str(tmp_path / "out.txt")
        assert main(["certify", "--config", path, "--grid", "5", "--out", out]) == 1
        assert main([command, "--config", path, "--grid", "5", "--out", out]) == 1
        assert "metric failed C1 certification" in capsys.readouterr().err


class TestCliGeodesic:
    def test_straight_line_csv(self, tmp_path):
        path = write_config(tmp_path, CUSTOM_SYSTEM)
        out_path = tmp_path / "geo.csv"
        code = main(["geodesic", "--config", path, "--from", "0 0",
                     "--to", "3 4", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "mu,x1,x2"
        data = [line for line in lines if not line.startswith(("mu", "#"))]
        assert len(data) == 33  # default 32 segments
        assert any(line.startswith("# distance: 5") for line in lines)

    @pytest.mark.parametrize("start, end, energy, iterations", [
        ("-1 0.5", "1 0.5", 2.2262006988414904, "4"),  # the config's run line
        ("-2 0", "2 0", 11.666410892338435, "9"),  # only negative curvature leaves the chord
    ])
    def test_demo_descent_pinned(self, capsys, start, end, energy, iterations):
        # a dropped negative-curvature step, another Armijo constant, another
        # gradient or Hessian moves the energy or the Newton step count
        assert main(["geodesic", "--config", str(CONFIGS / "geodesic_demo.ini"),
                     "--from", start, "--to", end]) == 0
        summary = dict(line[2:].split(": ") for line in capsys.readouterr().out.splitlines()
                       if line.startswith("# "))
        assert float(summary["energy"]) == pytest.approx(energy, rel=1e-12)
        assert summary["iterations"] == iterations
        assert summary["converged"] == "True"

    def test_rows_are_the_nodes_at_17_digits(self, capsys):
        # the config's run line; the rows are those of a per-value f"{v:.17g}"
        config = str(CONFIGS / "geodesic_demo.ini")
        assert main(["geodesic", "--config", config, "--from", "-1 0.5", "--to", "1 0.5"]) == 0
        path = solve_geodesic(load_config(config).metric, [-1.0, 0.5], [1.0, 0.5], 32)
        rows = [",".join(f"{v:.17g}" for v in (mu, *node))
                for mu, node in zip(np.linspace(0.0, 1.0, 33), path.nodes)]
        assert capsys.readouterr().out.splitlines()[:34] == ["mu,x1,x2"] + rows

    @pytest.mark.parametrize("metric, start, end", [
        ("M_1_1 = -1\nM_2_2 = 1\n", "0 0", "1 0"),  # constant, energy -1
        ("M_1_1 = -1\nM_2_2 = 1\n", "0 0", "0 1"),  # constant, energy 1
        ("M_1_1 = 1/x1\nM_2_2 = 1\n", "0.5 0", "-0.25 0"),  # M > 0 at the midpoint, not at x1 < 0
        ("M_1_1 = x1^2\nM_2_2 = 1\n", "-1 0", "1 0"),  # singular at the midpoint
        # [[0.5, 0.5], [0.5, 0.5]] at the midpoint: cholesky accepts it, the pivot test does not
        ("M_1_1 = x1\nM_1_2 = 0.5\nM_2_2 = x2\n", "0 0", "1 1"),
    ], ids=["constant", "constant-positive-energy", "curved", "singular-midpoint",
            "singular-midpoint-pivot"])
    def test_metric_not_positive_definite_exits_three(self, tmp_path, capsys, metric, start, end):
        text = CUSTOM_SYSTEM.replace("M_1_1 = 1\nM_2_2 = 1\n", metric)
        path = write_config(tmp_path, text)
        assert main(["geodesic", "--config", path, "--from", start, "--to", end]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: metric not positive definite")

    @pytest.mark.parametrize("start, end", [("1e200 0", "-1e200 0"), ("1e308 0", "-1e308 0")])
    @pytest.mark.parametrize("config", ["numex", "geodesic_demo"])
    def test_non_finite_energy_exits_three(self, tmp_path, capsys, config, start, end):
        # numex has a constant metric, geodesic_demo a curved one
        path = (write_config(tmp_path, NUMEX_MIN) if config == "numex"
                else str(CONFIGS / "geodesic_demo.ini"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["geodesic", "--config", path, "--from", start, "--to", end]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("segments, code", [(1024, 0), (1025, 2)])
    def test_segment_cap(self, tmp_path, capsys, segments, code):
        # a dense Newton Hessian at N = 4096 would take seconds and gigabytes
        path = write_config(tmp_path, CUSTOM_SYSTEM + f"\n[simulation]\ngeodesic_N = {segments}\n")
        assert main(["geodesic", "--config", path, "--from", "0 0", "--to", "3 4"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("config error: [simulation]")
        else:
            assert len(captured.out.splitlines()) == 1 + (segments + 1) + 4

    def test_coordinate_count_checked(self, tmp_path):
        path = write_config(tmp_path, CUSTOM_SYSTEM)
        assert main(["geodesic", "--config", path, "--from", "0",
                     "--to", "3 4"]) == 2


class TestCliSimulate:
    def test_tracking_run_exit_zero(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            NUMEX_MIN + "[simulation]\ncontroller = dynext\nT = 5\nh = 1e-3\n"
            "x0 = -5 2\nz0 = 0 0\nell = 5\nerr_threshold = 0.5\n",
        )
        out_path = tmp_path / "trace.csv"
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(out_path)]) == 0
        err = capsys.readouterr().err
        assert "# threshold_pass: True" in err
        header = out_path.read_text().splitlines()[0]
        assert header == "t,x1,x2,xd1,xd2,z1,z2,u1,ud1,err"

    def test_threshold_failure_exit_one(self, tmp_path):
        path = write_config(
            tmp_path,
            NUMEX_MIN + "[simulation]\ncontroller = custom\nT = 2\nh = 1e-3\n"
            "x0 = 2 2\nu1 = 0\n",
        )
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 1

    def test_one_sample_decay_window_is_not_a_rate(self, tmp_path, capsys):
        # T = 1, h = 0.6: the grid 0, 0.6, 1 has one sample in the window [T/4, 3T/4]
        path = write_config(tmp_path, NUMEX_MIN + "[simulation]\nT = 1\nh = 0.6\nx0 = -1 1\n")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            main(["simulate", "--config", path, "--grid", "5", "--out", str(tmp_path / "t.csv")])
        assert [str(w.message) for w in seen] == []
        assert "# decay_rate: n/a\n" in capsys.readouterr().err

    def test_degree_300_horner_reference_runs(self, tmp_path, capsys):
        # u_d = 1 + t*(1 + t*(...)) nests 300 parentheses deep
        ud1 = "1"
        for _ in range(300):
            ud1 = f"1 + t*({ud1})"
        path = write_config(tmp_path, NUMEX_MIN + f"[reference]\nxd0 = 3 -1\nud1 = {ud1}\n"
                            "[simulation]\ncontroller = dynext\nT = 0.1\nh = 0.01\nx0 = 3 -1\n")
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 0
        assert "# completed: True\n" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            NUMEX_MIN + "[simulation]\ncontroller = custom\nT = 3\nh = 1e-3\n"
            "x0 = 0 0\nu1 = 1/(t-1)\n",
        )
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 3
        assert "# completed: False" in capsys.readouterr().err

    def test_overflowing_literal_gain(self, tmp_path, capsys):
        # 1e400 parses to inf; the compiled gain must evaluate it, not
        # fail to look it up
        path = write_config(
            tmp_path,
            NUMEX_MIN + "[gain]\nsource = user\nK_1_1 = 1e400*x1\n"
            "[simulation]\nT = 1\nh = 0.01\n",
        )
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 3
        err = capsys.readouterr().err
        assert "# flag: controller failure at t=0" in err
        assert "Traceback" not in err

    def test_undefined_gain_partial_exit_three(self, tmp_path, capsys):
        # the mixed partials of -sqrt(x1^2 + x2^2) are undefined at the
        # origin, a point of the 5 x 5 exactness grid
        path = write_config(
            tmp_path,
            NUMEX_MIN + "[gain]\nsource = user\nK_1_1 = -sqrt(x1^2 + x2^2)\nK_1_2 = -1\n"
            "[simulation]\ncontroller = static\nT = 1\nh = 0.01\n",
        )
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: exactness check failed: invalid value encountered in scalar "
            "divide at x=[0. 0.]\n")

    @pytest.mark.parametrize("metric", ["", "[metric]\nrole = dual\nM_1_1 = 1\nM_2_2 = 1\n"
                                            "p_lo = 1\np_hi = 1\n"], ids=["none", "dual"])
    def test_geodesic_controller_needs_a_primal_metric(self, tmp_path, capsys, metric):
        text = CUSTOM_SYSTEM.replace(CUSTOM_METRIC, metric) + (
            "[gain]\nsource = user\nK_1_1 = -1\nK_1_2 = -1\n\n"
            "[simulation]\ncontroller = geodesic\nT = 1\nh = 0.01\n")
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == (
            "config error: geodesic controller needs a primal [metric]\n")

    @pytest.mark.parametrize("text", [
        CUSTOM_SYSTEM.replace(CUSTOM_METRIC, "") + "[simulation]\n",  # nothing to synthesize from
        (CONFIGS / "geodesic_demo.ini").read_text(),  # a metric that fails C1
    ], ids=["no-metric", "curved-metric"])
    def test_custom_controller_resolves_no_gain(self, tmp_path, capsys, text):
        text = text.replace("[simulation]\n", "[simulation]\ncontroller = custom\n"
                            "u1 = -x1 - x2\nT = 1\nh = 0.01\n")
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 0
        assert "# completed: True\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting", ["controller = magic", "T = -1", "T = nan", "geodesic_N = 1",
                    "ell = -1", "ell = nan", "ell = 0", "h = inf", "err_threshold = nan",
                    "geodesic_N = 4097"])
    def test_bad_simulation_section_is_config_error(self, tmp_path, capsys, setting):
        path = write_config(tmp_path, NUMEX_MIN + f"[simulation]\n{setting}\n")
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: [simulation]")


# (system, metric, certificate) whose products overflow: M B in every certificate, N^T M^2 N in
# the robust check's gamma0 bound, lambda M in its block, and the synthesized gain's
# (MB)^T MB, an inf literal
_OVERFLOWING = {
    "m-b": ("f1 = x2\nf2 = -x2\nB_2_1 = 1e200\n",
            "M_1_1 = 1\nM_2_2 = 1e200\np_lo = 0.5\np_hi = 1e201\n", "checks = c1\n"),
    "robust": ("f1 = -x1\nf2 = -x2\nB_2_1 = 1\n", "M_1_1 = 1e200\nM_2_2 = 1e200\n"
               "M_1_2 = 1e199\np_lo = 1e199\np_hi = 2e200\n", "checks = c1 robust\n"),
    "lambda-m": ("f1 = -x1\nf2 = -x2\nB_2_1 = 1\n",
                 "M_1_1 = 1e307\nM_2_2 = 1e307\np_lo = 1e306\np_hi = 1e308\n",
                 "checks = robust\nrobust_lambda_form = metric\nlambda = 100\ngamma0 = 1\n"),
    "gram": ("f1 = -x1\nf2 = -x2\nB_2_1 = 1e100\n",
             "M_1_1 = 1\nM_2_2 = 1e100\np_lo = 0.5\np_hi = 1e101\n", "checks = c1\n"),
}


@pytest.mark.parametrize("case, command, message", [
    ("m-b", "certify", "M B not finite at x=[-1. -1.]"),
    ("m-b", "synthesize", "M B not finite at x=[-1. -1.]"),
    ("m-b", "simulate", "M B not finite at x=[-1. -1.]"),
    ("robust", "certify", "pencil not finite at x=[-1. -1.]"),
    ("robust", "synthesize", "(MB)^T MB not finite at x=[-1. -1.]"),
    ("lambda-m", "certify", "pencil not finite at x=[-1. -1.]"),
    ("gram", "synthesize", "(MB)^T MB not finite at x=[-1. -1.]"),
    ("gram", "simulate", "(MB)^T MB not finite at x=[-1. -1.]"),
], ids=["m-b-certify", "m-b-synthesize", "m-b-simulate", "robust-certify", "robust-synthesize",
        "lambda-m-certify", "gram-synthesize", "gram-simulate"])
def test_overflowing_product_exits_three(tmp_path, capsys, case, command, message):
    system, metric, certificate = _OVERFLOWING[case]
    text = (f"[system]\nn = 2\nm = 1\n{system}domain_lo = -1 -1\ndomain_hi = 1 1\n"
            f"[metric]\n{metric}[certificate]\n{certificate}grid = 3\n"
            "[reference]\nxd0 = 0 0\n[simulation]\nT = 0.1\nh = 0.01\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out.txt")])
    assert code == 3
    assert capsys.readouterr() == ("", f"numerical failure: {message}\n")


# Literal arithmetic that overflowed while the config was built: the quotient rule
# squared f1's denominator 1e200 (e), and the synthesized gain squares the metric
# form's literal entries, -2e160 (d)
_LITERAL_OVERFLOW = {
    "e": ("f1 = x1/1e200\nf2 = -x2\n", "M_1_1 = 1\nM_2_2 = 1\np_lo = 0.5\np_hi = 2\n"),
    "d": ("f1 = -x1\nf2 = -x2\n", "M_1_1 = 1e160\nM_2_2 = 1\np_lo = 0.5\np_hi = 2e160\n"),
}


@pytest.mark.parametrize("case, command, code, err", [
    ("e", "certify", 1, ""),
    ("e", "synthesize", 1,
     r"metric failed C1 certification; cannot synthesize \(worst margin 2e-200\)\n"),
    # the overflow's text is the C library's (errno ERANGE)
    ("d", "synthesize", 3, r"numerical failure: .* at x=\[0\. 0\.\]\n"),
], ids=["e-certify", "e-synthesize", "d-synthesize"])
def test_literal_arithmetic_is_not_a_config_error(tmp_path, capsys, case, command, code, err):
    system, metric = _LITERAL_OVERFLOW[case]
    text = (f"[system]\nn = 2\nm = 1\n{system}B_2_1 = 1\ndomain_lo = -1 -1\ndomain_hi = 1 1\n"
            f"[metric]\n{metric}[certificate]\nchecks = c1\ngrid = 3\n")
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == code
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and re.fullmatch(err, stderr)
    if command == "certify":  # the system does not contract, by a finite margin
        assert "worst_margin: 2e-200\n" in out.read_text()


# Runs in a fresh interpreter with every scipy import blocked: imports
# ccmkit, runs each argv through cli.main in-process and prints the exit
# codes and the scipy modules loaded so far.
_IMPORT_PROBE = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import ccmkit
from ccmkit import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    name for name in sys.modules if name == "scipy" or name.startswith("scipy."))}))
"""


def _probe(argvs):
    env = dict(os.environ, PYTHONPATH=str(Path(ccmkit.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportsNumpyOnly:
    """No command imports scipy: the probe blocks it and every run still ends
    with its usual exit code."""

    def test_certify_simulate_geodesic_load_no_scipy(self, tmp_path):
        result = _probe([
            ["certify", "--config", str(CONFIGS / "numex_certify.ini"),
             "--out", str(tmp_path / "certify.txt")],
            ["simulate", "--config", str(CONFIGS / "numex_dynext.ini"),
             "--out", str(tmp_path / "trace.csv")],
            ["geodesic", "--config", str(CONFIGS / "geodesic_demo.ini"),
             "--from=-1,0.5", "--to=1,0.5", "--out", str(tmp_path / "path.txt")],
        ])
        assert result == {"codes": [0, 0, 0], "scipy": []}

    @pytest.mark.parametrize("source", ["builtin", "synthesized"])
    def test_every_command_runs_with_scipy_blocked(self, tmp_path, source):
        path = write_config(tmp_path, NUMEX_MIN + f"[gain]\nsource = {source}\n"
                            "[simulation]\ncontroller = dynext\nT = 0.1\nh = 0.01\n")
        result = _probe([
            ["certify", "--config", path, "--grid", "9", "--out", str(tmp_path / "cert.txt")],
            ["geodesic", "--config", path, "--from=2,0", "--to=3,-1",
             "--out", str(tmp_path / "path.txt")],
            ["synthesize", "--config", path, "--grid", "9", "--out", str(tmp_path / "gain.ini")],
            ["simulate", "--config", path, "--grid", "9", "--out", str(tmp_path / "trace.csv")],
        ])
        assert result == {"codes": [0, 0, 0, 0], "scipy": []}
        assert "K_1_1 = " in (tmp_path / "gain.ini").read_text()


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    """`ccmkit simulate` holds one block of rows, not the whole trace: numex dynext
    at 16 and 64 blocks of 1,024 steps, each in its own interpreter with its output
    discarded, peaks within 1 MB of resident memory (whole traces were about 15 MB
    apart), and so does its formatting worker. The peak is VmHWM, which starts
    afresh at exec, where ru_maxrss keeps the forking process's peak; under
    tracemalloc the 65,536-step run takes 40 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(ccmkit.__file__).resolve().parent.parent))
    child = ("import resource, sys; from ccmkit.cli import main; code = main(sys.argv[1:]); "
             "peak = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')]; "
             "worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss; "
             "print(code, peak[0].split()[1], worker, file=sys.stderr)")
    text = (CONFIGS / "numex_dynext.ini").read_text()
    assert "\nT = 20\n" in text
    runs = []
    assert cli.FORK_BLOCKS <= 16
    for steps in (16 * 1024, 64 * 1024):
        path = write_config(tmp_path, text.replace("\nT = 20\n", f"\nT = {steps / 1000}\n"),
                            f"steps_{steps}.ini")
        runs.append(subprocess.Popen([sys.executable, "-c", child, "simulate", "--config", path],
                                     env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True))
    (code_16, peak_16, worker_16), (code_64, peak_64, worker_64) = (
        map(int, run.communicate(timeout=60)[1].split()) for run in runs)
    assert (code_16, code_64) == (0, 0)
    assert abs(peak_64 - peak_16) < 1024  # kB
    assert abs(worker_64 - worker_16) < 1024  # the formatting worker's peak, 0 if none ran
    assert (worker_16 > 0) == cli._may_fork()


SIMULATE_DYNEXT = ["simulate", "--config", "configs/numex_dynext.ini"]


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("how", ["pipe", "out", "one-cpu"])
def test_simulate_bytes_with_and_without_the_worker(tmp_path, how):
    """`python -m ccmkit simulate` to a pipe and to --out, where a forked worker
    formats the CSV, and pinned to one CPU, where this process does: the CSV and
    summary hash to the golden digest of `tests/test_golden.py` every way."""
    if how == "one-cpu" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs sched_setaffinity")
    env = dict(os.environ, PYTHONPATH=str(Path(ccmkit.__file__).resolve().parent.parent))
    out = tmp_path / "trace.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ccmkit", *SIMULATE_DYNEXT, *(["--out", str(out)] * (how == "out"))],
        cwd=CONFIGS.parent, env=env, capture_output=True, timeout=300,
        preexec_fn=_pin_to_one_cpu if how == "one-cpu" else None)
    assert proc.returncode == 0
    text = out.read_bytes() + proc.stderr if how == "out" else proc.stdout  # CSV, then summary
    assert hashlib.sha256(text).hexdigest()[:16] == "d32b48364ba416a2"


def test_simulate_leaves_no_process(tmp_path, monkeypatch, capsys):
    """No formatting worker outlives `cli.main`, after a run of 20 blocks or a
    failed write."""
    monkeypatch.chdir(CONFIGS.parent)
    assert main([*SIMULATE_DYNEXT, "--out", str(tmp_path / "trace.csv")]) == 0
    assert multiprocessing.active_children() == []
    if os.path.exists("/dev/full"):
        assert main([*SIMULATE_DYNEXT, "--out", "/dev/full"]) == 2
        assert multiprocessing.active_children() == []


MALFORMED_INI = {
    "duplicate-option": b"[system]\nbuiltin = numex\nbuiltin = numex\n",
    "duplicate-section": b"[system]\nbuiltin = numex\n[system]\n",
    "no-section-header": b"builtin = numex\n[system]\n",
    "line-without-equals": b"[system]\nbuiltin numex\n",
    "not-utf-8": b"[system]\nbuiltin = numex\n# \xff\n",
}


@pytest.mark.parametrize("text", MALFORMED_INI.values(), ids=MALFORMED_INI.keys())
def test_malformed_ini_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "run.ini"
    path.write_bytes(text)
    assert main(["certify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file '{path}': ")
    assert err.count("\n") == 1


def test_malformed_ini_ends_without_traceback(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(MALFORMED_INI["duplicate-option"])
    env = dict(os.environ, PYTHONPATH=str(Path(ccmkit.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "ccmkit", "certify", "--config", str(path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["certify", "--config", str(CONFIGS / "numex_certify.ini")],
                                  ["simulate", "--config", str(CONFIGS / "numex_dynext.ini")]],
                         ids=["certify", "simulate"])
def test_failed_out_write_is_usage_error(capsys, argv):
    # the certify report fails on close, the simulate trace mid-run
    assert main([*argv, "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "cannot write --out: [Errno 28] No space left on device\n"


def test_closed_stdout_is_usage_error():
    """`ccmkit simulate ... | head -c 10`: the reader goes away mid-trace."""
    env = dict(os.environ, PYTHONPATH=str(Path(ccmkit.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ccmkit", "simulate", "--config", str(CONFIGS / "numex_dynext.ini")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 2
    assert err.startswith("cannot write stdout: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_python_m_ccmkit_certifies(tmp_path):
    """`python -m ccmkit`, run from the repository root with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(ccmkit.__file__).resolve().parent.parent))
    out = tmp_path / "certify.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "ccmkit", "certify", "--config", "configs/numex_certify.ini",
         "--out", str(out)],
        cwd=CONFIGS.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "all_pass: True" in out.read_text()


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda path: path.name)
def test_documented_run_line_exits_zero(config, tmp_path, monkeypatch, capsys):
    """The `# Run:` command in each shipped config's header runs as written
    from the repository root (with --out sent to tmp_path) and exits 0."""
    runs = [line for line in config.read_text().splitlines() if line.startswith("# Run:")]
    assert len(runs) == 1
    program, *argv = shlex.split(runs[0].removeprefix("# Run:"))
    assert program == "ccmkit"
    argv = [str(tmp_path / arg) if flag == "--out" else arg
            for flag, arg in zip([None, *argv], argv)]
    monkeypatch.chdir(CONFIGS.parent)
    assert main(argv) == 0


@pytest.mark.parametrize("config, start, end, code, energy", [
    ("numex", "1.7e308 0", "1.7e308 1", 0, "0.59999999999999998"),  # 0.5 (a + b) overflowed
    ("geodesic_demo", "1.7e308 0", "1.7e308 1", 0, "1"),
    ("geodesic_demo", "1e150 0", "-1e150 0", 3, None),  # inverse iteration's norm was 0
])
def test_geodesic_near_the_float_range_does_not_warn(tmp_path, capsys, config, start, end,
                                                      code, energy):
    # Tier-1 turns every RuntimeWarning into an error
    path = (write_config(tmp_path, NUMEX_MIN) if config == "numex"
            else str(CONFIGS / "geodesic_demo.ini"))
    assert main(["geodesic", "--config", path, "--from", start, "--to", end]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1
    else:
        assert captured.err == ""
        assert f"# energy: {energy}\n" in captured.out
        assert captured.out.endswith("# converged: True\n")
