"""Config loading and the command-line front end (exit codes, outputs)."""

import numpy as np
import pytest

from ccmkit.cli import main
from ccmkit.config import ConfigError, load_config
from ccmkit.controller import DampingParams, GainField, synthesize_gain


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


NUMEX_MIN = "[system]\nbuiltin = numex\n"

CUSTOM_SYSTEM = """
[system]
n = 2
m = 1
f1 = x2
f2 = -2*x1 - 3*x2
B_2_1 = 1
domain_lo = -5 -5
domain_hi = 5 5

[metric]
M_1_1 = 1
M_2_2 = 1
p_lo = 1
p_hi = 1

[reference]
xd0 = 0 0
"""


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

    def test_metric_override_keeps_builtin_dual(self, tmp_path):
        text = NUMEX_MIN + (
            "[metric]\nrole = dual\nM_1_1 = 3\nM_1_2 = -1\nM_2_2 = 2\n"
            "p_lo = 1\np_hi = 5\n"
        )
        cfg = load_config(write_config(tmp_path, text))
        assert np.allclose(cfg.dual_metric.eval(np.zeros(2)),
                           [[3.0, -1.0], [-1.0, 2.0]])
        assert cfg.metric.role == "primal"  # builtin primal retained


class TestCliCertify:
    def test_numex_passes(self, tmp_path, capsys):
        path = write_config(
            tmp_path, NUMEX_MIN + "[certificate]\nchecks = c1 killing\ngrid = 9\n")
        assert main(["certify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "all_pass: True" in out
        assert "grid_points_per_axis: 9" in out

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

    def test_seed_flag_removed(self, tmp_path):
        path = write_config(tmp_path, NUMEX_MIN)
        assert main(["certify", "--config", path, "--seed", "1"]) == 2


class TestCliExpressionErrors:
    """Bad gain expressions are config errors (exit 2), not tracebacks."""

    def run_user_gain(self, tmp_path, capsys, k_1_1):
        path = write_config(
            tmp_path, NUMEX_MIN + f"[gain]\nsource = user\nK_1_1 = {k_1_1}\n")
        code = main(["synthesize", "--config", path, "--grid", "5"])
        return code, capsys.readouterr().err

    def test_deeply_nested_sum(self, tmp_path, capsys):
        # compiles, but is too deep to print back as config text
        code, err = self.run_user_gain(tmp_path, capsys, " + ".join(["x1"] * 3000))
        assert code == 2
        assert err.startswith("config error:")

    def test_deep_gain_writes_nothing(self, tmp_path, capsys):
        # every line is built before any is written, so a gain too deep
        # to print leaves no partial [gain] section behind
        path = write_config(tmp_path, NUMEX_MIN + "[gain]\nsource = user\nK_1_1 = "
                            + " + ".join(["x1"] * 3000) + "\n")
        out_path = tmp_path / "gain.ini"
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 2
        assert "[gain]" not in capsys.readouterr().out
        assert main(["synthesize", "--config", path, "--grid", "5",
                     "--out", str(out_path)]) == 2
        assert "[gain]" not in out_path.read_text()

    def test_unknown_identifier(self, tmp_path, capsys):
        code, err = self.run_user_gain(tmp_path, capsys, "-y1")
        assert code == 2
        assert err.startswith("config error:")
        assert "y1" in err


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

    def test_numex_sampled_table_direction(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            NUMEX_MIN + "[gain]\nsource = synthesized\nr = 2\ngamma0 = 0.5\n",
        )
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("# sample ")]
        assert rows
        for row in rows:
            x1, x2, k1, k2 = (float(v) for v in row.split()[2:])
            assert k1 < 0.0
            assert k2 / k1 == pytest.approx(3.0, rel=1e-9)

    def test_sampled_table_matches_per_point_gain(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            NUMEX_MIN + "[gain]\nsource = synthesized\nr = 2\ngamma0 = 0.5\n",
        )
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 0
        rows = [[float(v) for v in line.split()[2:]]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("# sample ")]
        cfg = load_config(path)
        lam = cfg.metric.lam
        gain = synthesize_gain(cfg.system, cfg.metric,
                               DampingParams(r=2.0, gamma0=0.5, lam=lam))
        assert len(rows) == 25
        for row in rows:
            np.testing.assert_allclose(row[2:], gain(np.array(row[:2])).ravel(),
                                       rtol=1e-12)

    def test_uncertified_metric_blocks_synthesis(self, tmp_path):
        text = NUMEX_MIN + (
            "[metric]\nM_1_1 = 3\nM_1_2 = -1\nM_2_2 = 2\np_lo = 1\np_hi = 5\n"
            "[gain]\nsource = synthesized\n"
        )
        path = write_config(tmp_path, text)
        assert main(["synthesize", "--config", path, "--grid", "5"]) == 1


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.parametrize("setting", ["controller = magic", "T = -1"])
    def test_bad_simulation_section_is_config_error(self, tmp_path, capsys, setting):
        path = write_config(tmp_path, NUMEX_MIN + f"[simulation]\n{setting}\n")
        assert main(["simulate", "--config", path, "--grid", "5",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: [simulation]")
