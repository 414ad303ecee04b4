import contextlib
import csv
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

from dunklkit.cli import EXIT_CONFIG, EXIT_IDENTITY, EXIT_OK, _context, load_config, main
from dunklkit.strichartz import ExponentPair, run_inequality


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(
        "# desk-scale configuration\n"
        "d = 1\n"
        "kappa = 0.5\n"
        "n_degree = 16\n"
        "grid_order = 24\n"
        "time_nodes = 32\n"
        f"output = {tmp_path / 'reports'}\n"
    )
    return path


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg["d"] == 1
        assert cfg["kappa"] == (0.5,)

    def test_parses_file(self, small_config):
        cfg = load_config(str(small_config))
        assert cfg["n_degree"] == 16
        assert cfg["kappa"] == (0.5,)

    def test_kappa_list(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d = 2\nkappa = 1.0, 0.5\n")
        cfg = load_config(str(path))
        assert cfg["kappa"] == (1.0, 0.5)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("wavelength = 3\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_missing_file_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            main, ["-c", str(tmp_path / "absent.cfg"), "strichartz"]
        )
        assert result.exit_code == EXIT_CONFIG

    def test_non_numeric_kappa_exit_code(self, runner, small_config):
        path = small_config
        path.write_text(path.read_text().replace("kappa = 0.5", "kappa = half"))
        result = runner.invoke(main, ["-c", str(path), "strichartz"])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    def test_malformed_file_exit_code(self, runner, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a key value line\n")
        result = runner.invoke(main, ["-c", str(path), "strichartz"])
        assert result.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["strichartz", "dual-schatten", "inhomogeneous", "sweep"])
    def test_single_time_node_exit_code(self, runner, small_config, command):
        path = small_config
        path.write_text(path.read_text().replace("time_nodes = 32", "time_nodes = 1"))
        result = runner.invoke(main, ["-c", str(path), command])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    def test_single_time_node_unused_by_kernels(self, runner, small_config):
        # time_nodes is checked only where a time grid is built
        path = small_config
        path.write_text(path.read_text().replace("time_nodes = 32", "time_nodes = 1"))
        result = runner.invoke(main, ["-c", str(path), "verify-kernels"])
        assert result.exit_code == EXIT_OK, result.output

    @pytest.mark.parametrize("command", ["strichartz", "dual-schatten", "inhomogeneous"])
    def test_unusable_grid_order_exit_code(self, runner, small_config, command):
        # plain_rule refuses orders above 400: its Jacobi matrix is dense
        path = small_config
        path.write_text(path.read_text().replace("grid_order = 24", "grid_order = 500"))
        result = runner.invoke(main, ["-c", str(path), command])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    @pytest.mark.parametrize("kappa", ["150", "200", "2000"])
    def test_huge_multiplicity_exit_code(self, runner, small_config, kappa):
        # Gamma(kappa + 1/2) overflows: in the rule's weights from kappa ~120
        # on, in M_kappa from 171 on
        path = small_config
        path.write_text(path.read_text().replace("kappa = 0.5", f"kappa = {kappa}"))
        result = runner.invoke(main, ["-c", str(path), "strichartz"])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    @pytest.mark.parametrize("command", ["strichartz", "dual-schatten", "inhomogeneous"])
    def test_negative_degree_exit_code(self, runner, small_config, tmp_path, command):
        path = small_config
        path.write_text(path.read_text().replace("n_degree = 16", "n_degree = -1"))
        result = runner.invoke(main, ["-c", str(path), command])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR: n_degree must be non-negative, got -1" in result.output
        assert not (tmp_path / "reports").exists()


class TestSubcommands:
    def test_verify_kernels(self, runner, small_config, tmp_path):
        result = runner.invoke(main, ["-c", str(small_config), "verify-kernels"])
        assert result.exit_code == EXIT_OK, result.output
        report = json.loads((tmp_path / "reports" / "verify_kernels.json").read_text())
        assert report["passed"]
        assert (tmp_path / "reports" / "verify_kernels.csv").exists()

    def test_strichartz(self, runner, small_config, tmp_path):
        result = runner.invoke(
            main, ["-c", str(small_config), "strichartz", "--q", "1.5", "--j", "4"]
        )
        assert result.exit_code == EXIT_OK, result.output
        assert "ratio=" in result.output
        assert (tmp_path / "reports" / "strichartz.csv").exists()

    def test_strichartz_q1_identity(self, runner, small_config):
        result = runner.invoke(
            main, ["-c", str(small_config), "strichartz", "--q", "1.0", "--j", "4"]
        )
        assert result.exit_code == EXIT_OK, result.output

    def test_dual_schatten(self, runner, small_config, tmp_path):
        result = runner.invoke(main, ["-c", str(small_config), "dual-schatten"])
        assert result.exit_code == EXIT_OK, result.output
        assert (tmp_path / "reports" / "dual_schatten.json").exists()

    def test_inhomogeneous(self, runner, small_config, tmp_path):
        result = runner.invoke(
            main, ["-c", str(small_config), "inhomogeneous", "--rank", "2"]
        )
        assert result.exit_code == EXIT_OK, result.output
        assert (tmp_path / "reports" / "inhomogeneous.csv").exists()

    @pytest.mark.parametrize("args", [["--rank", "0"], ["--t0", "nan"], ["--q", "0.5"]])
    def test_inhomogeneous_bad_options(self, runner, small_config, args):
        result = runner.invoke(main, ["-c", str(small_config), "inhomogeneous", *args])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    def test_inhomogeneous_time_exponent_below_one(self, runner, tmp_path):
        # d_eff = 5: q = 1.9 lies on the scaling line at p = 0.84 < 1
        path = tmp_path / "d2.cfg"
        path.write_text("d = 2\nkappa = 1.0, 0.5\nn_degree = 4\ngrid_order = 10\n"
                        f"time_nodes = 5\noutput = {tmp_path / 'reports'}\n")
        result = runner.invoke(main, ["-c", str(path), "inhomogeneous", "--q", "1.9"])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output
        assert "p must be >= 1" in result.output

    def test_inhomogeneous_non_finite_fails(self, runner, small_config, tmp_path):
        # at q = 1000 the q-th power of the density overflows: lhs = inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            result = runner.invoke(
                main, ["-c", str(small_config), "inhomogeneous", "--q", "1000"]
            )
        assert result.exit_code == EXIT_IDENTITY
        assert "IDENTITY FAILURE" in result.output
        report = json.loads((tmp_path / "reports" / "inhomogeneous.json").read_text())
        assert report["rows"][0]["lhs"] == float("inf")

    def test_kss(self, runner, small_config, tmp_path):
        result = runner.invoke(main, ["-c", str(small_config), "kss"])
        assert result.exit_code == EXIT_OK, result.output
        assert (tmp_path / "reports" / "kss.json").exists()

    @pytest.mark.parametrize(
        "n_degree, grid_order, code, ratio",
        [(16, 24, EXIT_IDENTITY, "1.00486"), (32, 40, EXIT_OK, "0.998984")],
    )
    def test_kss_truncation(self, runner, small_config, tmp_path, n_degree, grid_order,
                            code, ratio):
        # the bound holds for the operator, not for its truncation: at
        # n_degree 16 the truncated lhs exceeds the rhs beyond the gate's
        # 1e-3 slack, and doubling the degree brings it back under
        path = small_config
        path.write_text(
            path.read_text()
            .replace("n_degree = 16", f"n_degree = {n_degree}")
            .replace("grid_order = 24", f"grid_order = {grid_order}")
        )
        result = runner.invoke(
            main, ["-c", str(path), "kss", "--r", "1.5", "--params", "0 1 1 0.3"]
        )
        assert result.exit_code == code, result.output
        assert f"ratio={ratio}" in result.output

    def test_kss_converges_monotonically(self, runner, small_config):
        # f(alpha x + beta p) is the exact oscillator conjugate of the
        # truncated multiplication operator, so the ratio moves only with the
        # truncation: it falls steadily (1.00486, 0.998984, 0.996283, 0.994764)
        text = small_config.read_text()
        ratios = []
        for n_degree in (16, 32, 48, 64):
            small_config.write_text(
                text.replace("n_degree = 16", f"n_degree = {n_degree}")
                .replace("grid_order = 24", f"grid_order = {n_degree + 8}")
            )
            result = runner.invoke(
                main, ["-c", str(small_config), "kss", "--r", "1.5", "--params", "0 1 1 0.3"]
            )
            ratios.append(float(result.output.split("ratio=")[1].split()[0]))
        assert np.all(np.diff(ratios) <= 0.0), ratios

    def test_kss_bad_params(self, runner, small_config):
        result = runner.invoke(
            main, ["-c", str(small_config), "kss", "--params", "1 2 3"]
        )
        assert result.exit_code == EXIT_CONFIG

    def test_mhls(self, runner, small_config, tmp_path):
        result = runner.invoke(
            main, ["-c", str(small_config), "mhls", "--n", "2", "--beta", "0.5"]
        )
        assert result.exit_code == EXIT_OK, result.output
        assert (tmp_path / "reports" / "mhls.csv").exists()

    def test_mhls_bad_beta(self, runner, small_config):
        result = runner.invoke(
            main, ["-c", str(small_config), "mhls", "--beta", "1.5"]
        )
        assert result.exit_code == EXIT_CONFIG

    def test_sweep(self, runner, small_config, tmp_path):
        result = runner.invoke(
            main,
            ["-c", str(small_config), "sweep", "--steps", "2",
             "--j-values", "1 2", "--seeds", "1"],
        )
        assert result.exit_code == EXIT_OK, result.output
        assert (tmp_path / "reports" / "sweep.csv").exists()
        assert (tmp_path / "reports" / "ratio_vs_q.dat").exists()
        summary = json.loads((tmp_path / "reports" / "sweep.json").read_text())
        assert summary["rows"] == 4

    def test_sweep_rows_match_one_q_evaluations(self, runner, small_config, tmp_path):
        # one propagation per (J, seed) serves every q: the rows stay q-major
        # and equal, in every column but wall_time, one-q evaluations
        result = runner.invoke(
            main,
            ["-c", str(small_config), "sweep", "--steps", "3",
             "--j-values", "1 2", "--seeds", "2"],
        )
        assert result.exit_code == EXIT_OK, result.output
        cfg = load_config(str(small_config))
        s, _, basis = _context(cfg)
        expected = []
        for q in np.linspace(1.1, 1.9, 3).tolist():
            for j_count in (1, 2):
                for seed in range(2):
                    [rep] = run_inequality(basis, [q], "haar_rotation", j_count, seed,
                                           "hermite", cfg["time_nodes"])
                    expected.append({**rep.as_dict(),
                                     "admissible": ExponentPair(q, s.d_eff).admissible})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(expected[0]))
        writer.writeheader()
        writer.writerows(expected)
        reports = tmp_path / "reports"

        def columns(text):
            return [{k: v for k, v in row.items() if k != "wall_time"}
                    for row in csv.DictReader(io.StringIO(text))]

        assert columns((reports / "sweep.csv").read_text()) == columns(buf.getvalue())
        curve = {}
        for row in expected:
            curve.setdefault(row["q"], []).append(row["ratio"])
        dat = "".join(f"{q:.6f} {max(curve[q]):.8f}\n" for q in sorted(curve))
        assert (reports / "ratio_vs_q.dat").read_text() == dat

    def test_hartree(self, runner, small_config, tmp_path):
        result = runner.invoke(
            main, ["-c", str(small_config), "hartree", "--steps", "9"]
        )
        assert result.exit_code == EXIT_OK, result.output
        summary = json.loads((tmp_path / "reports" / "hartree.json").read_text())
        assert summary["converged"]
        assert summary["trace_drift"] < 1e-8


class TestHartreeRobustness:
    def test_multiplicity_count_must_match_dimension(self, runner, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d = 1\nkappa = 0.5 1.0\nn_degree = 8\ngrid_order = 12\n"
                        f"output = {tmp_path}\n")
        result = runner.invoke(main, ["-c", str(path), "hartree"])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    def test_two_dimensions(self, runner, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d = 2\nkappa = 1.0 0.5\nn_degree = 6\ngrid_order = 8\n"
                        f"output = {tmp_path / 'reports'}\n")
        result = runner.invoke(main, ["-c", str(path), "hartree", "--steps", "9"])
        assert result.exit_code == EXIT_OK, result.output
        summary = json.loads((tmp_path / "reports" / "hartree.json").read_text())
        assert summary["converged"]
        assert summary["trace_drift"] < 1e-8

    def test_narrow_width_converges(self, runner, small_config, tmp_path):
        # every positive finite width is exact: 0.05 is an interaction, not a
        # configuration error
        result = runner.invoke(
            main, ["-c", str(small_config), "hartree", "--width", "0.05", "--steps", "5"]
        )
        assert result.exit_code == EXIT_OK, result.output
        summary = json.loads((tmp_path / "reports" / "hartree.json").read_text())
        assert summary["converged"]
        assert summary["trace_drift"] < 1e-8

    @pytest.mark.parametrize("width", ["1e-3", "0.05", "1e3", "1e200"])
    def test_extreme_width_is_no_traceback(self, runner, small_config, width):
        result = runner.invoke(
            main, ["-c", str(small_config), "hartree", "--width", width, "--steps", "5"]
        )
        assert result.exit_code in (EXIT_OK, EXIT_CONFIG), result.output

    def test_too_few_steps(self, runner, small_config):
        result = runner.invoke(main, ["-c", str(small_config), "hartree", "--steps", "1"])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    def test_divergence_is_a_failure(self, runner, small_config, tmp_path):
        # the iterates overflow after a dozen steps: the solve stops as not
        # converged, the report is still written, and the exit code is 2
        with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
            result = runner.invoke(
                main, ["-c", str(small_config), "hartree", "--coupling", "40", "--horizon", "1"]
            )
        assert result.exit_code == EXIT_IDENTITY
        assert "converged=False" in result.output
        assert "IDENTITY FAILURE" in result.output
        summary = json.loads((tmp_path / "reports" / "hartree.json").read_text())
        assert not summary["converged"]


class TestBadOptions:
    @pytest.mark.parametrize(
        "args",
        [["--j-values", "1000"], ["--j-values", "0"], ["--steps", "0"], ["--seeds", "0"]],
    )
    def test_sweep(self, runner, small_config, args):
        result = runner.invoke(main, ["-c", str(small_config), "sweep", *args])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    @pytest.mark.parametrize("args", [["--j", "0"]])
    def test_strichartz(self, runner, small_config, args):
        result = runner.invoke(main, ["-c", str(small_config), "strichartz", *args])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output

    # Non-finite and out-of-range options, for each subcommand they reach:
    # each must stop in the config block (64, before any report) or fail a
    # numerical gate after writing its report (2), never succeed.
    @pytest.mark.parametrize("args, code", [
        (["strichartz", "--q", "nan"], EXIT_CONFIG),
        (["strichartz", "--q", "inf"], EXIT_CONFIG),
        (["strichartz", "--q", "nan", "--flow", "laplacian"], EXIT_CONFIG),
        (["inhomogeneous", "--q", "nan"], EXIT_CONFIG),
        (["inhomogeneous", "--q", "inf"], EXIT_CONFIG),
        (["kss", "--r", "nan"], EXIT_CONFIG),
        (["dual-schatten", "--qprime", "0.1"], EXIT_CONFIG),
        (["dual-schatten", "--qprime", "nan"], EXIT_CONFIG),
        (["dual-schatten", "--qprime", "inf"], EXIT_CONFIG),
        (["sweep", "--q-max", "nan"], EXIT_CONFIG),
        (["sweep", "--q-max", "inf"], EXIT_CONFIG),
        (["sweep", "--q-min", "nan"], EXIT_CONFIG),
        # the q-th power of the density overflows at q = 1000: lhs = inf
        (["sweep", "--q-min", "1000", "--q-max", "1000", "--steps", "1", "--seeds", "1",
          "--j-values", "8"], EXIT_IDENTITY),
        (["mhls", "--beta", "nan"], EXIT_CONFIG),
        (["hartree", "--horizon", "inf"], EXIT_CONFIG),
        (["hartree", "--coupling", "nan", "--steps", "5"], EXIT_CONFIG),
        (["kss", "--params", "nan 1 1 1"], EXIT_CONFIG),
        (["kss", "--params", "1 inf 1 1"], EXIT_CONFIG),
        (["hartree", "--coupling", "inf", "--steps", "5"], EXIT_CONFIG),
        (["hartree", "--width", "nan", "--steps", "5"], EXIT_CONFIG),
        # a zero width makes the interaction vanish: a solve would "converge"
        (["hartree", "--width", "0", "--steps", "5"], EXIT_CONFIG),
        (["hartree", "--width", "inf", "--steps", "5"], EXIT_CONFIG),
    ])
    def test_no_false_success(self, runner, small_config, tmp_path, args, code):
        # the one numerical failure here, at q = 1000, overflows on purpose
        expected = (pytest.warns(RuntimeWarning, match="overflow") if code == EXIT_IDENTITY
                    else contextlib.nullcontext())
        with expected:
            result = runner.invoke(main, ["-c", str(small_config), *args])
        assert result.exit_code == code, result.output
        reports = list((tmp_path / "reports").glob("*.json"))
        assert bool(reports) == (code == EXIT_IDENTITY)
