import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dunklkit.cli import EXIT_CONFIG, EXIT_IDENTITY, EXIT_OK, _context, load_config, main
from dunklkit.hartree import solve_hartree
from dunklkit.hermite import kernel_Kit
from dunklkit.operators import schatten_norm
from dunklkit.strichartz import ExponentPair, StrichartzReport, run_inequality

SRC = Path(__file__).parent.parent / "src"


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

    @pytest.mark.parametrize("inside", ["", "sub", None])
    def test_output_names_a_file_exit_code(self, runner, small_config, tmp_path, monkeypatch,
                                           inside):
        # the report directory would fail at the end, after all the work;
        # inside=None drops the output key, so the default ./reports is a file
        path = small_config
        output = f"output = {tmp_path / 'reports'}\n"
        if inside is None:
            taken = tmp_path / "reports"
            monkeypatch.chdir(tmp_path)
            path.write_text(path.read_text().replace(output, ""))
        else:
            taken = tmp_path / "taken.txt"
            path.write_text(path.read_text().replace(output, f"output = {taken / inside}\n"))
        taken.write_text("keep\n")
        result = runner.invoke(main, ["-c", str(path), "mhls", "--n", "2", "--beta", "0.5"])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR" in result.output
        assert taken.read_text() == "keep\n"

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


    @pytest.mark.parametrize("command", ["strichartz", "dual-schatten", "inhomogeneous"])
    def test_negative_seed_exit_code(self, runner, small_config, tmp_path, command):
        # dual-schatten draws from the seed after its config block
        path = small_config
        path.write_text(path.read_text() + "seed = -1\n")
        result = runner.invoke(main, ["-c", str(path), command])
        assert result.exit_code == EXIT_CONFIG
        assert "CONFIG ERROR: line 8: seed must be non-negative, got -1" in result.output
        assert not (tmp_path / "reports").exists()


def dual_value(report):
    """The Schatten-2q' value of a dual-schatten report, checked to be the
    operator norm to the printed digits (at q' = 400, sigma^800 overflows
    for sigma > 2.43)."""
    row = report["rows"][0]
    assert f"{row['value']:.6g}" == f"{row['operator_norm']:.6g}"
    return row["value"]


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

    @pytest.mark.parametrize("args, line", [
        (["strichartz"], "q=1.5 p=3 lhs=5.82443 rhs=5.65685 ratio=1.02962"),
        (["strichartz", "--flow", "laplacian"],
         "q=1.5 p=3 lhs=3.66916 rhs=5.65685 ratio=0.648622"),
        (["strichartz", "--group", "gaussian_orthogonalized", "--j", "3", "--q", "1.2"],
         "q=1.2 p=6 lhs=2.49093 rhs=2.73754 ratio=0.909916"),
        (["sweep", "--steps", "2", "--seeds", "2", "--j-values", "1 2"],
         "8 evaluations; ratio range [1.021, 1.668]"),
        (["dual-schatten"], "q'=2: Schatten-2q' value 4.44257; operator norm 4.06114 <= 5.91249"),
        (["dual-schatten", "--qprime", "400"],
         "q'=400: Schatten-2q' value 4.06114; operator norm 4.06114 <= 5.91249"),
        (["inhomogeneous"], "lhs=30.9006 rhs=85.4991 ratio=0.361414"),
        (["kss"], "lhs=0.370101 rhs=0.392837 ratio=0.942122"),
        (["mhls"], "lhs=2.66078 rhs=1 empirical constant 2.66078"),
        (["mhls", "--n", "3", "--beta", "0.4"],
         "lhs=20.0103 rhs=1.76918 empirical constant 11.3105"),
        # round-off figures: the line's form, not its digits
        (["verify-kernels"], re.compile(r"worst relative residual \d\.\d{3}e-1\d")),
        (["hartree"], re.compile(
            r"converged=True iterations=4 trace drift=(0\.000e\+00|\d\.\d{3}e-1\d)")),
    ])
    def test_printed_figures(self, runner, small_config, args, line):
        # the printed figures are pinned: a change of the functionals' code
        # that keeps their values keeps these lines
        result = runner.invoke(main, ["-c", str(small_config), *args])
        assert result.exit_code == EXIT_OK, result.output
        if isinstance(line, re.Pattern):
            assert line.fullmatch(result.output.removesuffix("\n")), result.output
        else:
            assert result.output == line + "\n"

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

    def test_inhomogeneous_non_finite_fails(self, runner, small_config, tmp_path, monkeypatch):
        # no input overflows the scaled norms: a check returning inf stands in
        monkeypatch.setattr("dunklkit.cli.inhomogeneous_check", lambda *args, **kw: (np.inf, 1.0))
        result = runner.invoke(main, ["-c", str(small_config), "inhomogeneous"])
        assert result.exit_code == EXIT_IDENTITY
        assert "IDENTITY FAILURE" in result.output
        report = json.loads((tmp_path / "reports" / "inhomogeneous.json").read_text())
        assert report["rows"][0]["lhs"] == float("inf")

    @pytest.mark.parametrize("args, figure", [
        (["inhomogeneous", "--q", "1000"], lambda report: report["rows"][0]["lhs"]),
        (["sweep", "--q-min", "1000", "--q-max", "1000", "--steps", "1", "--seeds", "1",
          "--j-values", "8"], lambda report: report["max_ratio"]),
        (["dual-schatten", "--qprime", "400"], dual_value),
    ], ids=["inhomogeneous", "sweep", "dual-schatten"])
    def test_large_q_is_finite(self, runner, small_config, tmp_path, args, figure):
        # |f|^1000 overflows for |f| > 2.03, the norm scaled by max |f| does not
        result = runner.invoke(main, ["-c", str(small_config), *args])
        assert result.exit_code == EXIT_OK, result.output
        name = args[0].replace("-", "_")
        report = json.loads((tmp_path / "reports" / f"{name}.json").read_text())
        assert np.isfinite(figure(report))

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

    @pytest.mark.parametrize("args", [["--r", "1e308"], ["--params", "1e300 1 1 1"]],
                             ids=["r-1e308", "alpha-1e300"])
    def test_kss_overflow_to_the_limit_is_silent(self, tmp_path, args):
        # p log(|v|/m) in the norms and the square in the Gaussian profiles
        # overflow to -inf and e^{-inf} = 0, the right limit: a plain run, in
        # a child without the test suite's warning filter, prints no warning
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "dunklkit.cli", "kss", *args], cwd=tmp_path,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stderr == ""

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
        # one stacked propagation per seed serves every J and q: the rows stay
        # q-major and equal, in every column but wall_time, one-J, one-q
        # evaluations
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
                    [[rep]] = run_inequality(basis, [q], "haar_rotation", [j_count], seed,
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

    def test_sweep_files_match_deep_copied_rows(self, runner, small_config, tmp_path,
                                                     monkeypatch):
        # the rows are shallow copies of the reports' fields: the bytes of
        # sweep.json and sweep.csv are those that dataclasses.asdict gives,
        # on a frozen clock so that the wall times agree
        monkeypatch.setattr("time.perf_counter", lambda: 0.0)
        args = ["sweep", "--steps", "2", "--j-values", "1 2", "--seeds", "2"]
        reports = tmp_path / "reports"

        def written():
            result = runner.invoke(main, ["-c", str(small_config), *args])
            assert result.exit_code == EXIT_OK, result.output
            return [(reports / name).read_bytes() for name in ("sweep.json", "sweep.csv")]

        shallow = written()
        monkeypatch.setattr(StrichartzReport, "as_dict", lambda self: {
            **dataclasses.asdict(self), "kappa": " ".join(str(k) for k in self.kappa)
        })
        assert written() == shallow

    def test_hartree(self, runner, small_config, tmp_path):
        result = runner.invoke(
            main, ["-c", str(small_config), "hartree", "--steps", "9"]
        )
        assert result.exit_code == EXIT_OK, result.output
        summary = json.loads((tmp_path / "reports" / "hartree.json").read_text())
        assert summary["converged"]
        assert summary["trace_drift"] < 1e-8
        # |phi_0><phi_0| is even: the solve ran on the even and odd modes of N = 16
        assert summary["blocks"] == [9, 8]


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
        assert summary["blocks"] == [16, 12, 12, 9]

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


# The evaluation each command reports, replaced by one that returns inf or NaN
# for the exit-2 cases of test_no_false_success.
NON_FINITE = {
    "sweep": ("run_inequality", lambda *a, **kw: [
        [dataclasses.replace(r, lhs=np.inf, ratio=np.inf) for r in reports]
        for reports in run_inequality(*a, **kw)
    ]),
    "strichartz": ("run_inequality", lambda *a, **kw: [
        [dataclasses.replace(r, lhs=np.nan, ratio=np.nan) for r in reports]
        for reports in run_inequality(*a, **kw)
    ]),
    # the Schatten-2q' value inf, as the unscaled sum gave at q' = 400
    "dual-schatten": ("schatten_norm", lambda a, p, blocks=None:
                      schatten_norm(a, p, blocks) * np.array([np.inf, 1.0])),
    "kss": ("kss_check", lambda *a: (np.nan, 1.0)),
    "mhls": ("mhls_check", lambda *a: (np.inf, 1.0)),
    # max(worst, nan) kept worst: a NaN residual passed
    "verify-kernels": ("lens_relation_residual", lambda *a: np.nan),
}


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
        # evaluations patched to return inf or NaN (NON_FINITE): no input
        # overflows the scaled norms
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
        (["strichartz"], EXIT_IDENTITY),
        (["dual-schatten"], EXIT_IDENTITY),
        (["kss"], EXIT_IDENTITY),
        (["mhls"], EXIT_IDENTITY),
        (["verify-kernels"], EXIT_IDENTITY),
    ])
    def test_no_false_success(self, runner, small_config, tmp_path, monkeypatch, args, code):
        if code == EXIT_IDENTITY:
            monkeypatch.setattr(f"dunklkit.cli.{NON_FINITE[args[0]][0]}", NON_FINITE[args[0]][1])
        result = runner.invoke(main, ["-c", str(small_config), *args])
        assert result.exit_code == code, result.output
        reports = list((tmp_path / "reports").glob("*.json"))
        assert bool(reports) == (code == EXIT_IDENTITY)


def _drifting_hartree(config):
    """``solve_hartree`` with 1e-6 added to the last trace."""
    times, traj, diag = solve_hartree(config)
    return times, traj, {**diag, "traces": [*diag["traces"][:-1], diag["traces"][-1] + 1e-6]}


class TestIdentityGates:
    # finite figures that fail each command's own gate, and non-finite ones:
    # the report is written, the line printed, then the command exits 2 with
    # the gate's message; only a sweep that succeeds writes ratio_vs_q.dat
    @pytest.mark.parametrize("args, target, replacement, message", [
        (["verify-kernels"], "lens_relation_residual",
         lambda s, v, x, y: 2e-10 * np.abs(kernel_Kit(s, 0.5 * np.arctan(v), x, y)).max(),
         "kernel identity residual 2.000e-10 >= 1e-10"),
        (["strichartz", "--q", "1"], "run_inequality", lambda *a, **kw: [
            [dataclasses.replace(r, ratio=1.5) for r in reports]
            for reports in run_inequality(*a, **kw)
        ], "q=1 ratio 1.5 exceeds 1"),
        (["dual-schatten"], "schatten_norm", lambda a, p, blocks=None:
         schatten_norm(a, p, blocks) * np.array([1.0, 10.0]),
         "triangle bound violated for the dual functional"),
        (["hartree"], "solve_hartree", _drifting_hartree, "trace drift 1.000e-06 exceeds 1e-8"),
        (["mhls"], *NON_FINITE["mhls"], "non-finite lhs, ratio"),
        (["sweep", "--steps", "1", "--seeds", "1", "--j-values", "1"], *NON_FINITE["sweep"],
         "non-finite lhs, ratio"),
    ], ids=["verify-kernels", "strichartz-q1", "dual-schatten", "hartree", "mhls", "sweep"])
    def test_gate_failure(self, runner, small_config, tmp_path, monkeypatch, args, target,
                          replacement, message):
        monkeypatch.setattr(f"dunklkit.cli.{target}", replacement)
        result = runner.invoke(main, ["-c", str(small_config), *args])
        assert result.exit_code == EXIT_IDENTITY, result.output
        assert result.stderr == f"IDENTITY FAILURE: {message}\n"
        assert result.stdout.count("\n") == 1
        reports = tmp_path / "reports"
        assert (reports / f"{args[0].replace('-', '_')}.json").exists()
        assert not (reports / "ratio_vs_q.dat").exists()
