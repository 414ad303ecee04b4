"""Tests of the benchmark runner itself:

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

SWEEP = run.WORKLOADS["sweep-1d"]
DUHAMEL = run.WORKLOADS["duhamel-2d"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    empty = run.layer_metrics({"spans": [], "counts": {}, "import_s": 0.3})
    assert set(empty) | {"trace.overhead_s"} == set(run.PER_LAYER)


def test_reference_covers_every_workload_and_config_seed():
    figures = json.loads(run.REFERENCE.read_text())["figures"]
    for name in run.WORKLOADS:
        assert sorted(figures[name], key=int) == [str(s) for s in range(run.CONFIG_SEEDS)]


def test_self_time_subtracts_child_spans():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    calls, self_s = run.span_totals(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert self_s == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    assert run.within(spans, "c", "a") == 1
    assert run.within(spans, "b", "c") == 0


@pytest.mark.parametrize("change, problem", [
    ({"ratio": 0.5287895425958259 * (1 + 1e-5)}, "outside the tolerance"),
    ({"lhs": float("nan")}, "not a finite number"),
    ({"rhs": 93.5}, "printed"),
])
def test_check_rejects_departures(change, problem):
    reference = {"lhs": 49.17146936157837, "rhs": 92.98873256871876,
                 "ratio": 0.5287895425958259}
    printed = {"lhs": "49.1715", "rhs": "92.9887", "ratio": "0.52879"}
    assert run.check(DUHAMEL, printed, reference, reference) == []
    problems = run.check(DUHAMEL, printed, {**reference, **change}, reference)
    assert len(problems) >= 1 and problem in " ".join(problems)


def test_failed_subcommand_counts_and_is_not_timed():
    """``sweep`` at R2 with the default --q-max 1.9 exits 1: q = 1.9 exceeds
    1 + 2/d_eff at d_eff = 5.  The run must count it as attempted and failed,
    and report no time for it."""
    w = run.Workload("sweep-r2", run.R2, ("sweep", "--steps", "2", "--j-values", "1",
                                          "--seeds", "1"),
                     SWEEP.report, SWEEP.pattern, SWEEP.in_rows, SWEEP.print_rtol)
    children, metrics = run.measure(w, 0, 0.0, False, 1, reference={})
    setups, runs = children[:run.SETUP_RUNS], children[run.SETUP_RUNS:]
    assert all(c.ok for c in setups) and len(runs) == 1
    assert not runs[0].ok and runs[0].problems == ["exit code 1"]
    assert "p must be >= 1" in (run.OUT / w.name / "run" / "stderr.txt").read_text()
    assert metrics["wall_s"] is None and metrics["peak_rss_mb"] is None
    assert metrics["ok_share"] == pytest.approx(1 - 1 / len(children))


def test_traced_child_counts_layers(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("d = 1\nkappa = 0.5\nn_degree = 8\ngrid_order = 10\n"
                   "time_nodes = 16\noutput = report\n")
    spans = tmp_path / "spans.json"
    code, _, _ = run.spawn([sys.executable, str(run.HERE / "trace_child.py"), str(spans),
                            "-c", str(cfg), "dual-schatten"],
                           run.child_env(1), tmp_path, 120.0)
    assert code == 0
    trace = json.loads(spans.read_text())
    m = run.layer_metrics(trace)
    assert m["operators.multiplication_matrix.calls"] == 32
    assert m["operators.multiplication_matrix.per_time_node"] == 2.0
    assert m["operators.schatten_norm.calls"] == 2
    assert m["operators.schatten_norm.max_dim"] == 9
    assert m["hermite.eval_table_mb"] == pytest.approx(9 * 20 * 8 / 1e6)
    assert m["structure.dunkl_kernel_1d.calls"] == 0
    assert m["quadrature.rules.calls"] == 2  # tensor_grid and its one build_rule
    called = {s[0] for s in trace["spans"]}
    assert not any(f.startswith("dunklops.") for f in called)
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))
