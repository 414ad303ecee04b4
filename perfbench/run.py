"""dunklkit benchmark: time CLI subcommands end to end, or trace them layer by
layer, and check every run's figures of merit against the reference.

    python3 perfbench/run.py --blas-threads 1 --workload duhamel-2d \\
        --seed 0 --seconds 15 --trace 0

With ``--trace 0`` each workload subcommand runs as a fresh ``python3 -m
dunklkit.cli`` child, in a closed loop (one child at a time) until
``--seconds`` have passed; a few set-up-only children run first.  With
``--trace 1`` untraced children alternate with children of
``perfbench/trace_child.py``, which wrap every public function of the package
in spans.  Every metric is printed by name with its unit; the last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# Config seeds with a recorded reference; the benchmark seed picks one.
CONFIG_SEEDS = 8
SETUP_RUNS = 5
# Every run must end within 180 s; no child starts after this point.
DEADLINE_S = 170.0
# Figures of merit may differ from the reference by this share (absolute
# for the trace drift, which is round-off sized).
REF_RTOL = 1e-6
REF_ATOL = {"trace_drift": 1e-10}

R1 = {"d": 1, "kappa": "0.5", "n_degree": 48, "grid_order": 56, "time_nodes": 256}
R2 = {"d": 2, "kappa": "1 0.5", "n_degree": 12, "grid_order": 16, "time_nodes": 128}
R3 = {"d": 2, "kappa": "1 0.5", "n_degree": 16, "grid_order": 20, "time_nodes": 256}


@dataclass(frozen=True)
class Workload:
    """One subcommand on one config.  ``pattern`` reads the printed figures
    of merit (named groups); the report JSON holds the same keys, under
    ``rows[0]`` when ``in_rows``.  ``print_rtol`` is the rounding of the
    printed figures."""

    name: str
    config: dict
    argv: tuple
    report: str
    pattern: str
    in_rows: bool
    print_rtol: float


WORKLOADS = {w.name: w for w in (
    Workload("duhamel-2d", R2, ("inhomogeneous",), "inhomogeneous.json",
             r"lhs=(?P<lhs>\S+) rhs=(?P<rhs>\S+) ratio=(?P<ratio>\S+)", True, 1e-5),
    Workload("hartree-1d", R1, ("hartree", "--steps", "33"), "hartree.json",
             r"converged=(?P<converged>\w+) iterations=(?P<iterations>\d+) "
             r"trace drift=(?P<trace_drift>\S+)", False, 1e-3),
    Workload("sweep-1d", R1, ("sweep", "--steps", "9", "--seeds", "8"), "sweep.json",
             r"(?P<rows>\d+) evaluations; ratio range "
             r"\[(?P<min_ratio>[^,]+), (?P<max_ratio>[^\]]+)\]", False, 1e-3),
    Workload("dual-2d", R3, ("dual-schatten",), "dual_schatten.json",
             r"Schatten-2q' value (?P<value>\S+); operator norm (?P<operator_norm>\S+) <=",
             True, 1e-5),
)}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}

# Traced layer groups: a group's calls and self time sum over its functions.
GROUPS = {
    "structure.dunkl_kernel_1d": ("structure.dunkl_kernel_1d",),
    "quadrature.rules": ("quadrature.build_rule", "quadrature.plain_rule",
                         "quadrature.tensor_grid"),
    "quadrature.weighted_lp_norm": ("quadrature.weighted_lp_norm",),
    "quadrature.norms": ("quadrature.weighted_lp_norm", "quadrature.mixed_norm"),
    "hermite.build_basis": ("hermite.build_basis",),
    "hermite.evaluate": ("hermite.HermiteBasis.evaluate",),
    "operators.density": ("operators.density",),
    "operators.multiplication_matrix": ("operators.multiplication_matrix",),
    "operators.schatten_norm": ("operators.schatten_norm",),
    "strichartz.duhamel_solution": ("strichartz.duhamel_solution",),
    "strichartz.strichartz_lhs": ("strichartz.strichartz_lhs",),
    "hartree.picard_step": ("hartree.picard_step",),
    "hartree.inverse": ("hartree.DunklTransform1D.inverse",),
    "freeprop.free_propagator_matrix": ("freeprop.free_propagator_matrix",),
}

PER_LAYER = {
    "structure.dunkl_kernel_1d.calls": "count",
    "structure.dunkl_kernel_1d.self_s": "s",
    "structure.dunkl_kernel_1d.points": "count",
    "structure.kernel.bessel_share": "ratio",
    "quadrature.rules.calls": "count",
    "quadrature.rules.self_s": "s",
    "quadrature.weighted_lp_norm.calls": "count",
    "quadrature.norms.self_s": "s",
    "hermite.build_basis.self_s": "s",
    "hermite.evaluate.calls": "count",
    "hermite.evaluate.self_s": "s",
    "hermite.eval_table_mb": "MB",
    "operators.density.calls": "count",
    "operators.density.self_s": "s",
    "operators.multiplication_matrix.calls": "count",
    "operators.multiplication_matrix.self_s": "s",
    "operators.multiplication_matrix.per_time_node": "calls/node",
    "operators.schatten_norm.calls": "count",
    "operators.schatten_norm.self_s": "s",
    "operators.schatten_norm.max_dim": "count",
    "strichartz.duhamel_solution.calls": "count",
    "strichartz.duhamel_solution.self_s": "s",
    "strichartz.duhamel.source_evals": "count",
    "strichartz.strichartz_lhs.calls": "count",
    "strichartz.strichartz_lhs.self_s": "s",
    "hartree.picard_step.calls": "count",
    "hartree.picard_step.self_s": "s",
    "hartree.iterations": "count",
    "hartree.inverse.calls": "count",
    "hartree.inverse.self_s": "s",
    "hartree.inverse.builds_per_target": "builds/target",
    "freeprop.free_propagator_matrix.calls": "count",
    "freeprop.free_propagator_matrix.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    ok: bool
    wall_s: float
    rss_mb: float
    problems: list


def child_env(blas_threads: int) -> dict:
    threads = str(blas_threads)
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads)


def spawn(cmd: list, env: dict, workdir: Path, timeout: float):
    """Run ``cmd`` to completion with output to files in ``workdir``;
    return (exit code, seconds from spawn to exit, peak RSS in MB)."""
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=workdir)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def write_config(workdir: Path, config: dict, seed: int) -> Path:
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "report").mkdir(parents=True)
    path = workdir / "run.cfg"
    lines = [f"{k} = {v}" for k, v in {**config, "seed": seed, "output": "report"}.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_figures(w: Workload, workdir: Path, code: int):
    """(printed, reported) figures of merit of a finished child, or a list of
    problems."""
    if code != 0:
        return [f"exit code {code}"]
    match = re.search(w.pattern, (workdir / "stdout.txt").read_text())
    if match is None:
        return ["figures of merit missing from standard output"]
    try:
        report = json.loads((workdir / "report" / w.report).read_text())
        source = report["rows"][0] if w.in_rows else report
        return match.groupdict(), {k: source[k] for k in match.groupdict()}
    except (OSError, ValueError, LookupError, TypeError) as exc:
        return [f"report {w.report} unreadable: {exc!r}"]


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check(w: Workload, printed: dict, reported: dict, reference: dict) -> list:
    """Problems with one run's figures: non-finite, printed unlike reported,
    or reported outside the tolerance of the reference."""
    problems = []
    for key, value in reported.items():
        ref = reference.get(key)
        if isinstance(value, bool):
            same_print = printed[key] == str(value)
            same_ref = value == ref
        elif isinstance(value, int):
            same_print = int(printed[key]) == value
            same_ref = value == ref
        elif isinstance(value, float) and math.isfinite(value):
            same_print = abs(_number(printed[key]) - value) <= w.print_rtol * abs(value)
            same_ref = ref is not None and (
                abs(value - ref) <= REF_ATOL.get(key, REF_RTOL * abs(ref)))
        else:
            problems.append(f"{key} = {value!r} is not a finite number")
            continue
        if not same_print:
            problems.append(f"{key}: printed {printed[key]} but reported {value!r}")
        if not same_ref:
            problems.append(f"{key} = {value!r} is outside the tolerance of reference {ref!r}")
    return problems


def run_workload(w: Workload, cmd_prefix: list, env: dict, seed: int, reference: dict,
                 timeout: float, tag: str = "run") -> Child:
    """One subcommand in a fresh child, checked against ``reference``."""
    workdir = OUT / w.name / tag
    cfg = write_config(workdir, w.config, seed)
    code, wall, rss = spawn([*cmd_prefix, "-c", str(cfg), *w.argv], env, workdir, timeout)
    figures = read_figures(w, workdir, code)
    problems = figures if isinstance(figures, list) else check(w, *figures, reference)
    return Child(not problems, wall, rss, problems)


SETUP_CODE = """
import sys
from dunklkit.cli import load_config
from dunklkit import DunklStructure, build_basis, tensor_grid
cfg = load_config(sys.argv[1])
s = DunklStructure(cfg["d"], cfg["kappa"])
basis = build_basis(s, cfg["n_degree"], tensor_grid(s, cfg["grid_order"]))
print(basis.size, basis.grid.npoints)
"""


def run_setup(w: Workload, env: dict, seed: int, timeout: float) -> Child:
    """Import the CLI and build this workload's structure, grid and basis."""
    workdir = OUT / w.name / "setup"
    cfg = write_config(workdir, w.config, seed)
    code, wall, rss = spawn([sys.executable, "-c", SETUP_CODE, str(cfg)], env, workdir, timeout)
    c = w.config
    expected = f"{(c['n_degree'] + 1) ** c['d']} {(2 * c['grid_order']) ** c['d']}"
    got = (workdir / "stdout.txt").read_text().strip() if code == 0 else f"exit code {code}"
    problems = [] if got == expected else [f"set-up gave {got!r}, expected {expected!r}"]
    return Child(not problems, wall, rss, problems)


def span_totals(spans: list) -> tuple[dict, dict]:
    """Calls and self time per traced name.  Self time is a span's duration
    minus the durations of its direct children (spans nest strictly)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s = {}, {}
    for (name, start, end, _), inner in zip(spans, child_time):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
    return calls, self_s


def within(spans: list, name: str, ancestor: str) -> int:
    """Number of ``name`` spans opened inside an ``ancestor`` span."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def layer_metrics(trace: dict) -> dict:
    """Every per-layer metric of one traced child (``trace.overhead_s``
    excepted, which needs the untraced run)."""
    spans, counts = trace["spans"], trace["counts"]
    calls, self_s = span_totals(spans)
    m = {}
    for group, names in GROUPS.items():
        m[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
        m[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
    points = counts.get("kernel_points", 0)
    m["structure.dunkl_kernel_1d.points"] = points
    m["structure.kernel.bessel_share"] = counts.get("kernel_bessel_points", 0) / points if points else 0.0
    m["hermite.eval_table_mb"] = counts.get("eval_table_mb", 0.0)
    nodes = counts.get("dual_time_nodes", 0)
    in_dual = within(spans, "operators.multiplication_matrix", "operators.dual_functional")
    m["operators.multiplication_matrix.per_time_node"] = in_dual / nodes if nodes else 0.0
    m["operators.schatten_norm.max_dim"] = counts.get("schatten_max_dim", 0)
    m["strichartz.duhamel.source_evals"] = counts.get("source_evals", 0)
    m["hartree.iterations"] = counts.get("hartree_iterations", 0)
    targets = counts.get("inverse_targets", 0)
    m["hartree.inverse.builds_per_target"] = m["hartree.inverse.calls"] / targets if targets else 0.0
    m["cli.import_s"] = trace["import_s"]
    return {k: v for k, v in m.items() if k in PER_LAYER}


def run_traced(w: Workload, env: dict, seed: int, reference: dict, timeout: float):
    """One traced child: (Child, its layer metrics, (traced names, names
    never called))."""
    workdir = OUT / w.name / "traced"
    spans_path = workdir / "spans.json"
    cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans_path)]
    child = run_workload(w, cmd, env, seed, reference, timeout, tag="traced")
    if not child.ok:
        return child, {}, ([], [])
    trace = json.loads(spans_path.read_text())
    called = {span[0] for span in trace["spans"]}
    never = [f for f in trace["functions"] if f not in called]
    return child, layer_metrics(trace), (trace["functions"], never)


def machine_info(blas_threads: int) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas_version(numpy),
            "scipy_openblas": blas_version(scipy), "blas_threads": blas_threads}


def median_of(children: list, field: str):
    values = [getattr(c, field) for c in children if c.ok]
    return statistics.median(values) if values else None


def loop(step, start: float, seconds: float) -> list:
    """Closed loop: repeat ``step`` while one more, taking as long as the last,
    would end within ``seconds`` of ``start``; run it at least once."""
    results = []
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return results


def measure(w: Workload, seed: int, seconds: float, trace: bool, blas_threads: int,
            reference: dict) -> tuple[list, dict]:
    """All children of one run, and the run's metrics."""
    env = child_env(blas_threads)
    start = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - start)

    # Compile bytecode and warm the file cache; users do not pay this per run.
    OUT.mkdir(exist_ok=True)
    spawn([sys.executable, "-c", "import dunklkit.cli"], env, OUT, remaining())
    module = [sys.executable, "-m", "dunklkit.cli"]
    if not trace:
        setups = [run_setup(w, env, seed, remaining()) for _ in range(SETUP_RUNS)]
        runs = loop(lambda: run_workload(w, module, env, seed, reference, remaining()),
                    start, seconds)
        children = setups + runs
        metrics = {"wall_s": median_of(runs, "wall_s"), "setup_s": median_of(setups, "wall_s"),
                   "peak_rss_mb": median_of(runs, "rss_mb")}
        print(f"samples: {sum(c.ok for c in runs)} timed runs, "
              f"{sum(c.ok for c in setups)} set-ups")
        print("wall_s of each run:", " ".join(f"{c.wall_s:.3f}" for c in runs if c.ok))
    else:
        # Untraced and traced children alternate, so that drift in the
        # machine's speed falls on both sides of the overhead.
        pairs = loop(lambda: (run_workload(w, module, env, seed, reference, remaining()),
                              run_traced(w, env, seed, reference, remaining())),
                     start, seconds)
        untraced = [p[0] for p in pairs]
        children = untraced + [p[1][0] for p in pairs]
        traced = [p[1] for p in pairs if p[1][0].ok]
        metrics = {k: statistics.median(r[1][k] for r in traced)
                   for k in PER_LAYER if traced and k in traced[0][1]}
        if traced and median_of(untraced, "wall_s") is not None:
            metrics["trace.overhead_s"] = (median_of(children[len(pairs):], "wall_s")
                                           - median_of(untraced, "wall_s"))
        print(f"samples: {len(traced)} traced runs, {sum(c.ok for c in untraced)} untraced runs")
        if traced:
            functions, never = traced[-1][2]
            print(f"never called ({len(never)} of {len(functions)}): {' '.join(never)}")
            reached = {f.split(".")[0] for f in functions if f not in never}
            unreached = sorted({f.split(".")[0] for f in functions} - reached)
            print(f"modules never reached: {' '.join(unreached) or 'none'}")
    failed = sum(not c.ok for c in children)
    metrics["ok_share"] = 1.0 - failed / len(children)
    return children, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS and OpenMP threads in every child")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dunklkit" / "cli.py").is_file():
        print(f"no dunklkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    config_seed = args.seed % CONFIG_SEEDS
    reference = json.loads(REFERENCE.read_text())["figures"][w.name][str(config_seed)]
    print("machine:", json.dumps(machine_info(args.blas_threads)))
    print(f"workload {w.name}: dunklkit {' '.join(w.argv)} with config seed {config_seed}")
    children, metrics = measure(w, config_seed, args.seconds, bool(args.trace),
                                args.blas_threads, reference)
    for c in children:
        for problem in c.problems:
            print(f"FAILED run: {problem}")
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {metrics.get(name)} {unit}")
    failed = sum(not c.ok for c in children)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
