"""Run one dunklkit subcommand with every public function of the package
wrapped in a timing span, and write the spans when the command ends.

    python3 perfbench/trace_child.py SPANS.json -c run.cfg SUBCOMMAND [ARGS...]

Each span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open when the call began (-1 at top level).  Besides the spans
the file holds the names of every wrapped function, the time ``import
dunklkit.cli`` took, and a few counters taken from call arguments where the
work a call does is not visible from its duration alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("structure", "quadrature", "hermite", "dunklops", "freeprop",
           "operators", "strichartz", "hartree")
# The Dunkl kernel switches from its power series to the Bessel route above
# this |z| (structure._SERIES_RADIUS).
SERIES_RADIUS = 8.0
HOOK_SPAN = "tracer.counters"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, set] = {}

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def distinct(self, key: str, items):
        self.keys.setdefault(key, set()).update(items)

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before`` may replace the bound arguments,
        ``after`` sees them with the result."""
        spans, stack = self.spans, self.stack
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                began = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
                self.hook_span(began)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                began = time.perf_counter()
                after(bound.arguments, result)
                self.hook_span(began)
            return result

        return traced

    def hook_span(self, began: float):
        """Record the counters' own time as a span, so that it is no
        layer's self time."""
        self.spans.append([HOOK_SPAN, began, time.perf_counter(),
                           self.stack[-1] if self.stack else -1])

    def dump(self, path: str, functions: list[str], import_s: float):
        payload = {
            "import_s": import_s,
            "functions": functions,
            "counts": {**self.counts, **{k: len(v) for k, v in self.keys.items()}},
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _hooks(tracer: Tracer) -> dict:
    """Counters keyed by traced name: (before, after)."""

    def kernel_points(a):
        if a["kappa"] < 0:
            return
        z = np.abs(np.asarray(a["a"], dtype=complex) * np.asarray(a["y"], dtype=complex))
        tracer.add("kernel_points", z.size)
        if a["kappa"] != 0.0:
            tracer.add("kernel_bessel_points", int(np.count_nonzero(z > SERIES_RADIUS)))

    def eval_table(a, basis):
        tracer.peak("eval_table_mb", basis.size * basis.grid.npoints * 8 / 1e6)

    def schatten_dim(a):
        tracer.peak("schatten_max_dim", max(np.shape(getattr(a["a"], "matrix", a["a"]))))

    def dual_time_nodes(a):
        tracer.distinct("dual_time_nodes", np.asarray(a["time_nodes"][0], dtype=float).tolist())

    def count_source(a):
        source = a["r_of_s"]

        def counted(sv):
            tracer.add("source_evals", 1)
            return source(sv)

        a["r_of_s"] = counted

    def inverse_target(a):
        x = a["self"].nodes if a["x"] is None else np.asarray(a["x"], dtype=float)
        tracer.distinct("inverse_targets", [np.ascontiguousarray(x).tobytes()])

    def iterations(a, result):
        tracer.add("hartree_iterations", result[2]["iterations"])

    return {
        "structure.dunkl_kernel_1d": (kernel_points, None),
        "hermite.build_basis": (None, eval_table),
        "operators.schatten_norm": (schatten_dim, None),
        "operators.dual_functional": (dual_time_nodes, None),
        "strichartz.inhomogeneous_check": (count_source, None),
        "hartree.DunklTransform1D.inverse": (inverse_target, None),
        "hartree.solve_hartree": (None, iterations),
    }


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions and methods of every dunklkit module, rebind
    each name that refers to one of them anywhere in the package, and return
    the traced names."""
    import dunklkit

    hooks = _hooks(tracer)
    modules = [sys.modules[f"dunklkit.{m}"] for m in MODULES]
    names: list[str] = []
    wrapped: dict = {}

    def wrap(name, fn):
        names.append(name)
        return tracer.wrap(name, fn, *hooks.get(name, (None, None)))

    for mod in modules:
        short = mod.__name__.removeprefix("dunklkit.")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = wrap(f"{short}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, wrap(f"{short}.{attr}.{meth}", fn))
    for mod in [dunklkit, sys.modules["dunklkit.cli"], *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    return sorted(names)


def main(argv: list[str]) -> None:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import dunklkit.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    functions = install(tracer)
    try:
        dunklkit.cli.main.main(args=cli_args, prog_name="dunklkit")
    finally:
        tracer.dump(spans_path, functions, import_s)


if __name__ == "__main__":
    main(sys.argv[1:])
