"""Record the figures of merit that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload once per config seed and overwrites
``perfbench/reference.json``.  Run it only on a commit whose figures are
trusted: the benchmark treats any later departure beyond its tolerance as a
failed run.
"""

import json
import subprocess
import sys

import run


def main() -> int:
    env = run.child_env(1)
    figures = {}
    for w in run.WORKLOADS.values():
        for seed in range(run.CONFIG_SEEDS):
            workdir = run.OUT / w.name / "record"
            cfg = run.write_config(workdir, w.config, seed)
            code, wall, _ = run.spawn([sys.executable, "-m", "dunklkit.cli", "-c", str(cfg),
                                       *w.argv], env, workdir, 900.0)
            got = run.read_figures(w, workdir, code)
            problems = got if isinstance(got, list) else run.check(w, *got, got[1])
            if problems:
                print(f"{w.name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            figures.setdefault(w.name, {})[str(seed)] = got[1]
            print(f"{w.name} seed {seed}: {got[1]} ({wall:.2f} s)")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=run.ROOT).stdout.strip() or None
    run.REFERENCE.write_text(json.dumps(
        {"commit": commit, "machine": run.machine_info(1), "figures": figures}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
