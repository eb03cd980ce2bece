"""orbit-atlas benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload states|montecarlo|datasets|symplectic \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
single-process child (bench/child.py) with one BLAS thread, against the
package in ``src/``.  With ``--trace 0`` the run also times fresh CLI
processes (``setup_s``) and reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run plus the
interpreter import times.  Every metric is printed as a ``metric`` line
with its unit; the last line of stdout is the JSON result.  Outputs are
checked: ``correct`` is false when an op fails other than by a documented
known defect (see workloads.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("states", "montecarlo", "datasets", "symplectic")

#: Metrics of the result line with --trace 0; the others are only printed.
END_TO_END = ("ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "setup_s")

#: Fresh CLI processes timed per run for setup_s, after one untimed warm-up.
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

#: A 2x2 state for the smallest ``classify`` command.
SETUP_STATE = {"dim": 2, "re": [[0.7, 0.1], [0.1, 0.3]], "im": [[0.0, 0.05], [-0.05, 0.0]]}

CHILD_TIMEOUT_EXTRA = 120


def setup_command(workload: str, seed: int, workdir: pathlib.Path) -> list:
    """The smallest CLI command of each workload."""
    if workload == "states":
        path = workdir / "setup.json"
        path.write_text(json.dumps(SETUP_STATE), encoding="utf-8")
        return ["classify", "--input", str(path)]
    if workload == "montecarlo":
        return ["qutrit", "fraction", "--n", "3", "--c2", "0.45", "--samples", "20000",
                "--seed", str(seed % 8)]
    if workload == "datasets":
        return ["tables", "2"]
    return ["tables", "sp"]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ORBIT_ATLAS_TOL"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC))
    return env


def timed_cli(argv: list, env: dict) -> float:
    """Wall time of one fresh ``python -m orbit_atlas`` process; raises on failure."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orbit_atlas", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout:
        raise RuntimeError(f"orbit_atlas {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return elapsed


def import_times(env: dict) -> dict:
    """Median cumulative import time (ms) of orbit_atlas and scipy.linalg."""
    samples = {"orbit_atlas": [], "scipy.linalg": []}
    for i in range(IMPORT_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import orbit_atlas"],
                              env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import orbit_atlas failed: {proc.stderr.strip()[-500:]}")
        if i == 0:
            continue  # warm-up: bytecode caches
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                found[parts[2].strip()] = int(parts[1]) / 1e3
        for name in samples:
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "orbit_atlas").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(args, workdir: pathlib.Path, env: dict) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + CHILD_TIMEOUT_EXTRA)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload child timed out")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload child exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "orbit_atlas" / "__init__.py").is_file():
        print(f"no orbit_atlas package under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        metrics = {}
        if args.trace:
            imports = import_times(env)
            metrics["import.orbit_atlas_ms"] = (imports["orbit_atlas"], "ms")
            metrics["import.scipy_linalg_ms"] = (imports["scipy.linalg"], "ms")
        else:
            argv = setup_command(args.workload, args.seed, workdir)
            timed_cli(argv, env)  # warm-up: bytecode caches
            setup = statistics.median(timed_cli(argv, env) for _ in range(SETUP_REPEATS))
            metrics["setup_s"] = (setup, "s")
        child = run_child(args, workdir, env)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics.update({k: (m["value"], m["unit"]) for k, m in child["metrics"].items()})
    attempted, failed = child["attempted"], child["failed"]
    env_record = dict(child["env"], nproc=os.cpu_count(), commit=commit(),
                      source_sha256=source_digest(), python=sys.version.split()[0])
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} passes {child['passes']} ops/pass {child['ops_per_pass']}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, (value, unit) in sorted({**metrics, "fail_ratio": (failed / attempted, "ratio")}.items()):
        print(f"metric {name} {value:.6g} {unit}")
    for key in child["unexpected"][:20]:
        print(f"unexpected failure: {key}", file=sys.stderr)

    keep = metrics if args.trace else END_TO_END
    result = {
        "correct": not child["unexpected"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keep},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
