"""One workload, measured in this process; started by run.py.

    child.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR

Builds the workload's inputs from the seed, then repeats passes over its
operations for about ``--seconds``: whole passes only, so every op runs
equally often, stopping before a pass that would overrun.  With ``--trace 1`` passes alternate between
traced and untraced, starting traced, and the per-layer figures come from
the traced ones.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import resource
import statistics
import sys
import time

import numpy as np

import spans
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


def score(op, out, err) -> bool:
    try:
        return bool(op.check(out, err))
    except (ValueError, KeyError, TypeError, AttributeError):  # malformed output
        return False


class Tally:
    """Outcome counts over every op run, timed or not."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []   # keys of failed ops that are not known defects

    def add(self, op, out, err) -> None:
        self.attempted += 1
        if not score(op, out, err):
            self.failed += 1
            if not op.known_defect:
                self.unexpected.append(f"{op.key}: {err!r}" if err else op.key)


def run_pass(ops, order, tally: Tally, durations: dict, tracer=None) -> int:
    """Run ``ops`` once in ``order``; returns the bytes of output produced."""
    results = []
    for i in order:
        op = ops[i]
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # scored as the op's outcome
            out, err = None, exc
        durations.setdefault(op.key, []).append(time.perf_counter() - t0)
        results.append((op, out, err))
    # scored after the pass, so checks stay out of the loop and out of spans
    out_bytes = 0
    for op, out, err in results:
        tally.add(op, out, err)
        if isinstance(out, str):
            out_bytes += len(out.encode("utf-8"))
    return out_bytes


def pass_seconds(durations: dict) -> float:
    """Time of a typical pass: each op's median over the passes, summed."""
    return sum(statistics.median(v) for v in durations.values())


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "numpy": np.__version__, "scipy": scipy_version, "blas": blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(workload, seconds: float, order_rng, trace: bool) -> dict:
    ops = workload.ops
    tally = Tally()
    plain, traced = {}, {}
    tracer = spans.Tracer() if trace else None
    traced_ops = traced_bytes = passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        order = order_rng.permutation(len(ops))
        if trace and passes % 2 == 0:
            tracer.install()
            try:
                traced_bytes += run_pass(ops, order, tally, traced, tracer)
            finally:
                tracer.uninstall()
            traced_ops += len(ops)
        else:
            run_pass(ops, order, tally, plain)
        passes += 1
        now = time.perf_counter()
        # whole passes only: stop before one that would overrun the deadline
        if now + (now - started) > deadline and (not trace or passes >= 2):
            break
    for op in workload.final:
        run_pass([op], [0], tally, {})

    result = {"attempted": tally.attempted, "failed": tally.failed,
              "unexpected": tally.unexpected, "passes": passes,
              "ops_per_pass": len(ops)}
    if trace:
        metrics = spans.layer_metrics(tracer, traced_ops)
        metrics["formats.bytes_out"] = (traced_bytes / traced_ops, "B/op")
        metrics["trace.overhead_ratio"] = (pass_seconds(plain) / pass_seconds(traced), "ratio")
        metrics["cli.build_parser_ms"] = (build_parser_ms(), "ms")
    else:
        # latency percentiles over the typical pass, not over the pooled
        # samples: a pooled percentile that falls between two op kinds
        # would swing with whichever of them ran slower
        typical = [statistics.median(v) for v in plain.values()]
        p50, p99 = np.percentile(typical, [50, 99]) * 1e3
        metrics = {
            "ops_per_s": (len(ops) / sum(typical), "1/s"),
            "op_p50_ms": (float(p50), "ms"),
            "op_p99_ms": (float(p99), "ms"),
            "op_count": (sum(len(v) for v in plain.values()), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        if workload.work_unit != "ops":
            metrics[f"{workload.work_unit}_per_s"] = (
                sum(op.work for op in ops) / sum(typical), "1/s")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def build_parser_ms(repeats: int = 21) -> float:
    from orbit_atlas import cli
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cli.build_parser()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    args = parser.parse_args()

    import orbit_atlas
    if ROOT / "src" not in pathlib.Path(orbit_atlas.__file__).resolve().parents:
        print(f"orbit_atlas imported from {orbit_atlas.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.workdir)
    order_rng = np.random.default_rng([args.seed, 1])
    result = measure(workload, args.seconds, order_rng, bool(args.trace))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
