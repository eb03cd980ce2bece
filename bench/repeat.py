"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload states --seeds 1-10 [--trace 0|1] \
        [--seconds S] [--out bench/results/file.json]

Runs bench/run.py once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median``.  With --trace 0 each end-to-end
metric's spread is compared with a third of its bound from BENCHMARK.json.
``--out`` also writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result,
                     "env": json.loads(next(l[4:] for l in lines if l.startswith("env ")))})
        values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                          if args.trace == 0)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    print(f"\n{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        summary[name] = s
        verdict = ""
        if args.trace == 0 and name in bounds and name != "setup_s":
            verdict = "ok" if s["spread"] < bounds[name] / 3 else f"WIDE (bound {bounds[name]})"
        print(f"{name:36s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:8.4f} {verdict}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
             "summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
