"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import orbit_atlas  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_once(ops):
    tally = child.Tally()
    child.run_pass(ops, range(len(ops)), tally, {})
    return tally


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    return workloads.build("states", 11, tmp_path_factory.mktemp("states"))


def test_states_pass_fails_only_on_known_defects(states):
    tally = run_once(states.ops)
    assert tally.unexpected == []
    assert tally.failed <= sum(op.known_defect for op in states.ops)


def test_tampered_golden_raises_fail_ratio():
    goldens = workloads.load_goldens()
    tables = [op for op in workloads.build_datasets(goldens).ops
              if op.key.startswith("tables")]
    assert run_once(tables).failed == 0

    goldens["datasets"]["tables 4"]["sha256"] = "0" * 64
    tampered = [op for op in workloads.build_datasets(goldens).ops
                if op.key.startswith("tables")]
    tally = run_once(tampered)
    assert tally.failed == 1 and tally.unexpected == ["tables 4"]

    goldens["fractions_csv"] = goldens["fractions_csv"].replace("0.2594", "0.2595")
    final = workloads.build_montecarlo(np.random.default_rng(0), goldens).final
    assert run_once(final).failed == 1


def test_span_self_times_sum_to_at_most_wall_time(states):
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        run_once(states.ops[:40])
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    own = spans.self_times(tracer.spans)
    assert tracer.spans and min(own) >= 0.0
    assert sum(own) <= wall


def test_tracer_uninstall_restores_every_binding():
    before = {name: getattr(orbit_atlas, name) for name in ("purity", "DensityMatrix")}
    init = orbit_atlas.DensityMatrix.__init__
    tracer = spans.Tracer()
    tracer.install()
    assert orbit_atlas.cli.purity is not before["purity"]
    tracer.uninstall()
    assert orbit_atlas.cli.purity is before["purity"] is orbit_atlas.linalg.purity
    assert orbit_atlas.DensityMatrix.__init__ is init
    assert np.linalg.eigvalsh.__module__.startswith("numpy")


def test_eigensolves_per_classify_op(states, monkeypatch):
    op = next(op for op in states.ops if op.key.startswith("classify/n3"))
    calls = []
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or solver(*a, **k))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally = child.Tally()
        child.run_pass([op], [0], tally, {}, tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    metrics = spans.layer_metrics(tracer, 1)
    # validation, the report's spectrum, clustering, entropy and purity
    # each solve the spectrum again
    assert metrics["linalg.eigensolves_per_op"][0] == len(calls) == 5
    assert metrics["linalg.eigensolves_per_classify"][0] == 5


def test_reference_embedding_matches_the_library():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 16):
        values, mults = workloads.class_spectrum(rng, n, "Generic")
        m = workloads.conjugated(workloads.haar_unitary(rng, n), np.repeat(values, mults))
        comps = workloads.coherence_components(m)
        lib = orbit_atlas.to_coherence_vector(orbit_atlas.DensityMatrix(m)).components
        assert np.allclose(comps, lib, atol=1e-13)
        assert np.allclose(workloads.matrix_from_components(n, comps), m, atol=1e-13)


def test_goldens_match_committed_outputs():
    goldens = workloads.load_goldens()
    sources = {k: v["source"] for k, v in goldens["datasets"].items() if v["source"]}
    assert len(sources) == 9
    for key, source in sources.items():
        assert workloads.sha256((ROOT / source).read_text(encoding="utf-8")) == \
            goldens["datasets"][key]["sha256"], key
    assert goldens["fractions_csv"] == \
        (ROOT / "demos/output/fractions.csv").read_text(encoding="utf-8")


def bench_run(cwd, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "symplectic", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_declared_metric(trace, section):
    proc = bench_run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_metric_names_are_plain():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = bench_run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
