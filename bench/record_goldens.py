"""Record the expected outputs the benchmark scores against.

    PYTHONPATH=src python3 bench/record_goldens.py

Writes bench/goldens.json from the code in ``src/``: the SHA-256 digest and
row count of every ``datasets`` command, and the exact output of every
``montecarlo`` command for each sampler seed in ``MC_SEEDS``.  Outputs that
also exist as committed files under demos/output/ must match them byte for
byte, or nothing is written.  Run it only on a commit whose outputs are
known good; the committed goldens were recorded at the seed commit.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from orbit_atlas import cli  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_OUTPUT = ROOT / "demos" / "output"


def committed_file(argv) -> pathlib.Path | None:
    """The demos/output file a dataset command regenerates, if any."""
    if argv == ["qutrit", "region"]:
        return DEMO_OUTPUT / "region.csv"
    if argv[0] == "qutrit" and argv[1] in ("fig2", "fig3") and argv[5] == "400":
        c2 = float(argv[3])
        if c2 in (0.4, 0.55, 0.6, 0.8):
            return DEMO_OUTPUT / f"{argv[1]}_c2_{c2:.2f}.csv"
    return None


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = cli.build_parser()
    datasets = {}
    for argv in workloads.dataset_commands():
        out = workloads.cli_call(parser.parse_args(argv))
        source = committed_file(argv)
        if source is not None and source.read_text(encoding="utf-8") != out:
            print(f"{' '.join(argv)} does not regenerate {source}", file=sys.stderr)
            return 1
        datasets[" ".join(argv)] = {
            "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "rows": out.count("\n") - 1,
            "source": None if source is None else str(source.relative_to(ROOT)),
        }

    montecarlo = {}
    for n, c2, samples in workloads.MC_GRID:
        for seed in workloads.MC_SEEDS:
            argv = workloads.fraction_argv(n, c2, samples, seed)
            montecarlo[workloads.fraction_key(n, c2, samples, seed)] = \
                workloads.cli_call(parser.parse_args(argv))

    fractions_csv = (DEMO_OUTPUT / "fractions.csv").read_text(encoding="utf-8")
    header, *rows = fractions_csv.splitlines(keepends=True)
    for c2, row in zip(workloads.FRACTIONS_CSV_C2, rows):
        out = workloads.cli_call(parser.parse_args(workloads.fraction_argv(3, c2, 10000, 5)))
        if out != header + row:
            print(f"fraction n=3 c2={c2} seed=5 does not regenerate {row!r}", file=sys.stderr)
            return 1

    goldens = {"commit": commit(), "datasets": datasets, "montecarlo": montecarlo,
               "fractions_csv": fractions_csv}
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
