"""The package's import graph: what loads numpy, and the lazy namespace."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import orbit_atlas

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Run as ``python -c MAIN_THEN_REPORT MODULE ARGS``: runs ``python -m
#: orbit_atlas ARGS`` in this interpreter and reports at exit, after the
#: command's own exit, whether MODULE was ever imported.
MAIN_THEN_REPORT = """
import atexit, runpy, sys
module = sys.argv.pop(1)
atexit.register(lambda: print(module, "loaded:", module in sys.modules, file=sys.stderr))
sys.argv[0] = "orbit_atlas"
runpy.run_module("orbit_atlas", run_name="__main__", alter_sys=True)
"""


def run_then_report(module, argv):
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", MAIN_THEN_REPORT, module, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


#: Commands that run without numpy, with their exit codes: every orbit
#: table, the help text, an argparse error and refused qutrit arguments.
NUMPY_FREE = [(["tables", str(n)], 0) for n in range(2, 9)] + [
    (["--help"], 0),
    (["tables", "9"], 2),
    (["qutrit", "fraction", "--n", "1"], 2),
    (["qutrit", "fraction", "--c2", "0.2"], 2),
    (["qutrit", "region", "--a-steps", "0"], 2),
    (["qutrit", "fig2", "--c2", "2"], 2),
    (["qutrit", "region", "--a-steps", "100001"], 3),
    (["qutrit", "fraction", "--n", "17"], 3),
    (["qutrit", "fraction", "--tol", "-1"], 3),
    (["qutrit", "fraction", "--n", "3", "--tol", "0.5"], 3),
]


@pytest.mark.parametrize("argv, code", NUMPY_FREE, ids=[" ".join(a) for a, _ in NUMPY_FREE])
def test_command_starts_without_numpy(argv, code):
    res = run_then_report("numpy", argv)
    assert res.returncode == code, res.stderr
    assert bool(res.stdout) == (code == 0)
    assert res.stderr.splitlines()[-1] == "numpy loaded: False"


@pytest.mark.parametrize("argv", [["classify"], ["tables", "sp"]], ids=" ".join)
def test_command_leaves_qutrit_out(argv, tmp_path):
    if argv[0] == "classify":
        state = tmp_path / "m.json"
        state.write_text('{"dim": 2, "re": [[0.75, 0], [0, 0.25]]}')
        argv = argv + ["--input", str(state)]
    res = run_then_report("orbit_atlas.qutrit", argv)
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == "orbit_atlas.qutrit loaded: False"


#: Every name the package re-exported when its __init__ imported eagerly,
#: by the module it was imported from.
REEXPORTS = {
    "exceptions": """AmbiguousClustering DimensionMismatch DimensionOutOfRange
        LengthMismatch NoConvergence NotHermitian NotNormalized
        NotPositiveSemidefinite NotSquare NotUnitTrace OddDimension
        OrbitAtlasError ParameterOutOfRange ParseError ValidationError""",
    "linalg": """DEFAULT_TOL DensityMatrix purity random_density_matrix
        random_unitary unitarily_equivalent""",
    "orbits": """DEFAULT_CLUSTER_TOL MajorizationResult OrbitSignature OrbitTableRow
        StateClass enumerate_orbit_table entropy_of_spectrum flag_manifold_name
        majorize_compare orbit_dimension orbit_signature von_neumann_entropy""",
    "pauli": """Convention CoherenceVector convert_convention
        from_coherence_vector generate_basis is_physical_vector to_coherence_vector""",
    "qutrit": """FeasibleInterval QutritRegionPoint RegionClass feasible_interval
        fig2_curve fig3_curve qutrit_from_params sphere_physical_fraction""",
    "symplectic": """SpOrbitReport SpRule SpRuleKind Table2Row complex_to_quat
        has_sp_block_form is_symplectic quat_inner quat_mul quat_to_complex
        random_symplectic skew_form sp_orbit_bounds standard_J table2""",
}
NAMES = [(module, name) for module, names in REEXPORTS.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_reexport_is_the_home_modules_object(module, name):
    home = importlib.import_module(f"orbit_atlas.{module}")
    assert getattr(orbit_atlas, name) is getattr(home, name)


def test_lazy_namespace_lists_and_refuses_names():
    names = {name for _, name in NAMES}
    assert names <= set(orbit_atlas.__all__)
    assert names <= set(dir(orbit_atlas))
    star = {}
    exec("from orbit_atlas import *", star)
    assert all(star[name] is getattr(orbit_atlas, name) for name in names)
    assert orbit_atlas.linalg is importlib.import_module("orbit_atlas.linalg")
    with pytest.raises(AttributeError, match="no_such_name"):
        orbit_atlas.no_such_name
