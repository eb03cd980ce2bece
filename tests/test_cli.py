import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_atlas import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "demos" / "output"
GOLDENS = json.loads((ROOT / "bench" / "goldens.json").read_text(encoding="utf-8"))
#: sha256 digests of the dataset commands' stdout, keyed by command line
DATASET_DIGESTS = GOLDENS["datasets"]
#: ``qutrit fraction`` stdout, keyed by "n=.. c2=.. samples=.. seed=.."
FRACTION_GOLDENS = GOLDENS["montecarlo"]


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "orbit_atlas", *argv],
        capture_output=True, text=True, env=env)


def write_vector(path, n, comps, convention="coherence"):
    path.write_text(json.dumps(
        {"dim": n, "convention": convention, "components": list(comps)}))
    return str(path)


def random_state(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n, 2)) @ [1, 1j]
    rho = g @ g.conj().T
    return rho / rho.trace().real


def write_matrix(path, matrix):
    m = np.asarray(matrix, dtype=complex)
    path.write_text(json.dumps({
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }))
    return str(path)


class TestClassify:
    def test_maximally_mixed(self, tmp_path):
        f = write_matrix(tmp_path / "m.json", np.eye(3) / 3)
        res = run_cli("classify", "--input", f)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["state_class"] == "CompletelyRandom"
        assert report["orbit_dimension"] == 0
        assert float(report["coherence_radius"]) <= 1e-12
        assert report["manifold"] == "point"

    def test_degenerate_pair(self, tmp_path):
        f = write_matrix(tmp_path / "m.json", np.diag([0.6, 0.2, 0.2]))
        res = run_cli("classify", "--input", f)
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["state_class"] == "PseudoPure"
        assert "CP^2" in report["manifold"]
        assert report["orbit_dimension"] == 4
        assert abs(float(report["purity"]) - 0.44) <= 1e-10

    def test_non_positive_input_exits_3(self, tmp_path):
        f = write_matrix(tmp_path / "m.json", np.diag([1.2, -0.2]))
        res = run_cli("classify", "--input", f)
        assert res.returncode == 3
        assert "positivity violated" in res.stderr

    def test_garbage_json_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        res = run_cli("classify", "--input", str(f))
        assert res.returncode == 2

    def test_wrong_shape_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"dim": 3, "re": [[1, 0], [0, 0]]}))
        res = run_cli("classify", "--input", str(f))
        assert res.returncode == 2

    def test_missing_re_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"dim": 2, "im": [[0, 0], [0, 0]]}))
        res = run_cli("classify", "--input", str(f))
        assert res.returncode == 2
        assert 'missing "re"' in res.stderr

    @pytest.mark.parametrize("dim", [True, False])
    def test_boolean_dim_exits_2(self, tmp_path, capsys, dim):
        # JSON true is a bool, which Python also counts as the integer 1
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"dim": dim, "re": [[1.0]]}))
        assert cli.main(["classify", "--input", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f'"dim" must be a positive integer, got {dim!r}' in err

    def test_huge_dim_without_im_exits_2(self, tmp_path):
        # "re" is checked before the zeros of the missing "im" are allocated
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"dim": 1_000_000_000, "re": [[1]]}))
        res = run_cli("classify", "--input", str(f))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ('error: "re" must have shape (1000000000, 1000000000), '
                              'got (1, 1)\n')
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("entries, name", [
        ({"re": [["0.5", "0"], [0, 0.5]]}, "re"),
        ({"re": [[0.5, 0], [0, True]]}, "re"),
        ({"re": [[0.5, 0], [0, 0.5]], "im": [[0, False], [0, 0]]}, "im"),
        ({"re": [[0.5, 0], [0, 0.5]], "im": [[0, None], [0, 0]]}, "im"),
    ], ids=["string re", "true re", "false im", "null im"])
    def test_entry_that_is_not_a_json_number_exits_2(self, tmp_path, capsys, entries, name):
        # numpy would read "0.5" as 0.5, true as 1.0 and null as nan
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"dim": 2, **entries}))
        assert cli.main(["classify", "--input", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f'error: "{name}" entries must be JSON numbers\n'

    def test_nan_entry_exits_3(self, tmp_path):
        m = np.diag([0.5, 0.3, 0.2]).astype(complex)
        m[0, 1] = m[1, 0] = math.nan
        res = run_cli("classify", "--input", write_matrix(tmp_path / "m.json", m))
        assert res.returncode == 3
        assert res.stdout == ""
        assert "non-finite" in res.stderr

    def test_inf_entry_exits_3(self, tmp_path):
        m = np.diag([0.5, 0.3, 0.2]).astype(complex)
        m[0, 1] = m[1, 0] = math.inf
        res = run_cli("classify", "--input", write_matrix(tmp_path / "m.json", m))
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert "non-finite" in res.stderr

    @pytest.mark.parametrize("obj, reason", [
        ({"dim": 3, "re": [[1e308, 0, 0], [0, -1e308, 0], [0, 0, 1]]},
         "positivity violated: smallest eigenvalue -1.000e+308 < "),
        ({"dim": 2, "re": [[1e308, 0], [0, 1e308]]},
         "unit trace violated: |Tr(M) - 1| = inf > "),
        ({"dim": 2, "re": [[1, 0], [0, 0]], "im": [[1e308, 0], [0, 0]]},
         "hermiticity violated: max |M - M^dag| = inf > "),
    ], ids=["hermitian part", "trace", "hermiticity defect"])
    def test_entry_near_the_largest_double_exits_3(self, tmp_path, obj, reason):
        # each overflowed inside DensityMatrix: numpy warned, under -W error
        # the run ended in a traceback, and the first was reported as
        # "Eigenvalues did not converge"
        f = tmp_path / "m.json"
        f.write_text(json.dumps(obj))
        res = run_cli("classify", "--input", str(f), env_extra={"PYTHONWARNINGS": "error"})
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: " + reason)
        assert res.stderr.count("\n") == 1

    def test_tolerance_not_small_against_one_over_n_exits_3(self, tmp_path):
        # at --tol 1e308 this matrix passed all three checks, and its spectrum
        # of +-1.4e308 overflowed the coherence radius and the purity
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"dim": 2, "re": [[1e308, 1e308], [1e308, -1e308]]}))
        res = run_cli("classify", "--tol", "1e308", "--input", str(f),
                      env_extra={"PYTHONWARNINGS": "error"})
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr == "error: tolerance 1e+308 outside [0, 1/n) at n=2\n"

    @pytest.mark.parametrize("n", [32, 64])
    def test_large_state_report(self, tmp_path, n):
        rho = random_state(n, n)
        res = run_cli("classify", "--input", write_matrix(tmp_path / "m.json", rho))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["dim"] == n
        assert report["state_class"] == "Generic"
        radius, purity = float(report["coherence_radius"]), float(report["purity"])
        assert radius ** 2 == pytest.approx(purity - 1.0 / n, abs=1e-10)

    def test_one_level_state_exits_3(self, tmp_path):
        res = run_cli("classify", "--input", write_matrix(tmp_path / "m.json", [[1.0]]))
        assert res.returncode == 3
        assert "dimension 1 outside [2, 64]" in res.stderr

    def test_nan_cluster_tol_exits_3(self, tmp_path):
        # with a NaN tolerance no gap compares as small, so I/3 would be
        # reported Generic
        f = write_matrix(tmp_path / "m.json", np.eye(3) / 3)
        res = run_cli("classify", "--input", f, "--cluster-tol", "nan")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "cluster_tol" in res.stderr

    def test_cluster_tol_on_the_spectrum_scale_exits_3(self, tmp_path):
        # at 0.5 diag(0.6, 0.4) was reported CompletelyRandom, orbit dimension 0
        f = write_matrix(tmp_path / "m.json", np.diag([0.6, 0.4]))
        res = run_cli("classify", "--input", f, "--cluster-tol", "0.5")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "cluster_tol" in res.stderr

    def test_nan_env_tolerance_exits_3(self, tmp_path):
        f = write_matrix(tmp_path / "m.json", np.eye(3) / 3)
        res = run_cli("classify", "--input", f, env_extra={"ORBIT_ATLAS_TOL": "nan"})
        assert res.returncode == 3
        assert "tolerance" in res.stderr

    def test_unwritable_output_exits_2(self, tmp_path):
        f = write_matrix(tmp_path / "m.json", np.eye(3) / 3)
        res = run_cli("classify", "--input", f,
                      "--output", str(tmp_path / "missing" / "x.json"))
        assert res.returncode == 2
        assert "cannot write" in res.stderr
        assert "Traceback" not in res.stderr

    def test_unknown_flag_rejected(self, tmp_path):
        f = write_matrix(tmp_path / "m.json", np.eye(2) / 2)
        res = run_cli("classify", "--input", f, "--frobnicate")
        assert res.returncode == 2

    def test_env_tolerance_override(self, tmp_path):
        # trace off by 1e-7: rejected at the default tolerance, accepted
        # when ORBIT_ATLAS_TOL is loosened
        m = np.diag([0.5 + 1e-7, 0.5])
        f = write_matrix(tmp_path / "m.json", m)
        strict = run_cli("classify", "--input", f)
        assert strict.returncode == 3
        loose = run_cli("classify", "--input", f,
                        env_extra={"ORBIT_ATLAS_TOL": "1e-5"})
        assert loose.returncode == 0
        # explicit --tol wins over the environment
        explicit = run_cli("classify", "--input", f, "--tol", "1e-12",
                           env_extra={"ORBIT_ATLAS_TOL": "1e-5"})
        assert explicit.returncode == 3


class TestBloch:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        f = write_matrix(tmp_path / "m.json", rho)
        vec_file = str(tmp_path / "v.json")
        res = run_cli("bloch", "--input", f, "--to-vector", "--output", vec_file)
        assert res.returncode == 0, res.stderr
        res = run_cli("bloch", "--input", vec_file, "--to-matrix")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        back = np.array(obj["re"]) + 1j * np.array(obj["im"])
        assert np.abs(back - rho).max() <= 1e-9

    def test_zero_vector_gives_center(self, tmp_path):
        f = tmp_path / "v.json"
        f.write_text(json.dumps(
            {"dim": 4, "convention": "coherence", "components": [0.0] * 15}))
        res = run_cli("bloch", "--input", str(f), "--to-matrix")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert np.abs(np.array(obj["re"]) - np.eye(4) / 4).max() <= 1e-12

    def test_check_reports_non_physical_boundary_vector(self, tmp_path):
        comps = [0.0] * 8
        comps[3] = math.sqrt(2.0 / 3.0)
        f = tmp_path / "v.json"
        f.write_text(json.dumps(
            {"dim": 3, "convention": "coherence", "components": comps}))
        res = run_cli("bloch", "--input", str(f), "--to-matrix", "--check")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["physical"] is False
        assert obj["min_eigenvalue"] < -1e-6

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_check_non_finite_vector_exits_3(self, tmp_path, bad):
        comps = [0.0] * 8
        comps[3] = bad
        f = tmp_path / "v.json"
        f.write_text(json.dumps(
            {"dim": 3, "convention": "coherence", "components": comps}))
        res = run_cli("bloch", "--input", str(f), "--to-matrix", "--check")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "non-finite" in res.stderr

    @pytest.mark.parametrize("n", [32, 64])
    def test_large_round_trip_with_check(self, tmp_path, n):
        rho = random_state(n, n + 1)
        vec_file = tmp_path / "v.json"
        res = run_cli("bloch", "--input", write_matrix(tmp_path / "m.json", rho),
                      "--to-vector", "--check", "--output", str(vec_file))
        assert res.returncode == 0, res.stderr
        obj = json.loads(vec_file.read_text())
        assert len(obj["components"]) == n * n - 1
        assert obj["physical"] is True
        purity = float(np.sum(np.abs(rho) ** 2))
        assert np.sum(np.square(obj["components"])) == pytest.approx(
            purity - 1.0 / n, abs=1e-10)
        res = run_cli("bloch", "--input", str(vec_file), "--to-matrix", "--check")
        assert res.returncode == 0, res.stderr
        obj = json.loads(res.stdout)
        assert obj["physical"] is True
        back = np.array(obj["re"]) + 1j * np.array(obj["im"])
        assert np.abs(back - rho).max() <= 1e-10

    @pytest.mark.parametrize("check", [[], ["--check"]], ids=["", "check"])
    @pytest.mark.parametrize("n, comps", [
        (3, [0.0] * 6 + [1.7e308] * 2),
        (2, [1.7e308] * 3),
    ], ids=["diagonal", "every component"])
    def test_squared_length_past_the_largest_double_exits_3(self, tmp_path, capsys,
                                                            n, comps, check):
        # the first overflowed in the reconstruction, and the second's
        # smallest eigenvalue was reported as -Infinity
        f = write_vector(tmp_path / "v.json", n, comps)
        assert cli.main(["bloch", "--to-matrix", *check, "--input", f]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: coherence vector has a non-finite component or squared length\n"

    def test_vector_dimension_65_exits_3(self, tmp_path):
        f = write_vector(tmp_path / "v.json", 65, [0.0] * (65 * 65 - 1))
        res = run_cli("bloch", "--input", f, "--to-matrix")
        assert res.returncode == 3
        assert "dimension 65 outside [2, 64]" in res.stderr

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_check_bad_tolerance_exits_3(self, tmp_path, tol):
        # a physical qubit vector; a NaN or negative tolerance would call it
        # not physical
        f = write_vector(tmp_path / "v.json", 2, [0.0, 0.0, 0.5])
        res = run_cli("bloch", "--input", f, "--to-matrix", "--check", "--tol", tol)
        assert res.returncode == 3
        assert res.stdout == ""
        assert "finite and nonnegative" in res.stderr

    def test_missing_components_exits_2(self, tmp_path):
        f = tmp_path / "v.json"
        f.write_text(json.dumps({"dim": 2, "convention": "coherence"}))
        res = run_cli("bloch", "--input", str(f), "--to-matrix")
        assert res.returncode == 2
        assert 'missing "components"' in res.stderr

    @pytest.mark.parametrize("dim", [True, False])
    def test_boolean_dim_exits_2(self, tmp_path, capsys, dim):
        f = write_vector(tmp_path / "v.json", dim, [])
        assert cli.main(["bloch", "--input", f, "--to-matrix"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f'"dim" must be an integer >= 2, got {dim!r}' in err

    @pytest.mark.parametrize("comps, reason", [
        (["0.1", 0, 0], "must be JSON numbers"),
        ([0.1, True, 0], "must be JSON numbers"),
        ([0, 0, None], "must be JSON numbers"),
        ([10 ** 400, 0, 0], "are not numeric: int too large to convert to float"),
    ], ids=["string", "true", "null", "past a double"])
    def test_component_that_is_not_a_json_number_exits_2(self, tmp_path, capsys, comps,
                                                         reason):
        f = write_vector(tmp_path / "v.json", 2, comps)
        assert cli.main(["bloch", "--input", f, "--to-matrix"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f'error: "components" entries {reason}\n'

    def test_bloch_convention_output(self, tmp_path):
        f = write_matrix(tmp_path / "m.json", np.diag([1.0, 0.0]))
        res = run_cli("bloch", "--input", f, "--to-vector",
                      "--convention", "bloch")
        obj = json.loads(res.stdout)
        assert obj["convention"] == "bloch"
        assert obj["components"][2] == pytest.approx(math.sqrt(2), abs=1e-10)

    @pytest.mark.parametrize("name", ["foo", "BLOCH", "", None, ["bloch"], {"bloch": 1}])
    def test_unknown_convention_in_vector_file_exits_2(self, tmp_path, capsys, name):
        f = write_vector(tmp_path / "v.json", 2, [0.0, 0.0, 0.5], convention=name)
        assert cli.main(["bloch", "--input", f, "--to-matrix"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f'"convention" must be "coherence" or "bloch", got {name!r}' in err

    def test_convention_flag_offers_each_convention(self, capsys):
        assert cli.main(["bloch", "--help"]) == 0
        assert "--convention {coherence,bloch}" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--convention", "coherence"]])
    def test_coherence_output_is_the_default(self, tmp_path, flags):
        f = write_matrix(tmp_path / "m.json", np.diag([0.7, 0.2, 0.1]))
        res = run_cli("bloch", "--input", f, "--to-vector", *flags)
        assert res.returncode == 0
        assert json.loads(res.stdout)["convention"] == "coherence"


class TestTables:
    def test_three_level_table(self):
        res = run_cli("tables", "3")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "partition,manifold,dimension"
        assert len(lines) == 4
        dims = sorted(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert dims == [0, 4, 6]

    def test_four_level_table(self):
        res = run_cli("tables", "4")
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 6
        dims = sorted(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert dims == [0, 6, 8, 10, 12]

    def test_symplectic_table(self):
        res = run_cli("tables", "sp")
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "pattern,unitary_dim,paper_bound,computed_bound,exact"
        assert len(lines) == 17

    def test_bad_argument(self):
        assert run_cli("tables", "9").returncode == 2
        assert run_cli("tables", "flag").returncode == 2


class TestQutrit:
    def test_fraction_boundary_sphere(self):
        res = run_cli("qutrit", "fraction", "--n", "3", "--c2", "1.0",
                      "--samples", "10000", "--seed", "7")
        assert res.returncode == 0
        header, row = res.stdout.strip().splitlines()
        assert header == "n,c2,samples,fraction,seed"
        fields = row.split(",")
        assert fields[0] == "3"
        assert float(fields[3]) <= 0.001

    def test_fraction_is_deterministic(self):
        args = ("qutrit", "fraction", "--n", "3", "--c2", "0.7",
                "--samples", "3000", "--seed", "11")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_region_has_no_non_positive_at_low_purity(self):
        res = run_cli("qutrit", "region", "--a-steps", "150")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "a,c2,class,curve1,curve2,curve3"
        for line in lines[1:]:
            a, c2, cls, *_ = line.split(",")
            if float(c2) <= 0.5:
                assert cls != "NonPositive"

    def test_fig3_minimal_purity_single_record(self):
        res = run_cli("qutrit", "fig3", "--c2", "0.3333333")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "c2,a,entropy"
        assert len(lines) == 2
        entropy = float(lines[1].split(",")[2])
        assert entropy == pytest.approx(math.log(3), abs=1e-9)

    def test_fig2_output(self):
        res = run_cli("qutrit", "fig2", "--c2", "0.6", "--a-steps", "50")
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "c2,a,a_plus_b"
        assert len(lines) > 10

    def test_fraction_nan_tolerance_exits_3(self):
        # c2 = 0.5 lies in the inscribed ball, where the exact fraction is 1
        res = run_cli("qutrit", "fraction", "--n", "3", "--c2", "0.5", "--tol", "nan")
        assert res.returncode == 3
        assert res.stdout == ""

    def test_fraction_negative_env_tolerance_exits_3(self):
        res = run_cli("qutrit", "fraction", env_extra={"ORBIT_ATLAS_TOL": "-1"})
        assert res.returncode == 3
        assert "tolerance must be finite and nonnegative, got -1.0" in res.stderr

    def test_fraction_dense_dimension_cap_exits_3(self):
        res = run_cli("qutrit", "fraction", "--n", "17", "--c2", "0.5")
        assert res.returncode == 3
        assert "basis dimension 17 outside [2, 16]" in res.stderr

    def test_region_negative_a_steps_exits_2(self):
        res = run_cli("qutrit", "region", "--a-steps", "-5")
        assert res.returncode == 2
        assert "--a-steps must be >= 1" in res.stderr
        assert "Traceback" not in res.stderr

    def test_fig3_zero_a_steps_exits_2(self):
        res = run_cli("qutrit", "fig3", "--c2", "0.6", "--a-steps", "0")
        assert res.returncode == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("kind", ["region", "fig2", "fig3"])
    def test_a_steps_above_cap_exits_3(self, kind, tmp_path):
        res = run_cli("qutrit", kind, "--a-steps", "100001")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "steps 100001 outside [1, 100000]" in res.stderr
        assert "Traceback" not in res.stderr
        assert "--a-steps" in res.stderr
        out = tmp_path / "out.csv"
        assert run_cli("qutrit", kind, "--a-steps", "100001", "--output", str(out)).returncode == 3
        assert not out.exists()

    def test_bad_c2_exits_2(self):
        assert run_cli("qutrit", "fig3", "--c2", "0.2").returncode == 2
        assert run_cli("qutrit", "fraction", "--n", "3", "--c2", "0.1").returncode == 2

    @pytest.mark.parametrize("n, c2", [("3", "0.3333333"), ("3", "0.3"), ("4", "0.25")])
    def test_fraction_c2_at_or_below_one_over_n_exits_2(self, n, c2):
        # the fraction domain is open at 1/n: no snap onto its lower edge
        res = run_cli("qutrit", "fraction", "--n", n, "--c2", c2)
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"--c2={c2} outside (1/{n}, 1]" in res.stderr

    def test_closed_stdout_exits_2_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "orbit_atlas", "qutrit", "region", "--a-steps", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "a,c2,class,curve1,curve2,curve3\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
        assert "Traceback" not in err
        assert err.startswith("error: ")


def main_stdout(capsys, argv) -> bytes:
    """stdout of ``cli.main(argv)`` run in process, which must exit 0."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out.encode("utf-8")


#: A 3-level state with complex coherences and a 2-level coherence vector,
#: the inputs of the pinned ``classify`` and ``bloch`` outputs below.
PINNED_MATRIX = {"dim": 3, "re": [[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.2]],
                 "im": [[0.0, 0.1, 0.0], [-0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]}
PINNED_VECTOR = {"dim": 2, "convention": "coherence", "components": [0.1, -0.2, 0.3]}
_SPECTRUM = ["0.574636942881", "0.259187005094", "0.166176052025"]
#: (argv, input file, JSON object whose ``json.dumps(indent=2)`` is the stdout)
STATE_GOLDENS = [
    (["classify"], PINNED_MATRIX, {
        "dim": 3, "spectrum": _SPECTRUM, "distinct_values": _SPECTRUM,
        "multiplicities": [1, 1, 1], "state_class": "Generic",
        "manifold": "U(3)/[U(1)xU(1)xU(1)]", "orbit_dimension": 6,
        "entropy": "0.96655165754", "coherence_radius": "0.30276503541",
        "purity": "0.425"}),
    (["bloch", "--to-vector", "--check"], PINNED_MATRIX, {
        "dim": 3, "convention": "coherence",
        "components": [0.141421356237, 0.0, 0.0707106781187, -0.141421356237,
                       0.0, 0.0, 0.141421356237, 0.163299316186],
        "physical": True, "min_eigenvalue": 0.166176052025}),
    (["bloch", "--to-vector", "--convention", "bloch"], PINNED_MATRIX, {
        "dim": 3, "convention": "bloch",
        "components": [0.282842712475, 0.0, 0.141421356237, -0.282842712475,
                       0.0, 0.0, 0.282842712475, 0.326598632371]}),
    (["bloch", "--to-matrix", "--check"], PINNED_VECTOR, {
        "dim": 2,
        "re": [[0.712132034356, 0.0707106781187], [0.0707106781187, 0.287867965644]],
        "im": [[0.0, 0.141421356237], [-0.141421356237, 0.0]],
        "physical": True, "min_eigenvalue": 0.235424868894}),
]


class TestGoldenOutput:
    """The CLI prints the committed demos/output bytes, the benchmark's
    dataset digests and the pinned state reports."""

    def test_region(self, capsys):
        out = main_stdout(capsys, ["qutrit", "region"])
        assert out == (OUTPUT / "region.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    @pytest.mark.parametrize("c2", ["0.40", "0.55", "0.60", "0.80"])
    def test_figure_curve(self, capsys, kind, c2):
        out = main_stdout(capsys, ["qutrit", kind, "--c2", c2, "--a-steps", "400"])
        assert out == (OUTPUT / f"{kind}_c2_{c2}.csv").read_bytes()

    @pytest.mark.parametrize("what", [str(n) for n in range(2, 9)] + ["sp"])
    def test_tables(self, capsys, what):
        out = main_stdout(capsys, ["tables", what])
        assert hashlib.sha256(out).hexdigest() == DATASET_DIGESTS[f"tables {what}"]["sha256"]

    @pytest.mark.parametrize("key", sorted(DATASET_DIGESTS))
    def test_dataset_digest(self, capsys, key):
        out = main_stdout(capsys, key.split())
        assert hashlib.sha256(out).hexdigest() == DATASET_DIGESTS[key]["sha256"]
        assert out.count(b"\n") == DATASET_DIGESTS[key]["rows"] + 1

    @pytest.mark.parametrize("argv, obj, want", STATE_GOLDENS,
                             ids=[" ".join(g[0]) for g in STATE_GOLDENS])
    def test_state_report(self, capsys, tmp_path, argv, obj, want):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        out = main_stdout(capsys, argv + ["--input", str(path)])
        assert out == (json.dumps(want, indent=2) + "\n").encode("utf-8")

    def test_fraction(self, capsys):
        header, first = (OUTPUT / "fractions.csv").read_bytes().splitlines(keepends=True)[:2]
        out = main_stdout(capsys, ["qutrit", "fraction", "--n", "3", "--c2", "0.5",
                                   "--samples", "10000", "--seed", "5"])
        assert out == header + first

    @pytest.mark.parametrize("key", [
        "n=3 c2=0.6 samples=20000 seed=0",
        "n=8 c2=0.16 samples=10000 seed=0",
        "n=8 c2=0.18 samples=10000 seed=0",
        "n=8 c2=0.22 samples=10000 seed=4",
        "n=16 c2=0.075 samples=10000 seed=4",
        "n=16 c2=0.085 samples=10000 seed=0",
    ])
    def test_fraction_mixed_regime(self, capsys, key):
        # physical and non-physical samples in one run, so every verdict counts
        argv = ["qutrit", "fraction"]
        for item in key.split():
            name, value = item.split("=")
            argv += [f"--{name}", value]
        out = main_stdout(capsys, argv).decode("utf-8")
        assert out == FRACTION_GOLDENS[key]
        assert 0.0 < float(out.splitlines()[1].split(",")[3]) < 1.0


#: Flag settings that each command once accepted and never read.
UNREAD_SETTINGS = [
    ["qutrit", "region", "--c2", "0.7"],
    ["qutrit", "region", "--n", "9"],
    ["qutrit", "region", "--samples", "0"],
    ["qutrit", "region", "--seed", "1"],
    ["qutrit", "region", "--tol", "nan"],
    *([["qutrit", kind, flag, value]
       for kind in ("fig2", "fig3")
       for flag, value in (("--n", "3"), ("--samples", "5"), ("--seed", "1"),
                           ("--tol", "-1"))]),
    ["qutrit", "fraction", "--a-steps", "0"],
    ["bloch", "--to-matrix", "--convention", "bloch"],
    ["bloch", "--to-matrix", "--tol", "nan"],
]
#: Flag values a command reads but cannot use.
BAD_VALUES = [
    ["qutrit", "fraction", "--seed", "-1"],
]
#: Options given before the qutrit kind, which only the kind declares.
OPTIONS_BEFORE_KIND = [
    ["qutrit", "--c2", "0.6", "fig3"],
    ["qutrit", "--output", "x.csv", "region"],
    ["qutrit", "--n", "3", "fraction"],
]


@pytest.mark.parametrize("argv", UNREAD_SETTINGS + OPTIONS_BEFORE_KIND + BAD_VALUES,
                         ids=" ".join)
def test_flag_a_command_does_not_read_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # where a wrongly accepted --output would write
    if argv[0] == "bloch":
        argv = argv + ["--input", write_vector(tmp_path / "v.json", 2, [0.0, 0.0, 0.5])]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err


#: Matrix files that must be refused with one ``error:`` line, each with the
#: start of that line (``{f}`` is the file's path): bytes that are not UTF-8,
#: arrays nested deeper than the decoder's recursion limit, and integers that
#: the decoder or a double cannot hold.
MALFORMED_FILES = {
    "not UTF-8": (b"\xff\xfe{}", "invalid JSON in {f}: "),
    "100000 deep": (b"[" * 100_000 + b"]" * 100_000, "invalid JSON in {f}: "),
    # int() refuses a literal of more than 4300 digits inside the decoder
    "dim of 4400 digits": (b'{"dim": 1' + b"0" * 4400 + b', "re": [[1]]}',
                           "invalid JSON in {f}: "),
    # a JSON number that no double holds
    "re entry of 401 digits": (b'{"dim": 1, "re": [[1' + b"0" * 400 + b']]}',
                               '"re" entries are not numeric: '),
}


@pytest.mark.parametrize("command", [["classify"], ["bloch", "--to-vector"]], ids=" ".join)
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_input_file_exits_2_without_traceback(tmp_path, command, name):
    content, start = MALFORMED_FILES[name]
    f = tmp_path / "bad.json"
    f.write_bytes(content)
    res = run_cli(*command, "--input", str(f))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: " + start.format(f=f))
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_negative_seed_is_a_parse_error(capsys):
    assert cli.main(["qutrit", "fraction", "--seed", "-1"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


def readme_commands() -> list:
    """Each ``orbit-atlas ...`` line of README's code blocks, split into words."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    return [shlex.split(line, comments=True)
            for block in blocks for line in block.splitlines()
            if line.startswith("orbit-atlas ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


# --------------------------------------------------------------------------
# Fuzz: hostile documents and flag values end in a documented exit.

#: Placeholder for an integer literal of more than 4300 digits, which
#: ``json.dumps`` cannot write; ``mutated_documents`` puts the literal in its place.
LONG_LITERAL = "<4400 digits>"
#: Numbers at the edges of a double and past them, the JSON constants
#: Python's decoder accepts, and the over-long literal.
EDGE_NUMBERS = [1e308, -1e308, 1.7976931348623157e308, 5e-324, 0, -0.0, 10 ** 400,
                -10 ** 400, math.nan, math.inf, -math.inf, LONG_LITERAL]
EDGE_OR_SMALL = st.sampled_from(EDGE_NUMBERS) | st.floats(-1.0, 1.0)
HOSTILE_LEAVES = st.one_of(
    st.sampled_from(EDGE_NUMBERS), st.floats(), st.integers(), st.none(), st.booleans(),
    st.text(max_size=4))
#: A leaf, or a small nested list or object of leaves.
HOSTILE_VALUES = st.recursive(
    HOSTILE_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=10)


def same_shape(node):
    """Values shaped like ``node``: every number of it an ``EDGE_OR_SMALL``
    draw, so that several entries of one matrix or vector may be huge."""
    if isinstance(node, list):
        return st.tuples(*map(same_shape, node)).map(list)
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return EDGE_OR_SMALL
    return st.just(node)


#: Valid documents, each with the commands that read it.
FUZZ_DOCUMENTS = [
    (doc, [["classify"], ["bloch", "--to-vector"],
           ["bloch", "--to-vector", "--check", "--convention", "bloch"]])
    for doc in (PINNED_MATRIX, {"dim": 2, "re": [[0.75, 0.0], [0.0, 0.25]]},
                {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]})
] + [
    (doc, [["bloch", "--to-matrix"], ["bloch", "--to-matrix", "--check"]])
    for doc in (PINNED_VECTOR, {"dim": 3, "convention": "bloch", "components": [0.1] * 8})
]
#: The flags that take a number, per command the fuzz runs.
FUZZ_FLAGS = {
    "classify": ["--tol", "--cluster-tol"],
    "bloch": ["--tol"],
    "qutrit region": ["--a-steps"],
    "qutrit fig2": ["--c2", "--a-steps"],
    "qutrit fig3": ["--c2", "--a-steps"],
    "qutrit fraction": ["--n", "--c2", "--samples", "--seed", "--tol"],
}
#: Zero, negative zero, huge, tiny, NaN and infinite flag values.  None is a
#: usable huge --samples or --a-steps, which would run for that long.
FLAG_VALUES = ["0", "-0.0", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf"]
ENV_TOL = st.none() | st.sampled_from(FLAG_VALUES)


def _paths(node, path=()):
    """The path of every node under the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """``(text, argv)``: a valid document with one node replaced or deleted,
    or one key renamed, as JSON text, and a command that reads it, with at
    most one number flag from ``flag_values``."""
    doc, commands = draw(st.sampled_from(FUZZ_DOCUMENTS))
    doc = json.loads(json.dumps(doc))
    *head, last = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    action = draw(st.sampled_from(["replace"] * 3 + ["delete"]
                                  + ["rename"] * isinstance(parent, dict)))
    if action == "replace":
        parent[last] = draw(same_shape(parent[last]) | HOSTILE_VALUES)
    elif action == "delete":
        del parent[last]
    else:
        parent[draw(st.text(max_size=4))] = parent.pop(last)
    text = json.dumps(doc).replace(json.dumps(LONG_LITERAL), "1" + "0" * 4400)
    command = draw(st.sampled_from(commands))
    return text, command + draw(flag_values(command[0], at_most=1))


@st.composite
def flag_values(draw, command, at_most=2):
    """Some of ``command``'s number flags, each set to a ``FLAG_VALUES``
    entry, as ``--flag=value`` words."""
    chosen = draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), unique=True,
                           max_size=at_most))
    return [f"{flag}={draw(st.sampled_from(FLAG_VALUES))}" for flag in chosen]


def run_main(argv, env_tol):
    """``(code, stdout, stderr)`` of ``cli.main(argv)`` run in process, with
    ORBIT_ATLAS_TOL set to ``env_tol``, or unset for None."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("ORBIT_ATLAS_TOL", None)
        if env_tol is not None:
            os.environ["ORBIT_ATLAS_TOL"] = env_tol
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(code, out, err):
    """Exit 0 with a silent stderr and, for a JSON report, no NaN or
    Infinity in it; or exit 2 or 3 with exactly one ``error:`` line."""
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
        if out.startswith("{"):
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
    else:
        assert sum("error: " in line for line in err.splitlines()) == 1, err


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(document=mutated_documents())
def test_fuzzed_document_ends_in_a_documented_exit(fuzz_file, document):
    text, argv = document
    fuzz_file.write_text(text, encoding="utf-8")
    assert_documented_exit(*run_main(argv + ["--input", str(fuzz_file)], None))


#: ``(argv, FUZZ_FLAGS key, document)``: each command of ``FUZZ_DOCUMENTS``
#: on its valid document, and each qutrit kind, which reads no file.
FLAG_RUNS = ([(argv, argv[0], doc) for doc, commands in FUZZ_DOCUMENTS for argv in commands]
             + [(key.split(), key, None) for key in FUZZ_FLAGS if key.startswith("qutrit")])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(run=st.sampled_from(FLAG_RUNS), data=st.data(), env_tol=ENV_TOL)
def test_fuzzed_flag_values_end_in_a_documented_exit(fuzz_file, run, data, env_tol):
    command, key, doc = run
    argv = command + data.draw(flag_values(key))
    if doc is not None:
        fuzz_file.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--input", str(fuzz_file)]
    assert_documented_exit(*run_main(argv, env_tol))
