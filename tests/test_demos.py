"""Smoke test: README's quick-start block and the narrative demos run.

Each runs as a fresh process with ``src`` on PYTHONPATH and must exit 0.
``demos/qutrit_region.py`` writes the golden CSVs and is covered by
``test_golden_data.py`` instead.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ("orbit_classification.py", "coherence_ball.py", "symplectic_orbits.py")


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT)


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1
    res = run_python(["-c", blocks[0]])
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    res = run_python([str(ROOT / "demos" / demo)])
    assert res.returncode == 0, res.stderr
