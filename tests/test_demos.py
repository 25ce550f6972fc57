"""Every demo script runs to completion, and the tour of the projective
plane prints exactly its pinned text."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS


# the whole stdout of demos/tour_projective_plane.py
TOUR_STDOUT = """\
vertices: (0, 1, 2, 3, 4, 5)
top simplices: [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5), (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]

-- integral homology --
  H_0 = (1, [])
  H_1 = (0, [2])
  H_2 = (0, [])

-- local homology stalks at a vertex and an edge --
  at (0,): {0: (0, []), 1: (0, []), 2: (1, [])}
  at (0, 1): {0: (0, []), 1: (0, []), 2: (1, [])}

-- locally Cohen-Macaulay over Z: True
-- Cohen-Macaulay over Z: False  (reduced H_1 has 2-torsion)

-- duality, item 1ai --
  over Z: verdict True, cohomology {0: (0, []), 1: (0, [2]), 2: (1, [])}
  over F_2: verdict True, cohomology {0: (1, []), 1: (1, []), 2: (1, [])}

the 2-torsion in H_1 is carried through the degree-1 square
integrally, and becomes an honest one-dimensional space mod 2
"""


def _run(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, path], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    done = _run(path)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_tour_prints_its_pinned_text():
    done = _run(os.path.join(ROOT, "demos", "tour_projective_plane.py"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == TOUR_STDOUT
