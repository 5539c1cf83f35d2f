import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vinefab.geometry import DHChain

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "data")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def cli_env():
    """Environment for a child Python that imports this checkout's src/ tree.

    The child's PYTHONPATH starts with the absolute src/ path, so it imports
    the code under test whatever its cwd and whether or not another copy of
    vinefab is installed; existing PYTHONPATH entries follow it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return env


def run_cli(*args, cwd=None):
    """Run `python -m vinefab ARGS` on this checkout's src/ tree.

    Returns (exit code, stdout bytes, stderr bytes).
    """
    proc = subprocess.run([sys.executable, "-m", "vinefab", *args],
                          capture_output=True, cwd=cwd, env=cli_env())
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def three_bend_chain():
    """The reference test robot: 100 mm links, 45 deg bends at joints 2 and 3,
    45 deg twist on link 2, 16.5 mm radius."""
    return DHChain.from_arrays(
        [100.0, 100.0, 100.0],
        [0.0, math.pi / 4.0, 0.0],
        [0.0, math.pi / 4.0, math.pi / 4.0],
        radius=16.5)


@pytest.fixture
def data_dir():
    return os.path.abspath(DATA_DIR)


def random_feasible_chain(rng, max_links=10, theta_deg=(3.0, 150.0),
                          a_range=(80.0, 300.0), r_range=(10.0, 25.0),
                          zero_last_alpha=True):
    """Random chain whose links are long enough to host their end folds."""
    n = int(rng.integers(1, max_links + 1))
    a = rng.uniform(*a_range, n)
    theta = np.radians(rng.uniform(*theta_deg, n))
    alpha = rng.uniform(-math.pi + 1e-6, math.pi, n)
    if zero_last_alpha:
        alpha[-1] = 0.0
    return DHChain.from_arrays(a, alpha, theta, radius=float(rng.uniform(*r_range)))
