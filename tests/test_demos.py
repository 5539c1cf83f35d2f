"""The committed demos/out/ and demos/data/ are exactly what the demos and
the data generator write."""

import os
import shutil
import subprocess
import sys

from conftest import cli_env

DEMOS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "demos"))


def test_demo_outputs_match_committed(tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(DEMOS_DIR, demos,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    scripts = sorted(p.name for p in demos.glob("[0-9][0-9]_*.py"))
    assert len(scripts) == 5
    for script in scripts:
        proc = subprocess.run([sys.executable, str(demos / script)],
                              capture_output=True, cwd=tmp_path, env=cli_env())
        assert proc.returncode == 0, f"{script}: {proc.stderr.decode()}"
    committed = os.path.join(DEMOS_DIR, "out")
    names = sorted(os.listdir(committed))
    assert sorted(os.listdir(demos / "out")) == names
    for name in names:
        with open(os.path.join(committed, name), "rb") as fh:
            want = fh.read()
        assert (demos / "out" / name).read_bytes() == want, name


def test_demo_data_matches_the_generator(tmp_path):
    data = tmp_path / "data"
    committed = os.path.join(DEMOS_DIR, "data")
    shutil.copytree(committed, data, ignore=shutil.ignore_patterns("__pycache__"))
    names = sorted(p.name for p in data.iterdir() if p.name != "generate.py")
    for name in names:
        (data / name).unlink()
    proc = subprocess.run([sys.executable, str(data / "generate.py")],
                          capture_output=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert sorted(p.name for p in data.iterdir() if p.name != "generate.py") == names
    for name in names:
        with open(os.path.join(committed, name), "rb") as fh:
            assert (data / name).read_bytes() == fh.read(), name
