"""The committed demos/out/ is exactly what the five demos write."""

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
