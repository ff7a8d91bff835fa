"""Every script in `demos/` runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import turancover

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
SOURCE_ROOT = str(Path(turancover.__file__).parent.parent)


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script):
    path = os.pathsep.join(filter(None, [SOURCE_ROOT, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
