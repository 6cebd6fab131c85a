"""Every demo runs to completion in a fresh interpreter, silently on stderr.

The demos are narrative scripts over the public API, so a renamed function
or a removed parameter shows up here first.  Each runs in a temporary
directory, because the demos write their CSV files into the current one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
