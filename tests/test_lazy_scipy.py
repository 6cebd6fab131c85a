"""No command loads scipy: the verdict path and bath propagation run on numpy alone.

Each case runs in a fresh interpreter, because within the test session some
other test has already imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CSV = "time_s,f_dq,t2_star_s\n" + "".join(
    f"{i * 0.1},{0.15 if i == 5 else 0.02},0.045\n" for i in range(10)
)


def run_fresh(code, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_leaves_scipy_unloaded(tmp_path):
    code = "import sys, dqwitness; print('scipy' in sys.modules)"
    assert run_fresh(code, tmp_path) == ["False"]


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["bounds", "--output", "out.json"], 0),
        (["witness", "--input", "series.csv", "--output", "out.json"], 2),
    ],
)
def test_verdict_commands_leave_scipy_unloaded(tmp_path, argv, exit_code):
    (tmp_path / "series.csv").write_text(CSV)
    code = f"import sys; from dqwitness.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
    assert run_fresh(code, tmp_path) == [str(exit_code), "False"]
    assert (tmp_path / "out.json").read_text().startswith("{")


def test_bath_propagation_leaves_scipy_unloaded(tmp_path):
    argv = ["figure", "--kind", "open_trajectory", "--output", "out.csv"]
    code = f"import sys; from dqwitness.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
    assert run_fresh(code, tmp_path) == ["0", "False"]
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 102
