"""The verdict path runs on the standard library; no command loads scipy.

`import dqwitness`, `bounds` and `witness` load neither numpy nor scipy;
`figure` loads numpy (and the simulation layers) on first use, and bath
propagation still needs no scipy.  Each case runs in a fresh interpreter,
because within the test session other tests have already imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dqwitness
from dqwitness.bounds import PhysicalParams
from dqwitness.cli import emit_figure_data

SRC = Path(__file__).resolve().parents[1] / "src"

CSV = "time_s,f_dq,t2_star_s\n" + "".join(
    f"{i * 0.1},{0.15 if i == 5 else 0.02},0.045\n" for i in range(10)
)

LOADED = "'numpy' in sys.modules, 'scipy' in sys.modules"


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
    code = f"import sys, dqwitness; print({LOADED})"
    assert run_fresh(code, tmp_path) == ["False", "False"]


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["bounds", "--output", "out.json"], 0),
        (["witness", "--input", "series.csv", "--output", "out.json"], 2),
    ],
)
def test_verdict_commands_leave_scipy_unloaded(tmp_path, argv, exit_code):
    (tmp_path / "series.csv").write_text(CSV)
    code = f"import sys; from dqwitness.cli import main; print(main({argv!r}), {LOADED})"
    assert run_fresh(code, tmp_path) == [str(exit_code), "False", "False"]
    assert (tmp_path / "out.json").read_text().startswith("{")


def test_bath_propagation_leaves_scipy_unloaded(tmp_path):
    argv = ["figure", "--kind", "open_trajectory", "--output", "out.csv"]
    code = f"import sys; from dqwitness.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
    assert run_fresh(code, tmp_path) == ["0", "False"]
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 102


@pytest.mark.parametrize("kind", ["bpp_curve", "dq_signal", "open_trajectory"])
def test_figure_loaded_on_demand_writes_the_same_bytes(tmp_path, kind):
    argv = ["figure", "--kind", kind, "--output", "fresh.csv"]
    code = f"import sys; from dqwitness.cli import main; print(main({argv!r}), {LOADED})"
    assert run_fresh(code, tmp_path)[:2] == ["0", "True"]
    emit_figure_data(kind, PhysicalParams.tissue_defaults(), str(tmp_path / "session.csv"))
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "session.csv").read_bytes()


def test_lazy_package_names_resolve_to_their_modules():
    for module, names in dqwitness._EXPORTS.items():
        layer = getattr(dqwitness, module)
        assert all(getattr(dqwitness, name) is getattr(layer, name) for name in names)
    assert dqwitness.errors.NotClosed.__module__ == "dqwitness.errors"
    assert set(dqwitness.__all__) <= set(dir(dqwitness))
    with pytest.raises(AttributeError, match="no attribute 'simulate'"):
        dqwitness.simulate
