"""The benchmark harness keeps running against the package.

The traced benchmark wraps package functions by attribute name.  A refactor
that drops one of those names (say, the module-level `expm` of
`dqwitness.thermal`) would crash `perfbench/run.py --trace 1` with an
AttributeError, so every target must resolve.  A one-second untraced run of
every workload checks the rest of the harness; no timing is asserted.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, (modules, _) in spans.TARGETS.items():
        attr = name.rsplit(".", 1)[1]
        missing += [f"{m}.{attr}" for m in modules
                    if not hasattr(importlib.import_module(m), attr)]
    assert missing == []


def test_every_workload_runs_and_checks_correct():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
