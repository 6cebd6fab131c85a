"""The traced benchmark wraps package functions by attribute name.

A refactor that drops one of those names (say, an import of `expm` into
`dqwitness.thermal`) would crash `perfbench/run.py --trace 1` with an
AttributeError, so every target must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
