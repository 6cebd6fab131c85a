"""In-memory spans around the public functions the package calls.

`Tracer.installed()` replaces each target attribute with a wrapper for the
duration of a `with` block and puts the originals back afterwards.  A
function is wrapped both in its own module (so calls between functions of
that module are seen) and wherever another module imported it by name,
e.g. `dqwitness.cli.ingest` and `dqwitness.thermal.expm`.  The numpy
eigensolvers are wrapped as attributes of `numpy.linalg`.

A span is [name, start, end, parent index, size, raised].  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time


def _dim(args, kwargs, result):
    return int(args[0].shape[0])


def _samples(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["times"])


def _levels(args, kwargs, result):
    return int(result.n_levels)


def _rows(args, kwargs, result):
    return (len(result), len(result.skipped))


# span name -> (modules holding it by that attribute name, size hook)
TARGETS = {
    "cli.main": (["dqwitness.cli"], None),
    "cli.run_witness": (["dqwitness.cli"], None),
    "measurement.ingest": (["dqwitness.measurement", "dqwitness.cli"], _rows),
    "measurement.stability_gate": (["dqwitness.measurement", "dqwitness.cli"], None),
    "bounds.witness": (["dqwitness.bounds", "dqwitness.cli"], None),
    "bounds.eta_seq": (["dqwitness.bounds", "dqwitness.cli"], None),
    "algebra.build_two_spin_operators": (
        ["dqwitness.algebra", "dqwitness.thermal", "dqwitness.cli"], None),
    "algebra.measure_structure_constants": (["dqwitness.algebra"], None),
    "algebra.killing_classify": (["dqwitness.algebra"], None),
    "algebra.heisenberg_flow_spectrum": (["dqwitness.algebra"], None),
    "dynamics.propagate": (["dqwitness.dynamics", "dqwitness.cli"], None),
    "dynamics.build_su11_rep": (["dqwitness.dynamics", "dqwitness.cli"], None),
    "dynamics.hyperbolic_signal": (["dqwitness.dynamics", "dqwitness.cli"], _levels),
    "dynamics.classify_growth": (["dqwitness.dynamics"], None),
    "thermal.default_thermal_model": (["dqwitness.thermal", "dqwitness.cli"], None),
    "thermal.build_davies_model": (["dqwitness.thermal"], None),
    "thermal.evolve_master": (["dqwitness.thermal", "dqwitness.cli"], _samples),
    "thermal.ceiling_scan": (["dqwitness.thermal"], None),
    "thermal.relative_entropy": (["dqwitness.thermal"], None),
    "thermal.pair_correlation": (["dqwitness.thermal"], None),
    "linalg.expm": (["dqwitness.thermal"], None),
    "linalg.eigh": (["numpy.linalg"], _dim),
    "linalg.eigvalsh": (["numpy.linalg"], _dim),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[4] = size(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, (modules, size) in TARGETS.items():
                attr = name.rsplit(".", 1)[1]
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, size))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[list], notes: list[dict]) -> dict[str, float]:
    """Per-layer sums, counts and ratios of one traced pass.

    A layer the workload does not exercise reads 0, ratios included.
    """
    by_name: dict[str, list[list]] = {name: [] for name in TARGETS}
    child_time = [0.0] * len(spans)
    for span in spans:
        by_name[span[0]].append(span)
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    self_time = {name: 0.0 for name in TARGETS}
    for index, span in enumerate(spans):
        self_time[span[0]] += span[2] - span[1] - child_time[index]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return float(sum(s[2] - s[1] for s in by_name[name]))

    def inside(index, ancestor):
        while index >= 0:
            if spans[index][0] == ancestor:
                return True
            index = spans[index][3]
        return False

    ladder_tried = [s[4] for s in spans
                    if s[0] == "linalg.eigh" and inside(s[3], "dynamics.hyperbolic_signal")]
    ladder_final = [s[4] for s in by_name["dynamics.hyperbolic_signal"] if s[4] is not None]
    ingests = [s[4] for s in by_name["measurement.ingest"] if s[4] is not None]
    samples = sum(s[4] for s in by_name["thermal.evolve_master"] if s[4] is not None)
    steps = sum(s[4] - 1 for s in by_name["thermal.evolve_master"] if s[4])
    decompositions = calls("linalg.eigh") + calls("linalg.eigvalsh")
    ladder_durations = [s[2] - s[1] for s in by_name["dynamics.hyperbolic_signal"]]
    tried_cubed = sum(n ** 3 for n in ladder_tried)

    return {
        "cli.main.self_s": self_time["cli.main"],
        "cli.run_witness.self_s": self_time["cli.run_witness"],
        "measurement.ingest.busy_s": busy("measurement.ingest"),
        "measurement.ingest.rows": sum(r for r, _ in ingests),
        "measurement.ingest.skipped_rows": sum(k for _, k in ingests),
        "measurement.stability_gate.busy_s": busy("measurement.stability_gate"),
        "bounds.witness.calls": calls("bounds.witness"),
        "bounds.witness.busy_s": busy("bounds.witness"),
        "bounds.eta_seq.calls": calls("bounds.eta_seq"),
        "algebra.measure_structure_constants.busy_s": busy("algebra.measure_structure_constants"),
        "algebra.killing_classify.busy_s": busy("algebra.killing_classify"),
        "algebra.killing_classify.failed": sum(s[5] for s in by_name["algebra.killing_classify"]),
        "algebra.heisenberg_flow_spectrum.busy_s": busy("algebra.heisenberg_flow_spectrum"),
        "algebra.build_two_spin_operators.calls": calls("algebra.build_two_spin_operators"),
        "dynamics.hyperbolic_signal.busy_s": busy("dynamics.hyperbolic_signal"),
        "dynamics.hyperbolic_signal.p50_s": (
            statistics.median(ladder_durations) if ladder_durations else 0.0),
        "dynamics.build_su11_rep.calls": calls("dynamics.build_su11_rep"),
        "dynamics.ladder.levels_final": sum(ladder_final),
        "dynamics.ladder.levels_tried": sum(ladder_tried),
        "dynamics.ladder.useful_work_ratio": (
            sum(n ** 3 for n in ladder_final) / tried_cubed if tried_cubed else 0.0),
        "dynamics.ladder.max_rel_err": max(
            (n["ladder_rel_err"] for n in notes if "ladder_rel_err" in n), default=0.0),
        "dynamics.propagate.busy_s": busy("dynamics.propagate"),
        "dynamics.classify_growth.busy_s": busy("dynamics.classify_growth"),
        "thermal.default_thermal_model.busy_s": busy("thermal.default_thermal_model"),
        "thermal.build_davies_model.busy_s": busy("thermal.build_davies_model"),
        "thermal.evolve_master.busy_s": busy("thermal.evolve_master"),
        "thermal.evolve_master.per_sample_s": (
            busy("thermal.evolve_master") / samples if samples else 0.0),
        "thermal.ceiling_scan.self_s": self_time["thermal.ceiling_scan"],
        "thermal.relative_entropy.calls": calls("thermal.relative_entropy"),
        "thermal.relative_entropy.busy_s": busy("thermal.relative_entropy"),
        "thermal.pair_correlation.calls": calls("thermal.pair_correlation"),
        "thermal.dt_cache.hit_ratio": 1.0 - calls("linalg.expm") / steps if steps else 0.0,
        "thermal.max_entropy_increase": max(
            (n["entropy_increase"] for n in notes if "entropy_increase" in n), default=0.0),
        "linalg.eigh.calls": calls("linalg.eigh"),
        "linalg.eigh.busy_s": busy("linalg.eigh"),
        "linalg.eigh.max_dim": max((s[4] for s in by_name["linalg.eigh"]), default=0),
        "linalg.eigvalsh.calls": calls("linalg.eigvalsh"),
        "linalg.expm.calls": calls("linalg.expm"),
        "linalg.expm.busy_s": busy("linalg.expm"),
        "linalg.decomp_per_sample": decompositions / samples if samples else 0.0,
    }
