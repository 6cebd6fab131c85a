"""The workloads: their fixed set-up, their ops and each op's checks.

There are three, so that each run can last long enough for sector_ladder to
complete some 75 ops, about a sixth of them 1025-level ladders, which set
its tail.  No workload runs the bath on non-uniform grids, where every step
misses the `expm` dt-cache: a fourth workload did not fit the time budget
of the benchmark's runs at that run length.

An op returns an `Outcome`.  It fails when a step raises or a check rejects
the output; every step still runs after an earlier one failed, so an op does
the same work whatever a later fix changes.  A failed op makes the run
incorrect.  The known baseline defect, `killing_classify` raising
`NotClosed` at large coupling scales because closure is tested against an
absolute residual threshold, is kept out of the timed ops and measured by a
fixed, untimed sweep instead (`SectorLadder.defect_sweep`).

The in-process workloads look every public function up on its module at call
time (`dq.thermal.ceiling_scan`), so the wrappers installed by `spans` see
the calls.  Tolerances are those of the tier-1 acceptance tests.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import pi
from pathlib import Path

import numpy as np

import inputs

LADDER_REL_TOL = 1e-6
EXCHANGE_BOUND_SLACK = 1e-10
ENTROPY_STEP_TOL = 1e-9
CEILING_TOL = 1e-10
BOUNDS_REL_TOL = 1e-12


@dataclass
class Outcome:
    seconds: float
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    rss_kb: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.errors)


class Step:
    """Collects step failures of one op instead of stopping at the first."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome

    def run(self, label: str, fn, *args):
        """fn(*args), or None after recording why it raised."""
        try:
            return fn(*args)
        except Exception as exc:  # the op boundary: record and keep going
            self.outcome.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.outcome.errors.append(f"{label}: check failed {detail}".rstrip())


class Workload:
    """`op(i)` runs op i of the workload's seeded sequence and checks it.

    `setup(dq)` builds the fixed program objects every op shares (None: the
    set-up is the import alone).  The traced run calls `traced_op`.
    """

    name = ""
    trace_ops = 16
    setup = None
    in_process = True
    setup_errors: tuple[str, ...] = ()  # wrong results of the set-up itself
    known_defects: tuple[str, ...] = ()  # where the known baseline defect showed

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def traced_op(self, i: int) -> Outcome:
        return self.op(i)

    def unchecked_repeats(self) -> list[int]:
        """Ops to run once more, untimed, after the loop to finish their checks."""
        return []


# -- cli_verdict ------------------------------------------------------------------

class CliVerdict(Workload):
    """`dqwitness witness|bounds` as a subprocess; one client, closed loop.

    The CLI builds nothing ahead of an op, so its set-up is the import alone.
    """

    name = "cli_verdict"
    trace_ops = 10  # one cycle: nine witness CSVs and one bounds call
    in_process = False

    def __init__(self, dq, seed: int, workdir: Path, env: dict):
        self.cli = importlib.import_module("dqwitness.cli")  # not loaded by `import dqwitness`
        self.cases = inputs.cli_cases(seed, workdir)
        self.workdir = workdir
        self.env = env
        self.reports: dict[int, bytes] = {}
        self.runs: dict[int, int] = {}

    def op(self, i: int) -> Outcome:
        index = i % len(self.cases)
        case = self.cases[index]
        stderr_path = self.workdir / f"stderr_{index}.txt"
        with open(stderr_path, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "dqwitness", *case.argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
                cwd=self.workdir, env=self.env,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(seconds=elapsed, rss_kb=usage.ru_maxrss)
        self._check(index, proc.returncode, outcome, stderr_path)
        return outcome

    def traced_op(self, i: int) -> Outcome:
        """The same argv through `dqwitness.cli.main`: subprocesses cannot be wrapped."""
        index = i % len(self.cases)
        case = self.cases[index]
        outcome = Outcome(seconds=0.0)
        start = time.perf_counter()
        code = Step(outcome).run("cli.main", self.cli.main, list(case.argv))
        outcome.seconds = time.perf_counter() - start
        self._check(index, code, outcome, None)
        return outcome

    def _check(self, index: int, code, outcome: Outcome, stderr_path: Path | None) -> None:
        case = self.cases[index]
        step = Step(outcome)
        if code != case.expected_exit:
            detail = stderr_path.read_text(errors="replace")[-300:] if stderr_path else ""
            step.check("exit_code", False, f"(got {code}, expected {case.expected_exit}) {detail}")
        if not case.output.exists():
            step.check("report", False, "(no output written)")
            return
        report = case.output.read_bytes()
        case.output.unlink()
        self.runs[index] = self.runs.get(index, 0) + 1
        if index in self.reports:
            step.check("byte_identical_report", report == self.reports[index])
            return
        self.reports[index] = report
        step.run("report_fields", _check_report, step, case, report)

    def unchecked_repeats(self) -> list[int]:
        """Cases that ran once, so their reports were not yet compared."""
        return [i for i in range(len(self.cases)) if self.runs.get(i, 0) == 1]


def _check_report(step: Step, case: inputs.CliCase, report: bytes) -> None:
    doc = json.loads(report)
    if case.argv[0] == "witness":
        step.check("verdict", doc["witness"]["verdict"] == case.expected["verdict"])
        step.check("rows", doc["series"]["rows"] == case.expected["rows"])
        step.check("skipped", len(doc["series"]["skipped"]) == case.expected["skipped"])
        return
    for key in ("epsilon_th", "eta_seq"):
        got, want = doc["bounds"][key], case.expected[key]
        step.check(key, abs(got - want) <= BOUNDS_REL_TOL * abs(want), f"({got} vs {want})")


# -- sector_ladder ----------------------------------------------------------------

class SectorLadder(Workload):
    """Algebra at a seeded scale J, the flip-flop exchange, the SU(1,1) ladder."""

    name = "sector_ladder"
    trace_ops = 30
    pool = 400
    # Known answers at unit scale.  Both triples are rotation-type on the 4x4
    # catalog: the flip-flop triple spans su(2), and the finite two-spin
    # representation of the pair triple does too (kappa = +1), not the
    # boost-type bracket of the abstract su(1,1) basis.
    UNIT_LABELS = {"S": "compact", "K": "compact"}

    def __init__(self, dq, seed: int, workdir: Path, env: dict):
        self.dq = dq
        self.fixed = self.setup(dq)
        self.cases = inputs.sector_cases(seed, self.pool)
        self.setup_errors = tuple(
            f"unit_label[{name}]: {got}, expected {self.UNIT_LABELS[name]}"
            for name, got in self.fixed["unit_labels"].items() if got != self.UNIT_LABELS[name]
        )
        self.known_defects, sweep_errors = self.defect_sweep()
        self.setup_errors += sweep_errors

    @staticmethod
    def setup(dq) -> dict:
        ops = dq.algebra.build_two_spin_operators()
        triples = {
            name: dq.algebra.hermitian_triple(ops[f"{name}+"], ops[f"{name}-"], ops[f"{name}0"])
            for name in ("S", "K")
        }
        unit_labels = {
            name: dq.algebra.killing_classify(dq.algebra.measure_structure_constants(t)).label
            for name, t in triples.items()
        }
        return {
            "triples": triples,
            "unit_labels": unit_labels,
            "bases": {kind: dq.algebra.abstract_basis(kind) for kind in ("su2", "su11")},
            "exchange": ops["S+"].entries + ops["S-"].entries,
            "s0": ops["S0"],
            "up_down": dq.dynamics.StateVector.basis_state(4, 1),
        }

    def defect_sweep(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Classify both triples at every scale of `inputs.defect_scales`, untimed.

        Returns where `killing_classify` raised `NotClosed` (the known
        defect), and any other exception or wrong label (an error).
        """
        algebra, not_closed = self.dq.algebra, self.dq.errors.NotClosed
        raised, errors = [], []
        for j in inputs.defect_scales():
            for name, triple in self.fixed["triples"].items():
                where = f"{name} at J={j:.3e}"
                scaled = [algebra.OperatorMatrix(j * x.entries, label=x.label) for x in triple]
                try:
                    label = algebra.killing_classify(
                        algebra.measure_structure_constants(scaled)).label
                except not_closed:
                    raised.append(where)
                    continue
                except Exception as exc:  # recorded as a wrong result
                    errors.append(f"defect_sweep[{where}]: {type(exc).__name__}: {exc}")
                    continue
                if label != self.fixed["unit_labels"][name]:
                    errors.append(f"defect_sweep[{where}]: label {label}")
        return tuple(raised), tuple(errors)

    def op(self, i: int) -> Outcome:
        start = time.perf_counter()
        outcome = Outcome(seconds=0.0)
        self._run(self.cases[i % len(self.cases)], Step(outcome), outcome)
        outcome.seconds = time.perf_counter() - start
        return outcome

    def _run(self, case: inputs.SectorCase, step: Step, outcome: Outcome) -> None:
        algebra, dynamics, fixed = self.dq.algebra, self.dq.dynamics, self.fixed

        for name, triple in fixed["triples"].items():
            scaled = [algebra.OperatorMatrix(case.j * x.entries, label=x.label) for x in triple]
            basis = step.run(f"measure_structure_constants[{name}]",
                             algebra.measure_structure_constants, scaled)
            if basis is not None:
                got = step.run(f"killing_classify[{name}]", algebra.killing_classify, basis)
                if got is not None:
                    step.check(f"killing_label[{name}]", got.label == fixed["unit_labels"][name],
                               f"({got.label} at J={case.j:.3e})")
        for kind, h, want in (("su2", case.h_su2, "oscillatory"),
                              ("su11", case.h_su11, case.su11_label)):
            spec = step.run(f"heisenberg_flow_spectrum[{kind}]",
                            algebra.heisenberg_flow_spectrum, fixed["bases"][kind], h)
            if spec is not None:
                step.check(f"flow_label[{kind}]", spec.classification == want,
                           f"({spec.classification}, expected {want})")

        times = np.linspace(0.0, case.exchange_periods * pi / case.j, inputs.EXCHANGE_SAMPLES)
        traj = step.run("propagate", dynamics.propagate, case.j * fixed["exchange"],
                        fixed["up_down"], times, [fixed["s0"]])
        if traj is not None:
            s0 = traj.expectations["S0"]
            step.check("exchange_bounded", float(np.abs(s0).max()) <= 0.5 + EXCHANGE_BOUND_SLACK)
            label = step.run("classify_growth[exchange]", dynamics.classify_growth, traj)
            step.check("exchange_label", label == "bounded_oscillatory", f"({label})")

        rep = step.run("build_su11_rep", dynamics.build_su11_rep, case.k, 64)
        tgrid = np.linspace(0.0, case.t_max, inputs.LADDER_SAMPLES)
        ladder = step.run("hyperbolic_signal", dynamics.hyperbolic_signal, rep, case.g, tgrid)
        if ladder is not None:
            signal = ladder.expectations["pair_signal"]
            closed = 2.0 * case.k * np.sinh(case.g * tgrid) ** 2
            rel_err = float(np.max(np.abs(signal[1:] - closed[1:]) / closed[1:]))
            outcome.notes["ladder_rel_err"] = rel_err
            step.check("ladder_sinh2", rel_err < LADDER_REL_TOL and abs(signal[0]) < 1e-12,
                       f"(rel err {rel_err:.3e})")
            label = step.run("classify_growth[ladder]", dynamics.classify_growth, ladder)
            step.check("ladder_label", label == "hyperbolic", f"({label})")


# -- bath_uniform -----------------------------------------------------------------

class BathUniform(Workload):
    """`default_thermal_model` then `ceiling_scan` from the maximally mixed state."""

    name = "bath_uniform"
    pool = 256

    def __init__(self, dq, seed: int, workdir: Path, env: dict):
        self.dq = dq
        self.fixed = self.setup(dq)
        self.cases = inputs.bath_cases(seed, self.pool)

    @staticmethod
    def setup(dq) -> dict:
        return {"rho0": dq.thermal.DensityMatrix.maximally_mixed(4)}

    def op(self, i: int) -> Outcome:
        case = self.cases[i % len(self.cases)]
        thermal = self.dq.thermal
        start = time.perf_counter()
        outcome = Outcome(seconds=0.0)
        step = Step(outcome)
        model = step.run("default_thermal_model", thermal.default_thermal_model,
                         case.omega0, case.omega_d, case.temperature, case.base_rate)
        scan = step.run("ceiling_scan", thermal.ceiling_scan, model, self.fixed["rho0"], case.times,
                        CEILING_TOL)
        if scan is not None:
            step.check("below_ceiling", scan.below_ceiling,
                       f"(max {scan.max_transient:.6e} vs thermal {scan.gibbs_value:.6e})")
            rise = float(np.max(np.diff(scan.trajectory.relative_entropies)))
            outcome.notes["entropy_increase"] = rise
            step.check("entropy_monotone", rise <= ENTROPY_STEP_TOL, f"(step {rise:.3e})")
        outcome.seconds = time.perf_counter() - start
        return outcome


WORKLOADS = {w.name: w for w in (CliVerdict, SectorLadder, BathUniform)}
