"""Command-line pipeline: bounds, witness, figure.

Subcommands
-----------
bounds    print the ceiling decomposition for the resolved parameters
witness   ingest a measurement CSV, run the stability gate, emit the report
figure    write figure data (bpp_curve, zq_signal, dq_signal, open_trajectory)

Exit codes: 0 nothing excluded (or non-witness subcommand success), 1 error,
2 classically inexplicable, 3 witness positive but loophole open.  Parameter
precedence is defaults < config file < command-line flags; the config file is
flat `key = value` text with the keys omega_d_hz, omega_d_static_hz,
temperature_k, mixing_time_s, tau_c_s, larmor_hz.  Identical inputs produce
byte-identical reports and figure files.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from math import pi
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .algebra import build_two_spin_operators
from .bounds import (
    TISSUE_DEFAULTS,
    PhysicalParams,
    dipolar_energy,
    epsilon_th,
    eta_seq,
    normalized_spectral_density,
    witness,
)
from .dynamics import Trajectory, StateVector, build_su11_rep, hyperbolic_signal, propagate
from .errors import DqwitnessError, UnsupportedKind
from .measurement import (
    DEFAULT_CV_THRESHOLD,
    DEFAULT_DEV_THRESHOLD,
    GateResult,
    MeasurementSeries,
    ingest,
    stability_gate,
)
from .thermal import DensityMatrix, OpenTrajectory, default_thermal_model, evolve_master

TOOL_NAME = "dqwitness"

EXIT_BY_VERDICT = {
    "not_excluded": 0,
    "classically_inexplicable": 2,
    "loophole_open": 3,
}

FIGURE_KINDS = ("bpp_curve", "zq_signal", "dq_signal", "open_trajectory")

BPP_SAMPLES = 300
BPP_X_MAX = 5.0

ZQ_COUPLING = 2 * pi * 10.0
ZQ_PERIODS = 10.0
ZQ_SAMPLES = 1001
DQ_INDEX = 0.5
DQ_COUPLING = 1.0
DQ_T_MAX = 2.0
DQ_SAMPLES = 201
OPEN_T_MAX = 5.0
OPEN_SAMPLES = 101


def parse_config_file(path: str | Path) -> dict[str, float]:
    """Flat `key = value` file; '#' starts a comment, keys must be known."""
    values: dict[str, float] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{line_no}: expected `key = value`")
        key = key.strip()
        if key not in TISSUE_DEFAULTS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = float(value.strip().strip("\"'"))
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-numeric value for {key!r}") from None
    return values


def resolve_params(args: argparse.Namespace) -> PhysicalParams:
    """Defaults, overridden by config file, overridden by explicit flags."""
    settings = dict(TISSUE_DEFAULTS)
    if args.config:
        settings.update(parse_config_file(args.config))
    for key in TISSUE_DEFAULTS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return PhysicalParams.from_hz(**settings)


def _report_head(params: PhysicalParams) -> dict:
    """The `tool` and `parameters` sections shared by every report."""
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "parameters": {
            "omega_d_rad_s": params.omega_d,
            "omega_d_hz": params.omega_d / (2 * pi),
            "omega_d_static_rad_s": params.omega_d_static,
            "omega_d_static_hz": params.omega_d_static / (2 * pi),
            "temperature_k": params.temperature,
            "mixing_time_s": params.mixing_time,
            "tau_c_s": params.tau_c,
            "larmor_rad_s": params.omega_0,
            "larmor_hz": params.omega_0 / (2 * pi),
        },
    }


def _sig4(x: float) -> str:
    return f"{x:.4g}"


def _dump_json(doc: dict, destination: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if destination:
        Path(destination).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- report assembly ---------------------------------------------------------

def build_report(
    params: PhysicalParams,
    series: MeasurementSeries,
    gate: GateResult,
) -> tuple[dict, int]:
    """Witness report document and its exit code.

    The measured fraction is the series maximum (the transient burst peak),
    taken directly from the f_dq column.
    """
    peak_index = int(np.argmax(series.f_dq))
    f_dq_peak = float(series.f_dq[peak_index])
    report = witness(f_dq_peak, params, gate.status)
    doc = {
        **_report_head(params),
        "gate": {
            "status": gate.status,
            "t2_cv": gate.t2_cv,
            "max_rel_deviation": gate.max_rel_deviation,
            "mt_cv": gate.mt_cv,
            "cv_threshold": gate.cv_threshold,
            "dev_threshold": gate.dev_threshold,
            "mt_gate_applied": gate.mt_cv is not None,
        },
        "witness": {
            "epsilon_th": report.epsilon_th,
            "eta_seq": report.eta_seq,
            "f_class_max": report.f_class_max,
            "f_dq_measured": report.f_dq_measured,
            "w_th": report.w_th,
            "gate_status": report.gate_status,
            "verdict": report.verdict,
            "certifiable": gate.status == "stable",
        },
        "series": {
            "rows": len(series),
            "skipped": list(series.skipped),
            "f_dq_source": "f_dq",
            "peak_time_s": float(series.times[peak_index]),
        },
        "summary": (
            f"w_th = {_sig4(report.w_th)} "
            f"(f_dq {_sig4(report.f_dq_measured)} vs classical max "
            f"{_sig4(report.f_class_max)}, gate {gate.status}): {report.verdict}"
        ),
    }
    return doc, EXIT_BY_VERDICT[report.verdict]


def run_witness(
    params: PhysicalParams,
    series: MeasurementSeries,
    cv_threshold: float = DEFAULT_CV_THRESHOLD,
    dev_threshold: float = DEFAULT_DEV_THRESHOLD,
    destination: str | None = None,
) -> tuple[dict, int]:
    """Gate the series, evaluate the witness, write the report document."""
    gate = stability_gate(series, cv_threshold=cv_threshold, dev_threshold=dev_threshold)
    doc, code = build_report(params, series, gate)
    _dump_json(doc, destination)
    return doc, code


# -- trajectory and figure emission ------------------------------------------

def _write_csv(
    destination: str | None, header: list[str], columns: Sequence[np.ndarray]
) -> None:
    """One header line, then one row of repr-exact floats per sample; stdout if no path."""
    if destination is None:
        target = nullcontext(sys.stdout)
    else:
        target = open(destination, "w", encoding="utf-8", newline="")
    with target as stream:
        stream.write(",".join(header) + "\n")
        for row in zip(*columns):
            stream.write(",".join(repr(float(v)) for v in row) + "\n")


def write_trajectory_csv(traj: Trajectory, destination: str | None) -> None:
    """Columns: time_s, then one column per observable."""
    keys = list(traj.expectations)
    columns = [traj.times] + [np.real(traj.expectations[k]) for k in keys]
    _write_csv(destination, ["time_s"] + keys, columns)


def write_open_trajectory_csv(traj: OpenTrajectory, destination: str | None) -> None:
    """Columns: time_s, relative_entropy, dq_amplitude, pair_correlation."""
    _write_csv(
        destination,
        ["time_s", "relative_entropy", "dq_amplitude", "pair_correlation"],
        [traj.times, traj.relative_entropies, traj.dq_amplitudes, traj.pair_correlations],
    )


def zq_exchange_trajectory() -> Trajectory:
    """Flip-flop exchange <S0(t)> from the up-down state under J(S+ + S-).

    The observable oscillates as cos(2Jt)/2, so one period is pi/J seconds;
    the grid spans ZQ_PERIODS of them at J = ZQ_COUPLING.
    """
    ops = build_two_spin_operators()
    h = ZQ_COUPLING * (ops["S+"].entries + ops["S-"].entries)
    times = np.linspace(0.0, ZQ_PERIODS * pi / ZQ_COUPLING, ZQ_SAMPLES)
    psi0 = StateVector.basis_state(4, 1)  # |up down>
    return propagate(h, psi0, times, [ops["S0"]])


def dq_pair_trajectory() -> Trajectory:
    """Vacuum pair signal on the truncated ladder, auto-escalated."""
    rep = build_su11_rep(DQ_INDEX, 64)
    times = np.linspace(0.0, DQ_T_MAX, DQ_SAMPLES)
    return hyperbolic_signal(rep, DQ_COUPLING, times)


def open_system_trajectory(params: PhysicalParams) -> OpenTrajectory:
    """Maximally mixed two-spin state relaxing under the default bath model."""
    model = default_thermal_model(
        omega0=params.omega_0,
        omega_d=params.omega_d,
        temperature=params.temperature,
    )
    times = np.linspace(0.0, OPEN_T_MAX, OPEN_SAMPLES)
    return evolve_master(model, DensityMatrix.maximally_mixed(4), times)


def bpp_curve() -> tuple[np.ndarray, np.ndarray]:
    """Normalized spectral-density profile on a 300-point grid of spacing 1/60.

    The grid starts at 0 and steps by 5/300 so that x = 1 (the peak, value
    exactly 1) is a grid point; the open right end just misses x = 5.
    """
    x = np.arange(BPP_SAMPLES) * BPP_X_MAX / BPP_SAMPLES
    return x, normalized_spectral_density(x)


def emit_figure_data(kind: str, params: PhysicalParams, destination: str | None) -> None:
    """Write deterministic CSV data for one figure kind to a path, or stdout if None.

    Kinds: bpp_curve (x, normalized density), zq_signal and dq_signal
    (closed-system trajectories), open_trajectory (bath relaxation record).
    An unknown kind raises UnsupportedKind before anything is written.
    """
    if kind == "bpp_curve":
        _write_csv(destination, ["x", "j_normalized"], bpp_curve())
    elif kind == "zq_signal":
        write_trajectory_csv(zq_exchange_trajectory(), destination)
    elif kind == "dq_signal":
        write_trajectory_csv(dq_pair_trajectory(), destination)
    elif kind == "open_trajectory":
        write_open_trajectory_csv(open_system_trajectory(params), destination)
    else:
        raise UnsupportedKind(f"unknown figure kind {kind!r}; expected one of {FIGURE_KINDS}")


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not 2
        raise DqwitnessError(f"argument error: {message}")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value parameter file")
    parser.add_argument("--output", help="write output to this path instead of stdout")
    for key in TISSUE_DEFAULTS:
        parser.add_argument("--" + key.replace("_", "-"), type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL_NAME, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print the classical ceiling decomposition")
    _add_common_flags(p_bounds)

    p_witness = sub.add_parser("witness", help="evaluate the witness on a measurement CSV")
    _add_common_flags(p_witness)
    p_witness.add_argument("--input", required=True, help="measurement CSV path")
    p_witness.add_argument(
        "--cv-threshold", dest="cv_threshold", type=float, default=DEFAULT_CV_THRESHOLD
    )
    p_witness.add_argument(
        "--dev-threshold", dest="dev_threshold", type=float, default=DEFAULT_DEV_THRESHOLD
    )

    p_figure = sub.add_parser("figure", help="write figure data CSV")
    _add_common_flags(p_figure)
    p_figure.add_argument("--kind", required=True, help=f"one of {FIGURE_KINDS}")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = resolve_params(args)
        if args.command == "bounds":
            eps, eta = epsilon_th(params), eta_seq(params)
            doc = {
                **_report_head(params),
                "bounds": {
                    "epsilon_th": eps,
                    "eta_seq": eta,
                    "f_class_max": eps + eta,
                    "hbar_omega_d_joule": dipolar_energy(params),
                },
            }
            _dump_json(doc, args.output)
            return 0
        if args.command == "witness":
            _, code = run_witness(
                params,
                ingest(args.input),
                cv_threshold=args.cv_threshold,
                dev_threshold=args.dev_threshold,
                destination=args.output,
            )
            return code
        emit_figure_data(args.kind, params, args.output)
        return 0
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (DqwitnessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
