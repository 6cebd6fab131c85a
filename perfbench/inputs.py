"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed.  Parameters that set the cost or
the outcome of an op (CSV rows, coupling scale, grid samples) come from the
sequence frac(offset + i * step) with a seeded offset and step the golden
ratio 0.618... (sqrt(2) - 1 for a second such parameter of one op).  Any
run of consecutive ops then covers the parameter range evenly, so a
time-limited loop sees nearly the same cost mix, and the same share of ops
past a threshold, on every seed.  The other parameters are plain seeded
draws.

The module needs only numpy; it never imports dqwitness, so expected
verdicts and bounds are computed here independently of the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34  # J s, CODATA 2018
K_BOLTZMANN = 1.380649e-23  # J / K, CODATA 2018

# Parameter defaults of the dqwitness CLI that the generated CSVs rely on.
CLI_OMEGA_D_STATIC_HZ = 5.0
CLI_MIXING_TIME_S = 5e-3

EXIT_BY_VERDICT = {"not_excluded": 0, "classically_inexplicable": 2, "loophole_open": 3}

GOLDEN = (5 ** 0.5 - 1) / 2
SILVER = 2 ** 0.5 - 1  # a second step, so two sequences of one op are not correlated


class Spread:
    """frac(offset + (i + 1) * step) on [0, 1), with a seeded offset."""

    def __init__(self, rng: np.random.Generator, step: float = GOLDEN):
        self.offset = float(rng.random())
        self.step = step

    def __call__(self, index: int) -> float:
        return (self.offset + (index + 1) * self.step) % 1.0


def _log_between(u: float, low: float, high: float) -> float:
    return float(math.exp(math.log(low) + u * (math.log(high) - math.log(low))))


# -- cli_verdict --------------------------------------------------------------

CLI_CSV_COUNT = 9  # witness CSVs per cycle; the tenth op of a cycle is `bounds`
CLI_ROWS = (50, 10_000)


@dataclass(frozen=True)
class CliCase:
    """One CLI invocation and what it must produce."""

    argv: tuple[str, ...]
    output: Path
    expected_exit: int
    expected: dict


def _witness_csv(rng: np.random.Generator, rows: int, verdict: str, stable: bool,
                 with_mt: bool, junk_lines: int, f_class_max: float) -> str:
    """CSV text whose peak f_dq sits a factor 2 or more from the classical max."""
    times = (np.arange(rows) + 1) * 1e-3
    f_dq = f_class_max * rng.uniform(0.05, 0.4, rows)
    peak = int(rng.integers(rows))
    f_dq[peak] = f_class_max * (0.5 if verdict == "not_excluded" else 3.0)
    t2 = 0.02 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, rows))
    if not stable:  # a 30 % line-width drop over the second half
        t2[rows // 2:] *= 0.7
    columns = [times, f_dq, t2]
    header = "time_s,f_dq,t2_star_s"
    if with_mt:
        columns.append(0.4 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, rows)))
        header += ",mt_ratio"
    lines = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    junk = ("", "n/a,missing,reading", "0.5,0.1", " , , ")
    for slot in sorted(rng.choice(rows, size=junk_lines, replace=False), reverse=True):
        lines.insert(int(slot), junk[int(rng.integers(len(junk)))])
    return header + "\n" + "\n".join(lines) + "\n"


def cli_cases(seed: int, workdir: Path) -> list[CliCase]:
    """Nine witness CSVs (written under `workdir`) and one `bounds` call.

    Verdicts cycle not_excluded / classically_inexplicable / loophole_open,
    so exit codes 0, 2 and 3 all occur; rows are log-uniform over 50-10,000.
    """
    rng = np.random.default_rng([seed, 1])
    row_u = Spread(rng)
    verdicts = ("not_excluded", "classically_inexplicable", "loophole_open")
    mt_flags = rng.permutation([True, False] * 5)[:CLI_CSV_COUNT]
    cases = []
    for j in range(CLI_CSV_COUNT):
        rows = int(round(_log_between(row_u(j), *CLI_ROWS)))
        verdict = verdicts[j % 3]
        stable = verdict == "classically_inexplicable" or (
            verdict == "not_excluded" and bool(rng.integers(2))
        )
        temperature = float(rng.uniform(290.0, 330.0))
        fcm = f_class_max(TWO_PI * 10e3, temperature)
        junk_lines = int(rng.integers(0, min(20, rows // 10) + 1)) if j % 4 else 0
        text = _witness_csv(rng, rows, verdict, stable, bool(mt_flags[j]), junk_lines, fcm)
        csv_path = workdir / f"series_{j}.csv"
        csv_path.write_text(text, encoding="utf-8")
        output = workdir / f"report_{j}.json"
        argv = ("witness", "--input", str(csv_path), "--temperature-k", repr(temperature),
                "--output", str(output))
        cases.append(CliCase(argv, output, EXIT_BY_VERDICT[verdict],
                             {"verdict": verdict, "rows": rows, "skipped": junk_lines}))
    temperature = float(rng.uniform(290.0, 330.0))
    omega_d_hz = _log_between(float(rng.random()), 1e3, 50e3)
    output = workdir / "bounds.json"
    argv = ("bounds", "--temperature-k", repr(temperature), "--omega-d-hz", repr(omega_d_hz),
            "--output", str(output))
    cases.append(CliCase(argv, output, 0, {
        "epsilon_th": epsilon_th(TWO_PI * omega_d_hz, temperature),
        "eta_seq": eta_seq(),
    }))
    return cases


def epsilon_th(omega_d: float, temperature: float) -> float:
    return HBAR * omega_d / (K_BOLTZMANN * temperature)


def eta_seq() -> float:
    return (TWO_PI * CLI_OMEGA_D_STATIC_HZ * CLI_MIXING_TIME_S) ** 2


def f_class_max(omega_d: float, temperature: float) -> float:
    return epsilon_th(omega_d, temperature) + eta_seq()


# -- sector_ladder --------------------------------------------------------------

# Coupling scales of the timed ops: a range on which `killing_classify`
# closes with margin.  From about 5.6e3 rad/s up it raises `NotClosed` on
# both triples at scattered scales (the closure residual grows as J^2 and is
# tested against an absolute threshold), so ops there would fail on that
# known defect; `defect_scales` covers the full physical range for the
# untimed sweep that measures it.
J_RANGE = (TWO_PI * 1.0, TWO_PI * 250.0)  # rad/s
DEFECT_J_RANGE = (TWO_PI * 1.0, TWO_PI * 400e6)  # rad/s
DEFECT_SCALES = 87  # about 10 per decade
LADDER_SAMPLES = 201
EXCHANGE_SAMPLES = 1001

GT_RANGE = (1.0, 2.5)  # g * t_max


@dataclass(frozen=True)
class SectorCase:
    """One pass of the argument chain: algebra at scale J, exchange, ladder."""

    j: float
    h_su2: tuple[float, float, float]
    h_su11: tuple[float, float, float]
    su11_label: str
    exchange_periods: float
    k: float
    g: float
    t_max: float


def _flow_coefficients(rng: np.random.Generator, boost: bool) -> tuple[float, float, float]:
    """(h1, h2, h0) well away from the light cone h1^2 + h2^2 = h0^2."""
    theta = rng.uniform(1.05, math.pi / 2) if boost else rng.uniform(0.0, 0.52)
    phi = rng.uniform(0.0, TWO_PI)
    radius = _log_between(float(rng.random()), 0.1, 10.0)
    sign = 1.0 if rng.integers(2) else -1.0
    return (radius * math.sin(theta) * math.cos(phi),
            radius * math.sin(theta) * math.sin(phi),
            sign * radius * math.cos(theta))


def defect_scales() -> np.ndarray:
    """Log-spaced coupling scales over the full range; the same for every seed."""
    return np.geomspace(*DEFECT_J_RANGE, DEFECT_SCALES)


def sector_cases(seed: int, count: int) -> list[SectorCase]:
    rng = np.random.default_rng([seed, 2])
    j_u, gt_u = Spread(rng), Spread(rng, SILVER)
    k_start = int(rng.integers(2))
    cases = []
    for i in range(count):
        gt = GT_RANGE[0] + gt_u(i) * (GT_RANGE[1] - GT_RANGE[0])
        g = _log_between(float(rng.random()), 0.5, 2.0)
        boost = bool(rng.integers(2))
        cases.append(SectorCase(
            j=_log_between(j_u(i), *J_RANGE),
            h_su2=tuple(float(x) for x in rng.standard_normal(3)),
            h_su11=_flow_coefficients(rng, boost),
            su11_label="hyperbolic" if boost else "oscillatory",
            exchange_periods=float(rng.uniform(2.0, 10.0)),
            k=(0.5, 1.0)[(k_start + i) % 2],
            g=g,
            t_max=gt / g,
        ))
    return cases


# -- bath_uniform -----------------------------------------------------------------

SAMPLES_RANGE = (101, 1001)


@dataclass(frozen=True)
class BathCase:
    """Default thermal model parameters (SI, rad/s) and a time grid."""

    omega0: float
    omega_d: float
    temperature: float
    base_rate: float
    times: np.ndarray


def bath_cases(seed: int, count: int) -> list[BathCase]:
    """Physical parameters as in the issue; grids of 101-1001 samples.

    `ceiling_scan` requires the start (the maximally mixed state, pair
    correlation 0) to lie at or below the thermal pair correlation.  To
    leading order in beta*hbar that correlation is positive only when
    beta*hbar*omega0^2 > 2*omega_d, so parameter tuples are redrawn until
    they clear that boundary by a factor 2.  Grids are `linspace` from 0.
    """
    rng = np.random.default_rng([seed, 4])
    n_u = Spread(rng)
    cases = []
    for i in range(count):
        samples = SAMPLES_RANGE[0] + int(n_u(i) * (SAMPLES_RANGE[1] - SAMPLES_RANGE[0] + 1))
        while True:
            omega0 = TWO_PI * float(rng.uniform(100e6, 900e6))
            omega_d = TWO_PI * _log_between(float(rng.random()), 1e3, 50e3)
            temperature = float(rng.uniform(250.0, 350.0))
            if HBAR / (K_BOLTZMANN * temperature) * omega0 ** 2 >= 4.0 * omega_d:
                break
        base_rate = float(rng.uniform(0.5, 2.0))
        t_max = float(rng.uniform(2.0, 8.0)) / base_rate
        times = np.linspace(0.0, t_max, samples)
        times.flags.writeable = False
        cases.append(BathCase(omega0, omega_d, temperature, base_rate, times))
    return cases
