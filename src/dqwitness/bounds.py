"""Scalar ceiling arithmetic and the witness verdict.

The classically reachable fraction of pair signal is the sum of two terms:
the detailed-balance ceiling hbar*omega_d / kT on spontaneous bath
generation, and the short-time coherent transfer efficiency
(omega_d_static * t_m)^2 of the pulse sequence under motional narrowing.
The witness is the measured fractional amplitude minus that sum, certified
only while the line-width stability gate holds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf, isfinite, pi
from typing import Literal, NamedTuple

from .constants import HBAR, K_BOLTZMANN
from .errors import NegativeAmplitude, NonFiniteValue

GateStatus = Literal["stable", "unstable", "not_evaluated"]
Verdict = Literal["classically_inexplicable", "not_excluded", "loophole_open"]

GATE_STATUSES = ("stable", "unstable", "not_evaluated")

# Restricted-water defaults, keyed by the arguments of PhysicalParams.from_hz:
# 10 kHz fluctuation, 5 Hz static residue, 310 K, 5 ms mixing, 1 ns
# correlation time, 400 MHz Larmor.  The CLI derives its config keys and
# parameter flags from these names.
TISSUE_DEFAULTS = {
    "omega_d_hz": 10e3,
    "omega_d_static_hz": 5.0,
    "temperature_k": 310.0,
    "mixing_time_s": 5e-3,
    "tau_c_s": 1e-9,
    "larmor_hz": 400e6,
}


class ValidityRegimeWarning(UserWarning):
    """A scaling estimate was evaluated outside its validity regime."""


@dataclass(frozen=True)
class PhysicalParams:
    """Scalar physics inputs, all in SI units (angular frequencies in rad/s).

    omega_d        dipolar fluctuation amplitude
    omega_d_static residual static dipolar coupling (may be zero)
    temperature    bath temperature, K
    mixing_time    sequence mixing time, s
    tau_c          bath correlation time, s
    omega_0        Larmor frequency
    """

    omega_d: float
    omega_d_static: float
    temperature: float
    mixing_time: float
    tau_c: float
    omega_0: float

    def __post_init__(self):
        _require_finite(**vars(self))
        positive = {
            "omega_d": self.omega_d,
            "temperature": self.temperature,
            "mixing_time": self.mixing_time,
            "tau_c": self.tau_c,
            "omega_0": self.omega_0,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if self.omega_d_static < 0:
            raise ValueError("omega_d_static must be non-negative")

    @classmethod
    def from_hz(
        cls,
        omega_d_hz: float,
        omega_d_static_hz: float,
        temperature_k: float,
        mixing_time_s: float,
        tau_c_s: float,
        larmor_hz: float,
    ) -> "PhysicalParams":
        """Build from plain frequencies in Hz (multiplied by 2 pi here)."""
        return cls(
            omega_d=2.0 * pi * omega_d_hz,
            omega_d_static=2.0 * pi * omega_d_static_hz,
            temperature=temperature_k,
            mixing_time=mixing_time_s,
            tau_c=tau_c_s,
            omega_0=2.0 * pi * larmor_hz,
        )

    @classmethod
    def tissue_defaults(cls) -> "PhysicalParams":
        """Restricted-water defaults, from TISSUE_DEFAULTS."""
        return cls.from_hz(**TISSUE_DEFAULTS)


def dipolar_energy(params: PhysicalParams) -> float:
    """Interaction energy hbar * omega_d in joules."""
    return HBAR * params.omega_d


def epsilon_th(params: PhysicalParams) -> float:
    """Detailed-balance ceiling hbar * omega_d / (k_B T), dimensionless.

    Raises NonFiniteValue, naming the temperature, where k_B T underflows to
    0 or the ratio overflows.
    """
    kt = K_BOLTZMANN * params.temperature
    value = HBAR * params.omega_d / kt if kt > 0.0 else inf
    if not isfinite(value):
        raise NonFiniteValue(
            f"epsilon_th = hbar*omega_d/(k_B*T) is not finite at temperature "
            f"{params.temperature} K"
        )
    return value


def eta_seq(params: PhysicalParams) -> float:
    """Coherent sequence-transfer efficiency (omega_d_static * t_m)^2.

    An order-of-magnitude short-time estimate; values above 1 mean the
    static coupling is too strong for the scaling to apply, which is
    surfaced as a ValidityRegimeWarning rather than clamped.  A square that
    overflows raises NonFiniteValue, naming both inputs.
    """
    try:
        value = (params.omega_d_static * params.mixing_time) ** 2
    except OverflowError:
        value = inf
    if not isfinite(value):
        raise NonFiniteValue(
            f"eta_seq = (omega_d_static*mixing_time)^2 is not finite for "
            f"omega_d_static={params.omega_d_static} rad/s, mixing_time={params.mixing_time} s"
        )
    if value > 1.0:
        warnings.warn(
            f"sequence-transfer estimate {value:.3g} exceeds 1; the quadratic "
            "short-time scaling is outside its validity regime",
            ValidityRegimeWarning,
            stacklevel=2,
        )
    return value


def normalized_spectral_density(x):
    """Dimensionless profile 2x / (1 + x^2); peaks at x = 1 with value 1."""
    import numpy as np  # the only array routine here; the verdict path stays numpy-free

    x = np.asarray(x, dtype=float)
    result = 2.0 * x / (1.0 + x * x)
    return float(result) if result.ndim == 0 else result


class ClassicalBound(NamedTuple):
    """Maximal classically reachable fraction and whether it is certified."""

    value: float
    certifiable: bool


def classical_sum(eps: float, eta: float) -> float:
    """f_class_max = epsilon_th + eta_seq; NonFiniteValue, naming all three, if it overflows."""
    value = eps + eta
    if not isfinite(value):
        raise NonFiniteValue(f"f_class_max = epsilon_th + eta_seq is not finite for {eps} + {eta}")
    return value


def f_class_max(params: PhysicalParams, gate_status: GateStatus = "stable") -> ClassicalBound:
    """Sum of the bath ceiling and the sequence-transfer efficiency.

    The number is always computed; it is only certifiable as a bound while
    the stability gate holds, since an unstable line width voids the
    motional-narrowing premise behind the second term.
    """
    _check_gate_status(gate_status)
    value = classical_sum(epsilon_th(params), eta_seq(params))
    return ClassicalBound(value=value, certifiable=gate_status == "stable")


@dataclass(frozen=True)
class WitnessReport:
    """Witness evaluation: inputs, bound decomposition, and verdict."""

    epsilon_th: float
    eta_seq: float
    f_class_max: float
    f_dq_measured: float
    w_th: float
    gate_status: GateStatus
    verdict: Verdict


def witness(
    f_dq_measured: float,
    params: PhysicalParams,
    gate_status: GateStatus,
) -> WitnessReport:
    """Evaluate w = f_dq - (epsilon_th + eta_seq) and classify the outcome.

    A positive witness under a stable gate is classically inexplicable
    within the stationary-bath / narrowed-transfer model class; a positive
    witness without the gate leaves the non-stationarity loophole open; a
    non-positive witness excludes nothing.
    """
    _check_gate_status(gate_status)
    if not isfinite(f_dq_measured):
        raise NonFiniteValue(f"measured fraction must be finite, got {f_dq_measured}")
    if f_dq_measured < 0:
        raise NegativeAmplitude(f"measured fraction must be >= 0, got {f_dq_measured}")
    eps, eta = epsilon_th(params), eta_seq(params)
    bound = classical_sum(eps, eta)
    w = f_dq_measured - bound
    if w > 0:
        verdict = "classically_inexplicable" if gate_status == "stable" else "loophole_open"
    else:
        verdict = "not_excluded"
    return WitnessReport(
        epsilon_th=eps,
        eta_seq=eta,
        f_class_max=bound,
        f_dq_measured=f_dq_measured,
        w_th=w,
        gate_status=gate_status,
        verdict=verdict,
    )


def fractional_amplitude(s_dq: float, m0: float) -> float:
    """Fractional amplitude from a raw pair signal and its calibration scale.

    Both must be finite (NonFiniteValue otherwise).
    """
    _require_finite(s_dq=s_dq, m0=m0)
    if m0 <= 0:
        raise ValueError("calibration magnetization must be positive")
    if s_dq < 0:
        raise NegativeAmplitude(f"raw signal must be >= 0, got {s_dq}")
    return s_dq / m0


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not isfinite(value):
            raise NonFiniteValue(f"{name} must be finite, got {value}")


def _check_gate_status(gate_status: str) -> None:
    if gate_status not in GATE_STATUSES:
        raise ValueError(f"gate status must be one of {GATE_STATUSES}, got {gate_status!r}")
