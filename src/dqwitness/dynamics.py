"""Closed-system propagation in the two coherence sectors.

The flip-flop sector exchanges population at a fixed frequency and every
expectation stays bounded; the pair-raising sector, realized on a truncated
lowest-weight ladder, produces the hyperbolic vacuum signal
s(t) = 2k sinh^2(g t).  Propagation is by exact eigendecomposition of the
(Hermitian) generator, so there is no step-size tolerance to track; the only
controlled approximation is the ladder truncation, which is escalated
automatically until the top-level population is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import OperatorMatrix, _check_hermitian, as_matrix
from .errors import (
    AmbiguousGrowth,
    DimensionMismatch,
    InsufficientSamples,
    InvalidBargmannIndex,
    NonFiniteValue,
    NonHermitianGenerator,
    TruncationExceeded,
    TruncationTooSmall,
)

DEFAULT_TAIL_BOUND = 1e-8
DEFAULT_TRUNCATION_LIMIT = 4096
NORM_TOL = 1e-12  # StateVector: largest accepted | ||v|| - 1 |
ENVELOPE_WINDOWS = 4  # classify_growth: windows of the envelope test
ENVELOPE_SLACK = 0.05  # classify_growth: relative envelope growth still "bounded"
FIT_RESIDUAL_MAX = 0.1  # classify_growth: largest relative log-fit residual of "hyperbolic"


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise NonFiniteValue("state amplitudes must be finite")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond tolerance")
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(v)


@dataclass(frozen=True)
class Trajectory:
    """Expectation-value series on a strictly increasing time grid."""

    times: np.ndarray
    expectations: Mapping[str, np.ndarray]
    representation_tag: str
    truncation_tail: float | None = None
    n_levels: int | None = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float).reshape(-1)
        if t.size == 0:
            raise ValueError("empty time grid")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        exp = {}
        for key, series in self.expectations.items():
            arr = np.array(series)
            if arr.shape != t.shape:
                raise ValueError(f"series {key!r} does not match the time grid")
            arr.flags.writeable = False
            exp[key] = arr
        object.__setattr__(self, "expectations", exp)


def _spectral_states(h: np.ndarray, psi0: np.ndarray, tgrid: np.ndarray) -> np.ndarray:
    """Columns exp(-iHt)|psi0> for every t, from one eigendecomposition of H.

    Raises NonHermitianGenerator when any state's norm drifts beyond 1e-10.
    """
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.conj().T @ psi0
    states = evecs @ (np.exp(-1j * np.outer(evals, tgrid)) * coeff[:, None])
    drift = float(np.abs(np.linalg.norm(states, axis=0) - 1.0).max(initial=0.0))
    if drift > 1e-10:
        raise NonHermitianGenerator(f"norm drift {drift:.3e} during propagation")
    return states


def propagate(
    hamiltonian,
    psi0: StateVector,
    times: Sequence[float],
    observables: Sequence[OperatorMatrix],
) -> Trajectory:
    """Unitary evolution |psi(t)> = exp(-iHt)|psi(0)> via eigendecomposition.

    H is in rad/s and times in seconds.  Expectation values <psi(t)|O|psi(t)>
    are reported per observable, keyed by the observable's label.  Raises
    NonHermitianGenerator / DimensionMismatch on bad inputs.
    """
    h = as_matrix(hamiltonian)
    _check_hermitian(h)
    dim = h.shape[0]
    if psi0.dim != dim:
        raise DimensionMismatch(f"state dim {psi0.dim} vs generator dim {dim}")
    obs = [as_matrix(o) for o in observables]
    if any(o.shape != (dim, dim) for o in obs):
        raise DimensionMismatch("observable dimension differs from generator")

    tgrid = np.asarray(times, dtype=float).reshape(-1)
    states = _spectral_states(h, psi0.amplitudes, tgrid)
    values = [np.sum(states.conj() * (o @ states), axis=0) for o in obs]

    labels = [
        ob.label if isinstance(ob, OperatorMatrix) and ob.label else f"op{i}"
        for i, ob in enumerate(observables)
    ]
    series = {}
    for lab, row in zip(labels, values):
        series[lab] = row.real if np.abs(row.imag).max(initial=0.0) < 1e-10 else row
    return Trajectory(times=tgrid, expectations=series, representation_tag="two_spin")


@dataclass(frozen=True)
class Su11Rep:
    """Truncated lowest-weight ladder representation.

    K0 is diagonal with entries n + k for n = 0..n_max, <n+1|K+|n> =
    sqrt((n+1)(n+2k)) and K- = K+^dag.  On the lower n_max x n_max block the
    measured bracket is [K-, K+] = +2 K0 exactly; truncation effects are
    confined to the top level.
    """

    k: float
    n_max: int
    k_plus: OperatorMatrix
    k_minus: OperatorMatrix
    k_zero: OperatorMatrix

    @property
    def dim(self) -> int:
        return self.n_max + 1


def build_su11_rep(k: float, n_max: int) -> Su11Rep:
    """Ladder matrices of the lowest-weight representation with index k."""
    if k <= 0:
        raise InvalidBargmannIndex(f"index must be positive, got {k}")
    if n_max < 2:
        raise TruncationTooSmall(f"need n_max >= 2, got {n_max}")
    n = np.arange(n_max + 1, dtype=float)
    k0 = np.diag(n + k).astype(complex)
    ladder = np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0 * k))
    kp = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    kp[np.arange(1, n_max + 1), np.arange(n_max)] = ladder
    return Su11Rep(
        k=float(k),
        n_max=int(n_max),
        k_plus=OperatorMatrix(kp, label="K+"),
        k_minus=OperatorMatrix(kp.conj().T, label="K-"),
        k_zero=OperatorMatrix(k0, label="K0"),
    )


def vacuum_state(rep: Su11Rep) -> StateVector:
    return StateVector.basis_state(rep.dim, 0)


def _vacuum_pair_run(rep: Su11Rep, g: float, tgrid: np.ndarray):
    """Evolve the vacuum under g(K+ + K-); return (signal, top-level tails)."""
    h = g * (rep.k_plus.entries + rep.k_minus.entries)
    populations = np.abs(_spectral_states(h, vacuum_state(rep).amplitudes, tgrid)) ** 2
    signal = rep.k_zero.entries.diagonal().real @ populations - rep.k
    return signal, populations[-1]


def hyperbolic_signal(
    rep: Su11Rep,
    g: float,
    times: Sequence[float],
    n_limit: int = DEFAULT_TRUNCATION_LIMIT,
) -> Trajectory:
    """Pair signal s(t) = <K0(t)> - k of the vacuum under H = g(K+ + K-).

    The truncation is doubled (keeping the given index k) until both the
    top-level population and its weighted contribution (n+1) * population
    stay below DEFAULT_TAIL_BOUND at every reported time; the second condition
    keeps the truncation error on s(t) at the same scale as the tail.
    Raises TruncationExceeded when no size up to `n_limit` suffices.
    """
    tgrid = np.asarray(times, dtype=float).reshape(-1)
    if np.any(tgrid < 0):
        raise ValueError("times must be non-negative")
    current = rep
    while True:
        signal, tails = _vacuum_pair_run(current, g, tgrid)
        tail_max = float(tails.max())
        if tail_max < DEFAULT_TAIL_BOUND and tail_max * current.dim < DEFAULT_TAIL_BOUND:
            break
        if 2 * current.n_max > n_limit:
            raise TruncationExceeded(
                f"top-level tail {tail_max:.3e} at n_max {current.n_max}; "
                f"doubling would exceed the limit {n_limit}"
            )
        current = build_su11_rep(current.k, 2 * current.n_max)
    return Trajectory(
        times=tgrid,
        expectations={"pair_signal": signal},
        representation_tag="su11_truncated",
        truncation_tail=tail_max,
        n_levels=current.dim,
    )


def _select_series(traj: Trajectory, signal: str | None) -> np.ndarray:
    if signal is not None:
        return np.real(traj.expectations[signal])
    if len(traj.expectations) != 1:
        raise ValueError("trajectory has several series; name one via `signal`")
    return np.real(next(iter(traj.expectations.values())))


def fit_log_slope(traj: Trajectory, signal: str | None = None) -> tuple[float, float]:
    """Least-squares slope of log|s| over the final half-window.

    Returns (slope, relative residual).  Samples where the signal is
    numerically zero are excluded from the fit.
    """
    values = _select_series(traj, signal)
    half = values.size // 2
    t = traj.times[half:]
    v = np.abs(values[half:])
    mask = v > 1e-300
    if mask.sum() < 4:
        return 0.0, np.inf
    y = np.log(v[mask])
    x = t[mask]
    design = np.stack([x, np.ones_like(x)], axis=1)
    coeff, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coeff
    spread = float(np.linalg.norm(y - y.mean()))
    if spread == 0.0:
        return float(coeff[0]), np.inf
    residual = float(np.linalg.norm(y - fitted)) / spread
    return float(coeff[0]), residual


def classify_growth(traj: Trajectory, signal: str | None = None) -> str:
    """Empirical discriminator between bounded oscillation and hyperbolic growth.

    `bounded_oscillatory` when the per-window envelope max|s| never grows by
    more than ENVELOPE_SLACK between successive windows; `hyperbolic` when
    instead log|s| over the final half-window is close to linear (relative
    fit residual below FIT_RESIDUAL_MAX) with positive slope.  The grid
    must carry at least 16 samples and is expected to span at least two
    characteristic periods or growth times of the signal.
    """
    values = _select_series(traj, signal)
    if values.size < 16:
        raise InsufficientSamples(f"need >= 16 samples, got {values.size}")
    chunks = np.array_split(np.abs(values), ENVELOPE_WINDOWS)
    envelope = np.array([float(c.max()) for c in chunks])
    grows = [
        envelope[i + 1] > envelope[i] * (1.0 + ENVELOPE_SLACK)
        for i in range(len(envelope) - 1)
    ]
    if not any(grows):
        return "bounded_oscillatory"
    slope, residual = fit_log_slope(traj, signal)
    if slope > 0 and residual < FIT_RESIDUAL_MAX:
        return "hyperbolic"
    raise AmbiguousGrowth(
        f"envelope grows but log-fit is poor (slope {slope:.3e}, residual {residual:.3e})"
    )
