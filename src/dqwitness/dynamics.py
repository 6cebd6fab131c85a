"""Closed-system propagation in the two coherence sectors.

The flip-flop sector exchanges population at a fixed frequency and every
expectation stays bounded; the pair-raising sector, realized on a truncated
lowest-weight ladder, produces the hyperbolic vacuum signal
s(t) = 2k sinh^2(g t).  The ladder is held as its index and top level
(Su11Rep); its generator is built from the closed-form matrix elements only
when a signal is solved, never as dense operator matrices.  Propagation is
spectral and exact: an eigendecomposition of the (Hermitian) two-spin
generator, and one singular value decomposition of the ladder generator's
even-to-odd block, since every ladder element moves the level by exactly one
(Golub & Kahan 1965).  There is no step-size tolerance to track; the only
controlled approximation is the ladder truncation, sized once from the
closed-form tail of the vacuum's coherent-state orbit (Perelomov 1972).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, inf, isfinite, lgamma, log, log1p, tanh
from typing import Mapping, Sequence

import numpy as np

from .algebra import OperatorMatrix, _check_hermitian, _check_time_grid, as_matrix
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
TAIL_MARGIN = 10.0  # the top level's hard wall reflects amplitude: measured 2.5-4x the closed form
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
        """Unit vector on level `index`; ValueError unless 0 <= index < dim."""
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} must lie in [0, dim) for dim = {dim}")
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(v)


@dataclass(frozen=True)
class Trajectory:
    """Finite expectation-value series on a time grid.

    The grid must be 1-D, non-empty, finite and strictly increasing; a
    non-finite time or series value raises NonFiniteValue, any other breach
    ValueError.
    """

    times: np.ndarray
    expectations: Mapping[str, np.ndarray]
    representation_tag: str
    truncation_tail: float | None = None
    n_levels: int | None = None

    def __post_init__(self):
        t = _check_time_grid(self.times).copy()  # frozen below; never the caller's array
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        exp = {}
        for key, series in self.expectations.items():
            arr = np.array(series)
            if arr.shape != t.shape:
                raise ValueError(f"series {key!r} does not match the time grid")
            if not np.isfinite(arr).all():
                raise NonFiniteValue(f"series {key!r} must be finite")
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
    are reported per observable, keyed by the observable's label (op<i> when
    it has none).  Raises NonHermitianGenerator / DimensionMismatch on bad
    inputs, and rejects a bad time grid (see Trajectory) or a repeated label
    (ValueError) before the eigendecomposition.
    """
    h = as_matrix(hamiltonian)
    _check_hermitian(h)
    tgrid = _check_time_grid(times)
    dim = h.shape[0]
    if psi0.dim != dim:
        raise DimensionMismatch(f"state dim {psi0.dim} vs generator dim {dim}")
    obs = [as_matrix(o) for o in observables]
    if any(o.shape != (dim, dim) for o in obs):
        raise DimensionMismatch("observable dimension differs from generator")
    labels = [
        ob.label if isinstance(ob, OperatorMatrix) and ob.label else f"op{i}"
        for i, ob in enumerate(observables)
    ]
    repeated = next((lab for i, lab in enumerate(labels) if lab in labels[:i]), None)
    if repeated is not None:
        raise ValueError(f"observable label {repeated!r} is repeated")

    states = _spectral_states(h, psi0.amplitudes, tgrid)
    values = [np.sum(states.conj() * (o @ states), axis=0) for o in obs]
    series = {}
    for lab, row in zip(labels, values):
        series[lab] = row.real if np.abs(row.imag).max(initial=0.0) < 1e-10 else row
    return Trajectory(times=tgrid, expectations=series, representation_tag="two_spin")


@dataclass(frozen=True)
class Su11Rep:
    """Lowest-weight ladder representation with index k, truncated at level n_max.

    K0 is diagonal with entries n + k for n = 0..n_max, <n+1|K+|n> =
    sqrt((n+1)(n+2k)) and K- = K+^dag (see _ladder_elements); on the lower
    n_max x n_max block [K-, K+] = +2 K0 exactly.  Construction checks, in
    order: k finite (NonFiniteValue) and positive (InvalidBargmannIndex),
    n_max >= 2 (TruncationTooSmall) and n_max <= DEFAULT_TRUNCATION_LIMIT
    (TruncationExceeded); every instance is valid.
    """

    k: float
    n_max: int

    def __post_init__(self):
        if not isfinite(self.k):
            raise NonFiniteValue(f"index must be finite, got {self.k}")
        if self.k <= 0:
            raise InvalidBargmannIndex(f"index must be positive, got {self.k}")
        if self.n_max < 2:
            raise TruncationTooSmall(f"need n_max >= 2, got {self.n_max}")
        if self.n_max > DEFAULT_TRUNCATION_LIMIT:
            raise TruncationExceeded(
                f"n_max {self.n_max} exceeds DEFAULT_TRUNCATION_LIMIT {DEFAULT_TRUNCATION_LIMIT}"
            )
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "n_max", int(self.n_max))


def _ladder_elements(k: float, n_max: int) -> np.ndarray:  # <n+1|K+|n>, n = 0..n_max-1
    n = np.arange(n_max, dtype=float)
    return np.sqrt((n + 1.0) * (n + 2.0 * k))


def _ladder_populations(a: np.ndarray, tgrid: np.ndarray) -> np.ndarray:
    """|<n|exp(-iHt)|0>|^2 for levels n = 0..len(a) and every t, H = diag(a, -1) + diag(a, 1).

    H couples even levels only to odd ones, H = [[0, B], [B^T, 0]], so one SVD
    B = U diag(s) V^T of the even-to-odd block B[i, j] = H[2i, 2j+1] gives
    even amplitudes e0 - 2 U (sin^2(s t/2) c) and odd ones -i V (sin(s t) c),
    c = U^T e0: exact at t = 0, and the kernel of B^T needs no case of its own.
    Raises NonHermitianGenerator when any state's norm drifts beyond 1e-10.
    """
    levels = a.size + 1
    b = np.zeros(((levels + 1) // 2, levels // 2))
    j = np.arange(a.size)  # a[j] couples level j to j+1: one of them even, one odd
    b[(j + 1) // 2, j // 2] = a
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    st = np.outer(s, tgrid)
    c = u[0][:, None]
    even = -2.0 * (u @ (np.sin(st / 2.0) ** 2 * c))
    even[0] += 1.0
    populations = np.empty((levels, tgrid.size))
    populations[0::2] = even**2
    populations[1::2] = (vt.T @ (np.sin(st) * c)) ** 2
    drift = float(np.abs(np.sqrt(populations.sum(axis=0)) - 1.0).max(initial=0.0))
    if drift > 1e-10:
        raise NonHermitianGenerator(f"norm drift {drift:.3e} during propagation")
    return populations


def build_su11_rep(k: float, n_max: int) -> Su11Rep:
    """The representation with index k truncated at n_max; Su11Rep checks both."""
    return Su11Rep(k, n_max)


def _coherent_top_index(k: float, gt: float) -> int:
    """First N past the peak 2kx/(1-x) with (N+1)|c_N|^2 < DEFAULT_TAIL_BOUND / TAIL_MARGIN.

    |c_N|^2 = (1-x)^{2k} x^N Gamma(N+2k) / (N! Gamma(2k)), x = tanh^2(gt), is the vacuum's
    level-N population at |g|t = gt; past the peak it rises with x, so the last time is the worst.
    """
    x = tanh(gt) ** 2
    peak = 2.0 * k * x / (1.0 - x) if x < 1.0 else inf
    if peak < DEFAULT_TRUNCATION_LIMIT:
        log_bound = log(DEFAULT_TAIL_BOUND / TAIL_MARGIN)
        log_head, log_x = 2.0 * k * log1p(-x) - lgamma(2.0 * k), log(x) if x else -inf
        for n in range(floor(peak) + 1, DEFAULT_TRUNCATION_LIMIT + 1):
            log_tail = log(n + 1) + log_head + n * log_x + lgamma(n + 2.0 * k) - lgamma(n + 1)
            if log_tail < log_bound:
                return n
    raise TruncationExceeded(f"k={k}, |g|t={gt} needs more than {DEFAULT_TRUNCATION_LIMIT} levels")


def hyperbolic_signal(rep: Su11Rep, g: float, times: Sequence[float]) -> Trajectory:
    """Pair signal s(t) = <K0(t)> - k of the vacuum under H = g(K+ + K-).

    One real SVD of the generator's even-to-odd block (see _ladder_populations)
    at top index max(rep.n_max, _coherent_top_index(...)).  TruncationExceeded:
    before it when that index passes DEFAULT_TRUNCATION_LIMIT; after it if the
    top-level population or (n+1) times it reaches DEFAULT_TAIL_BOUND, which
    keeps the error on s(t) at the tail's scale.  A non-finite coupling or a
    bad or negative time grid raises before any work.
    """
    if not isfinite(g):
        raise NonFiniteValue(f"coupling must be finite, got {g}")
    tgrid = _check_time_grid(times)
    if tgrid[0] < 0:
        raise ValueError("times must be non-negative")
    n_max = max(rep.n_max, _coherent_top_index(rep.k, abs(g) * float(tgrid[-1])))
    populations = _ladder_populations(g * _ladder_elements(rep.k, n_max), tgrid)
    signal = np.arange(n_max + 1) @ populations  # <K0> - k without the cancellation
    tail_max = float(populations[-1].max())
    if not (tail_max < DEFAULT_TAIL_BOUND and tail_max * (n_max + 1) < DEFAULT_TAIL_BOUND):
        raise TruncationExceeded(f"measured top-level tail {tail_max:.3e} at n_max {n_max}")
    return Trajectory(
        times=tgrid,
        expectations={"pair_signal": signal},
        representation_tag="su11_truncated",
        truncation_tail=tail_max,
        n_levels=n_max + 1,
    )


def _select_series(traj: Trajectory) -> np.ndarray:
    if len(traj.expectations) != 1:
        raise ValueError("growth is classified on a trajectory with exactly one series")
    return np.real(next(iter(traj.expectations.values())))


def fit_log_slope(traj: Trajectory) -> tuple[float, float]:
    """Least-squares slope of log|s| of the one series over the final half-window.

    Returns (slope, relative residual).  Samples where the signal is
    numerically zero are excluded from the fit.
    """
    values = _select_series(traj)
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


def classify_growth(traj: Trajectory) -> str:
    """Empirical discriminator between bounded oscillation and hyperbolic growth.

    `bounded_oscillatory` when the per-window envelope max|s| never grows by
    more than ENVELOPE_SLACK between successive windows; `hyperbolic` when
    instead log|s| over the final half-window is close to linear (relative
    fit residual below FIT_RESIDUAL_MAX) with positive slope.  The trajectory
    must carry exactly one series (ValueError otherwise) of at least 16
    samples, and is expected to span at least two characteristic periods or
    growth times of the signal.
    """
    values = _select_series(traj)
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
    slope, residual = fit_log_slope(traj)
    if slope > 0 and residual < FIT_RESIDUAL_MAX:
        return "hyperbolic"
    raise AmbiguousGrowth(
        f"envelope grows but log-fit is poor (slope {slope:.3e}, residual {residual:.3e})"
    )
