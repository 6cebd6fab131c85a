"""Stationary thermal-bath dynamics for the two-spin system.

A weak-coupling generator is assembled from eigenoperators of the system
Hamiltonian with detailed-balance rates, which makes the thermal state an
exact fixed point and the relative entropy to it a monotone.  Because every
jump operator lives at a sharp transition frequency, the coherent and
dissipative parts of the generator commute, and the propagator factorizes
into an exact phase rotation times the exponential of the small dissipator.
That factorization is what keeps fixed-point residuals at machine scale even
with Zeeman frequencies in the hundreds of MHz.

A dissipator that satisfies detailed balance is self-adjoint in the KMS
inner product of its Gibbs state (Alicki 1976; Kossakowski, Frigerio, Gorini
and Verri 1977), so a diagonal similarity makes it a Hermitian matrix.
`evolve_master` diagonalizes that matrix once and evaluates the propagator
at every sample time in one product; the per-sample checks and records then
run once over the whole stack of states.  The package needs numpy alone;
`expm` is kept as the scipy reference the tests compare the propagator with.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    OperatorMatrix,
    _check_hermitian,
    _check_time_grid,
    as_matrix,
    build_two_spin_operators,
)
from .constants import HBAR, K_BOLTZMANN
from .errors import (
    CeilingPrecondition,
    DegenerateGrouping,
    DimensionMismatch,
    IllConditionedStart,
    NonFiniteValue,
    PositivityBreakdown,
    SupportViolation,
)

logger = logging.getLogger(__name__)

DEFAULT_GROUPING_TOL = 1e-6  # rad/s
SUPPORT_FLOOR = 1e-14
CLIP_LIMIT = 1e-10
BREAKDOWN_LIMIT = 1e-8

_OPS = build_two_spin_operators()
_PAIR_OP = _OPS["I1z"].entries @ _OPS["I2z"].entries
_PAIR_REF = float(np.trace(_PAIR_OP).real) / 4  # tr(rho I1z I2z) at beta = 0


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        _check_hermitian(m, 1e-12, ValueError)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace {tr} deviates from 1")
        if float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min()) < -1e-12:
            raise ValueError("density matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True)
class JumpTerm:
    """One eigenoperator jump channel: operator, transition frequency, rate."""

    operator: OperatorMatrix
    bohr_frequency: float  # rad/s; [H, A] = -omega A
    rate: float  # 1/s
    channel: str = ""


@dataclass(frozen=True)
class LindbladModel:
    """System Hamiltonian plus detailed-balance jump channels.

    `beta` is the inverse temperature in 1/J; transition energies are
    hbar * omega, so rate pairs obey gamma(-omega) = exp(-beta hbar omega)
    * gamma(omega).  Construction verifies the eigenoperator condition
    [H, A] = -omega A for every channel and the detailed-balance ratio for
    every paired frequency within a channel.
    """

    h_system: OperatorMatrix
    jump_terms: tuple[JumpTerm, ...]
    beta: float

    _evals: np.ndarray = field(init=False, repr=False, compare=False)
    _evecs: np.ndarray = field(init=False, repr=False, compare=False)
    _d_super: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite([self.beta, *(t.rate for t in self.jump_terms)]).all():
            raise NonFiniteValue("beta and every jump rate must be finite")
        h = self.h_system.entries
        _check_hermitian(h)
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        evals, evecs = np.linalg.eigh(h)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

        hnorm = max(1.0, float(np.linalg.norm(h)))
        eig_jumps = []
        for term in self.jump_terms:
            a = term.operator.entries
            if a.shape != h.shape:
                raise DimensionMismatch("jump operator dimension differs from H")
            if term.rate < 0:
                raise ValueError("jump rates must be non-negative")
            anorm = float(np.linalg.norm(a))
            if anorm > 0:
                residual = float(
                    np.linalg.norm(h @ a - a @ h + term.bohr_frequency * a)
                )
                if residual > 1e-9 * hnorm * anorm:
                    raise ValueError(
                        f"channel {term.channel!r} at omega={term.bohr_frequency:.6e} "
                        f"is not an eigenoperator (residual {residual:.3e})"
                    )
            eig_jumps.append(evecs.conj().T @ a @ evecs)
        _check_kms_pairs(self.jump_terms, self.beta)
        rates = [t.rate for t in self.jump_terms]
        object.__setattr__(self, "_d_super", _dissipator_superop(eig_jumps, rates, self.dim))

    @property
    def dim(self) -> int:
        return self.h_system.dim

    def gibbs(self) -> DensityMatrix:
        """Thermal state exp(-beta hbar H)/Z from the cached eigenbasis."""
        p = _thermal_populations(self._evals, self.beta)
        rho = (self._evecs * p) @ self._evecs.conj().T
        return DensityMatrix((rho + rho.conj().T) / 2.0)

    def kms_deviations(self) -> list[float]:
        """Relative detailed-balance deviation for every paired frequency."""
        return _kms_deviations(self.jump_terms, self.beta)


def _thermal_populations(evals: np.ndarray, beta: float) -> np.ndarray:
    weights = np.exp(-beta * HBAR * (evals - evals.min()))
    return weights / weights.sum()


def _kms_deviations(terms: Sequence[JumpTerm], beta: float) -> list[float]:
    by_channel: dict[str, list[JumpTerm]] = {}
    for t in terms:
        by_channel.setdefault(t.channel, []).append(t)
    devs = []
    for group in by_channel.values():
        for t in group:
            if t.bohr_frequency <= DEFAULT_GROUPING_TOL:
                continue
            partners = [
                u
                for u in group
                if abs(u.bohr_frequency + t.bohr_frequency) <= DEFAULT_GROUPING_TOL
            ]
            for u in partners:
                expected = t.rate * np.exp(-beta * HBAR * t.bohr_frequency)
                if expected == 0.0:
                    devs.append(abs(u.rate))
                else:
                    devs.append(abs(u.rate - expected) / expected)
    return devs


def _check_kms_pairs(terms: Sequence[JumpTerm], beta: float) -> None:
    devs = _kms_deviations(terms, beta)
    if devs and max(devs) > 1e-12:
        raise ValueError(
            f"detailed-balance ratio violated (relative deviation {max(devs):.3e})"
        )


def build_davies_model(
    h_system: OperatorMatrix,
    couplings: Sequence[tuple[OperatorMatrix, float]],
    beta: float,
) -> LindbladModel:
    """Weak-coupling generator from eigenoperator decomposition of couplings.

    Each coupling operator is split into transition-frequency components
    A(omega) = sum P(e) A P(e + hbar-less omega); frequencies closer than
    DEFAULT_GROUPING_TOL (rad/s), the tolerance the detailed-balance check
    pairs channels with, are merged.  Downward and zero-frequency channels
    keep the base rate; upward channels get the detailed-balance factor
    exp(-beta hbar |omega|).  Raises DegenerateGrouping when chained merging
    would lump frequencies farther apart than the tolerance.
    """
    h = as_matrix(h_system)
    _check_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    dim = h.shape[0]

    terms: list[JumpTerm] = []
    for idx, (op, base_rate) in enumerate(couplings):
        if base_rate <= 0:
            raise ValueError("base rates must be positive")
        label = op.label if isinstance(op, OperatorMatrix) and op.label else f"coupling{idx}"
        a_eig = evecs.conj().T @ as_matrix(op) @ evecs
        cutoff = 1e-12 * max(1.0, float(np.abs(a_eig).max()))
        entries = [
            (i, j, float(evals[j] - evals[i]))
            for i in range(dim)
            for j in range(dim)
            if abs(a_eig[i, j]) > cutoff
        ]
        if not entries:
            continue
        for omega, members in _cluster_frequencies(entries, DEFAULT_GROUPING_TOL):
            block = np.zeros((dim, dim), dtype=complex)
            for i, j, _ in members:
                block[i, j] = a_eig[i, j]
            lab_op = evecs @ block @ evecs.conj().T
            upward = omega < -DEFAULT_GROUPING_TOL
            rate = base_rate * float(np.exp(beta * HBAR * omega)) if upward else base_rate
            terms.append(
                JumpTerm(
                    operator=OperatorMatrix(lab_op, label=f"{label}@{omega:.6e}"),
                    bohr_frequency=omega,
                    rate=rate,
                    channel=label,
                )
            )
    return LindbladModel(
        h_system=h_system
        if isinstance(h_system, OperatorMatrix)
        else OperatorMatrix(h, label="H"),
        jump_terms=tuple(terms),
        beta=beta,
    )


def _cluster_frequencies(entries, tol):
    """Single-linkage merge of (i, j, omega) triplets along omega.

    Yields (mean frequency, members).  A chain whose ends differ by more
    than `tol` means two genuinely distinct frequencies were about to be
    merged, which is reported instead of silently averaged.
    """
    ordered = sorted(entries, key=lambda e: e[2])
    clusters: list[list[tuple[int, int, float]]] = [[ordered[0]]]
    for item in ordered[1:]:
        if item[2] - clusters[-1][-1][2] <= tol:
            clusters[-1].append(item)
        else:
            clusters.append([item])
    for members in clusters:
        spread = members[-1][2] - members[0][2]
        if spread > tol:
            raise DegenerateGrouping(
                f"chained frequency group spans {spread:.3e} rad/s, "
                f"beyond the grouping tolerance {tol:.1e}"
            )
        omega = float(np.mean([m[2] for m in members]))
        yield omega, members


@dataclass(frozen=True)
class OpenTrajectory:
    """Dissipative evolution record on a time grid.

    `states` is one read-only (samples, dim, dim) array of checked density
    matrices; `clipped_samples` counts the samples whose positivity was
    clipped and `max_clip` is the largest negative eigenvalue removed (0.0
    when none was).
    """

    times: np.ndarray
    states: np.ndarray
    relative_entropies: np.ndarray
    dq_amplitudes: np.ndarray | None
    pair_correlations: np.ndarray | None
    clipped_samples: int
    max_clip: float


def _dissipator_superop(eig_jumps, rates, dim) -> np.ndarray:
    """Row-major vectorized dissipator sum gamma (A . A^dag - {A^dag A, .}/2), in closed form.

    The jump part sum gamma A (x) A* is one contraction over the stacked
    channels; the anticommutator needs only M = sum gamma A^dag A, as
    -(M (x) I + I (x) M^T)/2.  A model without channels gives the zero matrix.
    """
    a = np.array(eig_jumps, dtype=complex).reshape(-1, dim, dim)
    ga = np.asarray(rates, dtype=float)[:, None, None] * a
    m = np.einsum("cki,ckj->ij", a.conj(), ga)
    jumps = np.einsum("cij,ckl->ikjl", ga, a.conj()).reshape(dim * dim, dim * dim)
    eye = np.eye(dim)
    return jumps - 0.5 * (np.kron(m, eye) + np.kron(eye, m.T))


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, with scipy imported on first use rather than with the module.

    No package code path calls it: it is the independent reference that the
    tests compare `evolve_master`'s propagator with, sample by sample.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _entries(rho) -> np.ndarray:
    """Entry array of a DensityMatrix, or a complex array view of raw input."""
    return rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _ensure_physical(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitize a matrix or a stack (..., d, d) and clip tiny negative eigenvalues.

    Returns the unit-trace matrices and the clip of each (the negative
    eigenvalue removed, 0.0 where there was none).  Clips are logged, as
    warnings above CLIP_LIMIT; one beyond BREAKDOWN_LIMIT raises
    PositivityBreakdown.
    """
    m = (entries + np.swapaxes(entries, -1, -2).conj()) / 2.0
    clips = np.maximum(-np.linalg.eigvalsh(m).min(axis=-1), 0.0)
    worst = float(clips.max())
    if worst > BREAKDOWN_LIMIT:
        raise PositivityBreakdown(
            f"negative eigenvalue {-worst:.3e} beyond {BREAKDOWN_LIMIT:.1e}"
        )
    if worst > 0.0:
        logger.log(
            logging.WARNING if worst > CLIP_LIMIT else logging.DEBUG,
            "clipping positivity violation in %d of %d matrices, largest %.3e",
            np.count_nonzero(clips), clips.size, worst,
        )
        bad = clips > 0.0
        evals, evecs = np.linalg.eigh(m[bad])
        m[bad] = (evecs * np.clip(evals, 0.0, None)[..., None, :]) @ np.swapaxes(
            evecs, -1, -2
        ).conj()
    m = m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return m, clips


def evolve_master(
    model: LindbladModel,
    rho0: DensityMatrix,
    times: Sequence[float],
) -> OpenTrajectory:
    """Propagate rho0 along the time grid under the model's semigroup.

    rho0 is the state at times[0].  In the Hamiltonian eigenbasis with Gibbs
    populations p, the similarity s = p_i^(1/4) p_j^(1/4) on the row-major
    vectorization turns the dissipator into a Hermitian matrix, and one
    eigendecomposition of it gives exp(D (t - t0)) at every sample; the
    coherent part is the exact phase exp(-i omega_ij (t - t0)).  Every
    reported state is Hermitized and renormalized; positivity violations up
    to BREAKDOWN_LIMIT are clipped and logged (as warnings above CLIP_LIMIT),
    larger ones raise PositivityBreakdown.  The trajectory records the
    relative entropy to the model's thermal state and, for two-spin systems,
    the pair coherence amplitude |tr(rho K+)| and the longitudinal pair
    correlation.

    The grid must be 1-D, non-empty, finite and strictly increasing
    (NonFiniteValue for a non-finite time, ValueError otherwise).  A start
    with weight on the numerical kernel of the thermal state raises
    SupportViolation.  IllConditionedStart is raised when a thermal
    population is exactly 0, or when dividing the start by s could amplify
    rounding beyond CLIP_LIMIT (weight just below SUPPORT_FLOOR on a level
    whose population is far smaller still).  A model whose dissipator is
    not detailed-balance symmetric raises NonHermitianGenerator.
    """
    if rho0.dim != model.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} vs model dim {model.dim}")
    tgrid = _check_time_grid(times)

    dim = model.dim
    w = model._evals
    v = model._evecs
    p = _thermal_populations(w, model.beta)
    rho_eig = v.conj().T @ rho0.entries @ v
    _check_support(np.diag(rho_eig).real, p)

    quarter = p**0.25
    s = np.outer(quarter, quarter).reshape(-1)
    x0 = rho_eig.reshape(-1)
    if not quarter.all() or (
        np.finfo(float).eps * s.max() * np.abs(x0 / s).sum() > CLIP_LIMIT
    ):
        raise IllConditionedStart(
            f"the start state cannot be propagated at temperature "
            f"{1.0 / (K_BOLTZMANN * model.beta):.6g} K: thermal populations span "
            f"{p.min():.3e} to {p.max():.3e}, and the detailed-balance similarity "
            f"would amplify rounding beyond {CLIP_LIMIT:.1e}"
        )
    kms = model._d_super * (s / s[:, None])
    _check_hermitian(kms)
    rates, modes = np.linalg.eigh((kms + kms.conj().T) / 2.0)

    tau = tgrid - tgrid[0]
    amplitudes = np.exp(np.outer(tau, rates)) * (modes.conj().T @ (x0 / s))
    bohr = np.subtract.outer(w, w).reshape(-1)
    vecs = (amplitudes @ modes.T) * s * np.exp(-1j * np.outer(tau, bohr))
    lab = vecs @ np.kron(v, v.conj()).T  # row-major vec(v X v^dag)
    states, clips = _ensure_physical(lab.reshape(-1, dim, dim))
    states.flags.writeable = False

    two_spin = dim == 4
    return OpenTrajectory(
        times=tgrid,
        states=states,
        relative_entropies=relative_entropy(states, model.gibbs()),
        dq_amplitudes=(
            np.abs(np.einsum("nij,ji->n", states, _OPS["K+"].entries)) if two_spin else None
        ),
        pair_correlations=pair_correlation(states) if two_spin else None,
        clipped_samples=int(np.count_nonzero(clips)),
        max_clip=float(clips.max()),
    )


def apply_liouvillian(model: LindbladModel, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Generator action L(rho) = -i[H, rho] + dissipator, in the lab frame."""
    mat = _entries(rho)
    if mat.shape != (model.dim, model.dim):
        raise DimensionMismatch("state dimension differs from model")
    w, v = model._evals, model._evecs
    rho_eig = v.conj().T @ mat @ v
    out = -1j * np.subtract.outer(w, w) * rho_eig
    out += (model._d_super @ rho_eig.reshape(-1)).reshape(model.dim, model.dim)
    return v @ out @ v.conj().T


def _check_support(weights: np.ndarray, q: np.ndarray) -> None:
    """SupportViolation when any weight above SUPPORT_FLOOR sits where q is at or below it."""
    if np.any(weights[..., q <= SUPPORT_FLOOR] > SUPPORT_FLOOR):
        raise SupportViolation(
            "state has weight on the kernel of the reference state"
        )


def relative_entropy(rho, sigma: DensityMatrix) -> float | np.ndarray:
    """Quantum relative entropy tr rho (log rho - log sigma), in nats.

    rho is a DensityMatrix, one matrix, or a stack (..., d, d) of them, which
    gives an array of entropies.  Eigenvalues of sigma at or below
    SUPPORT_FLOOR define its numerical kernel; any rho-weight above the
    floor on that kernel raises SupportViolation.
    """
    m = _entries(rho)
    q, qu = np.linalg.eigh(_entries(sigma))
    weights = np.einsum("ji,...jk,ki->...i", qu.conj(), m, qu, optimize=True).real
    _check_support(weights, q)
    p = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    entropy_term = np.sum(p * np.log(p, out=np.zeros_like(p), where=p > 0.0), axis=-1)
    live = q > SUPPORT_FLOOR
    value = entropy_term - weights[..., live] @ np.log(q[live])
    return float(value) if m.ndim == 2 else value


def pair_correlation(rho) -> float | np.ndarray:
    """Longitudinal pair correlation tr(rho I1z I2z) relative to beta = 0.

    rho is a DensityMatrix, one matrix, or a stack (..., 4, 4) of them.
    """
    m = _entries(rho)
    value = np.einsum("...ij,ji->...", m, _PAIR_OP).real - _PAIR_REF
    return float(value) if m.ndim == 2 else value


@dataclass(frozen=True)
class CeilingScanResult:
    max_transient: float
    gibbs_value: float
    below_ceiling: bool
    trajectory: OpenTrajectory


def ceiling_scan(
    model: LindbladModel,
    rho0: DensityMatrix,
    times: Sequence[float],
    tolerance: float = 1e-10,
) -> CeilingScanResult:
    """Check that the transient pair correlation never tops the thermal value.

    Requires the initial pair correlation at or below the thermal one (up to
    1e-12); starting above it the scan has nothing to certify and raises
    CeilingPrecondition.  The tolerance must be finite (NonFiniteValue) and
    non-negative (ValueError): an infinite one would pass any trajectory.
    """
    if not np.isfinite(tolerance):
        raise NonFiniteValue(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if model.dim != 4:
        raise DimensionMismatch("ceiling scan is defined for the two-spin system")
    gibbs_value = pair_correlation(model.gibbs())
    initial = pair_correlation(rho0)
    if initial > gibbs_value + 1e-12:
        raise CeilingPrecondition(
            f"initial pair correlation {initial:.3e} exceeds thermal value "
            f"{gibbs_value:.3e}"
        )
    traj = evolve_master(model, rho0, times)
    max_transient = float(traj.pair_correlations.max())
    return CeilingScanResult(
        max_transient=max_transient,
        gibbs_value=gibbs_value,
        below_ceiling=bool(max_transient <= gibbs_value + tolerance),
        trajectory=traj,
    )


# -- default two-spin model -------------------------------------------------

def zeeman_hamiltonian(omega0: float) -> OperatorMatrix:
    """omega0 (I1z + I2z), rad/s."""
    return OperatorMatrix(
        omega0 * (_OPS["I1z"].entries + _OPS["I2z"].entries), label="H_zeeman"
    )


def secular_dipolar_hamiltonian(omega_d: float) -> OperatorMatrix:
    """omega_d (2 I1z I2z - (I1+ I2- + I1- I2+)/2), rad/s."""
    flip_flop = _OPS["S+"].entries + _OPS["S-"].entries
    mat = omega_d * (2.0 * _PAIR_OP - 0.5 * flip_flop)
    return OperatorMatrix(mat, label="H_dipolar")


def default_thermal_model(
    omega0: float,
    omega_d: float,
    temperature: float,
    base_rate: float = 1.0,
) -> LindbladModel:
    """Zeeman + secular dipolar system with transverse single-spin couplings.

    The temperature (K) must be finite (NonFiniteValue) and positive
    (ValueError), and so must beta = 1/(k_B T): a temperature at which
    k_B T underflows raises NonFiniteValue.
    """
    if not np.isfinite(temperature):
        raise NonFiniteValue(f"temperature must be finite, got {temperature}")
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    kt = K_BOLTZMANN * temperature
    beta = 1.0 / kt if kt > 0.0 else np.inf
    if not np.isfinite(beta):
        raise NonFiniteValue(f"beta = 1/(k_B*T) is not finite at temperature {temperature} K")
    h = OperatorMatrix(
        zeeman_hamiltonian(omega0).entries + secular_dipolar_hamiltonian(omega_d).entries,
        label="H_system",
    )
    return build_davies_model(h, [(_OPS["I1x"], base_rate), (_OPS["I2x"], base_rate)], beta)
