"""Two-spin coherence sectors as small Lie algebras.

Builds the spin-1/2 pair operator catalog, measures structure constants of
candidate bases by least-squares projection, classifies the resulting real
forms through the signature of the contracted f-tensor metric, and computes
the spectrum of the one-parameter Heisenberg flow a generator induces on a
closed sector.

Two bracket conventions appear side by side.  Ladder bases carry real
structure constants ([A0, A+] = +A+).  Hermitian triples (X1, X2, X0) carry
purely imaginary ones ([X1, X2] = i*kappa*X0), and only in that form is a
signature computation meaningful; kappa = +1 marks the rotation-type algebra,
kappa = -1 the boost-type one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import (
    LinearlyDependentBasis,
    NonFiniteValue,
    NonHermitianGenerator,
    NotClosed,
    NotEigenoperator,
    NotHermitianTriple,
)

TWO_SPIN_DIM = 4

GRAM_CONDITION_LIMIT = 1e10
HERMITIAN_TOL = 1e-12  # OperatorMatrix.is_hermitian, relative
COHERENCE_TOL = 1e-10  # coherence_order commutator residual, relative
REAL_PART_TOL = 1e-10  # real_structure_constants, relative to the largest constant
CLOSURE_TOL = 1e-8  # largest closure_residual the classifiers accept
METRIC_ZERO_TOL = 1e-10  # killing_classify: floor of the zero-eigenvalue cut


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square complex matrix with a short label.

    The entry array is frozen after construction; all operations on it
    return new objects.
    """

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator {self.label!r} is not a square matrix")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.entries.conj().T, label=self.label + "^dag")

    def is_hermitian(self) -> bool:
        return _deviation_from(self.entries, self.entries.conj().T) <= HERMITIAN_TOL


def _deviation_from(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.linalg.norm(a)))
    return float(np.linalg.norm(a - b)) / scale


def _check_hermitian(
    mat: np.ndarray,
    tol: float = 1e-10,
    error: type[Exception] = NonHermitianGenerator,
) -> None:
    """Raise `error` when mat deviates from mat^dag by more than `tol` (relative).

    Non-finite entries raise NonFiniteValue before any arithmetic on them.
    """
    if not np.isfinite(mat).all():
        raise NonFiniteValue("matrix has non-finite entries")
    dev = _deviation_from(mat, mat.conj().T)
    if dev > tol:
        raise error(f"relative Hermiticity deviation {dev:.3e}")


def as_matrix(op) -> np.ndarray:
    """Entry array of an OperatorMatrix, or a complex ndarray view of raw input."""
    if isinstance(op, OperatorMatrix):
        return op.entries
    return np.asarray(op, dtype=complex)


def commutator(a, b) -> np.ndarray:
    x, y = as_matrix(a), as_matrix(b)
    return x @ y - y @ x


def build_two_spin_operators() -> dict[str, OperatorMatrix]:
    """Catalog of 4x4 operators for two spins 1/2.

    Product basis order is (uu, ud, du, dd).  Includes the single-spin
    Cartesian and ladder operators, the pair-raising triple
    K+ = I1+ I2+, K- = I1- I2-, K0 = (I1z + I2z)/2, and the flip-flop
    triple S+ = I1+ I2-, S- = I1- I2+, S0 = (I1z - I2z)/2.
    """
    eye = np.eye(2)
    iz = np.diag([0.5, -0.5]).astype(complex)
    ip = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    im = ip.conj().T
    ix = (ip + im) / 2.0
    iy = (ip - im) / 2.0j

    def two(label, left, right):
        return OperatorMatrix(np.kron(left, right), label=label)

    ops = {
        "I1z": two("I1z", iz, eye),
        "I2z": two("I2z", eye, iz),
        "I1x": two("I1x", ix, eye),
        "I2x": two("I2x", eye, ix),
        "I1y": two("I1y", iy, eye),
        "I2y": two("I2y", eye, iy),
        "I1+": two("I1+", ip, eye),
        "I1-": two("I1-", im, eye),
        "I2+": two("I2+", eye, ip),
        "I2-": two("I2-", eye, im),
    }
    ops["K+"] = OperatorMatrix(ops["I1+"].entries @ ops["I2+"].entries, label="K+")
    ops["K-"] = OperatorMatrix(ops["I1-"].entries @ ops["I2-"].entries, label="K-")
    ops["K0"] = OperatorMatrix(
        (ops["I1z"].entries + ops["I2z"].entries) / 2.0, label="K0"
    )
    ops["S+"] = OperatorMatrix(ops["I1+"].entries @ ops["I2-"].entries, label="S+")
    ops["S-"] = OperatorMatrix(ops["I1-"].entries @ ops["I2+"].entries, label="S-")
    ops["S0"] = OperatorMatrix(
        (ops["I1z"].entries - ops["I2z"].entries) / 2.0, label="S0"
    )
    return ops


def coherence_order(op: OperatorMatrix) -> int:
    """Integer p with [I1z + I2z, O] = p * O.

    Raises NotEigenoperator when the commutator residual exceeds
    COHERENCE_TOL relative to the operator norm.
    """
    mat = as_matrix(op)
    if mat.shape != (TWO_SPIN_DIM, TWO_SPIN_DIM):
        raise ValueError("coherence order is defined on 4x4 two-spin operators")
    total_iz = np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex)
    com = commutator(total_iz, mat)
    norm2 = float(np.vdot(mat, mat).real)
    if norm2 == 0.0:
        raise NotEigenoperator("zero operator has no coherence order")
    p = float(np.vdot(mat, com).real) / norm2
    p_int = int(round(p))
    residual = float(np.linalg.norm(com - p_int * mat))
    if residual > COHERENCE_TOL * max(1.0, float(np.sqrt(norm2))):
        raise NotEigenoperator(
            f"commutator residual {residual:.3e} exceeds tolerance {COHERENCE_TOL:.1e}"
        )
    return p_int


@dataclass(frozen=True)
class SectorBasis:
    """Ordered operator basis with its measured structure constants.

    `structure_constants[i, j, k]` is the coefficient of element k in
    [e_i, e_j].  `closure_residual` is the worst out-of-span part of any
    commutator relative to max(1, ||[e_i, e_j]||_F), so it does not grow
    with the scale of the basis.  For an abstract basis (built from the
    defining bracket relations rather than matrices) `elements` is None and
    only the constants and labels are populated.
    """

    structure_constants: np.ndarray
    closure_residual: float
    elements: tuple[OperatorMatrix, ...] | None = None
    labels: tuple[str, ...] = ()
    coherence_orders: tuple[int | None, ...] | None = None

    def __post_init__(self):
        c = np.array(self.structure_constants, dtype=complex)
        n = c.shape[0]
        if c.shape != (n, n, n):
            raise ValueError("structure constants must form an (n, n, n) array")
        anti = float(np.abs(c + np.swapaxes(c, 0, 1)).max()) if n else 0.0
        if anti > 1e-10:
            raise ValueError(f"structure constants not antisymmetric ({anti:.3e})")
        c.flags.writeable = False
        object.__setattr__(self, "structure_constants", c)
        if self.elements is not None and len(self.elements) != n:
            raise ValueError("element count does not match constant array")

    @property
    def size(self) -> int:
        return self.structure_constants.shape[0]


def measure_structure_constants(
    elements: Sequence[OperatorMatrix],
) -> SectorBasis:
    """Project every pairwise commutator onto the span of `elements`.

    The constants are measured from the concrete matrices, not assumed,
    and the worst-case out-of-span Frobenius residual, divided by
    max(1, ||[e_i, e_j]||_F), is recorded so the caller can decide whether
    the set actually closes at any scale of the elements.

    Raises LinearlyDependentBasis when the Gram matrix condition number
    exceeds 1e10.
    """
    ops = [as_matrix(e) for e in elements]
    n = len(ops)
    if n == 0:
        raise ValueError("need at least one element")
    dim = ops[0].shape[0]
    if any(o.shape != (dim, dim) for o in ops):
        raise ValueError("all elements must share one dimension")

    basis_mat = np.stack([o.reshape(-1) for o in ops], axis=1)
    gram = basis_mat.conj().T @ basis_mat
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
        raise LinearlyDependentBasis(
            f"Gram condition number {cond:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e}"
        )

    c = np.zeros((n, n, n), dtype=complex)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            com = ops[i] @ ops[j] - ops[j] @ ops[i]
            coeff, *_ = np.linalg.lstsq(basis_mat, com.reshape(-1), rcond=None)
            c[i, j, :] = coeff
            outside = com - (basis_mat @ coeff).reshape(dim, dim)
            scale = max(1.0, float(np.linalg.norm(com)))
            worst = max(worst, float(np.linalg.norm(outside)) / scale)

    c = (c - np.swapaxes(c, 0, 1)) / 2.0  # commutator antisymmetry, exact
    orders: list[int | None] = []
    for e in elements:
        try:
            orders.append(coherence_order(e) if dim == TWO_SPIN_DIM else None)
        except NotEigenoperator:
            orders.append(None)
    labels = tuple(
        e.label if isinstance(e, OperatorMatrix) and e.label else f"e{i}"
        for i, e in enumerate(elements)
    )
    return SectorBasis(
        structure_constants=c,
        closure_residual=worst,
        elements=tuple(
            e if isinstance(e, OperatorMatrix) else OperatorMatrix(e)
            for e in elements
        ),
        labels=labels,
        coherence_orders=tuple(orders),
    )


def hermitian_triple(
    plus: OperatorMatrix, minus: OperatorMatrix, zero: OperatorMatrix
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Hermitian combinations (X1, X2, X0) of a ladder triple (A+, A-, A0).

    X1 = (A+ + A-)/2 and X2 = (A+ - A-)/(2i); when A- = A+^dag these are
    Hermitian and their brackets carry purely imaginary constants.
    """
    p, m, z = as_matrix(plus), as_matrix(minus), as_matrix(zero)
    x1 = OperatorMatrix((p + m) / 2.0, label="X1")
    x2 = OperatorMatrix((p - m) / 2.0j, label="X2")
    x0 = OperatorMatrix(z, label="X0")
    return x1, x2, x0


AbstractKind = Literal["su2", "su11"]


def abstract_basis(kind: AbstractKind) -> SectorBasis:
    """Structure constants of the two sector algebras, from their brackets alone.

    Both kinds share [X0, X1] = i X2 and [X0, X2] = -i X1 on the Hermitian
    triple ordered (X1, X2, X0); they differ only in [X1, X2] = i*kappa*X0.
    `su2` (ladder bracket [A-, A+] = -2 A0) gives kappa = +1;
    `su11` (ladder bracket [K-, K+] = +2 K0) gives kappa = -1.
    No matrix representation is involved.
    """
    if kind == "su2":
        kappa = 1.0
    elif kind == "su11":
        kappa = -1.0
    else:
        raise ValueError(f"unknown abstract basis kind {kind!r}")

    f = np.zeros((3, 3, 3))
    x1, x2, x0 = 0, 1, 2
    f[x1, x2, x0] = kappa
    f[x2, x1, x0] = -kappa
    f[x0, x1, x2] = 1.0
    f[x1, x0, x2] = -1.0
    f[x0, x2, x1] = -1.0
    f[x2, x0, x1] = 1.0
    orders = (0, 0, 0) if kind == "su2" else None
    return SectorBasis(
        structure_constants=1j * f,
        closure_residual=0.0,
        elements=None,
        labels=("X1", "X2", "X0"),
        coherence_orders=orders,
    )


def real_structure_constants(basis: SectorBasis) -> np.ndarray:
    """Real f-tensor with [e_i, e_j] = i sum_k f_ijk e_k.

    Only Hermitian-triple bases (purely imaginary measured constants) have
    such a real form; anything else raises NotHermitianTriple.
    """
    c = basis.structure_constants
    scale = max(1.0, float(np.abs(c).max()))
    if float(np.abs(c.real).max()) > REAL_PART_TOL * scale:
        raise NotHermitianTriple(
            "structure constants have a real part; convert the basis to a "
            "Hermitian triple (see hermitian_triple) before classifying"
        )
    return np.ascontiguousarray(c.imag)


def triple_kappa(basis: SectorBasis) -> float:
    """Coefficient kappa in [X1, X2] = i*kappa*X0 for a 3-element triple."""
    if basis.size != 3:
        raise ValueError("kappa is defined for 3-element Hermitian triples")
    f = real_structure_constants(basis)
    return float(f[0, 1, 2])


def _require_closed(basis: SectorBasis) -> None:
    if basis.closure_residual > CLOSURE_TOL:
        raise NotClosed(
            f"closure residual {basis.closure_residual:.3e} exceeds {CLOSURE_TOL:.1e}"
        )


@dataclass(frozen=True)
class KillingClassification:
    """Signature data of the contracted f-tensor metric."""

    metric: np.ndarray
    signature: tuple[int, int, int]  # (n_positive, n_negative, n_zero)
    label: Literal["compact", "noncompact", "degenerate"]


def killing_classify(basis: SectorBasis) -> KillingClassification:
    """Classify a closed Hermitian-triple basis by metric definiteness.

    g_ab = sum_cd f_acd f_bdc, contracted from the real structure constants.
    A definite metric (all nonzero eigenvalues of one sign, none zero) marks
    the compact case regardless of overall sign convention; an indefinite
    one the non-compact case; any zero eigenvalue the degenerate case.
    """
    _require_closed(basis)
    f = real_structure_constants(basis)
    g = np.einsum("acd,bdc->ab", f, f)
    g = (g + g.T) / 2.0
    eigs = np.linalg.eigvalsh(g)
    cut = max(METRIC_ZERO_TOL, 1e-12 * float(np.abs(eigs).max(initial=0.0)))
    n_zero = int(np.sum(np.abs(eigs) <= cut))
    n_pos = int(np.sum(eigs > cut))
    n_neg = int(np.sum(eigs < -cut))
    if n_zero > 0:
        label = "degenerate"
    elif n_pos > 0 and n_neg > 0:
        label = "noncompact"
    else:
        label = "compact"
    return KillingClassification(metric=g, signature=(n_pos, n_neg, n_zero), label=label)


@dataclass(frozen=True)
class AdjointSpectrum:
    """Eigenvalues of the Heisenberg flow matrix and their character."""

    eigenvalues: np.ndarray
    classification: Literal["oscillatory", "hyperbolic", "mixed"]
    tolerance: float


def heisenberg_flow_spectrum(basis: SectorBasis, h: Sequence[float]) -> AdjointSpectrum:
    """Spectrum of the linear flow d<X_b>/dt = i <[H, X_b]> with H = sum h_a X_a.

    With real structure constants f the flow matrix is M_bc = -sum_a h_a f_abc.
    Purely imaginary spectra mean bounded oscillation; a real nonzero
    eigenvalue means hyperbolic growth along some direction.  The real/
    imaginary tests use tolerance 1e-9 * ||h||.
    """
    _require_closed(basis)
    f = real_structure_constants(basis)
    hv = np.asarray(h, dtype=float)
    if hv.shape != (basis.size,):
        raise ValueError(f"coefficient vector must have length {basis.size}")
    hnorm = float(np.linalg.norm(hv))
    if hnorm == 0.0:
        return AdjointSpectrum(
            eigenvalues=np.zeros(basis.size, dtype=complex),
            classification="oscillatory",
            tolerance=0.0,
        )
    flow = -np.einsum("a,abc->bc", hv, f)
    eigs = np.linalg.eigvals(flow)
    tol = 1e-9 * hnorm
    if bool(np.all(np.abs(eigs.real) < tol)):
        label = "oscillatory"
    elif bool(np.any((np.abs(eigs.real) >= tol) & (np.abs(eigs.imag) < tol))):
        label = "hyperbolic"
    else:
        label = "mixed"
    return AdjointSpectrum(eigenvalues=eigs, classification=label, tolerance=tol)
