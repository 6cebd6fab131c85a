"""Thermodynamic witness toolkit for two-spin pair-coherence signals.

Library layout:

- `algebra`     operator catalog, measured structure constants, signature
                classification, Heisenberg flow spectra
- `dynamics`    closed-system propagation; bounded flip-flop exchange vs
                hyperbolic growth on the truncated lowest-weight ladder
- `thermal`     detailed-balance bath models, relative-entropy monotonicity,
                thermal pair-correlation ceiling
- `bounds`      scalar ceilings, spectral density, witness verdicts
- `measurement` CSV ingestion and the line-width stability gate
- `cli`         command-line pipeline and figure/trajectory emission
"""

__version__ = "0.1.0"

from .algebra import (
    AdjointSpectrum,
    KillingClassification,
    OperatorMatrix,
    SectorBasis,
    abstract_basis,
    build_two_spin_operators,
    coherence_order,
    commutator,
    heisenberg_flow_spectrum,
    hermitian_triple,
    killing_classify,
    measure_structure_constants,
    triple_kappa,
)
from .bounds import (
    ClassicalBound,
    PhysicalParams,
    WitnessReport,
    dipolar_energy,
    epsilon_th,
    eta_seq,
    f_class_max,
    fractional_amplitude,
    normalized_spectral_density,
    spectral_density,
    witness,
)
from .dynamics import (
    StateVector,
    Su11Rep,
    Trajectory,
    build_su11_rep,
    classify_growth,
    fit_log_slope,
    hyperbolic_signal,
    propagate,
    vacuum_state,
)
from .measurement import (
    GateResult,
    MeasurementSeries,
    ingest,
    ingest_text,
    stability_gate,
)
from .thermal import (
    CeilingScanResult,
    DensityMatrix,
    JumpTerm,
    LindbladModel,
    OpenTrajectory,
    apply_liouvillian,
    build_davies_model,
    ceiling_scan,
    default_thermal_model,
    evolve_master,
    gibbs_state,
    pair_correlation,
    relative_entropy,
    secular_dipolar_hamiltonian,
    zeeman_hamiltonian,
)
