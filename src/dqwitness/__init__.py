"""Thermodynamic witness toolkit for two-spin pair-coherence signals.

Library layout:

- `algebra`     operator catalog, measured structure constants, signature
                classification, Heisenberg flow spectra
- `dynamics`    closed-system propagation; bounded flip-flop exchange vs
                hyperbolic growth on the truncated lowest-weight ladder
- `thermal`     detailed-balance bath models, relative-entropy monotonicity,
                thermal pair-correlation ceiling
- `bounds`      scalar ceilings, spectral profile, witness verdicts
- `measurement` CSV ingestion and the line-width stability gate
- `cli`         command-line pipeline and figure/trajectory emission

The submodules and the names re-exported below load on first access
(PEP 562), so `import dqwitness` costs no numpy and the verdict path
(`bounds`, `measurement`) runs on the standard library alone.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it re-exports at package level
_EXPORTS = {
    "algebra": (
        "AdjointSpectrum",
        "KillingClassification",
        "OperatorMatrix",
        "SectorBasis",
        "abstract_basis",
        "build_two_spin_operators",
        "coherence_order",
        "commutator",
        "heisenberg_flow_spectrum",
        "hermitian_triple",
        "killing_classify",
        "measure_structure_constants",
        "triple_kappa",
    ),
    "bounds": (
        "ClassicalBound",
        "PhysicalParams",
        "WitnessReport",
        "dipolar_energy",
        "epsilon_th",
        "eta_seq",
        "f_class_max",
        "fractional_amplitude",
        "normalized_spectral_density",
        "witness",
    ),
    "dynamics": (
        "StateVector",
        "Su11Rep",
        "Trajectory",
        "build_su11_rep",
        "classify_growth",
        "fit_log_slope",
        "hyperbolic_signal",
        "propagate",
        "vacuum_state",
    ),
    "measurement": (
        "GateResult",
        "MeasurementSeries",
        "ingest",
        "ingest_text",
        "stability_gate",
    ),
    "thermal": (
        "CeilingScanResult",
        "DensityMatrix",
        "JumpTerm",
        "LindbladModel",
        "OpenTrajectory",
        "apply_liouvillian",
        "build_davies_model",
        "ceiling_scan",
        "default_thermal_model",
        "evolve_master",
        "gibbs_state",
        "pair_correlation",
        "relative_entropy",
        "secular_dipolar_hamiltonian",
        "zeeman_hamiltonian",
    ),
}
_SUBMODULES = ("algebra", "bounds", "cli", "constants", "dynamics", "errors",
               "measurement", "thermal")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_HOME})
