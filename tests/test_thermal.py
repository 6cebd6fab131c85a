"""Detailed-balance bath models: fixed point, contractivity, ceiling."""

import logging
import math

import numpy as np
import pytest

from dqwitness.algebra import OperatorMatrix, build_two_spin_operators
from dqwitness.constants import HBAR, K_BOLTZMANN
from dqwitness.errors import (
    CeilingPrecondition,
    DegenerateGrouping,
    DimensionMismatch,
    NonFiniteValue,
    NonHermitianGenerator,
    PositivityBreakdown,
    SupportViolation,
)
from dqwitness.thermal import (
    DensityMatrix,
    JumpTerm,
    LindbladModel,
    _ensure_physical,
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

TWO_PI = 2.0 * np.pi
BETA_310 = 1.0 / (K_BOLTZMANN * 310.0)


@pytest.fixture(scope="module")
def ops():
    return build_two_spin_operators()


@pytest.fixture(scope="module")
def nmr_model():
    """Zeeman 400 MHz + secular dipolar 10 kHz bath model at 310 K."""
    return default_thermal_model(TWO_PI * 400e6, TWO_PI * 10e3, 310.0)


@pytest.fixture(scope="module")
def khz_model():
    """Same structure at kHz scale, where absolute residuals are meaningful."""
    return default_thermal_model(TWO_PI * 1e3, TWO_PI * 10e3, 310.0)


class TestGibbsState:
    def test_infinite_temperature_is_maximally_mixed(self, ops):
        rho = gibbs_state(zeeman_hamiltonian(TWO_PI * 400e6), 0.0)
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4.0, atol=1e-14)

    def test_zeeman_population_ratio(self):
        omega0 = TWO_PI * 400e6
        rho = gibbs_state(zeeman_hamiltonian(omega0), BETA_310)
        pops = np.diag(rho.entries).real
        ratio = pops[0] / pops[1]  # uu over ud, adjacent Zeeman levels
        assert ratio == pytest.approx(math.exp(-BETA_310 * HBAR * omega0), rel=1e-12)
        assert 1.0 - ratio == pytest.approx(6.19e-5, abs=2e-7)

    def test_zero_temperature_limit_projects_on_ground_state(self):
        h = OperatorMatrix(
            zeeman_hamiltonian(TWO_PI * 400e6).entries
            + secular_dipolar_hamiltonian(TWO_PI * 10e3).entries,
            label="H",
        )
        evals, evecs = np.linalg.eigh(h.entries)
        gap = evals[1] - evals[0]
        beta = 35.0 / (HBAR * gap)
        rho = gibbs_state(h, beta)
        ground = evecs[:, 0]
        fidelity = float(np.vdot(ground, rho.entries @ ground).real)
        assert fidelity > 1.0 - 1e-10

    def test_commutes_with_generator(self):
        h = zeeman_hamiltonian(TWO_PI * 400e6)
        rho = gibbs_state(h, BETA_310)
        residual = np.linalg.norm(h.entries @ rho.entries - rho.entries @ h.entries)
        assert residual / np.linalg.norm(h.entries) < 1e-10

    def test_non_hermitian_rejected(self, ops):
        with pytest.raises(NonHermitianGenerator):
            gibbs_state(ops["K+"], BETA_310)


class TestDaviesConstruction:
    def test_transverse_couplings_give_single_spin_ladder_channels(self, ops):
        omega0 = TWO_PI * 100.0
        model = build_davies_model(
            zeeman_hamiltonian(omega0), [(ops["I1x"], 1.0), (ops["I2x"], 1.0)], BETA_310
        )
        assert len(model.jump_terms) == 4  # two couplings x two signed frequencies
        freqs = sorted(t.bohr_frequency for t in model.jump_terms)
        np.testing.assert_allclose(freqs, [-omega0, -omega0, omega0, omega0], rtol=1e-12)
        lowering = [t for t in model.jump_terms if t.bohr_frequency > 0]
        for term in lowering:
            a = term.operator.entries
            ladder = ops["I1-"].entries if term.channel == "I1x" else ops["I2-"].entries
            coeff = np.vdot(ladder, a) / np.vdot(ladder, ladder)
            assert np.linalg.norm(a - coeff * ladder) < 1e-12
            assert abs(coeff) == pytest.approx(0.5, abs=1e-12)

    def test_eigenoperator_condition(self, nmr_model):
        h = nmr_model.h_system.entries
        hnorm = np.linalg.norm(h)
        for term in nmr_model.jump_terms:
            a = term.operator.entries
            residual = np.linalg.norm(h @ a - a @ h + term.bohr_frequency * a)
            assert residual <= 1e-9 * hnorm * np.linalg.norm(a)

    def test_detailed_balance_ratio_is_exact(self, nmr_model):
        devs = nmr_model.kms_deviations()
        assert devs and max(devs) <= 1e-12

    def test_infinite_temperature_rates_are_symmetric(self, ops):
        model = build_davies_model(
            zeeman_hamiltonian(TWO_PI * 100.0), [(ops["I1x"], 0.7)], 0.0
        )
        rates = {round(t.bohr_frequency, 6): t.rate for t in model.jump_terms}
        up = [r for f, r in rates.items() if f < 0]
        down = [r for f, r in rates.items() if f > 0]
        assert up and down and up[0] == pytest.approx(down[0], rel=1e-15)

    def test_commuting_coupling_is_pure_dephasing(self, ops):
        model = build_davies_model(
            zeeman_hamiltonian(TWO_PI * 100.0), [(ops["I1z"], 0.3)], BETA_310
        )
        assert len(model.jump_terms) == 1
        term = model.jump_terms[0]
        assert term.bohr_frequency == pytest.approx(0.0, abs=1e-9)
        assert term.rate == 0.3

    def test_chained_near_degenerate_frequencies_rejected(self):
        h = OperatorMatrix(np.diag([0.0, 1.0, 2.0 + 6e-7, 3.0 + 1.8e-6]), label="H")
        coupling = np.zeros((4, 4))
        for i in range(3):
            coupling[i, i + 1] = coupling[i + 1, i] = 1.0
        with pytest.raises(DegenerateGrouping):
            build_davies_model(h, [(OperatorMatrix(coupling, label="A"), 1.0)], 0.0)

    def test_direct_model_validates_eigenoperator_condition(self, ops):
        h = zeeman_hamiltonian(TWO_PI * 100.0)
        bad = JumpTerm(operator=ops["I1x"], bohr_frequency=TWO_PI * 100.0, rate=1.0)
        with pytest.raises(ValueError):
            LindbladModel(h_system=h, jump_terms=(bad,), beta=0.0)

    def test_direct_model_validates_kms_pairs(self, ops):
        h = zeeman_hamiltonian(TWO_PI * 100.0)
        omega0 = TWO_PI * 100.0
        lower = JumpTerm(ops["I1-"], bohr_frequency=omega0, rate=1.0, channel="c")
        raise_ = JumpTerm(ops["I1+"], bohr_frequency=-omega0, rate=0.5, channel="c")
        with pytest.raises(ValueError):
            LindbladModel(h_system=h, jump_terms=(lower, raise_), beta=0.0)


class TestMasterEquation:
    def test_thermal_state_is_stationary(self, nmr_model):
        rho_th = nmr_model.gibbs()
        traj = evolve_master(nmr_model, rho_th, np.linspace(0.0, 5.0, 21))
        worst = max(
            np.linalg.norm(s.entries - rho_th.entries) for s in traj.states
        )
        assert worst < 1e-10

    def test_relative_entropy_decays_from_aligned_state(self, nmr_model):
        rho0 = DensityMatrix.pure([1.0, 0.0, 0.0, 0.0])
        traj = evolve_master(nmr_model, rho0, np.linspace(0.0, 45.0, 91))
        s = traj.relative_entropies
        live = s > 1e-12
        assert np.all(np.diff(s[live]) < 0)
        assert np.all(np.diff(s) <= 1e-9)
        assert s[-1] < 1e-8

    def test_spohn_monotonicity_for_random_states(self, nmr_model):
        rng = np.random.default_rng(42)
        times = np.linspace(0.0, 10.0, 41)
        for _ in range(10):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho0 = DensityMatrix(rho / np.trace(rho).real)
            traj = evolve_master(nmr_model, rho0, times)
            assert np.all(np.diff(traj.relative_entropies) <= 1e-9)

    def test_pair_coherence_sector_stays_empty(self, ops, nmr_model):
        # order +/-1 jumps cannot feed the |p| = 2 block from the p = 0 block
        rho = (
            np.eye(4) / 4.0
            + 0.2 * ops["I1x"].entries
            + 0.1 * (ops["S+"].entries + ops["S-"].entries)
        )
        rho0 = DensityMatrix(rho)
        traj = evolve_master(nmr_model, rho0, np.linspace(0.0, 5.0, 26))
        assert traj.dq_amplitudes.max() < 1e-12

    def test_trace_preserved(self, nmr_model):
        rho0 = DensityMatrix.maximally_mixed(4)
        traj = evolve_master(nmr_model, rho0, np.linspace(0.0, 10.0, 41))
        for state in traj.states:
            assert abs(np.trace(state.entries).real - 1.0) < 1e-10

    def test_liouvillian_annihilates_thermal_state(self, khz_model):
        residual = np.linalg.norm(apply_liouvillian(khz_model, khz_model.gibbs()))
        assert residual < 1e-10

    def test_liouvillian_residual_relative_at_nmr_scale(self, nmr_model):
        residual = np.linalg.norm(apply_liouvillian(nmr_model, nmr_model.gibbs()))
        assert residual / np.linalg.norm(nmr_model.h_system.entries) < 1e-15

    def test_dimension_mismatch(self, nmr_model):
        with pytest.raises(DimensionMismatch):
            evolve_master(nmr_model, DensityMatrix.maximally_mixed(3), [0.0, 1.0])


class TestPositivityHandling:
    def test_small_violation_is_clipped_and_logged(self, caplog):
        bad = np.diag([0.5, 0.3, 0.2 + 5e-11, -5e-11]).astype(complex)
        with caplog.at_level(logging.DEBUG, logger="dqwitness.thermal"):
            fixed = _ensure_physical(bad)
        assert np.linalg.eigvalsh(fixed).min() >= 0.0
        assert abs(np.trace(fixed).real - 1.0) < 1e-12
        assert any("clipping" in r.message for r in caplog.records)

    def test_large_violation_raises(self):
        bad = np.diag([0.6, 0.3, 0.1 + 5e-8, -5e-8]).astype(complex)
        with pytest.raises(PositivityBreakdown):
            _ensure_physical(bad)


class TestRelativeEntropy:
    def test_identical_states_give_zero(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert abs(relative_entropy(rho, rho)) <= 1e-12

    def test_pure_versus_maximally_mixed_is_log_dim(self):
        pure = DensityMatrix.pure([0.0, 1.0, 0.0, 0.0])
        mixed = DensityMatrix.maximally_mixed(4)
        assert relative_entropy(pure, mixed) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_support_violation(self):
        pure = DensityMatrix.pure([0.0, 1.0, 0.0, 0.0])
        mixed = DensityMatrix.maximally_mixed(4)
        with pytest.raises(SupportViolation):
            relative_entropy(mixed, pure)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T).real)
            sigma = DensityMatrix((b @ b.conj().T) / np.trace(b @ b.conj().T).real)
            assert relative_entropy(rho, sigma) >= -1e-12


class TestCeilingScan:
    def test_maximally_mixed_start_stays_below(self, nmr_model):
        scan = ceiling_scan(
            nmr_model, DensityMatrix.maximally_mixed(4), np.linspace(0.0, 8.0, 81)
        )
        assert scan.below_ceiling
        assert scan.max_transient <= scan.gibbs_value + 1e-10
        # thermal value is a tiny positive number for this model
        assert 0.0 < scan.gibbs_value < 1e-8

    def test_thermal_start_sits_exactly_at_ceiling(self, nmr_model):
        scan = ceiling_scan(nmr_model, nmr_model.gibbs(), np.linspace(0.0, 4.0, 17))
        assert abs(scan.max_transient - scan.gibbs_value) < 1e-12
        assert scan.below_ceiling

    def test_correlated_start_is_rejected(self, nmr_model):
        hot = DensityMatrix.pure([1.0, 0.0, 0.0, 0.0])  # pair correlation 1/4
        assert pair_correlation(hot) > 0.1
        with pytest.raises(CeilingPrecondition):
            ceiling_scan(nmr_model, hot, np.linspace(0.0, 1.0, 17))


class TestPairCorrelationRecord:
    def test_trajectory_uses_the_pair_correlation_function(self, nmr_model):
        traj = evolve_master(
            nmr_model, DensityMatrix.pure([0.6, 0.0, 0.0, 0.8]), np.linspace(0.0, 2.0, 9)
        )
        for value, state in zip(traj.pair_correlations, traj.states):
            assert value == pair_correlation(state)


@pytest.mark.parametrize("value", [math.nan, math.inf])
class TestNonFiniteInputs:
    def test_density_matrix_rejects_non_finite_entries(self, value):
        entries = np.eye(2, dtype=complex) / 2.0
        entries[0, 1] = entries[1, 0] = value
        with pytest.raises(NonFiniteValue):
            DensityMatrix(entries)

    def test_gibbs_state_rejects_non_finite_beta(self, value):
        with pytest.raises(NonFiniteValue):
            gibbs_state(zeeman_hamiltonian(TWO_PI * 400e6), value)

    def test_lindblad_model_rejects_non_finite_rate(self, ops, value):
        h = zeeman_hamiltonian(TWO_PI * 100.0)
        term = JumpTerm(ops["I1-"], bohr_frequency=TWO_PI * 100.0, rate=value, channel="c")
        with pytest.raises(NonFiniteValue):
            LindbladModel(h_system=h, jump_terms=(term,), beta=BETA_310)


@pytest.mark.parametrize(
    "bad", [{"temperature": math.nan}, {"base_rate": math.nan}, {"base_rate": math.inf}]
)
def test_default_model_rejects_non_finite_inputs(bad):
    # An infinite temperature is the beta = 0 limit, so inf goes through the rate.
    args = {"omega0": TWO_PI * 400e6, "omega_d": TWO_PI * 10e3, "temperature": 310.0}
    with pytest.raises(NonFiniteValue):
        default_thermal_model(**{**args, **bad})
