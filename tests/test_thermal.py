"""Detailed-balance bath models: fixed point, contractivity, ceiling."""

import logging
import math
from functools import partial

import numpy as np
import pytest

from dqwitness.algebra import OperatorMatrix, build_two_spin_operators
from dqwitness.constants import HBAR, K_BOLTZMANN
from dqwitness.errors import (
    CeilingPrecondition,
    DegenerateGrouping,
    DimensionMismatch,
    IllConditionedStart,
    NonFiniteValue,
    NonHermitianGenerator,
    PositivityBreakdown,
    SupportViolation,
)
from dqwitness.thermal import (
    CLIP_LIMIT,
    DensityMatrix,
    JumpTerm,
    LindbladModel,
    _ensure_physical,
    apply_liouvillian,
    build_davies_model,
    ceiling_scan,
    default_thermal_model,
    evolve_master,
    expm,
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
def mixed():
    """Maximally mixed two-spin state, built before any eigensolver is counted."""
    return DensityMatrix.maximally_mixed(4)


@pytest.fixture(scope="module")
def khz_model():
    """Same structure at kHz scale, where absolute residuals are meaningful."""
    return default_thermal_model(TWO_PI * 1e3, TWO_PI * 10e3, 310.0)


class TestGibbsState:
    def test_infinite_temperature_is_maximally_mixed(self, ops):
        rho = LindbladModel(zeeman_hamiltonian(TWO_PI * 400e6), (), 0.0).gibbs()
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4.0, atol=1e-14)

    def test_zeeman_population_ratio(self):
        omega0 = TWO_PI * 400e6
        rho = LindbladModel(zeeman_hamiltonian(omega0), (), BETA_310).gibbs()
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
        rho = LindbladModel(h, (), beta).gibbs()
        ground = evecs[:, 0]
        fidelity = float(np.vdot(ground, rho.entries @ ground).real)
        assert fidelity > 1.0 - 1e-10

    def test_commutes_with_generator(self):
        h = zeeman_hamiltonian(TWO_PI * 400e6)
        rho = LindbladModel(h, (), BETA_310).gibbs()
        residual = np.linalg.norm(h.entries @ rho.entries - rho.entries @ h.entries)
        assert residual / np.linalg.norm(h.entries) < 1e-10

    def test_non_hermitian_rejected(self, ops):
        with pytest.raises(NonHermitianGenerator):
            LindbladModel(ops["K+"], (), BETA_310).gibbs()


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
        worst = max(np.linalg.norm(s - rho_th.entries) for s in traj.states)
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
            assert abs(np.trace(state).real - 1.0) < 1e-10

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
            fixed, clip = _ensure_physical(bad)
        assert clip == pytest.approx(5e-11, rel=1e-6)
        assert np.linalg.eigvalsh(fixed).min() >= 0.0
        assert abs(np.trace(fixed).real - 1.0) < 1e-12
        assert any("clipping" in r.message for r in caplog.records)

    def test_stack_reports_the_clip_of_each_matrix(self, caplog):
        good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        bad = np.diag([0.5, 0.3, 0.2 + 5e-11, -5e-11]).astype(complex)
        with caplog.at_level(logging.DEBUG, logger="dqwitness.thermal"):
            fixed, clips = _ensure_physical(np.array([good, bad, good]))
        np.testing.assert_allclose(clips, [0.0, 5e-11, 0.0], rtol=1e-6)
        np.testing.assert_array_equal(fixed[[0, 2]], [good, good])
        assert np.linalg.eigvalsh(fixed[1]).min() >= 0.0
        assert any("1 of 3" in r.getMessage() for r in caplog.records)

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

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, nmr_model, mixed, eigensolves, tolerance):
        # An infinite tolerance would pass any trajectory.
        with pytest.raises(NonFiniteValue, match="tolerance"):
            ceiling_scan(nmr_model, mixed, [0.0, 1.0], tolerance)
        assert eigensolves == []

    def test_negative_tolerance_rejected(self, nmr_model, mixed, eigensolves):
        with pytest.raises(ValueError, match="tolerance"):
            ceiling_scan(nmr_model, mixed, [0.0, 1.0], -1.0)
        assert eigensolves == []

    def test_zero_tolerance_accepted(self, nmr_model):
        scan = ceiling_scan(nmr_model, nmr_model.gibbs(), np.linspace(0.0, 1.0, 5), 0.0)
        assert scan.max_transient <= scan.gibbs_value + 1e-12

    def test_empty_grid_rejected(self, nmr_model, mixed):
        with pytest.raises(ValueError, match="time grid"):
            ceiling_scan(nmr_model, mixed, [])


@pytest.mark.parametrize(
    "times, error",
    [
        ([0.0, math.inf], NonFiniteValue),
        ([math.nan], NonFiniteValue),
        ([], ValueError),
        ([1.0, 0.5], ValueError),
        ([[0.0, 1.0]], ValueError),
    ],
)
def test_evolve_master_rejects_bad_grid(nmr_model, mixed, eigensolves, times, error):
    with pytest.raises(error):
        evolve_master(nmr_model, mixed, times)
    assert eigensolves == []


def _expm_reference(model, rho0, times):
    """Each sample from its own scipy exponential of the dissipator, then the exact phase."""
    w, v = model._evals, model._evecs
    x0 = (v.conj().T @ rho0.entries @ v).reshape(-1)
    bohr = np.subtract.outer(w, w).reshape(-1)
    states = []
    for tau in times - times[0]:
        x = (expm(model._d_super * tau) @ x0) * np.exp(-1j * bohr * tau)
        states.append(v @ x.reshape(model.dim, model.dim) @ v.conj().T)
    return np.array(states)


def _random_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


PROPAGATOR_MODELS = {
    "criterion5": (TWO_PI * 1e3, TWO_PI * 10e3, 310.0),
    "criterion6": (TWO_PI * 400e6, TWO_PI * 10e3, 310.0),
    "degenerate": (TWO_PI * 5e3, TWO_PI * 10e3, 310.0),  # omega0 = omega_d/2: two levels at 0
}


def _per_channel_superop(model):
    """Textbook row-major dissipator: one Kronecker sum per eigenbasis channel."""
    v, dim = model._evecs, model.dim
    eye = np.eye(dim)
    d = np.zeros((dim * dim, dim * dim), dtype=complex)
    for term in model.jump_terms:
        a = v.conj().T @ term.operator.entries @ v
        ada = a.conj().T @ a
        d += term.rate * (np.kron(a, a.conj()) - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T)))
    return d


def _zeeman_bath(coupling):
    return build_davies_model(zeeman_hamiltonian(TWO_PI * 1e3), [(coupling, 1.0)], BETA_310)


_OPS = build_two_spin_operators()
SUPEROP_MODELS = {
    **{name: partial(default_thermal_model, *args) for name, args in PROPAGATOR_MODELS.items()},
    "dephasing": partial(_zeeman_bath, _OPS["I1z"]),
    # I1x + I2y gives a complex sum of A^dag A, so the transpose in I (x) M^T matters
    "mixed_phase": partial(_zeeman_bath, _OPS["I1x"].entries + _OPS["I2y"].entries),
    "no_channels": partial(LindbladModel, zeeman_hamiltonian(TWO_PI * 1e3), (), BETA_310),
}


@pytest.mark.parametrize("build", SUPEROP_MODELS.values(), ids=SUPEROP_MODELS)
def test_superoperator_matches_per_channel_sum(build):
    model = build()
    reference = _per_channel_superop(model)
    deviation = np.linalg.norm(model._d_super - reference)
    assert deviation <= 1e-14 * np.linalg.norm(reference)


class TestKmsPropagator:
    @pytest.mark.parametrize("model_args", PROPAGATOR_MODELS.values(), ids=PROPAGATOR_MODELS)
    @pytest.mark.parametrize("grid", ["linspace", "sorted_random"])
    def test_matches_per_sample_expm(self, model_args, grid):
        model = default_thermal_model(*model_args)
        rng = np.random.default_rng(11)
        if grid == "linspace":
            times = np.linspace(0.5, 8.0, 41)
        else:
            times = np.sort(rng.uniform(0.5, 8.0, 41))
        rho0 = _random_state(rng)
        traj = evolve_master(model, rho0, times)
        np.testing.assert_allclose(
            traj.states, _expm_reference(model, rho0, times), rtol=0.0, atol=1e-12
        )

    def test_states_are_one_read_only_stack(self, nmr_model):
        traj = evolve_master(nmr_model, _random_state(np.random.default_rng(5)), [0.0, 1.0, 2.0])
        assert traj.states.shape == (3, 4, 4) and traj.states.dtype == complex
        assert not traj.states.flags.writeable
        assert traj.clipped_samples >= 0 and 0.0 <= traj.max_clip <= CLIP_LIMIT
        assert (traj.clipped_samples == 0) == (traj.max_clip == 0.0)

    @pytest.mark.parametrize("temperature", [1e-3, 1e-4])
    @pytest.mark.parametrize("start", ["gibbs", "ground"])
    def test_low_temperature_starts_evolve(self, temperature, start):
        model = default_thermal_model(TWO_PI * 400e6, TWO_PI * 10e3, temperature)
        ground = model._evecs[:, np.argmin(model._evals)]
        rho0 = model.gibbs() if start == "gibbs" else DensityMatrix.pure(ground)
        times = np.linspace(0.0, 5.0, 26)
        traj = evolve_master(model, rho0, times)
        np.testing.assert_allclose(
            traj.states, _expm_reference(model, rho0, times), rtol=0.0, atol=1e-12
        )
        assert np.all(np.diff(traj.relative_entropies) <= 1e-9)
        assert traj.max_clip <= CLIP_LIMIT

    def test_weight_far_above_its_population_is_rejected(self):
        # 1e-15 on the top level passes the support floor, but its population
        # is ~1e-167 at 1e-4 K, so dividing by s would amplify rounding ~1e68-fold.
        model = default_thermal_model(TWO_PI * 400e6, TWO_PI * 10e3, 1e-4)
        order = np.argsort(model._evals)
        ground, top = model._evecs[:, order[0]], model._evecs[:, order[-1]]
        rho = (1.0 - 1e-15) * np.outer(ground, ground.conj()) + 1e-15 * np.outer(top, top.conj())
        with pytest.raises(IllConditionedStart, match="0.0001 K"):
            evolve_master(model, DensityMatrix(rho), [0.0, 1.0])

    def test_zero_population_is_rejected(self):
        model = default_thermal_model(TWO_PI * 400e6, TWO_PI * 10e3, 1e-5)
        with pytest.raises(IllConditionedStart, match="1e-05 K"):
            evolve_master(model, model.gibbs(), [0.0, 1.0])

    def test_support_check_runs_before_the_guard(self, mixed):
        model = default_thermal_model(TWO_PI * 400e6, TWO_PI * 10e3, 1e-4)
        with pytest.raises(SupportViolation, match="kernel of the reference state"):
            evolve_master(model, mixed, [0.0, 1.0])

    def test_model_without_detailed_balance_is_refused(self, ops, mixed):
        lower = JumpTerm(ops["I1-"], bohr_frequency=TWO_PI * 100.0, rate=1.0, channel="c")
        model = LindbladModel(zeeman_hamiltonian(TWO_PI * 100.0), (lower,), BETA_310)
        with pytest.raises(NonHermitianGenerator):
            evolve_master(model, mixed, [0.0, 1.0])


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
            LindbladModel(zeeman_hamiltonian(TWO_PI * 400e6), (), value).gibbs()

    def test_lindblad_model_rejects_non_finite_rate(self, ops, value):
        h = zeeman_hamiltonian(TWO_PI * 100.0)
        term = JumpTerm(ops["I1-"], bohr_frequency=TWO_PI * 100.0, rate=value, channel="c")
        with pytest.raises(NonFiniteValue):
            LindbladModel(h_system=h, jump_terms=(term,), beta=BETA_310)


DEFAULT_MODEL_ARGS = {"omega0": TWO_PI * 400e6, "omega_d": TWO_PI * 10e3, "temperature": 310.0}


@pytest.mark.parametrize(
    "bad",
    [
        {"temperature": math.nan},
        {"base_rate": math.nan},
        {"base_rate": math.inf},
        {"temperature": math.inf},
        {"temperature": -math.inf},
    ],
)
def test_default_model_rejects_non_finite_inputs(bad):
    with pytest.raises(NonFiniteValue):
        default_thermal_model(**{**DEFAULT_MODEL_ARGS, **bad})


def test_default_model_rejects_temperature_where_beta_overflows():
    with pytest.raises(NonFiniteValue, match="temperature 1e-320 K"):
        default_thermal_model(**{**DEFAULT_MODEL_ARGS, "temperature": 1e-320})


@pytest.mark.parametrize("temperature", [0.0, -0.0, -310.0])
def test_default_model_rejects_non_positive_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        default_thermal_model(**{**DEFAULT_MODEL_ARGS, "temperature": temperature})
