"""Closed-system propagation: bounded exchange vs hyperbolic ladder growth."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.linalg import expm

from dqwitness import dynamics
from dqwitness.algebra import OperatorMatrix, build_two_spin_operators, commutator
from dqwitness.dynamics import (
    StateVector,
    Trajectory,
    build_su11_rep,
    classify_growth,
    fit_log_slope,
    hyperbolic_signal,
    propagate,
    vacuum_state,
)
from dqwitness.errors import (
    AmbiguousGrowth,
    DimensionMismatch,
    InsufficientSamples,
    InvalidBargmannIndex,
    NonFiniteValue,
    NonHermitianGenerator,
    TruncationExceeded,
    TruncationTooSmall,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def ops():
    return build_two_spin_operators()


class TestPropagate:
    def test_matches_matrix_exponential_oracle(self, ops):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (raw + raw.conj().T) / 2.0
        amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 = StateVector(amp / np.linalg.norm(amp))
        times = np.linspace(0.0, 3.0, 17)
        observables = [ops["S0"], ops["K0"], ops["I1z"]]
        traj = propagate(h, psi0, times, observables)
        for it, t in enumerate(times):
            psi_ref = expm(-1j * h * t) @ psi0.amplitudes
            for obs in observables:
                ref = np.vdot(psi_ref, obs.entries @ psi_ref).real
                assert traj.expectations[obs.label][it] == pytest.approx(ref, abs=1e-10)

    def test_flip_flop_exchange_is_cosine(self, ops):
        j = TWO_PI * 10.0
        h = j * (ops["S+"].entries + ops["S-"].entries)
        period = np.pi / j
        times = np.linspace(0.0, 10 * period, 1001)
        traj = propagate(h, StateVector.basis_state(4, 1), times, [ops["S0"]])
        s0 = traj.expectations["S0"]
        np.testing.assert_allclose(s0, 0.5 * np.cos(2 * j * times), atol=1e-10)
        assert np.abs(s0).max() <= 0.5 + 1e-10

    def test_single_time_returns_initial_values(self, ops):
        traj = propagate(
            ops["K0"].entries, StateVector.basis_state(4, 0), [0.0], [ops["K0"]]
        )
        assert traj.expectations["K0"][0] == pytest.approx(0.5, abs=1e-14)

    def test_pair_drive_stays_bounded_in_finite_representation(self, ops):
        # the 4x4 pair sector cannot grow: it oscillates within +/- 1/2
        h = ops["K+"].entries + ops["K-"].entries
        times = np.linspace(0.0, 20.0, 401)
        traj = propagate(h, StateVector.basis_state(4, 3), times, [ops["K0"]])
        k0 = traj.expectations["K0"]
        assert np.abs(k0).max() <= 0.5 + 1e-10
        assert classify_growth(traj) == "bounded_oscillatory"

    def test_energy_and_norm_conservation(self, ops):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (raw + raw.conj().T) / 2.0
        traj = propagate(
            OperatorMatrix(h, label="H"),
            StateVector.basis_state(4, 2),
            np.linspace(0, 50.0, 64),
            [OperatorMatrix(h, label="H")],
        )
        energies = traj.expectations["H"]
        assert np.abs(energies - energies[0]).max() < 1e-10

    def test_non_hermitian_generator_rejected(self, ops):
        with pytest.raises(NonHermitianGenerator):
            propagate(ops["K+"], StateVector.basis_state(4, 0), [0.0, 1.0], [ops["K0"]])

    def test_dimension_mismatch_rejected(self, ops):
        small = OperatorMatrix(np.eye(3), label="eye3")
        with pytest.raises(DimensionMismatch):
            propagate(ops["K0"], StateVector.basis_state(4, 0), [0.0], [small])
        with pytest.raises(DimensionMismatch):
            propagate(ops["K0"], StateVector.basis_state(3, 0), [0.0], [ops["K0"]])


class TestLadderRepresentation:
    def test_weight_diagonal(self):
        rep = build_su11_rep(0.5, 4)
        np.testing.assert_allclose(
            np.diag(rep.k_zero.entries).real, [0.5, 1.5, 2.5, 3.5, 4.5], atol=1e-15
        )

    def test_ladder_matrix_element(self):
        rep = build_su11_rep(0.25, 8)
        assert rep.k_plus.entries[1, 0].real == pytest.approx(np.sqrt(0.5), abs=1e-12)
        np.testing.assert_allclose(
            rep.k_minus.entries, rep.k_plus.entries.conj().T, atol=1e-15
        )

    def test_bracket_exact_on_interior_block(self):
        rep = build_su11_rep(0.5, 64)
        delta = commutator(rep.k_minus, rep.k_plus) - 2.0 * rep.k_zero.entries
        assert np.abs(delta[:64, :64]).max() < 1e-12
        # the defect is confined to the top level
        assert abs(delta[64, 64]) > 1.0

    def test_invalid_index_rejected(self):
        with pytest.raises(InvalidBargmannIndex):
            build_su11_rep(0.0, 8)
        with pytest.raises(InvalidBargmannIndex):
            build_su11_rep(-1.0, 8)

    def test_truncation_too_small_rejected(self):
        with pytest.raises(TruncationTooSmall):
            build_su11_rep(0.5, 1)


class TestHyperbolicSignal:
    def test_matches_closed_form(self):
        k, g = 0.5, 1.0
        times = np.linspace(0.0, 2.0, 41)
        traj = hyperbolic_signal(build_su11_rep(k, 64), g, times)
        closed = 2.0 * k * np.sinh(g * times) ** 2
        signal = traj.expectations["pair_signal"]
        assert abs(signal[0]) < 1e-12
        assert signal[20] == pytest.approx(2 * k * np.sinh(1.0) ** 2, rel=1e-9)
        assert signal[20] == pytest.approx(1.3811, abs=1e-4)
        # truncation-dominated error budget
        budget = 10.0 * (traj.truncation_tail + 1e-10)
        assert np.abs(signal - closed).max() < budget

    def test_superlinear_growth_ratio(self):
        times = np.array([0.0, 1.0, 2.0])
        traj = hyperbolic_signal(build_su11_rep(0.5, 64), 1.0, times)
        s = traj.expectations["pair_signal"]
        ratio = s[2] / s[1]
        assert ratio == pytest.approx(np.sinh(2.0) ** 2 / np.sinh(1.0) ** 2, rel=1e-9)
        assert ratio == pytest.approx(9.524, abs=1e-3)

    def test_tail_is_reported_and_small(self):
        traj = hyperbolic_signal(build_su11_rep(0.5, 64), 1.0, np.linspace(0, 2, 21))
        assert traj.representation_tag == "su11_truncated"
        assert 0.0 <= traj.truncation_tail < 1e-8
        assert traj.n_levels >= 65

    def test_doubling_changes_nothing_on_valid_window(self):
        times = np.linspace(0.0, 2.0, 21)
        a = hyperbolic_signal(build_su11_rep(0.5, 512), 1.0, times)
        b = hyperbolic_signal(build_su11_rep(0.5, 1024), 1.0, times)
        delta = np.abs(a.expectations["pair_signal"] - b.expectations["pair_signal"])
        assert delta.max() < 1e-8

    def test_truncation_limit_enforced(self, eigensolves):
        # at g t = 3.5 the closed-form tail asks for more than 4096 levels
        with pytest.raises(TruncationExceeded, match="4096"):
            hyperbolic_signal(build_su11_rep(0.5, 64), 1.0, np.linspace(0, 3.5, 16))
        assert eigensolves == []

    def test_measured_tail_breach_raises_after_one_solve(self, eigensolves, monkeypatch):
        # a margin far below 1 sizes the ladder too small for the measured check
        monkeypatch.setattr(dynamics, "TAIL_MARGIN", 1e-4)
        with pytest.raises(TruncationExceeded, match="measured top-level tail"):
            hyperbolic_signal(build_su11_rep(0.5, 4), 1.0, np.linspace(0, 2, 21))
        assert eigensolves == ["eigh"]

    @pytest.mark.parametrize("g, times", [(0.0, [0.0, 1.0, 2.0]), (1.0, [0.0]), (0.0, [0.0])])
    def test_no_evolution_stays_in_the_vacuum(self, eigensolves, g, times):
        traj = hyperbolic_signal(build_su11_rep(0.5, 4), g, times)
        assert np.abs(traj.expectations["pair_signal"]).max() < 1e-25
        assert traj.truncation_tail < 1e-25
        assert traj.n_levels == 5
        assert eigensolves == ["eigh"]

    @given(
        k=st.floats(0.05, 5.0),
        gt=st.floats(0.0, 2.0),
        g=st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
        samples=st.integers(1, 201),
    )
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_one_sized_solve_meets_tail_and_closed_form(self, eigensolves, k, gt, g, samples):
        eigensolves.clear()
        times = np.unique(np.linspace(0.0, gt / abs(g), samples))  # tiny gt collapses the grid
        traj = hyperbolic_signal(build_su11_rep(k, 2), g, times)
        assert eigensolves == ["eigh"]
        tail = traj.truncation_tail
        assert tail < dynamics.DEFAULT_TAIL_BOUND
        assert tail * traj.n_levels < dynamics.DEFAULT_TAIL_BOUND
        closed = 2.0 * k * np.sinh(g * times) ** 2
        # squared rounding of the amplitudes leaves an absolute floor near 1e-29
        np.testing.assert_allclose(traj.expectations["pair_signal"], closed, rtol=1e-6, atol=1e-25)


class TestGrowthClassification:
    def test_bounded_cosine(self, ops):
        j = TWO_PI * 5.0
        h = j * (ops["S+"].entries + ops["S-"].entries)
        times = np.linspace(0.0, 10 * np.pi / j, 257)
        traj = propagate(h, StateVector.basis_state(4, 1), times, [ops["S0"]])
        assert classify_growth(traj) == "bounded_oscillatory"

    def test_hyperbolic_closed_form_with_slope(self):
        # log-fit oracle on 2k sinh^2(gt) ~ (k/2) exp(2gt) at large gt
        k, g = 0.5, 1.0
        times = np.linspace(0.0, 3.0, 64)
        traj = Trajectory(
            times=times,
            expectations={"pair_signal": 2 * k * np.sinh(g * times) ** 2},
            representation_tag="su11_truncated",
        )
        assert classify_growth(traj) == "hyperbolic"
        slope, residual = fit_log_slope(traj)
        assert slope == pytest.approx(2.0 * g, rel=0.1)
        assert residual < 0.1

    def test_simulated_ladder_trajectory_is_hyperbolic(self):
        traj = hyperbolic_signal(build_su11_rep(0.5, 64), 1.0, np.linspace(0, 2, 48))
        assert classify_growth(traj) == "hyperbolic"

    def test_constant_zero_is_bounded(self):
        traj = Trajectory(
            times=np.linspace(0, 1, 32),
            expectations={"flat": np.zeros(32)},
            representation_tag="two_spin",
        )
        assert classify_growth(traj) == "bounded_oscillatory"

    def test_too_few_samples_rejected(self):
        traj = Trajectory(
            times=np.linspace(0, 1, 8),
            expectations={"s": np.ones(8)},
            representation_tag="two_spin",
        )
        with pytest.raises(InsufficientSamples):
            classify_growth(traj)

    def test_growing_but_not_exponential_is_ambiguous(self):
        times = np.linspace(0.0, 4.0, 128)
        values = (1.0 + 5.0 * times) * np.cos(40.0 * times)
        traj = Trajectory(
            times=times, expectations={"s": values}, representation_tag="two_spin"
        )
        with pytest.raises(AmbiguousGrowth):
            classify_growth(traj)


class TestStateAndTrajectoryInvariants:
    def test_state_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_vacuum_state(self):
        rep = build_su11_rep(0.5, 4)
        vac = vacuum_state(rep)
        assert vac.dim == 5
        assert vac.amplitudes[0] == 1.0

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.array([0.0, 0.0, 1.0]),
                expectations={"s": np.zeros(3)},
                representation_tag="two_spin",
            )

    def test_several_series_rejected(self):
        times = np.linspace(0, 1, 32)
        traj = Trajectory(
            times=times,
            expectations={"a": np.zeros(32), "b": np.ones(32)},
            representation_tag="two_spin",
        )
        with pytest.raises(ValueError, match="one series"):
            classify_growth(traj)


# Each bad grid and the error it raises, before any eigendecomposition.
BAD_GRIDS = [
    ([0.0, np.inf], NonFiniteValue),
    ([0.0, np.nan], NonFiniteValue),
    ([np.nan], NonFiniteValue),
    ([], ValueError),
    ([1.0, 0.5], ValueError),
    ([[0.0, 1.0]], ValueError),
]


@pytest.mark.parametrize("times, error", BAD_GRIDS)
class TestTimeGrid:
    def test_trajectory_rejects_bad_grid(self, times, error):
        with pytest.raises(error):
            Trajectory(times=times, expectations={}, representation_tag="two_spin")

    def test_propagate_rejects_bad_grid(self, ops, eigensolves, times, error):
        with pytest.raises(error):
            propagate(ops["S0"], StateVector.basis_state(4, 1), times, [ops["S0"]])
        assert eigensolves == []

    def test_hyperbolic_signal_rejects_bad_grid(self, eigensolves, times, error):
        rep = build_su11_rep(0.5, 64)
        with pytest.raises(error):
            hyperbolic_signal(rep, 1.0, times)
        assert eigensolves == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
class TestNonFiniteInputs:
    def test_trajectory_rejects_non_finite_series(self, value):
        with pytest.raises(NonFiniteValue, match="'s'"):
            Trajectory(
                times=np.linspace(0, 1, 32),
                expectations={"s": np.full(32, value)},
                representation_tag="two_spin",
            )

    def test_ladder_index_must_be_finite(self, value):
        with pytest.raises(NonFiniteValue):
            build_su11_rep(value, 8)

    def test_ladder_coupling_must_be_finite(self, eigensolves, value):
        rep = build_su11_rep(0.5, 64)
        with pytest.raises(NonFiniteValue):
            hyperbolic_signal(rep, value, np.linspace(0, 2, 21))
        assert eigensolves == []

    def test_state_vector_rejects_non_finite_amplitude(self, value):
        with pytest.raises(NonFiniteValue):
            StateVector(np.array([value, 0.0]))

    def test_propagate_rejects_non_finite_generator(self, ops, value):
        h = ops["S+"].entries + ops["S-"].entries
        h[1, 2] = h[2, 1] = value
        with pytest.raises(NonFiniteValue):
            propagate(h, StateVector.basis_state(4, 1), [0.0, 1.0], [ops["S0"]])
