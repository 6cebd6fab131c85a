"""Scalar ceilings, spectral profile, and witness verdict algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqwitness.bounds import (
    PhysicalParams,
    ValidityRegimeWarning,
    dipolar_energy,
    epsilon_th,
    eta_seq,
    f_class_max,
    fractional_amplitude,
    normalized_spectral_density,
    witness,
)
from dqwitness.constants import HBAR, K_BOLTZMANN
from dqwitness.errors import NegativeAmplitude, NonFiniteValue

DEFAULTS = PhysicalParams.tissue_defaults()

scale = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def test_default_parameters_resolve_to_si_values():
    assert DEFAULTS.omega_d == pytest.approx(2 * math.pi * 10e3)
    assert DEFAULTS.omega_d_static == pytest.approx(2 * math.pi * 5.0)
    assert DEFAULTS.temperature == 310.0
    assert DEFAULTS.mixing_time == 5e-3
    assert DEFAULTS.tau_c == 1e-9
    assert DEFAULTS.omega_0 == pytest.approx(2 * math.pi * 400e6)


class TestBathCeiling:
    def test_reference_value(self):
        value = epsilon_th(DEFAULTS)
        assert value == pytest.approx(1.5e-9, rel=0.05)
        exact = HBAR * 2 * math.pi * 10e3 / (K_BOLTZMANN * 310.0)
        assert value == pytest.approx(exact, rel=1e-14)

    def test_interaction_energy(self):
        assert dipolar_energy(DEFAULTS) == pytest.approx(6.6e-30, rel=0.01)

    def test_inverse_linear_in_temperature(self):
        hot = PhysicalParams.from_hz(10e3, 5.0, 3100.0, 5e-3, 1e-9, 400e6)
        assert epsilon_th(hot) * 10.0 == pytest.approx(epsilon_th(DEFAULTS), rel=1e-12)

    @given(factor=scale)
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_coupling(self, factor):
        bumped = PhysicalParams.from_hz(10e3 * factor * 1.5, 5.0, 310.0, 5e-3, 1e-9, 400e6)
        base = PhysicalParams.from_hz(10e3 * factor, 5.0, 310.0, 5e-3, 1e-9, 400e6)
        assert epsilon_th(bumped) > epsilon_th(base)

    @given(factor=scale)
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_temperature(self, factor):
        base = PhysicalParams.from_hz(10e3, 5.0, 310.0 * factor, 5e-3, 1e-9, 400e6)
        hot = PhysicalParams.from_hz(10e3, 5.0, 310.0 * factor * 2, 5e-3, 1e-9, 400e6)
        assert epsilon_th(hot) < epsilon_th(base)


class TestSequenceTransfer:
    def test_reference_value(self):
        value = eta_seq(DEFAULTS)
        assert value == pytest.approx(2.5e-2, rel=0.02)
        assert value == pytest.approx((2 * math.pi * 5.0 * 5e-3) ** 2, rel=1e-14)

    def test_no_static_coupling_means_no_transfer(self):
        params = PhysicalParams.from_hz(10e3, 0.0, 310.0, 5e-3, 1e-9, 400e6)
        assert eta_seq(params) == 0.0

    def test_leaving_validity_regime_warns(self):
        params = PhysicalParams.from_hz(10e3, 50.0, 310.0, 5e-3, 1e-9, 400e6)
        with pytest.warns(ValidityRegimeWarning):
            value = eta_seq(params)
        assert value == pytest.approx(2.467, abs=2e-3)

    @given(factor=scale, bump=st.floats(min_value=1.1, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_coupling_and_mixing_time(self, factor, bump):
        import warnings

        base = PhysicalParams.from_hz(10e3, 5.0 * factor, 310.0, 5e-3, 1e-9, 400e6)
        stronger = PhysicalParams.from_hz(10e3, 5.0 * factor * bump, 310.0, 5e-3, 1e-9, 400e6)
        longer = PhysicalParams.from_hz(10e3, 5.0 * factor, 310.0, 5e-3 * bump, 1e-9, 400e6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityRegimeWarning)
            assert eta_seq(stronger) > eta_seq(base)
            assert eta_seq(longer) > eta_seq(base)


class TestSpectralDensity:
    def test_normalized_peak(self):
        assert normalized_spectral_density(1.0) == 1.0
        assert normalized_spectral_density(0.0) == 0.0
        assert normalized_spectral_density(3.0) == pytest.approx(0.6, abs=1e-15)

    def test_peak_is_global_maximum(self):
        x = np.linspace(0.0, 50.0, 20001)
        y = normalized_spectral_density(x)
        assert y.max() == 1.0
        assert x[y.argmax()] == 1.0

    @given(x=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_reciprocal_symmetry(self, x):
        left = normalized_spectral_density(x)
        right = normalized_spectral_density(1.0 / x)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-15)


class TestClassicalBound:
    def test_defaults_are_dominated_by_sequence_transfer(self):
        bound = f_class_max(DEFAULTS)
        assert bound.value == pytest.approx(2.467e-2, abs=2e-5)
        assert bound.value == epsilon_th(DEFAULTS) + eta_seq(DEFAULTS)
        assert bound.certifiable

    def test_limit_of_vanishing_mechanisms(self):
        params = PhysicalParams.from_hz(10e3, 0.0, 1e9, 5e-3, 1e-9, 400e6)
        assert f_class_max(params).value < 1e-12

    def test_unstable_gate_keeps_value_but_not_certification(self):
        stable = f_class_max(DEFAULTS, "stable")
        unstable = f_class_max(DEFAULTS, "unstable")
        assert unstable.value == stable.value
        assert not unstable.certifiable
        assert not f_class_max(DEFAULTS, "not_evaluated").certifiable


class TestWitness:
    def test_headline_amplitude(self):
        report = witness(0.15, DEFAULTS, "stable")
        assert report.w_th == pytest.approx(0.1253, abs=1e-4)
        assert report.verdict == "classically_inexplicable"
        assert report.f_class_max == report.epsilon_th + report.eta_seq
        assert report.w_th == report.f_dq_measured - report.f_class_max

    def test_boundary_amplitude_is_not_excluded(self):
        boundary = f_class_max(DEFAULTS).value
        report = witness(boundary, DEFAULTS, "stable")
        assert report.w_th == 0.0
        assert report.verdict == "not_excluded"

    def test_unstable_gate_opens_loophole(self):
        report = witness(0.15, DEFAULTS, "unstable")
        assert report.verdict == "loophole_open"
        assert report.w_th == witness(0.15, DEFAULTS, "stable").w_th

    def test_small_amplitude_is_not_excluded(self):
        assert witness(0.01, DEFAULTS, "stable").verdict == "not_excluded"

    def test_negative_amplitude_rejected(self):
        with pytest.raises(NegativeAmplitude):
            witness(-0.01, DEFAULTS, "stable")

    def test_unknown_gate_status_rejected(self):
        with pytest.raises(ValueError):
            witness(0.1, DEFAULTS, "wobbly")

    @given(
        f_dq=st.floats(min_value=0.0, max_value=10.0),
        gate=st.sampled_from(["stable", "unstable", "not_evaluated"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_report_algebra_and_verdict_exclusivity(self, f_dq, gate):
        report = witness(f_dq, DEFAULTS, gate)
        recomposed = report.w_th + report.f_class_max
        assert abs(recomposed - f_dq) <= 4e-16 * max(1.0, f_dq)
        if report.w_th > 0:
            expected = "classically_inexplicable" if gate == "stable" else "loophole_open"
        else:
            expected = "not_excluded"
        assert report.verdict == expected


class TestAmplitudeCalibration:
    def test_ratio(self):
        assert fractional_amplitude(0.3, 2.0) == pytest.approx(0.15)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fractional_amplitude(0.3, 0.0)
        with pytest.raises(NegativeAmplitude):
            fractional_amplitude(-0.3, 2.0)


class TestParameterValidation:
    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            PhysicalParams.from_hz(0.0, 5.0, 310.0, 5e-3, 1e-9, 400e6)
        with pytest.raises(ValueError):
            PhysicalParams.from_hz(10e3, -5.0, 310.0, 5e-3, 1e-9, 400e6)
        with pytest.raises(ValueError):
            PhysicalParams.from_hz(10e3, 5.0, 310.0, 5e-3, 1e-9, -400e6)


class TestNonFiniteInputs:
    FIELDS = ("omega_d", "omega_d_static", "temperature", "mixing_time", "tau_c", "omega_0")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_params_name_the_field(self, field, value):
        values = {name: getattr(DEFAULTS, name) for name in self.FIELDS}
        values[field] = value
        with pytest.raises(NonFiniteValue, match=field):
            PhysicalParams(**values)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("position", [0, 1])
    def test_fractional_amplitude_rejects_non_finite_input(self, value, position):
        args = [0.1, 1.0]
        args[position] = value
        with pytest.raises(NonFiniteValue):
            fractional_amplitude(*args)

    @pytest.mark.parametrize("temperature", [1e-320, 5e-324])
    def test_epsilon_th_names_an_underflowing_temperature(self, temperature):
        # k_B * T rounds to 0 here, so the ratio would divide by zero.
        params = PhysicalParams.from_hz(10e3, 5.0, temperature, 5e-3, 1e-9, 400e6)
        with pytest.raises(NonFiniteValue, match="temperature"):
            epsilon_th(params)

    def test_eta_seq_names_both_inputs_on_overflow(self):
        params = PhysicalParams.from_hz(10e3, 1e150, 310.0, 1e10, 1e-9, 400e6)
        with pytest.raises(NonFiniteValue, match="omega_d_static.*mixing_time"):
            eta_seq(params)

    @pytest.mark.filterwarnings("ignore::dqwitness.bounds.ValidityRegimeWarning")
    def test_overflowing_sum_names_all_three_quantities(self):
        # epsilon_th ~ 9.6e307 and eta_seq ~ 1.6e308 are finite; their sum is not
        params = PhysicalParams.from_hz(1e20, 2e153, 5e-299, 1.0, 1e-9, 400e6)
        match = "f_class_max = epsilon_th \\+ eta_seq"
        with pytest.raises(NonFiniteValue, match=match):
            f_class_max(params)
        with pytest.raises(NonFiniteValue, match=match):
            witness(0.1, params, "stable")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_witness_rejects_non_finite_amplitude(self, value):
        with pytest.raises(NonFiniteValue):
            witness(value, DEFAULTS, "stable")
