"""Operator catalog, measured structure constants, signatures, flow spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqwitness.algebra import (
    OperatorMatrix,
    _check_hermitian,
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
from dqwitness.errors import (
    LinearlyDependentBasis,
    NonFiniteValue,
    NotClosed,
    NotEigenoperator,
    NotHermitianTriple,
)


@pytest.fixture(scope="module")
def ops():
    return build_two_spin_operators()


class TestOperatorCatalog:
    def test_k0_diagonal(self, ops):
        np.testing.assert_allclose(
            np.diag(ops["K0"].entries), [0.5, 0.0, 0.0, -0.5], atol=1e-15
        )

    def test_kplus_connects_aligned_states(self, ops):
        expected = np.zeros((4, 4))
        expected[0, 3] = 1.0  # |dd> -> |uu> with coefficient 1
        np.testing.assert_allclose(ops["K+"].entries, expected, atol=1e-15)

    def test_flip_flop_bracket_identities(self, ops):
        # oracle: direct matrix multiplication
        np.testing.assert_allclose(
            commutator(ops["S-"], ops["S+"]), -2.0 * ops["S0"].entries, atol=1e-14
        )
        np.testing.assert_allclose(
            commutator(ops["S0"], ops["S+"]), ops["S+"].entries, atol=1e-14
        )

    def test_daggers_pair_up(self, ops):
        np.testing.assert_allclose(ops["K+"].entries.conj().T, ops["K-"].entries, atol=1e-15)
        np.testing.assert_allclose(ops["S+"].entries.conj().T, ops["S-"].entries, atol=1e-15)
        _check_hermitian(ops["K0"].entries, 1e-12)
        _check_hermitian(ops["S0"].entries, 1e-12)
        assert np.allclose(ops["K0"].entries, np.diag(np.diag(ops["K0"].entries)))

    def test_pair_product_expansion(self, ops):
        # K- K+ = (1/2 - I1z)(1/2 - I2z), hence [K-, K+] = -(I1z + I2z)
        eye = np.eye(4)
        lhs = ops["K-"].entries @ ops["K+"].entries
        rhs = (eye / 2 - ops["I1z"].entries) @ (eye / 2 - ops["I2z"].entries)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)
        np.testing.assert_allclose(
            commutator(ops["K-"], ops["K+"]),
            -(ops["I1z"].entries + ops["I2z"].entries),
            atol=1e-15,
        )


class TestCoherenceOrder:
    def test_pair_raising_carries_order_two(self, ops):
        assert coherence_order(ops["K+"]) == 2
        assert coherence_order(ops["K-"]) == -2

    def test_diagonal_operator_is_order_zero(self, ops):
        assert coherence_order(ops["K0"]) == 0

    def test_single_spin_raising(self, ops):
        assert coherence_order(ops["I1+"]) == 1

    def test_flip_flop_triple_is_order_zero(self, ops):
        assert [coherence_order(ops[n]) for n in ("S+", "S-", "S0")] == [0, 0, 0]

    def test_mixed_order_operator_rejected(self, ops):
        with pytest.raises(NotEigenoperator):
            coherence_order(ops["I1x"])


class TestMeasuredConstants:
    def test_flip_flop_triple_closes(self, ops):
        basis = measure_structure_constants([ops["S+"], ops["S-"], ops["S0"]])
        assert basis.closure_residual < 1e-12
        c = basis.structure_constants
        np.testing.assert_allclose(c[2, 0], [1, 0, 0], atol=1e-12)  # [S0, S+] = S+
        np.testing.assert_allclose(c[2, 1], [0, -1, 0], atol=1e-12)  # [S0, S-] = -S-
        np.testing.assert_allclose(c[1, 0], [0, 0, -2], atol=1e-12)  # [S-, S+] = -2 S0
        assert [coherence_order(ops[n]) for n in ("S+", "S-", "S0")] == [0, 0, 0]

    def test_pair_triple_measures_opposite_sign(self, ops):
        # the concrete 4x4 pair triple closes with [K-, K+] = -2 K0,
        # the sign opposite to the abstract boost-algebra bracket
        basis = measure_structure_constants([ops["K+"], ops["K-"], ops["K0"]])
        assert basis.closure_residual < 1e-12
        np.testing.assert_allclose(basis.structure_constants[1, 0], [0, 0, -2], atol=1e-12)
        np.testing.assert_allclose(basis.structure_constants[2, 0], [1, 0, 0], atol=1e-12)
        assert [coherence_order(ops[n]) for n in ("K+", "K-", "K0")] == [2, -2, 0]

    def test_single_diagonal_element_is_abelian(self, ops):
        basis = measure_structure_constants([ops["K0"]])
        assert basis.closure_residual == 0.0
        np.testing.assert_allclose(basis.structure_constants, 0.0)

    def test_linearly_dependent_elements_rejected(self, ops):
        doubled = OperatorMatrix(2.0 * ops["S+"].entries, label="2S+")
        with pytest.raises(LinearlyDependentBasis):
            measure_structure_constants([ops["S+"], doubled, ops["S0"]])

    def test_antisymmetry_of_measured_constants(self, ops):
        for names in (["S+", "S-", "S0"], ["K+", "K-", "K0"], ["I1z", "I2z"]):
            basis = measure_structure_constants([ops[n] for n in names])
            c = basis.structure_constants
            assert np.abs(c + np.swapaxes(c, 0, 1)).max() < 1e-10

    def test_jacobi_identity_on_closed_bases(self, ops):
        triples = [
            [ops["S+"], ops["S-"], ops["S0"]],
            [ops["K+"], ops["K-"], ops["K0"]],
            list(hermitian_triple(ops["S+"], ops["S-"], ops["S0"])),
        ]
        for elements in triples:
            c = measure_structure_constants(elements).structure_constants
            jac = (
                np.einsum("ijm,mkl->ijkl", c, c)
                + np.einsum("jkm,mil->ijkl", c, c)
                + np.einsum("kim,mjl->ijkl", c, c)
            )
            assert np.abs(jac).max() < 1e-9


class TestAbstractBases:
    def test_kappa_signs(self):
        assert triple_kappa(abstract_basis("su2")) == 1.0
        assert triple_kappa(abstract_basis("su11")) == -1.0

    def test_shared_rotation_brackets(self):
        # [X0, X1] = i X2 in both kinds; oracle from expanding the ladder
        # combinations X1 = (A+ + A-)/2, X2 = (A+ - A-)/(2i)
        for kind in ("su2", "su11"):
            c = abstract_basis(kind).structure_constants
            np.testing.assert_allclose(c[2, 0], [0, 1j, 0], atol=1e-15)
            np.testing.assert_allclose(c[2, 1], [-1j, 0, 0], atol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            abstract_basis("so3")


class TestKillingClassification:
    def test_rotation_algebra_is_compact(self):
        result = killing_classify(abstract_basis("su2"))
        np.testing.assert_allclose(result.metric, np.diag([-2.0, -2.0, -2.0]), atol=1e-12)
        assert result.label == "compact"
        assert result.signature == (0, 3, 0)

    def test_boost_algebra_is_noncompact(self):
        result = killing_classify(abstract_basis("su11"))
        eigs = np.sort(np.linalg.eigvalsh(result.metric))
        np.testing.assert_allclose(eigs, [-2.0, 2.0, 2.0], atol=1e-12)
        assert result.label == "noncompact"
        assert result.signature == (2, 1, 0)

    def test_abelian_basis_is_degenerate(self, ops):
        basis = measure_structure_constants([ops["K0"]])
        result = killing_classify(basis)
        np.testing.assert_allclose(result.metric, 0.0)
        assert result.label == "degenerate"
        assert result.signature == (0, 0, 1)

    def test_open_basis_rejected(self, ops):
        basis = measure_structure_constants([ops["S+"], ops["S-"]])
        assert basis.closure_residual > 1e-3
        with pytest.raises(NotClosed):
            killing_classify(basis)

    def test_ladder_basis_has_no_real_form(self, ops):
        basis = measure_structure_constants([ops["S+"], ops["S-"], ops["S0"]])
        with pytest.raises(NotHermitianTriple):
            killing_classify(basis)


class TestFlowSpectrum:
    def test_rotation_flow_is_oscillatory(self):
        # H = J (S+ + S-) = 2J X1 with J = 1
        spec = heisenberg_flow_spectrum(abstract_basis("su2"), [2.0, 0.0, 0.0])
        np.testing.assert_allclose(
            np.sort_complex(spec.eigenvalues), [-2j, 0, 2j], atol=1e-12
        )
        assert spec.classification == "oscillatory"

    def test_boost_flow_is_hyperbolic(self):
        spec = heisenberg_flow_spectrum(abstract_basis("su11"), [2.0, 0.0, 0.0])
        np.testing.assert_allclose(
            np.sort_complex(spec.eigenvalues), [-2.0, 0.0, 2.0], atol=1e-12
        )
        assert spec.classification == "hyperbolic"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficient_rejected(self, eigensolves, value):
        with pytest.raises(NonFiniteValue):
            heisenberg_flow_spectrum(abstract_basis("su11"), [value, 0.0, 0.0])
        assert eigensolves == []

    def test_zero_generator_is_oscillatory(self):
        spec = heisenberg_flow_spectrum(abstract_basis("su11"), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(spec.eigenvalues, 0.0)
        assert spec.classification == "oscillatory"

    def test_compactness_implies_oscillation_for_random_generators(self):
        basis = abstract_basis("su2")
        rng = np.random.default_rng(20240211)
        for _ in range(100):
            h = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3)
            spec = heisenberg_flow_spectrum(basis, h)
            assert spec.classification == "oscillatory"
            assert np.abs(spec.eigenvalues.real).max() < 1e-9 * np.linalg.norm(h)

    def test_boost_algebra_still_oscillates_along_k0(self):
        spec = heisenberg_flow_spectrum(abstract_basis("su11"), [0.0, 0.0, 1.5])
        assert spec.classification == "oscillatory"

    def test_open_basis_rejected(self, ops):
        basis = measure_structure_constants([ops["S+"], ops["S-"]])
        with pytest.raises(NotClosed):
            heisenberg_flow_spectrum(basis, [1.0, 1.0])


class TestRepresentationAudit:
    def test_concrete_pair_triple_measures_rotation_type(self, ops):
        """The 4x4 pair triple, Hermitianized, measures kappa = +1: the
        finite two-spin representation realizes the rotation-type algebra,
        not the boost-type bracket of the abstract pair basis."""
        triple = hermitian_triple(ops["K+"], ops["K-"], ops["K0"])
        measured = measure_structure_constants(list(triple))
        assert measured.closure_residual < 1e-12
        kappa = triple_kappa(measured)
        assert kappa == pytest.approx(1.0, abs=1e-12)
        assert kappa == triple_kappa(abstract_basis("su2"))
        assert kappa != triple_kappa(abstract_basis("su11"))
        assert killing_classify(measured).label == "compact"


class TestScaleInvariance:
    @given(j=st.floats(math.log(1e-3), math.log(2 * math.pi * 4e8)).map(math.exp))
    @settings(max_examples=50, deadline=None)
    def test_label_of_scaled_catalog_triples(self, ops, j):
        """Closure is judged relative to the commutator norm, so scaling a
        triple by J (constants scale by J) keeps its unit-scale label."""
        for name in ("K", "S"):
            triple = hermitian_triple(ops[f"{name}+"], ops[f"{name}-"], ops[f"{name}0"])
            unit = killing_classify(measure_structure_constants(list(triple))).label
            scaled = [OperatorMatrix(j * x.entries, label=x.label) for x in triple]
            assert killing_classify(measure_structure_constants(scaled)).label == unit
