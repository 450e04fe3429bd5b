"""Tests for state/operator arithmetic and entropies."""
import math

import numpy as np
import pytest

from qlimits.core import (
    DensityOperator,
    KindMismatchError,
    PureState,
    nats_to_bits,
    partial_trace,
    quantum_relative_entropy,
    tensor_product,
    von_neumann_entropy,
)

from helpers import random_density_operator, random_pure_state, random_unitary

LN2 = math.log(2.0)


def bell_phi_plus():
    return PureState.normalized([1, 0, 0, 1], (2, 2))


class TestPureState:
    def test_computational_ket(self):
        psi = PureState.computational([0, 1])
        assert psi.dims == (2, 2)
        assert psi.amplitudes[1] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState([1.0, 1.0], (2,))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="does not match dims"):
            PureState([1.0, 0.0, 0.0], (2,))

    def test_amplitudes_immutable(self):
        psi = PureState.computational([0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2, dtype=complex), (2,))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(m, (2,))

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_entries(self, cell, value):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[cell] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(m, (2,))

    def test_eig_tol_can_be_loosened(self):
        m = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
        m /= np.trace(m).real
        with pytest.raises(ValueError):
            DensityOperator(m, (2,))
        rho = DensityOperator(m, (2,), eig_tol=1e-8)
        assert rho.dim == 2


class TestTensorProduct:
    def test_basis_kets(self):
        # |0> (x) |1> -> |01>: amplitude 1 at flat index 1 of dim 4
        out = tensor_product(PureState.computational([0]), PureState.computational([1]))
        assert out.dims == (2, 2)
        assert out.amplitudes[1] == 1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(7)
        rho = random_density_operator(rng, (2,))
        out = tensor_product(rho, DensityOperator.maximally_mixed((3,)))
        assert out.dims == (2, 3)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_two_bell_pairs_expand_by_hand(self):
        # ((|00>+|11>)/sqrt2)^(x2): four amplitudes of 1/2 at the bit
        # patterns 0000, 0011, 1100, 1111.
        out = tensor_product(bell_phi_plus(), bell_phi_plus())
        expected = np.zeros(16, dtype=complex)
        for idx in (0b0000, 0b0011, 0b1100, 0b1111):
            expected[idx] = 0.5
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            tensor_product(PureState.computational([0]), DensityOperator.maximally_mixed((2,)))


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        rho = bell_phi_plus().density()
        red = partial_trace(rho, [0])
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_factorization(self):
        rng = np.random.default_rng(11)
        a = random_density_operator(rng, (2,))
        b = random_density_operator(rng, (3,))
        red = partial_trace(tensor_product(a, b), [0])
        np.testing.assert_allclose(red.matrix, a.matrix, atol=1e-12)

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = random_density_operator(rng, (2, 2))
            red = partial_trace(rho, [1])
            assert abs(np.trace(red.matrix) - 1.0) < 1e-10
            assert np.abs(red.matrix - red.matrix.conj().T).max() < 1e-10

    def test_round_trip_property(self):
        # partial_trace(a (x) b, keep=A) == a elementwise within 1e-10
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_density_operator(rng, (2,))
            b = random_density_operator(rng, (2,))
            red = partial_trace(tensor_product(a, b), [0])
            assert np.abs(red.matrix - a.matrix).max() < 1e-10

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            partial_trace(bell_phi_plus().density(), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            partial_trace(bell_phi_plus().density(), [2])


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self):
        rng = np.random.default_rng(19)
        psi = random_pure_state(rng, (2, 2))
        assert abs(von_neumann_entropy(psi.density())) < 1e-10

    def test_pure_spectrum_is_positive_zero(self):
        # -(1 ln 1) is -0.0 in floating point; the entropy must print as 0
        for dims in ((1,), (2, 2)):
            value = von_neumann_entropy(PureState.computational((0,) * len(dims), dims).density())
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityOperator.maximally_mixed((2,))) == pytest.approx(LN2, abs=1e-12)

    def test_hand_value_diag_09_01(self):
        # -(0.9 ln 0.9 + 0.1 ln 0.1), evaluated by hand
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        rho = DensityOperator(np.diag([0.9, 0.1]).astype(complex), (2,))
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.325083, abs=1e-6)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            rho = random_density_operator(rng, (2, 2))
            u = random_unitary(rng, 4)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            rho = random_density_operator(rng, (2, 2), rank=2)
            assert von_neumann_entropy(rho) >= -1e-10


class TestQuantumRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(31)
        rho = random_density_operator(rng, (2, 2))
        assert abs(quantum_relative_entropy(rho, rho)) < 1e-9

    def test_disjoint_support_is_infinite(self):
        s = PureState.computational([0]).density()
        r = PureState.computational([1]).density()
        assert math.isinf(quantum_relative_entropy(s, r))

    def test_hand_value(self):
        # 0.75 ln(0.75/0.5) + 0.25 ln(0.25/0.5), evaluated by hand
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        sigma = DensityOperator(np.diag([0.75, 0.25]).astype(complex), (2,))
        rho = DensityOperator.maximally_mixed((2,))
        assert quantum_relative_entropy(sigma, rho) == pytest.approx(expected, abs=1e-12)
        assert quantum_relative_entropy(sigma, rho) == pytest.approx(0.130812, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            quantum_relative_entropy(
                DensityOperator.maximally_mixed((2,)),
                DensityOperator.maximally_mixed((3,)),
            )

    def test_klein_inequality(self):
        # S(sigma||rho) >= 0, equality only for (numerically) equal states
        rng = np.random.default_rng(37)
        for _ in range(25):
            sigma = random_density_operator(rng, (2, 2))
            rho = random_density_operator(rng, (2, 2))
            val = quantum_relative_entropy(sigma, rho)
            assert val >= -1e-9
            if val < 1e-9:
                assert np.abs(sigma.matrix - rho.matrix).max() < 1e-4


def test_nats_to_bits():
    assert nats_to_bits(LN2) == pytest.approx(1.0, abs=1e-15)
