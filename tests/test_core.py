"""Tests for state/operator arithmetic and entropies."""
import math
import warnings

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
    return PureState(np.array([1, 0, 0, 1]) / math.sqrt(2.0), (2, 2))


class TestPureState:
    def test_computational_ket(self):
        psi = PureState([0, 1, 0, 0], (2, 2))
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
        psi = PureState([1, 0], (2,))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5


# finite matrices whose Hermiticity deviation or trace overflows to inf
OVERFLOWING = [
    (np.array([[0.5, 1e308j], [1e308j, 0.5]]), "matrix is not Hermitian: max deviation inf"),
    (np.diag([1e308, 1e308]).astype(complex), "trace is (inf+0j), expected 1"),
]


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, math.inf)])
    def test_infinite_entry_raises_only_value_error(self, value):
        # inf - inf in the Hermiticity check must not warn first
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                DensityOperator(m, (2,))

    def test_eig_tol_can_be_loosened(self):
        m = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
        m /= np.trace(m).real
        with pytest.raises(ValueError):
            DensityOperator(m, (2,))
        rho = DensityOperator(m, (2,), eig_tol=1e-8)
        assert rho.dim == 2

    @pytest.mark.parametrize("eig_tol", [math.nan, math.inf, -math.inf, -1e-10])
    def test_eig_tol_must_be_finite_and_non_negative(self, eig_tol):
        # a NaN or infinite floor would let a negative spectrum through
        with pytest.raises(ValueError, match="eig_tol must be finite and >= 0"):
            DensityOperator(np.diag([1.5, -0.5]), (2,), eig_tol=eig_tol)
        with pytest.raises(ValueError, match="eig_tol"):
            DensityOperator(np.eye(2) / 2, (2,), eig_tol=eig_tol)

    @pytest.mark.parametrize("m, message", OVERFLOWING)
    def test_overflow_of_finite_entries_raises_only_value_error(self, m, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                DensityOperator(m, (2,))
        assert str(raised.value) == message


BAD_KINDS = ("negative", "non-finite", "non-hermitian", "trace")


def _bad_qubit_matrix(kind, x=0.3):
    """A 2x2 matrix that fails one check after the shape, off by ``x`` in (0, 0.5)."""
    m = np.eye(2, dtype=complex) / 2
    if kind == "negative":
        m = np.diag([1.0 + x, -x]).astype(complex)
    elif kind == "non-finite":
        m[0, 1] = math.inf
    elif kind == "non-hermitian":
        m[0, 1] = x
    else:
        m *= 1.0 + x
    return m


def _first_error(matrices, dims, eig_tol=1e-10):
    """(type, message) of the error building ``matrices`` one by one raises first."""
    for m in matrices:
        try:
            DensityOperator(m, dims, eig_tol=eig_tol)
        except ValueError as exc:
            return type(exc), str(exc)
    return None


def _dense(blocks, rows, d):
    """The (d, d) matrix that is zero but for ``blocks`` on ``rows``."""
    m = np.zeros((d, d), dtype=complex)
    for block, idx in zip(blocks, rows):
        m[np.ix_(idx, idx)] = block
    return m


# two qubit-sized blocks of a qutrit-qubit space, out of order and leaving
# rows 2 and 5 uncovered
TWO_BLOCK_ROWS = np.array([[3, 0], [4, 1]])


def _bad_half_block(kind, x=0.3):
    """``_bad_qubit_matrix`` with its finite entries halved, a block of trace 1/2 when valid."""
    m = _bad_qubit_matrix(kind, x)
    m[np.isfinite(m)] /= 2
    return m


def _two_block_stack(rng, n):
    """(n, 2, 2, 2) blocks of valid states on TWO_BLOCK_ROWS, each block of trace 1/2."""
    return np.array([[random_density_operator(rng, (2,)).matrix / 2 for _ in range(2)] for _ in range(n)])


class TestDensityOperatorStack:
    def test_states_match_single_construction(self):
        rng = np.random.default_rng(41)
        mats = np.stack([random_density_operator(rng, (2, 3)).matrix for _ in range(7)])
        states = DensityOperator.stack(mats[:, np.newaxis], np.arange(6)[np.newaxis], [2, 3])
        assert len(states) == 7
        for state, m in zip(states, mats):
            single = DensityOperator(m, (2, 3))
            assert np.array_equal(state.matrix, single.matrix)
            assert (state.dims, state.eig_tol) == (single.dims, single.eig_tol) == ((2, 3), 1e-10)

    def test_blocks_match_single_construction(self):
        rng = np.random.default_rng(47)
        blocks = _two_block_stack(rng, 9)
        states = DensityOperator.stack(blocks, TWO_BLOCK_ROWS, (3, 2))
        for state, blk in zip(states, blocks):
            single = DensityOperator(_dense(blk, TWO_BLOCK_ROWS, 6), (3, 2))
            assert np.array_equal(state.matrix, single.matrix)
            assert (state.dims, state.eig_tol) == (single.dims, single.eig_tol)
        # the rows no block covers are zero, and their eigenvalue 0 passes
        assert not states[0].matrix[[2, 5]].any() and not states[0].matrix[:, [2, 5]].any()

    def test_matrices_are_a_read_only_copy(self):
        mats = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(complex)
        blocks = mats[:, np.newaxis]
        states = DensityOperator.stack(blocks, np.arange(2)[np.newaxis], (2,))
        mats[0, 0, 0] = 7.0
        assert states[0].matrix[0, 0] == 0.5
        for state in states:
            assert not state.matrix.flags.writeable
            with pytest.raises(ValueError):
                state.matrix[0, 0] = 0.0

    def test_states_share_one_array_apart_from_the_blocks(self):
        rng = np.random.default_rng(53)
        blocks = _two_block_stack(rng, 4)
        expected = [_dense(blk, TWO_BLOCK_ROWS, 6) for blk in blocks]
        states = DensityOperator.stack(blocks, TWO_BLOCK_ROWS, (3, 2))
        shared = states[0].matrix.base
        assert shared is not None and not shared.flags.writeable
        assert all(state.matrix.base is shared for state in states)
        assert not np.shares_memory(shared, blocks)
        blocks[:] = 7.0
        assert all(np.array_equal(state.matrix, m) for state, m in zip(states, expected))

    def test_matrix_larger_than_dims_rejected_by_its_rows(self):
        # the constructor rejects a qutrit matrix on dims (2,) for its shape;
        # a stack rejects it for rows that cannot cover it within the space
        mats = np.stack([np.eye(3) / 3] * 2)[:, np.newaxis]
        with pytest.raises(ValueError, match="does not match dims"):
            DensityOperator(mats[0, 0], (2,))
        with pytest.raises(ValueError, match=r"rows must be integers of shape \(1, 3\)"):
            DensityOperator.stack(mats, np.arange(2)[np.newaxis], (2,))
        with pytest.raises(ValueError, match=r"range\(2\)"):
            DensityOperator.stack(mats, np.arange(3)[np.newaxis], (2,))

    @pytest.mark.parametrize("rows, match", [
        ([[0, 1], [1, 2]], "overlap"),
        ([[0, 1], [2, 2]], "overlap"),
        ([[0, 1], [2, 6]], "range"),
        ([[-1, 1], [2, 3]], "range"),
        ([[0, 1]], "shape"),
        ([[0.0, 1.0], [2.0, 3.0]], "integers"),
        # the rows are always given: a dense stack is rows=np.arange(d)[np.newaxis]
        (None, "integers"),
    ])
    def test_bad_rows_rejected(self, rows, match):
        blocks = np.tile(np.eye(2, dtype=complex) / 4, (3, 2, 1, 1))
        with pytest.raises(ValueError, match=match):
            DensityOperator.stack(blocks, rows, (2, 3))

    @pytest.mark.parametrize("shape", [(3, 2, 2), (3, 1, 2, 3), (3, 0, 2, 2)])
    def test_bad_block_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="stack"):
            DensityOperator.stack(np.zeros(shape, dtype=complex), np.arange(4)[np.newaxis], (4,))

    def test_two_blocks_of_the_whole_space_rejected(self):
        # two (4, 4) blocks need two rows of 4, and a space of 4 has room for one
        blocks = np.tile(np.eye(4, dtype=complex) / 8, (3, 2, 1, 1))
        with pytest.raises(ValueError, match=r"rows must be integers of shape \(2, 4\)"):
            DensityOperator.stack(blocks, np.arange(4)[np.newaxis], (4,))
        with pytest.raises(ValueError, match="overlap"):
            DensityOperator.stack(blocks, np.tile(np.arange(4), (2, 1)), (4,))

    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_each_error_matches_single_constructor(self, kind):
        good = np.eye(2, dtype=complex) / 2
        stack = [good, good, _bad_qubit_matrix(kind), good]
        expected = _first_error(stack, (2,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(expected[0]) as stacked:
                DensityOperator.stack(np.stack(stack)[:, np.newaxis], np.arange(2)[np.newaxis], (2,))
        assert str(stacked.value) == expected[1]

    @pytest.mark.parametrize("kind", BAD_KINDS)
    @pytest.mark.parametrize("block", [0, 1])
    def test_each_error_in_one_block_matches_dense(self, kind, block):
        # the fault sits in one block of the third matrix
        blocks = _two_block_stack(np.random.default_rng(59), 4)
        blocks[2, block] = _bad_half_block(kind)
        expected = _first_error([_dense(blk, TWO_BLOCK_ROWS, 6) for blk in blocks], (3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(expected[0]) as stacked:
                DensityOperator.stack(blocks, TWO_BLOCK_ROWS, (3, 2))
        assert str(stacked.value) == expected[1]

    @pytest.mark.parametrize("m, message", OVERFLOWING)
    def test_overflow_matches_single_constructor(self, m, message):
        good = np.eye(2, dtype=complex) / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as stacked:
                DensityOperator.stack(np.stack([good, m, good])[:, np.newaxis], np.arange(2)[np.newaxis], (2,))
        assert str(stacked.value) == message

    @pytest.mark.parametrize("first", ["trace", "non-hermitian"])
    def test_error_matches_dense_above_dimension_seven(self, first):
        # doublets of a qubit-ququart space out of basis order, as the
        # dephasing oracle builds them; at d = 8 the trace of the dense
        # matrix sums its diagonal in an order of its own
        rows = np.array([[1, 4], [2, 5]])
        good = np.array([[[0.25, 0.1], [0.1, 0.25]]] * 2, dtype=complex)
        bad_trace = np.array([[[0.1, 0.05], [0.05, 0.2]], [[0.4, 0.05], [0.05, 0.6]]], dtype=complex)
        non_hermitian = good.copy()
        non_hermitian[1, 0, 1] = 0.3
        # the block diagonals summed in block order miss the dense trace's last bit
        assert bad_trace.diagonal(axis1=1, axis2=2).sum() != np.trace(_dense(bad_trace, rows, 8))
        faults = [bad_trace, non_hermitian] if first == "trace" else [non_hermitian, bad_trace]
        blocks = np.stack([good, *faults, good])
        dense = [_dense(blk, rows, 8) for blk in blocks]
        expected = _first_error(dense, (2, 4))
        assert ("trace" in expected[1]) == (first == "trace")
        with pytest.raises(expected[0]) as stacked:
            DensityOperator.stack(blocks, rows, (2, 4))
        assert str(stacked.value) == expected[1]

    def test_first_invalid_matrix_decides_the_error(self):
        # in every order, the error is the one of the first bad matrix
        rng = np.random.default_rng(43)
        for _ in range(60):
            stack = [random_density_operator(rng, (2,)).matrix for _ in range(5)]
            for slot in rng.choice(5, size=int(rng.integers(1, 4)), replace=False):
                # each bad matrix off by its own amount, so that the messages differ
                kind = BAD_KINDS[int(rng.integers(len(BAD_KINDS)))]
                stack[slot] = _bad_qubit_matrix(kind, float(rng.uniform(0.1, 0.4)))
            expected = _first_error(stack, (2,))
            with pytest.raises(expected[0]) as stacked:
                DensityOperator.stack(np.stack(stack)[:, np.newaxis], np.arange(2)[np.newaxis], (2,))
            assert str(stacked.value) == expected[1]

    def test_first_invalid_block_decides_the_error(self):
        # as above, with the faults in single blocks of two-block matrices
        rng = np.random.default_rng(61)
        for _ in range(60):
            blocks = _two_block_stack(rng, 5)
            for slot in rng.choice(5, size=int(rng.integers(1, 4)), replace=False):
                kind = BAD_KINDS[int(rng.integers(len(BAD_KINDS)))]
                blocks[slot, rng.integers(2)] = _bad_half_block(kind, float(rng.uniform(0.1, 0.4)))
            expected = _first_error([_dense(blk, TWO_BLOCK_ROWS, 6) for blk in blocks], (3, 2))
            with pytest.raises(expected[0]) as stacked:
                DensityOperator.stack(blocks, TWO_BLOCK_ROWS, (3, 2))
            assert str(stacked.value) == expected[1]


class TestTensorProduct:
    def test_basis_kets(self):
        # |0> (x) |1> -> |01>: amplitude 1 at flat index 1 of dim 4
        out = tensor_product(PureState([1, 0], (2,)), PureState([0, 1], (2,)))
        assert out.dims == (2, 2)
        assert out.amplitudes[1] == 1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(7)
        rho = random_density_operator(rng, (2,))
        out = tensor_product(rho, DensityOperator(np.eye(3) / 3, (3,)))
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
            tensor_product(PureState([1, 0], (2,)), DensityOperator(np.eye(2) / 2, (2,)))


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
            value = von_neumann_entropy(PureState(np.eye(math.prod(dims))[0], dims).density())
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityOperator(np.eye(2) / 2, (2,))) == pytest.approx(LN2, abs=1e-12)

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
        s = PureState([1, 0], (2,)).density()
        r = PureState([0, 1], (2,)).density()
        assert math.isinf(quantum_relative_entropy(s, r))

    def test_hand_value(self):
        # 0.75 ln(0.75/0.5) + 0.25 ln(0.25/0.5), evaluated by hand
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        sigma = DensityOperator(np.diag([0.75, 0.25]).astype(complex), (2,))
        rho = DensityOperator(np.eye(2) / 2, (2,))
        assert quantum_relative_entropy(sigma, rho) == pytest.approx(expected, abs=1e-12)
        assert quantum_relative_entropy(sigma, rho) == pytest.approx(0.130812, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            quantum_relative_entropy(
                DensityOperator(np.eye(2) / 2, (2,)),
                DensityOperator(np.eye(3) / 3, (3,)),
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
