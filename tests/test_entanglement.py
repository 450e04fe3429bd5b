"""Tests for the relative entropy of entanglement and the axiom suite."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

from qlimits.core import (
    DensityOperator,
    PureState,
    partial_trace,
    quantum_relative_entropy,
    tensor_product,
)
from qlimits.entanglement import (
    EntanglementResult,
    apply_instrument,
    axiom_harness,
    bell_state,
    check_additivity_pair,
    check_continuity,
    check_lgm_monotonicity,
    check_local_unitary_invariance,
    check_pure_state_reduction,
    check_separable_zero,
    classical_correlations,
    distillation_bound,
    pair_state,
    pure_state_entanglement,
    random_local_instrument,
    random_separable,
    relative_entropy_of_entanglement,
)
from qlimits.entanglement import (
    _best_product_direction,
    _gradient,
    _mixture_density,
    _n_terms,
    _normalize_rows,
    _objective,
    _ppt_closed_form,
    _product_vectors,
    _project_simplex,
    _random_local_rows,
    _search,
    _separable_state,
)

from helpers import isotropic_matrix, random_density_operator, random_pure_state, random_unitary, werner_matrix

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Independent coarse oracle: angle-parametrized 8-term ansatz, random
# search plus quasi-Newton refinement, with its own entropy evaluation.
# Deliberately shares no code path with the package optimizer.
# ---------------------------------------------------------------------------


def _oracle_relative_entropy(sigma, rho):
    lam, u = np.linalg.eigh(sigma)
    keep = lam > 1e-12
    first = float((lam[keep] * np.log(lam[keep])).sum())
    mu, v = np.linalg.eigh(rho)
    mu = np.clip(mu, 1e-17, None)
    overlap = np.einsum("ij,jk,ki->i", v.conj().T, sigma, v).real
    return first - float(overlap @ np.log(mu))


def _oracle_build(params, n_terms=8):
    logits = params[:n_terms]
    w = np.exp(logits - logits.max())
    w = w / w.sum()
    angles = params[n_terms:].reshape(n_terms, 4)
    rho = np.zeros((4, 4), dtype=complex)
    for k in range(n_terms):
        t1, p1, t2, p2 = angles[k]
        a = np.array([math.cos(t1), math.sin(t1) * np.exp(1j * p1)])
        b = np.array([math.cos(t2), math.sin(t2) * np.exp(1j * p2)])
        ket = np.kron(a, b)
        rho += w[k] * np.outer(ket, ket.conj())
    return rho


def coarse_ree_oracle(sigma, seed=1234, n_samples=300, n_terms=8):
    """Dense random search over an 8-term angle ansatz, then refinement."""
    rng = np.random.default_rng(seed)
    n_params = n_terms + 4 * n_terms

    def objective(x):
        return _oracle_relative_entropy(sigma, _oracle_build(x, n_terms))

    best_x, best_f = None, math.inf
    for _ in range(n_samples):
        x = np.concatenate(
            [rng.normal(0.0, 1.0, n_terms), rng.uniform(0.0, math.pi, 4 * n_terms)]
        )
        f = objective(x)
        if f < best_f:
            best_x, best_f = x, f
    result = scipy.optimize.minimize(
        objective, best_x, method="L-BFGS-B", options={"maxiter": 2000}
    )
    return min(best_f, float(result.fun))


def werner_state(p):
    mix = p * bell_state().matrix + (1.0 - p) * np.eye(4) / 4.0
    return DensityOperator(mix, (2, 2))


def werner_fidelity(f):
    """Werner state of singlet-class fidelity f; PPT exactly when f <= 1/2."""
    return werner_state((4.0 * f - 1.0) / 3.0)


def tilted_werner(f, eps):
    """(1 - eps) Werner(f) + eps |00><00|: NPT for f > 1/2, as |00> is orthogonal
    to the negative eigenvector of the partial transpose, with unequal marginals."""
    mix = (1.0 - eps) * werner_fidelity(f).matrix
    mix[0, 0] += eps
    return DensityOperator(mix, (2, 2))


def bell_diagonal_ree(f):
    return LN2 + f * math.log(f) + (1.0 - f) * math.log(1.0 - f)


BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)


def bell_diagonal_state(weights, u=np.eye(4)):
    """sum_i weights[i] |Bell_i><Bell_i|, turned by the two-qubit unitary u."""
    mat = u @ (BELL_BASIS.T * np.asarray(weights, dtype=float)) @ BELL_BASIS @ u.conj().T
    return DensityOperator(mat, (2, 2))


def partial_transpose_min(sigma):
    d_a, d_b = sigma.dims
    d = d_a * d_b
    gamma = sigma.matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d, d)
    return float(np.linalg.eigvalsh(gamma)[0])


class TestRandomSeparable:
    def test_is_valid_density_operator(self):
        rho = random_separable(np.random.default_rng(3), (2, 2))
        assert isinstance(rho, DensityOperator)
        assert rho.dims == (2, 2)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12

    def test_unnormalized_rows_are_rejected(self):
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(8))
        a, b = _random_local_rows(rng, 8, 2), _random_local_rows(rng, 8, 2)
        with pytest.raises(ValueError, match="trace"):
            _separable_state(w, 2.0 * a, b, (2, 2))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matrix_is_the_mixture_of_its_draws(self, dims):
        # the draws in the documented order: Dirichlet weights, then one
        # block of normalized complex Gaussian rows per party
        for s in range(5):
            rng = np.random.default_rng(s)
            w = rng.dirichlet(np.ones(8))
            rows = []
            for d in dims:
                z = rng.standard_normal((8, d)) + 1j * rng.standard_normal((8, d))
                rows.append(z / np.linalg.norm(z, axis=1, keepdims=True))
            psi = np.einsum("ka,kb->kab", *rows).reshape(8, -1)
            expected = np.einsum("k,ki,kj->ij", w / w.sum(), psi, psi.conj())
            rho = random_separable(np.random.default_rng(s), dims)
            assert np.array_equal(rho.matrix, expected)


class TestRelativeEntropyOfEntanglement:
    def test_product_state_is_zero(self):
        rng = np.random.default_rng(5)
        a = random_density_operator(rng, (2,))
        b = random_density_operator(rng, (2,))
        sigma = DensityOperator(np.kron(a.matrix, b.matrix), (2, 2))
        result = relative_entropy_of_entanglement(sigma)
        assert result.value < 1e-4

    def test_bell_state_ln2(self):
        result = relative_entropy_of_entanglement(bell_state())
        assert result.value == pytest.approx(LN2, abs=1e-3)
        assert result.converged

    def test_werner_against_independent_oracle(self):
        # the Werner state takes the Bell-diagonal closed form; tilted
        # toward |00> its marginals differ from I/2 and it is searched
        for sigma, route in ((werner_state(0.8), "bell_diagonal"),
                             (tilted_werner(0.85, 0.05), "stall")):
            result = relative_entropy_of_entanglement(sigma)
            assert result.stop_reason == route
            oracle = coarse_ree_oracle(sigma.matrix)
            assert result.value == pytest.approx(oracle, abs=1e-3)

    def test_feasible_point_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            sigma = random_density_operator(rng, (2, 2))
            result = relative_entropy_of_entanglement(sigma)
            marg = np.kron(
                np.einsum("ikjk->ij", sigma.matrix.reshape(2, 2, 2, 2)),
                np.einsum("kikj->ij", sigma.matrix.reshape(2, 2, 2, 2)),
            )
            upper = quantum_relative_entropy(sigma, DensityOperator(marg, (2, 2)))
            assert result.value <= upper + 1e-9

    def test_closest_state_consistency(self):
        # reported value equals S(sigma || closest_state) for the
        # returned separable state, at the end of a descent
        sigma = tilted_werner(0.7, 0.05)
        result = relative_entropy_of_entanglement(sigma)
        assert result.stop_reason == "stall"
        recomputed = quantum_relative_entropy(sigma, result.closest_state)
        assert result.value == pytest.approx(recomputed, abs=1e-10)

    def test_objective_history_monotone(self):
        sigma = tilted_werner(0.9, 0.05)
        result = relative_entropy_of_entanglement(sigma)
        history = np.asarray(result.objective_history)
        assert result.stop_reason == "stall" and history.size > 10
        assert (np.diff(history) <= 1e-12).all()

    def test_reproducible_with_same_seed(self):
        sigma = tilted_werner(0.6, 0.05)
        a = relative_entropy_of_entanglement(sigma)
        b = relative_entropy_of_entanglement(sigma)
        assert a.value == b.value
        assert a.objective_history == b.objective_history
        assert np.array_equal(a.closest_state.matrix, b.closest_state.matrix)

    def test_multipartite_rejected(self):
        rho = DensityOperator(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(ValueError, match="bipartite"):
            relative_entropy_of_entanglement(rho)

    def test_oversized_rejected(self):
        rho = DensityOperator(np.eye(20) / 20, (5, 4))
        with pytest.raises(ValueError, match="exceeds"):
            relative_entropy_of_entanglement(rho)

    def test_qubit_qutrit_supported(self):
        sigma = DensityOperator(np.eye(6) / 6, (2, 3))
        assert relative_entropy_of_entanglement(sigma).value < 1e-4


class TestClosedForms:
    """Pure and PPT inputs skip the search; the optimizer itself stays
    covered by the E1, E5 and E6 checks in TestAxiomChecks."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_separable_is_exactly_zero(self, dims):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sigma = random_separable(rng, dims)
            result = relative_entropy_of_entanglement(sigma)
            assert result.value == 0.0
            assert result.stop_reason == "ppt"
            assert result.restarts_used == 0 and result.iterations == 0
            recomputed = quantum_relative_entropy(sigma, result.closest_state)
            assert result.value == pytest.approx(recomputed, abs=1e-10)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_pure_is_reduced_entropy(self, dims):
        rng = np.random.default_rng(4)
        for _ in range(10):
            psi = random_pure_state(rng, dims)
            sigma = psi.density()
            result = relative_entropy_of_entanglement(sigma)
            assert result.value == pytest.approx(pure_state_entanglement(psi), abs=1e-12)
            assert result.stop_reason == "pure"
            assert result.restarts_used == 0 and result.iterations == 0
            recomputed = quantum_relative_entropy(sigma, result.closest_state)
            assert result.value == pytest.approx(recomputed, abs=1e-10)

    def test_product_pure_state(self):
        sigma = PureState([0, 1, 0, 0], (2, 2)).density()
        result = relative_entropy_of_entanglement(sigma)
        assert result.value == 0.0
        assert result.stop_reason == "pure"
        assert np.array_equal(result.closest_state.matrix, sigma.matrix)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_random_product_pure_state_is_exactly_zero(self, dims):
        # the top eigenvalue of rho_A rounds to 1 +- 4e-16; the value comes
        # from the renormalized Schmidt weights, of which there is one
        rng = np.random.default_rng(6)
        for _ in range(10):
            psi = tensor_product(random_pure_state(rng, dims[:1]), random_pure_state(rng, dims[1:]))
            result = relative_entropy_of_entanglement(psi.density())
            assert result.stop_reason == "pure"
            assert result.value == 0.0 and math.copysign(1.0, result.value) == 1.0

    def test_product_space_input_is_exactly_zero(self):
        # passes DensityOperator (eigenvalue floor -1e-10); when the PPT test
        # had its own floor of -1e-12, the search read -4.8e-11 on it
        sigma = DensityOperator(np.diag([0.999999999952, -2e-12]), (1, 2))
        result = relative_entropy_of_entanglement(sigma)
        assert (result.value, result.stop_reason, result.restarts_used) == (0.0, "ppt", 0)
        assert result.closest_state is sigma

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (1, 4), (4, 1)])
    def test_product_space_at_the_state_floor(self, dims):
        # one eigenvalue in [-1e-10, 0) and a trace short of 1 by up to
        # 9e-11, both within DensityOperator's tolerances: every such state
        # of a product space reads exactly 0, with no negative rounding
        rng = np.random.default_rng(11)
        d = dims[0] * dims[1]
        for _ in range(50):
            lam = rng.dirichlet(np.ones(d))
            lam[0] = -(10.0 ** rng.uniform(-16.0, -10.0))
            lam[1:] *= (1.0 - rng.uniform(0.0, 9e-11) - lam[0]) / lam[1:].sum()
            q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            result = relative_entropy_of_entanglement(DensityOperator((q * lam) @ q.conj().T, dims))
            assert result.value == 0.0 and math.copysign(1.0, result.value) == 1.0

    def test_ppt_route_reads_no_negative_value(self):
        # Werner states around F = 1/2 under random local unitaries: the PPT
        # test passes, q is 0 or below 1e-12, and the value is 0 up to
        # rounding; S(sigma||mixture) of the two matrices read 25 of these
        # 400 below 0, down to -8.9e-16
        rng = np.random.default_rng(3)
        for _ in range(400):
            f = 0.5 + rng.uniform(-1e-12, 2e-13)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            sigma = DensityOperator(u @ werner_fidelity(f).matrix @ u.conj().T, (2, 2))
            result = relative_entropy_of_entanglement(sigma)
            assert result.stop_reason == "ppt"
            assert 0.0 <= result.value < 1e-20 and math.copysign(1.0, result.value) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_ppt_value_is_the_relative_entropy_to_the_mixture(self, seed):
        # away from the floor the termwise sum is S(sigma||mixture) itself;
        # a larger q than the PPT test admits, so that the value is not ~0
        sigma = random_density_operator(np.random.default_rng(seed), (2, 2))
        lam = np.linalg.eigvalsh(sigma.matrix)
        gamma_min = min(partial_transpose_min(sigma), -0.01)
        result = _ppt_closed_form(sigma, lam, gamma_min)
        assert result.value > 1e-6
        assert result.value == pytest.approx(quantum_relative_entropy(sigma, result.closest_state), abs=1e-13)

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (1, 4), (2, 2)], ids=["1x2", "2x1", "1x4", "2x2"])
    def test_separable_states_at_the_state_floor(self, dims):
        # product-basis spectra with one eigenvalue in [-1e-10, 0) and a
        # trace short of 1 by up to 9e-11, both within DensityOperator's
        # tolerances, under random local unitaries: separable states up to
        # rounding, whose value must not read below 0.  In 2x2 their partial
        # transposes dip as far as the spectrum does; the PPT test at -1e-12
        # sent 16 of these 50 to the search, which read 11 of them below 0
        rng = np.random.default_rng(17)
        d = dims[0] * dims[1]
        values = []
        for _ in range(50):
            lam = rng.dirichlet(np.ones(d))
            lam[0] = -(10.0 ** rng.uniform(-16.0, -10.0))
            lam[1:] *= (1.0 - rng.uniform(0.0, 9e-11) - lam[0]) / lam[1:].sum()
            u = np.kron(random_unitary(rng, dims[0]), random_unitary(rng, dims[1]))
            values.append(relative_entropy_of_entanglement(DensityOperator((u * lam) @ u.conj().T, dims)).value)
        assert min(values) >= 0.0, min(values)

    def test_ppt_mixture_keeps_the_input_floor(self):
        # sigma is held to eig_tol = 1e-9 and has an eigenvalue -5e-10; the
        # mixture, built with the default floor of 1e-10, was rejected
        weights = (0.5 + 1e-13, 0.3, 0.2 - 1e-13 + 5e-10, -5e-10)
        sigma = DensityOperator((BELL_BASIS.T * np.asarray(weights)) @ BELL_BASIS, (2, 2), eig_tol=1e-9)
        assert -1e-12 < partial_transpose_min(sigma) < 0.0
        result = relative_entropy_of_entanglement(sigma)
        assert result.stop_reason == "ppt"
        assert result.closest_state.eig_tol == 1e-9
        assert 0.0 < result.value <= math.log(1.0 + 4e-13)
        assert partial_transpose_min(result.closest_state) >= -1e-15

    def test_ppt_floor_is_the_state_floor(self):
        # Werner states whose partial transpose dips up to eig_tol below 0
        # are on the "ppt" route, with a value within ln(1 + d eig_tol)
        for eig_tol in (1e-10, 1e-9):
            for eps in (2e-12, 0.5 * eig_tol, 0.99 * eig_tol):
                sigma = DensityOperator(werner_fidelity(0.5 + eps).matrix, (2, 2), eig_tol=eig_tol)
                assert -eig_tol <= partial_transpose_min(sigma) < -1e-12
                result = relative_entropy_of_entanglement(sigma)
                assert result.stop_reason == "ppt"
                assert 0.0 <= result.value <= math.log(1.0 + 4 * eig_tol)
        # just past the floor, the Bell-diagonal closed form takes over
        result = relative_entropy_of_entanglement(werner_fidelity(0.5 + 2e-10))
        assert result.stop_reason == "bell_diagonal"

    def test_werner_boundary_is_zero(self):
        result = relative_entropy_of_entanglement(werner_fidelity(0.5))
        assert result.stop_reason == "ppt"
        assert result.value == pytest.approx(0.0, abs=1e-15)

    def test_slightly_negative_partial_transpose(self):
        # lambda_min of the Werner partial transpose is 1/2 - f
        sigma = werner_fidelity(0.5 + 1e-13)
        gamma_min = partial_transpose_min(sigma)
        assert -1e-12 < gamma_min < 0.0
        result = relative_entropy_of_entanglement(sigma)
        assert result.stop_reason == "ppt"
        assert result.restarts_used == 0
        assert result.value <= math.log(1.0 + 4e-13)
        assert partial_transpose_min(result.closest_state) >= -1e-15
        recomputed = quantum_relative_entropy(sigma, result.closest_state)
        assert result.value == pytest.approx(recomputed, abs=1e-10)

    def test_just_entangled_werner_searches(self):
        # a just-entangled Werner state has maximally mixed marginals, so it
        # takes the Bell-diagonal closed form; tilted toward |00> it searches
        result = relative_entropy_of_entanglement(werner_fidelity(0.5 + 1e-3))
        assert result.stop_reason == "bell_diagonal"
        assert result.restarts_used == 0 and result.iterations == 0
        assert result.value == pytest.approx(bell_diagonal_ree(0.5 + 1e-3), abs=1e-15)
        sigma = tilted_werner(0.5 + 1e-3, 1e-3)
        assert partial_transpose_min(sigma) < -1e-4
        result = relative_entropy_of_entanglement(sigma)
        assert result.restarts_used == 1
        assert result.stop_reason in ("stall", "max_iters")

    def test_lu_rotated_bell_diagonal(self):
        # Bell-diagonal states turned by random local unitaries keep their
        # maximally mixed marginals, so the closed form applies
        rng = np.random.default_rng(7)
        for _ in range(4):
            f = rng.uniform(0.52, 0.97)
            weights = np.concatenate([[f], rng.dirichlet(np.ones(3)) * (1.0 - f)])
            rng.shuffle(weights)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            sigma = bell_diagonal_state(weights, u)
            result = relative_entropy_of_entanglement(sigma)
            exact = bell_diagonal_ree(f)
            assert result.stop_reason == "bell_diagonal"
            assert result.restarts_used == 0 and result.iterations == 0
            assert abs(result.value - exact) <= 1e-12
            assert abs(quantum_relative_entropy(sigma, result.closest_state) - exact) <= 1e-12
            assert partial_transpose_min(result.closest_state) >= -1e-12
            # the descent, run on its own, lands just above the closed form
            assert 0.0 <= _search(sigma).value - exact <= 3e-6

    @pytest.mark.parametrize("weights, rotated, pt_floor", [
        # an eigenvalue 6e-11 below zero, allowed by DensityOperator
        ((0.9, 0.1 + 6e-11, 0.0, -6e-11), False, -1e-12),
        # rescaling by 1/(2(1 - F)) = 5e8 magnifies rounding in the
        # eigenvectors of the two near-zero eigenvalues
        ((1.0 - 1e-9, 1e-9, 0.0, 0.0), True, -1e-9),
        # no positive weight off the top: the other three share 1/2
        ((1.0 - 1.2e-12, -1e-13, -1e-13, -1e-13), False, -1e-12),
    ], ids=["negative-eigenvalue", "lu-rotated-near-pure", "top-only"])
    def test_bell_diagonal_rounding_edges(self, weights, rotated, pt_floor):
        u = np.eye(4)
        if rotated:
            rng = np.random.default_rng(3)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        sigma = bell_diagonal_state(weights, u)
        result = relative_entropy_of_entanglement(sigma)
        assert result.stop_reason == "bell_diagonal"
        assert abs(result.value - bell_diagonal_ree(weights[0])) <= 1e-12
        assert abs(quantum_relative_entropy(sigma, result.closest_state) - result.value) <= 1e-10
        assert partial_transpose_min(result.closest_state) >= pt_floor

    def test_marginal_off_by_1e_9_searches(self):
        mat = werner_fidelity(0.8).matrix.copy()
        mat[0, 0] += 1e-9
        mat[3, 3] -= 1e-9
        result = relative_entropy_of_entanglement(DensityOperator(mat, (2, 2)))
        assert result.restarts_used == 1
        assert result.stop_reason in ("stall", "max_iters")
        assert result.value == pytest.approx(bell_diagonal_ree(0.8), abs=2e-5)

    def test_no_ppt_shortcut_above_dimension_six(self):
        # PPT does not imply separable in 4x4, so I/16 is searched; the
        # dephased start is already I/16, so the descent stalls at once
        result = relative_entropy_of_entanglement(DensityOperator(np.eye(16) / 16, (4, 4)))
        assert result.restarts_used == 1
        assert result.stop_reason == "stall"
        assert result.iterations == 3
        assert result.value == 0.0


def _h(p):
    return p * math.log(p) + (1.0 - p) * math.log(1.0 - p)


# Werner and isotropic states above dimension 6, with the closed forms of
# Vedral & Plenio, PRA 57, 1619 (1998) and Rains, PRA 60, 179 (1999), and
# how far above them the search may end.  Over rotations with seeds 0-11 the
# 3x3 Werner and 4x4 isotropic states ended at most 7.3e-6 and 1.5e-5 above;
# the 4x4 Werner state, still descending at the iteration cap in half of
# them, ended 2.1e-5 to 6.2e-4 above.
REFERENCE_FAMILIES = [
    pytest.param(4, werner_matrix(4, 0.55), LN2 + _h(0.55), 1e-3, id="werner-4x4-p0.55"),
    pytest.param(3, werner_matrix(3, 0.8), LN2 + _h(0.8), 1e-4, id="werner-3x3-p0.8"),
    pytest.param(4, isotropic_matrix(4, 0.5), math.log(4.0) + 0.5 * math.log(0.5) + 0.5 * math.log(0.5 / 3.0),
                 1e-4, id="isotropic-4x4-F0.5"),
]


@pytest.mark.parametrize("d, matrix, exact, slack", REFERENCE_FAMILIES)
def test_search_meets_closed_form_above_dimension_six(d, matrix, exact, slack):
    # local unitaries leave the value unchanged and hide the symmetry
    rng = np.random.default_rng(11)
    u = np.kron(random_unitary(rng, d), random_unitary(rng, d))
    result = relative_entropy_of_entanglement(DensityOperator(u @ matrix @ u.conj().T, (d, d)))
    assert exact - 1e-9 <= result.value <= exact + slack


@pytest.fixture(scope="module")
def werner_pair_search():
    """The descent on Werner(0.8) (x) Werner(0.8), a 4x4 input that hits the cap."""
    return _search(pair_state(werner_state(0.8), werner_state(0.8)))


class TestSearchLoop:
    """The optimizer's shortcuts reproduce the straightforward loop bit for bit."""

    @staticmethod
    def eager_objective_and_gradient(sigma_mat, sigma_term, rho):
        # objective and gradient from a fresh eigh, as before the lazy gradient
        mu, u = np.linalg.eigh(rho)
        sigma_rot = u.conj().T @ sigma_mat @ u
        diag = sigma_rot.diagonal().real
        mu = np.clip(mu, 1e-18, None)
        log_mu = np.log(mu)
        f = sigma_term - float(diag @ log_mu)
        delta = mu[:, None] - mu[None, :]
        same = np.abs(delta) < 1e-14 * mu.max()
        delta_safe = np.where(same, 1.0, delta)
        phi = np.where(same, 1.0 / mu[None, :], (log_mu[:, None] - log_mu[None, :]) / delta_safe)
        return f, -(u @ (sigma_rot * phi) @ u.conj().T)

    @staticmethod
    def reference_direction(gradient, dims, seed, rng):
        # one candidate at a time, one eigh per half-step
        d_a, d_b = dims
        g4 = gradient.reshape(d_a, d_b, d_a, d_b)
        best = None
        z = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
        for b in (seed, z / np.linalg.norm(z)):
            for _ in range(4):
                a = np.linalg.eigh(np.einsum("ijkl,j,l->ik", g4, b.conj(), b))[1][:, 0]
                b = np.linalg.eigh(np.einsum("ijkl,i,k->jl", g4, a.conj(), a))[1][:, 0]
            value = float(np.einsum("i,j,ijkl,k,l", a.conj(), b.conj(), g4, a, b).real)
            if best is None or value < best[0]:
                best = (value, a, b)
        return best[1], best[2]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4)])
    def test_lazy_gradient_equals_eager(self, dims):
        rng = np.random.default_rng(81)
        for _ in range(5):
            sigma = random_density_operator(rng, dims)
            lam = np.linalg.eigvalsh(sigma.matrix)
            sigma_term = float((lam * np.log(lam)).sum())
            k = _n_terms(dims)
            w = rng.dirichlet(np.ones(k))
            a, b = (_random_local_rows(rng, k, d) for d in dims)
            psi = _product_vectors(a, b)
            gradient = _gradient(_objective(sigma.matrix, sigma_term, _mixture_density(w, psi))[1])
            # a short line-search trial, built as the optimizer builds one
            grad_w = np.einsum("ki,ij,kj->k", psi.conj(), gradient, psi).real
            w_t = _project_simplex(w - 1e-3 * grad_w)
            a_t = _normalize_rows(a - 1e-3 * rng.standard_normal(a.shape))
            b_t = _normalize_rows(b - 1e-3j * rng.standard_normal(b.shape))
            rho_t = _mixture_density(w_t, _product_vectors(a_t, b_t))
            # the maximally mixed state takes the degenerate-spectrum branch
            for rho in (rho_t, np.eye(sigma.dim) / sigma.dim):
                f_lazy, spectrum = _objective(sigma.matrix, sigma_term, rho)
                f_eager, eager = self.eager_objective_and_gradient(sigma.matrix, sigma_term, rho)
                assert f_lazy == f_eager
                assert np.array_equal(_gradient(spectrum), eager)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4)])
    @pytest.mark.parametrize("n_seeds", [1])  # the descent passes one party-B ket
    def test_stacked_direction_equals_per_candidate(self, dims, n_seeds):
        rng = np.random.default_rng(91)
        d = int(np.prod(dims))
        for trial in range(10):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            gradient = z + z.conj().T
            seed = _normalize_rows(
                rng.standard_normal((n_seeds, dims[1])) + 1j * rng.standard_normal((n_seeds, dims[1]))
            )[0]
            a, b = _best_product_direction(gradient, dims, seed, np.random.default_rng(trial))
            a_ref, b_ref = self.reference_direction(gradient, dims, seed, np.random.default_rng(trial))
            assert np.array_equal(a, a_ref)
            assert np.array_equal(b, b_ref)

    def test_stop_reasons(self, werner_pair_search):
        result = _search(DensityOperator(np.eye(4) / 4, (2, 2)))
        assert (result.stop_reason, result.iterations, result.converged) == ("stall", 3, True)
        assert result.restarts_used == 1
        assert result.value == 0.0
        result = _search(werner_state(0.8))
        assert result.stop_reason == "stall" and result.converged
        assert result.restarts_used == 1
        # a 4x4 NPT input is still improving when the iteration cap ends it
        result = werner_pair_search
        assert result.stop_reason == "max_iters" and not result.converged
        assert result.iterations == 3000

    def test_flags_follow_stop_reason(self, werner_pair_search):
        results = [
            relative_entropy_of_entanglement(bell_state()),
            relative_entropy_of_entanglement(werner_fidelity(0.4)),
            _search(DensityOperator(np.eye(4) / 4, (2, 2))),
            werner_pair_search,
        ]
        flags = [(r.stop_reason, r.converged, r.restarts_used) for r in results]
        assert flags == [
            ("pure", True, 0), ("ppt", True, 0), ("stall", True, 1), ("max_iters", False, 1)
        ]
        stored = [f.name for f in dataclasses.fields(EntanglementResult)]
        assert stored == ["value", "closest_state", "stop_reason", "iterations", "objective_history"]
        with pytest.raises(AttributeError):
            results[0].converged = False

    def test_werner_descent(self):
        # the dephased start is already optimal on pure inputs, so this is
        # the guardrail that the descent itself moves, and moves to the
        # Bell-diagonal closed form ln 2 + F ln F + (1 - F) ln(1 - F)
        for f in np.linspace(0.501, 0.999, 30):
            result = _search(werner_fidelity(f))
            exact = LN2 + f * math.log(f) + (1.0 - f) * math.log(1.0 - f)
            assert abs(result.value - exact) <= 2e-5, f
            assert result.objective_history[0] - result.value >= 1e-3, f

    def test_spectral_steps_on_a_4x4_state(self):
        # a full-rank 4x4 state runs to the iteration cap; with at most 12
        # halved trials per gradient step the spectral descent stalls at
        # 0.0704 after 275 iterations, above the 0.063803 of the previous
        # step rule (last accepted step x 1.5)
        sigma = random_density_operator(np.random.default_rng(5), (4, 4))
        result = _search(sigma)
        assert result.value <= 0.063803

    def test_rank_deficient_branch(self):
        # a local-instrument branch with two eigenvalues below 5e-3: there
        # the direction search improves only with mixing weights near 1e-3;
        # with a ladder ending at 0.01 the descent is still at 7.9e-3 after
        # 3000 iterations
        rng = np.random.default_rng(42)
        sigma = random_density_operator(rng, (2, 2))
        (_, branch), _ = apply_instrument(sigma, random_local_instrument(rng, (2, 2)))
        result = relative_entropy_of_entanglement(branch)
        assert result.stop_reason == "stall"
        # coarse_ree_oracle(branch.matrix) reads 9.74e-5
        assert result.value <= 1.1e-4


class TestPureStateEntanglement:
    def test_product_state(self):
        psi = PureState([0, 1, 0, 0], (2, 2))
        assert pure_state_entanglement(psi) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        psi = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2.0), (2, 2))
        assert pure_state_entanglement(psi) == pytest.approx(LN2, abs=1e-12)

    def test_hand_value(self):
        # sqrt(0.9)|00> + sqrt(0.1)|11>: entropy of diag(0.9, 0.1)
        psi = PureState([math.sqrt(0.9), 0, 0, math.sqrt(0.1)], (2, 2))
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert pure_state_entanglement(psi) == pytest.approx(expected, abs=1e-12)
        assert pure_state_entanglement(psi) == pytest.approx(0.325083, abs=1e-6)

    def test_marginal_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            psi = random_pure_state(rng, (2, 2))
            # raises internally if the marginals disagree beyond 1e-10
            assert pure_state_entanglement(psi) >= -1e-12


class TestClassicalCorrelations:
    def test_product_state_zero(self):
        rng = np.random.default_rng(31)
        a = random_density_operator(rng, (2,))
        b = random_density_operator(rng, (2,))
        sigma = DensityOperator(np.kron(a.matrix, b.matrix), (2, 2))
        result = classical_correlations(sigma)
        assert result.value == pytest.approx(0.0, abs=1e-6)
        assert result.mutual_information == pytest.approx(0.0, abs=1e-10)

    def test_bell_state_two_ln2(self):
        result = classical_correlations(bell_state())
        assert result.value == pytest.approx(2.0 * LN2, abs=1e-4)
        assert result.mutual_information == pytest.approx(2.0 * LN2, abs=1e-10)

    def test_classically_correlated_mixture(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        result = classical_correlations(DensityOperator(rho, (2, 2)))
        assert result.value == pytest.approx(LN2, abs=1e-4)

    def test_matches_mutual_information_on_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            sigma = random_density_operator(rng, (2, 2))
            result = classical_correlations(sigma)
            assert result.value == pytest.approx(result.mutual_information, abs=1e-4)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_marginal_product_is_the_minimum(self, dims):
        # S(sigma||rho_A (x) rho_B) = value + S(sigma_A||rho_A) + S(sigma_B||rho_B)
        # for every product state, so no product state beats the value
        rng = np.random.default_rng(43)
        for _ in range(10):
            sigma = random_density_operator(rng, dims)
            value = classical_correlations(sigma).value
            s_a = partial_trace(sigma, [0])
            s_b = partial_trace(sigma, [1])
            for _ in range(5):
                rho_a = random_density_operator(rng, dims[:1])
                rho_b = random_density_operator(rng, dims[1:])
                distance = quantum_relative_entropy(sigma, tensor_product(rho_a, rho_b))
                split = (
                    value
                    + quantum_relative_entropy(s_a, rho_a)
                    + quantum_relative_entropy(s_b, rho_b)
                )
                assert distance == pytest.approx(split, abs=1e-10)
                assert distance >= value


class TestDistillationBound:
    def test_bell_pairs_distill_one_to_one(self):
        e_bell = relative_entropy_of_entanglement(bell_state()).value
        for n in (0, 1, 10, 100):
            assert distillation_bound(n, e_bell) == n

    def test_separable_yields_zero(self):
        rng = np.random.default_rng(51)
        sigma = random_separable(rng, (2, 2))
        assert distillation_bound(25, relative_entropy_of_entanglement(sigma).value) == 0

    def test_arithmetic(self):
        assert distillation_bound(100, 0.35) == 50

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            distillation_bound(-1, 0.5)


class TestInstruments:
    def test_completeness(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            kraus = random_local_instrument(rng, (2, 2))
            total = sum(v.conj().T @ v for v in kraus)
            assert np.abs(total - np.eye(4)).max() < 1e-10

    def test_apply_instrument_probabilities(self):
        rng = np.random.default_rng(71)
        sigma = random_density_operator(rng, (2, 2))
        branches = apply_instrument(sigma, random_local_instrument(rng, (2, 2)))
        assert sum(p for p, _ in branches) == pytest.approx(1.0, abs=1e-10)


class TestAxiomChecks:
    # E1 and E5 run the search itself: the public call answers these
    # inputs in closed form, which would leave the optimizer unchecked
    def test_e1_separable_zero(self):
        check = check_separable_zero(lambda s: _search(s).value, n_cases=10)
        assert check.passed, check

    def test_e2_local_unitaries(self):
        check = check_local_unitary_invariance(
            lambda s: relative_entropy_of_entanglement(s).value, n_cases=10
        )
        assert check.passed, check

    def test_e3_monotonicity(self):
        check = check_lgm_monotonicity(
            lambda s: relative_entropy_of_entanglement(s).value, n_cases=5
        )
        assert check.passed, check

    def test_e4_flags_a_jump(self):
        # a measure that jumps far more than 10x the trace distance fails
        # E4; a constant measure never moves and passes
        def jumpy(sigma):
            return 100.0 * float(sigma.matrix[0, 0].real)

        jump = check_continuity(jumpy, n_cases=2)
        assert not jump.passed and jump.worst > 1e-2, jump
        flat = check_continuity(lambda sigma: 0.7, n_cases=2)
        assert flat.passed and flat.worst == 0.0, flat

    def test_e5_pure_states(self):
        check = check_pure_state_reduction(lambda s: _search(s).value, n_cases=10)
        assert check.passed, check

    def test_e6_bell_pair(self):
        # E(bell (x) bell) should sit near 2 ln 2 under the regrouped cut;
        # the pair is pure, so the search is called directly to keep the
        # 4x4 optimizer checked
        check = check_additivity_pair(
            lambda s: _search(s).value,
            bell_state(),
            bell_state(),
        )
        assert check.passed, check

    def test_pair_state_regrouping(self):
        pair = pair_state(bell_state(), bell_state())
        assert pair.dims == (4, 4)
        # still a maximally entangled ray across the regrouped cut
        vec = np.zeros(16, dtype=complex)
        for i in (0, 1, 2, 3):
            a, b = divmod(i, 2)
            vec[(2 * a + b) * 4 + (2 * a + b)] = 0.5
        fidelity = float((vec.conj() @ pair.matrix @ vec).real)
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_harness_report(self, monkeypatch):
        # cases of E1-E5 in order: separable, unitaries, instruments, perturbations, pure
        monkeypatch.setattr("qlimits.entanglement._HARNESS_CASES", (4, 4, 2, 2, 4))
        report = axiom_harness()
        assert report.passed, report
        axioms = [c.axiom for c in report.checks]
        assert axioms == ["E1", "E2", "E3", "E4", "E5", "E6"]
        blob = report.to_json_dict()
        assert blob["passed"] is True
