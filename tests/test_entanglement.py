"""Tests for the relative entropy of entanglement and the axiom suite."""
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
    HarnessConfig,
    SeparableAnsatz,
    apply_instrument,
    axiom_harness,
    bell_state,
    check_additivity_pair,
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
    _product_vectors,
    _project_simplex,
    _search,
)

from helpers import random_density_operator, random_pure_state

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


def partial_transpose_min(sigma):
    d_a, d_b = sigma.dims
    d = d_a * d_b
    gamma = sigma.matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d, d)
    return float(np.linalg.eigvalsh(gamma)[0])


class TestSeparableAnsatz:
    def test_assembles_valid_density_operator(self):
        rng = np.random.default_rng(3)
        ansatz = random_separable(rng, (2, 2))
        rho = ansatz.assemble()
        assert rho.dims == (2, 2)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12

    def test_rejects_bad_weights(self):
        rng = np.random.default_rng(3)
        good = random_separable(rng, (2, 2))
        with pytest.raises(ValueError, match="sum"):
            SeparableAnsatz(good.weights * 2.0, good.local_states, good.dims)

    def test_rejects_unnormalized_locals(self):
        rng = np.random.default_rng(3)
        good = random_separable(rng, (2, 2))
        bad = (good.local_states[0] * 2.0, good.local_states[1])
        with pytest.raises(ValueError, match="normalized"):
            SeparableAnsatz(good.weights, bad, good.dims)


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
        sigma = werner_state(0.8)
        ours = relative_entropy_of_entanglement(sigma).value
        oracle = coarse_ree_oracle(sigma.matrix)
        assert ours == pytest.approx(oracle, abs=1e-3)

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
        # returned separable state
        sigma = werner_state(0.7)
        result = relative_entropy_of_entanglement(sigma)
        recomputed = quantum_relative_entropy(sigma, result.closest_state)
        assert result.value == pytest.approx(recomputed, abs=1e-10)

    def test_objective_history_monotone(self):
        sigma = werner_state(0.9)
        result = relative_entropy_of_entanglement(sigma)
        history = np.asarray(result.objective_history)
        assert (np.diff(history) <= 1e-12).all()

    def test_reproducible_with_same_seed(self):
        sigma = werner_state(0.6)
        a = relative_entropy_of_entanglement(sigma)
        b = relative_entropy_of_entanglement(sigma)
        assert a.value == b.value
        assert a.objective_history == b.objective_history
        assert np.array_equal(a.closest_state.matrix, b.closest_state.matrix)

    def test_multipartite_rejected(self):
        rho = DensityOperator.maximally_mixed((2, 2, 2))
        with pytest.raises(ValueError, match="bipartite"):
            relative_entropy_of_entanglement(rho)

    def test_oversized_rejected(self):
        rho = DensityOperator.maximally_mixed((5, 4))
        with pytest.raises(ValueError, match="exceeds"):
            relative_entropy_of_entanglement(rho)

    def test_qubit_qutrit_supported(self):
        sigma = DensityOperator.maximally_mixed((2, 3))
        assert relative_entropy_of_entanglement(sigma).value < 1e-4


class TestClosedForms:
    """Pure and PPT inputs skip the search; the optimizer itself stays
    covered by the E1, E5 and E6 checks in TestAxiomChecks."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_separable_is_exactly_zero(self, dims):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sigma = random_separable(rng, dims).assemble()
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
        sigma = PureState.computational([0, 1]).density()
        result = relative_entropy_of_entanglement(sigma)
        assert result.value == 0.0
        assert result.stop_reason == "pure"
        assert np.array_equal(result.closest_state.matrix, sigma.matrix)

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
        result = relative_entropy_of_entanglement(werner_fidelity(0.5 + 1e-3))
        assert result.restarts_used == 1
        assert result.stop_reason in ("stall", "max_iters")

    def test_no_ppt_shortcut_above_dimension_six(self):
        # PPT does not imply separable in 4x4, so I/16 is searched; the
        # dephased start is already I/16, so the descent stalls at once
        result = relative_entropy_of_entanglement(DensityOperator.maximally_mixed((4, 4)))
        assert result.restarts_used == 1
        assert result.stop_reason == "stall"
        assert result.iterations == 3
        assert result.value == 0.0


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
    def reference_direction(gradient, dims, seeds, rng):
        # one candidate at a time, one eigh per half-step
        d_a, d_b = dims
        g4 = gradient.reshape(d_a, d_b, d_a, d_b)
        best = None
        candidates = list(seeds)
        z = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
        candidates.append(z / np.linalg.norm(z))
        for b in candidates:
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
            start = random_separable(rng, dims, _n_terms(dims))
            w, (a, b) = start.weights, start.local_states
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
    @pytest.mark.parametrize("n_seeds", [0, 1, 2])
    def test_stacked_direction_equals_per_candidate(self, dims, n_seeds):
        rng = np.random.default_rng(91)
        d = int(np.prod(dims))
        for trial in range(10):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            gradient = z + z.conj().T
            seeds = list(_normalize_rows(
                rng.standard_normal((n_seeds, dims[1])) + 1j * rng.standard_normal((n_seeds, dims[1]))
            ))
            a, b = _best_product_direction(gradient, dims, seeds, np.random.default_rng(trial))
            a_ref, b_ref = self.reference_direction(gradient, dims, seeds, np.random.default_rng(trial))
            assert np.array_equal(a, a_ref)
            assert np.array_equal(b, b_ref)

    def test_stop_reasons(self):
        result = _search(DensityOperator.maximally_mixed((2, 2)))
        assert (result.stop_reason, result.iterations, result.converged) == ("stall", 3, True)
        assert result.restarts_used == 1
        assert result.value == 0.0
        result = _search(werner_state(0.8))
        assert result.stop_reason == "stall" and result.converged
        assert result.restarts_used == 1
        # a 4x4 NPT input is still improving when the iteration cap ends it
        result = _search(pair_state(werner_state(0.8), werner_state(0.8)))
        assert result.stop_reason == "max_iters" and not result.converged
        assert result.iterations == 3000

    def test_werner_descent(self):
        # the dephased start is already optimal on pure inputs, so this is
        # the guardrail that the descent itself moves, and moves to the
        # Bell-diagonal closed form ln 2 + F ln F + (1 - F) ln(1 - F)
        for f in np.linspace(0.501, 0.999, 30):
            result = _search(werner_fidelity(f))
            exact = LN2 + f * math.log(f) + (1.0 - f) * math.log(1.0 - f)
            assert abs(result.value - exact) <= 2e-5, f
            assert result.objective_history[0] - result.value >= 1e-3, f

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
        psi = PureState.computational([0, 1])
        assert pure_state_entanglement(psi) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        psi = PureState.normalized([1, 0, 0, 1], (2, 2))
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
            assert distillation_bound(n, bell_state(), entanglement=e_bell) == n

    def test_separable_yields_zero(self):
        rng = np.random.default_rng(51)
        sigma = random_separable(rng, (2, 2)).assemble()
        assert distillation_bound(25, sigma) == 0

    def test_arithmetic(self):
        assert distillation_bound(100, bell_state(), entanglement=0.35) == 50

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            distillation_bound(-1, bell_state(), entanglement=0.5)


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
            tol=2e-2,
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

    def test_harness_report(self):
        config = HarnessConfig(
            n_separable=4,
            n_unitaries=4,
            n_instruments=2,
            n_pure=4,
            n_perturbations=2,
            include_additivity=False,
        )
        report = axiom_harness(config=config)
        assert report.passed, report
        axioms = [c.axiom for c in report.checks]
        assert axioms == ["E1", "E2", "E3", "E4", "E5"]
        blob = report.to_json_dict()
        assert blob["passed"] is True
