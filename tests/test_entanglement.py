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
    REEConfig,
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
        config = REEConfig(seed=42)
        a = relative_entropy_of_entanglement(sigma, config)
        b = relative_entropy_of_entanglement(sigma, config)
        assert a.value == pytest.approx(b.value, abs=1e-4)

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
    def test_e1_separable_zero(self):
        check = check_separable_zero(lambda s: relative_entropy_of_entanglement(s).value, n_cases=10)
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
        check = check_pure_state_reduction(
            lambda s: relative_entropy_of_entanglement(s).value, n_cases=10
        )
        assert check.passed, check

    def test_e6_bell_pair(self):
        # E(bell (x) bell) should sit near 2 ln 2 under the regrouped cut
        config = REEConfig(restarts=6)
        check = check_additivity_pair(
            lambda s: relative_entropy_of_entanglement(s, config).value,
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
