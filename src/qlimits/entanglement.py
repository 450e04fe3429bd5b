"""Relative entropy of entanglement and its axiom suite.

The measure is E(sigma) = min over separable rho of S(sigma || rho).
No closed form is known in general, so the minimum is searched
numerically: separable states are parametrized as convex mixtures of K
product pure states and optimized by projected gradient descent on the
weights and local states, interleaved with best-product-direction
steps, under a fixed multi-start seed schedule.  Because every iterate
is separable, the returned value is always an upper bound on the true
minimum; the feasible-point bound S(sigma || sigma_A (x) sigma_B) is
used as one of the starting points, so the result can never exceed it.

Restarts are independent and the reported value is the minimum over
the fixed seed set, so results are reproducible.  Only bipartite
inputs up to total dimension 16 are supported; the multipartite
minimization is out of scope.

The classical correlations need no search: the distance from sigma to
the closest product state is attained exactly at the product of its
marginals, where it equals the mutual information.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    DensityOperator,
    PureState,
    partial_trace,
    quantum_relative_entropy,
    tensor_product,
    von_neumann_entropy,
)

__all__ = [
    "REEConfig",
    "SeparableAnsatz",
    "EntanglementResult",
    "ClassicalCorrelationsResult",
    "AxiomCheck",
    "AxiomReport",
    "HarnessConfig",
    "relative_entropy_of_entanglement",
    "pure_state_entanglement",
    "classical_correlations",
    "distillation_bound",
    "random_separable",
    "random_local_instrument",
    "apply_instrument",
    "check_separable_zero",
    "check_local_unitary_invariance",
    "check_lgm_monotonicity",
    "check_continuity",
    "check_pure_state_reduction",
    "check_additivity_pair",
    "axiom_harness",
    "pair_state",
]

LN2 = math.log(2.0)
MAX_TOTAL_DIM = 16

# Optimizer schedule, part of the deterministic contract: iterations per
# restart, the per-step gain that resets the stall counter, restarts
# without improvement before giving up, the value below which the search
# stops, and the spacing of best-product-direction steps.
_MAX_ITERS = 300
_TOL = 1e-8
_PATIENCE = 5
_STOP_VALUE = 1e-6
_DIRECTION_EVERY = 4


def _n_terms(dims) -> int:
    """Number of product terms in the separable ansatz."""
    return max(8, int(np.prod(dims)) + 4)


@dataclass(frozen=True)
class REEConfig:
    """Restart count and seed of the multi-start search.

    Restarts stop early once the best value drops below 1e-6 or after
    5 restarts without improvement; the schedule is part of the
    deterministic contract.  Early stopping below 1e-6 costs at most
    that much tightness (the optimizer only ever returns upper bounds),
    well under the 1e-3 reporting target.
    """

    restarts: int = 16
    seed: int = 0


def _product_vectors(a, b) -> np.ndarray:
    """(K, da*db) array of the product kets a_k (x) b_k."""
    return np.einsum("ka,kb->kab", a, b).reshape(a.shape[0], -1)


def _mixture_density(weights, psi) -> np.ndarray:
    """sum_k w_k |psi_k><psi_k| as a plain matrix."""
    return np.einsum("k,ki,kj->ij", weights, psi, psi.conj())


@dataclass(frozen=True)
class SeparableAnsatz:
    """Convex mixture of product pure states.

    ``local_states[p][k]`` is the party-p pure state of term k; weights
    are a probability vector.
    """

    weights: np.ndarray
    local_states: tuple[np.ndarray, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or (w < -1e-15).any():
            raise ValueError("weights must be a nonnegative vector")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        locals_ = tuple(np.asarray(s, dtype=complex) for s in self.local_states)
        if len(locals_) != len(self.dims):
            raise ValueError("one local-state block per party required")
        for states, d in zip(locals_, self.dims):
            if states.shape != (w.size, d):
                raise ValueError(f"local block of shape {states.shape} does not match (K, {d})")
            norms = np.linalg.norm(states, axis=1)
            if np.abs(norms - 1.0).max() > 1e-10:
                raise ValueError("local states must be normalized")
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "local_states", locals_)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def product_vectors(self) -> np.ndarray:
        """(K, prod(dims)) array of the product kets."""
        vectors = self.local_states[0]
        for states in self.local_states[1:]:
            vectors = _product_vectors(vectors, states)
        return vectors

    def assemble(self) -> DensityOperator:
        return DensityOperator(_mixture_density(self.weights, self.product_vectors()), self.dims)


@dataclass
class EntanglementResult:
    """Measure value in nats plus optimizer diagnostics."""

    value: float
    closest_state: DensityOperator
    iterations: int
    converged: bool
    restarts_used: int
    objective_history: tuple[float, ...] = field(repr=False, default=())

    @property
    def value_bits(self) -> float:
        return self.value / LN2


@dataclass(frozen=True)
class ClassicalCorrelationsResult:
    """Distance to the closest product state, with its closed form.

    ``value`` is S(sigma || sigma_A (x) sigma_B), the exact minimum of
    S(sigma || rho_A (x) rho_B) over product states;
    ``mutual_information`` is S(sigma_A) + S(sigma_B) - S(sigma), the
    entropy form of the same number.  The two agree to rounding.
    """

    value: float
    mutual_information: float

    def __float__(self) -> float:
        return self.value


def _require_bipartite(dims):
    if len(dims) != 2:
        raise ValueError(f"bipartite input required, got {len(dims)} parties")
    if int(np.prod(dims)) > MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {int(np.prod(dims))} exceeds {MAX_TOTAL_DIM}")


# ---------------------------------------------------------------------------
# Objective and gradient
# ---------------------------------------------------------------------------


def _objective_and_gradient(sigma_mat, sigma_term, rho, want_gradient=True):
    """f = tr(sigma ln sigma) - tr(sigma ln rho) and dF/drho.

    Returns (inf, None) for trial states that lose the support of
    sigma; such points are rejected by the line search, never averaged.
    """
    mu, u = np.linalg.eigh(rho)
    sigma_rot = u.conj().T @ sigma_mat @ u
    diag = sigma_rot.diagonal().real
    if float(diag[mu < 1e-15].sum()) > 1e-9:
        return math.inf, None
    mu = np.clip(mu, 1e-18, None)
    log_mu = np.log(mu)
    f = sigma_term - float(diag @ log_mu)
    if not want_gradient:
        return f, None
    # Frechet derivative of the matrix log in the eigenbasis of rho
    delta = mu[:, None] - mu[None, :]
    same = np.abs(delta) < 1e-14 * mu.max()
    delta_safe = np.where(same, 1.0, delta)
    phi = np.where(same, 1.0 / mu[None, :], (log_mu[:, None] - log_mu[None, :]) / delta_safe)
    gradient = -(u @ (sigma_rot * phi) @ u.conj().T)
    return f, gradient


def _project_simplex(v):
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    mask = u - css / idx > 0
    theta = css[mask][-1] / idx[mask][-1]
    return np.maximum(v - theta, 0.0)


def _normalize_rows(states):
    norms = np.linalg.norm(states, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return states / norms


def _density(w, a, b) -> np.ndarray:
    """Mixture density of the optimizer's plain (w, a, b) arrays."""
    return _mixture_density(w, _product_vectors(a, b))


def _best_product_direction(gradient, dims, seeds, rng):
    """Product pure state minimizing <a b|G|a b> by alternating eigensteps."""
    d_a, d_b = dims
    g4 = gradient.reshape(d_a, d_b, d_a, d_b)
    best = None
    candidates = list(seeds)
    z = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
    candidates.append(z / np.linalg.norm(z))
    for b in candidates:
        b = np.asarray(b, dtype=complex)
        a = None
        for _ in range(4):
            m_a = np.einsum("ijkl,j,l->ik", g4, b.conj(), b)
            vals, vecs = np.linalg.eigh(m_a)
            a = vecs[:, 0]
            m_b = np.einsum("ijkl,i,k->jl", g4, a.conj(), a)
            vals, vecs = np.linalg.eigh(m_b)
            b = vecs[:, 0]
        value = float(np.einsum("i,j,ijkl,k,l", a.conj(), b.conj(), g4, a, b).real)
        if best is None or value < best[0]:
            best = (value, a, b)
    return best[1], best[2]


def _optimize_restart(sigma_mat, sigma_term, dims, w, a, b, rng):
    """Projected gradient descent with periodic direction search.

    The mixture is carried as plain arrays: weights ``w`` and the
    party-A and party-B local states ``a`` and ``b``, one row per term.
    """
    f, gradient = _objective_and_gradient(sigma_mat, sigma_term, _density(w, a, b))
    if not math.isfinite(f):
        # infeasible start (sigma support not covered): reject the
        # restart; the marginal-product start is always feasible
        return math.inf, (w, a, b), [math.inf], 0, False
    history = [f]
    step = 1.0
    stall = 0
    iterations = 0
    d_a, d_b = dims
    for iteration in range(_MAX_ITERS):
        iterations = iteration + 1
        psi = _product_vectors(a, b)
        g_psi = (psi @ gradient.T).reshape(-1, d_a, d_b)
        grad_w = np.einsum("ki,ij,kj->k", psi.conj(), gradient, psi).real
        grad_a = w[:, None] * np.einsum("kab,kb->ka", g_psi, b.conj())
        grad_b = w[:, None] * np.einsum("kab,ka->kb", g_psi, a.conj())
        improved = False
        alpha = step
        for _ in range(12):
            w_t = _project_simplex(w - alpha * grad_w)
            a_t = _normalize_rows(a - alpha * grad_a)
            b_t = _normalize_rows(b - alpha * grad_b)
            f_trial, _ = _objective_and_gradient(sigma_mat, sigma_term, _density(w_t, a_t, b_t), False)
            if f_trial < f - 1e-14:
                w, a, b, f = w_t, a_t, b_t, f_trial
                step = min(alpha * 1.5, 1e3)
                improved = True
                break
            alpha *= 0.5
        if improved:
            gradient = _objective_and_gradient(sigma_mat, sigma_term, _density(w, a, b))[1]
            history.append(f)
        if not improved or iteration % _DIRECTION_EVERY == _DIRECTION_EVERY - 1:
            # direction search: mix in the best product state for the
            # current gradient, replacing the lightest term
            heaviest = int(np.argmax(w))
            seeds = [b[heaviest]]
            a_new, b_new = _best_product_direction(gradient, dims, seeds, rng)
            lightest = int(np.argmin(w))
            for gamma in (0.5, 0.2, 0.05, 0.01):
                w_t, a_t, b_t = w.copy(), a.copy(), b.copy()
                w_t[lightest] = 0.0
                total = w_t.sum()
                if total <= 0:
                    continue
                w_t *= (1.0 - gamma) / total
                w_t[lightest] = gamma
                a_t[lightest] = a_new
                b_t[lightest] = b_new
                f_trial, _ = _objective_and_gradient(sigma_mat, sigma_term, _density(w_t, a_t, b_t), False)
                if f_trial < f - 1e-14:
                    w, a, b, f = w_t, a_t, b_t, f_trial
                    gradient = _objective_and_gradient(sigma_mat, sigma_term, _density(w, a, b))[1]
                    history.append(f)
                    improved = True
                    break
        if improved and len(history) >= 2 and history[-2] - history[-1] > _TOL:
            stall = 0
        else:
            stall += 1
            if stall >= 3:
                return f, (w, a, b), history, iterations, True
    return f, (w, a, b), history, iterations, False


def _marginal_bases(sigma: DensityOperator):
    s_a = partial_trace(sigma, [0])
    s_b = partial_trace(sigma, [1])
    p, u = np.linalg.eigh(s_a.matrix)
    q, v = np.linalg.eigh(s_b.matrix)
    return np.clip(p, 0.0, None), u, np.clip(q, 0.0, None), v


def _initial_state(sigma, dims, n_terms, restart, rng):
    """Starting mixture (w, a, b) of one restart."""
    d_a, d_b = dims
    if restart in (0, 1):
        p, u, q, v = _marginal_bases(sigma)
        local_a = []
        local_b = []
        weights = []
        for i in range(d_a):
            for j in range(d_b):
                local_a.append(u[:, i])
                local_b.append(v[:, j])
                if restart == 0:
                    weights.append(p[i] * q[j])  # product of the marginals
                else:
                    ket = np.kron(u[:, i], v[:, j])  # sigma dephased in the marginal bases
                    weights.append(float((ket.conj() @ sigma.matrix @ ket).real))
        while len(weights) < n_terms:
            z_a = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
            z_b = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
            local_a.append(z_a / np.linalg.norm(z_a))
            local_b.append(z_b / np.linalg.norm(z_b))
            weights.append(0.0)
        weights = np.clip(np.asarray(weights[:n_terms]), 0.0, None)
        weights = weights / weights.sum()
        return weights, np.asarray(local_a[:n_terms]), np.asarray(local_b[:n_terms])
    local_a = rng.standard_normal((n_terms, d_a)) + 1j * rng.standard_normal((n_terms, d_a))
    local_b = rng.standard_normal((n_terms, d_b)) + 1j * rng.standard_normal((n_terms, d_b))
    weights = rng.dirichlet(np.ones(n_terms))
    return weights, _normalize_rows(local_a), _normalize_rows(local_b)


def relative_entropy_of_entanglement(
    sigma: DensityOperator, config: REEConfig | None = None
) -> EntanglementResult:
    """min over separable rho of S(sigma || rho), in nats.

    Deterministic under a fixed config: the result is the best value
    over the configured restart schedule.  The closest separable state
    found is returned alongside optimizer diagnostics.
    """
    config = config or REEConfig()
    _require_bipartite(sigma.dims)
    dims = sigma.dims
    n_terms = _n_terms(dims)
    lam = np.linalg.eigvalsh(sigma.matrix)
    lam = lam[lam > 1e-12]
    sigma_term = float((lam * np.log(lam)).sum())

    best = None
    last_improvement = 0
    restarts_used = 0
    for restart in range(config.restarts):
        restarts_used = restart + 1
        rng = np.random.default_rng((config.seed, restart))
        w, a, b = _initial_state(sigma, dims, n_terms, restart, rng)
        f, mixture, history, iterations, converged = _optimize_restart(
            sigma.matrix, sigma_term, dims, w, a, b, rng
        )
        if best is None or f < best[0]:
            if best is not None and f < best[0] - 1e-6:
                last_improvement = restart
            best = (f, mixture, history, iterations, converged)
        if best[0] < _STOP_VALUE:
            break
        if restart - last_improvement >= _PATIENCE:
            break
    f, (w, a, b), history, iterations, converged = best
    closest = SeparableAnsatz(w, (_normalize_rows(a), _normalize_rows(b)), dims).assemble()
    value = quantum_relative_entropy(sigma, closest)
    if not math.isfinite(value):
        value = f
    return EntanglementResult(
        value=float(value),
        closest_state=closest,
        iterations=iterations,
        converged=converged,
        restarts_used=restarts_used,
        objective_history=tuple(history),
    )


def pure_state_entanglement(psi: PureState) -> float:
    """Entanglement of a bipartite pure state: entropy of either marginal."""
    _require_bipartite(psi.dims)
    rho = psi.density()
    s_a = von_neumann_entropy(partial_trace(rho, [0]))
    s_b = von_neumann_entropy(partial_trace(rho, [1]))
    if abs(s_a - s_b) > 1e-10:
        raise ValueError(f"marginal entropies disagree: {s_a!r} vs {s_b!r}")
    return s_a


def classical_correlations(sigma: DensityOperator) -> ClassicalCorrelationsResult:
    """Distance to the closest product (uncorrelated) state, in nats.

    For any product state, S(sigma || rho_A (x) rho_B) =
    S(sigma || sigma_A (x) sigma_B) + S(sigma_A || rho_A) +
    S(sigma_B || rho_B) (Vedral & Plenio, PRA 57, 1619 (1998)), so the
    minimum is attained exactly at the marginals.  It is reported next
    to its entropy form, the mutual information S(sigma_A) + S(sigma_B)
    - S(sigma), as a consistency check.
    """
    _require_bipartite(sigma.dims)
    s_a = partial_trace(sigma, [0])
    s_b = partial_trace(sigma, [1])
    mutual_information = (
        von_neumann_entropy(s_a) + von_neumann_entropy(s_b) - von_neumann_entropy(sigma)
    )
    value = quantum_relative_entropy(sigma, tensor_product(s_a, s_b))
    return ClassicalCorrelationsResult(value=value, mutual_information=float(mutual_information))


def distillation_bound(n_pairs: int, sigma: DensityOperator, *, entanglement: float | None = None,
                       config: REEConfig | None = None) -> int:
    """Largest M with N E(sigma) >= M ln 2: floor(N E / ln 2).

    A 1e-9 epsilon absorbs optimizer rounding just below integer
    boundaries.
    """
    if n_pairs < 0:
        raise ValueError("pair count must be >= 0")
    if entanglement is None:
        entanglement = relative_entropy_of_entanglement(sigma, config).value
    return int(math.floor(n_pairs * entanglement / LN2 + 1e-9))


# ---------------------------------------------------------------------------
# Samplers and instruments
# ---------------------------------------------------------------------------


def _random_local_rows(rng, n, d):
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return _normalize_rows(z)


def random_separable(rng, dims, n_terms: int = 8) -> SeparableAnsatz:
    """Random mixture of product pure states (a separable state)."""
    _require_bipartite(dims)
    weights = rng.dirichlet(np.ones(n_terms))
    return SeparableAnsatz(
        weights,
        tuple(_random_local_rows(rng, n_terms, d) for d in dims),
        tuple(dims),
    )


def _random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _psd_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def random_local_instrument(rng, dims, party: int | None = None) -> list[np.ndarray]:
    """Two-outcome local instrument {V_i} with sum V_i^dag V_i = identity.

    The V_i act on one randomly chosen party (identity on the other),
    built from a random effect pair composed with random local
    unitaries, i.e. a local generalized measurement with post-selection
    branches.
    """
    _require_bipartite(dims)
    if party is None:
        party = int(rng.integers(0, 2))
    d = dims[party]
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    effect = z.conj().T @ z
    effect *= float(rng.uniform(0.2, 0.8)) / np.linalg.eigvalsh(effect)[-1]
    kraus = []
    for e in (effect, np.eye(d) - effect):
        kraus.append(_random_unitary(rng, d) @ _psd_sqrt(e))
    identity_other = np.eye(dims[1 - party])
    if party == 0:
        return [np.kron(k, identity_other) for k in kraus]
    return [np.kron(identity_other, k) for k in kraus]


def apply_instrument(sigma: DensityOperator, kraus) -> list[tuple[float, DensityOperator]]:
    """Outcome branches (probability, normalized post-state)."""
    branches = []
    for v in kraus:
        out = v @ sigma.matrix @ v.conj().T
        p = float(np.trace(out).real)
        if p < 1e-12:
            continue
        branches.append((p, DensityOperator(out / p, sigma.dims, eig_tol=1e-9)))
    return branches


# ---------------------------------------------------------------------------
# Axiom harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    description: str
    passed: bool
    cases: int
    worst: float


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "axiom": c.axiom,
                    "description": c.description,
                    "passed": c.passed,
                    "cases": c.cases,
                    "worst": c.worst,
                }
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class HarnessConfig:
    """Case counts and tolerances for the axiom harness."""

    seed: int = 0
    n_separable: int = 20
    n_unitaries: int = 20
    n_instruments: int = 10
    n_pure: int = 20
    n_perturbations: int = 5
    perturbation: float = 0.01
    tol: float = 1e-3
    continuity_factor: float = 10.0
    include_additivity: bool = True
    additivity_tol: float = 2e-2
    ree_config: REEConfig = field(default_factory=REEConfig)


def _default_measure(config: HarnessConfig):
    def measure(sigma: DensityOperator) -> float:
        return relative_entropy_of_entanglement(sigma, config.ree_config).value

    return measure


def bell_state(dims=(2, 2)) -> DensityOperator:
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return PureState(amps, dims).density()


def _random_two_qubit_state(rng) -> DensityOperator:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real, (2, 2))


def check_separable_zero(measure, *, n_cases=20, seed=0, tol=1e-3) -> AxiomCheck:
    """E1 (zero direction): assembled separable states measure ~0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        sigma = random_separable(rng, (2, 2)).assemble()
        worst = max(worst, measure(sigma))
    return AxiomCheck("E1", "separable states have zero measure", worst < tol, n_cases, worst)


def check_local_unitary_invariance(measure, *, n_cases=20, seed=0, tol=1e-3,
                                   sigma: DensityOperator | None = None) -> AxiomCheck:
    """E2: invariance under U_A (x) U_B conjugation."""
    rng = np.random.default_rng(seed)
    sigma = sigma or bell_state()
    reference = measure(sigma)
    worst = 0.0
    d_a, d_b = sigma.dims
    for _ in range(n_cases):
        u = np.kron(_random_unitary(rng, d_a), _random_unitary(rng, d_b))
        rotated = DensityOperator(u @ sigma.matrix @ u.conj().T, sigma.dims)
        worst = max(worst, abs(measure(rotated) - reference))
    return AxiomCheck("E2", "local unitary invariance", worst < tol, n_cases, worst)


def check_lgm_monotonicity(measure, *, n_cases=10, seed=0, tol=1e-3,
                           states=None) -> AxiomCheck:
    """E3: expected measure cannot grow under local instruments.

    sum_i tr(sigma_i) E(sigma_i / tr sigma_i) <= E(sigma) + tol for
    random local generalized measurements with post-selection.
    """
    rng = np.random.default_rng(seed)
    if states is None:
        states = [bell_state(), _random_two_qubit_state(rng)]
    worst = -math.inf
    count = 0
    for sigma in states:
        before = measure(sigma)
        for _ in range(n_cases):
            kraus = random_local_instrument(rng, sigma.dims)
            after = sum(p * measure(branch) for p, branch in apply_instrument(sigma, kraus))
            worst = max(worst, after - before)
            count += 1
    return AxiomCheck("E3", "monotone under local instruments", worst <= tol, count, worst)


def check_continuity(measure, *, n_cases=5, seed=0, perturbation=0.01,
                     factor=10.0) -> AxiomCheck:
    """E4: small perturbations move the measure by O(perturbation)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        sigma = _random_two_qubit_state(rng)
        tau = _random_two_qubit_state(rng)
        mixed = DensityOperator(
            (1.0 - perturbation) * sigma.matrix + perturbation * tau.matrix, sigma.dims
        )
        trace_dist = 0.5 * float(np.abs(np.linalg.eigvalsh(sigma.matrix - mixed.matrix)).sum())
        delta = abs(measure(sigma) - measure(mixed))
        worst = max(worst, delta - factor * trace_dist)
    return AxiomCheck("E4", "continuity under perturbation", worst <= 1e-3, n_cases, worst)


def check_pure_state_reduction(measure, *, n_cases=20, seed=0, tol=1e-3) -> AxiomCheck:
    """E5: on pure states the measure is the reduced-state entropy."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = PureState(z / np.linalg.norm(z), (2, 2))
        expected = pure_state_entanglement(psi)
        worst = max(worst, abs(measure(psi.density()) - expected))
    return AxiomCheck("E5", "reduces to reduced-state entropy on pure states", worst < tol, n_cases, worst)


def pair_state(sigma1: DensityOperator, sigma2: DensityOperator) -> DensityOperator:
    """sigma1 (x) sigma2 regrouped to the (A1 A2 | B1 B2) bipartition."""
    _require_bipartite(sigma1.dims)
    _require_bipartite(sigma2.dims)
    a1, b1 = sigma1.dims
    a2, b2 = sigma2.dims
    joint = np.kron(sigma1.matrix, sigma2.matrix)
    t = joint.reshape(a1, b1, a2, b2, a1, b1, a2, b2)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    dims = (a1 * a2, b1 * b2)
    return DensityOperator(t.reshape(a1 * a2 * b1 * b2, -1), dims)


def check_additivity_pair(measure, sigma1: DensityOperator, sigma2: DensityOperator,
                          *, tol=2e-2) -> AxiomCheck:
    """E6 on one specific pair; no universality is claimed.

    Later literature disputes additivity of this measure in general, so
    the harness only reports specific instances.
    """
    single = measure(sigma1) + measure(sigma2)
    joint = measure(pair_state(sigma1, sigma2))
    gap = abs(joint - single)
    return AxiomCheck("E6", "additivity on a specific pair (report only)", gap < tol, 1, gap)


def axiom_harness(measure=None, config: HarnessConfig | None = None) -> AxiomReport:
    """Run the E1-E6 suite for a measure callable; always returns a report."""
    config = config or HarnessConfig()
    if measure is None:
        measure = _default_measure(config)
    checks = [
        check_separable_zero(measure, n_cases=config.n_separable, seed=config.seed, tol=config.tol),
        check_local_unitary_invariance(
            measure, n_cases=config.n_unitaries, seed=config.seed + 1, tol=config.tol
        ),
        check_lgm_monotonicity(
            measure, n_cases=config.n_instruments, seed=config.seed + 2, tol=config.tol
        ),
        check_continuity(
            measure,
            n_cases=config.n_perturbations,
            seed=config.seed + 3,
            perturbation=config.perturbation,
            factor=config.continuity_factor,
        ),
        check_pure_state_reduction(measure, n_cases=config.n_pure, seed=config.seed + 4, tol=config.tol),
    ]
    if config.include_additivity:
        pair_config = replace(config.ree_config, restarts=max(4, config.ree_config.restarts // 4))

        def pair_measure(sigma):
            if int(np.prod(sigma.dims)) > 4:
                return relative_entropy_of_entanglement(sigma, pair_config).value
            return measure(sigma)

        checks.append(
            check_additivity_pair(pair_measure, bell_state(), bell_state(), tol=config.additivity_tol)
        )
    return AxiomReport(tuple(checks))
