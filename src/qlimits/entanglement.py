"""Relative entropy of entanglement and its axiom suite.

The measure is E(sigma) = min over separable rho of S(sigma || rho).
Each solve goes to the cheapest exact route that applies:

* a pure input (top eigenvalue within 1e-12 of 1) has E equal to the
  entropy of its Schmidt weights, attained at sum_i p_i |ii><ii| in the
  Schmidt basis (Vedral & Plenio, PRA 57, 1619 (1998));
* in 2x2 and 2x3 a state whose partial transpose has no eigenvalue
  below -1e-12 is treated as PPT, and PPT states there are separable
  (Horodecki, Horodecki & Horodecki, PLA 223, 1 (1996)).  The closest
  state is sigma itself, or, when the partial transpose dips below 0 by
  eps, (1 - q) sigma + q I/d with the smallest q that makes it PPT; the
  value is then at most ln(1 + d eps).

No closed form is known otherwise, so the minimum is searched
numerically: separable states are parametrized as convex mixtures of K
product pure states and optimized by one projected gradient descent on
the weights and local states, interleaved with best-product-direction
steps.  The descent starts from sigma dephased in the eigenbases of its
marginals, a separable state no farther from sigma than the product of
its marginals, so the result never exceeds the feasible-point bound
S(sigma || sigma_A (x) sigma_B).  Because every iterate is separable,
the returned value is always an upper bound on the true minimum.

The descent draws its random terms from a fixed internal seed, so
results are reproducible.  Only bipartite inputs up to total dimension
16 are supported; the multipartite minimization is out of scope.

The classical correlations need no search: the distance from sigma to
the closest product state is attained exactly at the product of its
marginals, where it equals the mutual information.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ENTROPY_EIGENVALUE_CUTOFF,
    DensityOperator,
    PureState,
    partial_trace,
    quantum_relative_entropy,
    tensor_product,
    von_neumann_entropy,
)

__all__ = [
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

# Optimizer schedule, part of the deterministic contract: the iteration
# cap of the descent, the per-step gain that resets the stall counter,
# and the spacing of best-product-direction steps.
_MAX_ITERS = 3000
_TOL = 1e-8
_DIRECTION_EVERY = 4

# Closed-form routes: a spectrum within _PURE_TOL of 1 counts as pure, a
# partial transpose no lower than -_PPT_TOL as positive; the PPT test
# certifies separability only up to total dimension _PPT_MAX_DIM.
_PURE_TOL = 1e-12
_PPT_TOL = 1e-12
_PPT_MAX_DIM = 6


def _n_terms(dims) -> int:
    """Number of product terms in the separable ansatz."""
    return max(8, int(np.prod(dims)) + 4)


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
    """Measure value in nats plus optimizer diagnostics.

    ``stop_reason`` names the route that produced the value: ``"pure"``
    or ``"ppt"`` for the closed forms (``restarts_used`` 0, no
    iterations), or how the search's one descent (``restarts_used`` 1)
    ended: ``"stall"`` (three iterations in a row gained at most 1e-8,
    ``converged`` true) or ``"max_iters"`` (the 3000-iteration cap).
    """

    value: float
    closest_state: DensityOperator
    iterations: int
    converged: bool
    restarts_used: int
    stop_reason: str
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


def _objective(sigma_mat, sigma_term, rho):
    """f = tr(sigma ln sigma) - tr(sigma ln rho) and the spectrum behind it.

    The second element is what :func:`_gradient` needs, so a trial
    state that is accepted costs no second ``eigh``.  Returns
    (inf, None) for trial states that lose the support of sigma; such
    points are rejected by the line search, never averaged.
    """
    mu, u = np.linalg.eigh(rho)
    sigma_rot = u.conj().T @ sigma_mat @ u
    diag = sigma_rot.diagonal().real
    if float(diag[mu < 1e-15].sum()) > 1e-9:
        return math.inf, None
    mu = np.maximum(mu, 1e-18)
    log_mu = np.log(mu)
    return sigma_term - float(diag @ log_mu), (mu, log_mu, u, sigma_rot)


def _gradient(spectrum):
    """dF/drho from the spectrum returned by :func:`_objective`."""
    mu, log_mu, u, sigma_rot = spectrum
    # Frechet derivative of the matrix log in the eigenbasis of rho
    delta = mu[:, None] - mu[None, :]
    same = np.abs(delta) < 1e-14 * mu.max()
    delta_safe = np.where(same, 1.0, delta)
    phi = np.where(same, 1.0 / mu[None, :], (log_mu[:, None] - log_mu[None, :]) / delta_safe)
    return -(u @ (sigma_rot * phi) @ u.conj().T)


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


def _best_product_direction(gradient, dims, seeds, rng):
    """Product pure state minimizing <a b|G|a b> by alternating eigensteps.

    The candidates (the party-B ``seeds`` and one random party-B state)
    step together: each half-step is one stacked einsum and ``eigh``.
    The first candidate wins ties.
    """
    d_a, d_b = dims
    g4 = gradient.reshape(d_a, d_b, d_a, d_b)
    z = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
    b = np.vstack([*seeds, z / np.linalg.norm(z)])
    for _ in range(4):
        m_a = np.einsum("ijkl,cj,cl->cik", g4, b.conj(), b)
        a = np.linalg.eigh(m_a)[1][:, :, 0]
        m_b = np.einsum("ijkl,ci,ck->cjl", g4, a.conj(), a)
        b = np.linalg.eigh(m_b)[1][:, :, 0]
    values = np.einsum("ci,cj,ijkl,ck,cl->c", a.conj(), b.conj(), g4, a, b).real
    best = int(np.argmin(values))
    return a[best], b[best]


def _optimize_restart(sigma_mat, sigma_term, dims, w, a, b, rng):
    """Projected gradient descent with periodic direction search.

    The mixture is carried as plain arrays: weights ``w`` and the
    party-A and party-B local states ``a`` and ``b``, one row per term.
    """
    psi = _product_vectors(a, b)
    f, spectrum = _objective(sigma_mat, sigma_term, _mixture_density(w, psi))
    gradient = _gradient(spectrum)
    history = [f]
    step = 1.0
    stall = 0
    iterations = 0
    d_a, d_b = dims
    for iteration in range(_MAX_ITERS):
        iterations = iteration + 1
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
            psi_t = _product_vectors(a_t, b_t)
            f_trial, spectrum = _objective(sigma_mat, sigma_term, _mixture_density(w_t, psi_t))
            if f_trial < f - 1e-14:
                w, a, b, psi, f = w_t, a_t, b_t, psi_t, f_trial
                gradient = _gradient(spectrum)
                history.append(f)
                step = min(alpha * 1.5, 1e3)
                improved = True
                break
            alpha *= 0.5
        if not improved or iteration % _DIRECTION_EVERY == _DIRECTION_EVERY - 1:
            # direction search: mix in the best product state for the
            # current gradient, replacing the lightest term; near a
            # rank-deficient input the best mixing weight is about 1e-3,
            # so the ladder reaches down to 1e-4
            heaviest = int(np.argmax(w))
            a_new, b_new = _best_product_direction(gradient, dims, [b[heaviest]], rng)
            lightest = int(np.argmin(w))
            a_t, b_t = a.copy(), b.copy()
            a_t[lightest] = a_new
            b_t[lightest] = b_new
            psi_t = _product_vectors(a_t, b_t)
            rest = w.copy()
            rest[lightest] = 0.0
            total = rest.sum()  # >= 1 - 1/K, as the lightest of K weights is dropped
            for gamma in (0.5, 0.2, 0.05, 0.01, 2e-3, 5e-4, 1e-4):
                w_t = rest * ((1.0 - gamma) / total)
                w_t[lightest] = gamma
                f_trial, spectrum = _objective(sigma_mat, sigma_term, _mixture_density(w_t, psi_t))
                if f_trial < f - 1e-14:
                    w, a, b, psi, f = w_t, a_t, b_t, psi_t, f_trial
                    gradient = _gradient(spectrum)
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


def _initial_state(sigma, rng):
    """sigma dephased in the eigenbases of its marginals, as a mixture (w, a, b).

    The kets u_i (x) v_j carry the weights <u_i v_j|sigma|u_i v_j>; random
    product terms of weight 0 pad the mixture to ``_n_terms``.  The
    dephased state is diagonal in the same basis as sigma_A (x) sigma_B,
    so S(sigma || sigma_A (x) sigma_B) = S(sigma || start) + S(start ||
    sigma_A (x) sigma_B), and it covers the support of sigma.
    """
    d_a, d_b = sigma.dims
    u = np.linalg.eigh(partial_trace(sigma, [0]).matrix)[1]
    v = np.linalg.eigh(partial_trace(sigma, [1]).matrix)[1]
    a = np.repeat(u.T, d_b, axis=0)
    b = np.tile(v.T, (d_a, 1))
    kets = _product_vectors(a, b)
    weights = np.clip(np.einsum("ki,ij,kj->k", kets.conj(), sigma.matrix, kets).real, 0.0, None)
    n_pad = _n_terms(sigma.dims) - d_a * d_b
    a = np.vstack([a, _random_local_rows(rng, n_pad, d_a)])
    b = np.vstack([b, _random_local_rows(rng, n_pad, d_b)])
    weights = np.concatenate([weights / weights.sum(), np.zeros(n_pad)])
    return weights, a, b


def relative_entropy_of_entanglement(sigma: DensityOperator) -> EntanglementResult:
    """min over separable rho of S(sigma || rho), in nats.

    Pure inputs (top eigenvalue within 1e-12 of 1) return the entropy
    of the Schmidt weights; PPT inputs in 2x2 and 2x3 (partial-transpose
    spectrum >= -1e-12) return S(sigma || rho') for the nearest PPT
    mixture rho' of sigma and white noise, which is exactly 0 when the
    partial transpose is positive.  Both report no restarts and no
    iterations.  Every other input runs one deterministic descent.
    ``stop_reason`` names the route, and the closest separable state is
    returned either way.
    """
    _require_bipartite(sigma.dims)
    lam, vecs = np.linalg.eigh(sigma.matrix)
    if lam[-1] > 1.0 - _PURE_TOL:
        return _pure_closed_form(sigma, vecs[:, -1])
    if sigma.dim <= _PPT_MAX_DIM:
        d_a, d_b = sigma.dims
        gamma = sigma.matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(sigma.dim, -1)
        gamma_min = float(np.linalg.eigvalsh(gamma)[0])
        if gamma_min >= -_PPT_TOL:
            return _ppt_closed_form(sigma, gamma_min)
    return _search(sigma)


def _closed_form(value, closest, stop_reason) -> EntanglementResult:
    return EntanglementResult(
        value=float(value),
        closest_state=closest,
        iterations=0,
        converged=True,
        restarts_used=0,
        stop_reason=stop_reason,
    )


def _pure_closed_form(sigma: DensityOperator, psi) -> EntanglementResult:
    """S(sigma_A), attained at sum_i p_i |u_i v_i><u_i v_i| in the Schmidt basis of psi.

    The weights p_i and vectors u_i diagonalize M M^dag for the
    amplitude matrix M of psi; the partner v_i is the row u_i^dag M,
    normalized.  Weights at or below the entropy cutoff are dropped,
    as in the entropy itself.
    """
    m = psi.reshape(sigma.dims)
    p, u = np.linalg.eigh(m @ m.conj().T)
    kept = p > ENTROPY_EIGENVALUE_CUTOFF
    p, u = p[kept] / p[kept].sum(), u[:, kept]
    closest = SeparableAnsatz(p, (u.T, _normalize_rows(u.conj().T @ m)), sigma.dims).assemble()
    return _closed_form(von_neumann_entropy(partial_trace(sigma, [0])), closest, "pure")


def _ppt_closed_form(sigma: DensityOperator, gamma_min: float) -> EntanglementResult:
    """sigma is separable, or (1 - q) sigma + q I/d is, for the smallest such q."""
    if gamma_min >= 0.0:
        return _closed_form(0.0, sigma, "ppt")
    d = sigma.dim
    q = -gamma_min * d / (1.0 - gamma_min * d)
    closest = DensityOperator((1.0 - q) * sigma.matrix + q * np.eye(d) / d, sigma.dims)
    return _closed_form(quantum_relative_entropy(sigma, closest), closest, "ppt")


def _search(sigma: DensityOperator) -> EntanglementResult:
    """One projected gradient descent from the marginal-basis dephased
    state; the route for every input without a closed form, and callable
    on its own to test the optimizer."""
    dims = sigma.dims
    lam = np.linalg.eigvalsh(sigma.matrix)
    lam = lam[lam > 1e-12]
    sigma_term = float((lam * np.log(lam)).sum())
    rng = np.random.default_rng(0)  # padding terms and direction candidates
    w, a, b = _initial_state(sigma, rng)
    f, (w, a, b), history, iterations, converged = _optimize_restart(
        sigma.matrix, sigma_term, dims, w, a, b, rng
    )
    closest = SeparableAnsatz(w, (_normalize_rows(a), _normalize_rows(b)), dims).assemble()
    value = quantum_relative_entropy(sigma, closest)
    if not math.isfinite(value):
        value = f
    return EntanglementResult(
        value=float(value),
        closest_state=closest,
        iterations=iterations,
        converged=converged,
        restarts_used=1,
        stop_reason="stall" if converged else "max_iters",
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


def distillation_bound(n_pairs: int, sigma: DensityOperator, *, entanglement: float | None = None) -> int:
    """Largest M with N E(sigma) >= M ln 2: floor(N E / ln 2).

    A 1e-9 epsilon absorbs optimizer rounding just below integer
    boundaries.
    """
    if n_pairs < 0:
        raise ValueError("pair count must be >= 0")
    if entanglement is None:
        entanglement = relative_entropy_of_entanglement(sigma).value
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


def _default_measure(sigma: DensityOperator) -> float:
    return relative_entropy_of_entanglement(sigma).value


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
    measure = measure or _default_measure
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
        checks.append(
            check_additivity_pair(measure, bell_state(), bell_state(), tol=config.additivity_tol)
        )
    return AxiomReport(tuple(checks))
