"""Relative entropy of entanglement and its axiom suite.

The measure is E(sigma) = min over separable rho of S(sigma || rho).
Each solve goes to the cheapest exact route that applies:

* a pure input (top eigenvalue within 1e-12 of 1) has E equal to the
  entropy of its Schmidt weights, attained at sum_i p_i |ii><ii| in the
  Schmidt basis (Vedral & Plenio, PRA 57, 1619 (1998));
* in 2x2 and 2x3 a state whose partial transpose has no eigenvalue
  below -eig_tol, sigma's own state floor, is PPT, and PPT states there
  are separable (Horodecki, Horodecki & Horodecki, PLA 223, 1 (1996)).
  The closest state is sigma itself, or, when the partial transpose
  dips below 0 by eps, (1 - q) sigma + q I/d with the smallest q that
  makes it PPT; the value is then at most ln(1 + d eps);
* an NPT two-qubit state whose marginals are both within 1e-12 of I/2
  is Bell-diagonal up to local unitaries (R. & M. Horodecki, PRA 54,
  1838 (1996)), and E = ln 2 + F ln F + (1 - F) ln(1 - F) for its top
  eigenvalue F > 1/2 (Vedral & Plenio, PRA 57, 1619 (1998)).

No closed form is known otherwise, so the minimum is searched
numerically: separable states are parametrized as convex mixtures of K
product pure states and optimized by one projected gradient descent on
the weights and local states, with Barzilai-Borwein (spectral) step
sizes, interleaved with best-product-direction steps.  The descent
starts from sigma dephased in the eigenbases of its marginals, a
separable state no farther from sigma than the product of its
marginals, so the result never exceeds the feasible-point bound
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
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    ENTROPY_EIGENVALUE_CUTOFF,
    DensityOperator,
    PureState,
    _spectrum_entropy,
    partial_trace,
    quantum_relative_entropy,
    tensor_product,
    von_neumann_entropy,
)

__all__ = [
    "EntanglementResult",
    "ClassicalCorrelationsResult",
    "AxiomCheck",
    "AxiomReport",
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
# the spacing of best-product-direction steps, and how many halved
# trials a gradient step may take.
_MAX_ITERS = 3000
_TOL = 1e-8
_DIRECTION_EVERY = 4
_TRIALS = 30

# Closed-form routes: a spectrum within _PURE_TOL of 1 counts as pure, a
# partial transpose no lower than -sigma.eig_tol as positive; the PPT test
# certifies separability only up to total dimension _PPT_MAX_DIM.  A
# two-qubit marginal within _MARGINAL_TOL of I/2 counts as maximally mixed.
_PURE_TOL = 1e-12
_PPT_MAX_DIM = 6
_MARGINAL_TOL = 1e-12
_CLOSED_FORMS = ("pure", "ppt", "bell_diagonal")


def _n_terms(dims) -> int:
    """Product terms in a searched mixture: d + 4 up to total dimension d =
    _PPT_MAX_DIM; above it 3d, as fewer leave the descent far above the Werner closed form."""
    d = int(np.prod(dims))
    return d + 4 if d <= _PPT_MAX_DIM else 3 * d


def _product_vectors(a, b) -> np.ndarray:
    """(K, da*db) array of the product kets a_k (x) b_k."""
    return np.einsum("ka,kb->kab", a, b).reshape(a.shape[0], -1)


def _mixture_density(weights, psi) -> np.ndarray:
    """sum_k w_k |psi_k><psi_k| as a plain matrix."""
    return np.einsum("k,ki,kj->ij", weights, psi, psi.conj())


def _separable_state(w, a, b, dims) -> DensityOperator:
    """sum_k w_k |a_k b_k><a_k b_k| with ``w`` clipped at 0 and renormalized; rows
    of ``a`` or ``b`` that are not unit vectors break the trace, which DensityOperator rejects."""
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    return DensityOperator(_mixture_density(w / w.sum(), _product_vectors(a, b)), dims)


@dataclass
class EntanglementResult:
    """Measure value in nats plus optimizer diagnostics.

    ``stop_reason`` names the route that produced the value: ``"pure"``,
    ``"ppt"`` or ``"bell_diagonal"`` for the closed forms (no
    iterations), or how the search's one descent ended: ``"stall"``
    (three iterations in a row gained at most 1e-8) or ``"max_iters"``
    (the 3000-iteration cap).  ``converged`` and ``restarts_used`` (0
    for a closed form, else 1) are derived from it; the CLI reports
    them as ``"converged"`` and ``"restarts"``.
    """

    value: float
    closest_state: DensityOperator
    stop_reason: str
    iterations: int = 0
    objective_history: tuple[float, ...] = field(repr=False, default=())

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iters"

    @property
    def restarts_used(self) -> int:
        return 0 if self.stop_reason in _CLOSED_FORMS else 1


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


def _best_product_direction(gradient, dims, seed, rng):
    """Product pure state minimizing <a b|G|a b> by alternating eigensteps.

    The two candidates (the party-B ket ``seed`` and one random party-B
    state) step together: each half-step is one stacked einsum and
    ``eigh``.  The seed wins ties.
    """
    d_a, d_b = dims
    g4 = gradient.reshape(d_a, d_b, d_a, d_b)
    z = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
    b = np.vstack([seed, z / np.linalg.norm(z)])
    for _ in range(4):
        m_a = np.einsum("ijkl,cj,cl->cik", g4, b.conj(), b)
        a = np.linalg.eigh(m_a)[1][:, :, 0]
        m_b = np.einsum("ijkl,ci,ck->cjl", g4, a.conj(), a)
        b = np.linalg.eigh(m_b)[1][:, :, 0]
    values = np.einsum("ci,cj,ijkl,ck,cl->c", a.conj(), b.conj(), g4, a, b).real
    best = int(np.argmin(values))
    return a[best], b[best]


def _descend(sigma_mat, sigma_term, dims, w, a, b, rng):
    """Projected gradient descent with spectral steps and periodic direction search.

    The mixture is carried as plain arrays: weights ``w`` and the
    party-A and party-B local states ``a`` and ``b``, one row per term.
    Each gradient step first tries the Barzilai-Borwein step <s,s>/<s,y>
    (Barzilai & Borwein, IMA J. Numer. Anal. 8, 141 (1988)), where s and
    y are the changes of (w, a, b) and of their gradients over the last
    accepted gradient step; without such a pair (at the start, after a
    direction step) or with <s,y> <= 0 it tries the last accepted step.
    A trial is halved until the objective strictly decreases.
    Returns (f, (w, a, b), history, iterations, stop_reason).
    """
    psi = _product_vectors(a, b)
    f, spectrum = _objective(sigma_mat, sigma_term, _mixture_density(w, psi))
    gradient = _gradient(spectrum)
    history = [f]
    step = 1.0
    previous = None  # (w, a, b) and their gradients before the last gradient step
    stall = 0
    d_a, d_b = dims
    for iterations in range(1, _MAX_ITERS + 1):
        g_psi = (psi @ gradient.T).reshape(-1, d_a, d_b)
        grad_w = np.einsum("ki,ij,kj->k", psi.conj(), gradient, psi).real
        grad_a = w[:, None] * np.einsum("kab,kb->ka", g_psi, b.conj())
        grad_b = w[:, None] * np.einsum("kab,ka->kb", g_psi, a.conj())
        alpha = step
        if previous is not None:
            s = [new - old for new, old in zip((w, a, b), previous[0])]
            y = [new - old for new, old in zip((grad_w, grad_a, grad_b), previous[1])]
            sy = sum(np.vdot(si, yi).real for si, yi in zip(s, y))
            if sy > 0.0:
                alpha = sum(np.vdot(si, si).real for si in s) / sy
        improved = False
        for _ in range(_TRIALS):
            w_t = _project_simplex(w - alpha * grad_w)
            a_t = _normalize_rows(a - alpha * grad_a)
            b_t = _normalize_rows(b - alpha * grad_b)
            psi_t = _product_vectors(a_t, b_t)
            f_trial, spectrum = _objective(sigma_mat, sigma_term, _mixture_density(w_t, psi_t))
            if f_trial < f - 1e-14:
                previous = ((w, a, b), (grad_w, grad_a, grad_b))
                w, a, b, psi, f = w_t, a_t, b_t, psi_t, f_trial
                gradient = _gradient(spectrum)
                history.append(f)
                step = alpha
                improved = True
                break
            alpha *= 0.5
        if not improved or iterations % _DIRECTION_EVERY == 0:
            # direction search: mix in the best product state for the
            # current gradient, replacing the lightest term; near a
            # rank-deficient input the best mixing weight is about 1e-3,
            # so the ladder reaches down to 1e-4
            heaviest = int(np.argmax(w))
            a_new, b_new = _best_product_direction(gradient, dims, b[heaviest], rng)
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
                    previous = None
                    improved = True
                    break
        # an accepted step always follows the start, so history[-2] exists
        stall = 0 if improved and history[-2] - history[-1] > _TOL else stall + 1
        if stall == 3:
            return f, (w, a, b), history, iterations, "stall"
    return f, (w, a, b), history, _MAX_ITERS, "max_iters"


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
    of the Schmidt weights; inputs with a factor of dimension 1 return 0
    with stop reason "ppt", and the input as the closest state; PPT
    inputs in 2x2 and 2x3 (partial-transpose spectrum >= -sigma.eig_tol)
    return S(sigma || rho') for the nearest PPT mixture rho' of sigma and
    white noise, which is exactly 0 when the partial transpose is positive;
    NPT 2x2 inputs with maximally mixed marginals return the
    Bell-diagonal closed form.  These report no restarts and no
    iterations.  Every other input runs one deterministic descent.
    ``stop_reason`` names the route, and the closest separable state is
    returned either way.
    """
    _require_bipartite(sigma.dims)
    lam, vecs = np.linalg.eigh(sigma.matrix)
    if lam[-1] > 1.0 - _PURE_TOL:
        return _pure_closed_form(sigma, vecs[:, -1])
    if min(sigma.dims) == 1:
        # every state of a product space is a product state
        return EntanglementResult(0.0, sigma, "ppt")
    if sigma.dim <= _PPT_MAX_DIM:
        d_a, d_b = sigma.dims
        gamma = sigma.matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(sigma.dim, -1)
        gamma_min = float(np.linalg.eigvalsh(gamma)[0])
        if gamma_min >= -sigma.eig_tol:
            return _ppt_closed_form(sigma, lam, gamma_min)
        if sigma.dims == (2, 2) and _marginals_maximally_mixed(sigma.matrix):
            return _bell_diagonal_closed_form(sigma, lam, vecs)
    return _search(sigma)


def _pure_closed_form(sigma: DensityOperator, psi) -> EntanglementResult:
    """S(sigma_A), attained at sum_i p_i |u_i v_i><u_i v_i| in the Schmidt basis of psi.

    The weights p_i and vectors u_i diagonalize M M^dag for the
    amplitude matrix M of psi; the partner v_i is the row u_i^dag M,
    normalized.  Weights at or below the entropy cutoff are dropped and
    the rest renormalized; the value is the entropy of these weights,
    so a product state has exactly one weight, 1, and the value 0.
    """
    m = psi.reshape(sigma.dims)
    p, u = np.linalg.eigh(m @ m.conj().T)
    kept = p > ENTROPY_EIGENVALUE_CUTOFF
    p, u = p[kept] / p[kept].sum(), u[:, kept]
    closest = _separable_state(p, u.T, _normalize_rows(u.conj().T @ m), sigma.dims)
    return EntanglementResult(_spectrum_entropy(p), closest, "pure")


def _ppt_closed_form(sigma: DensityOperator, lam, gamma_min: float) -> EntanglementResult:
    """sigma is separable, or (1 - q) sigma + q I/d is, for the smallest such q.

    The mixture shares the eigenbasis of sigma, so with sigma's spectrum
    ``lam`` and the mixture's r = (1 - q) lam + q/d, the value
    S(sigma||mixture) is sum_i [lam_i ln(lam_i/r_i) - lam_i + r_i], whose
    added terms sum to 0.  Each term is r_i ((1 + x) log1p(x) - x) with
    x = lam_i/r_i - 1, which is >= 0 and keeps its digits when lam_i is
    near r_i; an eigenvalue at or below 0 counts as 0, with 0 ln 0 = 0.
    """
    if gamma_min >= 0.0:
        return EntanglementResult(0.0, sigma, "ppt")
    d = sigma.dim
    q = -gamma_min * d / (1.0 - gamma_min * d)
    closest = DensityOperator((1.0 - q) * sigma.matrix + q * np.eye(d) / d, sigma.dims, sigma.eig_tol)
    lam = np.clip(lam, 0.0, None)
    r = (1.0 - q) * lam + q / d
    x = lam / r - 1.0
    log_ratio = np.log1p(x, out=np.zeros_like(x), where=lam > 0.0)
    return EntanglementResult(float((r * ((1.0 + x) * log_ratio - x)).sum()), closest, "ppt")


def _marginals_maximally_mixed(matrix) -> bool:
    """Both marginals of a two-qubit matrix are within _MARGINAL_TOL of I/2."""
    t = matrix.reshape(2, 2, 2, 2)
    half = np.eye(2) / 2.0
    return all(
        np.abs(marginal - half).max() <= _MARGINAL_TOL
        for marginal in (np.einsum("ikjk->ij", t), np.einsum("kikj->ij", t))
    )


def _bell_diagonal_closed_form(sigma: DensityOperator, lam, vecs) -> EntanglementResult:
    """ln 2 + F ln F + (1 - F) ln(1 - F) for an NPT two-qubit input with maximally
    mixed marginals, whose top eigenvalue ``lam[-1]`` is F > 1/2.

    Local unitaries take such a state to a Bell-diagonal one (R. & M.
    Horodecki, PRA 54, 1838 (1996)), whose closest separable state
    lowers the top Bell weight to 1/2 and rescales the others to sum to
    1/2 (Vedral & Plenio, PRA 57, 1619 (1998)).  The closest state is
    built in the eigenbasis ``vecs`` of sigma; eigenvalues below zero by
    rounding are clipped first, as rescaling by 1/(2(1 - F)) would
    magnify them; near F = 1 it also magnifies rounding in the
    eigenvectors of near-degenerate eigenvalues, so at 1 - F = 1e-9 the
    partial transpose of the closest state may dip to about -1e-10.
    Should no positive weight remain off the top (sigma pure within
    rounding), the other three share 1/2 evenly.
    """
    fidelity = float(lam[-1])
    rest = np.clip(lam[:-1], 0.0, None)
    total = float(rest.sum())
    mu = np.append(rest / (2.0 * total) if total > 0.0 else np.full(3, 1.0 / 6.0), 0.5)
    closest = DensityOperator((vecs * mu) @ vecs.conj().T, sigma.dims)
    value = LN2 + fidelity * math.log(fidelity) + (1.0 - fidelity) * math.log(1.0 - fidelity)
    return EntanglementResult(value, closest, "bell_diagonal")


def _search(sigma: DensityOperator) -> EntanglementResult:
    """One projected gradient descent from the marginal-basis dephased
    state; the route for every input without a closed form, and callable
    on its own to test the optimizer."""
    rng = np.random.default_rng(0)  # padding terms and direction candidates
    w, a, b = _initial_state(sigma, rng)
    f, (w, a, b), history, iterations, stop_reason = _descend(
        sigma.matrix, -von_neumann_entropy(sigma), sigma.dims, w, a, b, rng
    )
    closest = _separable_state(w, _normalize_rows(a), _normalize_rows(b), sigma.dims)
    value = quantum_relative_entropy(sigma, closest)
    if not math.isfinite(value):
        value = f
    return EntanglementResult(value, closest, stop_reason, iterations, tuple(history))


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


def distillation_bound(n_pairs: int, entanglement: float) -> int:
    """Largest M with N E >= M ln 2: floor(N E / ln 2), for E the
    entanglement of one pair in nats.

    A 1e-9 epsilon absorbs optimizer rounding just below integer
    boundaries.
    """
    if n_pairs < 0:
        raise ValueError("pair count must be >= 0")
    return int(math.floor(n_pairs * entanglement / LN2 + 1e-9))


# ---------------------------------------------------------------------------
# Samplers and instruments
# ---------------------------------------------------------------------------


def _random_local_rows(rng, n, d):
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return _normalize_rows(z)


def random_separable(rng, dims) -> DensityOperator:
    """Random mixture of 8 product pure states (a separable state)."""
    _require_bipartite(dims)
    weights = rng.dirichlet(np.ones(8))
    a, b = (_random_local_rows(rng, 8, d) for d in dims)
    return _separable_state(weights, a, b, dims)


def _random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _psd_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def random_local_instrument(rng, dims) -> list[np.ndarray]:
    """Two-outcome local instrument {V_i} with sum V_i^dag V_i = identity.

    The V_i act on one randomly chosen party (identity on the other),
    built from a random effect pair composed with random local
    unitaries, i.e. a local generalized measurement with post-selection
    branches.
    """
    _require_bipartite(dims)
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
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


# Random cases of the E1-E5 checks in :func:`axiom_harness`, in that order;
# the only source of the counts, as the checks take ``n_cases`` as a
# required argument.
_HARNESS_CASES = (20, 20, 10, 5, 20)
# Pass thresholds in nats: E1-E5 allow the descent's rounding, E6 the gap
# of its upper bounds on a single pair and on the pair state.
_AXIOM_TOL = 1e-3
_ADDITIVITY_TOL = 2e-2


def bell_state() -> DensityOperator:
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return PureState(amps, (2, 2)).density()


def _random_two_qubit_state(rng) -> DensityOperator:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real, (2, 2))


def check_separable_zero(measure, *, n_cases, seed=0) -> AxiomCheck:
    """E1 (zero direction): random separable states measure ~0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        sigma = random_separable(rng, (2, 2))
        worst = max(worst, measure(sigma))
    return AxiomCheck("E1", "separable states have zero measure", worst < _AXIOM_TOL, n_cases, worst)


def check_local_unitary_invariance(measure, *, n_cases, seed=0) -> AxiomCheck:
    """E2: invariance under U_A (x) U_B conjugation of a Bell state."""
    rng = np.random.default_rng(seed)
    sigma = bell_state()
    reference = measure(sigma)
    worst = 0.0
    d_a, d_b = sigma.dims
    for _ in range(n_cases):
        u = np.kron(_random_unitary(rng, d_a), _random_unitary(rng, d_b))
        rotated = DensityOperator(u @ sigma.matrix @ u.conj().T, sigma.dims)
        worst = max(worst, abs(measure(rotated) - reference))
    return AxiomCheck("E2", "local unitary invariance", worst < _AXIOM_TOL, n_cases, worst)


def check_lgm_monotonicity(measure, *, n_cases, seed=0) -> AxiomCheck:
    """E3: expected measure cannot grow under local instruments.

    sum_i tr(sigma_i) E(sigma_i / tr sigma_i) <= E(sigma) + 1e-3 for
    random local generalized measurements with post-selection, on a Bell
    state and one random two-qubit state.
    """
    rng = np.random.default_rng(seed)
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
    return AxiomCheck("E3", "monotone under local instruments", worst <= _AXIOM_TOL, count, worst)


def check_continuity(measure, *, n_cases, seed=0) -> AxiomCheck:
    """E4: mixing in 1% of another state moves the measure by at most 10x
    the trace distance, plus 1e-3."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        sigma = _random_two_qubit_state(rng)
        tau = _random_two_qubit_state(rng)
        mixed = DensityOperator(0.99 * sigma.matrix + 0.01 * tau.matrix, sigma.dims)
        trace_dist = 0.5 * float(np.abs(np.linalg.eigvalsh(sigma.matrix - mixed.matrix)).sum())
        delta = abs(measure(sigma) - measure(mixed))
        worst = max(worst, delta - 10.0 * trace_dist)
    return AxiomCheck("E4", "continuity under perturbation", worst <= _AXIOM_TOL, n_cases, worst)


def check_pure_state_reduction(measure, *, n_cases, seed=0) -> AxiomCheck:
    """E5: on pure states the measure is the reduced-state entropy."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = PureState(z / np.linalg.norm(z), (2, 2))
        expected = pure_state_entanglement(psi)
        worst = max(worst, abs(measure(psi.density()) - expected))
    return AxiomCheck("E5", "reduces to reduced-state entropy on pure states", worst < _AXIOM_TOL, n_cases, worst)


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


def check_additivity_pair(measure, sigma1: DensityOperator, sigma2: DensityOperator) -> AxiomCheck:
    """E6 on one specific pair; no universality is claimed.

    Later literature disputes additivity of this measure in general, so
    the harness only reports specific instances.
    """
    single = measure(sigma1) + measure(sigma2)
    joint = measure(pair_state(sigma1, sigma2))
    gap = abs(joint - single)
    return AxiomCheck("E6", "additivity on a specific pair (report only)", gap < _ADDITIVITY_TOL, 1, gap)


def axiom_harness(seed: int = 0) -> AxiomReport:
    """Run the E1-E6 suite on the REE, check k with seed ``seed + k``; always
    returns a report."""
    def measure(sigma):
        return relative_entropy_of_entanglement(sigma).value

    checks = (check_separable_zero, check_local_unitary_invariance, check_lgm_monotonicity,
              check_continuity, check_pure_state_reduction)
    return AxiomReport(tuple(
        check(measure, n_cases=n_cases, seed=seed + k)
        for k, (check, n_cases) in enumerate(zip(checks, _HARNESS_CASES))
    ) + (check_additivity_pair(measure, bell_state(), bell_state()),))
