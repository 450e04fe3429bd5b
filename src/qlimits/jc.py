"""Damped Jaynes-Cummings dynamics of a trapped-ion qubit.

The coherent part is the exchange coupling H = hbar g (a S+ + adag S-)
between the internal doublet {|down>, |up>} and the motional mode.  Its
eigenstates come in doublets |n,+-> = (|up,n> +- |down,n+1>)/sqrt(2)
with energies +- hbar g sqrt(n+1).  Two phenomenological reservoir
couplings dephase these doublets without energy relaxation:

* ``IMPERFECT_DIPOLE`` ("di"): intensity fluctuations of the driving
  laser; normalized rate gamma0 * (n+1)**((d+1)/2).
* ``TRAP_FLUCTUATION`` ("vi"): fluctuations of the trap potential;
  normalized rate gamma0 * (n+1)**((d-1)/2).

Time is dimensionless (g*t) unless stated otherwise; rates named
"normalized" are in units of g.  Bare-basis layout is spin (x) motion
with spin index 0 = down, 1 = up.

Index convention: a vibrational weight ``p_n`` is attached to the n-th
coupled doublet, i.e. the oracle starts that weight from the
spin-down member |down, n+1>, whose undamped oscillation frequency is
2 g sqrt(n+1).  This matches :func:`population_lower`, where the p_n
term oscillates at B_n ~= 2 g sqrt(n+1) and decays at A_n, and matches
the sideband labeling of the motivating experiments (spin-down with n
quanta drives upward).  The uncoupled ground ket |down, 0> never enters.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .constants import hbar, k_B
from .core import DensityOperator, PureState

__all__ = [
    "CouplingModel",
    "DecoherenceParams",
    "VibrationalDistribution",
    "OverdampedError",
    "dressed_states",
    "mean_reservoir_occupation",
    "rate_exponent",
    "damping_rate_normalized",
    "calibrated_kappa0",
    "damping_rate_dimensional",
    "coherent_frequency",
    "population_lower",
    "dephasing_oracle_trajectory",
    "oracle_population_lower",
    "dressed_coherence",
    "fit_rate_exponent",
]

TAIL_MASS = 1e-8
# Most weights (n_max + 1) a distribution may carry; bounds every curve's
# memory and admits coherent means up to about 3700, thermal up to 220.
MAX_LEVELS = 4096


class CouplingModel(Enum):
    """Which system-reservoir coupling sources the dephasing."""

    IMPERFECT_DIPOLE = "di"
    TRAP_FLUCTUATION = "vi"


class OverdampedError(ValueError):
    """Damping rate at or above the undamped Rabi frequency."""

    def __init__(self, n, g, a_n):
        super().__init__(
            f"overdamped doublet n={n}: A_n={a_n!r} >= 2*g*sqrt(n+1)={2 * g * math.sqrt(n + 1)!r}"
        )
        self.n = n
        self.g = g
        self.a_n = a_n


@dataclass(frozen=True)
class DecoherenceParams:
    """Reservoir and drive parameters.

    gamma0_tilde : dimensionless normalized base rate (rate at n=0 over g)
    d : reservoir spectral exponent
    g : Rabi scale in rad/s; only needed by dimensional operations
    temperature : reservoir temperature in kelvin, optional
    """

    gamma0_tilde: float
    d: float
    g: float | None = None
    temperature: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma0_tilde) and self.gamma0_tilde >= 0):
            raise ValueError("gamma0_tilde must be finite and >= 0")
        if not math.isfinite(self.d):
            raise ValueError("d must be finite")
        if self.g is not None and not (math.isfinite(self.g) and self.g > 0):
            raise ValueError("g must be finite and > 0 when supplied")
        if self.temperature is not None and not (
            math.isfinite(self.temperature) and self.temperature > 0
        ):
            raise ValueError("temperature must be finite and > 0 when supplied")

    def require_dimensional(self) -> tuple[float, float]:
        if self.g is None:
            raise ValueError("this operation needs the Rabi scale g")
        if self.temperature is None:
            raise ValueError("this operation needs the reservoir temperature")
        return self.g, self.temperature


def _too_many_levels(spec: str) -> ValueError:
    return ValueError(f"{spec} needs more than MAX_LEVELS={MAX_LEVELS} vibrational levels")


@dataclass(frozen=True)
class VibrationalDistribution:
    """Initial vibrational weight distribution, truncated at n_max.

    The truncation drops a tail mass below 1e-8; the weights kept are
    renormalized to sum to 1.  Construct through
    :meth:`fock`, :meth:`coherent` (parametrized by the mean occupation
    n_bar = |alpha|^2; the historical amplitude-vs-mean ambiguity is
    resolved in favor of the mean, which is what the motivating
    experiment reported) or :meth:`thermal`.
    """

    kind: str
    parameter: float
    p_n: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.p_n, dtype=float)
        if p.ndim != 1 or p.size == 0 or (p < 0).any():
            raise ValueError("p_n must be a nonempty nonnegative vector")
        if p.sum() < 1.0 - TAIL_MASS:
            raise ValueError(f"truncated weights sum to {p.sum()!r}, tail mass too large")
        # renormalized over the truncation, so P_down(0) is 1
        p = p / p.sum()
        p.setflags(write=False)
        object.__setattr__(self, "p_n", p)

    @property
    def n_max(self) -> int:
        return self.p_n.size - 1

    @classmethod
    def fock(cls, n: int) -> "VibrationalDistribution":
        if n < 0:
            raise ValueError("Fock index must be >= 0")
        if n >= MAX_LEVELS:
            raise _too_many_levels(f"fock:{n}")
        p = np.zeros(n + 1)
        p[n] = 1.0
        return cls("fock", float(n), p)

    @classmethod
    def coherent(cls, mean_n: float) -> "VibrationalDistribution":
        if not 0.0 <= mean_n < math.inf:
            raise ValueError("mean occupation must be finite and >= 0")
        if mean_n == 0:
            return cls("coherent", 0.0, np.ones(1))
        # Poissonian weights, accumulated until the tail is negligible; in
        # log space because exp(-mean_n) underflows for large means
        log_mean = math.log(mean_n)
        terms = []
        total = 0.0
        while total < 1.0 - TAIL_MASS:
            n = len(terms)
            if n == MAX_LEVELS:
                raise _too_many_levels(f"coherent:{mean_n!r}")
            terms.append(math.exp(n * log_mean - mean_n - math.lgamma(n + 1)))
            total += terms[-1]
        return cls("coherent", float(mean_n), np.array(terms))

    @classmethod
    def thermal(cls, mean_n: float) -> "VibrationalDistribution":
        if not 0.0 <= mean_n < math.inf:
            raise ValueError("mean occupation must be finite and >= 0")
        if mean_n == 0:
            return cls("thermal", 0.0, np.ones(1))
        # the truncation exceeds the mean, and r rounds to 1 for huge means
        if mean_n >= MAX_LEVELS:
            raise _too_many_levels(f"thermal:{mean_n!r}")
        r = mean_n / (1.0 + mean_n)
        n_max = max(0, math.ceil(math.log(TAIL_MASS) / math.log(r)) - 1)
        if n_max >= MAX_LEVELS:
            raise _too_many_levels(f"thermal:{mean_n!r}")
        n = np.arange(n_max + 1)
        return cls("thermal", float(mean_n), r**n / (1.0 + mean_n))

    @classmethod
    def parse(cls, text: str) -> "VibrationalDistribution":
        """Parse ``fock:N``, ``coherent:X`` or ``thermal:X``."""
        kind, _, value = text.partition(":")
        kind = kind.strip().lower()
        if not value:
            raise ValueError(f"distribution spec {text!r} needs a parameter, e.g. coherent:3.0")
        if kind == "fock":
            return cls.fock(int(value))
        if kind == "coherent":
            return cls.coherent(float(value))
        if kind == "thermal":
            return cls.thermal(float(value))
        raise ValueError(f"unknown distribution kind {kind!r}")


def dressed_states(n: int, n_levels: int) -> tuple[PureState, PureState]:
    """Doublet eigenstates (|up,n> +- |down,n+1>)/sqrt(2).

    Eigenvalues are +- hbar g sqrt(n+1); the plus branch is returned
    first.  ``n_levels`` is the motional truncation, at least n+2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n_levels < n + 2:
        raise ValueError(f"truncation {n_levels} too small for doublet n={n} (need >= {n + 2})")
    dim = 2 * n_levels
    plus = np.zeros(dim, dtype=complex)
    minus = np.zeros(dim, dtype=complex)
    up_n = n_levels + n
    down_n1 = n + 1
    s = 1.0 / math.sqrt(2.0)
    plus[up_n] = s
    plus[down_n1] = s
    minus[up_n] = s
    minus[down_n1] = -s
    dims = (2, n_levels)
    return PureState(plus, dims), PureState(minus, dims)


def mean_reservoir_occupation(n: int, params: DecoherenceParams) -> float:
    """Mean reservoir boson number 1/(exp(2 hbar g sqrt(n+1) / kB T) - 1)."""
    g, temperature = params.require_dimensional()
    x = 2.0 * hbar * g * math.sqrt(n + 1) / (k_B * temperature)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def rate_exponent(model: CouplingModel, d: float) -> float:
    """Exponent of (n+1) in the normalized damping rate."""
    if model is CouplingModel.IMPERFECT_DIPOLE:
        return (d + 1.0) / 2.0
    return (d - 1.0) / 2.0


def damping_rate_normalized(model: CouplingModel, n: int, params: DecoherenceParams) -> float:
    """Normalized damping rate A_n / g = gamma0 * (n+1)**exponent.

    Raises ValueError when the rate leaves the float range.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    try:
        rate = params.gamma0_tilde * (n + 1) ** rate_exponent(model, params.d)
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise ValueError(f"the damping rate of doublet n={n} leaves the float range")
    return rate


def calibrated_kappa0(model: CouplingModel, params: DecoherenceParams) -> float:
    """Dimensional prefactor kappa0 such that A_0 / g equals gamma0_tilde.

    (2 hbar g sqrt(n+1))**d is not a rate for general d, so the
    dimensional form uses kappa(n) = kappa0 * (n+1)**(d/2) and anchors
    kappa0 to the normalized base rate at n=0 for the requested model.
    """
    g, _ = params.require_dimensional()
    x0 = mean_reservoir_occupation(0, params) + 0.5
    base = params.gamma0_tilde * g / x0
    if model is CouplingModel.IMPERFECT_DIPOLE:
        return base
    return 2.0 * base


def damping_rate_dimensional(
    model: CouplingModel, n: int, params: DecoherenceParams, kappa0: float | None = None
) -> float:
    """Dimensional damping rate A_n in rad/s.

    di: A_n = (n+1) kappa(n) {n_res(n) + 1/2}
    vi: A_n = (1/2) kappa(n) {n_res(n) + 1/2}

    with kappa(n) = kappa0 * (n+1)**(d/2).  When ``kappa0`` is omitted
    it is calibrated per model via :func:`calibrated_kappa0`; pass the
    same explicit kappa0 to both models to obtain the algebraic ratio
    A_di / A_vi = 2 (n+1).  In the high-temperature regime the
    calibrated rates divided by g recover the normalized forms.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if kappa0 is None:
        kappa0 = calibrated_kappa0(model, params)
    kappa_n = kappa0 * (n + 1) ** (params.d / 2.0)
    occupation = mean_reservoir_occupation(n, params) + 0.5
    if model is CouplingModel.IMPERFECT_DIPOLE:
        return (n + 1) * kappa_n * occupation
    return 0.5 * kappa_n * occupation


def coherent_frequency(n: int, g: float, a_n: float) -> float:
    """Damped Rabi frequency B_n = sqrt(4 g^2 (n+1) - A_n^2).

    Raises :class:`OverdampedError` when A_n >= 2 g sqrt(n+1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    disc = 4.0 * g * g * (n + 1) - a_n * a_n
    if disc <= 0.0:
        raise OverdampedError(n, g, a_n)
    return math.sqrt(disc)


def _population_term(
    n: int, a_n: float, tau: np.ndarray, t_max: float, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """cos(B_n tau) exp(-A_n tau) in units of g, continued through overdamping,
    written into ``out``; ``scratch`` is a second buffer of the same shape.

    ``tau`` is nonnegative with maximum ``t_max``.  Every exponent is
    then <= 0, so an A_n tau beyond the float range only rounds the
    exponential to 0; a B_n t_max beyond it raises ValueError.
    """
    disc = 4.0 * (n + 1) - a_n * a_n
    if disc > 0.0:
        b = math.sqrt(disc)
        if not math.isfinite(b * t_max):
            raise ValueError(f"B_n*t of doublet n={n} leaves the float range")
        np.cos(np.multiply(b, tau, out=out), out=out)
        np.exp(np.multiply(-a_n, tau, out=scratch), out=scratch)
        return np.multiply(out, scratch, out=out)
    # Overdamped doublet: the two relaxation roots -A +- b, with
    # b = sqrt(A^2 - 4(n+1)), are real; cosh(b tau) exp(-A tau) is their
    # mean.  b is formed without squaring A, b - A = -4(n+1)/(A + b)
    # without cancelling, and -(A + b) tau as -A tau - b tau, which is
    # -0.0, not nan, at tau = 0 when A + b overflows.
    root = 2.0 * math.sqrt(n + 1)
    b = math.sqrt(max(a_n - root, 0.0)) * math.sqrt(a_n + root)
    np.multiply(-a_n, tau, out=out)
    np.exp(np.add(out, np.multiply(-b, tau, out=scratch), out=scratch), out=scratch)
    np.exp(np.multiply(-4.0 * (n + 1) / (a_n + b), tau, out=out), out=out)
    return np.multiply(0.5, np.add(out, scratch, out=out), out=out)


def _time_grid(t) -> tuple[np.ndarray, float]:
    """``t`` as a float array of at least one dimension, and its maximum;
    ValueError unless it is nonempty, finite and nonnegative."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size == 0:
        raise ValueError("empty time grid")
    if not (np.isfinite(t).all() and t.min() >= 0.0):
        raise ValueError("time grid must be finite and nonnegative")
    return t, float(t.max())


def population_lower(
    t,
    dist: VibrationalDistribution,
    params: DecoherenceParams,
    model: CouplingModel,
) -> np.ndarray:
    """Lower-state population P_down(t) = (1 + sum_n p_n cos(B_n t) e^(-A_n t)) / 2.

    ``t`` is a grid of dimensionless g*t values.  The initial condition
    is the spin-down product state carrying the given vibrational weights.
    """
    tau, t_max = _time_grid(t)
    acc = np.zeros_like(tau)
    term, scratch = np.empty_like(tau), np.empty_like(tau)
    with np.errstate(over="ignore"):
        for n, p in enumerate(dist.p_n):
            if p == 0.0:
                continue
            a_n = damping_rate_normalized(model, n, params)
            acc += np.multiply(p, _population_term(n, a_n, tau, t_max, term, scratch), out=term)
    return 0.5 * (1.0 + acc)


# ---------------------------------------------------------------------------
# Exact dephasing propagator (cross-check oracle)
# ---------------------------------------------------------------------------
#
# Master equation in the bare basis:
#   drho/dt = -i [H, rho] + sum_n (A_n/2) (D_n rho D_n - {D_n^2, rho}/2)
# with D_n = |n,+><n,+| - |n,-><n,-| the population-difference operator
# of doublet n.  Each doublet coherence then decays at exactly A_n while
# populations are untouched, reproducing the analytic decay law without
# a microscopic kernel.  H and every D_n act inside one doublet
# {|down,n+1>, |up,n>}, so the Liouvillian splits into one 4x4 block per
# doublet.  The doublet Hamiltonian H_n is nondegenerate and commutes with
# D_n, so the operators |u_i><u_j| built from its eigenvectors form a
# unitary eigenbasis of the block, and rho(t) = exp(L t) rho(0) follows
# exactly, with no step size.  (numpy.linalg.eig returns nearly parallel
# eigenvectors for the double eigenvalue 0 of an undamped block.)
#
# Every doublet has the same dressed kets on its own basis, so D_n = D_0,
# and H_n = sqrt(n+1) X for the Pauli matrix X: every block is
# L_n = -i sqrt(n+1) [X, .] + (A_n/2) K for one commutator form and one
# dephasing form K, and every block has the eigenbasis vec(|u_i><u_j|) of
# the eigenvectors u of X.  These three 4x4 forms are built once, on first
# use; each call still checks that every L_n is diagonal in them.
#
# The propagated states are block-diagonal in the same doublets, so they
# are checked by their 2x2 doublet blocks, with the tolerances of a
# DensityOperator, and each dense matrix is written once, after the check.

# Time points x doublets per block of oracle_population_lower; a block's
# arrays take about 100 bytes per cell, so about 6 MB in all.
_POPULATION_BLOCK_CELLS = 2**16


@functools.cache
def _doublet_forms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The commutator and dephasing superoperators of a doublet on
    (|down,n+1>, |up,n>), and their shared eigenbasis: column i*2+j is
    vec(|u_i><u_j|) for the eigenvectors u of X.  Read-only."""
    plus, minus = (s.amplitudes[[1, 2]] for s in dressed_states(0, 2))
    d = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
    d_sq = d @ d
    pauli_x, eye = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    # row-major vectorization: vec(X rho Y) = (X kron Y^T) vec(rho)
    commutator = np.kron(pauli_x, eye) - np.kron(eye, pauli_x)
    dephasing = np.kron(d, d.T) - 0.5 * (np.kron(d_sq, eye) + np.kron(eye, d_sq.T))
    _, u = np.linalg.eigh(pauli_x)
    vecs = np.kron(u, u.conj())
    for form in (commutator, dephasing, vecs):
        form.setflags(write=False)
    return commutator, dephasing, vecs


def _oracle_modes(dist, params, model, t_grid):
    """The checked time grid, the doublet eigenvalues (n_max + 1, 4), the
    shared eigenbasis, the initial state's coefficients in it (n_max + 1, 4),
    and the motional truncation of the dense states."""
    t, t_max = _time_grid(t_grid)
    if not math.isfinite(2.0 * math.sqrt(dist.n_max + 1) * t_max):
        raise ValueError(f"the Rabi phase of doublet n={dist.n_max} leaves the float range")
    # Two guard levels beyond the populated doublets; the dynamics is
    # block-diagonal in the doublets so the truncation is exact.
    n_levels = dist.n_max + 3
    rates = np.array([damping_rate_normalized(model, n, params) for n in range(dist.n_max + 1)])
    # the block algebra below forms sums of up to 2 A_n
    if not math.isfinite(4.0 * float(rates.max())):
        raise ValueError("the damping rates leave the float range of the oracle")
    commutator, dephasing, vecs = _doublet_forms()
    coupling = np.sqrt(np.arange(1.0, dist.n_max + 2))[:, None, None]
    liouvillians = -1j * (coupling * commutator) + (0.5 * rates)[:, None, None] * dephasing
    evals = np.einsum("ji,kjl,li->ki", vecs.conj(), liouvillians, vecs)
    residual = np.abs(liouvillians @ vecs - vecs * evals[:, None, :]).max()
    if residual > 1e-10 * max(1.0, np.abs(liouvillians).max()):
        raise RuntimeError(f"doublet Liouvillian not diagonal in the energy basis: {residual:.3e}")
    # initial weights sit on the spin-down member of each doublet (vec index 0)
    coeffs = vecs[0, :].conj() * dist.p_n[:, None]
    return t, evals, vecs, coeffs, n_levels


def _modal_amplitudes(evals, coeffs, t) -> np.ndarray:
    """coeffs * exp(evals t), shape (T, n_max + 1, 4).

    Every eigenvalue has real part 0 or -A_n, so an A_n t beyond the
    float range only rounds its exponential to 0."""
    with np.errstate(over="ignore"):
        amplitudes = evals * t[:, None, None]
        np.exp(amplitudes, out=amplitudes)
    amplitudes *= coeffs
    return amplitudes


def dephasing_oracle_trajectory(
    dist: VibrationalDistribution,
    params: DecoherenceParams,
    model: CouplingModel,
    t_grid,
) -> list[DensityOperator]:
    """Propagated states at each grid time (dimensionless g*t grid).

    The states are checked together by their doublet blocks, with the
    tolerances of one ``DensityOperator`` each, so every one is
    Hermitian, unit-trace and positive.
    """
    t, evals, vecs, coeffs, n_levels = _oracle_modes(dist, params, model, t_grid)
    # rho(t) on (|down,n+1>, |up,n>) for each doublet n, shape (T, n_max + 1, 2, 2)
    blocks = np.einsum("ij,tkj->tki", vecs, _modal_amplitudes(evals, coeffs, t)).reshape(t.size, -1, 2, 2)
    n = np.arange(blocks.shape[1])
    rows = np.stack([n + 1, n_levels + n], axis=1)
    return DensityOperator.stack(blocks, rows, (2, n_levels))


def oracle_population_lower(
    t_grid,
    dist: VibrationalDistribution,
    params: DecoherenceParams,
    model: CouplingModel,
) -> np.ndarray:
    """P_down(t) from the exact propagator: the summed |down,n+1> populations.

    Only these populations are formed, a block of time points at a time,
    so memory stays bounded on long grids."""
    t, evals, vecs, coeffs, _ = _oracle_modes(dist, params, model, t_grid)
    rows = max(1, _POPULATION_BLOCK_CELLS // len(coeffs))
    out = np.empty(t.size)
    for start in range(0, t.size, rows):
        amplitudes = _modal_amplitudes(evals, coeffs, t[start:start + rows])
        lower = np.einsum("j,tkj->tk", vecs[0], amplitudes).real
        out[start:start + rows] = lower.sum(axis=1)
    return out


def dressed_coherence(rho: DensityOperator, n: int) -> complex:
    """Doublet-n coherence <n,+| rho |n,->."""
    mat = rho.matrix
    n_levels = mat.shape[0] // 2
    plus, minus = dressed_states(n, n_levels)
    return complex(plus.amplitudes.conj() @ mat @ minus.amplitudes)


def fit_rate_exponent(rates) -> tuple[float, float]:
    """Least-squares fit of ln A against ln(1+n).

    ``rates`` is a sequence of (n, A_n) pairs, at least three, all rates
    positive.  Returns ``(gamma0_fit, exponent_fit)``.
    """
    pairs = [(int(n), float(a)) for n, a in rates]
    if len(pairs) < 3:
        raise ValueError("need at least three (n, A_n) points")
    if any(a <= 0 for _, a in pairs):
        raise ValueError("all rates must be positive")
    x = np.log([1.0 + n for n, _ in pairs])
    y = np.log([a for _, a in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(slope)
