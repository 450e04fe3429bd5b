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

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import DensityOperator, PureState

__all__ = [
    "CouplingModel",
    "DecoherenceParams",
    "VibrationalDistribution",
    "DressedLabel",
    "OverdampedError",
    "jc_hamiltonian",
    "dressed_states",
    "mean_reservoir_occupation",
    "rate_exponent",
    "damping_rate_normalized",
    "calibrated_kappa0",
    "damping_rate_dimensional",
    "coherent_frequency",
    "population_lower",
    "dephasing_oracle_evolve",
    "dephasing_oracle_trajectory",
    "oracle_population_lower",
    "dressed_coherence",
    "fit_rate_exponent",
]

TAIL_MASS = 1e-8
# Most weights (n_max + 1) a distribution may carry; bounds every curve's
# memory and admits coherent means up to about 3700, thermal up to 220.
MAX_LEVELS = 4096
# Exact SI values: reduced Planck constant (J s), Boltzmann constant (J/K)
hbar = 6.62607015e-34 / (2 * math.pi)
k_B = 1.380649e-23


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


@dataclass(frozen=True)
class DressedLabel:
    """Doublet label: boson quantum number and +/- branch."""

    n: int
    branch: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.branch not in (+1, -1):
            raise ValueError("branch must be +1 or -1")

    def energy(self, g: float = 1.0) -> float:
        """Eigenvalue of the exchange Hamiltonian, in units of hbar."""
        return self.branch * g * math.sqrt(self.n + 1)

    def state(self, n_levels: int | None = None) -> PureState:
        pair = dressed_states(self.n, n_levels)
        return pair[0] if self.branch > 0 else pair[1]


def _too_many_levels(spec: str) -> ValueError:
    return ValueError(f"{spec} needs more than MAX_LEVELS={MAX_LEVELS} vibrational levels")


@dataclass(frozen=True)
class VibrationalDistribution:
    """Initial vibrational weight distribution, truncated at n_max.

    The truncation keeps tail mass below 1e-8.  Construct through
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
        p = p.copy()
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


def jc_hamiltonian(n_levels: int, g: float = 1.0) -> np.ndarray:
    """Exchange Hamiltonian over spin (x) n_levels motional states, in units of hbar.

    Couples |up, n> with |down, n+1> at strength g*sqrt(n+1).
    """
    if n_levels < 1:
        raise ValueError("need at least one motional level")
    dim = 2 * n_levels
    h = np.zeros((dim, dim))
    for n in range(n_levels - 1):
        up_n = n_levels + n          # spin index 1 block
        down_n1 = n + 1              # spin index 0 block
        h[up_n, down_n1] = h[down_n1, up_n] = g * math.sqrt(n + 1)
    return h


def dressed_states(n: int, n_levels: int | None = None) -> tuple[PureState, PureState]:
    """Doublet eigenstates (|up,n> +- |down,n+1>)/sqrt(2).

    Eigenvalues are +- hbar g sqrt(n+1); the plus branch is returned
    first.  ``n_levels`` is the motional truncation (default n+2, the
    minimum).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n_levels is None:
        n_levels = n + 2
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
    """Normalized damping rate A_n / g = gamma0 * (n+1)**exponent."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return params.gamma0_tilde * (n + 1) ** rate_exponent(model, params.d)


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


def _population_term(n: int, a_n: float, tau: np.ndarray) -> np.ndarray:
    """cos(B_n tau) exp(-A_n tau) in units of g, continued through overdamping."""
    disc = 4.0 * (n + 1) - a_n * a_n
    if disc > 0.0:
        return np.cos(math.sqrt(disc) * tau) * np.exp(-a_n * tau)
    # Overdamped doublet: the two relaxation roots -A +- sqrt(A^2 - 4(n+1))
    # are real; the stable form of cosh(b tau) exp(-A tau).
    b = math.sqrt(-disc)
    return 0.5 * (np.exp((b - a_n) * tau) + np.exp(-(b + a_n) * tau))


def population_lower(
    t,
    dist: VibrationalDistribution,
    params: DecoherenceParams,
    model: CouplingModel,
    *,
    seconds: bool = False,
) -> np.ndarray:
    """Lower-state population P_down(t) = (1 + sum_n p_n cos(B_n t) e^(-A_n t)) / 2.

    ``t`` is a grid of dimensionless g*t values, or seconds when
    ``seconds=True`` (requires ``params.g``).  The initial condition is
    the spin-down product state carrying the given vibrational weights.
    """
    tau = np.atleast_1d(np.asarray(t, dtype=float))
    if tau.size == 0:
        raise ValueError("empty time grid")
    if seconds:
        if params.g is None:
            raise ValueError("seconds=True needs the Rabi scale g")
        tau = tau * params.g
    acc = np.zeros_like(tau)
    for n, p in enumerate(dist.p_n):
        if p == 0.0:
            continue
        a_n = damping_rate_normalized(model, n, params)
        acc += p * _population_term(n, a_n, tau)
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


def _oracle_blocks(dist, params, model, t_grid) -> tuple[np.ndarray, int]:
    """rho(t) on (|down,n+1>, |up,n>) for each doublet n, shape (T, n_max + 1, 2, 2),
    and the motional truncation of the dense states."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.size == 0:
        raise ValueError("empty time grid")
    if (np.diff(t) < 0).any() or t[0] < 0:
        raise ValueError("time grid must be nonnegative and nondecreasing")
    # Two guard levels beyond the populated doublets; the dynamics is
    # block-diagonal in the doublets so the truncation is exact.
    n_levels = dist.n_max + 3
    h = jc_hamiltonian(n_levels)
    eye = np.eye(2)
    liouvillians, vecs = [], []
    for n in range(dist.n_max + 1):
        basis = [n + 1, n_levels + n]
        plus, minus = (s.amplitudes[basis] for s in dressed_states(n, n_levels))
        d_n = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
        d_sq = d_n @ d_n
        h_n = h[np.ix_(basis, basis)]
        # row-major vectorization: vec(X rho Y) = (X kron Y^T) vec(rho)
        liouvillians.append(
            -1j * (np.kron(h_n, eye) - np.kron(eye, h_n.T))
            + 0.5 * damping_rate_normalized(model, n, params)
            * (np.kron(d_n, d_n.T) - 0.5 * (np.kron(d_sq, eye) + np.kron(eye, d_sq.T)))
        )
        # column i*2+j is vec(|u_i><u_j|) for the eigenvectors u of h_n
        _, u = np.linalg.eigh(h_n)
        vecs.append(np.kron(u, u.conj()))
    liouvillians, vecs = np.array(liouvillians), np.array(vecs)
    evals = np.einsum("kji,kjl,kli->ki", vecs.conj(), liouvillians, vecs)
    residual = np.abs(liouvillians @ vecs - vecs * evals[:, None, :]).max()
    if residual > 1e-10 * max(1.0, np.abs(liouvillians).max()):
        raise RuntimeError(f"doublet Liouvillian not diagonal in the energy basis: {residual:.3e}")
    # initial weights sit on the spin-down member of each doublet (vec
    # index 0), renormalized over the truncation so the trace is exactly 1
    coeffs = vecs[:, 0, :].conj() * (dist.p_n / dist.p_n.sum())[:, None]
    blocks = np.einsum("kij,tkj->tki", vecs, coeffs * np.exp(evals * t[:, None, None]))
    return blocks.reshape(t.size, -1, 2, 2), n_levels


def dephasing_oracle_trajectory(
    dist: VibrationalDistribution,
    params: DecoherenceParams,
    model: CouplingModel,
    t_grid,
) -> list[DensityOperator]:
    """Propagated states at each grid time (dimensionless g*t grid)."""
    blocks, n_levels = _oracle_blocks(dist, params, model, t_grid)
    n = np.arange(blocks.shape[1])
    basis = np.stack([n + 1, n_levels + n], axis=1)
    out = []
    for blk in blocks:
        rho = np.zeros((2 * n_levels, 2 * n_levels), dtype=complex)
        rho[basis[:, :, None], basis[:, None, :]] = blk
        out.append(DensityOperator(rho, (2, n_levels), eig_tol=1e-8))
    return out


def dephasing_oracle_evolve(
    dist: VibrationalDistribution,
    params: DecoherenceParams,
    model: CouplingModel,
    t: float,
) -> DensityOperator:
    """Density operator at a single dimensionless time g*t."""
    return dephasing_oracle_trajectory(dist, params, model, [float(t)])[0]


def oracle_population_lower(
    t_grid,
    dist: VibrationalDistribution,
    params: DecoherenceParams,
    model: CouplingModel,
) -> np.ndarray:
    """P_down(t) from the exact propagator: the summed |down,n+1> populations."""
    blocks, _ = _oracle_blocks(dist, params, model, t_grid)
    return blocks[:, :, 0, 0].real.sum(axis=1)


def dressed_coherence(rho: DensityOperator | np.ndarray, n: int) -> complex:
    """Doublet-n coherence <n,+| rho |n,->."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
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
