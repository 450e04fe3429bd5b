"""Finite-dimensional quantum states, operators and entropies.

Subsystem index order is row-major over ``dims``: the first subsystem
varies slowest in the flattened computational index, so for two qubits
the basis order is ``|00>, |01>, |10>, |11>``.  All entropies are
returned in nats; :func:`nats_to_bits` is a display-only conversion.

Every operation here is a pure function on immutable values and is safe
to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PureState",
    "DensityOperator",
    "KindMismatchError",
    "tensor_product",
    "partial_trace",
    "von_neumann_entropy",
    "quantum_relative_entropy",
    "nats_to_bits",
    "ENTROPY_EIGENVALUE_CUTOFF",
    "SUPPORT_TOL",
]

# Eigenvalues at or below this are treated as exact zeros in entropy sums.
ENTROPY_EIGENVALUE_CUTOFF = 1e-12
# Weight of sigma tolerated outside the support of rho before S(sigma||rho)
# is declared infinite.
SUPPORT_TOL = 1e-10


class KindMismatchError(TypeError):
    """An operation was handed a pure state and a density operator."""


def _as_dims(dims) -> tuple[int, ...]:
    dims = tuple(map(int, dims))
    if not dims or min(dims) < 1:
        raise ValueError(f"subsystem dimensions must be positive integers, got {dims}")
    return dims


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.setflags(write=False)
    return a


def _check_density_matrices(mats: np.ndarray, blocks: np.ndarray, eig_tol: float) -> None:
    """Raise the ValueError that the first invalid matrix of a stack would
    raise on its own; the checks of each matrix run in the order finite
    entries, Hermiticity, trace, spectrum.

    ``mats`` is an ``(n, d, d)`` stack of dense matrices and ``blocks`` the
    ``(n, K, b, b)`` stack of their diagonal blocks; every entry of a
    matrix outside its blocks is 0.  A matrix's Hermiticity is the largest
    deviation over its blocks, its trace that of its dense matrix, and its
    spectrum that of its blocks, plus 0 for the rows no block covers.  All
    matrices are checked in one pass.
    """
    n, d = mats.shape[:2]
    k, b = blocks.shape[1:3]
    # a deviation or trace past the float range is inf, and inf - inf NaN:
    # both are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        herm = abs(blocks - blocks.conj().swapaxes(2, 3)).max(axis=(1, 2, 3)).tolist()
        tr = mats.trace(axis1=1, axis2=2).tolist()
    # the spectra are taken of the matrices before the first to fail here;
    # a NaN or infinite entry makes its deviation NaN or infinite
    n_ok = 0
    for h, t in zip(herm, tr):
        if not (h <= 1e-10 and abs(t - 1.0) <= 1e-10):
            break
        n_ok += 1
    if n_ok:
        lo = np.linalg.eigvalsh(blocks[:n_ok])[:, :, 0]
        lo = lo.min(axis=1) if k > 1 else lo[:, 0]
        if k * b < d:  # the rows no block covers
            lo = np.minimum(lo, 0.0)
        lo = lo.tolist()
        if min(lo) < -eig_tol:
            negative = next(x for x in lo if x < -eig_tol)
            raise ValueError(f"matrix has negative eigenvalue {negative:.3e}")
    if n_ok < n:
        if not np.isfinite(mats[n_ok]).all():
            raise ValueError("matrix has non-finite entries")
        if not herm[n_ok] <= 1e-10:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm[n_ok]:.3e}")
        raise ValueError(f"trace is {tr[n_ok]!r}, expected 1")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a tensor product of finite subsystems.

    Parameters
    ----------
    amplitudes : array_like
        Complex amplitudes over the computational basis; squared norm
        must be 1 within 1e-12.
    dims : sequence of int
        Subsystem dimensions; their product must equal ``len(amplitudes)``.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match dims {dims}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm * norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm * norm!r}")
        object.__setattr__(self, "amplitudes", _frozen_array(amps))
        object.__setattr__(self, "dims", dims)

    def density(self) -> "DensityOperator":
        """Projector |psi><psi| as a density operator."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive, unit-trace operator on a tensor-product space.

    Validation tolerances: Hermiticity within 1e-10 (max elementwise),
    eigenvalues >= -``eig_tol`` (finite and >= 0, default 1e-10), trace 1
    within 1e-10.  ``eig_tol`` may be loosened by producers whose states
    carry more rounding, such as the normalized post-measurement branches
    of ``entanglement.apply_instrument`` (1e-9).  It is a field: it takes
    part in ``==`` and ``repr``, and :func:`partial_trace` passes it on
    (never below the default).
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    eig_tol: float = 1e-10

    def __post_init__(self):
        dims = _as_dims(self.dims)
        eig_tol = float(self.eig_tol)
        if not (math.isfinite(eig_tol) and eig_tol >= 0.0):
            raise ValueError(f"eig_tol must be finite and >= 0, got {eig_tol!r}")
        mat = _frozen_array(self.matrix)
        if mat.shape != (math.prod(dims),) * 2:
            raise ValueError(f"matrix of shape {mat.shape} does not match dims {dims}")
        _check_density_matrices(mat[np.newaxis], mat[np.newaxis, np.newaxis], eig_tol)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "eig_tol", eig_tol)

    @classmethod
    def stack(cls, blocks, rows, dims) -> list["DensityOperator"]:
        """One state per matrix of a stack given by its diagonal blocks, checked together.

        ``blocks`` is an ``(n, K, b, b)`` array: matrix i is zero but for
        the block ``blocks[i, k]`` on the basis rows ``rows[k]``.  ``rows``
        is a ``(K, b)`` array of distinct indices into the space of
        ``dims``; ``np.arange(d)[np.newaxis]`` makes one block of the whole
        space, a dense ``(n, 1, d, d)`` stack.  The checks and tolerances
        are those of the constructor at its default ``eig_tol``, run over
        every block at once (one ``eigvalsh`` call); an invalid stack raises the error that building
        its dense matrices one by one, in order, would raise first.  Each
        dense matrix is written once, into one read-only array that the
        states share and that does not alias ``blocks``.
        """
        dims = _as_dims(dims)
        d = math.prod(dims)
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 4 or 0 in blocks.shape[1:] or blocks.shape[2] != blocks.shape[3]:
            raise ValueError(f"blocks of shape {blocks.shape} are not an (n, K, b, b) stack")
        rows = np.asarray(rows)
        if rows.shape != blocks.shape[1:3] or rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be integers of shape {blocks.shape[1:3]}")
        if rows.min() < 0 or rows.max() >= d:
            raise ValueError(f"block rows must lie in range({d}) for dims {dims}")
        if np.bincount(rows.reshape(-1)).max() > 1:
            raise ValueError("blocks overlap: a basis row is in more than one block")
        # the rows are checked first: a negative index would wrap here
        mats = np.zeros((len(blocks), d, d), dtype=complex)
        mats[:, rows[:, :, np.newaxis], rows[:, np.newaxis, :]] = blocks
        _check_density_matrices(mats, blocks, 1e-10)
        mats.setflags(write=False)
        states = []
        for mat in mats:
            state = object.__new__(cls)
            object.__setattr__(state, "matrix", mat)
            object.__setattr__(state, "dims", dims)
            object.__setattr__(state, "eig_tol", 1e-10)
            states.append(state)
        return states

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor_product(a, b):
    """Kronecker composition of two states of the same kind.

    Dims are concatenated; mixing a :class:`PureState` with a
    :class:`DensityOperator` raises :class:`KindMismatchError`.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    raise KindMismatchError(
        f"cannot tensor {type(a).__name__} with {type(b).__name__}"
    )


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` is a set of subsystem indices into ``rho.dims``; the result
    keeps those subsystems in their original relative order.  Tracing
    down to a scalar (empty ``keep``) is disallowed.
    """
    keep = sorted({int(k) for k in keep})
    n = len(rho.dims)
    if not keep:
        raise ValueError("keep must retain at least one subsystem (scalar trace disallowed)")
    if keep[0] < 0 or keep[-1] >= n:
        raise IndexError(f"keep indices {keep} out of range for {n} subsystems")
    if len(keep) == n:
        return rho
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(tensor, row + col, out)
    kept_dims = tuple(rho.dims[i] for i in keep)
    d = math.prod(kept_dims)
    return DensityOperator(reduced.reshape(d, d), kept_dims, eig_tol=max(rho.eig_tol, 1e-10))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum(lam ln lam) over the spectrum, with 0 ln 0 := 0.  In nats."""
    return _spectrum_entropy(np.linalg.eigvalsh(rho.matrix))


def _spectrum_entropy(lam: np.ndarray) -> float:
    """-sum(lam ln lam) over the weights above the entropy cutoff, in nats."""
    lam = lam[lam > ENTROPY_EIGENVALUE_CUTOFF]
    # + 0.0 turns the -0.0 of a pure spectrum into 0.0
    return float(-(lam * np.log(lam)).sum()) + 0.0


def quantum_relative_entropy(sigma: DensityOperator, rho: DensityOperator) -> float:
    """S(sigma||rho) = tr(sigma ln sigma - sigma ln rho), in nats.

    Returns ``math.inf`` when sigma has weight larger than
    :data:`SUPPORT_TOL` outside the support of rho.
    """
    if sigma.dims != rho.dims:
        raise ValueError(f"dimension mismatch: {sigma.dims} vs {rho.dims}")
    lam = np.linalg.eigvalsh(sigma.matrix)
    lam = lam[lam > ENTROPY_EIGENVALUE_CUTOFF]
    sigma_term = float((lam * np.log(lam)).sum())

    mu, basis = np.linalg.eigh(rho.matrix)
    # weight of sigma along each eigenvector of rho
    weights = np.einsum("ij,jk,ki->i", basis.conj().T, sigma.matrix, basis).real
    kernel = mu <= ENTROPY_EIGENVALUE_CUTOFF
    if float(weights[kernel].sum()) > SUPPORT_TOL:
        return math.inf
    support = ~kernel
    cross_term = float(weights[support] @ np.log(mu[support]))
    return sigma_term - cross_term


def nats_to_bits(x: float) -> float:
    """Display-only conversion from nats to bits."""
    return x / math.log(2.0)
