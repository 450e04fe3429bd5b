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


def _check_density_matrices(blocks: np.ndarray, rows: np.ndarray | None, dims: tuple[int, ...],
                            eig_tol: float) -> None:
    """Raise the ValueError that the first invalid matrix of a stack would
    raise on its own; the checks of each matrix run in the order shape,
    finite entries, Hermiticity, trace, spectrum.

    ``blocks`` is the ``(n*K, b, b)`` stack of the matrices' diagonal
    blocks, K per matrix, and every other entry is 0: row j of a matrix's
    block k is basis row ``rows[k, j]``, and the rows are distinct and
    within ``dims``.  ``rows=None``, as the constructor passes it, stands
    for one block over every row in order, a dense matrix.  A matrix's
    Hermiticity is then the largest deviation over its blocks, its trace
    the sum of its diagonal in basis order, and its spectrum that of its
    blocks, plus 0 for the rows no block covers.  All matrices are
    checked in one pass.
    """
    d = math.prod(dims)
    if rows is None and blocks.shape[1:] != (d, d):
        raise ValueError(f"matrix of shape {blocks.shape[1:]} does not match dims {dims}")
    k, b = (1, d) if rows is None else rows.shape
    with np.errstate(invalid="ignore"):  # inf - inf, reported below
        herm = abs(blocks - blocks.conj().swapaxes(1, 2)).max(axis=(1, 2))
    if k > 1:
        herm = herm.reshape(-1, k).max(axis=1)
    herm = herm.tolist()
    if rows is None:
        tr = blocks.trace(axis1=1, axis2=2).tolist()
    else:
        # the diagonal summed in basis order, with the zeros between the
        # blocks, as the trace of the dense matrix is
        diag = np.zeros((len(herm), d), dtype=complex)
        diag[:, rows.reshape(-1)] = blocks.diagonal(axis1=1, axis2=2).reshape(len(herm), -1)
        tr = diag.sum(axis=1).tolist()
    # the spectra are taken of the matrices before the first to fail here;
    # a NaN or infinite entry makes its deviation NaN or infinite
    n_ok = 0
    for h, t in zip(herm, tr):
        if not (h <= 1e-10 and abs(t - 1.0) <= 1e-10):
            break
        n_ok += 1
    if n_ok:
        lo = np.linalg.eigvalsh(blocks[:n_ok * k])[:, 0]
        if k > 1:
            lo = lo.reshape(n_ok, k).min(axis=1)
        if k * b < d:  # the rows no block covers
            lo = np.minimum(lo, 0.0)
        lo = lo.tolist()
        if min(lo) < -eig_tol:
            negative = next(x for x in lo if x < -eig_tol)
            raise ValueError(f"matrix has negative eigenvalue {negative:.3e}")
    if n_ok < len(tr):
        if not math.isfinite(herm[n_ok]):
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
    eigenvalues >= -``eig_tol`` (default 1e-10), trace 1 within 1e-10.
    ``eig_tol`` may be loosened by producers whose states carry more
    rounding, such as the normalized post-measurement branches of
    ``entanglement.apply_instrument`` (1e-9).  It is a field: it takes
    part in ``==`` and ``repr``, and :func:`partial_trace` passes it on
    (never below the default).
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    eig_tol: float = 1e-10

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = _frozen_array(self.matrix)
        _check_density_matrices(mat[np.newaxis], None, dims, self.eig_tol)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "eig_tol", float(self.eig_tol))

    @classmethod
    def stack(cls, blocks, rows, dims, eig_tol: float = 1e-10) -> list["DensityOperator"]:
        """One state per matrix of a stack given by its diagonal blocks, checked together.

        ``blocks`` is an ``(n, K, b, b)`` array: matrix i is zero but for
        the block ``blocks[i, k]`` on the basis rows ``rows[k]``.  ``rows``
        is a ``(K, b)`` array of distinct indices into the space of
        ``dims``; ``np.arange(d)[np.newaxis]`` makes one block of the whole
        space, a dense ``(n, 1, d, d)`` stack.  The checks and tolerances
        are those of the constructor, run over every block at once (one
        ``eigvalsh`` call); an invalid stack raises the error that building
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
        _check_density_matrices(blocks.reshape(-1, *blocks.shape[2:]), rows, dims, eig_tol)
        mats = np.zeros((len(blocks), d, d), dtype=complex)
        mats[:, rows[:, :, np.newaxis], rows[:, np.newaxis, :]] = blocks
        mats.setflags(write=False)
        eig_tol = float(eig_tol)
        states = []
        for mat in mats:
            state = object.__new__(cls)
            object.__setattr__(state, "matrix", mat)
            object.__setattr__(state, "dims", dims)
            object.__setattr__(state, "eig_tol", eig_tol)
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
