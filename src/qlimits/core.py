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
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive integers, got {dims}")
    return dims


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.setflags(write=False)
    return a


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

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def computational(cls, bits, dims=None) -> "PureState":
        """Basis ket |b1 b2 ...>; ``dims`` defaults to all-qubit."""
        bits = tuple(int(b) for b in bits)
        if dims is None:
            dims = (2,) * len(bits)
        dims = _as_dims(dims)
        if len(bits) != len(dims) or any(not 0 <= b < d for b, d in zip(bits, dims)):
            raise ValueError(f"invalid basis label {bits} for dims {dims}")
        index = 0
        for b, d in zip(bits, dims):
            index = index * d + b
        amps = np.zeros(math.prod(dims), dtype=complex)
        amps[index] = 1.0
        return cls(amps, dims)

    @classmethod
    def normalized(cls, vector, dims) -> "PureState":
        """Build a state from an unnormalized vector."""
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vector)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(vector / norm, dims)

    def density(self) -> "DensityOperator":
        """Projector |psi><psi| as a density operator."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive, unit-trace operator on a tensor-product space.

    Validation tolerances: Hermiticity within 1e-10 (max elementwise),
    eigenvalues >= -``eig_tol`` (default 1e-10), trace 1 within 1e-10.
    ``eig_tol`` may be loosened by producers of numerically integrated
    states; it is not stored.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    eig_tol: float = 1e-10

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = np.asarray(self.matrix, dtype=complex)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix of shape {mat.shape} does not match dims {dims}")
        herm = float(np.abs(mat - mat.conj().T).max())
        # a NaN or infinite entry makes the deviation NaN or infinite
        if not herm <= 1e-10:
            if not math.isfinite(herm):
                raise ValueError("matrix has non-finite entries")
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace is {tr!r}, expected 1")
        lo = float(np.linalg.eigvalsh(mat).min())
        if lo < -self.eig_tol:
            raise ValueError(f"matrix has negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", _frozen_array(mat))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "eig_tol", float(self.eig_tol))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dims) -> "DensityOperator":
        dims = _as_dims(dims)
        d = math.prod(dims)
        return cls(np.eye(d, dtype=complex) / d, dims)


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
    lam = np.linalg.eigvalsh(rho.matrix)
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
