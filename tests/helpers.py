"""Shared random-sampling helpers for the test suite."""
import numpy as np

from qlimits.catswap import CatCollection, CatState, MeasurementSpec
from qlimits.core import DensityOperator, PureState


def random_unitary(rng, d):
    """Haar-ish unitary from QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(rng, dims):
    d = int(np.prod(dims))
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z), dims)


def random_density_operator(rng, dims, rank=None):
    d = int(np.prod(dims))
    rank = rank or d
    z = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real, dims)


def random_swap_scenario(rng, max_particles=12, max_cats=4):
    """Random cat collection and selection (at least one particle chosen)."""
    n_cats = int(rng.integers(1, max_cats + 1))
    sizes = []
    remaining = max_particles
    for i in range(n_cats):
        hi = min(remaining - (n_cats - 1 - i), 5)
        size = int(rng.integers(1, hi + 1))
        sizes.append(size)
        remaining -= size
    ids = rng.permutation(40)[: sum(sizes)].tolist()
    cats = []
    cursor = 0
    for size in sizes:
        particles = ids[cursor : cursor + size]
        cursor += size
        bits = rng.integers(0, 2, size=size).tolist()
        sign = "+" if rng.random() < 0.5 else "-"
        cats.append(CatState(tuple(particles), tuple(bits), sign))
    coll = CatCollection(tuple(cats))
    selected = []
    for cat in cats:
        k = int(rng.integers(0, cat.n_particles + 1))
        selected.extend(rng.permutation(cat.particles)[:k].tolist())
    if not selected:
        cat = cats[int(rng.integers(0, len(cats)))]
        selected.append(int(cat.particles[0]))
    return coll, MeasurementSpec(selected)
