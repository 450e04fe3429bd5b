"""Shared helpers for the test suite: random sampling, the dense
state-vector oracle for cat-state swapping, and the reference outcome
document of the swap and exchange commands."""
import math
from dataclasses import dataclass

import numpy as np

from qlimits.catswap import (
    CatCollection,
    CatState,
    MeasurementSpec,
    enumerate_outcomes,
    polygon_counts,
    untouched_cats,
)
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


def werner_matrix(d, p):
    """d x d Werner state with weight p on the antisymmetric subspace.

    For p >= 1/2 its relative entropy of entanglement is
    ln 2 + p ln p + (1 - p) ln(1 - p) (Vedral & Plenio, PRA 57, 1619
    (1998); Rains, PRA 60, 179 (1999))."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    anti, sym = (np.eye(d * d) - swap) / 2.0, (np.eye(d * d) + swap) / 2.0
    return p * anti / (d * (d - 1) / 2.0) + (1.0 - p) * sym / (d * (d + 1) / 2.0)


def isotropic_matrix(d, f):
    """d x d isotropic state of fidelity f with the maximally entangled state.

    For f >= 1/d its relative entropy of entanglement is
    ln d + f ln f + (1 - f) ln((1 - f)/(d - 1)) (same references)."""
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    projector = np.outer(phi, phi)
    return f * projector + (1.0 - f) * (np.eye(d * d) - projector) / (d * d - 1)


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


# ---------------------------------------------------------------------------
# Dense brute-force oracle for cat-state swapping
# ---------------------------------------------------------------------------
#
# A third check, next to the symbolic engine and the stabilizer oracle of
# qlimits.catswap: the full state vector, projected onto every cat-basis
# state, by code that shares nothing with either.  It holds 2^n amplitudes
# for n particles, so it stops at BRUTE_FORCE_LIMIT.

BRUTE_FORCE_LIMIT = 14
# Largest difference verify_against_dense_oracle accepts in a probability or
# a residual overlap.
DENSE_ATOL = 1e-10


@dataclass(frozen=True)
class DenseOutcome:
    """Brute-force outcome: probability plus the dense residual vector."""

    basis: CatState
    probability: float
    residual_particles: tuple[int, ...]
    residual_vector: np.ndarray | None


def _cat_tensor(cat: CatState) -> np.ndarray:
    """Dense (2,)*n tensor of the normalized cat over its own particles."""
    t = np.zeros((2,) * cat.n_particles, dtype=complex)
    t[cat.bits] = 1.0 / math.sqrt(2.0)
    comp = tuple(1 - b for b in cat.bits)
    t[comp] += cat.sign / math.sqrt(2.0)
    return t


def cats_dense_vector(cats, order) -> np.ndarray:
    """Dense vector of a product of cats, axes arranged to ``order``."""
    order = tuple(order)
    tensor = np.ones((), dtype=complex)
    axis_particles: list[int] = []
    for cat in cats:
        tensor = np.multiply.outer(tensor, _cat_tensor(cat))
        axis_particles.extend(cat.particles)
    if sorted(axis_particles) != sorted(order):
        raise ValueError(f"cats cover particles {sorted(axis_particles)}, expected {sorted(order)}")
    perm = [axis_particles.index(p) for p in order]
    return tensor.transpose(perm).reshape(-1)


def brute_force_oracle(coll: CatCollection, spec: MeasurementSpec) -> list[DenseOutcome]:
    """Exact dense projection onto every cat-basis state of the selection.

    Builds the full normalized state vector with the selected axes
    first, so row i of its (2^p, rest) matrix is the selection's bit
    pattern i.  For i < 2^(p-1) that pattern is canonical (bit 0 on the
    lowest particle), row 2^p - 1 - i is its complement, and the
    projection onto the cat i with sign s is (row_i + s row_c) / sqrt 2.
    Returns probabilities with normalized residual vectors in the
    documented order.  Limited to ``BRUTE_FORCE_LIMIT`` particles total.
    """
    total = coll.n_particles
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(f"{total} particles exceed the dense limit of {BRUTE_FORCE_LIMIT}")
    all_order = coll.particles
    missing = spec.selected.difference(all_order)
    if missing:
        raise ValueError(f"selected particles {sorted(missing)} are not in the collection")
    sel_order = tuple(sorted(spec.selected))
    rest_order = tuple(p for p in all_order if p not in spec.selected)
    psi = cats_dense_vector(coll.cats, sel_order + rest_order)
    matrix = psi.reshape(2 ** len(sel_order), -1)
    half = matrix.shape[0] // 2
    rows, complements = matrix[:half], matrix[::-1][:half]
    root2 = math.sqrt(2.0)
    # + 0.0 maps -0.0 to 0.0, so zero entries are positive, as in the full
    # inner product <basis|psi> over all 2^p rows
    residuals = {+1: (rows + complements) / root2 + 0.0, -1: (rows - complements) / root2 + 0.0}
    outcomes = []
    for i in range(half):
        bits = tuple(map(int, format(i, f"0{len(sel_order)}b")))
        for sign in (+1, -1):
            residual = residuals[sign][i]
            probability = float(np.vdot(residual, residual).real)
            if probability < 1e-12:
                continue
            vec = residual / math.sqrt(probability) if rest_order else None
            outcomes.append(DenseOutcome(CatState(sel_order, bits, sign), probability, rest_order, vec))
    return outcomes


def verify_against_dense_oracle(coll: CatCollection, spec: MeasurementSpec) -> tuple[bool, str]:
    """Compare symbolic outcomes against the dense oracle.

    Checks outcome support, probabilities and residual rays (up to
    global phase) to ``DENSE_ATOL``.  Returns (ok, message).
    """
    symbolic = enumerate_outcomes(coll, spec)
    dense = brute_force_oracle(coll, spec)
    if len(symbolic) != len(dense):
        return False, f"outcome counts differ: symbolic {len(symbolic)} vs dense {len(dense)}"
    passthrough = untouched_cats(coll, spec)
    for sym, num in zip(symbolic, dense):
        if (sym.basis.bits, sym.basis.sign) != (num.basis.bits, num.basis.sign):
            return False, f"support mismatch at basis {sym.basis}"
        if abs(sym.probability - num.probability) > DENSE_ATOL:
            return (
                False,
                f"probability mismatch at {sym.basis}: {sym.probability} vs {num.probability}",
            )
        residual_cats = list(passthrough)
        if sym.residual is not None:
            residual_cats.append(sym.residual)
        if num.residual_vector is None:
            if residual_cats:
                return False, f"dense residual empty but symbolic has {residual_cats}"
            continue
        expected = cats_dense_vector(residual_cats, num.residual_particles)
        overlap = abs(np.vdot(expected, num.residual_vector))
        if abs(overlap - 1.0) > DENSE_ATOL:
            return False, f"residual ray mismatch at {sym.basis}: |overlap|={overlap!r}"
    total = sum(o.probability for o in symbolic)
    if abs(total - 1.0) > 1e-12:
        return False, f"probabilities sum to {total!r}"
    return True, "symbolic outcomes match the dense oracle"


# A swap above BRUTE_FORCE_LIMIT: 19 particles in nine cats, six of them
# touched.  Two particles of the GHZ cat are measured, which fixes bit 1 of
# every basis, and three Bell pairs are untouched.
LARGE_SWAP_SCENARIO = {
    "cats": [
        {"particles": [0, 1, 2], "bits": [0, 1, 0], "sign": "-"},
        {"particles": [3, 4], "bits": [0, 0], "sign": "+"},
        {"particles": [5, 6], "bits": [0, 0], "sign": "-"},
        {"particles": [7, 8], "bits": [0, 1], "sign": "+"},
        {"particles": [9, 10], "bits": [0, 0], "sign": "+"},
        {"particles": [11, 12], "bits": [0, 0], "sign": "-"},
        {"particles": [13, 14], "bits": [0, 0], "sign": "+"},
        {"particles": [15, 16], "bits": [0, 0], "sign": "+"},
        {"particles": [17, 18], "bits": [0, 1], "sign": "-"},
    ],
    "measure": [0, 1, 3, 5, 7, 9, 11],
}


def _cat_document(cat: CatState | None):
    if cat is None:
        return None
    return {"particles": list(cat.particles), "bits": list(cat.bits), "sign": "+" if cat.sign > 0 else "-"}


def outcome_document(coll: CatCollection, spec: MeasurementSpec, outcomes) -> dict:
    """The document ``swap`` writes for ``outcomes`` of measuring ``spec`` on
    ``coll``, built field by field from the outcome objects, for the stdlib
    encoder to spell."""
    return {
        "measure": sorted(spec.selected),
        "polygon_counts": list(polygon_counts(coll, spec)),
        "untouched": [_cat_document(cat) for cat in untouched_cats(coll, spec)],
        "outcomes": [
            {
                "basis_bits": list(o.basis.bits),
                "basis_sign": "+" if o.basis.sign > 0 else "-",
                "probability": o.probability,
                "residual": _cat_document(o.residual),
            }
            for o in outcomes
        ],
    }
