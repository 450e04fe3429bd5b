"""Generalized entanglement swapping on multiparticle cat states.

A cat state on particles (i_1 < ... < i_n) is the normalized ray

    |u_1 ... u_n>  +-  |u_1^c ... u_n^c>,

with u complement-canonicalized so that the lowest particle carries bit
0 (global phase is never tracked).  Bell states are the two-particle
case, GHZ states the three- and four-particle cases; a single particle
degenerates to |0> +- |1>.

Measuring a subset of particles in the cat basis converts a product of
cat states into one cat on the measured particles and one on the
remaining particles of the touched sets:

    prod_m E(n_m)  ->  E(p) (x) E(sum_m n_m - p),

the polygon rule.  The symbolic engine below enumerates outcome
probabilities and residuals exactly; :func:`brute_force_oracle` checks
them against dense state-vector algebra.  Untouched sets pass through
as separate factors.

Outcome order is the documented total order: lexicographic on the
canonical basis bits, then sign with "+" before "-".

The symbolic engine and the exchange are pure Python; numpy is
imported only by the dense functions that use it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _json_excerpt

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CatState",
    "CatCollection",
    "MeasurementSpec",
    "SwapOutcome",
    "DenseOutcome",
    "ExchangeResult",
    "enumerate_outcomes",
    "polygon_counts",
    "untouched_cats",
    "brute_force_oracle",
    "verify_against_oracle",
    "telephone_exchange",
    "cats_dense_vector",
    "scenario_from_dict",
    "outcomes_to_jsonable",
    "BRUTE_FORCE_LIMIT",
    "MAX_OUTCOMES",
]

BRUTE_FORCE_LIMIT = 14
# Outcome lists longer than this are refused before they are enumerated.
MAX_OUTCOMES = 2**16
# Largest difference verify_against_oracle accepts in a probability or a
# residual overlap.
ORACLE_ATOL = 1e-10


def _norm_sign(sign) -> int:
    if sign in (+1, -1):
        return int(sign)
    if sign == "+":
        return +1
    if sign == "-":
        return -1
    raise ValueError(f"sign must be +1/-1 or '+'/'-', got {sign!r}")


@dataclass(frozen=True)
class CatState:
    """Canonical n-particle cat state.

    Construction sorts particles by id, carries the bit assignment
    along, and complements all bits if needed so the lowest particle
    holds bit 0.  Constructing *is* canonicalizing: rebuilding a cat
    from its own fields returns an equal cat.
    """

    particles: tuple[int, ...]
    bits: tuple[int, ...]
    sign: int

    def __post_init__(self):
        particles = tuple(int(p) for p in self.particles)
        bits = tuple(int(b) for b in self.bits)
        if not particles:
            raise ValueError("a cat state needs at least one particle")
        if len(set(particles)) != len(particles):
            raise ValueError(f"duplicate particle ids in {particles}")
        if any(p < 0 for p in particles):
            raise ValueError("particle ids must be nonnegative")
        if len(bits) != len(particles) or any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0/1, one per particle")
        order = sorted(range(len(particles)), key=lambda i: particles[i])
        particles = tuple(particles[i] for i in order)
        bits = tuple(bits[i] for i in order)
        if bits[0] == 1:
            bits = tuple(1 - b for b in bits)
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "sign", _norm_sign(self.sign))

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    def sign_char(self) -> str:
        return "+" if self.sign > 0 else "-"


@dataclass(frozen=True)
class CatCollection:
    """Product of cat states on pairwise-disjoint particle sets."""

    cats: tuple[CatState, ...]

    def __post_init__(self):
        cats = tuple(self.cats)
        if not cats:
            raise ValueError("collection needs at least one cat state")
        seen: set[int] = set()
        for cat in cats:
            overlap = seen.intersection(cat.particles)
            if overlap:
                raise ValueError(f"particle ids {sorted(overlap)} appear in more than one cat")
            seen.update(cat.particles)
        object.__setattr__(self, "cats", cats)

    @property
    def particles(self) -> tuple[int, ...]:
        return tuple(sorted(p for cat in self.cats for p in cat.particles))

    @property
    def n_particles(self) -> int:
        return sum(cat.n_particles for cat in self.cats)


@dataclass(frozen=True)
class MeasurementSpec:
    """Particles jointly projected onto the cat basis, given as any iterable of ids."""

    selected: frozenset[int]

    def __post_init__(self):
        selected = frozenset(int(p) for p in self.selected)
        if not selected:
            raise ValueError("measurement must select at least one particle")
        object.__setattr__(self, "selected", selected)


@dataclass(frozen=True)
class SwapOutcome:
    """One cat-basis outcome: basis state, probability and residual.

    ``residual`` is the single cat on the unmeasured particles of the
    touched sets, or None when the measurement consumed them whole.
    """

    basis: CatState
    probability: float
    residual: CatState | None


@dataclass(frozen=True)
class DenseOutcome:
    """Brute-force outcome: probability plus the dense residual vector."""

    basis: CatState
    probability: float
    residual_particles: tuple[int, ...]
    residual_vector: np.ndarray | None


def _split_by_measurement(coll: CatCollection, spec: MeasurementSpec):
    """(touched cats, sorted unmeasured particles of the touched cats, untouched cats)."""
    missing = spec.selected.difference(coll.particles)
    if missing:
        raise ValueError(f"selected particles {sorted(missing)} are not in the collection")
    touched = []
    untouched = []
    for cat in coll.cats:
        (untouched if spec.selected.isdisjoint(cat.particles) else touched).append(cat)
    rest_order = tuple(sorted(p for cat in touched for p in cat.particles if p not in spec.selected))
    return touched, rest_order, tuple(untouched)


def untouched_cats(coll: CatCollection, spec: MeasurementSpec) -> tuple[CatState, ...]:
    """Cats with no selected particle; they pass through every outcome."""
    return _split_by_measurement(coll, spec)[2]


def polygon_counts(coll: CatCollection, spec: MeasurementSpec) -> tuple[int, int]:
    """(measured-side size, residual-side size) over the touched cats."""
    return len(spec.selected), len(_split_by_measurement(coll, spec)[1])


def _canonical_cat(particles: tuple[int, ...], bits: tuple[int, ...], sign: int) -> CatState:
    """Trusted constructor for cats built from already-validated ones.

    ``particles`` must be sorted and distinct, ``bits`` 0/1 ints and
    ``sign`` +1/-1, so only the complement that puts bit 0 on the lowest
    particle is applied.  Public construction goes through
    :class:`CatState`, which validates.
    """
    if bits[0]:
        bits = tuple(1 - b for b in bits)
    cat = object.__new__(CatState)
    object.__setattr__(cat, "particles", particles)
    object.__setattr__(cat, "bits", bits)
    object.__setattr__(cat, "sign", sign)
    return cat


def enumerate_outcomes(coll: CatCollection, spec: MeasurementSpec) -> list[SwapOutcome]:
    """All nonzero-probability cat-basis outcomes, in the documented order.

    Each outcome's residual is one cat state over all unmeasured
    particles of the touched sets; untouched sets are unaffected (see
    :func:`untouched_cats`).  Probabilities sum to 1.  Raises
    ValueError, before enumerating, when there would be more than
    ``MAX_OUTCOMES`` outcomes.
    """
    touched, rest_order, _ = _split_by_measurement(coll, spec)
    sel_order = tuple(sorted(spec.selected))
    n_touched = len(touched)
    # 2 signs per branch assignment, halved when the touched cats are consumed
    count = 2 ** (n_touched if rest_order else n_touched - 1)
    if count > MAX_OUTCOMES:
        raise ValueError(f"{count} outcomes exceed the limit MAX_OUTCOMES = {MAX_OUTCOMES}")
    sign_product = math.prod(cat.sign for cat in touched)
    outcomes = []
    # the complement branch assignment repeats the canonical basis, so
    # the first touched cat's branch is fixed to 0
    for tail in itertools.product((0, 1), repeat=n_touched - 1):
        bit = {}
        for cat, flip in zip(touched, (0, *tail)):
            for p, b in zip(cat.particles, cat.bits):
                bit[p] = b ^ flip
        v = tuple(map(bit.__getitem__, sel_order))
        if rest_order:
            w = tuple(map(bit.__getitem__, rest_order))
            outcomes += [
                SwapOutcome(
                    _canonical_cat(sel_order, v, s),
                    0.5**n_touched,
                    _canonical_cat(rest_order, w, s * sign_product),
                )
                for s in (+1, -1)
            ]
        else:
            # all touched cats fully consumed: the two expansion branches
            # interfere, leaving only the sign that matches the collection
            outcomes.append(
                SwapOutcome(_canonical_cat(sel_order, v, sign_product), 0.5 ** (n_touched - 1), None)
            )
    return sorted(outcomes, key=lambda o: (o.basis.bits, 0 if o.basis.sign > 0 else 1))


# ---------------------------------------------------------------------------
# Dense brute-force oracle
# ---------------------------------------------------------------------------


def _cat_tensor(cat: CatState) -> np.ndarray:
    """Dense (2,)*n tensor of the normalized cat over its own particles."""
    import numpy as np

    t = np.zeros((2,) * cat.n_particles, dtype=complex)
    t[cat.bits] = 1.0 / math.sqrt(2.0)
    comp = tuple(1 - b for b in cat.bits)
    t[comp] += cat.sign / math.sqrt(2.0)
    return t


def cats_dense_vector(cats, order) -> np.ndarray:
    """Dense vector of a product of cats, axes arranged to ``order``."""
    import numpy as np

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
    import numpy as np

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


def verify_against_oracle(coll: CatCollection, spec: MeasurementSpec) -> tuple[bool, str]:
    """Compare symbolic outcomes against the dense oracle.

    Checks outcome support, probabilities and residual rays (up to
    global phase) to ``ORACLE_ATOL``.  Returns (ok, message).
    """
    import numpy as np

    symbolic = enumerate_outcomes(coll, spec)
    dense = brute_force_oracle(coll, spec)
    if len(symbolic) != len(dense):
        return False, f"outcome counts differ: symbolic {len(symbolic)} vs dense {len(dense)}"
    passthrough = untouched_cats(coll, spec)
    for sym, num in zip(symbolic, dense):
        if (sym.basis.bits, sym.basis.sign) != (num.basis.bits, num.basis.sign):
            return False, f"support mismatch at basis {sym.basis}"
        if abs(sym.probability - num.probability) > ORACLE_ATOL:
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
        if abs(overlap - 1.0) > ORACLE_ATOL:
            return False, f"residual ray mismatch at {sym.basis}: |overlap|={overlap!r}"
    total = sum(o.probability for o in symbolic)
    if abs(total - 1.0) > 1e-12:
        return False, f"probabilities sum to {total!r}"
    return True, "symbolic outcomes match the dense oracle"


# ---------------------------------------------------------------------------
# Quantum telephone exchange
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of a cat-basis measurement at the exchange hub.

    Every outcome's residual is a len(request)-particle cat over the
    requested users' particles; unrequested users keep their Bell pairs.
    """

    users: tuple[str, ...]
    request: tuple[str, ...]
    user_particles: dict[str, int]
    hub_particles: dict[str, int]
    measured: tuple[int, ...]
    collection: CatCollection
    outcomes: tuple[SwapOutcome, ...]


def telephone_exchange(users, request) -> ExchangeResult:
    """Entangle the requested users through one measurement at the hub.

    Each user shares a Bell pair |00>+|11> with the exchange.  Particle
    ids follow the wheel layout: user 1 holds particle 1 with partner 2
    at the hub; every further user m holds particle 2m with partner
    2m-1 at the hub.  Projecting the partners of the requested users
    onto the cat basis leaves those users' particles in a cat state.
    """
    users = [str(u) for u in users]
    if len(set(users)) != len(users):
        raise ValueError("duplicate user names")
    request = [str(u) for u in request]
    unknown = [u for u in request if u not in users]
    if unknown:
        raise ValueError(f"unknown users in request: {unknown}")
    if not request:
        raise ValueError("request at least one user")
    user_particles = {}
    hub_particles = {}
    cats = []
    for m, user in enumerate(users, start=1):
        a, b = 2 * m - 1, 2 * m
        mine, hub = (a, b) if m == 1 else (b, a)
        user_particles[user] = mine
        hub_particles[user] = hub
        cats.append(CatState((a, b), (0, 0), +1))
    coll = CatCollection(tuple(cats))
    measured = tuple(sorted(hub_particles[u] for u in request))
    outcomes = enumerate_outcomes(coll, MeasurementSpec(measured))
    return ExchangeResult(
        users=tuple(users),
        request=tuple(request),
        user_particles=user_particles,
        hub_particles=hub_particles,
        measured=measured,
        collection=coll,
        outcomes=tuple(outcomes),
    )


# ---------------------------------------------------------------------------
# Scenario file schema
# ---------------------------------------------------------------------------


def _int_list(value, what) -> list:
    """``value`` if it is a list of JSON integers (true and false are not), else ValueError."""
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise ValueError(f"{what} must be a list of integers, got {_json_excerpt(value)}")
    return value


def scenario_from_dict(data: dict) -> tuple[CatCollection, MeasurementSpec]:
    """Parse ``{"cats": [{"particles", "bits", "sign"}], "measure": [...]}``.

    The schema is strict: ``particles``, ``bits`` and ``measure`` are
    lists of integers, and ``sign`` is "+", "-", 1 or -1.
    """
    if not isinstance(data, dict) or "cats" not in data or "measure" not in data:
        raise ValueError("scenario needs 'cats' and 'measure' entries")
    if not isinstance(data["cats"], list):
        raise ValueError("'cats' must be a list of cat objects")
    cats = []
    for i, entry in enumerate(data["cats"]):
        try:
            sign = entry["sign"]
            if sign not in ("+", "-") and not (type(sign) is int and sign in (1, -1)):
                raise ValueError(f"sign must be '+', '-', 1 or -1, got {_json_excerpt(sign)}")
            particles = _int_list(entry["particles"], "particles")
            bits = _int_list(entry["bits"], "bits")
            cats.append(CatState(tuple(particles), tuple(bits), sign))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad cat entry {i}: {exc}") from exc
    coll = CatCollection(tuple(cats))
    spec = MeasurementSpec(_int_list(data["measure"], "measure"))
    return coll, spec


def _cat_to_jsonable(cat: CatState | None):
    if cat is None:
        return None
    return {"particles": list(cat.particles), "bits": list(cat.bits), "sign": cat.sign_char()}


def outcomes_to_jsonable(coll, spec, outcomes) -> dict:
    """JSON-ready structure for a scenario's outcomes."""
    _, rest_order, untouched = _split_by_measurement(coll, spec)
    return {
        "measure": sorted(spec.selected),
        "polygon_counts": [len(spec.selected), len(rest_order)],
        "untouched": [_cat_to_jsonable(cat) for cat in untouched],
        "outcomes": [
            {
                "basis_bits": list(o.basis.bits),
                "basis_sign": o.basis.sign_char(),
                "probability": o.probability,
                "residual": _cat_to_jsonable(o.residual),
            }
            for o in outcomes
        ],
    }
