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
probabilities and residuals exactly; :func:`check_outcomes` checks
them against an independent stabilizer computation over GF(2).
Untouched sets pass through as separate factors.

Outcome order is the documented total order: lexicographic on the
canonical basis bits, then sign with "+" before "-".

The module is pure Python: it imports no numpy.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import _json_excerpt, _json_list

__all__ = [
    "CatState",
    "CatCollection",
    "MeasurementSpec",
    "SwapOutcome",
    "ExchangeResult",
    "enumerate_outcomes",
    "polygon_counts",
    "untouched_cats",
    "verify_against_oracle",
    "check_outcomes",
    "telephone_exchange",
    "scenario_from_dict",
    "MAX_OUTCOMES",
]

# Outcome lists longer than this are refused before they are enumerated.
MAX_OUTCOMES = 2**16


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
# Stabilizer oracle
# ---------------------------------------------------------------------------
#
# A cat |u> +- |u^c> on particles p_0 < ... < p_(n-1) is the one state
# stabilized by X on all its particles, with sign +-, and by each
# Z_(p_0) Z_(p_k), with sign (-1)^(u_k) (u_0 = 0).  A cat-basis
# measurement on S measures X_S and each Z_(s_0) Z_(s_k): outcome (v, +-)
# gives X_S the sign +- and Z_(s_0) Z_(s_k) the sign (-1)^(v_k).  Every
# operator is X-type or Z-type, so the X and the Z halves are two separate
# GF(2) problems (the CSS case of Aaronson & Gottesman, PRA 70, 052328
# (2004)).  A row is one int, from the highest bit down:
#
#     [S columns | R columns | sign form]
#
# R holds the unmeasured particles.  The sign form is affine in the
# outcome: bit 0 is a constant and bit k + 1 the sign bit of the k-th
# measured operator (X_S for k = 0).  The measurement is complete on S:
# every operator on S that commutes with all its operators is a product
# of them.  So a product of the state's generators and the measured
# operators that acts on S as the identity commutes with the measurement,
# and it stabilizes the state after it.  In an echelon basis of the
# state's and the measurement's rows, the rows that lead in R generate the
# group that stabilizes R after the measurement, and those that lead in
# the sign form are the identity with a sign: an outcome that makes one of
# them -1 never occurs, and each other one has probability
# 2^-(measured operators - such rows).


def _reduce(basis: dict[int, int], row: int, floor: int) -> int:
    """``row`` with its leading bit cleared by the ``basis`` row that leads
    there (the basis is keyed by leading bit), for as long as that bit is
    at or above ``floor`` and such a row exists."""
    while row >> floor:
        lead = row.bit_length() - 1
        if lead not in basis:
            break
        row ^= basis[lead]
    return row


def _echelon(rows) -> dict[int, int]:
    """Echelon basis of ``rows``, keyed by leading bit."""
    basis = {}
    for row in rows:
        row = _reduce(basis, row, 0)
        if row:
            basis[row.bit_length() - 1] = row
    return basis


def verify_against_oracle(coll: CatCollection, spec: MeasurementSpec) -> tuple[bool, str]:
    """Enumerate the symbolic outcomes and check them (see :func:`check_outcomes`)."""
    return check_outcomes(coll, spec, enumerate_outcomes(coll, spec))


def check_outcomes(coll: CatCollection, spec: MeasurementSpec, outcomes) -> tuple[bool, str]:
    """Check the ``outcomes`` of measuring ``spec`` on ``coll`` against the oracle.

    Checks exactly that the outcomes are the possible ones, in the
    documented order, each with probability 2^-r for r random outcome
    bits, and that for each outcome every generator of its residual and
    of each untouched cat lies, with its sign, in the group that
    stabilizes the unmeasured particles.  Returns (ok, message).
    """
    passthrough = untouched_cats(coll, spec)
    sel = tuple(sorted(spec.selected))
    rest = tuple(p for p in coll.particles if p not in spec.selected)
    m = len(sel)
    column = {p: 1 << (m + 1 + i) for i, p in enumerate(rest + sel)}

    def mask(particles):
        return sum(map(column.__getitem__, particles))

    x_half = _echelon([mask(cat.particles) | (cat.sign < 0) for cat in coll.cats] + [mask(sel) | 0b10])
    z_half = _echelon(
        [mask((cat.particles[0], p)) | b for cat in coll.cats for p, b in zip(cat.particles[1:], cat.bits[1:])]
        + [mask((sel[0], s)) | 1 << (k + 1) for k, s in enumerate(sel[1:], start=1)]
    )
    constraints = [row for half in (x_half, z_half) for row in half.values() if not row >> (m + 1)]
    random_bits = m - len(constraints)
    if len(outcomes) != 2**random_bits:
        return False, f"outcome counts differ: symbolic {len(outcomes)} vs oracle {2**random_bits}"

    def sign_forms(particles):
        """Sign form of each generator, X first, of a cat on ``particles``
        in the group on the unmeasured particles; None outside it."""
        ops = [(x_half, mask(particles))] + [(z_half, mask((particles[0], p))) for p in particles[1:]]
        return [None if row >> (m + 1) else row for row in (_reduce(half, op, m + 1) for half, op in ops)]

    # residual particles -> sign forms of each cat on the unmeasured particles
    forms = {}

    previous = None
    for o in outcomes:
        basis = o.basis
        # bit 0 of a canonical basis is 0, so bit 1 holds only the sign
        signs = 1 | (basis.sign < 0) << 1 | sum(b << (k + 1) for k, b in enumerate(basis.bits))
        if basis.particles != sel or any((row & signs).bit_count() & 1 for row in constraints):
            return False, f"support mismatch at basis {basis}"
        key = (basis.bits, basis.sign < 0)
        if previous is not None and key <= previous:
            return False, f"outcomes out of order at basis {basis}"
        previous = key
        if o.probability != 0.5**random_bits:
            return False, f"probability mismatch at {basis}: {o.probability} vs {0.5**random_bits}"
        cats = passthrough if o.residual is None else (o.residual, *passthrough)
        particles = None if o.residual is None else o.residual.particles
        if particles not in forms:
            covered = tuple(sorted(p for cat in cats for p in cat.particles))
            if covered != rest:
                return False, f"residual particles at {basis}: {covered} vs unmeasured {rest}"
            forms[particles] = [sign_forms(cat.particles) for cat in cats]
        for cat, cat_forms in zip(cats, forms[particles]):
            for form, bit in zip(cat_forms, (cat.sign < 0, *cat.bits[1:])):
                if form is None or (form & signs).bit_count() & 1 != bit:
                    return False, f"residual mismatch at {basis}: {cat}"
    return True, "symbolic outcomes match the stabilizer oracle"


# ---------------------------------------------------------------------------
# Quantum telephone exchange
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExchangeResult:
    """An exchange as a swap scenario: the users' Bell pairs with the hub,
    and the cat-basis measurement of the requested users' hub particles.

    Every outcome of ``spec`` on ``collection`` leaves a len(request)-particle
    cat over the requested users' particles; unrequested users keep their
    Bell pairs.
    """

    collection: CatCollection
    spec: MeasurementSpec
    user_particles: dict[str, int]
    hub_particles: dict[str, int]


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
    if len(set(request)) != len(request):
        raise ValueError("duplicate user names in request")
    user_particles = {}
    hub_particles = {}
    cats = []
    for m, user in enumerate(users, start=1):
        a, b = 2 * m - 1, 2 * m
        mine, hub = (a, b) if m == 1 else (b, a)
        user_particles[user] = mine
        hub_particles[user] = hub
        cats.append(CatState((a, b), (0, 0), +1))
    spec = MeasurementSpec(hub_particles[u] for u in request)
    return ExchangeResult(CatCollection(tuple(cats)), spec, user_particles, hub_particles)


# ---------------------------------------------------------------------------
# Scenario file schema
# ---------------------------------------------------------------------------


def scenario_from_dict(data: dict) -> tuple[CatCollection, MeasurementSpec]:
    """Parse ``{"cats": [{"particles", "bits", "sign"}], "measure": [...]}``.

    The schema is strict: ``particles``, ``bits`` and ``measure`` are
    lists of integers, ``measure`` names each particle once, and ``sign``
    is "+", "-", 1 or -1.
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
            particles = _json_list(entry["particles"], "particles", int)
            bits = _json_list(entry["bits"], "bits", int)
            cats.append(CatState(tuple(particles), tuple(bits), sign))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad cat entry {i}: {exc}") from exc
    coll = CatCollection(tuple(cats))
    measure = _json_list(data["measure"], "measure", int)
    spec = MeasurementSpec(measure)
    if len(spec.selected) != len(measure):
        raise ValueError(f"duplicate particle ids in measure {_json_excerpt(measure)}")
    return coll, spec

