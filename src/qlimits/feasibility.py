"""Spontaneous-emission feasibility budgets for ion-trap quantum computation.

Closed-form estimates: total computation times, the decay-rate bound
that follows from the coupling between Rabi frequency and spontaneous
emission, per-gate error rates from extraneous-level emission, and a
report generator that collects them into a table.

Conventions
-----------
* ``ratio`` always means Gamma_22 / Omega_12^2 in seconds; the budget
  formulas only ever need this combination.
* Bound-type results carry the bound value plus a ``much_greater`` /
  ``much_less`` relation tag; no fuzz factor is applied silently.
* Probability-type results carry a validity flag that turns false
  exactly when the value exceeds 1 (regime breakdown, not an error).
* Ion spectroscopic constants always come from a user-supplied config,
  never from code.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .jc import hbar

__all__ = [
    "MUCH_GREATER",
    "MUCH_LESS",
    "GATE_ERROR_THRESHOLD",
    "EPSILON_ORDER_OF_MAGNITUDE",
    "EPSILON_WORKED",
    "FACTORIZATION_L_BAND",
    "BoundValue",
    "ProbabilityValue",
    "GateErrorRate",
    "AlgorithmCost",
    "TrapParams",
    "IonSpecies",
    "BudgetRow",
    "EmissionBudget",
    "FeasibilityReport",
    "qubit_overhead",
    "total_time_simple",
    "register_decoherence_time",
    "rabi_decay_ratio_bound",
    "computation_time_ion_trap",
    "min_total_time",
    "max_decay_rate",
    "raman_gate_sequence_time",
    "emission_prob_level2",
    "emission_prob_extraneous",
    "error_rate_per_gate",
    "error_rate_vs_operations",
    "load_ion_config",
    "feasibility_report",
]

# SI constants: speed of light (m/s, exact) and vacuum permittivity
# (F/m, CODATA 2022)
c = 299792458.0
epsilon_0 = 8.8541878188e-12

MUCH_GREATER = "much_greater"
MUCH_LESS = "much_less"

# Incoherent error rate per gate above which concatenated error
# correction is not expected to converge.
GATE_ERROR_THRESHOLD = 1e-6

# Step-count constant presets: "of order 400" and the value used in the
# worked examples.
EPSILON_ORDER_OF_MAGNITUDE = 400.0
EPSILON_WORKED = 500.0

# Input sizes bracketing the 23-digit factorization benchmark
# 41141158551285430224619 (a 76-bit number).
FACTORIZATION_L_BAND = tuple(range(75, 81))
FACTORIZATION_MODULUS = 41141158551285430224619


@dataclass(frozen=True)
class BoundValue:
    """A one-sided bound: the true quantity must be >> or << ``value``."""

    value: float
    relation: str

    def __post_init__(self):
        if self.relation not in (MUCH_GREATER, MUCH_LESS):
            raise ValueError(f"unknown relation {self.relation!r}")

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ProbabilityValue:
    """A probability estimate; ``valid`` is false exactly when value > 1."""

    value: float

    @property
    def valid(self) -> bool:
        return self.value <= 1.0

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class GateErrorRate:
    """Per-gate error rate compared against the threshold."""

    value: float
    threshold: float = GATE_ERROR_THRESHOLD

    @property
    def within_threshold(self) -> bool:
        return self.value <= self.threshold

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class AlgorithmCost:
    """Algorithm-side constants: step constant epsilon and input size L."""

    epsilon: float
    L: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.L < 1:
            raise ValueError("L must be >= 1")

    @property
    def qubits_required(self) -> int:
        return qubit_overhead(self.L)

    def total_time(self, tau_el: float) -> float:
        return total_time_simple(self.L, self.epsilon, tau_el)


@dataclass(frozen=True)
class TrapParams:
    """Trap-side constants.

    Only eta and the ratio Gamma_22/Omega_12^2 enter the budget
    formulas; Omega_12 and Gamma_22 may be stored separately when known.
    """

    eta: float
    ratio_gamma_over_omega2: float
    omega12: float | None = None
    gamma22: float | None = None

    def __post_init__(self):
        if self.eta <= 0 or self.ratio_gamma_over_omega2 <= 0:
            raise ValueError("eta and ratio must be > 0")

    def min_total_time(self, cost: AlgorithmCost) -> "BoundValue":
        return min_total_time(cost.L, cost.epsilon, self.eta, self.ratio_gamma_over_omega2)

    def max_decay_rate(self, cost: AlgorithmCost) -> "BoundValue":
        return max_decay_rate(cost.L, cost.epsilon, self.eta, self.ratio_gamma_over_omega2)

    def computation_time(self, cost: AlgorithmCost) -> float:
        if self.omega12 is None:
            raise ValueError("computation_time needs omega12")
        return computation_time_ion_trap(cost.L, cost.epsilon, self.eta, self.omega12)


ION_FIELDS = ("name", "Gamma22", "Gamma33", "Delta2", "Delta13", "omega12", "omega13", "beta")


@dataclass(frozen=True)
class IonSpecies:
    """Spectroscopic constants of one candidate ion, all SI."""

    name: str
    Gamma22: float
    Gamma33: float
    Delta2: float
    Delta13: float
    omega12: float
    omega13: float
    beta: float

    def __post_init__(self):
        for field_name in ION_FIELDS[1:]:
            if getattr(self, field_name) <= 0:
                raise ValueError(f"ion {self.name!r}: {field_name} must be > 0")


def qubit_overhead(L: int) -> int:
    """Qubits required to factor an L-bit number: 5L + 2."""
    return 5 * L + 2


def total_time_simple(L: float, epsilon: float, tau_el: float) -> float:
    """Total computation time epsilon * tau_el * L^3."""
    return epsilon * tau_el * L**3


def register_decoherence_time(tau_qb: float, L: float) -> float:
    """Decoherence time of the 5L+2 qubit register: tau_qb / (5 L)."""
    return tau_qb / (5.0 * L)


def rabi_decay_ratio_bound(E: float, omega12: float) -> float:
    """Omega_12^2 / Gamma_22 = 6 pi c^3 eps0 E^2 / (hbar omega_12^3), in 1/s.

    Rabi frequency and spontaneous decay are tied through the driving
    field strength E; this is the largest ratio a field E can buy.
    """
    return 6.0 * math.pi * c**3 * epsilon_0 * E**2 / (hbar * omega12**3)


def computation_time_ion_trap(L: float, epsilon: float, eta: float, Omega12: float) -> float:
    """T = 4 pi sqrt(5L) / (eta Omega_12) * epsilon L^3 for epsilon L^3 steps."""
    return 4.0 * math.pi * math.sqrt(5.0 * L) / (eta * Omega12) * epsilon * L**3


def min_total_time(L: float, epsilon: float, eta: float, ratio: float) -> BoundValue:
    """Lower bound on the total computation time, T >> value.

    value = 400 pi^2 (epsilon/eta)^2 * ratio * L^8, with ratio the
    stored Gamma_22/Omega_12^2 in seconds.
    """
    value = 400.0 * math.pi**2 * (epsilon / eta) ** 2 * ratio * L**8
    return BoundValue(value, MUCH_GREATER)


def max_decay_rate(L: float, epsilon: float, eta: float, ratio: float) -> BoundValue:
    """Upper bound on the decay rate, Gamma_22 << value, in 1/s.

    value = (Omega_12^2/Gamma_22) / (2000 pi^2 (epsilon/eta)^2 L^9),
    evaluated with the stored ratio.
    """
    value = 1.0 / (ratio * 2000.0 * math.pi**2 * (epsilon / eta) ** 2 * L**9)
    return BoundValue(value, MUCH_LESS)


def raman_gate_sequence_time(N: float, Delta2: float, Omega02: float) -> float:
    """Time for N Raman-pulse quantum gates: N * 8 pi Delta_2 / Omega_02^2."""
    return N * 8.0 * math.pi * Delta2 / Omega02**2


def emission_prob_level2(N: float, Gamma22: float, Delta2: float) -> ProbabilityValue:
    """Probability of a spontaneous emission from level 2 in N gates: 8 Gamma_22 N / Delta_2."""
    return ProbabilityValue(8.0 * Gamma22 * N / Delta2)


def emission_prob_extraneous(N: float, L: float, ion: IonSpecies, eta: float) -> ProbabilityValue:
    """Probability of an emission via extraneous levels in N gates.

    p3 = 80 Gamma_33^2 pi^2 N^2 L / (Delta_13^2 beta eta^2) * (w12/w13)^3
    """
    value = (
        80.0
        * ion.Gamma33**2
        * math.pi**2
        * N**2
        * L
        / (ion.Delta13**2 * ion.beta * eta**2)
        * (ion.omega12 / ion.omega13) ** 3
    )
    return ProbabilityValue(value)


def error_rate_per_gate(L: float, ion: IonSpecies, eta: float) -> GateErrorRate:
    """Optimized per-gate error rate r = p_tot/N at the best operating point.

    r = sqrt(320 L / beta) * pi Gamma_33 / (Delta_13 eta) * (w12/w13)^(3/2)
    """
    value = (
        math.sqrt(320.0 * L / ion.beta)
        * math.pi
        * ion.Gamma33
        / (ion.Delta13 * eta)
        * (ion.omega12 / ion.omega13) ** 1.5
    )
    return GateErrorRate(value)


def error_rate_vs_operations(N: float, L: float, ion: IonSpecies, eta: float) -> float:
    """(p2 + p3)/N as a function of the operation count N.

    Monotone increasing in N (p2/N is constant while p3/N grows
    linearly), so small operation counts are always favourable at fixed
    detunings.
    """
    p2 = emission_prob_level2(N, ion.Gamma22, ion.Delta2)
    p3 = emission_prob_extraneous(N, L, ion, eta)
    return (p2.value + p3.value) / N


def load_ion_config(source) -> list[IonSpecies]:
    """Load ion constants from a JSON file (path) or parsed object.

    Accepts a JSON array of ion objects or ``{"ions": [...]}``.  The
    schema is strict: exactly the fields name, Gamma22, Gamma33,
    Delta2, Delta13, omega12, omega13, beta; all numeric fields
    positive.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if isinstance(data, dict) and "ions" in data:
        data = data["ions"]
    if not isinstance(data, list):
        raise ValueError("ion config must be a JSON array of ion objects")
    ions = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"ion entry {i} is not an object")
        missing = set(ION_FIELDS) - set(entry)
        extra = set(entry) - set(ION_FIELDS)
        if missing or extra:
            raise ValueError(
                f"ion entry {i}: missing fields {sorted(missing)}, unknown fields {sorted(extra)}"
            )
        if not isinstance(entry["name"], str) or not entry["name"]:
            raise ValueError(f"ion entry {i}: name must be a nonempty string")
        numeric = {}
        for field_name in ION_FIELDS[1:]:
            value = entry[field_name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"ion entry {i}: {field_name} must be a number")
            numeric[field_name] = float(value)
        ions.append(IonSpecies(name=entry["name"], **numeric))
    names = [ion.name for ion in ions]
    if len(set(names)) != len(names):
        raise ValueError("duplicate ion names in config")
    return ions


@dataclass(frozen=True)
class BudgetRow:
    L: int
    t_bound: BoundValue          # total time, T >> value (s)
    gamma_bound: BoundValue      # decay rate, Gamma << value (1/s)
    gate_errors: tuple[tuple[str, GateErrorRate], ...]  # (ion name, r(L))


@dataclass(frozen=True)
class EmissionBudget:
    ion: str
    L: int
    n_ops: float
    p2: ProbabilityValue
    p3: ProbabilityValue
    p_total: ProbabilityValue
    error_rate: float            # p_total / n_ops


@dataclass(frozen=True)
class FeasibilityReport:
    epsilon: float
    eta: float
    ratio_gamma_over_omega2: float
    rows: tuple[BudgetRow, ...]
    ions: tuple[IonSpecies, ...]
    emissions: tuple[EmissionBudget, ...]
    notes: tuple[str, ...]

    @property
    def ion_data_missing(self) -> bool:
        return not self.ions

    def error_rate_vs_operations(self, n_ops: float, ion_name: str, L: float) -> float:
        """(p2 + p3)/N for one of the report's ions; monotone in N."""
        for ion in self.ions:
            if ion.name == ion_name:
                return error_rate_vs_operations(n_ops, L, ion, self.eta)
        raise KeyError(f"no ion named {ion_name!r} in this report")

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "eta": self.eta,
            "ratio_gamma_over_omega2_s": self.ratio_gamma_over_omega2,
            "ion_data_missing": self.ion_data_missing,
            "rows": [
                {
                    "L": row.L,
                    "T_bound_s": row.t_bound.value,
                    "T_relation": row.t_bound.relation,
                    "Gamma_bound_per_s": row.gamma_bound.value,
                    "Gamma_relation": row.gamma_bound.relation,
                    "r_per_ion": {
                        name: {"r": rate.value, "within_threshold": rate.within_threshold}
                        for name, rate in row.gate_errors
                    },
                }
                for row in self.rows
            ],
            "emissions": [
                {
                    "ion": em.ion,
                    "L": em.L,
                    "N": em.n_ops,
                    "p2": em.p2.value,
                    "p2_valid": em.p2.valid,
                    "p3": em.p3.value,
                    "p3_valid": em.p3.valid,
                    "p_total": em.p_total.value,
                    "p_total_valid": em.p_total.valid,
                    "error_rate_per_gate": em.error_rate,
                }
                for em in self.emissions
            ],
            "notes": list(self.notes),
        }

    def to_text_table(self) -> str:
        lines = [
            f"spontaneous-emission budget  (epsilon={self.epsilon:.12g}, eta={self.eta:.12g}, "
            f"Gamma/Omega^2={self.ratio_gamma_over_omega2:.12g} s)",
            "",
            f"{'L':>5}  {'T >> [s]':>16}  {'Gamma << [1/s]':>16}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.L:>5}  {row.t_bound.value:>16.12g}  {row.gamma_bound.value:>16.12g}"
            )
        if self.ions:
            lines.append("")
            lines.append(f"per-gate error rates r (threshold {GATE_ERROR_THRESHOLD:.12g}):")
            for row in self.rows:
                for name, rate in row.gate_errors:
                    verdict = "ok" if rate.within_threshold else "ABOVE THRESHOLD"
                    lines.append(f"  L={row.L:<4} {name:<12} r={rate.value:.12g}  [{verdict}]")
        for em in self.emissions:
            flag = "" if em.p_total.valid else "  [p_total > 1: regime invalid]"
            lines.append(
                f"  {em.ion}: N={em.n_ops:.12g}, L={em.L}: p2={em.p2.value:.12g}, "
                f"p3={em.p3.value:.12g}, p_tot={em.p_total.value:.12g}{flag}"
            )
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def feasibility_report(
    L_values,
    *,
    epsilon: float = EPSILON_WORKED,
    eta: float = 1.0,
    ratio: float = 1e-16,
    ions=(),
    n_ops: float | None = None,
) -> FeasibilityReport:
    """Budget table over the given input sizes.

    Produces the total-time and decay-rate bounds per L, per-ion
    per-gate error rates when ion data is supplied, and per-ion
    emission probabilities when an operation count ``n_ops`` is given.
    Missing ion data yields a partial report with an explicit marker.
    Output is deterministic.
    """
    L_values = [int(L) for L in L_values]
    if not L_values or any(L < 1 for L in L_values):
        raise ValueError("need at least one L >= 1")
    for name, value in (("epsilon", epsilon), ("eta", eta), ("ratio", ratio), ("n_ops", n_ops)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    ions = tuple(ions)
    rows = []
    for L in L_values:
        gate_errors = tuple((ion.name, error_rate_per_gate(L, ion, eta)) for ion in ions)
        rows.append(
            BudgetRow(
                L=L,
                t_bound=min_total_time(L, epsilon, eta, ratio),
                gamma_bound=max_decay_rate(L, epsilon, eta, ratio),
                gate_errors=gate_errors,
            )
        )
    emissions = []
    if n_ops is not None:
        for L in L_values:
            for ion in ions:
                p2 = emission_prob_level2(n_ops, ion.Gamma22, ion.Delta2)
                p3 = emission_prob_extraneous(n_ops, L, ion, eta)
                total = ProbabilityValue(p2.value + p3.value)
                emissions.append(
                    EmissionBudget(
                        ion=ion.name,
                        L=L,
                        n_ops=float(n_ops),
                        p2=p2,
                        p3=p3,
                        p_total=total,
                        error_rate=total.value / n_ops,
                    )
                )

    notes = [
        "decay-rate column: direct evaluation of the bound gives values a factor ~10 "
        "larger than a previously tabulated version of these numbers (7.73 vs 0.77 1/s at "
        "L=4 with the defaults); the formula as written is reported here."
    ]
    band_rows = [row for row in rows if row.L in FACTORIZATION_L_BAND]
    for row in band_rows:
        years = row.t_bound.value / 3.156e7
        notes.append(
            f"L={row.L} covers the 23-digit ({FACTORIZATION_MODULUS.bit_length()}-bit) "
            f"modulus {FACTORIZATION_MODULUS}: T >> {row.t_bound.value:.3g} s "
            f"(~{years:.1f} years; commonly rounded to ~3.6 years at 1.4e8 s). "
            "A desktop computer-algebra system factors the same number in about 25 s."
        )
    if not ions:
        notes.append("ion data missing: no per-gate error rates (supply an ion config)")
    return FeasibilityReport(
        epsilon=float(epsilon),
        eta=float(eta),
        ratio_gamma_over_omega2=float(ratio),
        rows=tuple(rows),
        ions=ions,
        emissions=tuple(emissions),
        notes=tuple(notes),
    )
