"""Quantum-limits toolkit.

Library and CLI covering four areas:

* ``qlimits.jc`` -- damped Jaynes-Cummings dynamics of a trapped-ion
  qubit with two phenomenological reservoir couplings, plus an exact
  dephasing propagator used as a cross-check oracle.
* ``qlimits.feasibility`` -- closed-form spontaneous-emission budgets
  for ion-trap quantum computation (computation times, decay-rate
  bounds, per-gate error rates, report generation).
* ``qlimits.catswap`` -- symbolic generalized entanglement swapping on
  multiparticle cat states, an exact stabilizer oracle over GF(2), and
  the quantum telephone exchange scenario.
* ``qlimits.entanglement`` -- relative entropy of entanglement, in
  closed form for pure states, for PPT states in 2x2 and 2x3 and for
  Bell-diagonal two-qubit states (up to local unitaries), otherwise by
  numerical minimization over separable states, with an axiom harness
  and the distillation bound.

``qlimits.core`` provides the shared state/operator arithmetic.
"""

__version__ = "0.1.0"


def _json_excerpt(value) -> str:
    """``value`` as JSON spells it, cut to 60 characters, for input-error
    messages; ``repr`` for what JSON cannot spell."""
    import json

    try:
        text = json.dumps(value)
    except (TypeError, ValueError):
        text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def _json_list(value, what: str, kind: type) -> list:
    """``value`` if it is a list of JSON values of type ``kind``, int or str
    (true and false are not ints), else ValueError."""
    if not isinstance(value, list) or not all(type(v) is kind for v in value):
        noun = "integers" if kind is int else "strings"
        raise ValueError(f"{what} must be a list of {noun}, got {_json_excerpt(value)}")
    return value
