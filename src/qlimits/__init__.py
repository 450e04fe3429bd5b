"""Quantum-limits toolkit.

Library and CLI covering four areas:

* ``qlimits.jc`` -- damped Jaynes-Cummings dynamics of a trapped-ion
  qubit with two phenomenological reservoir couplings, plus an exact
  dephasing propagator used as a cross-check oracle.
* ``qlimits.feasibility`` -- closed-form spontaneous-emission budgets
  for ion-trap quantum computation (computation times, decay-rate
  bounds, per-gate error rates, report generation).
* ``qlimits.catswap`` -- symbolic generalized entanglement swapping on
  multiparticle cat states, an exact dense oracle, and the quantum
  telephone exchange scenario.
* ``qlimits.entanglement`` -- relative entropy of entanglement, in
  closed form for pure states, for PPT states in 2x2 and 2x3 and for
  Bell-diagonal two-qubit states (up to local unitaries), otherwise by
  numerical minimization over separable states, with an axiom harness
  and the distillation bound.

``qlimits.core`` provides the shared state/operator arithmetic.  Its
public names are also package attributes, loaded on first access
(PEP 562), so ``import qlimits`` alone loads no numpy.
"""

__version__ = "0.1.0"

__all__ = [
    "DensityOperator",
    "KindMismatchError",
    "PureState",
    "nats_to_bits",
    "partial_trace",
    "quantum_relative_entropy",
    "tensor_product",
    "von_neumann_entropy",
    "__version__",
]

_CORE_NAMES = frozenset(__all__) - {"__version__"}


def _json_excerpt(value) -> str:
    """``value`` as JSON spells it, cut to 60 characters, for input-error
    messages; ``repr`` for what JSON cannot spell."""
    import json

    try:
        text = json.dumps(value)
    except (TypeError, ValueError):
        text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def __getattr__(name):
    if name in _CORE_NAMES:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _CORE_NAMES)
