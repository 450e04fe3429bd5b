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
* ``qlimits.entanglement`` -- relative entropy of entanglement via
  numerical minimization over separable states, with an axiom harness
  and the distillation bound.

``qlimits.core`` provides the shared state/operator arithmetic.
"""

from .core import (
    DensityOperator,
    KindMismatchError,
    PureState,
    nats_to_bits,
    partial_trace,
    quantum_relative_entropy,
    tensor_product,
    von_neumann_entropy,
)

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
