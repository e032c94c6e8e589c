"""Exact-solution evaluator for the 2D acoustic Gaussian-pulse benchmark.

Evaluates the pressure and radial velocity perturbations of the linearized
Euler equations started from p = exp(-r^2/2), u = 0, at any (t, r), to a
requested absolute accuracy eps, with O(ln(1/eps)) kernel evaluations per
point and no adaptivity.
"""

__version__ = "0.1.0"

from .dispatch import (EPS_FLOOR, PulseEvaluator, PulseSolution, Region,
                       classify, evaluate, evaluate_batch)
from .numerics import mp_backend
from .oracle import oracle_eval

__all__ = [
    "__version__",
    "EPS_FLOOR", "PulseEvaluator", "PulseSolution", "Region",
    "evaluate", "evaluate_batch", "classify", "mp_backend", "oracle_eval",
]
