"""Gauss rules by Golub-Welsch and Newton refinement, plus the step of the
half-integer-offset uniform grid.

Float64 rules come from one LAPACK eigensolve (numpy.linalg.eigh) of the
symmetric tridiagonal Jacobi matrix of the monic three-term recurrence:
the nodes are its eigenvalues and the weights mu0 * v_0^2, with v_0 the
first components of the normalized eigenvectors (Golub & Welsch 1969).

Extended-precision (mpmath) rules start from the float64 rule and refine
each node by Newton steps on the orthonormal recurrence
beta_{k+1} p_{k+1} = (x - a_k) p_k - beta_k p_{k-1}, run for the values
alone: p_m' comes from the Jacobi derivative identity (DLMF 18.9)
(1 - x^2) p_m' = (c1 - m x) p_m + c3 p_{m-1} in orthonormal form, as in
Hale & Townsend (SIAM J. Sci. Comput. 35 (2013) A652), and the weights
are 1 / (beta_m p_m' p_{m-1}).  The recurrence coefficients are rational
(both weights have alpha = 0, beta = 0 or -1/2), so the refinement takes
them exactly, as integer pairs, and runs in binary fixed point on Python
integers with 32 guard bits, vectorized over the nodes: O(m^2) integer
operations per step and three or four steps.  The tests compare the
refined rules with mpmath.gauss_quadrature.

Gauss rules are deterministic, cached per (backend, kind, m), and marked
read-only after construction.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import mpmath
import numpy as np

from .numerics import FLOAT64

__all__ = ["GaussRule", "KIND_LEGENDRE", "KIND_JACOBI", "gauss_legendre",
           "gauss_jacobi_m12", "uniform_step", "rule_cache_get"]

KIND_LEGENDRE = "legendre"
KIND_JACOBI = "jacobi_0_m12"    # weight (1+x)^(-1/2) on (-1, 1)

_MAX_M = 512

# Newton refinement: fraction bits beyond the working precision, and the
# step cap (float64 seeds converge in three steps, four at 60 digits)
_GUARD_BITS = 32
_MAX_NEWTON = 8


@dataclass(frozen=True)
class GaussRule:
    kind: str
    m: int
    nodes: np.ndarray
    weights: np.ndarray
    mu0: object         # integral of the weight function


# (2 alpha, 2 beta, mu0^2) of each kind's weight (1-x)^alpha (1+x)^beta
_WEIGHTS = {KIND_LEGENDRE: (0, 0, 4), KIND_JACOBI: (0, -1, 8)}


def _weight(kind):
    try:
        return _WEIGHTS[kind]
    except KeyError:
        raise ValueError(f"unknown rule kind {kind!r}") from None


def _exact_recurrence(kind, m):
    """Monic recurrence coefficients as integer pairs (num, den): a_k for
    k < m and b_k for 1 <= k < m.  With n = 2 (2k + alpha + beta),

        a_k = (beta^2 - alpha^2) / (n/2 (n/2 + 2)),
        b_k = 4 k (k+alpha) (k+beta) (k+alpha+beta) / ((n/2)^2 ((n/2)^2 - 1)),

    and a_0 = (beta - alpha) / (alpha + beta + 2)."""
    ta, tb, _ = _weight(kind)
    a = [(tb - ta, ta + tb + 4)]
    b = []
    for k in range(1, m):
        n = 4 * k + ta + tb
        a.append((tb * tb - ta * ta, n * (n + 4)))
        b.append((8 * k * (2 * k + ta) * (2 * k + tb) * (2 * k + ta + tb),
                  n * n * (n + 2) * (n - 2)))
    return a, b


def _recurrence(kind, m):
    """Float64 monic recurrence coefficients (a_k, b_k) for k < m, with
    b_0 = mu0, each correctly rounded."""
    a, b = _exact_recurrence(kind, m)
    return ([p / q for p, q in a],
            [math.sqrt(_weight(kind)[2])] + [p / q for p, q in b])


def _golub_welsch(kind, m):
    """Float64 rule from one LAPACK eigensolve of the Jacobi matrix."""
    a, b = _recurrence(kind, m)
    mu0 = b[0]
    off = np.sqrt(b[1:])
    nodes, v = np.linalg.eigh(np.diag(a) + np.diag(off, 1)
                              + np.diag(off, -1))
    weights = mu0 * v[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(kind=kind, m=m, nodes=nodes, weights=weights, mu0=mu0)


def _newton_refine(seed, bk):
    """Rule under the mpmath backend bk from the float64 rule seed.

    Runs in bk's working precision.  Raises RuntimeError if the nodes do
    not settle within _MAX_NEWTON steps or two of them merge.
    """
    kind, m = seed.kind, seed.m
    ta, tb, mu0_sq = _weight(kind)
    a, b = _exact_recurrence(kind, m)
    F = mpmath.mp.prec + _GUARD_BITS
    F2 = 2 * F
    # a_k, beta_k = sqrt(b_k) and 1 / beta_k (beta_0 = sqrt(mu0)), floored
    # from the exact values to multiples of 2**-F
    A = [(p << F) // q for p, q in a]
    B = [0] + [math.isqrt((p << F2) // q) for p, q in b]
    inv_b = ([math.isqrt(math.isqrt((1 << 2 * F2) // mu0_sq))]
             + [math.isqrt((q << F2) // p) for p, q in b])
    # the derivative identity (1 - x^2) p_m' = (c1 - m x) p_m + c3 p_{m-1}
    # times beta_m: with n = 2 (2m + alpha + beta), c1 = m (alpha - beta) /
    # (n/2) and c3 beta_m = 4 m (m+alpha) (m+beta) (m+alpha+beta) /
    # ((n/2)^2 (n/2 - 1)), rational where c3 alone is not
    n = 4 * m + ta + tb
    C1 = (m * (ta - tb) << F) // n
    K = ((4 * m * (2 * m + ta) * (2 * m + tb) * (2 * m + ta + tb)) << F) \
        // (n * n * (n - 2))
    x = np.array([int(math.ldexp(v, F)) for v in seed.nodes.tolist()],
                 dtype=object)
    for _ in range(_MAX_NEWTON):
        # p_k and p_{k-1}, scaled by 2**F; q = beta_m p_m by 2**(2F)
        p = np.full(m, inv_b[0], dtype=object)
        p_prev = np.zeros(m, dtype=object)
        for k in range(m):
            q = (x - A[k]) * p - B[k] * p_prev
            if k == m - 1:
                break
            p_prev, p = p, (q * inv_b[k + 1]) >> F2
        # beta_m (1 - x^2) p_m', scaled by 2**(3F), and 1 - x^2 by 2**(2F)
        dq = (C1 - m * x) * q + ((K * p) << F)
        omx2 = (1 << F2) - x * x
        # beta_m p_m' p_{m-1}, the reciprocal weight, scaled by 2**F
        inv_w = (dq * p) // (omx2 << F)
        # p_m / p_m': the unknown beta_m cancels
        dx = (omx2 * q) // dq
        x = x - dx
        if max(abs(v) for v in dx) < 1 << 12:
            break
    else:
        raise RuntimeError(
            f"Newton refinement of the {kind} rule failed to converge "
            f"(m={m})")
    if any(x[i] >= x[i + 1] for i in range(m - 1)):
        raise RuntimeError(
            f"Newton refinement of the {kind} rule merged nodes (m={m})")
    # inv_w was taken at the nodes before the last step, which moved them by
    # less than 2**(12 - F)
    nodes = bk.asarray([mpmath.mpf((v, -F)) for v in x])
    weights = bk.asarray([1 / mpmath.mpf((v, -F)) for v in inv_w])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(kind=kind, m=m, nodes=nodes, weights=weights,
                     mu0=bk.sqrt(bk.scalar(mu0_sq)))


_cache: dict[tuple, GaussRule] = {}
_cache_lock = threading.Lock()


def rule_cache_get(kind, m, backend=FLOAT64) -> GaussRule:
    """Cached Gauss rule for (kind, m) under the given backend."""
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= _MAX_M:
        raise ValueError(f"node count must be an integer in [1, {_MAX_M}]")
    key = (backend.key, kind, int(m))
    rule = _cache.get(key)
    if rule is None:
        # an mpmath backend's lock first, as every caller that holds both
        # takes them: rule_tables builds its rules under workprec
        with backend.workprec(), _cache_lock:
            rule = _cache.get(key)
            if rule is None:
                rule = _golub_welsch(kind, int(m))
                if backend.dtype is object:
                    rule = _newton_refine(rule, backend)
                _cache[key] = rule
    return rule


def gauss_legendre(m, backend=FLOAT64) -> GaussRule:
    return rule_cache_get(KIND_LEGENDRE, m, backend)


def gauss_jacobi_m12(m, backend=FLOAT64) -> GaussRule:
    return rule_cache_get(KIND_JACOBI, m, backend)


def uniform_step(m2, backend=FLOAT64):
    """Step h = sqrt(2 pi / (m2 + 1/2)) of the trapezoid grid kh, |k| <= m2.

    It balances the crop error beyond L = (m2 + 1/2) h against the
    aliasing error; callers derive their nodes kh from it.
    """
    if not isinstance(m2, (int, np.integer)) or m2 < 1:
        raise ValueError("uniform rule needs a positive integer node count")
    with backend.workprec():
        half = backend.scalar(1) / 2
        return backend.sqrt(2 * backend.pi / (int(m2) + half))
