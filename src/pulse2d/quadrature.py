"""Gauss rules by Golub-Welsch and Newton refinement, plus the step of the
half-integer-offset uniform grid.

Float64 rules come from one LAPACK eigensolve (numpy.linalg.eigh) of the
symmetric tridiagonal Jacobi matrix of the monic three-term recurrence:
the nodes are its eigenvalues and the weights mu0 * v_0^2, with v_0 the
first components of the normalized eigenvectors (Golub & Welsch 1969).

Extended-precision (mpmath) rules start from the float64 rule and refine
each node by Newton steps on the orthonormal recurrence
beta_{k+1} p_{k+1} = (x - a_k) p_k - beta_k p_{k-1}, with p' from the
differentiated recurrence (after Hale & Townsend 2013 and Bogaert 2014);
weights are 1 / sum_{k<m} p_k(x_i)^2, that sum taken from the
Christoffel-Darboux identity.  The arithmetic is binary fixed
point on Python integers with 32 guard bits, vectorized over the nodes:
O(m^2) integer operations per step and three or four steps.  The tests
compare the refined rules with mpmath.gauss_quadrature.

Gauss rules are deterministic, cached per (backend, kind, m), and marked
read-only after construction.
"""

from __future__ import annotations

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


def _recurrence(kind, m, bk):
    """Monic recurrence coefficients (a_k, b_k) for k < m, with b_0 = mu0."""
    one = bk.scalar(1)
    a, b = [], []
    if kind == KIND_LEGENDRE:
        for k in range(m):
            a.append(bk.scalar(0))
            if k == 0:
                b.append(bk.scalar(2))
            else:
                kk = bk.scalar(k)
                b.append(kk * kk / (4 * kk * kk - 1))
    elif kind == KIND_JACOBI:
        al = bk.scalar(0)
        be = -one / 2
        for k in range(m):
            if k == 0:
                a.append((be - al) / (al + be + 2))
                b.append(2 * bk.sqrt(bk.scalar(2)))
            else:
                kk = bk.scalar(k)
                nab = 2 * kk + al + be
                a.append((be * be - al * al) / (nab * (nab + 2)))
                num = 4 * kk * (kk + al) * (kk + be) * (kk + al + be)
                b.append(num / (nab * nab * (nab + 1) * (nab - 1)))
    else:
        raise ValueError(f"unknown rule kind {kind!r}")
    return a, b


def _golub_welsch(kind, m):
    """Float64 rule from one LAPACK eigensolve of the Jacobi matrix."""
    a, b = _recurrence(kind, m, FLOAT64)
    mu0 = b[0]
    off = np.sqrt(b[1:])
    nodes, v = np.linalg.eigh(np.diag(a) + np.diag(off, 1)
                              + np.diag(off, -1))
    weights = mu0 * v[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(kind=kind, m=m, nodes=nodes, weights=weights, mu0=mu0)


def _to_fixed(v, frac_bits):
    """A float or mpf as an integer scaled by 2**frac_bits (truncated)."""
    return int(mpmath.ldexp(v, frac_bits))


def _newton_refine(seed, bk):
    """Rule under the mpmath backend bk from the float64 rule seed.

    Runs in bk's working precision.  Raises RuntimeError if the nodes do
    not settle within _MAX_NEWTON steps or two of them merge.
    """
    kind, m = seed.kind, seed.m
    a, b = _recurrence(kind, m, bk)
    mu0 = b[0]
    F = mpmath.mp.prec + _GUARD_BITS
    F2 = 2 * F
    one = bk.scalar(1)
    beta = [bk.sqrt(v) for v in b]
    A = [_to_fixed(v, F) for v in a]
    B = [0] + [_to_fixed(v, F) for v in beta[1:]]
    inv_b = [_to_fixed(one / v, F) for v in beta]
    x = np.array([_to_fixed(float(v), F) for v in seed.nodes], dtype=object)
    for _ in range(_MAX_NEWTON):
        # p_k, p_{k-1} and derivatives, all scaled by 2**F
        p = np.full(m, inv_b[0], dtype=object)
        p_prev = np.zeros(m, dtype=object)
        dp = np.zeros(m, dtype=object)
        dp_prev = np.zeros(m, dtype=object)
        for k in range(m):
            xa = x - A[k]
            q = xa * p - B[k] * p_prev              # beta_{k+1} p_{k+1}
            dq = (p << F) + xa * dp - B[k] * dp_prev
            if k == m - 1:
                break
            p_prev, p = p, (q * inv_b[k + 1]) >> F2
            dp_prev, dp = dp, (dq * inv_b[k + 1]) >> F2
        # sum_{k<m} p_k^2 = beta_m (p_m' p_{m-1} - p_{m-1}' p_m), the
        # confluent Christoffel-Darboux identity, scaled by 2**F
        ssq = (dq * p - q * dp) >> F2
        # p_m / p_m' = q / dq: the unknown beta_m cancels
        dx = (q << F) // dq
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
    # ssq was taken at the nodes before the last step, which moved them by
    # less than 2**(12 - F)
    nodes = bk.asarray([mpmath.mpf((v, -F)) for v in x])
    weights = bk.asarray([one / mpmath.mpf((v, -F)) for v in ssq])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(kind=kind, m=m, nodes=nodes, weights=weights, mu0=mu0)


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
