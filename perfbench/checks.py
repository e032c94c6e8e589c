"""Output checks.  All of them run outside the timed region.

A point fails if its call raised, if it is not finite, if a repeated call
returns other values than the checked first pass, if one-point evaluation
does not match batch evaluation bit for bit (float64 only), or if it misses
the oracle allowance.  Each function returns the number of failed points.
"""

from __future__ import annotations

import time

import mpmath
import numpy as np

from pulse2d.oracle import OracleError, oracle_eval

# the finest reference accuracy oracle_eval accepts
ORACLE_FINEST_TOL = 1e-20
# the selfcheck allowance, in units of the evaluator's eps
ALLOWANCE = 1.25


def count_nonfinite(p, u) -> int:
    if p.dtype == object:
        return sum(1 for a, b in zip(p, u)
                   if not (mpmath.isfinite(a) and mpmath.isfinite(b)))
    return int(np.count_nonzero(~(np.isfinite(p) & np.isfinite(u))))


def count_changed(p, u, p_ref, u_ref) -> int:
    """Points whose repeated evaluation differs from the checked pass."""
    return int(np.count_nonzero((p != p_ref) | (u != u_ref)))


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def identity_failures(ev, t, r, p, u, scalar: bool) -> int:
    """Compare the workload's outputs with the other evaluation mode.

    Batch outputs are re-evaluated one point at a time with
    ``ev.evaluate``; one-point outputs (``scalar``) are re-evaluated as one
    ``ev.evaluate_arrays`` batch.  Both must agree bit for bit.
    """
    if scalar:
        p_other, u_other, _ = ev.evaluate_arrays(t, r)
    else:
        sols = [ev.evaluate(float(ti), float(ri)) for ti, ri in zip(t, r)]
        p_other = [s.p for s in sols]
        u_other = [s.ur for s in sols]
    return sum(1 for a, b, c, d in zip(p, p_other, u, u_other)
               if not (_same_bits(a, b) and _same_bits(c, d)))


def reference(t: float, r: float, eps: float, target_tol: float):
    """Reference (p, u_r) as mpmath numbers.

    ``oracle_eval`` for every point except t < eps, where its routes do not
    agree (t below about 1e-9).  There the reference is the initial state
    advanced to first order, p = exp(-r^2/2) and u_r = t r exp(-r^2/2),
    whose own error is O(t^2) and far below eps.
    """
    if t < eps:
        with mpmath.workdps(40):
            p0 = mpmath.exp(-mpmath.mpf(r) ** 2 / 2)
            return p0, mpmath.mpf(t) * mpmath.mpf(r) * p0
    ref = oracle_eval(t, r, target_tol=target_tol)
    return ref.p, ref.ur


def oracle_failures(t, r, p, u, eps: float, extended: bool):
    """(failed points, seconds per checked point) against the reference.

    float64 outputs are held to the selfcheck rule: reference at
    max(eps/20, 1e-20), allowance 1.25 eps.  Extended outputs are held to
    the oracle's finest reference, 1e-20, with allowance 1.25 x 1e-20.
    """
    if extended:
        target = ORACLE_FINEST_TOL
        allowance = ALLOWANCE * max(eps, ORACLE_FINEST_TOL)
    else:
        target = max(eps * 0.05, ORACLE_FINEST_TOL)
        allowance = ALLOWANCE * eps
    failed = 0
    start = time.perf_counter()
    for ti, ri, pi, ui in zip(t, r, p, u):
        try:
            ref_p, ref_u = reference(float(ti), float(ri), eps, target)
        except OracleError:
            failed += 1
            continue
        with mpmath.workdps(60):
            dev = max(abs(mpmath.mpf(pi) - ref_p), abs(mpmath.mpf(ui) - ref_u))
        if not dev <= allowance:
            failed += 1
    n = max(len(t), 1)
    return failed, (time.perf_counter() - start) / n


def subset(codes, per_region: int, rng) -> np.ndarray:
    """Seeded choice of up to ``per_region`` point indices per region."""
    codes = np.asarray(codes)
    picks = []
    for code in np.unique(codes):
        idx = np.nonzero(codes == code)[0]
        picks.append(rng.choice(idx, size=min(per_region, idx.size),
                                replace=False))
    return np.sort(np.concatenate(picks)) if picks else np.array([], int)
