"""Large-time evaluation near the axis: asymptotic tail sums.

Far behind the front and at small radius the solution reduces to a linear
combination of seven Fourier-type moments I_n(t), n = 0..6, each of which
has a divergent-but-truncated large-t expansion

    s_n = sum_{l = ceil(n/2)}^{lmax}  (2l-1)!! / t^(2l-n+1),   lmax = (M-1)//2

entering with the sign (-1)^ceil(n/2): asymptotic_In gives Re I_n for odd
n and Im I_n for even n, the component the series carries.  The truncation
index M = floor(H^2) ties the remainder to the working tolerance.

All seven sums share one backward recurrence in x = 1/t^2,

    N_lmax = 1,   N_k = 1 + (2k+1) x N_{k+1},

so that s_n = (2 l0 - 1)!! N_{l0} / t^(2 l0 - n + 1) with l0 = ceil(n/2);
the exponent is 1 for even n and 2 for odd n.  Every term is positive, so
the Horner pass loses nothing to cancellation.

No kernel evaluations happen here; the cost is O(M) multiplies per point.
"""

from __future__ import annotations

import math

from .numerics import FLOAT64

__all__ = ["asymptotic_In", "asymptotic_remainder_bound", "series_eval"]


def _tail_sums(t, params):
    """(s_0, ..., s_6) on a backend array t > 0."""
    t2 = t * t
    x = 1 / t2
    n_k = {}
    acc = 1
    for k in range((params.M - 1) // 2 - 1, -1, -1):
        acc = 1 + ((2 * k + 1) * x) * acc
        if k <= 3:
            n_k[k] = acc
    return (n_k[0] / t, n_k[1] / t2, n_k[1] / t, 3 * n_k[2] / t2,
            3 * n_k[2] / t, 15 * n_k[3] / t2, 15 * n_k[3] / t)


def asymptotic_In(n, t, params, backend=FLOAT64):
    """Re I_n(t) for odd n, Im I_n(t) for even n, n in 0..6; scalar t."""
    if n not in range(7):
        raise ValueError(f"I_n is available for n in 0..6, got {n!r}")
    sign = (-1) ** ((n + 1) // 2)
    with backend.workprec():
        s = _tail_sums(backend.asarray([t]), params)[n]
        return sign * s[0]


def asymptotic_remainder_bound(n, t, params) -> float:
    """Bound on the truncation remainder of the full I_n sum at index M."""
    M = params.M
    log_r = (0.5 * math.log(math.pi / 2.0) + 0.5 * M * math.log(2.0)
             + math.lgamma(1.0 + M / 2.0) - (M - n) * math.log(float(t)))
    return math.exp(log_r)


def series_eval(ev, t, r):
    """(p, u_r) on backend arrays; valid for r <= R1, t >= 1.31 H."""
    bk = ev.backend
    P = ev.params
    one = bk.scalar(1)
    r2 = r * r
    r4 = r2 * r2
    # polynomial prefactors in r from expanding J0, J1 about the axis
    c1 = 1 - r2 * (3 * one / 4 - r2 * (15 * one / 64))
    c3 = -r2 * (one / 4 - r2 * (5 * one / 32))
    c5 = r4 * (one / 64)
    d0 = r * (one / 2 - r2 * (3 * one / 16 - r2 * (5 * one / 128)))
    d2 = r * (one / 2 - r2 * (3 * one / 8 - r2 * (15 * one / 128)))
    d4 = -r * r2 * (one / 16 - r2 * (5 * one / 128))
    d6 = r * r4 * (one / 384)
    s0, s1, s2, s3, s4, s5, s6 = _tail_sums(t, P)
    p = -c1 * s1 + c3 * s3 - c5 * s5
    u = d0 * s0 - d2 * s2 + d4 * s4 - d6 * s6
    return p, u
