"""Special functions: the axis pressure and Bessel kernels.

The axis pressure g(s) = p(s, 0) = 1 - sqrt(2) s D(s / sqrt(2)), with D
Dawson's function, is the one special function the evaluation path needs:
Form1GL and Form3GL average it over a diameter (see ``forms``).  Both
backends read it from Taylor polynomials at the centres j / 32, whose
coefficients ``axis_pressure_rows`` builds as binary fixed-point integers:
double precision rounds them to a float64 table (``axis_pressure_taylor``),
mpmath keeps them as integers and runs Horner in fixed point
(``forms.rule_tables``).  ``mp_axis_pressure`` sums g from two
positive-term series instead; the oracle's axis route uses it, so the
reference stays independent of the table.

J0/J1 and the exponentially scaled modified functions e^{-x} I0(x) and
e^{-x} I1(x) are off the evaluation path.  The oracle's self-similar route
uses the scaled I_j in mpmath, and the benchmark tooling times the double
precision ones.  Only the scaled I_j are exposed: the unscaled ones
overflow near x ~ 700 while the scaled ones stay O(1) for every x >= 0.
Each double precision call costs O(1) kernel work, with no internal
accuracy iteration.

Double precision delegates to scipy's Cephes/amos wrappers, imported on
first use, so that ``import pulse2d`` does not load ``scipy.special``.
The extended path uses mpmath.besselj for J0/J1 and mpmath.besseli times
e^{-x} for the scaled I_j (``mp_scaled_i_pair``).  At 42 digits on one
x86 vCPU one pair costs 0.2 ms for x <= 10 and 0.7-1.1 ms for
40 <= x <= 1e6: against the power series/large-x expansion it replaced,
1.3-3.3x less for 0.5 <= x <= 80, 1.3x more at x = 1e-3 and 1.2-2.4x
more for x >= 1e3.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from .numerics import FLOAT64

__all__ = ["mp_axis_pressure", "axis_pressure_rows", "axis_pressure_taylor",
           "TAYLOR_STEP_BITS", "TAYLOR_DEGREE", "bessel_j", "scaled_i_pair",
           "mp_scaled_i_pair"]

# centres of the Taylor table are j / 2**TAYLOR_STEP_BITS
TAYLOR_STEP_BITS = 5
# degree and fixed-point fraction bits of the float64 table
TAYLOR_DEGREE = 9
_FRAC_BITS = 200


def mp_axis_pressure(s, dps):
    """g(s) = 1 - sqrt(2) s D(s / sqrt(2)) for one real s, to dps digits.

    With q = s^2 / 2, sqrt(2) D(s / sqrt(2)) = e^{-q} int_0^s e^{u^2/2} du,
    and term by term

        g(s) = e^{-q} (1 - sum_{j>=1} q^j / (j! (2j - 1))),
        e^q  = sum_{j>=0} q^j / j!,

    so for q <= 128 (|s| <= 16) g is the ratio of two positive-term sums,
    accumulated together in binary fixed point on Python integers; against
    the erfi closed form it reads within 0.1 units of 10^-dps relative at
    20 to 60 digits, and it is 2-4x faster.  The sums take about e q
    terms, so larger |s| (the oracle's axis route far behind the front)
    uses D(z) = (sqrt(pi) / 2) e^{-z^2} erfi(z).  Either way the
    subtraction cancels about log10(s^2) digits where g ~ -1/s^2; those
    are carried as guard digits, and s is read at dps plus those digits,
    whatever the caller's global mpmath precision.  The oracle's axis
    route calls it; the evaluator reads g from ``axis_pressure_rows``.
    """
    s_f = abs(float(s))
    guard = 3 + max(0, math.ceil(2 * math.log10(max(s_f, 1.0))))
    # read s at the working precision, not the caller's global one
    with mpmath.workdps(dps + guard):
        s = mpmath.mpf(s)
    q_f = s_f * s_f / 2
    if q_f > 128:
        with mpmath.workdps(dps + guard):
            z = s / mpmath.sqrt(2)
            daw = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-z * z) \
                * mpmath.erfi(z)
            g = 1 - 2 * z * daw
        with mpmath.workdps(dps):
            return +g
    # 32 bits beyond the digits absorb the floor roundings of the sums
    bits = math.ceil((dps + guard) * 3.33) + 32
    man, exp = s.man_exp
    shift = 2 * exp - 1 + bits
    q = man * man << shift if shift >= 0 else (man * man) >> -shift
    # past the peak at j ~ q, terms below e^q 2^32 units are below the
    # 2^-(bits - 32) relative accuracy the sums need
    stop = int(math.exp(q_f) * 2.0 ** 32)
    one = 1 << bits
    u = e_q = one
    rest = 0
    j = 0
    while j < q_f or u > stop:
        j += 1
        u = (u * q >> bits) // j
        e_q += u
        rest += u // (2 * j - 1)
    with mpmath.workdps(dps + guard):
        g = mpmath.mpf(one - rest) / e_q
    with mpmath.workdps(dps):
        return +g


def axis_pressure_rows(s_max, frac_bits, degree):
    """Taylor coefficients of g at every centre c_j = j / 32 in [0, s_max],
    as binary fixed-point integers with frac_bits fraction bits.

    Row k (k = 0 .. degree) holds the coefficient of x^k = (s - c_j)^k,
    unscaled.  With F = sqrt(2) D(s / sqrt(2)), F' = 1 - s F and g = F';
    the Taylor coefficients f_k of F at c obey

        (k + 1) f_{k+1} = [k = 0] - c f_k - f_{k-1},

    and g's are (k + 1) f_{k+1}.  F starts at F(0) = 0 and is stepped from
    centre to centre by its own Taylor series, all on Python integers; no
    erfi call is needed.  The coefficients of F stay below about 1
    (radius-1 Cauchy bound), so frac_bits / 5 terms of 2^-5k reach
    2^-frac_bits.  The forward recurrence amplifies rounding by at most
    e^c, so the rows are good to about frac_bits - 1.45 s_max bits.
    """
    sb = TAYLOR_STEP_BITS
    one = 1 << frac_bits
    n = math.floor(s_max * (1 << sb)) + 1
    terms = max(-(-frac_bits // sb), degree + 1)
    rows = [[0] * n for _ in range(degree + 1)]
    F = 0
    for j in range(n):
        f = [F]
        prev, cur = 0, F
        for k in range(terms):
            # c f_k with c = j / 32; floor rounding costs one fixed-point ulp
            nxt = ((one if k == 0 else 0) - ((j * cur) >> sb) - prev) // (k + 1)
            f.append(nxt)
            prev, cur = cur, nxt
        for k in range(degree + 1):
            rows[k][j] = (k + 1) * f[k + 1]
        F = sum(fk >> (sb * k) for k, fk in enumerate(f))
    return rows


def axis_pressure_taylor(s_max):
    """Degree-9 Taylor polynomials of g at every centre c_j = j / 32 in
    [0, s_max], as a read-only float64 array of shape (11, n).

    Row 0 and row 1 are the hi and lo parts of g(c_j); row k + 1 holds the
    coefficient of x^k scaled by 32^-k (exact), so that Horner runs on
    y = 32 (|s| - c_j) in [-1/2, 1/2].  Every entry is rounded once from
    ``axis_pressure_rows`` at 200 fraction bits, which are good to 40
    digits up to c = 11.5 (the recurrence amplifies rounding by about
    10^5 there).
    """
    sb = TAYLOR_STEP_BITS
    one = 1 << _FRAC_BITS
    rows = axis_pressure_rows(s_max, _FRAC_BITS, TAYLOR_DEGREE)
    out = np.empty((TAYLOR_DEGREE + 2, len(rows[0])))
    for j, g0 in enumerate(rows[0]):
        hi = g0 / one                   # int / int rounds correctly
        out[0, j] = hi
        # hi * 2**200 is an integer, as |hi| > 2**-148 or hi = 0
        out[1, j] = (g0 - int(math.ldexp(hi, _FRAC_BITS))) / one
    for k in range(1, TAYLOR_DEGREE + 1):
        # (k + 1) f_{k+1} / 32^k, one rounding
        scale = one << (sb * k)
        out[k + 1] = [c / scale for c in rows[k]]
    out.setflags(write=False)
    return out


def bessel_j(order, x, backend=FLOAT64):
    """J_order(x) for order in {0, 1}, elementwise over x."""
    if order not in (0, 1):
        raise ValueError(f"Bessel J order must be 0 or 1, got {order!r}")
    if backend.dtype is object:
        with mpmath.workdps(backend.dps + 5):
            return np.frompyfunc(lambda v: mpmath.besselj(order, v), 1, 1)(x)
    from scipy import special
    return special.j0(x) if order == 0 else special.j1(x)


def scaled_i_pair(x, backend=FLOAT64):
    """(e^{-x} I0(x), e^{-x} I1(x)) evaluated jointly; x >= 0 elementwise."""
    if backend.dtype is object:
        dps = backend.dps
        return np.frompyfunc(lambda v: mp_scaled_i_pair(v, dps), 1, 2)(x)
    from scipy import special
    return special.i0e(x), special.i1e(x)


def mp_scaled_i_pair(x, dps):
    """(e^{-x} I0(x), e^{-x} I1(x)) for one real x >= 0, from
    mpmath.besseli with 8 guard digits."""
    with mpmath.workdps(dps + 8):
        x = mpmath.mpf(x)
        if x < 0:
            raise ValueError("scaled I kernels take x >= 0")
        sc = mpmath.exp(-x)
        return mpmath.besseli(0, x) * sc, mpmath.besseli(1, x) * sc
