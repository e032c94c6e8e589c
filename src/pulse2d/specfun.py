"""Special functions: the axis pressure, Bessel kernels and the exact
double factorial.

The axis pressure g(s) = p(s, 0) = 1 - sqrt(2) s D(s / sqrt(2)), with D
Dawson's function, is the one special function the evaluation path needs:
Form1GL and Form3GL average it over a diameter (see ``forms``).  Double
precision reads it from a table of Taylor polynomials whose coefficients
are rounded from 40 correct digits (``axis_pressure_taylor``); mpmath
sums it from two positive-term series (``mp_axis_pressure``), which the
oracle's axis route shares.

J0/J1 and the exponentially scaled modified functions e^{-x} I0(x) and
e^{-x} I1(x) are off the evaluation path.  The oracle's self-similar route
uses the scaled I_j in mpmath, and the benchmark tooling times the double
precision ones.  Only the scaled I_j are exposed: the unscaled ones
overflow near x ~ 700 while the scaled ones stay O(1) for every x >= 0.
Each call costs O(1) kernel work; there is no internal accuracy iteration.

Double precision delegates to scipy's Cephes/amos wrappers, imported on
first use, so that ``import pulse2d`` does not load ``scipy.special``.
The extended path uses mpmath for J0/J1 and an in-house series/large-x
pair for the scaled I_j, which mpmath only provides unscaled.  At 40-42
digits mpmath.besseli(j, x) e^{-x} matches the pair to about 1e-47
relative; it is up to 3.5x faster for x <= 80 and 1.5-2x slower for
x >= 1e4.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from .numerics import FLOAT64

__all__ = ["mp_axis_pressure", "axis_pressure_taylor", "TAYLOR_STEP_BITS",
           "TAYLOR_DEGREE", "bessel_j", "scaled_i_pair", "double_factorial"]

# centres of the Taylor table are j / 2**TAYLOR_STEP_BITS
TAYLOR_STEP_BITS = 5
TAYLOR_DEGREE = 9
# fixed-point fraction bits of the table build, and the Taylor terms that
# step F from one centre to the next: the coefficients of F stay below
# about 1 (radius-1 Cauchy bound), so 40 terms of 2**-5k reach 2**-200
_FRAC_BITS = 200
_STEP_TERMS = 40


def mp_axis_pressure(s, dps):
    """g(s) = 1 - sqrt(2) s D(s / sqrt(2)) for one real s, to dps digits.

    With q = s^2 / 2, sqrt(2) D(s / sqrt(2)) = e^{-q} int_0^s e^{u^2/2} du,
    and term by term

        g(s) = e^{-q} (1 - sum_{j>=1} q^j / (j! (2j - 1))),
        e^q  = sum_{j>=0} q^j / j!,

    so for q <= 128 (|s| <= 16, every kernel argument) g is the ratio of
    two positive-term sums, accumulated together in binary fixed point on
    Python integers; against the erfi closed form it reads within 0.1
    units of 10^-dps relative at 20 to 60 digits, and it is 2-4x faster.
    The sums take about e q terms, so larger |s| (the oracle's axis route
    far behind the front) uses D(z) = (sqrt(pi) / 2) e^{-z^2} erfi(z).
    Either way the subtraction cancels about log10(s^2) digits where
    g ~ -1/s^2; those are carried as guard digits.
    """
    s_f = abs(float(s))
    guard = 3 + max(0, math.ceil(2 * math.log10(max(s_f, 1.0))))
    q_f = s_f * s_f / 2
    if q_f > 128:
        with mpmath.workdps(dps + guard):
            z = mpmath.mpf(s) / mpmath.sqrt(2)
            daw = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-z * z) \
                * mpmath.erfi(z)
            g = 1 - 2 * z * daw
        with mpmath.workdps(dps):
            return +g
    # 32 bits beyond the digits absorb the floor roundings of the sums
    bits = math.ceil((dps + guard) * 3.33) + 32
    man, exp = mpmath.mpf(s).man_exp
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


def axis_pressure_taylor(s_max):
    """Degree-9 Taylor polynomials of g at every centre c_j = j / 32 in
    [0, s_max], as a read-only float64 array of shape (11, n).

    Row 0 and row 1 are the hi and lo parts of g(c_j); row k + 1 holds the
    coefficient of x^k scaled by 32^-k (exact), so that Horner runs on
    y = 32 (|s| - c_j) in [-1/2, 1/2].  With F = sqrt(2) D(s / sqrt(2)),
    F' = 1 - s F and g = F'; the Taylor coefficients f_k of F at c obey

        (k + 1) f_{k+1} = [k = 0] - c f_k - f_{k-1},

    and g's are (k + 1) f_{k+1}.  F starts at F(0) = 0 and is stepped from
    centre to centre by its own Taylor series, all in binary fixed point on
    Python integers with 200 fraction bits; no erfi call is needed.  The
    forward recurrence amplifies rounding by at most e^c, about 10^5 at
    c = 11.5, so every coefficient is good to 40 digits before rounding.
    """
    sb = TAYLOR_STEP_BITS
    one = 1 << _FRAC_BITS
    n = math.floor(s_max * (1 << sb)) + 1
    out = np.empty((TAYLOR_DEGREE + 2, n))
    F = 0
    for j in range(n):
        f = [F]
        prev, cur = 0, F
        for k in range(_STEP_TERMS):
            # c f_k with c = j / 32; floor rounding costs one fixed-point ulp
            nxt = ((one if k == 0 else 0) - ((j * cur) >> sb) - prev) // (k + 1)
            f.append(nxt)
            prev, cur = cur, nxt
        g0 = f[1]
        hi = g0 / one                   # int / int rounds correctly
        out[0, j] = hi
        # hi * 2**200 is an integer, as |hi| > 2**-148 or hi = 0
        out[1, j] = (g0 - int(math.ldexp(hi, _FRAC_BITS))) / one
        for k in range(1, TAYLOR_DEGREE + 1):
            # (k + 1) f_{k+1} / 32^k, one rounding
            out[k + 1, j] = (k + 1) * f[k + 1] / (one << (sb * k))
        F = sum(fk >> (sb * k) for k, fk in enumerate(f))
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
        return np.frompyfunc(lambda v: _mp_scaled_i_pair(v, dps), 1, 2)(x)
    from scipy import special
    return special.i0e(x), special.i1e(x)


def _mp_scaled_i_pair(x, dps):
    """Both scaled kernels for one mpf x >= 0.

    Power series below the crossover, large-x expansion above it.  The
    crossover max(40, 1.5 dps) keeps the expansion's smallest term, which is
    O(e^{-2x}), below the 10^-(dps+6) stopping tolerance, so the expansion
    always terminates by convergence rather than by divergence.
    """
    with mpmath.workdps(dps + 8):
        x = mpmath.mpf(x)
        if x < 0:
            raise ValueError("scaled I kernels take x >= 0")
        if x == 0:
            return mpmath.mpf(1), mpmath.mpf(0)
        tol = mpmath.mpf(10) ** (-(dps + 6))
        if x <= max(40, 1.5 * dps):
            # sum e^x I_j as positive series, rescale at the end
            q = x * x / 4
            u = mpmath.mpf(1)
            s0 = mpmath.mpf(1)
            s1 = mpmath.mpf(1)      # sum of u_k/(k+1)
            k = 0
            while True:
                k += 1
                u *= q / (k * k)
                s0 += u
                s1 += u / (k + 1)
                if u <= tol * s0:
                    break
            sc = mpmath.exp(-x)
            return sc * s0, sc * (x / 2) * s1
        rt = 1 / mpmath.sqrt(2 * mpmath.pi * x)
        out = []
        for mu in (0, 4):           # mu = 4 nu^2
            term = mpmath.mpf(1)
            s = mpmath.mpf(1)
            k = 0
            while True:
                nxt = term * (((2 * k + 1) ** 2 - mu) / (8 * (k + 1) * x))
                if abs(nxt) <= tol * abs(s):
                    s += nxt
                    break
                if abs(nxt) >= abs(term):
                    break           # unreachable for x above the crossover
                s += nxt
                term = nxt
                k += 1
            out.append(rt * s)
        return out[0], out[1]


def double_factorial(k) -> int:
    """k!! as an exact integer, with (-1)!! = 0!! = 1."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"double factorial needs an integer, got {k!r}")
    if k < -1:
        raise ValueError(f"double factorial needs k >= -1, got {k}")
    result = 1
    k = int(k)
    while k > 1:
        result *= k
        k -= 2
    return result
