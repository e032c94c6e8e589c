"""Quadrature evaluation kernels, one per dispatch region.

Every function takes the evaluator (for its backend, precision parameters
and the RuleTables built here by ``rule_tables``) plus 1-d backend arrays
t, r, and returns (p, u_r) arrays.  Every reduction is a per-row sum over
the node axis, so a batched evaluation reproduces single-point results bit
for bit.

The kernels use four integral representations.  Three are the paper's
(Fourier-Bessel, half-line, self-similar); the fourth is the diameter mean
of the axis pressure g(s) = p(s, 0) = 1 - sqrt(2) s D(s / sqrt(2)):
writing J0(x) = (1/pi) int_0^pi cos(x cos theta) d theta (DLMF 10.9.1)
under the Fourier-Bessel integral gives

    p(t, r)   =  (1/pi) int_0^pi g(t + r cos theta) d theta,
    u_r(t, r) = -(1/pi) int_0^pi g(t + r cos theta) cos theta d theta.

The integrand is periodic and entire in theta, so the N-point periodic
trapezoid rule converges geometrically (Trefethen & Weideman, SIAM Review
56 (2014) 385); its error falls with N like J_N(omega r) at omega ~ H.

Region conventions (H = crop radius, eps = target accuracy):

* near field (t + r < 1.05 H, Form1GL): the diameter mean with N_f1 nodes,
  N_f1 >= 1.2 * 1.05 H * H; M_f1 = N_f1/2 + 1 values of g per point.
* axis band and deep axis strip (r <= R2 or r <= R1, Form3GL): the
  diameter mean with N_ax = 10 nodes, 6 values of g: the trapezoid error
  goes like r^N_ax, and R2 = 5 eps^(1/10).
* far field off axis (t - r > 1.152 H, r not tiny): midpoint-offset uniform
  grid; the +-kh node pair is summed in a regularized closed form to kill
  the subtractive cancellation near the front.
* intermediate band: Gauss-Jacobi with weight (1+x)^(-1/2), after cropping
  the half-line at xi = (t + H)/r - 1 and absorbing the endpoint
  singularity into the weight.

Both Form2 kernels sum tau = t only: their regions have t + r >= 1.05 H,
so the tau = -t half-line lies beyond the crop radius, and the uniform
grid's largest node M2 h (about 1.12 H, pinned by the tests) is below
t - r > 1.152 H, so no +kh node lacks its -kh partner in the domain.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import mpmath
import numpy as np

from .numerics import as_mask, mp_backend
from .quadrature import gauss_jacobi_m12
from .specfun import TAYLOR_STEP_BITS, axis_pressure_rows, axis_pressure_taylor

__all__ = ["RuleTables", "rule_tables", "G_MAX", "form1_eval",
           "form2_uniform_eval", "form2_jacobi_eval", "form3_eval",
           "small_t_eval", "zero_eval"]

# largest |t + r cos theta| of the double-precision axis-pressure table.  It
# covers the deep axis strip, |s| <= 1.31 H + R1, with the 0.02 and 1.02 R1
# margins of the seam checks, at the only double-precision eps, 2e-16
G_MAX = 11.5


@dataclass(frozen=True)
class RuleTables:
    """Node tables of every kernel for one (eps, backend); arrays read-only.

    The diameter-mean tables (``f1_*`` for Form1GL, ``ax_*`` for the axis
    band) hold cos theta_k for the M/2 distinct node pairs theta_k and
    pi - theta_k, theta_k = 2 pi k / N, then the same values negated; the
    weights are 1 at theta = 0 and 2 elsewhere (each node also stands for
    -theta_k), and ``*_n`` is N.  In double precision the cosines and the
    Gauss-Jacobi table are rounded from 40 digits and the Gauss-Jacobi half
    nodes come as hi + lo pairs (``gj_half_lo``; None under mpmath).

    ``g_taylor`` holds the Taylor polynomials of the axis pressure g at the
    centres j / 32, one row per coefficient, from one builder
    (``specfun.axis_pressure_rows``) on both backends: in double precision
    the float64 table of ``specfun.axis_pressure_taylor(G_MAX)``, under
    mpmath the coefficients of y^k, y = 32 (|s| - j / 32), as Python
    integers with ``g_frac`` fraction bits (None in double precision).
    """
    f1_cos: np.ndarray              # Form1GL: cos theta_k, then -cos theta_k
    f1_w: np.ndarray                # 1, 2, 2, ...
    f1_wc: np.ndarray               # f1_w * cos theta_k
    f1_n: object                    # N_f1
    ax_cos: np.ndarray              # Form3GL: the same at N_ax
    ax_w: np.ndarray
    ax_wc: np.ndarray
    ax_n: object
    g_taylor: np.ndarray            # Taylor rows of g, float64 or int
    g_frac: int | None              # fraction bits of the integer rows
    gj_nodes: np.ndarray            # Form2Jacobi: eta_i, weight (1+x)^(-1/2)
    gj_weights: np.ndarray
    gj_half: np.ndarray             # (eta_i + 1) / 2
    gj_half_lo: np.ndarray | None
    u_kh: np.ndarray                # Form2Uniform: k h, k = 1..M2
    u_gauss: np.ndarray             # exp(-(k h)^2 / 2)
    u_pref: object                  # h / sqrt(2 pi)
    inv_sqrt_2pi: object


def _read_only(a):
    a.setflags(write=False)
    return a


def _split(v, mp):
    """(hi, lo): v itself and None under mpmath, else the doubles nearest
    each element of v and nearest the rest v - hi."""
    if mp:
        return _read_only(v), None
    hi = np.array([float(x) for x in v])
    lo = np.array([float(x - h) for x, h in zip(v, hi)])
    return _read_only(hi), _read_only(lo)


def _diameter_rule(m, src, bk, mp):
    """(cos, w, wc, n) of the N = 2m - 2 point periodic trapezoid rule.

    N = 2 mod 4, so the m distinct nodes in [0, pi] fall into m/2 pairs
    theta, pi - theta and none sits at pi/2.  cos is computed under src and
    rounded to bk; w c is exact, as w is 1 or 2.
    """
    n = 2 * m - 2
    c = src.cos(2 * src.pi * src.asarray(list(range(m // 2))) / n)
    cos = _split(np.concatenate([c, -c]), mp)[0]
    w = bk.asarray([1] + [2] * (m // 2 - 1))
    return cos, _read_only(w), _read_only(w * cos[:m // 2]), bk.scalar(n)


def _fixed_point_taylor(params, backend):
    """(rows, fraction bits) of g's Taylor table under an mpmath backend.

    Its last centre s_max is at or beyond thr_series + R1 (the deep axis
    strip's corner), so it covers every kernel argument.  Fraction bits:
    the backend's digits plus 32, plus guard bits for the build's forward
    recurrence, which amplifies rounding by up to e^{s_max}.  Row k is the
    coefficient of y^k shifted down by 5k bits; on |y| <= 1/2 the terms
    fall like 64^-k (radius-1 Cauchy bound), so degree bits / 6 truncates
    below 2^-bits.
    """
    steps = 1 << TAYLOR_STEP_BITS
    s_max = math.ceil(float(params.thr_series + params.R1) * steps) / steps
    bits = math.ceil(backend.dps * math.log2(10)) + 32
    frac = bits + math.ceil(s_max * math.log2(math.e))
    rows = axis_pressure_rows(s_max, frac, math.ceil(bits / 6))
    tab = np.array([[c >> (TAYLOR_STEP_BITS * k) for c in row]
                    for k, row in enumerate(rows)], dtype=object)
    return _read_only(tab), frac


def rule_tables(params, backend) -> RuleTables:
    """All kernel tables for the precision parameters under backend.

    Double-precision tables are rounded from 40-digit values.  Nodes
    rounded to double are perturbed relatively by eps/2; through the
    product span*(eta+1)/2 that by itself costs an order above the target
    at the far end of the Jacobi band, so its half nodes are kept as
    hi + lo and the kernel folds the residual into the product to first
    order.  The weights are rounded from 40 digits too: the float64
    eigensolve's miss by up to about 1e-14 (hundreds of ulp in the small
    end weights), which is visible at the same scale.  The axis-pressure
    table is ``axis_pressure_taylor(G_MAX)`` in double precision and
    ``_fixed_point_taylor`` under mpmath.
    """
    P = params
    bk = backend
    mp = bk.dtype is object
    src = bk if mp else mp_backend(40)
    # split at src's precision: the lo parts must not depend on the
    # caller's global mpmath precision
    with src.workprec():
        gj = gauss_jacobi_m12(P.M_gj, src)
        half_hi, half_lo = _split((gj.nodes + 1) / 2, mp)
        gj_nodes, gj_weights = (_split(v, mp)[0]
                                for v in (gj.nodes, gj.weights))
        f1 = _diameter_rule(P.M_f1, src, bk, mp)
        ax = _diameter_rule(P.M_ax, src, bk, mp)
    g_taylor, g_frac = (_fixed_point_taylor(P, bk) if mp
                        else (axis_pressure_taylor(G_MAX), None))
    with bk.workprec():
        kh = bk.asarray(list(range(1, P.M2 + 1))) * P.h
        return RuleTables(
            f1_cos=f1[0], f1_w=f1[1], f1_wc=f1[2], f1_n=f1[3],
            ax_cos=ax[0], ax_w=ax[1], ax_wc=ax[2], ax_n=ax[3],
            g_taylor=g_taylor, g_frac=g_frac,
            gj_nodes=gj_nodes, gj_weights=gj_weights,
            gj_half=half_hi, gj_half_lo=half_lo,
            u_kh=_read_only(kh),
            u_gauss=_read_only(bk.exp(-(kh * kh) / 2)),
            u_pref=P.h / bk.sqrt(2 * bk.pi),
            inv_sqrt_2pi=1 / bk.sqrt(2 * bk.pi))


# .n: kernel evaluations on this thread while kernel_count runs on it
_count = threading.local()


def _tick(n):
    if getattr(_count, "n", None) is not None:
        _count.n += n


_SPLIT = 134217729.0    # 2**27 + 1, Dekker splitting constant for binary64


def _two_prod(a, b):
    """a * b = p + err exactly in binary64 (no fma needed)."""
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _two_sum(a, b):
    """a + b = s + err exactly in binary64 (Knuth, no magnitude order)."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return s, err


# (x + _SIGMA) - _SIGMA rounds x to a multiple of 2**-45 while |x| < 64,
# as x + _SIGMA then stays in [128, 256), where the spacing is 2**-45
_SIGMA = 1.5 * 2 ** 7


def _row_sum(x):
    """Sums over the last axis of x with about one rounding in binary64.

    Needs |x| < 64 elementwise and a row sum of |x| below 2**8.  Then each
    hi is a multiple of 2**-45 and so is every partial sum of the hi, and
    below 2**8 those take at most 53 bits: np.sum(hi) is exact in any
    order, x - hi is exact, and only the sum of the small lo parts and the
    final addition round.  Under mpmath it is a plain sum at the working
    precision.  ``np.sum(x)`` alone cost up to 1.5 eps on 47 O(1)
    same-sign terms.
    """
    hi = (x + _SIGMA) - _SIGMA
    return np.sum(hi, axis=-1) + np.sum(x - hi, axis=-1)


_STEPS = float(2 ** TAYLOR_STEP_BITS)


def _abs_fixed(v, shift):
    """|v| * 2**shift for an mpf v, as an integer (floored if inexact)."""
    man, exp = v.man_exp
    e = exp + shift
    return abs(man) << e if e >= 0 else abs(man) >> -e


_abs_fixed_ufunc = np.frompyfunc(_abs_fixed, 2, 1)
_mpf_ufunc = np.frompyfunc(lambda man, exp: mpmath.mpf((man, exp)), 2, 1)


def _axis_pressure(ev, s):
    """g(s) elementwise: Horner on the Taylor table at the nearest centre
    j / 32, on y = 32 |s| - j in [-1/2, 1/2]; g is even.  s beyond the
    table's last centre + 1/64 (G_MAX + 1/64 in double precision) raises
    IndexError.

    Under mpmath, Horner runs in binary fixed point on Python integers
    with ``g_frac`` fraction bits: y is 32 |s| - j truncated to them
    (exact unless |s| is tiny), and the sum is rounded once, to the
    backend's precision.
    """
    tb = ev.tables
    tab = tb.g_taylor
    frac = tb.g_frac
    if frac is not None:
        y = _abs_fixed_ufunc(s, frac + TAYLOR_STEP_BITS)
        j = (y + (1 << (frac - 1))) >> frac
        y -= j << frac
        j = j.astype(np.intp)
        acc = tab[-1].take(j)
        for row in tab[-2::-1]:
            acc = acc * y >> frac
            acc += row.take(j)
        with ev.backend.workprec():
            return _mpf_ufunc(acc, -frac)
    # y = 32 |s| - j is exact
    y = np.abs(s) * _STEPS
    j = np.rint(y)
    y -= j
    j = j.astype(np.intp)
    acc = tab[-1].take(j)
    acc *= y
    for row in tab[-2:1:-1]:
        acc += row.take(j)
        acc *= y
    acc += tab[1].take(j)
    acc += tab[0].take(j)
    return acc


def _diameter_mean(ev, t, r, cos, w, wc, n):
    """(p, u_r) from the diameter mean of g with the N = n trapezoid rule.

    Pairs theta with pi - theta: s = t + r cos theta and t - r cos theta
    come from one product, so u_r sums the differences g(t - r c) -
    g(t + r c), which are exactly 0 at r = 0.  The row terms satisfy
    _row_sum's bounds: |g| <= 1, so each term is at most 4 in size and a
    row sums to at most n, at most 94 in double precision.
    """
    _tick(cos.size)
    g = _axis_pressure(ev, t[..., None] + r[..., None] * cos)
    k = w.size
    gp = g[..., :k]
    gm = g[..., k:]
    return _row_sum(w * (gp + gm)) / n, _row_sum(wc * (gm - gp)) / n


def form1_eval(ev, t, r):
    """Near field (t + r < 1.05 H): the diameter mean at N_f1 nodes."""
    tb = ev.tables
    return _diameter_mean(ev, t, r, tb.f1_cos, tb.f1_w, tb.f1_wc, tb.f1_n)


def _uniform_terms(ev, t, r):
    """Per-node bracket values of the uniform grid at shift tau = t.

    Returns (f0, f1) of shape (..., M2): the regularized sum of the +-kh
    node pair,

        f_j(kh) + f_j(-kh) = -4 (kh)^2 t / (r^2 s+ s- D_j),
        D_0 = s+ + s-,   D_1 = (1 + xi+) s- + (1 + xi-) s+,

    with s+- = sqrt(xi+- (xi+- + 2)), which is exact and has no subtractive
    cancellation: every factor is positive, as xi- > 0 at every node.
    """
    bk = ev.backend
    kh = ev.tables.u_kh
    # route through d = t - r so the large t + kh never meets a nearby r
    # head-on; at t ~ r ~ 400 the naive form loses ~eps*t of accuracy
    d = (t - r)[..., None]
    rr = r[..., None]
    xp = (d + kh) / rr
    xm = (d - kh) / rr
    _tick(2 * kh.size)
    sp = bk.sqrt(xp * (xp + 2))
    sm = bk.sqrt(xm * (xm + 2))
    shared = -4 * (kh * kh) * t[..., None] / ((r * r)[..., None] * sp * sm)
    return shared / (sp + sm), shared / ((1 + xp) * sm + (1 + xm) * sp)


def form2_uniform_eval(ev, t, r):
    """Far-field uniform-grid evaluation (t - r > 1.152 H, r > R1).

    The tau = -t grid and unpaired +kh nodes need kh > t + r or kh >= t - r,
    both beyond the largest node M2 h < 1.152 H, so neither is summed.
    """
    tb = ev.tables
    f0, f1 = _uniform_terms(ev, t, r)
    pref = tb.u_pref / r
    return (pref * np.sum(tb.u_gauss * f0, axis=-1),
            pref * np.sum(tb.u_gauss * f1, axis=-1))


def form2_jacobi_eval(ev, t, r):
    """Intermediate-band evaluation: the cropped Gauss-Jacobi half-line sum.

    The substitution xi = b (eta + 1)/2 with crop width b = (t + H)/r - 1
    maps to [-1, 1]; the endpoint factor xi^(-1/2) becomes the rule weight
    (1 + eta)^(-1/2) and the remaining branch factor 1/sqrt(eta - c) with
    c = -1 - 4/b stays analytic on the interval.  b <= 0 means the whole
    integrand lies beyond the crop radius and contributes nothing at the
    working accuracy: near the front ahead, t - r + H <= 0 occurs.  At
    tau = -t it always holds, as t + r >= 1.05 H, so that half is skipped.
    """
    bk = ev.backend
    tb = ev.tables
    # window width t + H - r built from the small difference d = t - r;
    # forming r(1 + xi) - t directly would round at eps*t, which at the
    # grid extremes is two decades above the target accuracy
    d = t - r
    span = d + ev.params.H
    live = as_mask(span > 0)
    if not live.any():
        z = bk.zeros(t.shape)
        return z, z
    ss = np.where(live, span, 1)
    b = ss / r
    c = -1 - 4 / b
    eta = tb.gj_nodes
    w = tb.gj_weights
    he = tb.gj_half
    _tick(2 * eta.size)
    xi = b[..., None] * he
    if tb.gj_half_lo is None:
        arg = ss[..., None] * he - d[..., None]
        gauss = bk.exp(-(arg * arg) / 2)
    else:
        # node and product roundings each shift arg by ~eps*d/2 right at
        # the integrand peak; carry both residuals to first order like the
        # near-field rule does with its split node table
        prod, perr = _two_prod(ss[..., None], he)
        arg, serr = _two_sum(prod, -d[..., None])
        darg = serr + perr + ss[..., None] * tb.gj_half_lo
        gauss = bk.exp(-(arg * arg) / 2)
        gauss = gauss - (arg * darg) * gauss
        arg = arg + darg
    op = 1 + xi
    root = bk.sqrt(eta - c[..., None])
    base = (w * gauss) / root
    # u_r integrand regularized: arg/(1+xi) + 1/(r (1+xi)^2) replaces the
    # raw product, removing the front-crossing cancellation
    g1 = arg / op + 1 / (r[..., None] * (op * op))
    q0 = np.sum(base * arg, axis=-1)
    q1 = np.sum(base * g1, axis=-1)
    return (tb.inv_sqrt_2pi * np.where(live, q0, 0),
            tb.inv_sqrt_2pi * np.where(live, q1, 0))


def form3_eval(ev, t, r):
    """Axis band and deep axis strip (r <= R2): the diameter mean at N_ax
    nodes; u_r vanishes identically at r = 0."""
    tb = ev.tables
    return _diameter_mean(ev, t, r, tb.ax_cos, tb.ax_w, tb.ax_wc, tb.ax_n)


def small_t_eval(ev, t, r):
    """Degenerate early-time limit: the initial pulse, O(eps) velocity.

    From u_t = -dp/dr at p = exp(-r^2/2), u_r = t r p to first order in t.
    """
    bk = ev.backend
    _tick(1)
    p = bk.exp(-(r * r) / 2)
    return p, (t * r) * p


def zero_eval(ev, t, r):
    """Ahead of the front beyond the crop radius: identically zero."""
    bk = ev.backend
    return bk.zeros(t.shape), bk.zeros(t.shape)
