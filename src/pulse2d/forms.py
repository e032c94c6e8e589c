"""Quadrature evaluation kernels, one per dispatch region.

Every kernel takes the evaluator (for its backend, precision parameters
and the RuleTables built here by ``rule_tables``) plus 1-d backend arrays
t, r, and returns (p, u_r) arrays; a kernel with node classes also takes
the rule of its points' class.  Every reduction is a per-row sum over the
node axis, so a batched evaluation reproduces single-point results bit
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

Region conventions (H = crop radius, eps = target accuracy).  This module
owns every node count and class edge (``_ladders``); each rule's
``width`` is the values of g or nodes a point takes:

* near field (t + r < 1.05 H, Form1GL): the diameter mean with N_f1 nodes,
  the smallest N = 2 mod 4 with N >= 1.2 * 1.05 H * H (94 at eps = 2e-16,
  178 at 1e-30), so N_f1/2 + 1 values of g per point.  Its error grows
  with r only, so points up to three smaller radii take rules of about
  0.27, 0.44 and 0.61 N_f1 nodes.
* axis band and deep axis strip (r <= R2 or r <= R1, Form3GL): the
  diameter mean with N_ax = 10 nodes, 6 values of g, at every eps: the
  trapezoid error goes like r^N_ax, and R2 = 5 eps^(1/10).
* far field off axis (t - r > 1.152 H, r not tiny): midpoint-offset uniform
  grid of M2 node pairs (``PrecisionParams.M2``); the +-kh node pair is
  summed in a regularized closed form to kill the subtractive
  cancellation near the front.
* intermediate band: Gauss-Jacobi with weight (1+x)^(-1/2), after cropping
  the half-line at xi = (t + H)/r - 1 and absorbing the endpoint
  singularity into the weight; M_gj = ceil(0.65 H^2) nodes.  Points whose
  Gaussian spans a smaller share of the largest crop take one of four
  cheaper rules, of about M_gj/3, M_gj/2, 2 M_gj/3 and 5 M_gj/6 nodes (16,
  24, 32 and 40 of 48 at eps = 2e-16).  In double precision the
  Gaussian's argument span * (eta + 1)/2 - (t - r) takes the product of
  26-bit leading parts, which is exact, so it rounds only relative to
  itself.

A dense sweep along the regions' edges, seam strips included, puts the
quadrature error of the full counts below eps/100 from 2e-16 to 1e-40,
and at its edge each cheaper class stays below eps/100 too.

A node class is chosen by one float comparison on (t, r) alone, made the
same way in a batch and for one point, so the two stay bit-identical.

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

__all__ = ["RuleTables", "DiameterRule", "JacobiRule", "rule_tables",
           "G_MAX", "count_kernel_evals", "diameter_mean_eval",
           "form1_classes", "form3_classes", "form2_uniform_eval",
           "form2_jacobi_classes", "form2_jacobi_eval", "small_t_eval"]

# largest |t + r cos theta| of the double-precision axis-pressure table.  It
# covers the deep axis strip, |s| <= 1.31 H + R1, with the 0.02 and 1.02 R1
# margins of the seam checks, at the only double-precision eps, 2e-16
G_MAX = 11.5


@dataclass(frozen=True)
class DiameterRule:
    """The N-point periodic trapezoid rule of the diameter mean, N = 2 mod 4.

    ``cos`` holds cos theta_k for the m/2 distinct node pairs theta_k and
    pi - theta_k, theta_k = 2 pi k / N, then the same values negated; the
    weights ``w`` are 1 at theta = 0 and 2 elsewhere (each node also stands
    for -theta_k), ``wc`` is w cos theta_k and ``n`` is N.  A point takes
    m = N/2 + 1 values of g, the rule's ``width``.
    """
    cos: np.ndarray
    w: np.ndarray
    wc: np.ndarray
    n: object

    @property
    def width(self):
        return self.cos.size


@dataclass(frozen=True)
class JacobiRule:
    """Gauss-Jacobi nodes eta_i and weights for the weight (1+x)^(-1/2),
    with the half nodes (eta_i + 1) / 2.  In double precision each half node
    is also kept as its 26-bit leading part plus the rest, ``half26 +
    half_lo``, about 80 bits in all; both are None under mpmath."""
    nodes: np.ndarray
    weights: np.ndarray
    half: np.ndarray
    half26: np.ndarray | None
    half_lo: np.ndarray | None

    @property
    def width(self):
        return self.nodes.size


@dataclass(frozen=True)
class RuleTables:
    """Node tables of every kernel for one (eps, backend); arrays read-only.

    Form1GL and Form2Jacobi each hold a ladder of rules, fewest nodes first,
    and the edges of their node classes: a point takes the first class
    whose edge is at or above its r (Form1GL) or its crop span t - r + H
    (Form2Jacobi), and the last class, the full rule, takes the rest.  In
    double precision the cosines and the Gauss-Jacobi tables are rounded
    from 40 digits.

    ``g_taylor`` holds the Taylor polynomials of the axis pressure g at the
    centres j / 32, one row per coefficient, from one builder
    (``specfun.axis_pressure_rows``) on both backends: in double precision
    the float64 table of ``specfun.axis_pressure_taylor(G_MAX)``, under
    mpmath the coefficients of y^k, y = 32 (|s| - j / 32), as Python
    integers with ``g_frac`` fraction bits (None in double precision).
    """
    f1: tuple                       # Form1GL: DiameterRule per class
    f1_edges: np.ndarray            # largest r of each class but the last
    ax: DiameterRule                # Form3GL: _N_AX nodes
    g_taylor: np.ndarray            # Taylor rows of g, float64 or int
    g_frac: int | None              # fraction bits of the integer rows
    gj: tuple                       # Form2Jacobi: JacobiRule per class
    gj_edges: np.ndarray            # largest span t - r + H of each class
    u_kh: np.ndarray                # Form2Uniform: k h, k = 1..M2
    u_gauss: np.ndarray             # exp(-(k h)^2 / 2)
    u_pref: object                  # h / sqrt(2 pi)
    inv_sqrt_2pi: object


def _read_only(a):
    a.setflags(write=False)
    return a


def _rounded(v, mp):
    """v itself under mpmath, else the doubles nearest each element."""
    return _read_only(v if mp else np.array([float(x) for x in v]))


_SPLIT = 134217729.0    # 2**27 + 1, Veltkamp splitting constant for binary64


def _veltkamp_hi(a):
    """The leading 26 bits of each double in a (Dekker, Numer. Math. 18
    (1971) 224): a - hi is exact and fits in 26 bits too, so the product
    of two such leading parts is exact in binary64."""
    c = _SPLIT * a
    return c - (c - a)


def _diameter_rule(m, src, bk, mp):
    """The DiameterRule with N = 2m - 2 nodes, m even.

    N = 2 mod 4, so the m distinct nodes in [0, pi] fall into m/2 pairs
    theta, pi - theta and none sits at pi/2.  cos is computed under src and
    rounded to bk; w c is exact, as w is 1 or 2.
    """
    n = 2 * m - 2
    c = src.cos(2 * src.pi * src.asarray(list(range(m // 2))) / n)
    cos = _rounded(np.concatenate([c, -c]), mp)
    w = bk.asarray([1] + [2] * (m // 2 - 1))
    return DiameterRule(cos=cos, w=_read_only(w),
                        wc=_read_only(w * cos[:m // 2]), n=bk.scalar(n))


def _jacobi_rule(m, src, mp):
    """The m-node JacobiRule from src's 40-digit rule.  In double precision
    half - half26 is exact and adding the 40-digit residual of the rounded
    half node rounds at about 2**-79 of the node."""
    gj = gauss_jacobi_m12(m, src)
    exact = (gj.nodes + 1) / 2
    half = _rounded(exact, mp)
    half26 = half_lo = None
    if not mp:
        half26 = _read_only(_veltkamp_hi(half))
        rest = np.array([float(x - h) for x, h in zip(exact, half)])
        half_lo = _read_only((half - half26) + rest)
    return JacobiRule(nodes=_rounded(gj.nodes, mp),
                      weights=_rounded(gj.weights, mp),
                      half=half, half26=half26, half_lo=half_lo)


# Node classes.  Each lower class takes a share of the full node count,
# rounded up (to N = 2 mod 4 for Form1GL), and its edge is where a law in
# H says that count stops meeting eps/100.
#
# Form1GL: the N-point trapezoid rule aliases the Fourier coefficients
# N -+ 1 of g(t + r cos theta), so its error is at most about
# 2 int_0^inf k exp(-k^2/2) |J_{N-1}(k r)| dk at every t.  Debye's
# J_N(N sech a) ~ exp(-N (a - tanh a)) puts the integrand's peak at
# N = r^2 sinh(a) cosh(a), where its logarithm is -N (a - tanh(a)/2); the
# bound meets eps/100 where that is -(H^2/2 + _F1_SLACK).  The slack
# covers the prefactors: at six eps from 2e-16 to 1e-100 and r from 0.25
# to 14, the smallest N on a step-4 grid whose bound meets eps/100 always
# has N (a - tanh(a)/2) - H^2/2 above 5.4, and N - 4 always below 7.7.
# This law grows like H^2 / ln(H/r) at small r; the linear fit
# N = H (2.1 + r) of 2e-16 read 1300 eps at its class edge at 1e-40.
_F1_SHARES = (0.27, 0.44, 0.61)
_F1_SLACK = 8.0
# Form2Jacobi: the Gaussian covers the span fraction f = (t - r + H) /
# (thr_diff + H) of the cropped interval, and M = M_gj (1 + 3 f) / 4 nodes
# meet eps/100 at every r of the band.  On a step-2 grid of M for f from
# 0.05 to 1 at 2e-16, 1e-30 and 1e-40, the smallest M that does is at most
# M_gj (0.12 + 0.88 f) up to f = 0.8.  The shares give 16/24/32/40/48
# nodes at 2e-16 and 31/46/61/76/91 at 1e-30; the upper two classes reach
# the band's smallest r, where the branch point comes within 0.5 of the
# interval, and there their edge counts read at most 8.1e-5 eps (2e-16).
# Each share costs one cold 40-digit Gauss-Jacobi build.
_GJ_SHARES = (1 / 3, 1 / 2, 2 / 3, 5 / 6)
# periodic trapezoid nodes of the axis-band diameter mean, at every eps
_N_AX = 10


def _f1_edge(n, H):
    """Largest r at which the n-point diameter mean meets eps/100."""
    target = (H * H / 2 + _F1_SLACK) / n
    a = target + 0.5
    for _ in range(60):     # a - tanh(a)/2 = target; contracts by <= 1/2
        a = target + math.tanh(a) / 2
    return math.sqrt(2 * n / math.sinh(2 * a))


def _ladders(P, bk):
    """(f1 widths, f1 edges, gj widths, gj edges), fewest nodes first, in
    bk's working precision.  The last widths take every point past the
    edges: N_f1/2 + 1 values of g, N_f1 the smallest N = 2 mod 4 with
    N >= 1.2 thr_sum H, and M_gj = ceil(0.65 H^2) Gauss-Jacobi nodes."""
    with bk.workprec():
        n_f1 = 4 * bk.ceil_int((bk.scalar(1.2) * P.thr_sum * P.H - 2) / 4) + 2
        H_sq = -2 * bk.log(P.eps / 2)
        m_gj = bk.ceil_int(bk.scalar(0.65) * H_sq)
        f1_n = [4 * math.ceil((q * n_f1 - 2) / 4) + 2 for q in _F1_SHARES]
        H = float(P.H)
        f1_edges = [bk.scalar(_f1_edge(n, H)) for n in f1_n]
        gj_m = [math.ceil(q * m_gj) for q in _GJ_SHARES]
        gj_edges = [bk.scalar(4 * m - m_gj) / (3 * m_gj) * (P.thr_diff + P.H)
                    for m in gj_m]
        return ([n // 2 + 1 for n in f1_n + [n_f1]], bk.asarray(f1_edges),
                gj_m + [m_gj], bk.asarray(gj_edges))


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
    at the far end of the Jacobi band, so each half node is also split
    into a 26-bit leading part, whose product with a 26-bit part of the
    span is exact, and the rest (``_jacobi_rule``).  The weights are
    rounded from 40 digits too: the float64 eigensolve's miss by up to
    about 1e-14 (hundreds of ulp in the small end weights), which is
    visible at the same scale.  The node classes of Form1GL and
    Form2Jacobi come from ``_ladders``.  The axis-pressure table is
    ``axis_pressure_taylor(G_MAX)`` in double precision and
    ``_fixed_point_taylor`` under mpmath.
    """
    P = params
    bk = backend
    mp = bk.dtype is object
    src = bk if mp else mp_backend(40)
    f1_m, f1_edges, gj_m, gj_edges = _ladders(P, bk)
    # split at src's precision: the lo parts must not depend on the
    # caller's global mpmath precision
    with src.workprec():
        f1 = tuple(_diameter_rule(m, src, bk, mp) for m in f1_m)
        ax = _diameter_rule(_N_AX // 2 + 1, src, bk, mp)
        gj = tuple(_jacobi_rule(m, src, mp) for m in gj_m)
    g_taylor, g_frac = (_fixed_point_taylor(P, bk) if mp
                        else (axis_pressure_taylor(G_MAX), None))
    with bk.workprec():
        kh = bk.asarray(list(range(1, P.M2 + 1))) * P.h
        return RuleTables(
            f1=f1, f1_edges=_read_only(f1_edges), ax=ax,
            g_taylor=g_taylor, g_frac=g_frac,
            gj=gj, gj_edges=_read_only(gj_edges),
            u_kh=_read_only(kh),
            u_gauss=_read_only(bk.exp(-(kh * kh) / 2)),
            u_pref=P.h / bk.sqrt(2 * bk.pi),
            inv_sqrt_2pi=1 / bk.sqrt(2 * bk.pi))


# .n: kernel evaluations on this thread while count_kernel_evals runs on it
_count = threading.local()


def _tick(n):
    if getattr(_count, "n", None) is not None:
        _count.n += n


def count_kernel_evals(fn, *args):
    """Kernel evaluations (exp/sqrt/axis-pressure values) that fn(*args)
    makes on the calling thread; other threads' calls are not counted."""
    _count.n = 0
    try:
        fn(*args)
        return _count.n
    finally:
        _count.n = None


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
    if x.dtype == object:
        return np.sum(x, axis=-1)
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


def diameter_mean_eval(ev, t, r, rule):
    """Near field (Form1GL) and axis band (Form3GL): (p, u_r) from the
    diameter mean of g with a DiameterRule; u_r vanishes at r = 0.

    Pairs theta with pi - theta: s = t + r cos theta and t - r cos theta
    come from one product, so u_r sums the differences g(t - r c) -
    g(t + r c), which are exactly 0 at r = 0.  The row terms satisfy
    _row_sum's bounds: |g| <= 1, so each term is at most 4 in size and a
    row sums to at most N, at most 94 in double precision.
    """
    cos = rule.cos
    _tick(cos.size)
    g = _axis_pressure(ev, t[..., None] + r[..., None] * cos)
    k = rule.w.size
    gp = g[..., :k]
    gm = g[..., k:]
    return (_row_sum(rule.w * (gp + gm)) / rule.n,
            _row_sum(rule.wc * (gm - gp)) / rule.n)


def form1_classes(ev, t, r):
    """(class of each Form1GL point, rule of each class): the index of the
    first class edge at or above r."""
    tb = ev.tables
    return np.searchsorted(tb.f1_edges, r), tb.f1


def form3_classes(ev, t, r):
    """Form3GL's one class: every point takes the N_ax-node rule."""
    return np.zeros(t.shape, dtype=np.intp), (ev.tables.ax,)


# -4 (kh)^2 t of the uniform grid overflows from about t = 5e305 on, and
# inf / inf gave nan.  Capping t there leaves every t <= 1e300 as it is,
# and the capped quotient still underflows to 0, as |p| and |u_r| are far
# below eps at such t
_T_CAP = 1e300


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
    shared = (-4 * (kh * kh) * np.minimum(t, _T_CAP)[..., None]
              / ((r * r)[..., None] * sp * sm))
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


def form2_jacobi_classes(ev, t, r):
    """(class of each Form2Jacobi point, rule of each class): the index of
    the first class edge at or above the crop span t - r + H, formed as the
    kernel forms it."""
    tb = ev.tables
    return np.searchsorted(tb.gj_edges, (t - r) + ev.params.H), tb.gj


def form2_jacobi_eval(ev, t, r, rule):
    """Intermediate-band evaluation: the cropped Gauss-Jacobi half-line sum
    with a JacobiRule.

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
        return bk.zeros(t.shape), bk.zeros(t.shape)
    ss = np.where(live, span, 1)
    b = ss / r
    c = -1 - 4 / b
    eta = rule.nodes
    he = rule.half
    _tick(2 * eta.size)
    if rule.half26 is None:
        arg = ss[..., None] * he - d[..., None]
    else:
        # node and product roundings each shift arg by ~eps*d/2 right at
        # the integrand peak, where arg is small; s_hi * half26 is exact,
        # so arg rounds only relative to itself, plus ~2**-79 of the span
        s_hi = _veltkamp_hi(ss)
        s_lo = (ss - s_hi)[..., None]
        h26 = rule.half26
        arg = ((s_hi[..., None] * h26 - d[..., None])
               + (s_lo * h26 + ss[..., None] * rule.half_lo))
    gauss = bk.exp((arg * arg) * -0.5)
    base = (rule.weights * gauss) / bk.sqrt(eta - c[..., None])
    # u_r integrand regularized: inv (arg + inv / r) with inv = 1/(1 + xi)
    # replaces the raw product, removing the front-crossing cancellation
    inv = 1 / (1 + b[..., None] * he)
    g1 = inv * (arg + inv / r[..., None])
    q0 = np.sum(base * arg, axis=-1)
    q1 = np.sum(base * g1, axis=-1)
    return (tb.inv_sqrt_2pi * np.where(live, q0, 0),
            tb.inv_sqrt_2pi * np.where(live, q1, 0))


def small_t_eval(ev, t, r):
    """Degenerate early-time limit: the initial pulse, O(eps) velocity.

    From u_t = -dp/dr at p = exp(-r^2/2), u_r = t r p to first order in t.
    """
    bk = ev.backend
    _tick(1)
    p = bk.exp(-(r * r) / 2)
    return p, (t * r) * p
