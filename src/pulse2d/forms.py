"""Quadrature evaluation kernels, one per dispatch region.

Every function takes the evaluator (for its backend, precision parameters
and the RuleTables built here by ``rule_tables``) plus 1-d backend arrays
t, r, and returns (p, u_r) arrays.  All reductions go through elementwise
multiplies and np.sum(axis=-1) so a batched evaluation reproduces
single-point results bit for bit.

Region conventions (tau = +-t, H = crop radius, eps = target accuracy):

* near field (t + r < 1.05 H): Gauss-Legendre on the cropped oscillatory
  Fourier-Bessel integral over [0, H].
* far field off axis (t - r > 1.152 H, r not tiny): midpoint-offset uniform
  grid; the +-kh node pair is summed in a regularized closed form to kill
  the subtractive cancellation near the front.
* intermediate band: Gauss-Jacobi with weight (1+x)^(-1/2), after cropping
  the half-line at xi = (tau + H)/r - 1 and absorbing the endpoint
  singularity into the weight.
* axis band: Gauss-Legendre in the self-similar variable with both scaled
  modified Bessel kernels, cropped at H3 = sqrt(H^2 + 2 ln 3); the
  parity-even combination stays finite at r = 0.

Both Form2 kernels sum tau = t only: their regions have t + r >= 1.05 H,
so the tau = -t half-line lies beyond the crop radius, and the uniform
grid's largest node M2 h (about 1.12 H, pinned by the tests) is below
t - r > 1.152 H, so no +kh node lacks its -kh partner in the domain.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .numerics import as_mask, mp_backend
from .quadrature import gauss_jacobi_m12, gauss_legendre
from .specfun import bessel_j, scaled_i_pair

__all__ = ["RuleTables", "rule_tables", "form1_eval", "form2_uniform_eval",
           "form2_jacobi_eval", "form3_eval", "small_t_eval", "zero_eval"]


@dataclass(frozen=True)
class RuleTables:
    """Node tables of every kernel for one (eps, backend); arrays read-only.

    In double precision every table is rounded from a 40-digit rule, and
    the tables whose nodes the kernels multiply by t or r come as hi + lo
    pairs (``*_lo``); under mpmath the lo fields are None.  Each Gauss
    table has its kernel's own node count (``PrecisionParams.M_f1``,
    ``M_gj``, ``M_gl``).
    """
    f1_omega: np.ndarray            # Form1GL: omega_i = H (1 + x_i) / 2
    f1_omega_lo: np.ndarray | None
    f1_coeff: np.ndarray            # w_i (H/2) omega_i exp(-omega_i^2 / 2)
    gj_nodes: np.ndarray            # Form2Jacobi: eta_i, weight (1+x)^(-1/2)
    gj_weights: np.ndarray
    gj_half: np.ndarray             # (eta_i + 1) / 2
    gj_half_lo: np.ndarray | None
    gl_nodes: np.ndarray            # Form3GL: Gauss-Legendre
    gl_weights: np.ndarray
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


def rule_tables(params, backend) -> RuleTables:
    """All kernel tables for the precision parameters under backend.

    Each Gauss kernel gets its own rule: M_f1, M_gj and M_gl nodes.  The
    double-precision tables are rounded from 40-digit rules.  Nodes rounded
    to double are perturbed relatively by eps/2; through the phase-like
    products t*omega and span*(eta+1)/2 that by itself costs an order above
    the target at the far ends of the regions.  Keeping node = hi + lo
    restores full double accuracy when the kernels fold the residuals into
    the integrand products to first order.  The correctly rounded weights
    also replace the float64 eigensolver's, whose few-ulp wobble is visible
    at the same scale: Form3GL needs no lo parts, but at 32 nodes its
    float64 rule read 1.05 eps at the axis band's corner, the rounded one
    0.84 eps.
    """
    P = params
    bk = backend
    mp = bk.dtype is object
    src = bk if mp else mp_backend(40)
    # split at src's precision: the lo parts must not depend on the
    # caller's global mpmath precision
    with src.workprec():
        f1 = gauss_legendre(P.M_f1, src)
        gj = gauss_jacobi_m12(P.M_gj, src)
        gl = gauss_legendre(P.M_gl, src)
        H = src.scalar(P.H)
        om = H * (1 + f1.nodes) / 2
        cw = f1.weights * (H / 2) * om * src.exp(-(om * om) / 2)
        om_hi, om_lo = _split(om, mp)
        half_hi, half_lo = _split((gj.nodes + 1) / 2, mp)
        cw, gj_nodes, gj_weights, gl_nodes, gl_weights = (
            _split(v, mp)[0]
            for v in (cw, gj.nodes, gj.weights, gl.nodes, gl.weights))
    with bk.workprec():
        kh = bk.asarray(list(range(1, P.M2 + 1))) * P.h
        return RuleTables(
            f1_omega=om_hi, f1_omega_lo=om_lo, f1_coeff=cw,
            gj_nodes=gj_nodes, gj_weights=gj_weights,
            gj_half=half_hi, gj_half_lo=half_lo,
            gl_nodes=gl_nodes, gl_weights=gl_weights,
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


def form1_eval(ev, t, r):
    """Oscillatory near-field integral, cropped at omega = H."""
    bk = ev.backend
    tb = ev.tables
    om = tb.f1_omega
    cw = tb.f1_coeff
    _tick(4 * om.size)
    if tb.f1_omega_lo is None:
        # mpmath nodes carry the working precision; the compensated branch
        # would only slow it down
        X = r[..., None] * om
        T = t[..., None] * om
        j0 = bessel_j(0, X, bk)
        j1 = bessel_j(1, X, bk)
        co = bk.cos(T)
        si = bk.sin(T)
    else:
        # arguments reach ~H^2; rounding them costs eps*|arg|/2 ~ 4e-15
        # inside the kernels, so carry the product residual (plus the part
        # of the node below double resolution) to first order
        lo = tb.f1_omega_lo
        X, dx = _two_prod(r[..., None], om)
        T, dt_ = _two_prod(t[..., None], om)
        dx = dx + r[..., None] * lo
        dt_ = dt_ + t[..., None] * lo
        j0r = bessel_j(0, X, bk)
        j1r = bessel_j(1, X, bk)
        cor = bk.cos(T)
        sir = bk.sin(T)
        xs = np.where(X > 1e-12, X, 1.0)
        j1d = np.where(X > 1e-12, j0r - j1r / xs, 0.5)
        j0 = j0r - dx * j1r
        j1 = j1r + dx * j1d
        co = cor - dt_ * sir
        si = sir + dt_ * cor
    p = np.sum(cw * j0 * co, axis=-1)
    u = np.sum(cw * j1 * si, axis=-1)
    return p, u


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
    """Axis-band evaluation; u_r vanishes identically at r = 0.

    Sums the moment integrals J01, J03 and J12, cropped at H3 rather than
    H: at the axis band's corner the crop at H, whose Gaussian tail is
    eps/2, cost up to 1.83 eps (40-digit arithmetic, same nodes); at H3,
    with tail eps/6, it costs up to 0.78 eps.  Valid for t > r + H3, so that
    a = 1 - (r + H3)/t is positive and the branch point c = 1 - 2t/(r + H3)
    lies below -1.  Both regions using this form guarantee it: the deep
    axis strip has t - r > 1.152 H, and the band has t + r >= 1.05 H with
    r <= R2, hence t - r >= 1.05 H - 2 R2 > H3 (a test pins the margin).
    """
    bk = ev.backend
    P = ev.params
    eta = ev.tables.gl_nodes
    w = ev.tables.gl_weights
    a = 1 - (r + P.H3) / t
    c = 1 - 2 * t / (r + P.H3)
    half = (1 - a) / 2
    xi = (1 + a)[..., None] / 2 + half[..., None] * eta
    zeta = 1 - xi
    arg = (r - t)[..., None] + t[..., None] * xi
    _tick(4 * eta.size + 1)
    gauss = bk.exp(-(arg * arg) / 2)
    x = (r * t)[..., None] * zeta
    i0, i1 = scaled_i_pair(x, bk)
    root = bk.sqrt((eta - c[..., None]) * (1 + zeta))
    base = (w * bk.sqrt(half)[..., None]) * gauss / root
    bz = base * zeta
    j01 = np.sum(bz * i0, axis=-1)
    j03 = np.sum(bz * (zeta * zeta) * i0, axis=-1)
    j12 = np.sum(bz * zeta * i1, axis=-1)
    t2 = t * t
    rt = r * t
    p = j01 - t2 * j03 + rt * j12
    u = rt * j01 - t2 * j12
    return p, u


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
