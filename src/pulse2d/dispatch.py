"""Region dispatch and the public evaluator.

The (t, r) quarter-plane is split by a fixed decision list into seven
regions, each owning one evaluation kernel sized so the result carries
absolute error below the requested eps.  All thresholds derive from the
crop radius H = sqrt(-2 ln(eps/2)):

  1. t - r > 1.152 H  (deep interior behind the front):
     a. r >  R1            -> uniform grid            (Form2Uniform)
     b. r <= R1, t >= 1.31H -> asymptotic series      (Series)
     c. r <= R1, t <  1.31H -> axis-band quadrature   (Form3GL)
  2. otherwise:
     a. t < eps            -> initial pulse           (SmallT)
     b. t < r - 1.05 H     -> ahead of the front      (Zero)
     c. t + r < 1.05 H     -> oscillatory integral    (Form1GL)
     d. r <= R2            -> axis-band quadrature    (Form3GL)
     e. else               -> cropped Gauss-Jacobi    (Form2Jacobi)

Node counts: M2 = ceil(0.2 H^2) uniform pairs, M3 = ceil(0.71 H^2) + 1
Gauss nodes, M = floor(H^2) series terms.  Work per point is O(H^2)
= O(ln(1/eps)); no iteration, no adaptivity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import forms, quadrature, series
from .numerics import FLOAT64, MPBackend, as_mask

__all__ = ["Region", "PrecisionParams", "PulseSolution", "PulseEvaluator",
           "make_params", "evaluate", "evaluate_batch", "classify",
           "energy_integral", "EPS_FLOOR"]

# smallest eps honoured in double precision; coarser requests are clamped
EPS_FLOOR = 2e-16

# decimal digits an mpmath backend must carry beyond -log10(eps).  Rounding
# in the kernels costs up to about 10^(2.4 - dps): measured against 30 extra
# digits at eps = 1e-20, 1e-30 and 1e-40, no margin left up to 2.5 eps of
# rounding error and a 4-digit margin at most 6e-4 eps.
_MP_DIGIT_MARGIN = 4

# elements in one (rows, nodes) kernel temporary.  At 2**13 doubles (64 KiB)
# each temporary stays below glibc malloc's 128 KiB mmap threshold, so it
# is reused from the heap instead of being mapped and faulted in afresh,
# and the dozen a kernel keeps alive fit a per-core L2 cache.  From 2**14
# on, a 65k-point mesh call took 36k-49k minor page faults instead of 460
# and ran 1.4-1.7x slower.  Results do not depend on it: every reduction
# is per row.
_BLOCK_ELEMS = 2 ** 13


class Region(enum.IntEnum):
    ZERO = 0
    SMALL_T = 1
    FORM1_GL = 2
    SERIES = 3
    FORM2_UNIFORM = 4
    FORM2_JACOBI = 5
    FORM3_GL = 6

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    Region.ZERO: "Zero",
    Region.SMALL_T: "SmallT",
    Region.FORM1_GL: "Form1GL",
    Region.SERIES: "Series",
    Region.FORM2_UNIFORM: "Form2Uniform",
    Region.FORM2_JACOBI: "Form2Jacobi",
    Region.FORM3_GL: "Form3GL",
}

# int8 codes in Region order; int8 leaves keep every np.where in int8
_CODES = tuple(np.int8(reg) for reg in Region)


@dataclass(frozen=True)
class PrecisionParams:
    """Derived sizing constants for one target accuracy (backend scalars)."""
    eps: object
    clamped: bool
    H: object
    H2: object
    R1: object
    R2: object
    M2: int
    M3: int
    M: int
    h: object
    L: object
    thr_sum: object      # 1.05 H
    thr_diff: object     # 1.152 H
    thr_series: object   # 1.31 H


@dataclass(frozen=True)
class PulseSolution:
    p: object
    ur: object
    eps_used: object
    region: Region


def _mp_digits(eps_f: float) -> int:
    """Fewest mp_backend digits that carry eps."""
    return max(20, math.ceil(_MP_DIGIT_MARGIN - math.log10(eps_f)))


def make_params(eps, backend=FLOAT64) -> PrecisionParams:
    eps_f = float(eps)
    if not math.isfinite(eps_f) or eps_f <= 0:
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")
    clamped = eps_f > EPS_FLOOR
    if clamped:
        eps_f = EPS_FLOOR
    if isinstance(backend, MPBackend) and backend.dps < _mp_digits(eps_f):
        raise ValueError(
            f"eps={eps_f:g} needs an mpmath backend with at least "
            f"{_mp_digits(eps_f)} digits, got {backend.dps}")
    bk = backend
    with bk.workprec():
        e = bk.scalar(eps_f)
        one = bk.scalar(1)
        H2 = -2 * bk.log(e / 2)
        H = bk.sqrt(H2)
        R1 = (bk.scalar(7.5) * e) ** (one / 6)
        R2 = 5 * e ** (one / 10)
        M2 = bk.ceil_int(bk.scalar(0.2) * H2)
        M3 = bk.ceil_int(bk.scalar(0.71) * H2) + 1
        M = bk.floor_int(H2)
        uniform = quadrature.uniform_rule(M2, bk)
        return PrecisionParams(
            eps=e, clamped=clamped, H=H, H2=H2, R1=R1, R2=R2,
            M2=M2, M3=M3, M=M, h=uniform.h, L=uniform.L,
            thr_sum=bk.scalar(1.05) * H,
            thr_diff=bk.scalar(1.152) * H,
            thr_series=bk.scalar(1.31) * H)


# (region, kernel, PrecisionParams field giving its node width or None for
# one element per row).  Zero has no kernel: the outputs start at zero.
_KERNELS = (
    (Region.SMALL_T, forms.small_t_eval, None),
    (Region.FORM1_GL, forms.form1_eval, "M3"),
    (Region.SERIES, series.series_eval, None),
    (Region.FORM2_UNIFORM, forms.form2_uniform_eval, "M2"),
    (Region.FORM2_JACOBI, forms.form2_jacobi_eval, "M3"),
    (Region.FORM3_GL, forms.form3_eval, "M3"),
)


class PulseEvaluator:
    """Evaluates (p, u_r) of the Gaussian pulse at requested accuracy.

    Builds all rule tables once per (eps, backend); evaluation is then
    non-adaptive with O(ln(1/eps)) kernel calls per point.  Thread-safe
    after construction, kernel_count included: it counts on the calling
    thread only.  In double precision eps below EPS_FLOOR raises
    ValueError: it needs an mp_backend.
    """

    def __init__(self, eps: float = EPS_FLOOR, backend=None):
        self.backend = backend if backend is not None else FLOAT64
        self.params = make_params(eps, self.backend)
        if self.backend.dtype is not object and float(eps) < EPS_FLOOR:
            raise ValueError(
                f"eps={float(eps):g} is below the double-precision floor "
                f"{EPS_FLOOR:g}; use backend=mp_backend("
                f"{_mp_digits(float(eps))}) or more digits")
        self.tables = forms.rule_tables(self.params, self.backend)

    @property
    def eps(self):
        return self.params.eps

    def _validate(self, t, r) -> None:
        bk = self.backend
        if not (bk.isfinite_all(t) and bk.isfinite_all(r)):
            raise ValueError("t and r must be finite")
        if not (as_mask(t >= 0).all() and as_mask(r >= 0).all()):
            raise ValueError("t and r must be nonnegative")

    def classify_codes(self, t, r) -> np.ndarray:
        """Region codes (int8) for validated backend arrays: the decision
        list of the module docstring."""
        P = self.params
        zero, small_t, form1, series, uniform, jacobi, form3 = _CODES
        return np.where(
            as_mask(t - r > P.thr_diff),
            np.where(as_mask(r > P.R1), uniform,
                     np.where(as_mask(t >= P.thr_series), series, form3)),
            np.where(as_mask(t < P.eps), small_t,
                     np.where(as_mask(t < r - P.thr_sum), zero,
                              np.where(as_mask(t + r < P.thr_sum), form1,
                                       np.where(as_mask(r <= P.R2), form3,
                                                jacobi)))))

    def classify(self, t, r) -> Region:
        bk = self.backend
        ta = bk.asarray([t])
        ra = bk.asarray([r])
        self._validate(ta, ra)
        with bk.workprec():
            return Region(int(self.classify_codes(ta, ra)[0]))

    def evaluate_arrays(self, t, r):
        """(p, ur, region_codes) for same-shape arrays of t and r."""
        bk = self.backend
        t = bk.asarray(t)
        r = bk.asarray(r)
        if t.shape != r.shape:
            raise ValueError(f"shape mismatch: {t.shape} vs {r.shape}")
        self._validate(t, r)
        shape = t.shape
        tf = t.ravel()
        rf = r.ravel()
        P = self.params
        with bk.workprec():
            codes = self.classify_codes(tf, rf)
            counts = np.bincount(codes, minlength=len(Region))
            p = bk.zeros(tf.shape)
            u = bk.zeros(tf.shape)
            with np.errstate(over="ignore", under="ignore",
                             invalid="ignore", divide="ignore"):
                for reg, fn, width in _KERNELS:
                    if counts[reg] == 0:
                        continue
                    idx = np.flatnonzero(codes == reg)
                    rows = max(1, _BLOCK_ELEMS // (getattr(P, width)
                                                   if width else 1))
                    for lo in range(0, idx.size, rows):
                        sel = idx[lo:lo + rows]
                        pp, uu = fn(self, tf[sel], rf[sel])
                        p[sel] = pp
                        u[sel] = uu
        return p.reshape(shape), u.reshape(shape), codes.reshape(shape)

    def evaluate(self, t, r) -> PulseSolution:
        p, u, codes = self.evaluate_arrays([t], [r])
        return PulseSolution(p=_pyscalar(p[0]), ur=_pyscalar(u[0]),
                             eps_used=self.params.eps,
                             region=Region(int(codes[0])))

    def evaluate_batch(self, points) -> list[PulseSolution]:
        pts = list(points)
        if not pts:
            return []
        t = [q[0] for q in pts]
        r = [q[1] for q in pts]
        p, u, codes = self.evaluate_arrays(t, r)
        eps = self.params.eps
        return [PulseSolution(p=_pyscalar(p[i]), ur=_pyscalar(u[i]),
                              eps_used=eps, region=Region(int(codes[i])))
                for i in range(len(pts))]

    def kernel_count(self, t, r) -> int:
        """Kernel evaluations (exp/trig/Bessel/sqrt) for one point."""
        forms._count.n = 0
        try:
            self.evaluate(t, r)
            return forms._count.n
        finally:
            forms._count.n = None

    def stratified_sample(self, n_points: int, seed: int = 20260819):
        """Random points covering every region tag about equally.

        Returns (t, r, codes) float arrays in shuffled order; double
        backend only.  Used by the benchmark command and throughput tests.
        """
        if self.backend.dtype is object:
            raise ValueError("sampling is a double-precision utility")
        P = self.params
        eps = float(P.eps)
        th_sum = float(P.thr_sum)
        th_diff = float(P.thr_diff)
        th_ser = float(P.thr_series)
        r1 = float(P.R1)
        r2 = float(P.R2)
        rng = np.random.default_rng(seed)
        order = [Region.ZERO, Region.SMALL_T, Region.FORM1_GL, Region.SERIES,
                 Region.FORM2_UNIFORM, Region.FORM2_JACOBI, Region.FORM3_GL]
        base = n_points // len(order)
        counts = [base + (1 if i < n_points % len(order) else 0)
                  for i in range(len(order))]
        ts, rs = [], []
        for reg, k in zip(order, counts):
            if k == 0:
                continue
            if reg is Region.ZERO:
                t = rng.uniform(0.001, 50.0, k)
                r = t + th_sum + rng.uniform(0.05, 30.0, k)
            elif reg is Region.SMALL_T:
                t = rng.uniform(0.0, eps, k) * 0.999
                r = rng.uniform(0.0, 10.0, k)
            elif reg is Region.FORM1_GL:
                u = rng.uniform(0.2, th_sum - 0.01, k)
                t = np.maximum(u * rng.uniform(0.02, 0.98, k), 4 * eps)
                r = u - t
            elif reg is Region.SERIES:
                t = th_ser + rng.uniform(0.0, 80.0, k)
                r = rng.uniform(0.0, r1 * 0.999, k)
            elif reg is Region.FORM2_UNIFORM:
                r = np.exp(rng.uniform(math.log(r1 * 1.05), math.log(60.0), k))
                t = r + th_diff + rng.uniform(0.01, 40.0, k)
            elif reg is Region.FORM2_JACOBI:
                r = rng.uniform(r2 * 1.01, 40.0, k)
                lo = np.maximum(np.maximum(2 * eps, r - th_sum + 1e-6),
                                th_sum - r + 1e-6)
                hi = r + th_diff - 1e-6
                t = lo + (hi - lo) * rng.uniform(0.0, 1.0, k)
            else:
                r = rng.uniform(0.0, r2 * 0.99, k)
                lo = th_sum - r + 1e-9
                hi = th_diff + r - 1e-9
                t = lo + (hi - lo) * rng.uniform(0.0, 1.0, k)
            ts.append(t)
            rs.append(r)
        t = np.concatenate(ts)
        r = np.concatenate(rs)
        codes = self.classify_codes(t, r)
        want = np.concatenate([np.full(k, int(reg), dtype=np.int8)
                               for reg, k in zip(order, counts) if k])
        if not np.array_equal(codes, want):
            bad = int(np.nonzero(codes != want)[0][0])
            raise RuntimeError(
                f"sampler landed outside its region at t={t[bad]}, r={r[bad]}: "
                f"wanted {Region(int(want[bad])).label}, "
                f"got {Region(int(codes[bad])).label}")
        perm = rng.permutation(t.size)
        return t[perm], r[perm], codes[perm]


def _pyscalar(v):
    return float(v) if isinstance(v, (np.floating, float)) else v


_default_cache: dict[float, PulseEvaluator] = {}


def _default_evaluator(eps: float) -> PulseEvaluator:
    key = float(eps)
    ev = _default_cache.get(key)
    if ev is None:
        if len(_default_cache) > 32:
            _default_cache.clear()
        ev = _default_cache[key] = PulseEvaluator(eps=key)
    return ev


def evaluate(t, r, eps: float = EPS_FLOOR) -> PulseSolution:
    """One-call evaluation in double precision."""
    return _default_evaluator(eps).evaluate(t, r)


def evaluate_batch(points, eps: float = EPS_FLOOR) -> list[PulseSolution]:
    return _default_evaluator(eps).evaluate_batch(points)


def classify(t, r, eps: float = EPS_FLOOR) -> Region:
    return _default_evaluator(eps).classify(t, r)


def energy_integral(ev: PulseEvaluator, t: float) -> float:
    """pi * integral of (p^2 + u_r^2) r dr over [0, t + 1.5 H].

    The exact acoustic energy is pi/2 at every t.  Composite 4-node
    Gauss-Legendre over uniform panels; t + 1.5 H covers everything above
    the eps floor.
    """
    panels = 10000
    r_max = float(t) + 1.5 * float(ev.params.H)
    rule = quadrature.gauss_legendre(4, ev.backend)
    edges = np.linspace(0.0, r_max, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    hw = 0.5 * (edges[1] - edges[0])
    rr = (mid[:, None] + hw * np.asarray(rule.nodes)[None, :]).ravel()
    tt = np.full_like(rr, float(t))
    p, u, _ = ev.evaluate_arrays(tt, rr)
    integrand = (p * p + u * u) * rr
    w = np.broadcast_to(np.asarray(rule.weights), (panels, rule.m)).ravel()
    return math.pi * hw * float(np.sum(w * integrand))
