"""Region dispatch and the public evaluator.

The (t, r) quarter-plane is split by a fixed decision list into seven
regions, each owning one evaluation kernel sized so the result carries
absolute error below the requested eps.  All thresholds derive from the
crop radius H = sqrt(-2 ln(eps/2)):

  1. t - r > 1.152 H  (deep interior behind the front):
     a. r >  R1            -> uniform grid            (Form2Uniform)
     b. r <= R1, t >= 1.31H -> asymptotic series      (Series)
     c. r <= R1, t <  1.31H -> axis diameter mean     (Form3GL)
  2. otherwise:
     a. t < eps            -> initial pulse           (SmallT)
     b. t < r - 1.05 H     -> ahead of the front      (Zero)
     c. t + r < 1.05 H     -> diameter mean           (Form1GL)
     d. r <= R2            -> axis diameter mean      (Form3GL)
     e. else               -> cropped Gauss-Jacobi    (Form2Jacobi)

PrecisionParams holds the thresholds, M2 = ceil(0.2 H^2) uniform pairs
and M = floor(H^2) series terms.  The node counts and node classes of
the quadrature kernels are owned by ``forms`` (its module docstring and
``forms.rule_tables``).  ``region_eval`` splits a region's points into
their node classes and runs the kernel on each class in blocks.
M3 = ceil(0.71 H^2) + 1, the paper's common Gauss count, stays as the
ceiling of the kernel-count budget.  Work per point is O(H^2) =
O(ln(1/eps)); no iteration, no adaptivity.

This module only evaluates; the checks on its results (a-priori bounds,
the stratified sampler, the energy integral) live in ``diagnostics``.
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
           "region_eval", "EPS_FLOOR"]

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
    R1: object
    R2: object
    M2: int
    M3: int              # budget ceiling, not a node count of any kernel
    M: int
    h: object
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
        H_sq = -2 * bk.log(e / 2)
        H = bk.sqrt(H_sq)
        R1 = (bk.scalar(7.5) * e) ** (one / 6)
        R2 = 5 * e ** (one / 10)
        M2 = bk.ceil_int(bk.scalar(0.2) * H_sq)
        M3 = bk.ceil_int(bk.scalar(0.71) * H_sq) + 1
        return PrecisionParams(
            eps=e, clamped=clamped, H=H, R1=R1, R2=R2, M2=M2, M3=M3,
            M=bk.floor_int(H_sq), h=quadrature.uniform_step(M2, bk),
            thr_sum=bk.scalar(1.05) * H,
            thr_diff=bk.scalar(1.152) * H,
            thr_series=bk.scalar(1.31) * H)


# region: (kernel, class function or None).  A class function gives each
# point's node class and the rule of each class, and the kernel takes the
# rule.  Zero has no kernel: its outputs are zero.
_KERNELS = {
    Region.SMALL_T: (forms.small_t_eval, None),
    Region.FORM1_GL: (forms.diameter_mean_eval, forms.form1_classes),
    Region.SERIES: (series.series_eval, None),
    Region.FORM2_UNIFORM: (forms.form2_uniform_eval, None),
    Region.FORM2_JACOBI: (forms.form2_jacobi_eval, forms.form2_jacobi_classes),
    Region.FORM3_GL: (forms.diameter_mean_eval, forms.form3_classes),
}


def region_eval(ev, region, t, r):
    """(p, u_r) at 1-d backend arrays t, r of points of one region.

    Splits the points into the region's node classes and runs its kernel
    on each class present in blocks of ``_BLOCK_ELEMS // width`` rows, in
    the order of the points.  The width is the class rule's; the uniform
    grid's is its node count, and SmallT and Series take one element per
    row.
    """
    bk = ev.backend
    if region is Region.ZERO:
        return bk.zeros(t.shape), bk.zeros(t.shape)
    kernel, classes = _KERNELS[region]
    # (rule argument, width, points or None for all of them) of each class
    if classes is None:
        width = ev.tables.u_kh.size if region is Region.FORM2_UNIFORM else 1
        parts = [((), width, None)]
    else:
        cls, rules = classes(ev, t, r)
        n = np.bincount(cls, minlength=len(rules))
        parts = [((rule,), rule.width,
                  None if n[k] == t.size else np.flatnonzero(cls == k))
                 for k, rule in enumerate(rules) if n[k]]
    if parts and parts[0][2] is None and t.size * parts[0][1] <= _BLOCK_ELEMS:
        return kernel(ev, t, r, *parts[0][0])     # one block of every point
    p = bk.zeros(t.shape)
    u = bk.zeros(t.shape)
    for rule, width, sub in parts:
        sub = np.arange(t.size) if sub is None else sub
        rows = max(1, _BLOCK_ELEMS // width)
        for lo in range(0, sub.size, rows):
            sel = sub[lo:lo + rows]
            p[sel], u[sel] = kernel(ev, t[sel], r[sel], *rule)
    return p, u


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
        with bk.workprec(), np.errstate(all="ignore"):
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
        # t + r overflows to inf beyond the largest double; the comparison
        # against thr_sum still classifies it right
        with bk.workprec(), np.errstate(all="ignore"):
            codes = self.classify_codes(tf, rf)
            counts = np.bincount(codes, minlength=len(Region))
            p = bk.zeros(tf.shape)
            u = bk.zeros(tf.shape)
            # Zero points keep their zeros
            for reg in _KERNELS:
                if counts[reg]:
                    idx = np.flatnonzero(codes == reg)
                    p[idx], u[idx] = region_eval(self, reg, tf[idx], rf[idx])
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
        """Kernel evaluations (exp/sqrt/axis-pressure values) for one point."""
        return forms.count_kernel_evals(self.evaluate, t, r)


def _pyscalar(v):
    return float(v) if isinstance(v, (np.floating, float)) else v


_default_cache: dict[float, PulseEvaluator] = {}


def _default_evaluator(eps: float) -> PulseEvaluator:
    # every accepted double-precision eps resolves to EPS_FLOOR; any other
    # key (nan, inf, eps <= 0 or below the floor) raises in the constructor
    key = float(eps)
    if EPS_FLOOR < key < math.inf:
        key = EPS_FLOOR
    ev = _default_cache.get(key)
    if ev is None:
        ev = _default_cache[key] = PulseEvaluator(eps=key)
    return ev


def evaluate(t, r, eps: float = EPS_FLOOR) -> PulseSolution:
    """One-call evaluation in double precision."""
    return _default_evaluator(eps).evaluate(t, r)


def evaluate_batch(points, eps: float = EPS_FLOOR) -> list[PulseSolution]:
    return _default_evaluator(eps).evaluate_batch(points)


def classify(t, r, eps: float = EPS_FLOOR) -> Region:
    return _default_evaluator(eps).classify(t, r)
