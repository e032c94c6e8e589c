"""LAPACK Golub-Welsch and Newton-refined rules, and the trapezoid-grid step
law."""

import math
import sys
import threading
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pulse2d import quadrature
from pulse2d.dispatch import PulseEvaluator
from pulse2d.numerics import mp_backend
from pulse2d.quadrature import (
    KIND_JACOBI,
    KIND_LEGENDRE,
    gauss_jacobi_m12,
    gauss_legendre,
    rule_cache_get,
    uniform_step,
)

SQRT2 = math.sqrt(2.0)


def legendre_moment(k):
    # int_{-1}^{1} x^k dx
    return Fraction(0) if k % 2 else Fraction(2, k + 1)


def jacobi_moment_over_sqrt2(k):
    # int_{-1}^{1} x^k (1+x)^{-1/2} dx = sqrt(2) * sum_j C(k,j)(-1)^{k-j} 2^{j+1}/(2j+1)
    s = Fraction(0)
    for j in range(k + 1):
        s += Fraction(math.comb(k, j) * (-1) ** (k - j) * 2 ** (j + 1),
                      2 * j + 1)
    return s


def test_legendre_m1():
    gl = gauss_legendre(1)
    assert gl.nodes.tolist() == [0.0]
    assert gl.weights.tolist() == [2.0]
    assert gl.mu0 == 2.0


def test_legendre_m2_nodes():
    gl = gauss_legendre(2)
    ref = 1.0 / math.sqrt(3.0)
    assert abs(gl.nodes[0] + ref) < 1e-15
    assert abs(gl.nodes[1] - ref) < 1e-15
    assert abs(gl.weights[0] - 1.0) < 1e-15
    assert abs(gl.weights[1] - 1.0) < 1e-15


def test_jacobi_m1():
    gj = gauss_jacobi_m12(1)
    # one-point rule sits at mu1/mu0 = -1/3 with full weight mu0 = 2 sqrt(2)
    assert abs(gj.nodes[0] + 1.0 / 3.0) < 1e-15
    assert abs(gj.weights[0] - 2.0 * SQRT2) < 1e-15


@pytest.mark.parametrize("m", [1, 2, 5, 16, 54])
def test_weight_sums(m):
    assert abs(gauss_legendre(m).weights.sum() - 2.0) < 1e-13
    assert abs(gauss_jacobi_m12(m).weights.sum() - 2.0 * SQRT2) < 1e-13


@pytest.mark.parametrize("m,k", [(3, 4), (3, 5), (7, 13), (10, 19)])
def test_legendre_moment_exactness(m, k):
    gl = gauss_legendre(m)
    q = float(np.sum(gl.weights * gl.nodes ** k))
    assert abs(q - float(legendre_moment(k))) < 1e-13


@pytest.mark.parametrize("m,k", [(2, 3), (5, 9), (10, 19)])
def test_jacobi_moment_exactness(m, k):
    gj = gauss_jacobi_m12(m)
    q = float(np.sum(gj.weights * gj.nodes ** k))
    ref = SQRT2 * float(jacobi_moment_over_sqrt2(k))
    assert abs(q - ref) < 1e-13 * max(1.0, abs(ref))


def test_uniform_step_frozen():
    assert abs(uniform_step(15) - 0.6366842184408109) < 1e-16


def test_cache_identity_and_readonly():
    a = rule_cache_get(KIND_LEGENDRE, 17)
    b = gauss_legendre(17)
    assert a is b
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0
    with pytest.raises(ValueError):
        a.weights[0] = 0.0


@pytest.mark.parametrize("bad", [0, -3, 513, 2.5])
def test_rule_validation(bad):
    with pytest.raises(ValueError):
        rule_cache_get(KIND_LEGENDRE, bad)


def test_uniform_step_validation():
    with pytest.raises(ValueError):
        uniform_step(0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        rule_cache_get("chebyshev", 4)


def test_mp_rule_matches_float64():
    bk = mp_backend(30)
    # the float64 eigensolve rounds at a few ulp against the mp rule
    gm = gauss_legendre(12, bk)
    gf = gauss_legendre(12)
    for a, b in zip(gf.nodes, gm.nodes):
        assert abs(a - float(b)) < 1e-15
    for a, b in zip(gf.weights, gm.weights):
        assert abs(a - float(b)) < 5e-15
    jm = gauss_jacobi_m12(8, bk)
    jf = gauss_jacobi_m12(8)
    for a, b in zip(jf.nodes, jm.nodes):
        assert abs(a - float(b)) < 1e-15


def test_mp_cache_separate_from_float64():
    bk = mp_backend(30)
    assert gauss_legendre(9, bk) is gauss_legendre(9, bk)
    assert gauss_legendre(9, bk) is not gauss_legendre(9)


def _mpmath_rule(kind, m, bk):
    """(nodes, weights) of mpmath.gauss_quadrature at bk's precision,
    sorted by node."""
    with bk.workprec():
        if kind == KIND_LEGENDRE:
            x, w = mpmath.gauss_quadrature(m, "legendre")
        else:
            x, w = mpmath.gauss_quadrature(m, "jacobi", 0, mpmath.mpf(-1) / 2)
        order = sorted(range(m), key=lambda i: x[i])
        return ([bk.scalar(x[i]) for i in order],
                [bk.scalar(w[i]) for i in order])


def _mu0(kind, bk):
    """Exact integral of the weight function, at bk's precision."""
    with bk.workprec():
        return bk.scalar(2) if kind == KIND_LEGENDRE else 2 * mpmath.sqrt(2)


@pytest.mark.parametrize("dps,kind,m", [
    (dps, kind, m)
    for dps, ms in [(40, [1, 2, 3, 16, 54, 101]), (60, [32])]
    for kind in (KIND_LEGENDRE, KIND_JACOBI)
    for m in ms
])
def test_refined_rules_match_golub_welsch(dps, kind, m):
    bk = mp_backend(dps)
    rule = rule_cache_get(kind, m, bk)
    ref_x, ref_w = _mpmath_rule(kind, m, bk)
    assert rule.mu0 == _mu0(kind, bk)
    with bk.workprec():
        tol_x = mpmath.mpf(10) ** (2 - dps)
        tol_w = mpmath.mpf(10) ** (4 - dps)
        for a, b in zip(rule.nodes, ref_x, strict=True):
            assert abs(a - b) <= tol_x
        for a, b in zip(rule.weights, ref_w, strict=True):
            assert abs(a - b) <= tol_w * abs(b)


def test_float64_tables_match_golub_welsch_build(monkeypatch, table_fields):
    # the double-precision evaluator rounds its hi/lo tables from 40-digit
    # rules: built by refinement or taken from mpmath.gauss_quadrature,
    # every bit must agree
    new = PulseEvaluator(2e-16)

    def mpmath_rule(seed, bk):
        x, w = _mpmath_rule(seed.kind, seed.m, bk)
        return quadrature.GaussRule(kind=seed.kind, m=seed.m,
                                    nodes=bk.asarray(x), weights=bk.asarray(w),
                                    mu0=_mu0(seed.kind, bk))

    monkeypatch.setattr(quadrature, "_cache", {})
    monkeypatch.setattr(quadrature, "_newton_refine", mpmath_rule)
    ref = PulseEvaluator(2e-16)
    tables = {k: v for k, v in table_fields(new.tables)
              if isinstance(v, np.ndarray)}
    others = dict(table_fields(ref.tables))
    names = {"f1_edges", "ax.cos", "ax.w", "ax.wc", "g_taylor", "gj_edges"}
    for k in range(4):
        names |= {f"f1[{k}].cos", f"f1[{k}].w", f"f1[{k}].wc"}
    for k in range(2):
        names |= {f"gj[{k}].nodes", f"gj[{k}].weights", f"gj[{k}].half",
                  f"gj[{k}].half26", f"gj[{k}].half_lo"}
    assert names <= set(tables)
    for name, arr in tables.items():
        other = others[name]
        assert arr.dtype == other.dtype == np.float64, name
        assert arr.tobytes() == other.tobytes(), name
        assert not arr.flags.writeable, name


def test_float64_tables_ignore_global_mpmath_precision(table_fields):
    # a hi/lo split at the caller's mpmath precision would round every lo
    # part to about 17 bits under a 5-digit global setting
    ref = PulseEvaluator(2e-16).tables
    with mpmath.workdps(5):
        low = dict(table_fields(PulseEvaluator(2e-16).tables))
    for name, a in table_fields(ref):
        b = low[name]
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


@pytest.mark.parametrize("kind,moment", [
    (KIND_LEGENDRE, legendre_moment),
    (KIND_JACOBI, jacobi_moment_over_sqrt2),
])
def test_refined_rule_exact_to_degree_2m_minus_1(kind, moment):
    # exact moments, not a reference rule, so m can go well past 101
    m, dps = 200, 40
    bk = mp_backend(dps)
    rule = rule_cache_get(kind, m, bk)
    with bk.workprec():
        scale = 1 if kind == KIND_LEGENDRE else mpmath.sqrt(2)
        tol = mpmath.mpf(10) ** (3 - dps)
        terms = list(rule.weights)
        for k in range(2 * m):
            exact = moment(k)
            ref = scale * mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(mpmath.fsum(terms) - ref) <= tol * max(1, abs(ref)), k
            terms = [w * x for w, x in zip(terms, rule.nodes)]


def test_cold_mp_rule_build_is_shared_across_threads(monkeypatch):
    # more threads than cores ask for one cold extended rule at once; the
    # first to take the lock builds it, seed included, and the rest must
    # find it cached rather than build it again
    monkeypatch.setattr(quadrature, "_cache", {})
    bk = mp_backend(30)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    got = [None] * n_threads

    def work(i):
        barrier.wait()
        got[i] = rule_cache_get(KIND_JACOBI, 24, bk)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(n_threads)]
        for th in threads:
            th.start()
        deadline = time.monotonic() + 60
        for th in threads:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert got[0] is not None
    assert all(g is got[0] for g in got)
    assert got[0] is rule_cache_get(KIND_JACOBI, 24, bk)
