"""A-priori quadrature error bounds: formulas, validation, certification."""

import math

import mpmath
import numpy as np
import pytest

from pulse2d.diagnostics import RHO, gauss_bound, trapezoid_bound
from pulse2d.quadrature import gauss_legendre, uniform_step


def test_rho_constant():
    assert abs(RHO - (1.0 + math.sqrt(2.0))) < 1e-16


def test_trapezoid_bound_formula():
    L = 10.5 * 0.5
    expect = (1e-20
              + (4.0 * 0.5 / math.pi) * math.exp(-L * L / 2) * 3.0
              + 5.2 * math.exp(-2 * math.pi ** 2 / 0.25) * 2.0)
    got = trapezoid_bound(h=0.5, n=10, f0_bound=2.0, f1_bound=3.0,
                          tail_bound=1e-20)
    assert got == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("kw", [
    dict(h=0.0, n=5, f0_bound=1, f1_bound=1, tail_bound=0),
    dict(h=4.0, n=5, f0_bound=1, f1_bound=1, tail_bound=0),
    dict(h=0.5, n=0, f0_bound=1, f1_bound=1, tail_bound=0),
    dict(h=0.5, n=5, f0_bound=-1, f1_bound=1, tail_bound=0),
])
def test_trapezoid_bound_validation(kw):
    with pytest.raises(ValueError):
        trapezoid_bound(**kw)


def test_gauss_bound_formula_no_branch():
    expect = 4.0 * 2.0 * 5.0 * RHO ** (-12) * RHO / (RHO - 1.0)
    got = gauss_bound(m=6, mu0=2.0, fmax=5.0)
    assert got == pytest.approx(expect, rel=1e-15)


def test_gauss_bound_branch_term_adds():
    base = gauss_bound(m=4, mu0=2.0, fmax=1.0)
    with_branch = gauss_bound(m=4, mu0=2.0, fmax=1.0, c=1.2, g_c=1.0)
    assert with_branch > base
    # branch point outside the ellipse contributes nothing
    far = gauss_bound(m=4, mu0=2.0, fmax=1.0, c=3.0, g_c=1.0)
    assert far == base


@pytest.mark.parametrize("kw", [
    dict(m=0, mu0=2.0, fmax=1.0),
    dict(m=4, mu0=0.0, fmax=1.0),
    dict(m=4, mu0=2.0, fmax=-1.0),
    dict(m=4, mu0=2.0, fmax=1.0, c=0.5, g_c=1.0),
])
def test_gauss_bound_validation(kw):
    with pytest.raises(ValueError):
        gauss_bound(**kw)


def test_gauss_bound_large_m_no_overflow():
    v = gauss_bound(m=4000, mu0=2.0, fmax=1.0, c=1.3, g_c=2.0)
    assert v == 0.0 or v > 0.0
    assert math.isfinite(v)


def test_trapezoid_bound_certifies_gaussian_grid():
    # f = 1: the grid sum of e^{-x^2/2} against sqrt(2 pi).  The bound sits
    # far below double roundoff at the larger m2, so the empirical sum runs
    # in mpmath
    for m2 in (6, 10, 15):
        h_f = uniform_step(m2)
        with mpmath.workdps(40):
            h = mpmath.mpf(h_f)
            q = h * mpmath.fsum(
                mpmath.exp(-((k * h) ** 2) / 2) for k in range(-m2, m2 + 1))
            err = float(abs(q - mpmath.sqrt(2 * mpmath.pi)))
            L = (m2 + 0.5) * h_f
            tail = 2.0 * float(mpmath.quad(
                lambda x: mpmath.exp(-x * x / 2), [L, mpmath.inf]))
        bound = trapezoid_bound(h=h_f, n=m2, f0_bound=1.0, f1_bound=1.0,
                                tail_bound=tail)
        assert err <= bound


def test_gauss_bound_certifies_exp():
    # f = e^{-x} on [-1, 1]: I = e - 1/e, sup on the ellipse at z = -sqrt(2)
    ref = math.e - 1.0 / math.e
    fmax = math.exp(math.sqrt(2.0))
    for m in (4, 6, 8):
        gl = gauss_legendre(m)
        q = float(np.sum(gl.weights * np.exp(-gl.nodes)))
        err = abs(q - ref)
        bound = gauss_bound(m=m, mu0=2.0, fmax=fmax)
        assert err <= bound
