"""Axis pressure and Bessel kernels."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pulse2d.dispatch import EPS_FLOOR, PulseEvaluator, make_params
from pulse2d.forms import G_MAX, _axis_pressure, _row_sum
from pulse2d.numerics import FLOAT64, mp_backend
from pulse2d.specfun import (
    TAYLOR_DEGREE,
    axis_pressure_taylor,
    bessel_j,
    mp_axis_pressure,
    scaled_i_pair,
)

# frozen mpmath values, 22 digits
J0_1 = 0.7651976865579665514497
J1_1 = 0.4400505857449335159597
J0_50_5 = 0.09551989154970056708369
J1_50_5 = -0.05806287642132068647988
I0E = {0.5: 0.645035270449150068108, 10.0: 0.1278333371634286073231,
       500.0: 0.01784570650015316723654}
I1E = {0.5: 0.1564208031848716971426, 10.0: 0.121262681384455518719,
       500.0: 0.01782785185289805646138}


def test_bessel_j_anchors_float64():
    x = np.array([1.0, 50.5])
    j0 = bessel_j(0, x)
    j1 = bessel_j(1, x)
    assert abs(j0[0] - J0_1) < 3e-16
    assert abs(j0[1] - J0_50_5) < 3e-16
    assert abs(j1[0] - J1_1) < 3e-16
    assert abs(j1[1] - J1_50_5) < 3e-16


def test_bessel_j_rejects_order():
    with pytest.raises(ValueError):
        bessel_j(2, np.array([1.0]))


def test_bessel_j_mp_matches_float64():
    bk = mp_backend(30)
    x64 = np.array([0.25, 1.0, 7.5, 120.0])
    with bk.workprec():
        xm = bk.asarray(x64)
        j0m = bessel_j(0, xm, bk)
        j1m = bessel_j(1, xm, bk)
    j0 = bessel_j(0, x64)
    j1 = bessel_j(1, x64)
    for a, b in zip(j0, j0m):
        assert abs(a - float(b)) < 5e-16
    for a, b in zip(j1, j1m):
        assert abs(a - float(b)) < 5e-16


def test_scaled_i_pair_anchors():
    for x, ref in I0E.items():
        i0e, _ = scaled_i_pair(np.array([x]))
        assert abs(i0e[0] - ref) < 3e-16
    for x, ref in I1E.items():
        _, i1e = scaled_i_pair(np.array([x]))
        assert abs(i1e[0] - ref) < 3e-16


def test_scaled_i_pair_at_zero():
    i0e, i1e = scaled_i_pair(np.array([0.0]))
    assert i0e[0] == 1.0
    assert i1e[0] == 0.0


def test_scaled_i_pair_mp_matches_float64():
    bk = mp_backend(30)
    xs = np.array([0.0, 0.5, 10.0, 35.0, 70.0, 500.0, 1e4, 1e6])
    with bk.workprec():
        xm = bk.asarray(xs)
        m0, m1 = scaled_i_pair(xm, bk)
    f0, f1 = scaled_i_pair(xs)
    for a, b in zip(f0, m0):
        assert abs(a - float(b)) < 5e-16
    for a, b in zip(f1, m1):
        assert abs(a - float(b)) < 5e-16


def test_scaled_i_pair_rejects_negative_mp():
    bk = mp_backend(25)
    with bk.workprec():
        with pytest.raises(ValueError):
            scaled_i_pair(bk.asarray([-1.0]), bk)


def _closed_form_g(s):
    """g(s) = 1 - sqrt(2) s D(s / sqrt(2)) through erfi, at the caller's
    mpmath precision."""
    z = s / mpmath.sqrt(2)
    return 1 - 2 * z * mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-z * z) \
        * mpmath.erfi(z)


def test_axis_pressure_table_matches_mp(ev64):
    # every centre j/32 +- 1/64 (where Horner runs farthest from its
    # centre) plus random s over the whole table, 0.3 eps absolute
    tab = ev64.tables.g_taylor
    centres = np.arange(tab.shape[1]) / 32.0
    s = np.concatenate([centres, centres + 1 / 64, centres[1:] - 1 / 64,
                        np.random.default_rng(5).uniform(0, G_MAX, 19000)])
    s = s[s <= G_MAX + 1 / 64]
    assert s.size >= 20000
    g = _axis_pressure(ev64, s)
    with mpmath.workdps(30):
        err = max(abs(float(mp_axis_pressure(v, 30) - mpmath.mpf(float(w))))
                  for v, w in zip(s, g))
    assert err <= 0.3 * EPS_FLOOR, err
    # g is even, and beyond the table the lookup fails loudly
    assert np.array_equal(_axis_pressure(ev64, -s), g)
    with pytest.raises(IndexError):
        _axis_pressure(ev64, np.array([G_MAX + 0.1]))


def test_axis_pressure_taylor_steps_match_closed_form():
    # the fixed-point stepping of F against mpmath.taylor of the closed form
    tab = axis_pressure_taylor(G_MAX)
    for j in (0, 1, 17, 32, 45, 77, 128, 200, 256, 301, tab.shape[1] - 1):
        with mpmath.workdps(60):
            ref = mpmath.taylor(_closed_form_g, mpmath.mpf(j) / 32,
                                TAYLOR_DEGREE)
            c0 = mpmath.mpf(tab[0, j]) + mpmath.mpf(tab[1, j])
            assert abs(c0 - ref[0]) <= mpmath.mpf(10) ** -30, j
            for k in range(1, TAYLOR_DEGREE + 1):
                # stored scaled by 32^-k, which is exact
                got = mpmath.mpf(tab[k + 1, j]) * 32 ** k
                assert abs(got - ref[k]) <= 2.0 ** -53 * abs(ref[k]), (j, k)


def test_axis_pressure_table_covers_the_axis_regions():
    # the deep axis strip reaches |s| = thr_series + R1; the seam checks
    # add 0.02 in t and 2% in r
    P = make_params(EPS_FLOOR)
    assert G_MAX >= float(P.thr_series) + 1.02 * float(P.R1) + 0.02
    assert (axis_pressure_taylor(G_MAX).shape[1] - 1) / 32 >= G_MAX


@pytest.mark.parametrize("eps, dps", [(2e-16, 30), (1e-24, 40), (1e-30, 40),
                                      (1e-40, 50), (1e-16, 20)])
def test_mp_axis_pressure_table_matches_series(eps, dps):
    # the fixed-point table against the independent series at dps + 20
    # digits, within 10^-dps relative: every centre, every centre +- 1/64
    # (where Horner runs farthest from its centre) and random s over the
    # table's whole range, which covers every kernel argument
    em = PulseEvaluator(eps, backend=mp_backend(dps))
    P = em.params
    n = em.tables.g_taylor.shape[1]
    s_end = (n - 1) / 32 + 1 / 64
    assert s_end >= float(P.thr_series + P.R1)
    centres = np.arange(n) / 32
    s = np.concatenate([centres, centres[1:] - 1 / 64, centres[:-1] + 1 / 64,
                        [s_end - 2.0 ** -30],
                        np.random.default_rng(dps).uniform(0, s_end, 500)])
    bk = em.backend
    sm = bk.asarray(s)
    g = _axis_pressure(em, sm)
    with mpmath.workdps(dps + 20):
        tol = mpmath.mpf(10) ** -dps
        for v, w in zip(sm, g):
            ref = mp_axis_pressure(v, dps + 20)
            assert abs(w - ref) <= tol * abs(ref), (float(v), w, ref)
    # g is even, and the batch is the values one at a time
    assert all(a == b for a, b in zip(_axis_pressure(em, -sm), g))
    for i in (0, 7, n, sm.size - 1):
        assert _axis_pressure(em, sm[i:i + 1])[0] == g[i]
    # beyond the table the lookup fails loudly, as in double precision
    with pytest.raises(IndexError):
        _axis_pressure(em, bk.asarray([s_end + 2.0 ** -30]))


def test_mp_axis_pressure_ignores_global_precision():
    # s carries 40 digits; at the default 15-digit global precision it was
    # rounded to 53 bits on the way in.  Both branches: series and erfi
    for base in (2, 20):
        with mpmath.workdps(40):
            s = mpmath.mpf(base) + mpmath.mpf(10) ** -17 / 3
            inside = mp_axis_pressure(s, 40)
        assert mp_axis_pressure(s, 40) == inside, base


def test_row_sum_bounds_hold_and_sum_is_near_exact(ev64):
    # _row_sum needs |x| < 64 per term and a row sum of |x| below 2**8.
    # The diameter-mean terms are w (g+ + g-) and w c (g- - g+) with
    # w <= 2, |c| <= 1, |g| <= 1 (g(0) = 1 is its maximum), so each is at
    # most 4 and a row sums to at most N_f1 max|g|
    tab = ev64.tables.g_taylor
    s = np.linspace(0, G_MAX, 200001)
    gmax = float(np.max(np.abs(_axis_pressure(ev64, s))))
    assert gmax == 1.0 and 4 * gmax < 64
    m_f1 = ev64.tables.f1[-1].width
    assert (2 * m_f1 - 2) * gmax < 2 ** 8
    assert tab.dtype == np.float64
    # against math.fsum on rows like Form1GL's: within one ulp, and
    # correctly rounded almost always
    rng = np.random.default_rng(9)
    x = rng.uniform(-0.3, 2.0, (512, m_f1 // 2)) \
        * np.where(np.arange(m_f1 // 2) == 0, 1.0, 2.0)
    got = _row_sum(x)
    ref = np.array([math.fsum(row) for row in x])
    ulp = np.spacing(np.abs(ref))
    assert np.all(np.abs(got - ref) <= ulp)
    assert np.count_nonzero(got != ref) <= 5


def test_mp_axis_pressure_matches_closed_form():
    # fixed-point series for |s| <= 16, erfi beyond; both sides of the
    # switch and the axis values the oracle uses
    for dps in (20, 45):
        for s in (0.0, 1e-9, 0.3, 1.1, 5.0, 11.5, 15.9, 16.1, 40.0):
            with mpmath.workdps(dps + 20):
                ref = _closed_form_g(mpmath.mpf(s))
            got = mp_axis_pressure(s, dps)
            assert abs(got - ref) <= abs(ref) * mpmath.mpf(10) ** (1 - dps)
            assert mp_axis_pressure(-s, dps) == got


def test_import_and_float64_evaluation_leave_scipy_special_unloaded():
    # scipy.special is only imported by the float64 Bessel functions, which
    # no evaluation path calls
    code = (
        "import sys\n"
        "import pulse2d\n"
        "pts = [(1.0, 30.0), (1e-18, 1.0), (2.0, 1.0), (12.0, 0.003),\n"
        "       (30.0, 1.0), (9.0, 5.0), (9.2, 0.1)]\n"
        "regions = {pulse2d.evaluate(t, r).region for t, r in pts}\n"
        "assert len(regions) == 7, regions\n"
        "print('scipy.special' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_only_specfun_and_oracle_name_mp_axis_pressure():
    # the evaluator reads g from its table; the oracle's series g must stay
    # independent of it, so no other module may call the series
    pkg = Path(__file__).resolve().parents[1] / "src" / "pulse2d"
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.stem in ("specfun", "oracle"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [a.name for a in node.names]
            if "mp_axis_pressure" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_imports_a_private_name():
    # a name one module needs from another is public there, whether it is
    # imported or read as an attribute of the sibling module
    pkg = Path(__file__).resolve().parents[1] / "src" / "pulse2d"
    siblings = {path.stem for path in pkg.glob("*.py")}
    assert {"dispatch", "forms"} <= siblings

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if private(a.name)]
            elif (isinstance(node, ast.Attribute) and private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings - {path.stem}):
                found.append(f"{path.name}:{node.lineno} "
                             f"{node.value.id}.{node.attr}")
    assert found == []
