import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import spherical_jn

import friedrichs
from friedrichs.errors import ConvergenceError
from friedrichs.quadrature import (MAX_NODES, FourierTable, LaplaceTable,
                                   byparts_segment, byparts_tail,
                                   geometric_ladder, oscillatory_finite,
                                   oscillatory_tail,
                                   panel_integrals, principal_value,
                                   pv_dispersion, quad_complex, quad_segments,
                                   spherical_j)
from friedrichs import quadrature


def test_principal_value_odd_symmetric_is_zero():
    # PV int_0^2 dx/(x-1) = 0
    assert principal_value(lambda x: np.ones_like(x), 1.0, 2.0) == \
        pytest.approx(0.0, abs=1e-10)


def test_principal_value_polynomial():
    # PV int_0^2 x^2/(x-1) dx = int (x+1) dx = 4
    assert principal_value(lambda x: x * x, 1.0, 2.0) == pytest.approx(4.0, rel=1e-9)


def test_principal_value_exponential():
    # PV int_0^5 exp(-x)/(x-1) dx = e^-1 (Ei(-4) - Ei(1)), from the
    # antiderivative Ei(-u) of exp(-u)/u
    want = float(mpmath.e ** -1 * (mpmath.ei(-4) - mpmath.ei(1)))
    got = principal_value(lambda x: np.exp(-x), 1.0, 5.0)
    assert got == pytest.approx(want, rel=1e-8)


def test_principal_value_array_of_poles():
    # PV int_0^5 exp(-x)/(x-y) dx = e^-y (Ei(y-5) - Ei(y)), one column per
    # pole; 0.625 is the centre node of the Gauss-Kronrod rule on [0.25, 1]
    poles = np.array([[1e-9, 1.41432e-7, 0.3], [0.625, 1.0, 2.5]])
    want = [[float(mpmath.e ** -y * (mpmath.ei(y - 5) - mpmath.ei(y)))
             for y in row] for row in poles]
    got = principal_value(lambda x: np.exp(-x), poles, 5.0)
    assert got.shape == poles.shape
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_principal_value_rejects_pole_past_half_range():
    with pytest.raises(ValueError):
        principal_value(np.exp, np.array([0.5, 1.5]), 2.0)


def _phi1_closed_form(x):
    # PV int sqrt(x)/((1+x)(x-y)) dx = pi/(1+y), read off the boundary
    # value of the closed-form first-sheet function
    x = np.asarray(x, float)
    return np.sqrt(x) / (1 + x)


@pytest.mark.parametrize("y", [0.3, 1.0, 2.5])
def test_pv_dispersion_vs_closed_form(y):
    assert pv_dispersion(_phi1_closed_form, y) == pytest.approx(
        math.pi / (1 + y), rel=1e-8)


def test_pv_dispersion_array_vs_closed_form():
    """An array of y is one call and matches the scalar closed form."""
    y = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(pv_dispersion(_phi1_closed_form, y),
                               math.pi / (1 + y), rtol=1e-8)


def test_pv_dispersion_raises_on_divergent_tail():
    """A weight whose phi/x is not integrable gives no principal value:
    the tail's error estimate stays above its bound and it raises."""
    with pytest.raises(ConvergenceError):
        pv_dispersion(lambda x: np.ones_like(x), np.array([0.5]))


def test_import_leaves_scipy_integrate_out():
    """quad_complex is the package's one integrator: importing it pulls in
    no scipy.integrate.  The crossover is a Newton solve, spectral_peak
    imports its root finder and phi1-exact its Faddeeva function when
    called, and the phi2 series takes libm's log, so the CLI loads no
    scipy module at all."""
    code = ("import sys, friedrichs.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(friedrichs.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert out.stdout.split() == ["[]"]


def test_geometric_ladder_brackets_feature():
    pts = geometric_ladder(1.0, 1e-6, 0.0, 100.0)
    assert all(0.0 < p < 100.0 for p in pts)
    assert min(abs(p - 1.0) for p in pts) <= 1e-6 * 4.001
    assert pts == sorted(pts)


def _ladder_by_loop(center, width, lo, hi):
    """geometric_ladder as a loop that multiplies the step by 4 until it
    passes 4 span, at most 240 steps."""
    pts, d = [], width
    span = max(abs(hi - center), abs(center - lo), 1.0)
    for _ in range(240):
        pts += [p for p in (center - d, center + d) if lo < p < hi]
        if d > 4.0 * span:
            break
        d *= 4.0
    return sorted(set(pts))


def test_geometric_ladder_is_exact():
    """The ladder by exponent arithmetic against the loop: the same
    breakpoints, bit for bit, with a step at, 1 ulp under and 1 ulp over
    4 span, on one-sided intervals, at width 0, past 240 steps, and on
    2,000 random ladders with widths over 200 decades."""
    cases = [(0.0, 4.0 ** -k * f, -0.5, 1.0) for k in range(1, 30)
             for f in (1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))]
    cases += [(0.0, 1e-3, 0.0, 1.0), (-2.0, 3e-9, -7.0, -2.0),
              (0.5, 0.0, 0.0, 1.0), (0.0, 1e-300, -1e10, 1e10)]
    rng = np.random.default_rng(46)
    for _ in range(2000):
        center = float(rng.choice([0.0, 1.0, -1.0]) * 10.0 ** rng.uniform(-10, 3))
        lo, hi = (center - 10.0 ** rng.uniform(-12, 15, 2) * [1.0, -1.0]).tolist()
        cases.append((center, float(10.0 ** rng.uniform(-100, 100)), lo, hi))
    for args in cases:
        got = geometric_ladder(*args)
        assert got == _ladder_by_loop(*args), args
        assert all(type(p) is float for p in got)


def _exp_osc_exact(rate, a, b, s):
    """int_a^b exp(rate*x) exp(isx) dx in closed form."""
    w = rate + 1j * s
    return (cmath_exp(w * b) - cmath_exp(w * a)) / w


def cmath_exp(z):
    import cmath
    return cmath.exp(z)


def _inv_square_tail_exact(X, s):
    """int_X^inf exp(isx)/x^2 dx = s * (exp(i a)/a + i E1(-i a)), a = sX."""
    with mpmath.workdps(40):
        a = mpmath.mpf(s) * X
        val = mpmath.mpf(s) * (mpmath.exp(1j * a) / a + 1j * mpmath.e1(-1j * a))
        return complex(val)


def test_oscillatory_finite_byparts_exact():
    """Two elements of one call, each over [0, b] at its own s, against
    the closed form of int exp(-x/3) exp(isx) dx."""
    f = lambda x: np.exp(-np.asarray(x, float) / 3.0)
    b, s = np.array([9.0, 6.0]), np.array([5000.0, 3000.0])
    got, err = oscillatory_finite(f, b, s, np.full(2, 3.0))
    want = [_exp_osc_exact(-1.0 / 3.0, 0.0, bk, sk) for bk, sk in zip(b, s)]
    assert got.shape == err.shape == (2,)
    assert np.abs(got - want).max() < 1e-12
    # 39 half periods past the first: the two 24-panel caps would overlap
    with pytest.raises(ValueError, match="half periods"):
        oscillatory_finite(f, np.array([9.0, 40.0 * math.pi / 5000.0]),
                           np.full(2, 5000.0), np.full(2, 3.0))


def test_oscillatory_tail_exact():
    f = lambda x: np.asarray(x, float) ** -2
    s = 30.0
    want = _inv_square_tail_exact(2.0, s)
    got, err = oscillatory_tail(f, 2.0, s)
    assert abs(got - want) < 1e-10


def test_oscillatory_tail_on_arrays():
    # one call, a tail per (b_k, s_k): each the call for that pair alone,
    # bit for bit, and within its estimate of the exact value
    f = lambda x: np.asarray(x, float) ** -2
    b, s = np.array([2.0, 3.0, 60.0]), np.array([30.0, 200.0, 1e6])
    got, est = oscillatory_tail(f, b, s)
    assert got.shape == est.shape == b.shape
    for k in range(b.size):
        one, one_est = oscillatory_tail(f, b[k], s[k])
        assert got[k] == one and est[k] == one_est
        assert abs(got[k] - _inv_square_tail_exact(b[k], s[k])) <= est[k]


def _mp_density(name):
    """The preset's spectral density in mpmath arithmetic, from the closed
    forms of phi and of the shift g2 P (phi1 and phi2)."""
    from friedrichs.presets import preset
    params, _ = preset(name)
    w, g2 = mpmath.mpf(params.omega_ratio), mpmath.mpf(params.coupling_sq)

    def rho(x):
        if name == "photodetachment":
            phi, shift = mpmath.sqrt(x) / (1 + x), mpmath.pi * g2 / (1 + x)
        else:
            xx = x * x
            phi = x / (1 + xx) ** 2
            shift = -g2 * (x * mpmath.log(x) / (1 + xx) ** 2
                           + mpmath.pi * (xx - 1) / (4 * (1 + xx) ** 2)
                           + x / (2 * (1 + xx)))
        re = w - x - shift
        return g2 * phi / (re * re + (mpmath.pi * g2 * phi) ** 2)
    return rho


def _float_density(name):
    from friedrichs.dispersion import spectral_density
    from friedrichs.presets import preset
    params, ff = preset(name)
    return lambda x: spectral_density(params, ff, np.asarray(x, float))


# The quadosc references of the two slowest cases below (about 2 s each),
# computed once by the test's own mpmath call at 30 digits
_QUADOSC_MP = {
    ("photodetachment", 0.02): ("-8.41515420314867867634656222602e-11",
                                "2.62981853454897235166657263711e-10"),
    ("quantum-dot", 1e-3): ("6.87859717391577662123388381158e-14",
                            "5.51320012931642054188320472134e-15")}


@pytest.mark.parametrize("name, s", [
    ("x^-2", 30.0), ("x^-2", 1e6), ("x^-2.5", 3.0), ("x^-2.5", 1e3),
    ("photodetachment", 0.02), ("photodetachment", 1e6),
    ("quantum-dot", 1e-3)])
def test_oscillatory_tail_vs_quadosc(name, s):
    """The double-exponential tail from X = 60 against mpmath quadosc over
    the shifted range y = x - X, whose zeros y = k pi / s start at 0."""
    X = 60.0
    if name.startswith("x^"):
        p = float(name[3:])
        f, f_mp = (lambda x: np.asarray(x, float) ** -p), (lambda x: x ** -p)
    else:
        f, f_mp = _float_density(name), _mp_density(name)
    with mpmath.workdps(30):
        if (name, s) in _QUADOSC_MP:
            want = complex(mpmath.mpc(*_QUADOSC_MP[name, s]))
        else:
            want = complex(mpmath.expj(s * X) * mpmath.quadosc(
                lambda y: f_mp(X + y) * mpmath.expj(s * y), [0, mpmath.inf],
                omega=s))
    got, est = oscillatory_tail(f, X, s)
    observed = abs(got - want)
    assert observed <= 1e-13 * abs(want) + 1e-20
    assert est >= observed
    assert est > 0.0


@pytest.mark.parametrize("p, X, s", [(2.0, 0.1, 1e-3), (5.0, 60.0, 1e-5),
                                     (9.0, 0.1, 1e-2)])
def test_oscillatory_tail_estimate_grows_with_its_error(p, X, s):
    """With s X far below 1 the pole of x^-p at 0 lies near the start of
    the rule's range in u = s(x - X), and the rule loses digits; the
    difference of its two steps still bounds the error.  Reference:
    int_X^inf x^-p exp(isx) dx = X^(1-p) E_p(-isX)."""
    with mpmath.workdps(30):
        want = complex(mpmath.mpf(X) ** (1 - p)
                       * mpmath.expint(p, -1j * mpmath.mpf(s) * X))
    got, est = oscillatory_tail(lambda x: np.asarray(x, float) ** -p, X, s)
    assert est >= abs(got - want)


def test_byparts_tail_exact():
    f = lambda x: np.asarray(x, float) ** -2
    s = 200.0
    want = _inv_square_tail_exact(3.0, s)
    got, err = byparts_tail(f, 3.0, s, scale=3.0)
    assert abs(got - want) < 1e-11


def test_panel_integrals_sum_exact():
    f = lambda x: np.exp(-np.asarray(x, float))
    s = 17.0
    h = math.pi / s
    n = 40
    total = panel_integrals(f, 0.5, n, h, s).sum()
    want = _exp_osc_exact(-1.0, 0.5, 0.5 + n * h, s)
    assert abs(total - want) < 1e-13


@pytest.mark.parametrize("s, h", [(1e3, math.pi / 1e3), (1e3, 0.37e-3),
                                  (2.5e7, math.pi / 2.5e7)])
def test_panel_integrals_match_direct_phase(s, h):
    """One exponential per panel and a node table, against exp(isx) at
    every node of the same rule."""
    from friedrichs.quadrature import _GL_NODES, _GL_WEIGHTS
    f = lambda x: 1.0 / (1.0 + np.asarray(x, float) ** 2)
    start, n = 0.3, 500
    got = panel_integrals(f, start, n, h, s)
    x = ((start + h * np.arange(n))[:, None]
         + (h / 2.0) * (1.0 + _GL_NODES)).ravel()
    want = ((f(x) * np.exp(1j * s * x)).reshape(n, -1) @ _GL_WEIGHTS) * (h / 2.0)
    scale = np.abs(want).max()
    # the direct phase s*x is itself rounded, by about eps * s * x
    tol = 1e-13 * scale + 4 * np.finfo(float).eps * s * x.max() * scale
    assert np.abs(got - want).max() <= tol


def test_spherical_j_matches_scipy():
    """j_0 .. j_15 on [0, 1e6] within 1e-15 of scipy's spherical_jn, and
    where the two differ by more, within 1e-15 of the 30-digit value:
    scipy itself is up to 1.5e-15 off in bands near w = 9.5-12 and 14.7,
    where it recurs upward past the orders it holds."""
    w = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 1801),
                        np.linspace(0.0, 40.0, 4001)])
    got = spherical_j(w)
    assert got.shape == (w.size, 16)
    ref = spherical_jn(np.arange(16), w[:, None])
    off = np.argwhere(np.abs(got - ref) > 1e-15)
    assert off.shape[0] < 200
    with mpmath.workdps(30):
        for i, k in off[::4].tolist():
            x = mpmath.mpf(w[i])
            exact = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(k + 0.5, x)
            assert abs(got[i, k] - float(exact)) <= 1e-15


def test_spherical_j_is_batch_independent():
    """One array that spans the three regimes (leading terms below 1e-9,
    Miller's recurrence, the upward one from 20) gives each element the
    bits it gets with its own regime's elements alone."""
    w = np.array([0.0, 3e-10, 25.0, 1e-9, 7.5, 19.999, 20.0, 1e3, 5e-12, 0.3])
    got = spherical_j(w)
    for part in (w < 1e-9, (w >= 1e-9) & (w < 20.0), w >= 20.0):
        assert np.array_equal(got[part], spherical_j(w[part]))
    for k in range(w.size):
        assert np.array_equal(got[k], spherical_j(w[k:k + 1])[0])


def _filon(f, lo, hi, s, tol=1e-15):
    """int f exp(isx) over the Filon panels refined from [lo_k, hi_k]."""
    lo, hi, coef, est, _, _ = quadrature._legendre_panels(
        f, np.asarray(lo, float), np.asarray(hi, float), tol)
    return quadrature._filon_sums(lo, hi, coef, np.array([s]),
                                  np.array([lo.size]))[0], est.sum()


@pytest.mark.parametrize("s", [0.0, 1e-3, 0.7, 8.0, 30.0, 1e3, 1e6])
def test_filon_panel_exact_for_polynomials(s):
    """A polynomial of degree 15 is its own interpolant, so one panel's
    integral against exp(isx) is exact at any s: int_-1^1 x^15 exp(isx)
    dx from the closed form [exp(isx) sum_m (-1)^m 15!/(15-m)! x^(15-m)
    / (is)^(m+1)] in 100 digits.  A Gauss-Legendre rule with the node
    phases is exact only while s is about 1 or less."""
    got, _ = _filon(lambda x: x ** 15, [-1.0], [1.0], s, tol=math.inf)
    want = 0.0
    if s:
        with mpmath.workdps(100):
            z = 1j * mpmath.mpf(s)
            antiderivative = lambda x: mpmath.exp(z * x) * sum(
                (-1) ** m * mpmath.factorial(15) / mpmath.factorial(15 - m)
                * mpmath.mpf(x) ** (15 - m) / z ** (m + 1) for m in range(16))
            want = complex(antiderivative(1) - antiderivative(-1))
    assert abs(got - want) <= 2e-15


def test_filon_panels_refine_a_lorentzian():
    """exp(isx) / (x^2 + g^2) over [-1, 1] on panels refined from two, far
    wider than the spike at their common end: against quad_complex with a
    ladder at the spike, at phases from a fraction of the spike to 5 of
    its widths a period.  Halving stops on a rounding-level tail only:
    a tail of the order of the panel's mass is a feature, not noise."""
    g = 1e-3
    f = lambda x: 1.0 / (x * x + g * g)
    pts = geometric_ladder(0.0, g, -1.0, 1.0)
    for s in (1.0, 300.0, 5e3):
        got, est = _filon(f, [-1.0, 0.0], [0.0, 1.0], s, tol=1e-13)
        want, err = quad_complex(lambda x: f(x) * np.exp(1j * s * x), -1.0, 1.0,
                                 points=pts, epsabs=1e-14, limit=4000)
        assert abs(got - want) <= 1e-14 * abs(want) + 1e-13
        assert abs(got - want) <= est


def test_fourier_table_windows():
    """A Lorentzian spike of width g at t = 0 and a head at t = -0.5: each
    time's window [-min(r, 0.5), r] tiles exactly with the table's
    panels, matches quad_complex, and takes the same bits alone, in a
    batch, and from a table grown in another order; a core of 8 rungs or
    more is the moment series."""
    g = 1e-4
    f = lambda t: np.sqrt(t + 0.5) / ((t * t + g * g) * (1.0 + (t + 0.5) ** 2))
    make = lambda: FourierTable(f, g, 0.5, [0.5 / 4 ** k - 0.5 for k in range(1, 9)],
                                1e-15)
    s = np.array([0.05, 3.0, 70.0, 2e3, 5e4, 2e5])
    table = make()
    rungs = np.array([table.rung(max(80 * g, 40 * math.pi / sk)) for sk in s])
    val, err = table.integrals(s, rungs)
    for k in range(s.size):
        first, stop = table.panels(rungs[k])
        r = table.reach(rungs[k])
        assert table.lo[first] == -min(r, 0.5) and table.hi[stop - 1] == r
        assert np.array_equal(table.lo[first + 1:stop], table.hi[first:stop - 1])
        lo = -min(r, 0.5)
        pts = [p for p in [*geometric_ladder(0.0, g, lo, r), 0.0,
                           *(0.5 / 4.0 ** np.arange(1, 9) - 0.5)] if lo < p < r]
        want, e = quad_complex(lambda t: f(t) * np.exp(1j * s[k] * t), lo, r,
                               points=pts, epsabs=1e-13, limit=4000)
        assert abs(val[k] - want) <= 1e-10 + e
        assert abs(val[k] - want) <= err[k] + e + 1e-12
    assert s[0] * table.reach(8) <= quadrature.MOMENT_REACH
    other = make()
    for k in np.argsort(s).tolist():         # grown one rung range at a time
        assert other.integrals(s[k:k + 1], rungs[k:k + 1]) == (val[k:k + 1],
                                                              err[k:k + 1])
    assert np.array_equal(other.lo, table.lo)


def _rung_by_loops(unit, d):
    """The smallest j >= 0 with unit 2^j >= d, by a log2 guess and two
    correcting loops: the reference for FourierTable.rung."""
    j = max(0, math.ceil(math.log2(d / unit)))
    while math.ldexp(unit, j) < d:
        j += 1
    while j and math.ldexp(unit, j - 1) >= d:
        j -= 1
    return j


def test_fourier_table_rung_is_exact():
    """rung's exponent arithmetic against the loops, for units with small,
    middling and large mantissas: at the rungs themselves, 1 ulp either
    side of them, and at random reaches over 30 decades."""
    rng = np.random.default_rng(45)
    for unit in (1.0, 0.75, math.nextafter(2.0, 0.0), 3.7e-13, 2.5e-9 / 3):
        table = FourierTable(None, 4.0 * unit, 1.0, [], 1e-12)
        assert table.unit == unit
        rungs = [math.ldexp(unit, j) for j in range(-8, 70)]
        reaches = [d for r in rungs for d in (r, math.nextafter(r, 0.0),
                                              math.nextafter(r, math.inf))]
        reaches += (unit * 10.0 ** rng.uniform(-5, 25, 500)).tolist()
        for d in reaches:
            assert table.rung(d) == _rung_by_loops(unit, d), (unit, d)


def test_quad_complex_additivity():
    f = lambda x: np.asarray(x, float) ** 2 + 0j
    val, _ = quad_complex(f, 0.0, 2.0, points=[0.5, 1.0])
    assert val.real == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_byparts_segment_exact():
    f = lambda x: np.asarray(x, float) ** -2
    s = 1e4
    got, est = byparts_segment(f, 2.0, 8.0, s, 8.0)
    want = _inv_square_tail_exact(2.0, s) - _inv_square_tail_exact(8.0, s)
    assert abs(got - want) < max(3 * est, 1e-13)


def test_quad_complex_oscillatory_exact():
    # one complex integrand, both parts at once
    w = -0.5 + 7.0j
    f = lambda x: np.exp(w * np.asarray(x, float))
    got, err = quad_complex(f, 0.0, 3.0)
    want = (cmath_exp(3.0 * w) - 1.0) / w
    assert abs(got - want) < 1e-13
    assert err < 1e-11


def test_quad_complex_reversed_and_empty_range():
    f = lambda x: np.asarray(x, float) ** 3
    forward, _ = quad_complex(f, 0.5, 2.0)
    backward, _ = quad_complex(f, 2.0, 0.5)
    assert backward == -forward
    assert forward.real == pytest.approx((16.0 - 0.0625) / 4.0, rel=1e-14)
    assert quad_complex(f, 1.0, 1.0) == (0j, 0.0)
    val, err = quad_complex(lambda x: np.stack([f(x), f(x)], axis=1), 1.0, 1.0,
                            columns=2)
    assert val.shape == err.shape == (2,)
    assert not val.any() and not err.any()


def test_quad_complex_narrow_spike_far_from_zero():
    # Lorentzian of half-width 1e-11 at x = 1e-3, where one ulp of x is
    # 2e-19: rounding the nodes leaves errors near 1e-12, while a rule
    # shifted by a rounded interval midpoint misses by up to 1.5e-9
    c, g = 1e-3, 1e-11
    f = lambda x: (g / math.pi) / ((x - c) ** 2 + g * g)
    for a, b in ((c - g, c), (c + g, c + 4 * g), (c - 4 * g, c - g),
                 (c - 10 * g, c + 3 * g), (c - 100 * g, c + 100 * g)):
        got, _ = quad_complex(f, a, b)
        want = (math.atan((b - c) / g) - math.atan((a - c) / g)) / math.pi
        assert abs(got - want) < 5e-12


def test_quad_complex_inverse_sqrt_error_bounds_truth():
    f = lambda x: np.asarray(x, float) ** -0.5
    got, err = quad_complex(f, 0.0, 1.0)
    observed = abs(got - 2.0)
    assert observed < 1e-11
    assert err >= observed


def test_quad_complex_singular_right_end_stays_finite():
    # (1 - u)^(-1/2): bisection towards u = 1 stops at float resolution
    # instead of rounding a node onto the pole, and gives up there
    # instead of refining the rest of [0, 1] up to the interval limit
    sizes = []

    def f(u):
        sizes.append(np.size(u))
        return (1.0 - u) ** -0.5

    got, err = quad_complex(f, 0.0, 1.0)
    assert np.isfinite(got) and np.isfinite(err)
    assert abs(got - 2.0) <= err
    assert sum(sizes) < 5000


def test_quad_complex_repeated_breakpoints():
    f = lambda x: np.cos(np.asarray(x, float)) + 0j
    val, _ = quad_complex(f, 0.0, 2.0, points=[0.0, 0.5, 0.5, 0.5, 1.0, 2.0])
    assert val.real == pytest.approx(math.sin(2.0), rel=1e-13)
    # points outside (a, b) and repeated points are ignored
    val2, _ = quad_complex(f, 0.0, 2.0, points=[-1.0, 0.0, 1.0, 1.0, 2.0, 3.0])
    assert val2.real == pytest.approx(math.sin(2.0), rel=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quad_complex_non_finite_raises(bad):
    f = lambda x: np.where(np.asarray(x, float) > 0.7, bad, 1.0)
    with pytest.raises(ConvergenceError):
        quad_complex(f, 0.0, 1.0)


def test_quad_complex_caps_nodes_per_call():
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return np.sin(40.0 * x) / (1e-3 + (x - 0.3) ** 2)

    # 1999 starting intervals hold more than twice the per-call cap of nodes
    val, err = quad_complex(f, 0.0, 1.0, points=np.linspace(0.0, 1.0, 2000),
                            limit=4000)
    assert len(sizes) > 1
    assert max(sizes) <= MAX_NODES
    with mpmath.workdps(30):
        want = mpmath.quad(
            lambda x: mpmath.sin(40 * x) / (mpmath.mpf("1e-3") + (x - 0.3) ** 2),
            mpmath.linspace(0, 1, 41))
    assert abs(val - complex(want)) < 1e-10


def test_quad_complex_one_column_matches_plain_integrand():
    f = lambda x: np.exp(3j * x) / (1e-2 + (x - 0.4) ** 2)
    plain = quad_complex(f, 0.0, 2.0, points=[0.5, 1.0])
    val, err = quad_complex(lambda x: f(x)[:, None], 0.0, 2.0, points=[0.5, 1.0],
                            columns=1)
    assert (val[0], err[0]) == plain
    # a tolerance per integral, here one, as a caller of K integrals passes it
    val, err = quad_complex(lambda x: f(x)[:, None], 0.0, 2.0, points=[0.5, 1.0],
                            epsabs=np.array([1e-12]), columns=1)
    assert (val[0], err[0]) == plain


def test_quad_complex_scores_columns_of_zero_tolerance():
    """With epsabs = 0, an odd integrand over [-3, 3] sums to exactly 0 on
    some pass, so its tolerance is 0.  A column that sets the unit of the
    scores then scores its own estimate, not 0/0: no invalid-value
    warning, with one column or with two."""
    f = lambda x: np.sin(x)[:, None].repeat(2, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = quad_complex(np.sin, -3.0, 3.0, epsabs=0.0)
        val, err = quad_complex(f, -3.0, 3.0, epsabs=0.0, columns=2)
    assert abs(one[0]) <= one[1] < 1e-13
    assert np.all(np.abs(val) <= err) and np.all(err < 1e-13)


def test_quad_complex_zero_columns():
    f = lambda x: np.zeros((x.size, 0), dtype=complex)
    val, err = quad_complex(f, 0.0, 2.0, points=[1.0], columns=0)
    assert val.shape == (0,) and val.dtype == complex
    assert err.shape == (0,)


def test_quad_complex_columns_match_single_calls():
    ws = np.array([0.5, 3.0, 20.0, 60.0])
    f = lambda x: np.exp(1j * np.multiply.outer(x, ws)) / (1.0 + x[:, None] ** 2)
    val, err = quad_complex(f, 0.0, 4.0, points=[1.0, 2.0], epsabs=1e-13,
                            columns=ws.size)
    for k, w in enumerate(ws):
        one, _ = quad_complex(lambda x: np.exp(1j * w * x) / (1.0 + x ** 2),
                              0.0, 4.0, points=[1.0, 2.0], epsabs=1e-13)
        tol = max(1e-13, 1e-12 * abs(one))
        assert abs(val[k] - one) <= tol
        assert err[k] <= tol


def test_quad_complex_tiny_column_meets_its_own_tolerance():
    # a 1e-20-sized narrow Lorentzian next to a smooth O(1) column: the
    # large column alone would stop far short of resolving the small one
    width = 1e-3

    def f(x):
        return np.stack([1.0 / (1.0 + x * x),
                         1e-20 * width / ((x - 0.7) ** 2 + width ** 2)], axis=1)

    val, err = quad_complex(f, 0.0, 1.0, epsabs=1e-40, columns=2)
    want = np.array([math.pi / 4,
                     1e-20 * (math.atan(0.3 / width) + math.atan(0.7 / width))])
    tol = 1e-12 * np.abs(want)
    assert np.all(err <= tol)
    assert np.all(np.abs(val - want) <= tol)


def test_quad_complex_ranks_intervals_by_relative_error():
    # the x^(-1/2) column cannot converge within 60 intervals; ranked by
    # absolute error it would take every bisection and starve the
    # 1e-20-sized column, ranked by err_k / tol_k both get theirs
    width = 1e-3

    def f(x):
        return np.stack([1.0 / np.sqrt(x),
                         1e-20 * width / ((x - 0.7) ** 2 + width ** 2)], axis=1)

    val, err = quad_complex(f, 0.0, 1.0, epsabs=1e-40, limit=60, columns=2)
    want = 1e-20 * (math.atan(0.3 / width) + math.atan(0.7 / width))
    assert err[0] > 1e-12 * 2.0
    assert err[1] <= 1e-12 * want
    assert abs(val[1] - want) <= 1e-12 * want


def test_quad_complex_caps_node_column_values_per_call():
    m = 7
    sizes = []
    ws = np.arange(1.0, m + 1.0)

    def f(x):
        out = np.cos(np.multiply.outer(x, ws)) / (1e-3 + (x[:, None] - 0.3) ** 2)
        sizes.append(out.size)
        return out

    val, err = quad_complex(f, 0.0, 1.0, points=np.linspace(0.0, 1.0, 400),
                            limit=4000, columns=m)
    assert len(sizes) > 1
    assert max(sizes) <= MAX_NODES
    for k, w in enumerate(ws):
        one, _ = quad_complex(lambda x: np.cos(w * x) / (1e-3 + (x - 0.3) ** 2),
                              0.0, 1.0, points=np.linspace(0.0, 1.0, 400), limit=4000)
        assert abs(val[k] - one) <= 1e-12 * abs(one)


def test_quad_complex_tail_columns():
    ps = np.array([2.0, 3.0, 5.0])
    val, err = quad_complex(lambda x: np.power.outer(x, -ps), 2.0, math.inf,
                            epsabs=1e-14, columns=ps.size)
    want = 2.0 ** (1.0 - ps) / (ps - 1.0)
    assert np.all(np.abs(val - want) <= 1e-12 * want)


def test_laplace_table_moment_head_vs_closed_form():
    # int_0^inf x e^-x e^-xs dx = 1/(1 + s)^2.  On a ladder 0.5 / 2^k
    # toward x = 0 the table's head, below 1/(4 max s), is a power series
    # over cached moments: a lone s and the same s in a batch spanning 8x
    # (another head and cut) are exact to 1e-13, within their estimates
    w = lambda x: x * np.exp(-x)
    ladder = (0.5 * 2.0 ** -np.arange(1, 50)).tolist()
    table = LaplaceTable(w, [0.0, *ladder[::-1], 0.5, 1.0, 2.0, 10.0], 1e-15)
    for s in np.geomspace(1e-3, 1e13, 17):
        for batch in (np.array([s]), s * 2.0 ** np.linspace(-3.0, 0.0, 9)):
            val, err = table.integrals(batch)
            want = 1.0 / (1.0 + s) ** 2
            assert abs(val[-1] - want) <= 1e-13 * want
            assert abs(val[-1] - want) <= err[-1] + 1e-16 * want


def _lorentz_osc(w):
    """exp(iwx) / (1e-3 + (x - 0.3)^2), one frequency per node's owner."""
    return lambda x, k: np.exp(1j * w[k] * x) / (1e-3 + (x - 0.3) ** 2)


def test_quad_complex_integrals_match_each_alone():
    # K integrals of quad_segments with their own edges, tolerances and
    # limits, one of them reversed, one empty and one a tail to infinity:
    # each is what it is alone and as a quad_complex call, bit for bit
    w = np.array([0.5, 3.0, 20.0, 60.0, 0.0])
    f = _lorentz_osc(w)
    segs = [[0.0, 0.5, 1.0], [0.1, 1.0, 2.0, 4.0], [2.0, 0.3, -1.0], [0.2, 0.2],
            [2.0, np.inf]]
    eps = np.array([1e-12, 1e-10, 1e-13, 1e-12, 1e-12])
    limit = np.array([600, 30, 900, 600, 600])
    val, err = quad_segments(f, segs, epsabs=eps, limit=limit)
    assert val.shape == err.shape == (5,)
    assert val[3] == 0.0 and err[3] == 0.0
    for k, (a, *points, b) in enumerate(segs):
        one = lambda x, o: f(x, np.full(x.size, k))
        alone = quad_segments(one, segs[k:k + 1], epsabs=eps[k], limit=limit[k])
        assert (alone[0][0], alone[1][0]) == (val[k], err[k])
        plain = lambda x: one(x, None)
        got = quad_complex(plain, a, b, points=points, epsabs=eps[k],
                           limit=limit[k])
        assert got == (val[k], err[k])
    g = math.sqrt(1e-3)
    assert abs(val[4] - (math.pi / 2 - math.atan(1.7 / g)) / g) <= err[4]


def test_quad_complex_limit_per_integral():
    # the same integrand twice, with budgets of 4 and 600 intervals: the
    # first stops at 4, short of its tolerance, having evaluated at most
    # 4 + 2 + 1 intervals on the way, while the second converges.  A
    # cubic on 3 starting intervals converges in the first pass, and the
    # passes after it evaluate none of its nodes
    nodes = []
    f = _lorentz_osc(np.array([40.0, 40.0, 0.0]))
    g = lambda x, k: np.where(k == 2, x ** 3, f(x, k))
    val, err = quad_segments(lambda x, k: nodes.append(np.bincount(k, minlength=3))
                             or g(x, k), [[0.0, 1.0], [0.0, 1.0], [0.0, 0.25, 0.5, 1.0]],
                             epsabs=1e-13, limit=np.array([4, 600, 600]))
    counts = sum(nodes)
    assert counts[0] <= 7 * 21 < counts[1]
    assert err[0] > 1e-11 * abs(val[0]) and err[1] <= 1e-12 * abs(val[1])
    assert abs(val[0] - val[1]) <= err[0]
    assert len(nodes) > 2 and counts[2] == 3 * 21
    assert abs(val[2] - 0.25) <= 1e-15 and err[2] <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quad_complex_integrals_non_finite_raises(bad):
    f = lambda x, k: np.where((k == 1) & (x > 0.7), bad, 1.0)
    with pytest.raises(ConvergenceError):
        quad_segments(f, [[0.0, 1.0], [0.0, 1.0]])
