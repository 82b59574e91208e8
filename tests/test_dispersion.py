import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from friedrichs import (Formfactor, ModelParams, RootKind, Side,
                        builtin, compute_timescales,
                        decaying_resonance, eta_boundary, eta_first_sheet,
                        eta_second_sheet, resonance_roots, spectral_density,
                        spectral_peak, survival_amplitude_phi1_exact,
                        survival_amplitude_phi2)
from friedrichs import dispersion
from friedrichs.dispersion import (Offsets, _eta_second_sheet_prime,
                                   _newton_polish, dispersion_real_part)
from friedrichs.errors import ContinuationUnsupportedError, ConvergenceError
from friedrichs.presets import preset
from helpers import box, phi1_weights_mp

GRID = [-1.0 + 0j, -0.3 + 0.7j, 0.5 + 0.5j, 2.0 - 3.0j, 1e-4 + 1e-4j,
        0.2 - 0.9j, -5.0 + 0.01j]


def _custom_clone(name):
    """Same weight through the generic quadrature path."""
    ref = builtin(name)
    return Formfactor.from_callable(ref.evaluator, ref.tail_exponent,
                                    ref.head_exponent, verify=False)


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_closed_form_eta_vs_quadrature(name):
    params = ModelParams(1e10, 2e4, 3.18e-7)
    ff = builtin(name)
    clone = _custom_clone(name)
    for z in GRID:
        a = eta_first_sheet(params, ff, z)
        b = eta_first_sheet(params, clone, z)
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_custom_clone_real_part_matches_closed_form(name):
    """The principal value of a callable weight against the closed form.
    At g2 = 0.5 the level shift is a third or more of Re eta, so rtol 1e-12
    on Re eta holds P to about that.  y = 1.41432e-7 is where excising the
    pole lost 6.6e-4 of phi1's P; 0.625 is the centre Gauss-Kronrod node of
    [0.25, 1], where an unfolded subtraction gives 0/0."""
    params = ModelParams(1.0, 1e-12, 0.5)
    y = np.concatenate([np.geomspace(1e-9, 50.0, 200), [1.41432e-7, 0.625]])
    want = dispersion_real_part(params, builtin(name), y)
    got = dispersion_real_part(params, _custom_clone(name), y)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_eta_zero_coupling():
    params = ModelParams(1e10, 2e4, 0.0)
    for z in GRID:
        assert eta_first_sheet(params, builtin("phi2"), z) == \
            pytest.approx(params.omega_ratio - z, abs=1e-15)
        assert eta_second_sheet(params, builtin("phi2"), z) == \
            pytest.approx(params.omega_ratio - z, abs=1e-15)


def test_phi1_eta_at_minus_one():
    params, ff = preset("photodetachment")
    # sqrt(-1) = i on the first sheet: 1/(1 - i*i) = 1/2
    want = params.omega_ratio + 1.0 - math.pi * params.coupling_sq / 2.0
    assert eta_first_sheet(params, ff, -1.0 + 0j) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_schwarz_reflection(name):
    params = ModelParams(1e10, 2e4, 3.18e-7)
    ff = builtin(name)
    for z in GRID:
        a = eta_first_sheet(params, ff, z)
        b = eta_first_sheet(params, ff, z.conjugate())
        assert abs(b - a.conjugate()) < 1e-12 * (1 + abs(a))


def test_eta_on_cut_rejected():
    params, ff = preset("quantum-dot")
    with pytest.raises(ValueError):
        eta_first_sheet(params, ff, 0.5 + 0j)


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_boundary_values(name):
    params = ModelParams(1e10, 2e4, 3.18e-7)
    ff = builtin(name)
    g2 = params.coupling_sq
    for y in (0.02, 0.7, 3.0):
        minus = eta_boundary(params, ff, y, Side.MINUS)
        plus = eta_boundary(params, ff, y, Side.PLUS)
        assert plus == pytest.approx(minus.conjugate(), rel=1e-14)
        assert minus.imag == pytest.approx(math.pi * g2 * float(ff(y)), rel=1e-12)
        # cut discontinuity
        assert (plus - minus) == pytest.approx(-2j * math.pi * g2 * float(ff(y)),
                                               rel=1e-12)


def test_boundary_is_limit_from_below():
    params, ff = preset("quantum-dot")
    y = params.omega_ratio
    target = eta_boundary(params, ff, y, Side.MINUS)
    # Richardson extrapolation of eta(y - i*eps) as eps -> 0
    e1 = eta_first_sheet(params, ff, y - 1e-6j)
    e2 = eta_first_sheet(params, ff, y - 5e-7j)
    extrap = 2 * e2 - e1
    assert abs(extrap - target) < 1e-10


def test_second_sheet_jump_is_continued_weight():
    params, ff = preset("quantum-dot")
    g2 = params.coupling_sq
    for z in (0.3 + 0.2j, 1.5 + 0.5j, 0.1 + 0.9j):
        jump = eta_second_sheet(params, ff, z) - eta_first_sheet(params, ff, z)
        want = 2j * math.pi * g2 * z / (1 + z * z) ** 2
        assert abs(jump - want) < 1e-14


def test_phi1_cut_discontinuity_between_sheets():
    # on the cut, eta_II equals the boundary value from below continued up:
    # crossing difference is 2*pi*i*g2*sqrt(y)/(1+y)
    params, ff = preset("photodetachment")
    g2 = params.coupling_sq
    for y in (0.04, 0.5, 2.0):
        up = eta_first_sheet(params, ff, y + 1e-14j)
        down = eta_second_sheet(params, ff, y + 1e-14j)
        want = 2j * math.pi * g2 * math.sqrt(y) / (1 + y)
        assert abs((down - up) - want) < 1e-10


def test_custom_has_no_continuation():
    params = ModelParams(1e10, 2e4, 3.18e-7)
    with pytest.raises(ContinuationUnsupportedError):
        eta_second_sheet(params, _custom_clone("phi2"), 0.5 + 0.5j)
    with pytest.raises(ContinuationUnsupportedError):
        resonance_roots(params, _custom_clone("phi2"))


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_phi2_roots_near_analytic_seeds():
    params, ff = preset("quantum-dot")
    roots = resonance_roots(params, ff)
    assert len(roots) == 3
    w, g2 = params.omega_ratio, params.coupling_sq
    seed1 = w * (1 + 1j * math.pi * g2)
    eps = cmath.sqrt(-math.pi * g2 / (2 * (w - 1j)))
    z1 = min(roots, key=lambda r: abs(r.z - seed1)).z
    assert abs(z1 - seed1) < 0.1 * abs(seed1)
    # the cutoff roots lie 1.2e-3 |eps| from their seeds i +- eps
    for seed in (1j + eps, 1j - eps):
        z = min(roots, key=lambda r: abs(r.z - seed)).z
        assert abs(z - seed) < 1e-2 * abs(eps)
    z2 = min(roots, key=lambda r: abs(r.z - (1j + eps))).z
    assert abs(z2 - (1.68e-3 + 1j)) < 0.1 * abs(1.68e-3 + 1j)


@pytest.mark.parametrize("name", ["quantum-dot", "hydrogen"])
def test_coincident_roots_raise_where_they_are_made(monkeypatch, name):
    """Every Newton seed sent onto the decaying root: the root finder
    raises, on every call, and so does each reader of the roots."""
    params, ff = preset(name)
    root = decaying_resonance(params, ff).z
    polish = dispersion._newton_polish
    monkeypatch.setattr(dispersion, "_newton_polish", lambda p, f, seed: polish(
        p, f, p.omega_ratio * (1 + 1j * math.pi * p.coupling_sq)))
    dispersion._roots_cached.cache_clear()
    readers = [resonance_roots, compute_timescales, resonance_roots]
    if ff.id == "phi2":
        readers += [lambda p, f: survival_amplitude_phi2(p, 1e-12)] * 2
    for read in readers:
        with pytest.raises(ConvergenceError, match="two Newton seeds") as info:
            read(params, ff)
        assert info.value.achieved == 0.0 and info.value.last_iterate == root
    monkeypatch.undo()
    assert resonance_roots(params, ff)[0].z == root


@pytest.mark.parametrize("name, w, x0", [("phi3", 0.5, 0.5000095653),
                                         ("phi2", 2.0, 2.00003497)])
def test_spectral_peak_above_omega_ratio(name, w, x0):
    """Re eta(w) > 0 puts the peak above w, bracketed upward; the spike
    guard holds there."""
    params, ff = ModelParams(1e12, w * 1e12, 1e-4), builtin(name)
    assert float(dispersion_real_part(params, ff, w)) > 0.0
    peak, width = spectral_peak(params, ff)
    assert peak > w and peak == pytest.approx(x0, rel=1e-9)
    miss = math.pi * width * float(spectral_density(params, ff, peak)) - 1.0
    assert abs(miss) <= 1e-3


def test_newton_polish_residual_fallback(monkeypatch):
    """With half the derivative, Newton's step flips the error's sign and
    never shrinks: from 1e-13 off the root the residual is still below
    1e-12 after 100 steps, and the iterate is kept; from 1e-3 off it is
    not, and ConvergenceError carries the last iterate and its residual."""
    params, ff = preset("quantum-dot")
    root = decaying_resonance(params, ff).z
    prime = dispersion._eta_second_sheet_prime
    monkeypatch.setattr(dispersion, "_eta_second_sheet_prime",
                        lambda p, f, z: 0.5 * prime(p, f, z))
    z = _newton_polish(params, ff, root * (1 + 1e-13))
    assert 0.0 < abs(z - root) < 1e-12 * abs(root)
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        _newton_polish(params, ff, root * (1 + 1e-3))
    last = info.value.last_iterate
    assert info.value.residual == abs(eta_second_sheet(params, ff, last))
    assert info.value.residual > 1e-12


def test_phi2_cutoff_seeds_converge_fast(monkeypatch):
    """Newton from each phi2 cutoff seed i +- eps evaluates eta_II at most
    6 times on 120 draws of the sweep box (a median of 3).  From
    i +- (sqrt(pi)/2) lambda it took a median of 14, and on about one
    draw in six a seed ended on the resonance root."""
    calls, per_seed = [0], []
    eta, polish = dispersion.eta_second_sheet, dispersion._newton_polish

    def counted_eta(*args):
        calls[0] += 1
        return eta(*args)

    def counted_polish(*args):
        calls[0] = 0
        z = polish(*args)
        per_seed.append(calls[0])
        return z

    monkeypatch.setattr(dispersion, "eta_second_sheet", counted_eta)
    monkeypatch.setattr(dispersion, "_newton_polish", counted_polish)
    for params in box("phi2", 120, seed=23):
        per_seed.clear()
        dispersion._roots_cached.__wrapped__(params, builtin("phi2"))
        assert len(per_seed) == 3 and max(per_seed[1:]) <= 6


def test_phi2_root_residuals_and_flags():
    params, ff = preset("quantum-dot")
    roots = resonance_roots(params, ff)
    for r in roots:
        assert abs(eta_second_sheet(params, ff, r.z)) < 1e-12
    contributing = [r for r in roots if r.contributing]
    assert len(contributing) == 2
    skipped = [r for r in roots if not r.contributing][0]
    assert skipped.z.real < 0  # second-quadrant twin never enclosed


def test_phi3_roots_from_seeds():
    params, ff = preset("hydrogen")
    roots = resonance_roots(params, ff)
    assert len(roots) == 3
    for r in roots:
        assert abs(eta_second_sheet(params, ff, r.z)) < 1e-12
    res = decaying_resonance(params, ff)
    assert res.z.real == pytest.approx(params.omega_ratio, rel=1e-2)
    assert res.z.imag == pytest.approx(
        math.pi * params.coupling_sq * params.omega_ratio, rel=1e-2)


@pytest.mark.parametrize("name", ["quantum-dot", "hydrogen"])
def test_second_sheet_derivative_vs_cauchy_integral(name):
    # the closed-form eta_II' at each root against the 32-node trapezoid
    # rule for (1/2 pi i) \oint eta_II(w)/(w - z)^2 dw on a circle clear
    # of the branch point 0 and of the pole at i
    params, ff = preset(name)
    theta = 2 * np.pi * np.arange(32) / 32
    for r in resonance_roots(params, ff):
        radius = min(abs(r.z), abs(r.z - 1j)) / 4
        on_circle = [eta_second_sheet(params, ff, r.z + radius * cmath.exp(1j * t))
                     for t in theta]
        cauchy = np.mean(np.array(on_circle) * np.exp(-1j * theta)) / radius
        exact = _eta_second_sheet_prime(params, ff, r.z)
        assert abs(exact - cauchy) <= 1e-12 * abs(exact)
        assert r.residue_weight == -1.0 / exact


def test_phi1_cubic_vieta():
    params, ff = preset("photodetachment")
    roots = resonance_roots(params, ff)
    us = []
    for r in roots:
        u = cmath.sqrt(r.z)
        if u.imag > 0:
            u = -u
        us.append(u)
    w, g2 = params.omega_ratio, params.coupling_sq
    # u^3 + i u^2 - w u - i(w - pi g2) has coefficient identities
    s1 = sum(us)
    s2 = us[0] * us[1] + us[0] * us[2] + us[1] * us[2]
    s3 = us[0] * us[1] * us[2]
    assert abs(s1 - (-1j)) < 1e-10
    assert abs(s2 - (-w)) < 1e-10
    assert abs(s3 - 1j * (w - math.pi * g2)) < 1e-10
    for r in roots:
        if r.kind is RootKind.RESONANCE:
            assert abs(eta_second_sheet(params, ff, r.z)) < 1e-12
        else:
            # near z = -1 the evaluation itself cancels at the 1e-6 level,
            # so the achievable residual is bounded by conditioning
            assert abs(eta_second_sheet(params, ff, r.z)) < 1e-10


def test_phi1_weights_hold_amplitude_at_zero():
    # A(0) = (1/2) sum W_k.  Weights formed from the pairwise differences
    # z_k - z_m of the roots missed it by more than 1e-12 on 67 of these
    # draws, by up to 2.7e-9; the closed form misses it by at most 4.4e-16
    worst = max(abs(survival_amplitude_phi1_exact(p, 0.0) - 1.0)
                for p in box("phi1", 2000, seed=7))
    assert worst < 1e-14


# the three box draws where the pairwise differences lost most: their
# weights were 2.7e-9, 2.4e-9 and 2.1e-9 off, now at most 2.2e-16
@pytest.mark.parametrize("w, g2", [
    (0.004480998665255814, 2.264918059399614e-09),
    (0.0013353217669300464, 1.1921439391413271e-09),
    (0.004597711753964958, 1.9050809212150346e-09),
    (2e-6, 3.18e-7),
])
def test_phi1_weights_vs_mpmath(w, g2):
    params = ModelParams(1e12, w * 1e12, g2)
    with mpmath.workdps(50):
        want = [(complex(z), complex(w)) for z, w in phi1_weights_mp(params)]
    for root in resonance_roots(params, builtin("phi1")):
        z, weight = min(want, key=lambda zw: abs(zw[0] - root.z))
        assert abs(root.z - z) <= 1e-15 * abs(z)
        assert abs(root.residue_weight - weight) <= 1e-15


def test_phi1_resonance_matches_table_shift():
    params, ff = preset("photodetachment")
    res = decaying_resonance(params, ff)
    # the shifted frequency is about half the bare one at these parameters
    assert res.z.real * params.cutoff == pytest.approx(1.0e4, rel=2e-2)
    assert res.z.imag > 0


def test_root_stability_under_seed_perturbation():
    params, ff = preset("quantum-dot")
    ref = sorted(resonance_roots(params, ff), key=lambda r: r.z.real)
    for shift in (0.9, 1.1):
        for r in ref:
            z = _newton_polish(params, ff, r.z * shift)
            match = min(abs(z - q.z) for q in ref)
            assert match < 1e-10 * (1 + abs(z))


def test_no_first_sheet_zeros():
    params, ff = preset("quantum-dot")
    rng = np.random.default_rng(7)
    pts = rng.uniform(-10, 10, size=(200, 2))
    for re, im in pts:
        if abs(im) < 1e-3:
            continue
        val = eta_first_sheet(params, ff, complex(re, im))
        assert abs(val) > 1e-8
        assert np.isfinite(1.0 / abs(val))


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_spectral_density_nonnegative_and_peaked(name):
    params, ff = preset(name)
    x0, width = spectral_peak(params, ff)
    res = decaying_resonance(params, ff)
    assert abs(x0 - res.z.real) < 5 * width + 1e-12
    xs = np.geomspace(x0 * 1e-2, x0 * 1e2, 301)
    rho = spectral_density(params, ff, xs)
    assert np.all(rho >= 0)
    assert rho.max() == pytest.approx(
        float(spectral_density(params, ff, x0)), rel=1e-3)


def test_spectral_density_rejects_nonpositive():
    params, ff = preset("quantum-dot")
    with pytest.raises(ValueError):
        spectral_density(params, ff, 0.0)


@pytest.mark.parametrize("g2", [1e-6, 1e-8])
def test_small_coupling_mass_concentrates(g2):
    params = ModelParams(1.0, 1e-2, g2)
    ff = builtin("phi2")
    x0, _ = spectral_peak(params, ff)
    half = 10 * math.pi * g2 * float(ff(params.omega_ratio))
    from scipy.integrate import quad
    mass, _ = quad(lambda x: float(spectral_density(params, ff, x)),
                   x0 - half, x0 + half, points=[x0], limit=200)
    assert mass > 0.9


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3", "custom"])
def test_spike_local_density_matches_absolute(name):
    """Away from the spike, where rounding x costs nothing, the density
    from offsets t equals the density at the same points x0 + t."""
    params = ModelParams(1e12, 2e9, 4e-6)
    ff = _custom_clone("phi2") if name == "custom" else builtin(name)
    x0, width = spectral_peak(params, builtin("phi2") if name == "custom"
                              else ff)
    span = np.geomspace(0.01 * x0, 50.0, 40)
    t = np.concatenate([-span[span < x0], span])
    local = Offsets(x0, t)
    assert local.size == np.size(local) == t.size
    want = spectral_density(params, ff, local.x)
    got = spectral_density(params, ff, local)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_dispersion_real_part_on_a_scalar(name, monkeypatch):
    """A single point is worked on as a numpy scalar, not as a 0-d array,
    whose every operation costs several times more, and gives the bits of
    the same point in a 1-element array; so spectral_peak, which takes
    Re eta point by point, finds on 40 box draws the peak it finds
    through 1-element arrays, bit for bit."""
    ff, draws = builtin(name), box(name, 40, seed=31)
    points, shift = [], dispersion._level_shift
    monkeypatch.setattr(dispersion, "_level_shift",
                        lambda f, g2, y: points.append(type(y)) or shift(f, g2, y))
    for params in draws:
        for y in (0.5 * params.omega_ratio, params.omega_ratio, 3.0):
            got = dispersion_real_part(params, ff, y)
            assert points.pop() is type(got) is np.float64
            assert got == dispersion_real_part(params, ff, np.array([y]))[0]
    monkeypatch.undo()
    got = [spectral_peak.__wrapped__(p, ff) for p in draws]
    real = dispersion.dispersion_real_part
    monkeypatch.setattr(dispersion, "dispersion_real_part",
                        lambda p, f, y: real(p, f, np.array([y]))[0])
    assert got == [spectral_peak.__wrapped__(p, ff) for p in draws]


@pytest.mark.parametrize("name, mass", [("phi2", 0.5), ("phi3", 1.0 / 6.0)])
def test_level_shift_takes_its_tail_past_1e30(name, mass):
    """Past 1e30, before c (1 + y^2)^n overflows at y = 2^255 (phi2) and
    2^127 (phi3), P(y) is -int phi / y; below 1e30 the closed form meets
    it to rounding, and out to 1e300 it stays finite without a warning."""
    y = np.array([1e29, 9.9e29, 1.01e30, 1e100, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dispersion._level_shift(builtin(name), 1.0, y)
        scalar = dispersion._level_shift(builtin(name), 1.0, np.float64(1e300))
    np.testing.assert_allclose(got, -mass / y, rtol=1e-15, atol=0.0)
    assert scalar == got[-1]


def test_builtin_spectral_peak_is_memoized():
    params, ff = preset("hydrogen")
    assert spectral_peak(params, ff) is spectral_peak(params, builtin("phi3"))
    # builtin() gives one shared weight, so one entry, found by identity
    params = preset("quantum-dot")[0]
    assert spectral_peak(params, builtin("phi2")) is spectral_peak(
        params, builtin("phi2"))


def test_spectral_peak_off_the_spike_fails_typed():
    """Below the sweep box, at phi2 with omega1/cutoff = 1e-6 and
    g2 = 1e-12, the root finder leaves x0 6.8e4 half-widths from the root
    of Re eta, and pi*width*rho(x0) - 1 is -0.99999999979 (the presets:
    at most 2.2e-5; sweep-box draws: below 1e-2).  The quadrature engine
    answered |A| = 3.0e-15 at 0.1 t_d there, against phi2-poles' 0.951."""
    params = ModelParams(1e12, 1e6, 1e-12)
    with pytest.raises(ConvergenceError, match="off the spike"):
        spectral_peak(params, builtin("phi2"))
