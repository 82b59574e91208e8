import cmath
import copy
import functools
import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from friedrichs import (Engine, Formfactor, ModelParams, bound_state_margin,
                        builtin, decaying_resonance, long_time_asymptote,
                        n_epsilon, resonance_roots, sample_curve,
                        short_time_expansion, survival_amplitude,
                        survival_amplitude_phi1_exact, survival_amplitude_phi2,
                        survival_amplitude_quadrature, survival_deficit,
                        survival_probability)
from friedrichs import amplitude, protocols, quadrature
from friedrichs.amplitude import asymptote_terms, log_survival, resolve_engine
from friedrichs.dispersion import Offsets, _num_den, spectral_peak
from friedrichs.formfactors import PHI2, PHI3
from friedrichs.errors import (ConvergenceError, EngineMismatchError,
                               ExpansionUnavailableError, FriedrichsError)
from friedrichs.presets import preset
from friedrichs.timescales import compute_timescales
from helpers import box, phi1_weights_mp


@pytest.fixture(scope="module")
def photo():
    return preset("photodetachment")


@pytest.fixture(scope="module")
def qdot():
    return preset("quantum-dot")


@pytest.fixture(scope="module")
def hydrogen():
    return preset("hydrogen")


@pytest.fixture(scope="module")
def qdot_scales(qdot):
    return compute_timescales(*qdot)


def test_normalization_all_engines(photo, qdot, hydrogen):
    p, ffp = photo
    assert abs(survival_amplitude_phi1_exact(p, 0.0) - 1) < 1e-10
    q, ffq = qdot
    assert abs(survival_amplitude_phi2(q, 0.0) - 1) < 1e-8
    for params, ff in (photo, qdot, hydrogen):
        assert abs(survival_amplitude_quadrature(params, ff, 0.0) - 1) < 1e-8


def test_quadrature_gate_reports_largest_estimate(monkeypatch):
    params, ff = preset("hydrogen")
    monkeypatch.setattr(amplitude, "_amp_quadrature", lambda p, f, s: (
        np.ones(s.shape, dtype=complex), np.array([2e-7, 5e-7])))
    with pytest.raises(ConvergenceError, match="oscillatory quadrature") as info:
        survival_amplitude_quadrature(params, ff, [1e-17, 2e-17])
    assert info.value.achieved == 5e-7


@pytest.mark.parametrize("name,exact_engine", [
    ("photodetachment", Engine.PHI1_EXACT),
    ("quantum-dot", Engine.PHI2_POLES),
])
def test_cross_engine_amplitude(name, exact_engine):
    params, ff = preset(name)
    ts = compute_timescales(params, ff)
    times = np.geomspace(1e-3 * ts.t_z, 5 * ts.t_d, 40)
    worst = 0.0
    for t in times:
        a = survival_amplitude(params, ff, t, exact_engine)
        b = survival_amplitude(params, ff, t, Engine.QUADRATURE)
        worst = max(worst, abs(a - b))
    assert worst < 1e-8


@pytest.mark.parametrize("s", [0.0, 1.0, 1e3])
def test_quadrature_engine_on_custom_clone(qdot, s):
    """The quadrature engine on a callable copy of phi2 takes P from
    pv_dispersion, one call per density evaluation, and matches the
    built-in's closed-form density."""
    params, ff = qdot
    clone = Formfactor.from_callable(ff.evaluator, ff.tail_exponent,
                                     ff.head_exponent)
    t = s / params.cutoff
    a = survival_amplitude_quadrature(params, ff, t)
    assert abs(survival_amplitude_quadrature(params, clone, t) - a) < 1e-10


@dataclass
class _ScaledPhi2:
    """c phi2 as a callable object that cannot be hashed: a dataclass with
    its generated __eq__ sets __hash__ to None."""
    c: float

    def __call__(self, x):
        return self.c * builtin("phi2")(x)


def test_unhashable_callable_weight(qdot):
    params, ff = qdot
    weight = _ScaledPhi2(1.0)
    with pytest.raises(TypeError):
        hash(weight)
    clone = Formfactor.from_callable(weight, 3.0, 1.0)
    t = 1.0 / params.cutoff
    a = survival_amplitude(params, clone, t)
    assert abs(a - survival_amplitude_quadrature(params, ff, t)) < 1e-10
    assert survival_amplitude(params, clone, t) == a


def test_custom_deficit_reuses_its_spike_moments(qdot, monkeypatch):
    # a second deficit on one custom weight takes the spike moments from
    # the memo: it evaluates the density on exactly their nodes fewer
    params, ff = qdot
    clone = Formfactor.from_callable(lambda x: ff(x), 3.0, 1.0)
    nodes = []
    density = amplitude.spectral_density
    monkeypatch.setattr(amplitude, "spectral_density", lambda p, f, x:
                        nodes.append(np.size(x)) or density(p, f, x))
    amplitude._spike_moments.__wrapped__(params, clone)
    counts = [sum(nodes)]
    t = 0.3 / params.cutoff
    deficits = []
    for _ in range(2):
        nodes.clear()
        deficits.append(survival_deficit(params, clone, t))
        counts.append(sum(nodes))
    moment_nodes, first, second = counts
    assert moment_nodes > 0 and first == second + moment_nodes
    assert deficits[0] == deficits[1]


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_spike_moment_powers(name, monkeypatch):
    # the spike moments take t^j by one cumulative product; numpy's t ** j
    # on the same breakpoints gives every column to 1e-13 of itself
    params, ff = preset(name)
    breakpoints = []
    quad_segments = quadrature.quad_segments
    monkeypatch.setattr(quadrature, "quad_segments", lambda f, pts, **kw:
                        breakpoints.append(pts) or quad_segments(f, pts, **kw))
    val, _ = amplitude._spike_moments.__wrapped__(params, ff)
    x0, _ = spectral_peak(params, ff)
    j = np.arange(1, quadrature.MOMENT_ORDER + 1)
    f = lambda t, k: (amplitude.spectral_density(params, ff, Offsets(x0, t))[:, None]
                      * t[:, None] ** j)
    want, _ = quad_segments(f, breakpoints[0], epsabs=0.0, columns=j.size)
    assert np.abs(val / want.sum(axis=0) - 1.0).max() <= 1e-13


def test_scaling_reduction(qdot):
    params, ff = qdot
    scaled = ModelParams(1.0, params.omega_ratio, params.coupling_sq)
    for t in (1e-16, 3e-12, 2e-9):
        a = survival_probability(params, ff, t)
        b = survival_probability(scaled, ff, params.cutoff * t)
        assert abs(a - b) < 1e-10


def test_quadrature_error_budget(photo):
    params, ff = photo
    for s in (1e2, 1e4, 1e6):
        _, est = survival_amplitude_quadrature(params, ff, s / params.cutoff,
                                               with_error=True)
        assert est <= 1e-9


@pytest.mark.parametrize("s", [0.01, 0.3, 3e8, 1e9, 1e10])
def test_quadrature_estimate_bounds_phi1_exact_difference(photo, s):
    """Left of the spike window the first half period holds the sqrt head
    of phi1; as one Gauss-Legendre panel it put the engine 7.8e-12 from
    phi1-exact at s = 3e8, 23 times its estimate.  Right of the window,
    an adaptive stretch to x = 60 at _TOL / 8 put it 2.3e-12 off at
    s = 0.3 (estimate 1.0e-11), where the double-exponential tail from
    the window's end is within 1e-15."""
    params, ff = photo
    a, est = survival_amplitude_quadrature(params, ff, s / params.cutoff,
                                           with_error=True)
    exact = survival_amplitude_phi1_exact(params, s / params.cutoff)
    assert abs(a - exact) <= min(est, 1e-13)


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_quadrature_mass_is_one(name):
    """A(0), the integral of the density, in spike-local offsets and with
    the head ladder; rounded absolute x left 1.8e-10 on hydrogen."""
    params, ff = preset(name)
    a, est = survival_amplitude_quadrature(params, ff, 0.0, with_error=True)
    assert abs(a - 1.0) <= 1e-12
    assert est <= 1e-11


def _window_cost(monkeypatch, params, ff, s):
    """(density nodes, Gauss-Kronrod passes, estimate) of the engine at s.
    The spike window and the right tail evaluate the density on Offsets,
    the window by Gauss-Kronrod, so their nodes and the window's passes
    are counted apart."""
    cost = {"nodes": 0, "passes": 0}
    local = [False]
    density, gk21 = amplitude.spectral_density, quadrature._gk21

    def counting_density(p, f, x):
        if isinstance(x, Offsets):
            cost["nodes"] += x.size
            local[0] = True
        return density(p, f, x)

    def counting_gk21(*args):
        local[0] = False
        out = gk21(*args)
        cost["passes"] += local[0]
        return out

    monkeypatch.setattr(amplitude, "spectral_density", counting_density)
    monkeypatch.setattr(quadrature, "_gk21", counting_gk21)
    _, est = survival_amplitude_quadrature(params, ff, s / params.cutoff,
                                           with_error=True)
    monkeypatch.undo()
    return cost["nodes"], cost["passes"], est


def test_hydrogen_late_window_converges(monkeypatch, hydrogen):
    """At s = 1.26e10 the window in absolute x used up its 900-interval
    budget (37,548 nodes) and missed its tolerance (estimate 1.7e-10)."""
    nodes, _, est = _window_cost(monkeypatch, *hydrogen, 1.26e10)
    assert 0 < nodes <= 5000
    assert est <= 1e-11


def test_photodetachment_window_passes(photo):
    """The window that reaches x = 0 comes from the spike table
    (_spike_table), cut at the head ladder x0 / 4^k.  A cold table
    refines its panels in 1 pass at each s (the bound leaves one to
    spare).  As Gauss-Kronrod windows, bisecting toward the sqrt head
    took 13 passes, and up to 5 with the ladder."""
    params, ff = photo
    for s in (1e-3, 1e2, 1e6):
        amplitude._spike_table.cache_clear()
        _, est = survival_amplitude_quadrature(params, ff, s / params.cutoff,
                                               with_error=True)
        assert 1 <= amplitude._spike_table(params, ff).passes <= 2
        assert est <= 1e-10


def _curve_grid(params, ff):
    """The benchmark's curve grid: 12 times from 1e-3 t_Z to 5 t_ep, and
    t_Z and t_d."""
    ts = compute_timescales(params, ff)
    return np.concatenate([np.geomspace(1e-3 * ts.t_z, 5.0 * ts.t_ep, 12),
                           [ts.t_z, ts.t_d]])


def _counting_passes(monkeypatch):
    """A list that gets one entry per Gauss-Kronrod pass from now on."""
    passes, gk21 = [], quadrature._gk21
    monkeypatch.setattr(quadrature, "_gk21",
                        lambda *a, **k: passes.append(1) or gk21(*a, **k))
    return passes


def test_quadrature_engine_passes(monkeypatch, hydrogen):
    """The 14 times of the curve grid advance through each integrator's
    passes together: 54 Gauss-Kronrod passes when each time ran its own
    integrals, 8 in lockstep, and 5 since the spike window has a
    breakpoint every period."""
    times = _curve_grid(*hydrogen)
    passes = _counting_passes(monkeypatch)
    survival_amplitude_quadrature(*hydrogen, times)
    assert 0 < len(passes) <= 5


@pytest.fixture(scope="module")
def phi3_box():
    """120 phi3 draws of the sweep box and their t_d."""
    ff = builtin("phi3")
    return [(p, compute_timescales(p, ff).t_d) for p in box("phi3", 120)]


def _passes_per_call(monkeypatch, draws, time):
    """Gauss-Kronrod passes of the phi3 quadrature engine at time(t_d) on
    each of the draws."""
    passes = _counting_passes(monkeypatch)
    out = []
    for params, t_d in draws:
        passes.clear()
        survival_amplitude_quadrature(params, builtin("phi3"), time(t_d))
        out.append(len(passes))
    return out


def test_sweep_box_mass_passes(monkeypatch, phi3_box):
    """A(0) on 120 phi3 draws of the sweep box: its mass tail starts at
    x >= 1, where the tail map has its unit scale.  From x0 + 1e7 width,
    about 2 x0, the loop halved u toward 0 for a mean of 4.3 passes a
    call, up to 11."""
    assert max(_passes_per_call(monkeypatch, phi3_box, lambda t_d: 0.0)) <= 3


def test_sweep_box_decay_time_passes(monkeypatch, phi3_box):
    """A(t_d) on 120 phi3 draws of the sweep box: the spike window has a
    breakpoint every period, where bisection split its outer rungs for a
    mean of 5.0 passes a call."""
    assert np.mean(_passes_per_call(monkeypatch, phi3_box, lambda t_d: t_d)) <= 3.0


def test_sweep_box_phi2_table_passes(monkeypatch):
    """A cold phi2 table build on 120 draws of the sweep box takes one
    Gauss-Kronrod pass: its breakpoints are the splits bisection reached
    (a ladder 1 -+ 10d 4^k took 4 passes a build, and before it a mean
    of 7.6, up to 12)."""
    draws = box("phi2", 120)
    passes = _counting_passes(monkeypatch)
    for params in draws:
        passes.clear()
        amplitude._phi2_table.__wrapped__(params)
        assert len(passes) == 1


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_quadrature_engine_on_box_draws(name):
    """The quadrature engine on 20 draws of the sweep box, not only at the
    presets.  A(0) is within 2.5e-11 of 1, the tolerance of its two mass
    integrals (_TOL / 8 each; worst 1.2e-11, on phi3).  On phi1 A is
    within 1e-9 of the 40-digit closed form at 0.3, 1 and 3 t_d (worst
    2.2e-10 over 200 draws).  The reference is the closed form, not
    phi1-exact: that matches it in |A| (test_phi1_exact_on_box_draws) but
    not in the phase, which the rounding of the root's Re z moves by up
    to Re z s ulp (2.7e-10 in A on 60 draws).  At s from 1e-3 to 3, where
    the phase is well conditioned, A is within 1e-13 of phi1-exact (worst
    2.8e-15; 8.7e-12 while an adaptive stretch followed the window)."""
    ff = builtin(name)
    small = np.array([1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0])
    for params in box(name, 20, seed=29):
        a0 = survival_amplitude_quadrature(params, ff, 0.0)
        assert abs(a0 - 1.0) <= 2.5e-11
        if name == "phi1":
            t = np.array([0.3, 1.0, 3.0]) * compute_timescales(params, ff).t_d
            a = survival_amplitude_quadrature(params, ff, t)
            for ak, tk in zip(a, t):
                exact = _phi1_amplitude_mp(params, params.cutoff * tk)
                assert abs(ak - complex(exact)) <= 1e-9
            t = small / params.cutoff
            a = survival_amplitude_quadrature(params, ff, t)
            assert np.abs(a - survival_amplitude_phi1_exact(params, t)).max() <= 1e-13


def test_head_ladder_is_exact():
    """The head ladder x0 4^-k - x0, k = 1 .. 19, against the loop that
    divides by 4 while x stays above 1e-12 x0, on 2,000 spike centers over
    580 decades."""
    def by_loop(x0):
        pts, x = [], x0 / 4.0
        while x > 1e-12 * x0:
            pts.append(x - x0)
            x /= 4.0
        return pts
    for x0 in 10.0 ** np.random.default_rng(46).uniform(-290, 290, 2000):
        assert amplitude._head_ladder(x0) == by_loop(x0), x0


def test_phi1_exact_on_box_draws():
    """phi1-exact's |A| within 1e-12 of the 40-digit closed form on 60
    draws of the sweep box at 0.3, 1 and 3 t_d.  Below the real axis
    the Faddeeva function is reflected, w(b) = 2 exp(izs) - w(-b), with
    exp(izs) formed from the root: wofz's own exp(-b^2) there loses
    |Re z| s ulp (6.2e-10 on these draws, 75 of the 180 points over
    1e-12).  The worst left, 7.9e-13 at draw 55 and t_d, is the float
    root: its Im z is 2.2e-12 relative off the 40-digit one."""
    ff = builtin("phi1")
    for params in box("phi1", 60, seed=29):
        t = np.array([0.3, 1.0, 3.0]) * compute_timescales(params, ff).t_d
        a = survival_amplitude_phi1_exact(params, t)
        for ak, tk in zip(a, t):
            exact = _phi1_amplitude_mp(params, params.cutoff * tk)
            assert abs(abs(ak) - float(abs(exact))) <= 1e-12


@pytest.mark.parametrize("name, engine", [("hydrogen", Engine.AUTO),
                                          ("photodetachment", Engine.QUADRATURE)])
def test_quadrature_engine_batch_equals_alone(name, engine):
    """Each time's A and estimate from one call equal those of the time
    alone, bit for bit, whichever came first: every piece of a time is an
    integral of its own, and its window's panels in the spike table do
    not depend on the order the table grew in.  The curve grid and t = 0
    hold every kind of piece: the mass integral at s = 0, windows whose
    right tails start far out at small s, left parts at large s, table
    windows with and without a moment head, and table windows past
    s width = 25, where a window's panels turn many times over."""
    params, ff = preset(name)
    times = np.concatenate([[0.0], _curve_grid(params, ff)])
    s = params.cutoff * times
    width = spectral_peak(params, ff)[1]
    assert (s == 0).any() and ((s > 0) & (s * 60.0 <= 24.0)).any()
    assert (s * width >= 25.0).any()
    curve = sample_curve(params, ff, times, engine)
    assert curve.engine is Engine.QUADRATURE
    amps, est = survival_amplitude_quadrature(params, ff, curve.times,
                                              with_error=True)
    assert np.array_equal(curve.error_estimates, 2.0 * est)
    for t, a, e in zip(curve.times, amps, est):
        assert survival_amplitude_quadrature(params, ff, t, with_error=True) == (a, e)
    # and the other way round: a spike table grown a time at a time, the
    # batch last
    amplitude._spike_table.cache_clear()
    alone = [survival_amplitude_quadrature(params, ff, t, with_error=True)
             for t in curve.times]
    again = survival_amplitude_quadrature(params, ff, curve.times, with_error=True)
    assert np.array_equal(again[0], amps) and np.array_equal(again[1], est)
    assert alone == list(zip(amps.tolist(), est.tolist()))


def test_cli_traffic_spike_table_builds(monkeypatch, hydrogen):
    """The spike table is built in one piece for the widest reach asked,
    and a batch that reaches past it rebuilds the whole table.  From a
    cold table, as each CLI command starts, hydrogen's curve grid and its
    protocol curves at the four CLI values of T build it once: their
    first batch is the widest.  Its n_epsilon grid (eps 1e-2 first, T
    from 1e-3 t_d up) builds it 5 times, each wider, because a longer T
    scans larger N at smaller s; a protocol curve at T = 1e-2 t_d, then
    n_epsilon at that T, builds it once.  Those 4 rebuilds cost about 0.4 ms of a
    cold neps run of about 150 ms, in-process (0.75 ms of panel builds
    with the merge of new outer rungs, 1.13 ms without)."""
    params, ff = hydrogen
    builds, grow = [], quadrature.FourierTable._grow

    def counted(table, top):
        builds.append(top)
        grow(table, top)

    monkeypatch.setattr(quadrature.FourierTable, "_grow", counted)
    ts = compute_timescales(params, ff)
    times = np.append(np.geomspace(1e-3 * ts.t_z, 5.0 * ts.t_ep, 200), [ts.t_z, ts.t_d])
    curve = lambda: sample_curve(params, ff, times, decay_time=ts.t_d)
    protocol = lambda: [protocols.protocol_curve(params, ff, r * ts.t_d,
                                                 decay_time=ts.t_d)
                        for r in (1e-4, 1e-3, 1e-2, 1e-1)]
    neps = lambda: [n_epsilon(params, ff, r * ts.t_d, eps) for eps in (1e-2, 3e-3, 1e-3)
                    for r in np.geomspace(1e-3, 1e-1, 7)]
    T = 1e-2 * ts.t_d
    then = lambda: (protocols.protocol_curve(params, ff, T, decay_time=ts.t_d),
                    n_epsilon(params, ff, T, 1e-3))
    for run, count in ((curve, 1), (protocol, 1), (neps, 5), (then, 1)):
        amplitude._spike_table.cache_clear()
        protocols._costs.cache_clear()
        builds.clear()
        run()
        assert len(builds) == count and builds == sorted(set(builds))


def test_spike_table_windows_tile():
    """Each table window is exactly the panels between its rung edges,
    [-min(D, x0), D], at every time of the curve grids of hydrogen and
    photodetachment, past s width = 25 too, and on 20 phi1 draws of the
    sweep box near s width = 1, where the reach D = 128 width crosses
    40 pi / s; there A is within 1e-9 of the 40-digit closed form.  A
    panel picked by a rounded edge, (x0 - D) - x0 for -D, left A 1.1e-4
    off under an estimate of 1.7e-12."""
    cases = [(*preset(name), _curve_grid(*preset(name)), False)
             for name in ("hydrogen", "photodetachment")]
    for params in box("phi1", 20, seed=29):
        width = spectral_peak(params, builtin("phi1"))[1]
        cases.append((params, builtin("phi1"),
                      np.array([0.5, 0.98, 1.0, 2.0]) / (width * params.cutoff), True))
    for params, ff, times, exact in cases:
        x0, width = spectral_peak(params, ff)
        table = amplitude._spike_table(params, ff)
        a = survival_amplitude_quadrature(params, ff, times)
        for t, ak in zip(times, a):
            s = params.cutoff * t
            rung = table.rung(max(80.0 * width, 40.0 * math.pi / s))
            first, stop = table.panels(rung)
            reach = table.reach(rung)
            assert table.lo[first] == -min(reach, x0)
            assert table.hi[stop - 1] == reach
            assert np.array_equal(table.lo[first + 1:stop], table.hi[first:stop - 1])
            if exact:
                assert abs(ak - complex(_phi1_amplitude_mp(params, s))) <= 1e-9


@pytest.mark.parametrize("name, closed_form", [
    ("quantum-dot", survival_amplitude_phi2),
    ("photodetachment", survival_amplitude_phi1_exact)])
def test_window_meets_closed_form_across_25_widths(name, closed_form):
    """The quadrature engine's A is within its own estimate of the closed
    form at s width from 5 to 60, on both sides of 25, where the spike
    window once switched from the Filon table to panel caps and by parts.
    That window left out the spike's own transform: at s width = 25 on
    quantum-dot it was 1.39e-11 off under an estimate of 1.6e-16."""
    params, ff = preset(name)
    width = spectral_peak(params, ff)[1]
    t = (np.array([5.0, 10.0, 20.0, 24.9, 25.0, 26.0, 30.0, 40.0, 50.0, 60.0])
         / (width * params.cutoff))
    a, est = survival_amplitude_quadrature(params, ff, t, with_error=True)
    exact = closed_form(params, t)
    assert (np.abs(a - exact) <= est).all()


def test_hydrogen_window_meets_the_asymptote_past_25_widths(hydrogen):
    """Hydrogen's |A| at s width = 25 and 26 is within 1% of |pole + tail|
    of the long-time asymptote (measured 0.15% and 0.7%); the switch to a
    by-parts window there lost the exponential era."""
    params, ff = hydrogen
    width = spectral_peak(params, ff)[1]
    s = np.array([25.0, 26.0]) / width
    a = survival_amplitude_quadrature(params, ff, s / params.cutoff)
    pole, tail = amplitude._asymptote(params, ff, s)
    assert (np.abs(np.abs(a) / np.abs(pole + tail) - 1.0) <= 0.01).all()


def _recording_left_parts(monkeypatch):
    """A list that gets (s, b) of each element quadrature.oscillatory_finite
    receives from now on."""
    seen, finite = [], quadrature.oscillatory_finite

    def recording(fvec, b, s, *args, **kwargs):
        seen.extend(zip(s, b))
        return finite(fvec, b, s, *args, **kwargs)

    monkeypatch.setattr(quadrature, "oscillatory_finite", recording)
    return seen


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_short_left_parts_come_from_the_table(monkeypatch, name):
    """On the CLI's 202-point curve grid every left part that reaches
    oscillatory_finite holds more than 3000 half periods past its first,
    which it takes by parts; a shorter one is in the spike table's
    window, out to the head.  Graded Filon panels in oscillatory_finite
    took 25, 26 and 22 of them."""
    params, ff = preset(name)
    ts = compute_timescales(params, ff)
    t = np.concatenate([np.geomspace(1e-3 * ts.t_z, 5.0 * ts.t_ep, 200),
                        [ts.t_z, ts.t_d]])
    seen = _recording_left_parts(monkeypatch)
    survival_amplitude_quadrature(params, ff, t)
    s, b = np.array(seen).T
    assert s.size and (s * b / math.pi - 1.0 > 3000.0).all()


@pytest.mark.parametrize("name, switch, reference", [
    ("photodetachment", 1.0799e10, survival_amplitude_phi1_exact),
    ("quantum-dot", 2.2374e7, survival_amplitude_phi2)])
def test_left_part_switch_is_seamless(monkeypatch, name, switch, reference):
    """Around the s where the left part passes 3000 half periods, and goes
    from the spike table to by parts (s width 10.8 on photodetachment,
    0.109 on quantum-dot), |A| stays within 1e-13 of the closed form;
    on photodetachment A is within its estimate of phi1-exact.  Quantum-
    dot's complex A differs from phi2-poles by up to 4e-13 on both sides,
    past its estimate, the rounding of its phase, so there the moduli are
    compared."""
    params, ff = preset(name)
    s = switch * np.array([0.98, 0.999, 1.001, 1.02])
    seen = _recording_left_parts(monkeypatch)
    a, est = survival_amplitude_quadrature(params, ff, s / params.cutoff,
                                           with_error=True)
    # the switch lies between the second and third time
    assert len(seen) == 2 and min(s_k for s_k, _ in seen) > s[1]
    ref = reference(params, s / params.cutoff)
    assert (np.abs(np.abs(a) - np.abs(ref)) <= 1e-13).all()
    if name == "photodetachment":
        assert (np.abs(a - ref) <= est).all()


def _tail_nodes(monkeypatch, params, ff, s):
    """(density nodes of the engine's right tail, A) at s: the nodes the
    density sees inside quadrature.oscillatory_tail."""
    count, inside = [0], [False]
    density, tail = amplitude.spectral_density, quadrature.oscillatory_tail

    def counting_density(p, f, x):
        count[0] += inside[0] * np.size(x)
        return density(p, f, x)

    def counting_tail(*args, **kwargs):
        inside[0] = True
        try:
            return tail(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(amplitude, "spectral_density", counting_density)
    monkeypatch.setattr(quadrature, "oscillatory_tail", counting_tail)
    a = survival_amplitude_quadrature(params, ff, s / params.cutoff)
    monkeypatch.undo()
    return count[0], a


@pytest.mark.parametrize("name, s, pinned", [
    ("hydrogen", 7.2e12, -2.868207786235655e-14 - 4.972465571060632e-15j),
    ("photodetachment", 1.01e11,
     -6.1957073316703955e-12 + 6.196168462336111e-12j)])
def test_late_right_tail_is_one_table(monkeypatch, name, s, pinned):
    """The right tail at the latest curve times takes one fixed table of
    double-exponential nodes; half-period panels took about 96k.  A is
    pinned from the panel sums to 1e-13: here it is of the size of the
    rounding of the phase s x ~ 1e10, which the pieces of the range each
    make.  Photodetachment also agrees with phi1-exact."""
    params, ff = preset(name)
    nodes, a = _tail_nodes(monkeypatch, params, ff, s)
    assert 0 < nodes <= 1000
    assert abs(a - pinned) <= 1e-13
    if name == "photodetachment":
        exact = survival_amplitude_phi1_exact(params, s / params.cutoff)
        assert abs(a - exact) <= 1e-14


def test_negative_time_rejected(photo):
    params, ff = photo
    with pytest.raises(ValueError):
        survival_amplitude_phi1_exact(params, -1e-9)
    with pytest.raises(ValueError):
        survival_amplitude_quadrature(params, ff, -1e-9)
    with pytest.raises(ValueError, match="nonnegative"):
        survival_amplitude_quadrature(params, ff, np.array([1e-9, -1e-9, 2e-9]))
    with pytest.raises(ValueError):
        survival_deficit(params, ff, -1e-9)


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_time_rejected(name, bad):
    """A time of nan or inf raises a typed ValueError from every public
    function of a time, alone and inside an array.  nan gave a silent nan
    from phi1-exact and phi2-poles, and inf a ZeroDivisionError from
    phi2-poles' node table and a math domain error on hydrogen."""
    params, ff = preset(name)
    for t in (bad, np.array([1e-9, bad])):
        for call in (survival_amplitude, survival_probability,
                     survival_deficit, log_survival):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                call(params, ff, t)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            sample_curve(params, ff, np.atleast_1d(t))


@pytest.mark.parametrize("t", [1e-60, 1e-320])
def test_too_short_time_fails_typed(t):
    """Hydrogen at 1e-60 s gave a silent nan with 16 RuntimeWarnings: the
    spike table's core moments t^14 overflowed, and the engine gate let a
    nan estimate through.  At 1e-320 s FourierTable.rung raised an
    OverflowError.  The shortest time the table takes still answers.

    The deficit kernel's split 30/s was infinite at subnormal s, or past
    where the closed forms overflow: photodetachment at 1e-320 s raised
    numpy's ValueError, the other cases overflow warnings before a
    ConvergenceError.  Below _KERNEL_FLOOR it raises at once, and all
    three presets still answer at 1e-60 s, on their leading term
    (t/t_a)^s: hydrogen too, since phi3's level shift takes its tail
    -int phi / y where c (1 + y^2)^4 would overflow."""
    params, ff = preset("hydrogen")
    with pytest.raises(ConvergenceError):
        survival_probability(params, ff, t)
    s = 1.01 * quadrature.MOMENT_REACH / quadrature.MOMENT_TOP
    assert abs(survival_amplitude_quadrature(params, ff, s / params.cutoff)
               ) == pytest.approx(1.0, abs=1e-14)
    for name in ("photodetachment", "quantum-dot", "hydrogen"):
        params, ff = preset(name)
        if t == 1e-60:
            exp = short_time_expansion(params, ff)
            want = pytest.approx((t / exp.t_a) ** exp.leading_exponent,
                                 rel=1e-15, abs=0)
            assert survival_deficit(params, ff, t) == want
            assert -log_survival(params, ff, t) == want
            continue
        for call in (survival_deficit, log_survival):
            with pytest.raises(ConvergenceError, match="too short"):
                call(params, ff, t)


@pytest.mark.parametrize("val,est", [(math.nan, 0.0), (math.inf, 0.0),
                                     (1.0, math.nan)])
def test_engine_gate_fails_nonfinite(val, est):
    params, _ = preset("hydrogen")
    body = lambda s: (np.full(s.shape, val, dtype=complex), np.full(s.shape, est))
    with pytest.raises(ConvergenceError, match="accuracy not reached"):
        amplitude._engine(params, [1e-9, 2e-9], body, "test engine")


def test_engine_formfactor_mismatch(qdot):
    params, ff = qdot
    with pytest.raises(EngineMismatchError):
        resolve_engine(ff, Engine.PHI1_EXACT)
    with pytest.raises(EngineMismatchError):
        resolve_engine(builtin("phi1"), Engine.PHI2_POLES)


@pytest.mark.parametrize("engine", [e for e in Engine if e is not Engine.AUTO])
def test_every_engine_gives_an_amplitude(engine):
    """Every Engine but AUTO is an amplitude engine: survival_amplitude
    answers on a weight it serves, and survival_probability is |A|^2 of
    that amplitude bit for bit, at one time and on an array.  sample_curve
    reports that p with twice the amplitude's estimate, or the 1e-12
    placeholder for phi1-exact, the one engine without an estimate."""
    name = {Engine.PHI1_EXACT: "photodetachment",
            Engine.PHI2_POLES: "quantum-dot"}.get(engine, "hydrogen")
    params, ff = preset(name)
    t = compute_timescales(params, ff).t_d * np.array([0.5, 1.0, 3.0])
    amp, est = amplitude._amplitude(params, ff, t, engine)
    assert np.array_equal(survival_amplitude(params, ff, t, engine), amp)
    p = survival_probability(params, ff, t, engine)
    assert p.tolist() == [abs(a) ** 2 for a in amp.tolist()]
    curve = sample_curve(params, ff, t, engine)
    assert np.array_equal(curve.probabilities, p)
    assert (est is None) == (engine is Engine.PHI1_EXACT)
    want = np.full(t.shape, 1e-12) if est is None else 2.0 * est
    assert np.array_equal(curve.error_estimates, want)
    one = survival_amplitude(params, ff, t[0].item(), engine)
    assert survival_probability(params, ff, t[0].item(), engine) == abs(one) ** 2


# ---------------------------------------------------------------------------
# deficits and the short-time regime
# ---------------------------------------------------------------------------

def test_deficit_consistent_with_probability(qdot):
    params, ff = qdot
    # moderate time where both paths are accurate
    t = 0.5 / params.cutoff
    d = survival_deficit(params, ff, t)
    p = survival_probability(params, ff, t)
    assert d == pytest.approx(1.0 - p, rel=1e-5)


def test_deficit_kernel_meets_phi2_poles_at_the_seam(qdot):
    # survival_deficit switches from the kernel to 1 - p at s = 1; with
    # exact residues the two agree there and below it
    params, ff = qdot
    s = np.array([0.25, 0.5, 1.0])
    kernel = amplitude._deficit_kernel(params, ff, s)[0]
    a = survival_amplitude_phi2(params, s / params.cutoff)
    np.testing.assert_allclose(1.0 - np.abs(a) ** 2, kernel, rtol=1e-8, atol=0.0)


# survival_deficit at s = cutoff * t.  The quantum-dot and hydrogen values
# come from an earlier kernel that made separate scalar scipy.integrate.quad
# passes for the real and imaginary parts.  The photodetachment values are
# the phi1 closed form in 40-digit mpmath (_phi1_deficit_mp); the earlier
# kernel's finite-difference tails were up to 1.04e-9 off them.
_DEFICIT_PINS = [
    ("photodetachment", 1e-3, 3.2623428880310953e-11),
    ("photodetachment", 0.3, 1.0444482445360758e-07),
    ("photodetachment", 0.999, 4.2606958925900332e-07),
    ("quantum-dot", 1e-3, 1.789997639228457e-12),
    ("quantum-dot", 0.3, 1.5571959043389182e-07),
    ("quantum-dot", 0.999, 1.4541142822009223e-06),
    ("hydrogen", 1e-3, 1.071666622205494e-15),
    ("hydrogen", 0.3, 9.609197433803415e-11),
    ("hydrogen", 0.999, 1.02777471632128e-09),
]


@pytest.mark.parametrize("name,s,want", _DEFICIT_PINS)
def test_deficit_kernel_pinned(name, s, want):
    params, ff = preset(name)
    got = survival_deficit(params, ff, s / params.cutoff)
    assert abs(got - want) <= max(1e-9 * want, 1e-17)


def _phi1_amplitude_mp(params, s, dps=40):
    """A(s) for phi1 from its closed form in dps-digit mpmath, as an mpc of
    that precision: with the roots z and weights W of phi1_weights_mp,
    A = (1/2) sum W w(exp(3i pi/4) v sqrt(s)), v the lower root of z and
    w(z) = exp(-z^2) erfc(-iz) the Faddeeva function."""
    with mpmath.workdps(dps):
        s, amp = mpmath.mpf(s), 0
        for z, weight in phi1_weights_mp(params):
            v = mpmath.sqrt(z)
            if v.imag > 0 or (v.imag == 0 and v.real >= 0):
                v = -v
            beta = mpmath.exp(0.75j * mpmath.pi) * v * mpmath.sqrt(s)
            amp += weight * mpmath.exp(-beta ** 2) * mpmath.erfc(-1j * beta)
        return amp / 2


def _phi1_deficit_mp(params, s, dps=40):
    """1 - |A(s)|^2 for phi1 from its closed form (_phi1_amplitude_mp)."""
    with mpmath.workdps(dps):
        return float(1 - abs(_phi1_amplitude_mp(params, s, dps)) ** 2)


_PHI1_DEFICITS_MP = [(1e-3, 3.2623428880310953e-11),
                     (2.09e-3, 9.7269897525706429e-11),
                     (0.3, 1.0444482445360758e-07),
                     (0.999, 4.2606958925900332e-07)]


def test_deficit_kernel_vs_mpmath(photo):
    """Photodetachment deficits against the phi1 closed form in 40-digit
    mpmath, one batch and one time at a time, and one value evaluated here
    (s = 0.05).  At s = 2.09e-3 the earlier kernel was 1.9e-10 off when it
    took the time by itself."""
    params, ff = photo
    s, want = (np.array(v) for v in zip(*_PHI1_DEFICITS_MP))
    assert abs(_phi1_deficit_mp(params, 2.09e-3) / 9.7269897525706429e-11 - 1) < 1e-15
    batch = survival_deficit(params, ff, s / params.cutoff)
    np.testing.assert_allclose(batch, want, rtol=1e-12, atol=0.0)
    for sk, wk in zip(s, want):
        assert survival_deficit(params, ff, sk / params.cutoff) == pytest.approx(
            wk, rel=1e-12, abs=0.0)
    live = _phi1_deficit_mp(params, 0.05)
    assert survival_deficit(params, ff, 0.05 / params.cutoff) == pytest.approx(
        live, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_deficit_kernel_free_of_its_split(name, monkeypatch):
    """The split X1_k between each column's range and its double-exponential
    tail is free: moved off the power-of-two grid to 3 X1_k, no deficit
    moves by 1e-13.  With finite-difference tails the same move shifted
    photodetachment by up to 1.8e-3, at s = 1e-6."""
    params, ff = preset(name)
    s = np.concatenate([np.geomspace(1e-6, 1.0, 13), [0.999]])
    base = amplitude._deficit_kernel(params, ff, s)[0]
    split = amplitude._tail_splits
    monkeypatch.setattr(amplitude, "_tail_splits",
                        lambda s, x0: 3.0 * split(s, x0))
    moved = amplitude._deficit_kernel(params, ff, s)[0]
    np.testing.assert_allclose(moved, base, rtol=1e-13, atol=0.0)


def test_deficit_kernel_with_a_head_left_of_the_spike():
    """Detuned phi2, x0 = 0.3 > delta: the spike region leaves the head
    [0, x0 - delta] to the range integral.  phi2-poles raises on these
    parameters (two of its Newton seeds meet), so 1 - |A|^2 comes from the
    quadrature engine; the two agree to 5e-10 relative."""
    params, ff = ModelParams(1e12, 3e11, 1e-4), builtin("phi2")
    assert spectral_peak(params, ff)[0] > amplitude._SPIKE_REACH
    s = np.array([0.5, 1.0])
    got = survival_deficit(params, ff, s / params.cutoff)
    want = [1.0 - abs(survival_amplitude_quadrature(params, ff, sk / params.cutoff)) ** 2
            for sk in s]
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("name,ratio,engine", [
    ("phi1", 0.347507, Engine.PHI1_EXACT), ("phi2", 0.806, Engine.PHI2_POLES),
    ("phi3", 0.5, Engine.QUADRATURE)])
def test_deficit_kernel_head_and_range_are_two_integrals(name, ratio, engine):
    """omega1/cutoff above 1/4: the spike region |x - x0| <= 1/4 leaves
    the head [0, a] and the range from b as two integrals.  When one
    integral spanned both with the density zeroed on (a, b), the jump sat
    inside [a/4, b], where the 21-point rule and its estimate cannot see
    it: phi1 was 8.3e-6 off at s = 1 under an estimate of 1e-13 of the
    deficit, and phi2 and phi3 raised."""
    params, ff = ModelParams(1e12, ratio * 1e12, 1e-3), builtin(name)
    s = np.array([0.1, 0.5, 1.0])
    want = 1.0 - survival_probability(params, ff, s / params.cutoff, engine=engine)
    got = survival_deficit(params, ff, s / params.cutoff)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    val, est = amplitude._deficit_kernel(params, ff, s)
    assert np.all(est <= 1e-12 * val)


def test_deficit_kernel_unconverged_raises(photo, monkeypatch):
    # no bisection allowed, with the spike moments computed afresh: the
    # kernel's own estimate of the deficit at s = 1e-3 is about 3.5e-3 of it
    adapt = quadrature._adapt
    monkeypatch.setattr(quadrature, "_adapt",
                        lambda f, lo, hi, own, epsabs, limit, *rest, **kw:
                        adapt(f, lo, hi, own, epsabs, 0 * limit + 1, *rest, **kw))
    monkeypatch.setattr(amplitude, "_spike_moments",
                        amplitude._spike_moments.__wrapped__)
    params, ff = photo
    with pytest.raises(ConvergenceError) as info:
        survival_deficit(params, ff, 1e-3 / params.cutoff)
    assert info.value.achieved > 1e-8


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_log_survival_array_matches_scalar(name):
    # times on both sides of the seam s = 1 between the deficit kernel
    # and 1 - p, evaluated in one batch and one by one
    params, ff = preset(name)
    s = np.concatenate([[0.0], np.geomspace(0.05, 20.0, 15), [1.0]])
    times = s / params.cutoff
    batch = log_survival(params, ff, times)
    assert isinstance(batch, np.ndarray) and batch.shape == times.shape
    for t, got in zip(times, batch):
        want = log_survival(params, ff, t)
        assert isinstance(want, float)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_phi2_unconverged_background_raises(qdot, monkeypatch):
    # no bisection allowed, neither in a fresh node table nor when its
    # columns are refined, and a table without the ladder around x = 1,
    # which alone resolves the weight there in one pass: the background's
    # own estimate is about 5e-2
    adapt, table = quadrature._adapt, quadrature.LaplaceTable
    monkeypatch.setattr(quadrature, "_adapt",
                        lambda f, lo, hi, own, epsabs, limit, *rest, **kw:
                        adapt(f, lo, hi, own, epsabs, 0 * limit + 1, *rest, **kw))
    monkeypatch.setattr(quadrature, "LaplaceTable", lambda w, segs, epsabs: table(
        w, [t for t in segs if not 0.5 < t < 2.0 or t == 1.0], epsabs))
    monkeypatch.setattr(amplitude, "_phi2_table", amplitude._phi2_table.__wrapped__)
    params, _ = qdot
    with pytest.raises(ConvergenceError) as info:
        survival_amplitude_phi2(params, 0.0)
    assert info.value.achieved > 1e-7


def _background_reference(params, s, epsabs=1e-16):
    """int_0^inf w(x) exp(-xs) dx for one s by adaptive quadrature from
    the background's own breakpoints, with a cut at x = 42/s: the
    one-column integral the node table replaces."""
    ff, d = builtin("phi2"), math.sqrt(math.pi) / 2 * params.coupling
    top = min(42.0 / s if s > 0 else math.inf, 10.0)
    segs = [0.0, 0.5, 1 - 10 * d, 1 - d, 1.0, 1 + d, 1 + 10 * d, 2.0]
    segs = sorted([t for t in segs if 0.0 <= t < top] + [top])
    f = lambda x: amplitude.background_weight(params, ff, x) * np.exp(-x * s)
    val, _ = quadrature.quad_complex(f, segs[0], segs[-1], segs[1:-1],
                                     epsabs=epsabs)
    if top == 10.0:
        val += quadrature.quad_complex(f, 10.0, math.inf, epsabs=epsabs)[0]
    return val


_BOX = [ModelParams(1e12, w * 1e12, g2)
        for w in (1e-6, 1e-4, 1e-2) for g2 in (1e-9, 1e-6, 1e-3)]


@pytest.mark.parametrize("params", [preset("quantum-dot")[0]] + [
    p for p in _BOX if bound_state_margin(p, builtin("phi2")) > 0])
def test_phi2_table_matches_adaptive_background(params):
    # every time from s = 0 to the end of the table's head ladder, against
    # one adaptive integral per time: in one batch, one by one, and in
    # 9-point batches spanning 8x, whose largest and smallest s move the
    # table's moment head and its cut.  A batch moves a value from the one
    # of its time alone only in the last bits
    decades = np.concatenate([[0.0], np.geomspace(1e-4, 1e14, 19)])
    spans = np.geomspace(1e-4, 1e14, 10)[:, None] * 2.0 ** np.linspace(0, 3, 9)
    table = amplitude._phi2_table(params)
    for s in [decades, *decades[:, None], *spans]:
        got, est = table.integrals(s)
        for sk, v, e in zip(s, got, est):
            want = _background_reference(params, sk)
            tol = max(1e-14, 1e-12 * abs(want))
            assert abs(v - want) <= tol
            assert e <= tol
            alone = table.integrals(np.array([sk]))[0][0]
            assert abs(v - alone) <= 2e-15 * abs(alone)


def _background_weight_mp(params, x):
    """The phi2 background weight c x Re D / (N_I N_II) of
    dispersion.background_weight, D = c (1 + z^2)^2 and
    N_I = D (omega_ratio - z) - g2 (p(z) - c z L) at z = ix, evaluated
    in 40 digits."""
    with mpmath.workdps(40):
        x, g2 = mpmath.mpf(x), mpmath.mpf(params.coupling_sq)
        z, c = 1j * x, 4
        p = ((-2 * z - mpmath.pi) * z - 2) * z + mpmath.pi
        den = c * (1 + z * z) ** 2
        n_first = (den * (mpmath.mpf(params.omega1) / params.cutoff - z)
                   - g2 * (p - c * z * (mpmath.log(x) - 0.5j * mpmath.pi)))
        n_second = n_first - 2 * mpmath.pi * g2 * c * x
        return complex(c * x * den.real / (n_first * n_second))


@pytest.mark.parametrize("params", [preset("quantum-dot")[0],
                                    ModelParams(1e12, 1e6, 1e-9)])
def test_background_weight_near_one(params):
    # N_I and N_II nearly cancel as x -> 1, and both vanish at x = 1.  The
    # table's nodes within 1e-3 of 1 (the closest 3.6e-6 and 6.1e-8 away)
    # hold the weight to 3.2e-12 and the s = 0 integral to 3.4e-14
    table = amplitude._phi2_table(params)
    near = np.abs(table.x - 1.0) <= 1e-3
    assert near.any() and not (table.x == 1.0).any()
    got = amplitude.background_weight(params, builtin("phi2"), table.x[near])
    want = np.array([_background_weight_mp(params, x) for x in table.x[near]])
    assert (np.abs(got - want) <= 1e-11 * np.abs(want)).all()
    exact = copy.copy(table)
    exact.v = table.v.copy()
    exact.v[near] *= want / got
    s0 = np.zeros(1)
    want0 = exact.integrals(s0)[0][0]
    assert abs(table.integrals(s0)[0][0] - want0) <= 1e-12 * abs(want0)


def test_phi2_table_refines_beyond_its_reach(qdot, monkeypatch):
    # s = 1e17 lies past the head ladder (x ~ 1e-15).  Held to a purely
    # relative tolerance, its column fails the table's estimate and is
    # integrated again, adaptively; s = 1 is not
    params, _ = qdot
    refined = []
    refine = quadrature.LaplaceTable._refine
    monkeypatch.setattr(quadrature.LaplaceTable, "_refine",
                        lambda self, s: refined.append(s) or refine(self, s))
    table = amplitude._phi2_table(params)
    strict = quadrature.LaplaceTable(table.wvec, table.edges, epsabs=0.0)
    got, est = strict.integrals(np.array([1.0, 1e17]))
    assert [s.tolist() for s in refined] == [[1e17]]
    for sk, v, e in zip([1.0, 1e17], got, est):
        want = _background_reference(params, sk, epsabs=0.0)
        assert abs(v - want) <= 1e-12 * abs(want) and e <= 1e-12 * abs(want)


def test_phi2_table_built_once_per_parameter_set(qdot, qdot_scales, monkeypatch):
    params, ff = qdot
    nodes = []
    weight = amplitude.background_weight
    monkeypatch.setattr(amplitude, "background_weight",
                        lambda p, f, x: nodes.append(x.size) or weight(p, f, x))
    amplitude._phi2_table.cache_clear()
    protocols._costs.cache_clear()
    first = n_epsilon(params, ff, 1e-2 * qdot_scales.t_d, 1e-3)
    assert sum(nodes) > 0
    nodes.clear()
    protocols._costs.cache_clear()     # ln p again, from the same table
    assert n_epsilon(params, ff, 1e-2 * qdot_scales.t_d, 1e-3) == first
    assert sum(nodes) == 0


def test_phi2_table_evaluates_its_weight_once_per_node(qdot, monkeypatch):
    """A cold table build evaluates the weight once per node of its
    adaptive run, and keeps the final nodes' values from that run: 1,617
    weight points at quantum-dot, the 77 final intervals of its one pass
    (1,932 in 4 passes from a ladder 1 -+ 10d 4^k, 2,016 before it),
    where evaluating the final nodes again made 3,633."""
    params, ff = qdot
    points, intervals = [], []
    weight, gk21 = amplitude.background_weight, quadrature._gk21
    monkeypatch.setattr(amplitude, "background_weight",
                        lambda p, f, x: points.append(x.size) or weight(p, f, x))
    monkeypatch.setattr(quadrature, "_gk21",
                        lambda f, lo, *a: intervals.append(lo.size) or gk21(f, lo, *a))
    table = amplitude._phi2_table.__wrapped__(params)
    monkeypatch.undo()
    assert sum(points) == 21 * sum(intervals) < 1700
    body = table.start < table.X        # past X the values carry dx/du
    x = table.x[body]
    assert np.array_equal(table.v[body],
                          weight(params, builtin("phi2"), x.ravel()).reshape(x.shape))


def test_phi2_table_keeps_its_weight_values():
    """On 30 draws of the sweep box the body rows of the table's values
    are the weight at its nodes, bit for bit: for the cached table, built
    in one pass, and for one from the coarse breakpoints 0, 0.5, 1, 2 and
    10, whose body bisects for 9 to 19 passes after its tail has
    stopped."""
    ff = builtin("phi2")
    for params in box("phi2", 30):
        weight = lambda x: amplitude.background_weight(params, ff, x)
        for table in (amplitude._phi2_table.__wrapped__(params),
                      quadrature.LaplaceTable(weight, [0.0, 0.5, 1.0, 2.0, 10.0],
                                              epsabs=1e-14)):
            body = table.start < table.X       # past X the values carry dx/du
            x = table.x[body]
            assert np.array_equal(table.v[body], weight(x.ravel()).reshape(x.shape))


@pytest.mark.parametrize("w, g2", [(8.0e-4, 4.7e-4), (1.0e-2, 1.5e-8)])
def test_coincident_phi2_roots(w, g2):
    """Two parameter sets where the cutoff seeds i +- (sqrt(pi)/2) lambda
    converged onto the decaying root, so the pole sum counted its residue
    twice and phi2-poles raised.  From i +- eps each seed finds its own
    cutoff root: three distinct roots, A(0) = 1, and phi2-poles agrees
    with the quadrature engine at every time sampled here to 2e-9 (worst
    1.1e-9, at w = 1e-2, where the two engines are known to differ by up
    to about 1e-8 on weak-coupling draws).
    The timescales take only the decaying root; at s = 1/Im z the
    quadrature engine's A is that root's pole term."""
    params, ff = ModelParams(1e12, w * 1e12, g2), builtin("phi2")
    scales = compute_timescales(params, ff)
    z = [r.z for r in resonance_roots(params, ff)]
    assert len(z) == 3 and _distinct(z)
    assert abs(survival_amplitude_phi2(params, 0.0) - 1.0) <= 1e-12
    root = decaying_resonance(params, ff)
    assert scales.omega_tilde == root.z.real * params.cutoff
    assert scales.gamma == 2.0 * root.z.imag
    s = 1.0 / root.z.imag
    a = survival_amplitude(params, ff, s / params.cutoff, Engine.QUADRATURE)
    assert abs(a - root.residue_weight * cmath.exp(1j * root.z * s)) < 1e-8
    assert abs(survival_amplitude_phi2(params, s / params.cutoff) - a) <= 2e-9
    times = np.linspace(0.0, 2.0 * scales.t_d, 9)
    curve = sample_curve(params, ff, times, Engine.QUADRATURE)
    assert abs(curve.probabilities[0] - 1.0) < 1e-10
    assert (curve.probabilities <= 1.0).all()
    assert (curve.error_estimates < 1e-10).all()
    quad = survival_amplitude(params, ff, times, Engine.QUADRATURE)
    assert (np.abs(survival_amplitude_phi2(params, times) - quad) <= 2e-9).all()


def _distinct(z):
    """No two of the roots z within 1e-8 (1 + |z_i|), phi2-poles' test
    for two seeds converged onto one root."""
    return all(abs(a - b) > 1e-8 * (1.0 + abs(a))
               for i, a in enumerate(z) for b in z[i + 1:])


def _winding_phi2(params, n=256):
    """The number of zeros of (1 + z^2)^2 eta_II inside |z - i| = 1/2 by
    the argument principle (Delves & Lyness 1967): the phase of
    N = D (w - z) - g2 (p(z) - c z L), D = c (1 + z^2)^2, summed over n
    steps of the circle, all in one array.  The circle stays in the upper
    half plane, where L = log z + i pi is analytic, and each step must
    turn the phase by less than pi / 4."""
    z = 1j + 0.5 * np.exp(2j * np.pi * np.arange(n + 1) / n)
    num, den = _num_den(PHI2, z, np.log(z) + 1j * np.pi)
    f = den * (params.omega_ratio - z) - params.coupling_sq * num
    turn = np.angle(f[1:] / f[:-1])
    assert np.abs(turn).max() < np.pi / 4
    return round(turn.sum() / (2 * np.pi))


def test_phi2_cutoff_roots_counted():
    """On 150 draws of the sweep box (seed 12345) resonance_roots finds as
    many distinct roots inside |z - i| = 1/2 as the argument principle
    counts there, 2 on every draw, and phi2-poles gives A(0) = 1 to
    1e-12 (worst 4.5e-16).  From the seeds i +- (sqrt(pi)/2) lambda, 24 of
    these draws had a seed converge onto the resonance root instead."""
    ff = builtin("phi2")
    for params in box("phi2", 150, seed=12345):
        inside = [r.z for r in resonance_roots(params, ff)
                  if abs(r.z - 1j) < 0.5]
        assert len(inside) == _winding_phi2(params) and _distinct(inside)
        assert abs(survival_amplitude_phi2(params, 0.0) - 1.0) <= 1e-12


def _winding_phi3_first_quadrant(params):
    """The number of zeros of (1 + z^2)^4 eta_II inside the right half of
    |z - i| = 1/2 by the argument principle: the phase of
    N = D (w - z) - g2 num, D = c (1 + z^2)^4, summed counterclockwise
    along the arc and back down the imaginary axis, where L = log z + i pi
    is analytic, all in one array.  The roots lie within about 1e-2 of
    z = i, so the segment's points are geometric toward it; each step
    must turn the phase by less than pi / 2."""
    arc = 1j + 0.5 * np.exp(1j * np.linspace(-0.5 * np.pi, 0.5 * np.pi, 257))
    d = np.geomspace(0.5, 1e-9, 128)
    z = np.concatenate([arc, 1j * (1.0 + d[1:]), 1j * (1.0 - d[::-1])])
    num, den = _num_den(PHI3, z, np.log(z) + 1j * np.pi)
    f = den * (params.omega_ratio - z) - params.coupling_sq * num
    turn = np.angle(f[1:] / f[:-1])
    assert np.abs(turn).max() < np.pi / 2
    return round(turn.sum() / (2 * np.pi))


def test_phi3_first_quadrant_roots_counted():
    """On 60 draws of the sweep box resonance_roots finds every zero of
    eta_II in the first-quadrant half of |z - i| = 1/2, 2 on every draw.
    The whole disk holds 4; the other 2 lie in the second quadrant, not
    mirror images of these."""
    ff = builtin("phi3")
    for params in box("phi3", 60):
        inside = [r.z for r in resonance_roots(params, ff)
                  if abs(r.z - 1j) < 0.5 and r.z.real > 0]
        assert len(inside) == _winding_phi3_first_quadrant(params)
        assert _distinct(inside)


def test_phi2_poles_at_the_bound_state_edge():
    # margin 4.5e-8: the decaying root z = 4.55e-8 + 2.1e-13i lies closer
    # to the branch point z = 0 than a finite-difference step would.  The
    # weight -1/eta_II'(z) is a 50-digit mpmath value
    params, ff = ModelParams(1e12, 1.1978e6, 1.4672e-6), builtin("phi2")
    assert abs(survival_amplitude_phi2(params, 0.0) - 1.0) < 1e-12
    weight = decaying_resonance(params, ff).residue_weight
    assert abs(weight - (0.99997739625927865 + 4.6091431293064680e-6j)) < 1e-9


def test_deficit_zero_cases(qdot):
    params, ff = qdot
    assert survival_deficit(params, ff, 0.0) == 0.0


def test_phi1_short_time_two_terms(photo):
    params, ff = photo
    exp = short_time_expansion(params, ff)
    assert exp.leading_exponent == 1.5
    for frac in (1e-3, 1e-2):
        t = frac * exp.validity_time
        want = (t / exp.t_a) ** 1.5 - (t / exp.t_b) ** 2
        got = survival_deficit(params, ff, t)
        # next omitted order is ~ 0.4 * cutoff * t relative
        assert got == pytest.approx(want, rel=2.0 * params.cutoff * t + 1e-6)


def test_phi2_short_time_quadratic_with_log(qdot):
    params, ff = qdot
    exp = short_time_expansion(params, ff)
    assert exp.leading_exponent == 2.0
    assert exp.has_log_correction
    t = 1e-3 * exp.validity_time
    want = (t / exp.t_a) ** 2
    got = survival_deficit(params, ff, t)
    assert got == pytest.approx(want, rel=1e-4)
    # the second term, deficit - (t/t_a)^2, is (g2/12) s^4 (ln s + c) with
    # c = gamma_E - 19/12: within 1% of the kernel's for s in [1e-4, 1e-2],
    # here and on 20 box draws (the paper's ln(2 omega1 t) missed by 214%)
    for p in [params] + box("phi2", 20, seed=7):
        exp = short_time_expansion(p, ff)
        t = np.geomspace(1e-4, 1e-2, 9) / p.cutoff
        lead = (t / exp.t_a) ** 2
        want = survival_deficit(p, ff, t) - lead
        assert np.all(np.abs(exp.deficit(t) - lead - want) <= 0.01 * -want)


def test_phi3_short_time_quadratic(hydrogen):
    params, ff = hydrogen
    exp = short_time_expansion(params, ff)
    assert exp.leading_exponent == 2.0
    t = 1e-3 * exp.validity_time
    got = survival_deficit(params, ff, t)
    assert got == pytest.approx((t / exp.t_a) ** 2, rel=1e-3)


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_deficit_departs_from_leading_law_past_tz(name):
    # the leading power law is already >10% wrong at 10 t_Z even though
    # 10 t_Z is far below t_a
    params, ff = preset(name)
    exp = short_time_expansion(params, ff)
    t = 10.0 * exp.validity_time
    assert t < 0.05 * exp.t_a
    law = (t / exp.t_a) ** exp.leading_exponent
    got = survival_deficit(params, ff, t)
    assert abs(got - law) / law > 0.10


def test_expansion_unavailable_names_moment():
    params = ModelParams(1e10, 2e4, 1e-6)
    slow_tail = Formfactor.from_callable(
        lambda x: np.asarray(x, float) / (1 + np.asarray(x, float)) ** 3.5,
        tail_exponent=2.5, head_exponent=1.0)
    with pytest.raises(ExpansionUnavailableError, match="I2"):
        short_time_expansion(params, slow_tail)
    steep_head = Formfactor.from_callable(
        lambda x: np.asarray(x, float) ** -0.7 / (1 + np.asarray(x, float)) ** 4,
        tail_exponent=4.7, head_exponent=-0.7)
    # phi^2 head diverges, but the weak-coupling flags allow the
    # simplified quartic coefficient
    exp = short_time_expansion(params, steep_head)
    assert exp.t_b is not None and exp.t_b > 0


def test_generic_expansion_matches_engine():
    params = ModelParams(1e10, 2e4, 1e-6)
    ff = builtin("phi3")
    exp = short_time_expansion(params, ff)
    t = 1e-2 * exp.validity_time
    got = survival_deficit(params, ff, t)
    assert got == pytest.approx(exp.deficit(t), rel=1e-3)


def test_series_short_engine_dispatch(qdot):
    params, ff = qdot
    exp = short_time_expansion(params, ff)
    t = 1e-3 * exp.validity_time
    p_series = exp.evaluate(t)
    assert 1.0 - p_series == pytest.approx((t / exp.t_a) ** 2, rel=1e-2)


# ---------------------------------------------------------------------------
# long-time asymptote
# ---------------------------------------------------------------------------

def test_phi1_asymptote_across_crossover(photo):
    params, ff = photo
    ts = compute_timescales(params, ff)
    for f in np.linspace(0.5, 2.0, 7):
        t = f * ts.t_ep
        pa = long_time_asymptote(params, ff, t)
        pe = survival_probability(params, ff, t)
        assert pa == pytest.approx(pe, rel=1e-2)


def test_phi2_asymptote_in_decay_era(qdot):
    params, ff = qdot
    ts = compute_timescales(params, ff)
    for f in np.linspace(1.0, 3.0, 5):
        t = f * ts.t_d
        pa = long_time_asymptote(params, ff, t)
        pe = survival_probability(params, ff, t)
        assert pa == pytest.approx(pe, rel=0.05)


def test_asymptote_warns_below_threshold(qdot):
    params, ff = qdot
    with pytest.warns(UserWarning, match="validity"):
        long_time_asymptote(params, ff, 1.0 / params.omega1)


def test_asymptote_unsupported_formfactor(qdot):
    # a custom weight has no resonance roots, so no pole term
    params, ff = qdot
    clone = Formfactor.from_callable(ff.evaluator, ff.tail_exponent,
                                     ff.head_exponent)
    with pytest.raises(FriedrichsError):
        long_time_asymptote(params, clone, 1e-6)


@pytest.mark.parametrize("f", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_phi3_asymptote_matches_quadrature(hydrogen, f):
    # the pole term from the decaying root plus the linear head's power
    # tail, against the quadrature engine from 0.5 t_d to 10 t_d
    params, ff = hydrogen
    t = f * compute_timescales(params, ff).t_d
    pa = long_time_asymptote(params, ff, t)
    assert pa == pytest.approx(survival_probability(params, ff, t), rel=1e-9)


def _tail_reference(params, ff):
    """The power-tail coefficient in closed form per weight:
    sqrt(pi) g2/2 e^{-i pi/4} / prod z_k over the three phi1 roots, and
    -g2/m^2 with the margin m = omega_ratio - g2 int phi/x in closed form
    (pi/4 for phi2, 5 pi/32 for phi3)."""
    g2 = params.coupling_sq
    if ff.id == "phi1":
        zprod = np.prod([r.z for r in resonance_roots(params, ff)])
        return math.sqrt(math.pi) * g2 / 2.0 * cmath.exp(-0.25j * math.pi) / zprod
    head = {"phi2": math.pi / 4.0, "phi3": 5.0 * math.pi / 32.0}[ff.id]
    return -g2 / (params.omega_ratio - head * g2) ** 2


@pytest.mark.parametrize("params, ff", [preset(name) for name in (
    "photodetachment", "quantum-dot", "hydrogen")] + [
    (p, builtin(name)) for name in ("phi1", "phi2") for p in _BOX
    if bound_state_margin(p, builtin(name)) > 0])
def test_watson_tail_coefficient(params, ff):
    # at s = 1 the power term is the coefficient itself
    _, tail = amplitude._asymptote(params, ff, 1.0)
    want = _tail_reference(params, ff)
    assert abs(tail - want) <= 1e-14 * abs(want)


def test_cross_term_first_wave_is_negative(photo, qdot):
    # extrapolated toward zero phase of the shifted-frequency oscillation,
    # the cross term is a dip: the full asymptote sits below
    # exponential + power on the zero-phase lattice
    for params, ff in (photo, qdot):
        res = decaying_resonance(params, ff)
        omega_shift = res.z.real * params.cutoff
        ts = compute_timescales(params, ff)
        k0 = int(omega_shift * ts.t_d / (2 * math.pi)) + 1
        for k in (k0, k0 + 1):
            t = 2 * math.pi * k / omega_shift
            expo, power = asymptote_terms(params, ff, t)
            full = long_time_asymptote(params, ff, t)
            cross_fraction = (full - expo - power) / (2 * math.sqrt(expo * power))
            assert cross_fraction < -0.5


def test_power_tail_dominates_late(qdot):
    params, ff = qdot
    ts = compute_timescales(params, ff)
    t = 10.0 * ts.t_d
    p = survival_probability(params, ff, t)
    q0 = params.omega_ratio - math.pi * params.coupling_sq / 4
    tail = (params.coupling_sq / q0 ** 2) ** 2 / (params.cutoff * t) ** 4
    # exponential era is ~e^-10 here but the tail is far smaller still;
    # check the two dominant contributions bracket the result
    expo, power = asymptote_terms(params, ff, t)
    assert p == pytest.approx(expo + power, rel=0.5)
    assert tail == pytest.approx(power, rel=1e-6)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_asymptotic_engine_dispatch(qdot):
    params, ff = qdot
    ts = compute_timescales(params, ff)
    t = 2 * ts.t_d
    pa = long_time_asymptote(params, ff, t)
    pe = survival_probability(params, ff, t)
    assert pa == pytest.approx(pe, rel=1e-3)


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_asymptote_and_series_reject_bad_times(name):
    """A negative time raises on the asymptote and the series, as on the
    amplitude engines, alone and inside an array.  At t = 0 the
    asymptote's power tail diverges, which raises; the series is p = 1
    exactly, the limit of phi2's t^4 ln t term."""
    params, ff = preset(name)
    t = compute_timescales(params, ff).t_z
    series = short_time_expansion(params, ff).evaluate
    for call in (lambda t: long_time_asymptote(params, ff, t), series):
        for bad in (-t, np.array([t, -t])):
            with pytest.raises(ValueError, match="nonnegative"):
                call(bad)
    for zero in (0.0, np.array([t, 0.0])):
        with pytest.raises(ValueError, match="t > 0"):
            long_time_asymptote(params, ff, zero)
        with pytest.raises(ValueError, match="t > 0"):
            asymptote_terms(params, ff, zero)
    assert series(0.0) == 1.0
    assert series(np.array([0.0, t]))[0] == 1.0


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_asymptote_on_an_array(name):
    """long_time_asymptote and asymptote_terms on an array are their calls
    on each time alone, bit for bit."""
    params, ff = preset(name)
    t = compute_timescales(params, ff).t_d * np.geomspace(1.0, 30.0, 9)
    p = long_time_asymptote(params, ff, t)
    expo, power = asymptote_terms(params, ff, t)
    assert p.shape == expo.shape == power.shape == t.shape
    for k, tk in enumerate(t.tolist()):
        assert long_time_asymptote(params, ff, tk) == p[k]
        assert asymptote_terms(params, ff, tk) == (expo[k], power[k])


@pytest.mark.parametrize("form", ["asymptote", "series"])
def test_asymptote_and_series_on_an_array(qdot, form):
    """long_time_asymptote and short_time_expansion(...).evaluate in one
    call on all times: each p is the call at that time alone, bit for
    bit, and the asymptote warns once, naming the earliest of the times
    below its threshold."""
    params, ff = qdot
    ts = compute_timescales(params, ff)
    threshold = amplitude._VALID_FROM[ff.id] / params.omega1
    if form == "asymptote":
        times = np.geomspace(0.25 * threshold, 3.0 * ts.t_d, 25)
        p = lambda t: long_time_asymptote(params, ff, t)
    else:
        times = np.geomspace(1e-3 * ts.t_z, ts.t_z, 25)
        p = short_time_expansion(params, ff).evaluate
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = p(times)
    if form == "asymptote":
        assert len(caught) == 1
        assert f"t={times[0]:.3g}s" in str(caught[0].message)
    else:
        assert not caught
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        one = [p(t) for t in times.tolist()]
    assert got.tolist() == one


def test_eta_second_minus_first_sheet(qdot):
    from friedrichs import eta_first_sheet, eta_second_sheet
    params, ff = qdot
    z = 0.3 + 0.4j
    on_i = eta_first_sheet(params, ff, z)
    on_ii = eta_second_sheet(params, ff, z)
    want = 2j * math.pi * params.coupling_sq * z / (1 + z * z) ** 2
    assert on_ii - on_i == pytest.approx(want, rel=1e-12)


def test_sample_curve_bounded_and_sorted(qdot):
    params, ff = qdot
    ts = compute_timescales(params, ff)
    times = np.geomspace(1e-3 * ts.t_z, 3 * ts.t_d, 25)
    curve = sample_curve(params, ff, times, decay_time=ts.t_d)
    assert np.all(np.diff(curve.times) > 0)
    assert np.all(curve.probabilities >= 0)
    assert np.all(curve.probabilities <= 1.0)
    assert not curve.clamped


@pytest.mark.parametrize("engine", [Engine.PHI2_POLES, Engine.QUADRATURE])
def test_sample_curve_phi2_reports_background_estimate(qdot, engine):
    """The curve's estimates are twice the engine's, from one call on all
    times.  That call agrees with per-time calls to 1e-13 for phi2-poles
    (its background is one contraction over the times) and bit for bit
    for the quadrature engine, whose integrals are each time's own."""
    params, ff = qdot
    ts = compute_timescales(params, ff)
    times = np.geomspace(1e-3 * ts.t_z, 3 * ts.t_d, 25)
    curve = sample_curve(params, ff, times, engine)
    if engine is Engine.QUADRATURE:
        amp = functools.partial(survival_amplitude_quadrature, params, ff)
    else:
        amp = functools.partial(survival_amplitude_phi2, params)
    amps, est = amp(curve.times, with_error=True)
    assert np.array_equal(curve.error_estimates, 2.0 * est)
    assert np.all(curve.error_estimates > 0.0)
    assert np.all(curve.error_estimates < 1e-7)
    assert len(set(curve.error_estimates)) > 1
    for t, a, e in zip(curve.times, amps, est):
        if engine is Engine.QUADRATURE:
            assert amp(t, with_error=True) == (a, e)
        else:
            assert abs(amp(t) - a) < 1e-13


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_sample_curve_without_times_is_empty(name):
    curve = sample_curve(*preset(name), [])
    assert curve.times.size == curve.probabilities.size == 0
    assert curve.error_estimates.size == 0


def test_sample_curve_rejects_bogus_probability(qdot):
    params, ff = qdot
    from friedrichs.amplitude import SurvivalCurve
    with pytest.raises(ValueError):
        SurvivalCurve(params, ff.id, Engine.QUADRATURE,
                      np.array([1.0, 2.0]), np.array([0.5, 1.5]),
                      np.zeros(2))
