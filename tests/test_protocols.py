import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from friedrichs import (UNBOUNDED, ModelParams, ZenoLimitKind, anti_zeno_minimum,
                        builtin, compute_timescales, n_epsilon, protocol_curve,
                        repeated_measurement_survival, resonance_roots,
                        short_time_expansion, survival_probability,
                        zeno_limit_class)
import friedrichs.protocols as protocols
from friedrichs.amplitude import ShortTimeExpansion, log_survival
from friedrichs.presets import preset


@pytest.fixture(scope="module")
def qdot():
    return preset("quantum-dot")


@pytest.fixture(scope="module")
def qdot_scales(qdot):
    return compute_timescales(*qdot)


@pytest.fixture
def cold_memo():
    """n_epsilon's stores emptied, for tests of one call's own work."""
    protocols._costs.cache_clear()


def test_single_measurement_is_plain_survival(qdot):
    params, ff = qdot
    T = 1e-10
    p1 = repeated_measurement_survival(params, ff, T, 1)
    assert p1 == pytest.approx(survival_probability(params, ff, T), rel=1e-10)


def test_zero_coupling_protocol_trivial():
    params = ModelParams(1e10, 2e4, 0.0)
    ff = builtin("phi2")
    for n in (1, 5, 1000):
        assert repeated_measurement_survival(params, ff, 1e-6, n) == \
            pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_zero_coupling_scales_fail_typed(name):
    # free evolution has no decay scales, resonance roots or anti-Zeno
    # minimum to find
    params, ff = ModelParams(1e10, 2e4, 0.0), builtin(name)
    for call in (lambda: compute_timescales(params, ff),
                 lambda: resonance_roots(params, ff),
                 lambda: protocol_curve(params, ff, 1e-6)):
        with pytest.raises(ValueError, match="coupling_sq"):
            call()


def test_exponential_survival_is_protocol_fixed_point(qdot, monkeypatch):
    params, ff = qdot
    rate = 3.7e8
    monkeypatch.setattr(protocols, "log_survival",
                        lambda params, ff, tau: -rate * tau)
    T = 1e-8
    want = math.exp(-rate * T)
    for n in (1, 7, 1000, 10 ** 9):
        got = repeated_measurement_survival(params, ff, T, n)
        assert abs(got - want) < 1e-12 * want


def test_log_space_matches_direct_powering(qdot, qdot_scales):
    params, ff = qdot
    T = 1e-2 * qdot_scales.t_d
    for n in (3, 10, 40):
        direct = survival_probability(params, ff, T / n) ** n
        log_space = repeated_measurement_survival(params, ff, T, n)
        assert log_space == pytest.approx(direct, rel=1e-12)


def test_protocol_argument_validation(qdot):
    params, ff = qdot
    with pytest.raises(ValueError):
        repeated_measurement_survival(params, ff, 1e-9, 0)
    for N in (math.inf, math.nan, 3.0, 2.5):
        with pytest.raises(ValueError, match="measurement count"):
            repeated_measurement_survival(params, ff, 1e-9, N)
    with pytest.raises(ValueError):
        repeated_measurement_survival(params, ff, -1e-9, 3)
    with pytest.raises(ValueError):
        n_epsilon(params, ff, 1e-9, 1.5)
    with pytest.raises(ValueError):
        anti_zeno_minimum(params, ff, 0.0)
    for T in (0.0, -1e-9):
        with pytest.raises(ValueError, match="observation time"):
            protocol_curve(params, ff, T)
    # an infinite observation time fails typed, not by dividing by it
    for call in (lambda: repeated_measurement_survival(params, ff, math.inf, 3),
                 lambda: n_epsilon(params, ff, math.inf, 1e-3),
                 lambda: anti_zeno_minimum(params, ff, math.inf),
                 lambda: protocol_curve(params, ff, math.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            call()
    for cap in (0, -5, 2.5):
        with pytest.raises(ValueError, match="measurement cap"):
            n_epsilon(params, ff, 1e-9, 1e-3, cap=cap)
    for n_tau in (0, 1, -3, 2.5):
        with pytest.raises(ValueError, match="interval count"):
            protocol_curve(params, ff, 1e-9, n_tau=n_tau)


def test_protocol_curve_checks_decay_time(qdot, qdot_scales):
    """A decay time, when given, is positive and finite like T: a
    negative one made the reference exponential exceed 1, nan made it
    nan and 0 made it None."""
    params, ff = qdot
    t_d = qdot_scales.t_d
    T = 1e-3 * t_d
    for bad in (-t_d, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="decay time must be positive"):
            protocol_curve(params, ff, T, decay_time=bad)
    assert protocol_curve(params, ff, T).reference_exponential is None
    ref = protocol_curve(params, ff, T, decay_time=t_d).reference_exponential
    assert ref == math.exp(-T / t_d)


def test_anti_zeno_minimum_is_plain_json(qdot, qdot_scales):
    # the degenerate flag is a Python bool, so a minimum serializes as is
    params, ff = qdot
    T = 1e-2 * qdot_scales.t_d
    for m in (anti_zeno_minimum(params, ff, T),
              protocol_curve(params, ff, T).minimum):
        assert type(m.degenerate) is bool
        json.dumps(asdict(m))


def test_zeno_limit_classification():
    mk = lambda s: ShortTimeExpansion(s, 2.5e-9, None, None, None, 1e-10)
    assert zeno_limit_class(mk(2.0)).kind is ZenoLimitKind.FREEZE
    assert zeno_limit_class(mk(1.5)).kind is ZenoLimitKind.FREEZE
    lim = zeno_limit_class(mk(1.0))
    assert lim.kind is ZenoLimitKind.EXPONENTIAL
    assert lim.rate == pytest.approx(1 / 2.5e-9)
    assert zeno_limit_class(mk(0.5)).kind is ZenoLimitKind.VANISH


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
def test_zeno_freeze_below_balance_time(name):
    # observation window inside the frozen-decay era, where repeated
    # projection at intervals far below the balance time beats leaving
    # the system alone
    params, ff = preset(name)
    ts = compute_timescales(params, ff)
    T = 10.0 * ts.t_z
    from friedrichs import survival_deficit
    p1 = 1.0 - survival_deficit(params, ff, T)
    taus = ts.t_z * np.array([1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3])
    ps = [repeated_measurement_survival(params, ff, T, max(1, round(T / tau)))
          for tau in taus]
    assert ps[2] > p1            # interval 1e-2 t_Z already freezes
    assert np.all(np.diff(ps) > 0)  # and keeps freezing as tau shrinks


def test_anti_zeno_minimum_quantum_dot(qdot, qdot_scales):
    params, ff = qdot
    ts = qdot_scales
    T = 1e-2 * ts.t_d
    m = anti_zeno_minimum(params, ff, T)
    assert not m.degenerate
    assert m.probability < math.exp(-T / ts.t_d)
    # the minimum sits a small factor above the balance time
    assert 1.0 < m.tau / ts.t_z < 6.0
    assert m.n_measurements == max(1, round(T / m.tau))


def test_anti_zeno_minimum_hydrogen_near_balance_time():
    # for the steep-tail weight the minimum sits essentially at the
    # balance time itself
    params, ff = preset("hydrogen")
    ts = compute_timescales(params, ff)
    m = anti_zeno_minimum(params, ff, 1e-2 * ts.t_d)
    assert 1.0 / 3.0 < m.tau / ts.t_z < 3.0
    assert m.probability < math.exp(-1e-2)


def test_anti_zeno_deepens_with_observation_time(qdot, qdot_scales):
    params, ff = qdot
    ts = qdot_scales
    rel = []
    for frac in (1e-4, 1e-1):
        T = frac * ts.t_d
        m = anti_zeno_minimum(params, ff, T)
        rel.append(m.probability / math.exp(-T / ts.t_d))
    assert rel[1] < rel[0]


def test_n_epsilon_exact_boundary(qdot, qdot_scales):
    params, ff = qdot
    T = 1e-2 * qdot_scales.t_d
    eps = 3e-3
    n = n_epsilon(params, ff, T, eps)
    assert isinstance(n, int)
    threshold = (1 - eps) * repeated_measurement_survival(params, ff, T, 1)
    assert repeated_measurement_survival(params, ff, T, n) >= threshold
    assert repeated_measurement_survival(params, ff, T, n + 1) < threshold


def test_n_epsilon_unbounded_for_loose_accuracy(qdot, qdot_scales):
    params, ff = qdot
    T = 1e-2 * qdot_scales.t_d
    assert n_epsilon(params, ff, T, 0.999999, cap=10 ** 5) is UNBOUNDED


def test_n_epsilon_decreases_with_accuracy(qdot, qdot_scales):
    params, ff = qdot
    T = 1e-2 * qdot_scales.t_d
    ns = [n_epsilon(params, ff, T, eps) for eps in (1e-2, 3e-3, 1e-3)]
    assert ns[0] > ns[1] > ns[2]


def test_protocol_curve_structure(qdot, qdot_scales):
    params, ff = qdot
    ts = qdot_scales
    T = 1e-3 * ts.t_d
    res = protocol_curve(params, ff, T, n_tau=120, decay_time=ts.t_d)
    assert res.T == T
    assert np.all(np.diff(res.n_values) < 0)      # unique, descending N
    assert res.n_values[-1] == 1                  # tau = T endpoint
    assert np.all((res.probabilities >= 0) & (res.probabilities <= 1))
    assert res.reference_exponential == pytest.approx(math.exp(-T / ts.t_d))
    assert res.minimum.probability <= res.probabilities.min() + 1e-12


# ---------------------------------------------------------------------------
# batched ln p against the one-time-at-a-time algorithms
# ---------------------------------------------------------------------------

def _p_n_sequential(params, ff, T):
    """p_n(T) with one log_survival call per tau, memoized on n."""
    cache = {}

    def p_n(n):
        if n not in cache:
            cache[n] = math.exp(n * log_survival(params, ff, T / n))
        return cache[n]

    return p_n


def _n_epsilon_sequential(params, ff, T, eps, cap=10 ** 9):
    """n_epsilon as it was before prefetching: one log_survival per tau."""
    p_n = _p_n_sequential(params, ff, T)
    threshold = (1.0 - eps) * p_n(1)
    last_good, n = 1, 2
    while n <= cap:
        if p_n(n) < threshold:
            break
        last_good, n = n, max(n + 1, int(n * 1.35))
    else:
        return UNBOUNDED
    lo, hi = last_good, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if p_n(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def _n_epsilon_definition(params, ff, T, eps, cap):
    """n_epsilon's definition itself: p_n(T) at every n up to the cap, in
    one log_survival call, and the last n before the first that falls
    below (1 - eps) p_1(T), or UNBOUNDED."""
    ns = np.arange(1, cap + 1)
    p = np.exp(ns * log_survival(params, ff, T / ns))
    bad = np.flatnonzero(p < (1.0 - eps) * p[0])
    return int(bad[0]) if bad.size else UNBOUNDED


def _anti_zeno_sequential(params, ff, T):
    """anti_zeno_minimum as it was before prefetching: a coarse scan on
    ln tau, golden-section refinement, then N within 3 of the result."""
    cache = {}

    def logp(tau):
        if tau not in cache:
            cache[tau] = log_survival(params, ff, tau)
        return cache[tau]

    t_z = short_time_expansion(params, ff).validity_time
    cost = lambda ltau: (T / math.exp(ltau)) * logp(math.exp(ltau))
    grid = np.linspace(math.log(1e-3 * t_z), math.log(T), 161)
    vals = np.array([cost(x) for x in grid])
    k = int(np.argmin(vals))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = cost(x1), cost(x2)
    for _ in range(80):
        if b - a < 1e-12:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = cost(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = cost(x2)
    n_best = max(1, round(T / math.exp(0.5 * (a + b))))
    p_n = lambda n: math.exp(n * logp(T / n))
    n_star = min(range(max(1, n_best - 3), n_best + 4), key=p_n)
    return T / n_star, p_n(n_star), n_star


_NEPS_GRID = [(ratio, eps) for eps in (1e-2, 3e-3, 1e-3)
              for ratio in np.geomspace(1e-3, 1e-1, 7)]   # the CLI default


@pytest.mark.parametrize("ratio,eps", _NEPS_GRID)
def test_n_epsilon_matches_sequential(qdot, qdot_scales, cold_memo, ratio, eps):
    T = ratio * qdot_scales.t_d
    assert n_epsilon(*qdot, T, eps) == _n_epsilon_sequential(*qdot, T, eps)


def test_n_epsilon_finds_a_window_between_scan_points(qdot, qdot_scales):
    """Just below the depth of the anti-Zeno minimum the n that violate
    the accuracy form a window around its N = 29,729, narrower than a 35%
    scan step: the scan stepped over it and answered UNBOUNDED.  The
    minimum is tested before that answer, and the window's falling side
    bisected (a direct bisection of p_n gives 28,112)."""
    params, ff = qdot
    T = 1e-3 * qdot_scales.t_d
    deepest = anti_zeno_minimum(params, ff, T)
    p1 = repeated_measurement_survival(params, ff, T, 1)
    eps = 0.999 * (1.0 - deepest.probability / p1)
    n = n_epsilon(params, ff, T, eps)
    assert n is not UNBOUNDED and n < deepest.n_measurements
    threshold = (1.0 - eps) * p1
    assert repeated_measurement_survival(params, ff, T, n) >= threshold
    assert repeated_measurement_survival(params, ff, T, n + 1) < threshold


def test_n_epsilon_tests_its_cap():
    """The first violation at photodetachment, T = 1e-3 t_d, eps = 0.0755,
    is n = 2,936, between the scan's last point below the cap 3,000 and
    its next: the cap is tested as the last scan point, and the answer is
    the definition's, and the one a larger cap gives."""
    params, ff = preset("photodetachment")
    T = 1e-3 * compute_timescales(params, ff).t_d
    assert n_epsilon(params, ff, T, 0.0755, cap=3000) == 2935
    assert n_epsilon(params, ff, T, 0.0755, cap=10 ** 4) == 2935
    assert _n_epsilon_definition(params, ff, T, 0.0755, 3000) == 2935


@pytest.mark.parametrize("eps,cap", [
    *(pytest.param(eps, 4000, id=str(eps)) for eps in (0.002, 0.02, 0.2)),
    *((eps, cap) for eps in (2e-4, 5e-4, 1e-3) for cap in (1, 2, 3))])
def test_n_epsilon_matches_its_definition(eps, cap):
    """Against the definition at every n up to the cap (the scan's own walk
    is _n_epsilon_sequential): photodetachment at T = 1e-3 t_d, where
    p_n falls to its minimum at n = 625,729.  The first violation lies at
    n = 2, 3 and 4 for eps = 2e-4, 5e-4 and 1e-3, so caps 1 to 3 also
    check that no scan point passes the cap."""
    params, ff = preset("photodetachment")
    T = 1e-3 * compute_timescales(params, ff).t_d
    assert (n_epsilon(params, ff, T, eps, cap=cap)
            == _n_epsilon_definition(params, ff, T, eps, cap))


@pytest.mark.parametrize("ratio", [1e-4, 1e-3, 1e-2, 1e-1])
def test_anti_zeno_minimum_no_shallower_than_sequential(ratio):
    # The integer search must reach the golden section's depth and land
    # within 0.1% of its N.  At the minimum s = 1.6, past the kernel's seam,
    # so ln p comes from 1 - |A|^2, whose rounding N multiplies into a
    # jitter of p_N from one N to the next: 3.5e-9 relative (rms) at
    # T = 1e-2 t_d and 3.5e-8 at 1e-1, where the search ends 2.4e-10 and
    # 4.5e-8 below the reference.  Without its vertex fit the search ends
    # 427 N from the closed form's N* at 1e-2 and 3.5e-9 above it.
    params, ff = preset("photodetachment")
    T = ratio * compute_timescales(params, ff).t_d
    m = anti_zeno_minimum(params, ff, T)
    tau, p, n = _anti_zeno_sequential(params, ff, T)
    assert m.probability <= p * (1.0 + 1e-13)
    assert abs(m.n_measurements - n) <= 1e-3 * n
    assert m.tau == T / m.n_measurements


@pytest.mark.parametrize("shape, vertex, want", [
    (-1.0, 37.3, 0), (1.0, 300.0, 0), (1.0, 37.3, 37), (1.0, -62.8, -63)])
def test_vertex_fit_falls_back_to_the_best_sample(shape, vertex, want):
    # costs shape * ((N - best - vertex) / reach)^2 on 21 N within the fit's
    # reach, plus two far N it must ignore: a parabola that opens downward,
    # or one whose vertex lies past the reach, leaves best; an upward one
    # with its vertex inside moves it to the rounded vertex
    best = 100_000
    reach = round(protocols._FIT * best)
    held = {n: shape * 1e-9 * ((n - best - vertex) / reach) ** 2
            for n in range(best - reach, best + reach + 1, reach // 10)}
    held.update({best - 5 * reach: -1.0, best + 5 * reach: -1.0})
    assert protocols._vertex(held, best) == best + want


@pytest.mark.parametrize("eps", [3e-3, 1e-8])
def test_n_epsilon_shares_quadrature_engine_passes(monkeypatch, cold_memo, eps):
    # the quadrature engine advances all times of a call together, so the
    # fetched scan chunks and rounds share its adaptive passes: 2 and 1
    # passes against the sequential walk's 11 and 2, though at eps = 1e-8
    # the scan stops at its first step, n = 2, and leaves the rest of its
    # first chunk unvisited
    import friedrichs.amplitude as amplitude
    import friedrichs.quadrature as quadrature
    params, ff = preset("hydrogen")
    T = 1e-2 * compute_timescales(params, ff).t_d
    calls, passes = [], []
    engine, gk21 = amplitude.survival_amplitude_quadrature, quadrature._gk21
    monkeypatch.setattr(amplitude, "survival_amplitude_quadrature",
                        lambda *a, **k: calls.append(1) or engine(*a, **k))
    monkeypatch.setattr(quadrature, "_gk21",
                        lambda *a, **k: passes.append(1) or gk21(*a, **k))
    n = n_epsilon(params, ff, T, eps)
    batched = len(calls), len(passes)
    calls.clear()
    passes.clear()
    assert n == _n_epsilon_sequential(params, ff, T, eps)
    assert batched[0] <= len(calls)
    assert batched[1] <= len(passes) / 2


@pytest.mark.parametrize("ratio", [1e-3, 1e-2, 1e-1])
def test_protocol_curve_minimum_matches_anti_zeno_minimum(qdot, qdot_scales, ratio):
    # protocol_curve's search starts from its own N grid, a standalone one
    # from 161 intervals; on a flat minimum the two can end on different N,
    # but only within the flat bottom
    T = ratio * qdot_scales.t_d
    a = protocol_curve(*qdot, T, decay_time=qdot_scales.t_d).minimum
    b = anti_zeno_minimum(*qdot, T)
    assert a.probability == pytest.approx(b.probability, rel=1e-8)
    assert a.n_measurements == pytest.approx(b.n_measurements, rel=1e-4)


@pytest.fixture
def quad_calls(monkeypatch):
    """One entry per adaptive integration: calls of quadrature._integrals,
    which runs quad_complex, quad_segments and quad_tail alike."""
    import friedrichs.quadrature as quadrature
    calls = []
    integrals = quadrature._integrals

    def counted(*args, **kwargs):
        calls.append(1)
        return integrals(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_integrals", counted)
    return calls


def test_protocol_curve_batches_its_integrals(quad_calls):
    # 172 adaptive integrations when every tau had its own integral; a
    # prefetched tau that misses the memo falls back to a scalar call
    params, ff = preset("photodetachment")
    t_d = compute_timescales(params, ff).t_d
    quad_calls.clear()
    protocol_curve(params, ff, 1e-3 * t_d, n_tau=100, decay_time=t_d)
    assert len(quad_calls) <= 6


@pytest.mark.parametrize("ratio,eps", _NEPS_GRID)
def test_n_epsilon_batches_its_integrals(qdot, qdot_scales, quad_calls,
                                         monkeypatch, cold_memo, ratio, eps):
    # 25-26 adaptive integrations when every tau had its own integral.  The
    # phi2 table's contractions reduce 5,250-9,555 node x column values
    # per grid point with its moment head, 18,669-43,932 without it
    import friedrichs.quadrature as quadrature
    reduced, inside = [], []
    qk21, integrals = quadrature._qk21, quadrature.LaplaceTable.integrals

    def counted_qk21(f, h):
        if inside:
            reduced.append(f.size)
        return qk21(f, h)

    def counted_integrals(self, s):
        inside.append(s)
        try:
            return integrals(self, s)
        finally:
            inside.pop()

    monkeypatch.setattr(quadrature, "_qk21", counted_qk21)
    monkeypatch.setattr(quadrature.LaplaceTable, "integrals", counted_integrals)
    quad_calls.clear()
    n_epsilon(*qdot, ratio * qdot_scales.t_d, eps)
    assert len(quad_calls) <= 10
    assert 0 < sum(reduced) <= 12000


@pytest.fixture
def log_survival_calls(monkeypatch, cold_memo):
    calls = []
    monkeypatch.setattr(protocols, "log_survival",
                        lambda *a: calls.append(1) or log_survival(*a))
    return calls


@pytest.mark.parametrize("name", ["photodetachment", "quantum-dot", "hydrogen"])
@pytest.mark.parametrize("ratio", [1e-4, 1e-1])
def test_anti_zeno_search_is_a_few_batched_rounds(name, ratio, log_survival_calls):
    # each round of the search is one log_survival call: 4-10 in all,
    # where the golden section took 59-60
    params, ff = preset(name)
    T = ratio * compute_timescales(params, ff).t_d
    for search in (lambda: anti_zeno_minimum(params, ff, T),
                   lambda: protocol_curve(params, ff, T).minimum):
        log_survival_calls.clear()
        m = search()
        assert len(log_survival_calls) <= 12
        assert not m.degenerate



def test_n_epsilon_calls_share_their_fetches(qdot, qdot_scales, log_survival_calls):
    # the calls at one T share a store: another accuracy walks the scan the
    # first call fetched, and a repeated call fetches nothing
    T = 1e-2 * qdot_scales.t_d
    first = n_epsilon(*qdot, T, 1e-3)
    assert len(log_survival_calls) > 2
    log_survival_calls.clear()
    n_epsilon(*qdot, T, 3e-3)
    assert len(log_survival_calls) <= 2
    log_survival_calls.clear()
    assert n_epsilon(*qdot, T, 1e-3) == first
    assert len(log_survival_calls) == 0
