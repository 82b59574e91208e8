"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.

Each test measures with the library's engines and compares against the
published target numbers.  Where a target is unreachable because the
printed value it came from is itself an approximation (leading-log
crossover estimates, an amplitude/probability mix-up in a prefactor, a
window wider than the leading term's own validity), the test still
asserts the stated tolerance and fails honestly; the measured values in
the assertion message document the discrepancy precisely.
"""

import math

import numpy as np
import pytest

from friedrichs import (Engine, anti_zeno_minimum, compute_timescales,
                        crossover_time_numeric, decaying_resonance, n_epsilon,
                        repeated_measurement_survival, short_time_expansion,
                        survival_amplitude, survival_amplitude_quadrature,
                        survival_deficit, survival_probability)
from friedrichs import protocols
from friedrichs.presets import preset

PRESET_NAMES = ("photodetachment", "quantum-dot", "hydrogen")


def _verdict(num, label, ok, detail):
    line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# published characteristic times in seconds: rows t_Z, t_a, t_d, t_ep
PUBLISHED = {
    "photodetachment": (1.1e-10, 9.6e-7, 0.1, 1.7),
    "quantum-dot": (5.9e-17, 4.5e-14, 6.1e-9, 4.2e-7),
    "hydrogen": (5.76e-19, 3.59e-15, 1.60e-9, 1.69e-7),
}


def test_criterion_01_table1():
    failures = []
    details = []
    for name in PRESET_NAMES:
        params, ff = preset(name)
        ts = compute_timescales(params, ff)
        got = (ts.t_z, ts.t_a, ts.t_d, ts.t_ep)
        for label, g, want in zip(("t_Z", "t_a", "t_d", "t_ep"), got,
                                  PUBLISHED[name]):
            tol = 0.20 if (label == "t_ep" and name == "photodetachment") else 0.05
            rel = abs(g - want) / want
            details.append(f"{name}/{label}: {rel:.1%}")
            if rel > tol:
                failures.append(f"{name} {label}: {g:.4g} vs {want:.4g} "
                                f"({rel:.1%} > {tol:.0%})")
    ok = not failures
    line = _verdict(1, "table of characteristic times", ok,
                    "; ".join(details[:6]) + " ...")
    assert ok, line + " | " + "; ".join(failures)


def test_criterion_02_normalization():
    worst_mass = worst_p0 = 0.0
    for name in PRESET_NAMES:
        params, ff = preset(name)
        mass = abs(survival_amplitude_quadrature(params, ff, 0.0).real - 1.0)
        worst_mass = max(worst_mass, mass)
        engines = [Engine.QUADRATURE]
        if ff.id == "phi1":
            engines.append(Engine.PHI1_EXACT)
        if ff.id == "phi2":
            engines.append(Engine.PHI2_POLES)
        for eng in engines:
            p0 = abs(survival_probability(params, ff, 0.0, eng) - 1.0)
            worst_p0 = max(worst_p0, p0)
    ok = worst_mass < 1e-8 and worst_p0 < 1e-8
    line = _verdict(2, "normalization", ok,
                    f"worst spectral mass defect {worst_mass:.2e}, "
                    f"worst p(0) defect {worst_p0:.2e} (tol 1e-8)")
    assert ok, line


@pytest.mark.parametrize("name,engine", [
    ("photodetachment", Engine.PHI1_EXACT),
    ("quantum-dot", Engine.PHI2_POLES),
])
def test_criterion_03_cross_engine(name, engine):
    params, ff = preset(name)
    ts = compute_timescales(params, ff)
    grid = np.geomspace(1e-3 * ts.t_z, 5 * ts.t_d, 200)
    worst = 0.0
    for t in grid:
        a = survival_amplitude(params, ff, t, engine)
        b = survival_amplitude(params, ff, t, Engine.QUADRATURE)
        worst = max(worst, abs(a - b))
    ok = worst < 1e-8
    line = _verdict(3, f"cross-engine agreement [{name}]", ok,
                    f"max |dA| = {worst:.2e} over 200 points (tol 1e-8)")
    assert ok, line


def _loglog_slope(params, ff, t_z):
    ts = np.geomspace(1e-3 * t_z, 1e-1 * t_z, 25)
    ys = np.array([survival_deficit(params, ff, t) for t in ts])
    return float(np.polyfit(np.log(ts), np.log(ys), 1)[0])


def test_criterion_04_short_time_exponents():
    measured = {}
    for name, want in (("photodetachment", 1.5), ("quantum-dot", 2.0),
                       ("hydrogen", 2.0)):
        params, ff = preset(name)
        exp = short_time_expansion(params, ff)
        measured[name] = (_loglog_slope(params, ff, exp.validity_time), want)

    # coefficient of the 3/2-power term through a two-term fit that
    # separates it from the known quadratic companion term
    params, ff = preset("photodetachment")
    exp = short_time_expansion(params, ff)
    ts = np.geomspace(1e-3 * exp.validity_time, 1e-1 * exp.validity_time, 25)
    ys = np.array([survival_deficit(params, ff, t) for t in ts])
    basis = np.column_stack([ts ** 1.5, ts ** 2])
    coef, _, _, _ = np.linalg.lstsq(basis, ys, rcond=None)
    t_a_fit = coef[0] ** (-2.0 / 3.0)
    coeff_rel = abs(t_a_fit - 9.6e-7) / 9.6e-7

    failures = []
    for name, (slope, want) in measured.items():
        if abs(slope - want) > 0.02:
            failures.append(f"{name}: slope {slope:.4f} vs {want} +/- 0.02")
    if coeff_rel > 0.03:
        failures.append(f"photodetachment t_a from fit {t_a_fit:.4g} vs 9.6e-7 "
                        f"({coeff_rel:.1%} > 3%)")
    ok = not failures
    line = _verdict(
        4, "short-time exponents", ok,
        "; ".join(f"{n}: {s:.4f}" for n, (s, _) in measured.items())
        + f"; t_a fit off by {coeff_rel:.2%}")
    assert ok, line + " | " + "; ".join(failures)


def test_criterion_04_companion_slope_pinned():
    # criterion 4 fails honestly at this value: a drift of the deficit
    # kernel moves it
    params, ff = preset("photodetachment")
    slope = _loglog_slope(params, ff, short_time_expansion(params, ff).validity_time)
    assert slope == pytest.approx(1.4421, abs=5e-5)


def test_criterion_05_residue_constants():
    failures = []
    # photodetachment: squared modulus of the decaying pole's coefficient,
    # confirmed independently by the exponential-era prefactor of the
    # spectral-quadrature engine
    params, ff = preset("photodetachment")
    res = decaying_resonance(params, ff)
    a1_sq_excess = abs(res.residue_weight) ** 2 - 1.0
    rate = 2.0 * res.z.imag * params.cutoff
    t_probe = 0.2
    prefactor = (abs(survival_amplitude_quadrature(params, ff, t_probe)) ** 2
                 * math.exp(rate * t_probe))
    assert prefactor - 1.0 == pytest.approx(a1_sq_excess, rel=5e-3), \
        "independent engines disagree on the exponential prefactor"
    if not 0.8e-6 <= a1_sq_excess <= 1.4e-6:
        failures.append(
            f"|A1|^2 - 1 = {a1_sq_excess:.4e}, outside 1.1e-6 +/- 0.3e-6 "
            f"(note |A1| - 1 = {abs(res.residue_weight) - 1:.4e})")

    # quantum dot: squared residue versus the quoted coupling-squared excess
    params, ff = preset("quantum-dot")
    res = decaying_resonance(params, ff)
    a2_sq_excess = abs(res.residue_weight) ** 2 - 1.0
    claim = params.coupling_sq * (3.0 + 2.0 * math.log(params.omega_ratio))
    rel = abs(a2_sq_excess - claim) / abs(claim)
    if rel > 0.20:
        failures.append(f"|A2|^2 excess {a2_sq_excess:.4e} vs {claim:.4e} "
                        f"({rel:.1%} > 20%)")
    ok = not failures
    line = _verdict(5, "residue constants", ok,
                    f"|A1|^2-1 = {a1_sq_excess:.3e}; "
                    f"|A2|^2-1 = {a2_sq_excess:.3e} vs claim {claim:.3e} "
                    f"({rel:.1%})")
    assert ok, line + " | " + "; ".join(failures)


def test_criterion_05_companion_residue_pinned():
    # criterion 5 fails honestly at this value of |A1|^2 - 1
    res = decaying_resonance(*preset("photodetachment"))
    assert abs(res.residue_weight) ** 2 - 1.0 == pytest.approx(2.247e-6, abs=5e-10)


def test_criterion_06_anti_zeno_minimum():
    params, ff = preset("quantum-dot")
    ts = compute_timescales(params, ff)
    T = 1e-2 * ts.t_d
    m = anti_zeno_minimum(params, ff, T)
    reference = math.exp(-T / ts.t_d)
    factor = m.tau / ts.t_z
    exists = m.probability < reference
    located = 1.0 / 3.0 <= factor <= 3.0
    ok = exists and located
    line = _verdict(6, "anti-Zeno existence and location", ok,
                    f"min p_N = {m.probability:.4f} vs exp reference "
                    f"{reference:.4f}; tau*/t_Z = {factor:.2f} (need <= 3)")
    assert ok, line


def test_criterion_06_companion_location_pinned():
    # criterion 6 fails honestly at this tau*/t_Z
    params, ff = preset("quantum-dot")
    ts = compute_timescales(params, ff)
    m = anti_zeno_minimum(params, ff, 1e-2 * ts.t_d)
    assert m.tau / ts.t_z == pytest.approx(3.49, abs=5e-3)


def test_criterion_07_zeno_limit(monkeypatch):
    failures = []
    details = []
    for name in PRESET_NAMES:
        params, ff = preset(name)
        ts = compute_timescales(params, ff)
        # the criterion leaves the observation window free; T sits inside
        # the frozen-decay era that the balance time bounds
        T = 10.0 * ts.t_z
        p1 = 1.0 - survival_deficit(params, ff, T)
        taus = ts.t_z * np.array([1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3])
        ps = [repeated_measurement_survival(params, ff, T, max(1, round(T / tau)))
              for tau in taus]
        freeze = ps[2] > p1
        monotone = bool(np.all(np.diff(ps) > 0))
        details.append(f"{name}: p_N(1e-2 t_Z)-p_1 = {ps[2] - p1:.2e}, "
                       f"monotone={monotone}")
        if not freeze:
            failures.append(f"{name}: no freeze at tau = 1e-2 t_Z")
        if not monotone:
            failures.append(f"{name}: not monotone below 0.1 t_Z")
    # exponential survival is a fixed point of the protocol
    params, ff = preset("quantum-dot")
    rate, T = 2.9e8, 1e-8
    want = math.exp(-rate * T)
    monkeypatch.setattr(protocols, "log_survival",
                        lambda params, ff, tau: -rate * tau)
    spread = max(abs(repeated_measurement_survival(params, ff, T, n) - want)
                 for n in (1, 10, 1000, 10 ** 8))
    if spread > 1e-12 * want:
        failures.append(f"exponential fixed point violated by {spread:.2e}")
    ok = not failures
    line = _verdict(7, "Zeno limit", ok, "; ".join(details))
    assert ok, line + " | " + "; ".join(failures)


def test_criterion_08_n_epsilon_shapes():
    failures = []
    # quantum dot: flat in T, decreasing in accuracy
    params, ff = preset("quantum-dot")
    ts = compute_timescales(params, ff)
    n_by_t = [n_epsilon(params, ff, r * ts.t_d, 3e-3) for r in (1e-3, 1e-2, 1e-1)]
    if max(n_by_t) / min(n_by_t) >= 3.0:
        failures.append(f"quantum-dot N varies {max(n_by_t) / min(n_by_t):.2f}x "
                        f"across T (need < 3x): {n_by_t}")
    n_by_eps = [n_epsilon(params, ff, 1e-2 * ts.t_d, e) for e in (1e-2, 3e-3, 1e-3)]
    if not n_by_eps[0] > n_by_eps[1] > n_by_eps[2]:
        failures.append(f"quantum-dot N not decreasing in accuracy: {n_by_eps}")

    # photodetachment: grows about linearly with T, weak accuracy dependence
    params, ff = preset("photodetachment")
    ts = compute_timescales(params, ff)
    ratios = np.geomspace(1e-2, 1e-1, 5)
    ns = [n_epsilon(params, ff, r * ts.t_d, 1e-3) for r in ratios]
    slope = float(np.polyfit(np.log(ratios), np.log(ns), 1)[0])
    if not 0.8 <= slope <= 1.2:
        failures.append(f"photodetachment log-log slope {slope:.3f} not 1 +/- 0.2")
    n_eps_band = [n_epsilon(params, ff, 1e-1 * ts.t_d, e) for e in (1e-3, 1e-2)]
    if max(n_eps_band) / min(n_eps_band) >= 2.0:
        failures.append(f"photodetachment N varies "
                        f"{max(n_eps_band) / min(n_eps_band):.2f}x across eps")
    ok = not failures
    line = _verdict(8, "measurement-budget scaling shapes", ok,
                    f"qdot N(T) = {n_by_t}, N(eps) = {n_by_eps}; "
                    f"photo slope = {slope:.3f}, N(eps) = {n_eps_band}")
    assert ok, line + " | " + "; ".join(failures)


def test_criterion_09_crossover_consistency():
    failures = []
    details = []
    for name in ("photodetachment", "quantum-dot"):
        params, ff = preset(name)
        ts = compute_timescales(params, ff)
        t_num = crossover_time_numeric(params, ff)
        rel = abs(t_num - ts.t_ep) / ts.t_ep
        details.append(f"{name}: numeric {t_num:.4g} vs closed {ts.t_ep:.4g} "
                       f"({rel:.1%})")
        if rel > 0.20:
            failures.append(details[-1] + " > 20%")
    ok = not failures
    line = _verdict(9, "crossover-time consistency", ok, "; ".join(details))
    assert ok, line + " | " + "; ".join(failures)


def test_criterion_09_companion_crossover_pinned():
    # criterion 9 fails honestly at this quantum-dot crossover time
    params, ff = preset("quantum-dot")
    assert crossover_time_numeric(params, ff) == pytest.approx(5.289e-7, abs=5e-11)


def test_criterion_10_hierarchy_and_gap():
    failures = []
    details = []
    for name in PRESET_NAMES:
        params, ff = preset(name)
        exp = short_time_expansion(params, ff)
        ts = compute_timescales(params, ff)
        ratio = ts.t_z / ts.t_a
        if ratio >= 1e-2:
            failures.append(f"{name}: t_Z/t_a = {ratio:.2e}")
        t = 10.0 * ts.t_z
        law = (t / exp.t_a) ** exp.leading_exponent
        got = survival_deficit(params, ff, t)
        dev = abs(got - law) / law
        details.append(f"{name}: t_Z/t_a = {ratio:.1e}, "
                       f"deviation at 10 t_Z = {dev:.0%}")
        if dev <= 0.10:
            failures.append(f"{name}: only {dev:.1%} from the leading law "
                            f"at 10 t_Z")
        if not t < 0.1 * ts.t_a:
            failures.append(f"{name}: 10 t_Z not well below t_a")
    ok = not failures
    line = _verdict(10, "timescale hierarchy and Zeno gap", ok,
                    "; ".join(details))
    assert ok, line + " | " + "; ".join(failures)
