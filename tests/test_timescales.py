import math

import mpmath
import numpy as np
import pytest

from friedrichs import (ModelParams, Provenance, builtin, compute_timescales,
                        crossover_time_numeric, decaying_resonance, moment,
                        render_table1, short_time_expansion)
from friedrichs.errors import (ConvergenceError, EngineMismatchError,
                              FriedrichsError)
from friedrichs.amplitude import asymptote_terms
from friedrichs.formfactors import Formfactor
from friedrichs.presets import preset
from helpers import box

# reference grid computed from the closed forms with root-based shifted
# frequencies (photodetachment t_d and t_ep need the shifted value)
REFERENCE = {
    "photodetachment": dict(t_z=1.1317684842090336e-10, t_a=9.602024420307641e-07,
                            t_d=0.1000487347535198, t_ep=2.014467756856831),
    "quantum-dot": dict(t_z=5.913041275252859e-17, t_a=4.475659238035545e-14,
                        t_d=6.131956967516676e-09, t_ep=4.1903012385350866e-07),
    "hydrogen": dict(t_z=5.764861715187521e-19, t_a=3.5946235229665195e-15,
                     t_d=1.5968990427120386e-09, t_ep=1.6898743299758202e-07),
}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_values(name):
    params, ff = preset(name)
    ts = compute_timescales(params, ff)
    for key, want in REFERENCE[name].items():
        assert getattr(ts, key) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_hierarchy(name):
    params, ff = preset(name)
    ts = compute_timescales(params, ff)
    assert ts.t_z < ts.t_a < ts.t_d < ts.t_ep
    assert ts.t_z / ts.t_a < 1e-2


def test_generic_matches_special_closed_forms():
    lam_sq = 3.58e-6
    params = ModelParams(1.67e16, 7.25e12, lam_sq)
    lam = math.sqrt(lam_sq)
    t_a = short_time_expansion(params, builtin("phi2")).t_a
    assert t_a == pytest.approx(math.sqrt(2) / (lam * params.cutoff), rel=1e-9)

    params3, ff3 = preset("hydrogen")
    lam3 = params3.coupling
    t_a3 = short_time_expansion(params3, ff3).t_a
    assert t_a3 == pytest.approx(math.sqrt(6) / (lam3 * params3.cutoff), rel=1e-9)
    # balance point from the simplified quartic coefficient: (12 I0/I2)^1/2
    i0, i2 = moment(ff3, 0), moment(ff3, 2)
    tz_generic = math.sqrt(12 * i0 / i2) / params3.cutoff
    assert tz_generic == pytest.approx(2 * math.sqrt(6) / params3.cutoff, rel=1e-9)


def test_provenance_flags():
    params, ff = preset("photodetachment")
    ts = compute_timescales(params, ff)
    assert ts.provenance["t_d"] is Provenance.ROOT_BASED
    assert ts.provenance["omega_tilde"] is Provenance.ROOT_BASED
    assert ts.provenance["t_a"] is Provenance.CLOSED_FORM
    assert ts.notes  # decay-rate convention note travels with the numbers
    params, ff = preset("quantum-dot")
    ts = compute_timescales(params, ff)
    assert ts.provenance["t_d"] is Provenance.CLOSED_FORM


def test_shifted_frequency_photodetachment():
    params, ff = preset("photodetachment")
    ts = compute_timescales(params, ff)
    # near-degenerate case: the shifted frequency is about half the bare
    assert ts.omega_tilde == pytest.approx(1.0e4, rel=0.02)
    # with the bare frequency t_d would come out around 0.07 s
    bare = 1.0 / (math.pi * params.coupling_sq
                  * math.sqrt(params.cutoff * params.omega1))
    assert bare == pytest.approx(0.0707, rel=0.01)
    assert ts.t_d == pytest.approx(0.1, rel=0.05)


def test_crossover_numeric_phi1_within_band():
    params, ff = preset("photodetachment")
    ts = compute_timescales(params, ff)
    t_num = crossover_time_numeric(params, ff)
    assert abs(t_num - ts.t_ep) / ts.t_ep < 0.20


def test_crossover_numeric_phi2_behaviour():
    # the closed form is a leading-log estimate and undershoots the true
    # crossing; the numeric solver quantifies by how much
    params, ff = preset("quantum-dot")
    ts = compute_timescales(params, ff)
    t_num = crossover_time_numeric(params, ff)
    assert t_num > ts.t_ep
    assert abs(t_num - ts.t_ep) / ts.t_ep < 0.35


def test_crossover_bracket_widens_off_the_presets():
    """A phi2 draw of the sweep box with coupling_sq above omega1/cutoff:
    the closed-form t_ep is 819 t_d, past [t_d/4, 400 t_d], a bracket
    that had no sign change there and raised ValueError.  The direct
    solve starts from the resonance root, not from t_d, and finds the
    crossing, where the asymptote's two terms agree."""
    params, ff = ModelParams(1e12, 3.36e-4 * 1e12, 4.07e-4), builtin("phi2")
    ts = compute_timescales(params, ff)
    assert ts.t_ep > 400.0 * ts.t_d
    t = crossover_time_numeric(params, ff)
    assert t > 400.0 * ts.t_d
    expo, power = asymptote_terms(params, ff, t)
    assert abs(expo - power) <= 1e-9 * power


def _lambert_crossover(params, ff):
    """The crossover from a 40-digit root of u - ln u = R on the W_-1
    branch, with R formed as crossover_time_numeric forms it."""
    b = ff.head_exponent + 1.0
    s1 = b / decaying_resonance(params, ff).z.imag
    expo, power = asymptote_terms(params, ff, s1 / params.cutoff)
    with mpmath.workdps(40):
        r = 1 + mpmath.log(mpmath.mpf(expo) / mpmath.mpf(power)) / (2 * b)
        u = -mpmath.lambertw(-mpmath.exp(-r), -1).real
        return float(s1 * u / params.cutoff)


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_crossover_matches_lambert_root(name):
    """Within 2e-15 of the 40-digit root at the presets and on 20 sweep-box
    draws; a bracketed brentq in ln t was up to 1.75e-14 off on these."""
    ff = builtin(name)
    draws = box(name, 20) + [p for p, f in map(preset, REFERENCE)
                              if f.id == ff.id]
    for params in draws:
        want = _lambert_crossover(params, ff)
        got = crossover_time_numeric(params, ff)
        assert got == pytest.approx(want, rel=2e-15, abs=0)


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_crossover_found_across_the_box(name):
    """No ValueError on 300 sweep-box draws (seed 5), 9 of which once lay
    outside the bracket [t_d/4, 400 t_d]; the asymptote's two terms agree
    within 1e-13 at every answer."""
    ff = builtin(name)
    for params in box(name, 300, seed=5):
        expo, power = asymptote_terms(params, ff, crossover_time_numeric(params, ff))
        assert abs(expo - power) <= 1e-13 * power


def test_crossover_terms_that_do_not_cross(monkeypatch):
    """R <= 1: the power term leads at the peak of the log ratio, so the
    two terms never meet."""
    from friedrichs import timescales
    params, ff = preset("quantum-dot")
    monkeypatch.setattr(timescales, "asymptote_terms", lambda *a: (1.0, 2.0))
    with pytest.raises(ValueError, match="do not cross"):
        crossover_time_numeric(params, ff)


def test_crossover_newton_is_bounded(monkeypatch):
    """One Newton step from u = 2R is not converged: ConvergenceError,
    not an unconverged time."""
    from friedrichs import timescales
    monkeypatch.setattr(timescales, "_NEWTON", 1)
    with pytest.raises(ConvergenceError):
        crossover_time_numeric(*preset("quantum-dot"))


def test_crossover_rejects_other_formfactors():
    # a custom weight has no roots, so neither t_d nor an asymptote
    params, ff = preset("quantum-dot")
    clone = Formfactor.from_callable(ff.evaluator, ff.tail_exponent,
                                     ff.head_exponent, verify=False)
    with pytest.raises(FriedrichsError):
        crossover_time_numeric(params, clone)


def test_crossover_numeric_phi3_behaviour():
    # hydrogen's closed form undershoots the numeric crossing too
    params, ff = preset("hydrogen")
    ts = compute_timescales(params, ff)
    t_num = crossover_time_numeric(params, ff)
    assert t_num > ts.t_ep
    assert ts.t_d / 4.0 <= t_num <= 400.0 * ts.t_d


def test_tep_relative_onset_shrinks_with_coupling():
    # doubling the coupling moves the power-law handover earlier relative
    # to the decay time (logarithmic dependence)
    base = ModelParams(1.67e16, 7.25e12, 3.58e-6)
    doubled = ModelParams(1.67e16, 7.25e12, 2 * 3.58e-6)
    ff = builtin("phi2")
    r1 = compute_timescales(base, ff)
    r2 = compute_timescales(doubled, ff)
    assert r2.t_ep / r2.t_d < r1.t_ep / r1.t_d


def test_custom_formfactor_only_generic():
    params = ModelParams(1e10, 2e4, 1e-6)
    custom = Formfactor.from_callable(builtin("phi3").evaluator,
                                      tail_exponent=7.0, head_exponent=1.0,
                                      verify=False)
    exp = short_time_expansion(params, custom)
    assert exp.validity_time < exp.t_a and exp.t_b is not None
    with pytest.raises(EngineMismatchError):
        compute_timescales(params, custom)


def test_handover_in_decay_units():
    # the power-law handover lands at ~69 decay times for the quantum dot
    # and ~110 for hydrogen
    params, ff = preset("quantum-dot")
    ts = compute_timescales(params, ff)
    assert ts.t_ep / ts.t_d == pytest.approx(69, rel=0.05)
    params, ff = preset("hydrogen")
    ts = compute_timescales(params, ff)
    assert ts.t_ep / ts.t_d == pytest.approx(110, rel=0.05)


def test_render_table1_text_and_csv():
    text = render_table1()
    for label in ("t_Z", "t_a", "t_d", "t_ep", "photodetachment", "hydrogen"):
        assert label in text
    csv = render_table1(fmt="csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "row,photodetachment,quantum-dot,hydrogen"
    rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
    assert float(rows["t_d"][0]) == pytest.approx(REFERENCE["photodetachment"]["t_d"],
                                                  rel=1e-12)
    assert float(rows["t_ep_over_td"][1]) == pytest.approx(
        REFERENCE["quantum-dot"]["t_ep"] / REFERENCE["quantum-dot"]["t_d"], rel=1e-9)
