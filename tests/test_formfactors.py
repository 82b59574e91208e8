import math

import numpy as np
import pytest

from friedrichs import ConvergenceError
from friedrichs import (DIVERGENT, Formfactor, ModelParams,
                        bound_state_margin, builtin, eval_formfactor,
                        head_integral, moment, spectral_peak, squared_norm)
from friedrichs.amplitude import _spike_moments
from friedrichs.presets import preset


def test_builtin_point_values():
    assert eval_formfactor(builtin("phi1"), 1.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_formfactor(builtin("phi2"), 1.0) == pytest.approx(0.25, abs=1e-15)
    # 2/(1+4)^4 = 2/625, cross-checked by exact rational arithmetic
    assert eval_formfactor(builtin("phi3"), 2.0) == pytest.approx(0.0032, rel=1e-14)


@pytest.mark.parametrize("name,a", [("phi2", 3.0), ("phi3", 7.0)])
def test_rational_weights_keep_their_tail_power(name, a):
    """phi2 and phi3 returned 0 with an overflow warning from x = 1e78 and
    1e39 on, where (1 + x^2)^n overflowed; x^-a is representable there
    (1e-234, 1e-273).  A point of ordinary size keeps its value when it
    shares the array."""
    ff = builtin(name)
    xs = np.array([1e40, 1e100, 1e300])
    np.testing.assert_allclose(ff(xs), xs ** -a, rtol=1e-15, atol=0.0)
    assert eval_formfactor(ff, 1e40) == pytest.approx(1e40 ** -a, rel=1e-15)
    assert ff(np.array([2.0, 1e40]))[0] == ff(2.0)


@pytest.mark.parametrize("x", [0.0, -1.0, -1e-30])
def test_eval_rejects_nonpositive(x):
    with pytest.raises(ValueError):
        eval_formfactor(builtin("phi1"), x)


def test_nonnegative_and_continuous_on_samples():
    xs = np.geomspace(1e-8, 1e8, 4001)
    dlx = np.diff(np.log(xs))[0]
    for name in ("phi1", "phi2", "phi3"):
        ff = builtin(name)
        ys = ff(xs)
        assert np.all(ys >= 0)
        # log-log increments bounded by the steepest power law (tail slope)
        dly = np.abs(np.diff(np.log(ys)))
        assert np.max(dly) <= (ff.tail_exponent + 1.0) * dlx


# closed-form moments: antiderivatives / Beta-function reductions worked
# out by hand and double-checked against a brute-force quadrature oracle
CLOSED_MOMENTS = {
    ("phi2", 0): 0.5,
    ("phi2", 1): math.pi / 4,
    ("phi3", 0): 1.0 / 6.0,
    ("phi3", 1): math.pi / 32,
    ("phi3", 2): 1.0 / 12.0,
}


@pytest.mark.parametrize("name,k", sorted(CLOSED_MOMENTS))
def test_moments_match_closed_forms(name, k):
    val = moment(builtin(name), k)
    assert val == pytest.approx(CLOSED_MOMENTS[(name, k)], rel=1e-9)


def test_moment_oracle_brute_force():
    # independent check of the quadrature policy on a finite window plus
    # analytic tail remainder
    from scipy.integrate import quad

    ff = builtin("phi3")
    val, _ = quad(lambda x: x * ff(x), 0, 300.0, limit=400)
    tail = 1.0 / (4 * 300.0 ** 4)  # int_X^inf x*phi3 ~ int x^-5 dx, leading order
    assert moment(ff, 1) == pytest.approx(val + tail, rel=1e-6)


DIVERGENCE_TABLE = [
    # (name, k): finite iff tail_exponent > k+1
    ("phi1", 0, False), ("phi1", 1, False), ("phi1", 2, False),
    ("phi2", 0, True), ("phi2", 1, True), ("phi2", 2, False),
    ("phi3", 0, True), ("phi3", 1, True), ("phi3", 2, True),
]


@pytest.mark.parametrize("name,k,finite", DIVERGENCE_TABLE)
def test_moment_finiteness_matches_tail_rule(name, k, finite):
    val = moment(builtin(name), k)
    if finite:
        assert isinstance(val, float)
    else:
        assert val is DIVERGENT


def test_squared_norms():
    assert squared_norm(builtin("phi2")) == pytest.approx(math.pi / 32, rel=1e-9)
    assert squared_norm(builtin("phi3")) == pytest.approx(
        10395 * math.pi / 1290240, rel=1e-9)
    # phi1^2 = x/(1+x)^2 has a 1/x tail
    assert squared_norm(builtin("phi1")) is DIVERGENT


def test_zero_custom_formfactor():
    zero = Formfactor.from_callable(lambda x: np.zeros_like(np.asarray(x, float)),
                                    tail_exponent=10.0, head_exponent=1.0,
                                    verify=False)
    assert squared_norm(zero) == 0.0
    assert moment(zero, 0) == 0.0


def test_head_integrals():
    assert head_integral(builtin("phi1")) == pytest.approx(math.pi, rel=2e-14, abs=0.0)
    assert head_integral(builtin("phi2")) == pytest.approx(math.pi / 4, rel=1e-9)
    assert head_integral(builtin("phi3")) == pytest.approx(15 * math.pi / 96, rel=1e-9)


def test_weight_integral_raises_when_unconverged():
    """A weight that decays more slowly than declared has a divergent
    moment; its error estimate, not the declaration, stops it."""
    slow = Formfactor.from_callable(lambda x: 1.0 / (1.0 + x), 3.0, 0.0,
                                    verify=False)
    with pytest.raises(ConvergenceError):
        moment(slow, 0)


def test_bound_state_margin_presets():
    params, ff = preset("photodetachment")
    m = bound_state_margin(params, ff)
    assert m == pytest.approx(2.0e-6 - math.pi * 3.18e-7, rel=1e-8)
    assert m > 0

    params, ff = preset("quantum-dot")
    m = bound_state_margin(params, ff)
    assert m == pytest.approx(params.omega_ratio - math.pi / 4 * 3.58e-6, rel=1e-8)
    assert m > 0


def test_margin_zero_coupling_equals_omega_ratio():
    params = ModelParams(1e10, 2e4, 0.0)
    assert bound_state_margin(params, builtin("phi1")) == params.omega_ratio


def test_margin_linear_in_coupling():
    ff = builtin("phi2")
    m1 = bound_state_margin(ModelParams(1e10, 2e4, 1e-7), ff)
    m2 = bound_state_margin(ModelParams(1e10, 2e4, 2e-7), ff)
    slope = (m2 - m1) / 1e-7
    assert slope == pytest.approx(-math.pi / 4, rel=1e-8)


def test_custom_exponent_verification_warns():
    with pytest.warns(UserWarning, match="tail exponent"):
        Formfactor.from_callable(lambda x: builtin("phi2")(x),
                                 tail_exponent=2.0, head_exponent=1.0)
    with pytest.warns(UserWarning, match="head exponent"):
        Formfactor.from_callable(lambda x: builtin("phi2")(x),
                                 tail_exponent=3.0, head_exponent=0.5)


def test_custom_correct_exponents_quiet(recwarn):
    Formfactor.from_callable(lambda x: builtin("phi2")(x),
                             tail_exponent=3.0, head_exponent=1.0)
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_from_table_interpolation(tmp_path):
    xs = np.geomspace(1e-6, 1e6, 1200)
    ff_ref = builtin("phi2")
    table = tmp_path / "phi.txt"
    np.savetxt(table, np.column_stack([xs, ff_ref(xs)]))
    ff = Formfactor.from_table(table, tail_exponent=3.0, head_exponent=1.0,
                               verify=False)
    probe = np.geomspace(1e-5, 1e5, 57)
    assert np.allclose(ff(probe), ff_ref(probe), rtol=2e-3)
    # outside the table the declared power laws take over
    assert ff(np.array([1e8]))[0] == pytest.approx(ff_ref(1e8), rel=0.05)


@pytest.mark.parametrize("col, value", [(1, np.nan), (1, np.inf), (0, np.nan),
                                        (0, np.inf), (0, "repeat")])
def test_from_table_rejects_bad_rows(tmp_path, col, value):
    # on a 41-point phi2 table a NaN phi ended in "integrand is not finite"
    # inside the quadrature, a NaN x gave phi = nan past the table, where
    # the declared x^-3 tail belongs, and x = 1 repeated gave
    # phi(1.01) = 0.046, where the rows imply 0.2475
    x = np.geomspace(1e-8, 1e8, 41)
    data = np.column_stack([x, x / (1 + x * x) ** 2])
    data[21, col] = data[20, 0] if value == "repeat" else value
    table = tmp_path / "phi.txt"
    np.savetxt(table, data)
    with pytest.raises(ValueError, match="finite x > 0|repeated x"):
        Formfactor.from_table(table, tail_exponent=3.0, head_exponent=1.0)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(-1.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        ModelParams(math.inf, 1.0, 1e-6)
    with pytest.raises(ValueError):
        ModelParams(1.0, math.inf, 1e-6)
    p = ModelParams(1e10, 2e4, 3.18e-7)
    assert p.omega_ratio == pytest.approx(2e-6, rel=1e-15)
    assert p.weak_coupling


def test_custom_weight_never_served_builtin_integral():
    """Every memo of per-weight work is keyed on the weight, evaluator
    included: 2 phi2 and 3 phi2, both with the id "custom" and phi2's
    exponents, get their own integrals, spectral peak and spike moments,
    never each other's or the built-in's."""
    ref = builtin("phi2")
    params = preset("quantum-dot")[0]
    i0, i1, norm, head = (moment(ref, 0), moment(ref, 1), squared_norm(ref),
                          head_integral(ref))
    for c in (2.0, 3.0):
        ff = Formfactor.from_callable(lambda x, c=c: c * ref(x), 3.0, 1.0,
                                      verify=False)
        assert moment(ff, 0) == pytest.approx(c * i0, rel=1e-9)
        assert moment(ff, 1) == pytest.approx(c * i1, rel=1e-9)
        assert squared_norm(ff) == pytest.approx(c * c * norm, rel=1e-9)
        assert head_integral(ff) == pytest.approx(c * head, rel=1e-9)
        # the density of c phi at g2 is that of phi at c g2
        scaled = ModelParams(params.cutoff, params.omega1,
                             c * params.coupling_sq)
        x0, width = spectral_peak(params, ff)
        want_x0, want_width = spectral_peak(scaled, ref)
        assert x0 == pytest.approx(want_x0, rel=1e-12)
        assert width == pytest.approx(want_width, rel=1e-6)
        np.testing.assert_allclose(_spike_moments(params, ff)[0],
                                   _spike_moments(scaled, ref)[0], rtol=1e-8)
    assert moment(builtin("phi2"), 0) == i0


def test_sentinels_keep_name_truth_and_identity():
    import copy
    from friedrichs import UNBOUNDED
    assert (repr(DIVERGENT), bool(DIVERGENT)) == ("DIVERGENT", False)
    assert (repr(UNBOUNDED), bool(UNBOUNDED)) == ("UNBOUNDED", True)
    for marker in (DIVERGENT, UNBOUNDED):
        assert copy.copy(marker) is marker
        assert copy.deepcopy([marker])[0] is marker
    assert moment(builtin("phi1"), 1) is DIVERGENT
    assert moment(builtin("phi2"), 2) is DIVERGENT
