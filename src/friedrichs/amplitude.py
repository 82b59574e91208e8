"""Survival amplitude and probability via independently validated engines.

All engines share one convention, fixed by two anchors: A(0) = 1 and
p(t) = |A(t)|^2 decays through the exponential era.  In dimensionless
time s = cutoff * t the engines are:

QUADRATURE    A(s) = int_0^inf rho(x) exp(isx) dx over the spectral
              density.  Works for every formfactor and is the reference
              the closed-form engines are tested against.  The spike
              window around the density peak x0 (and at s = 0 the whole
              mass integral) is taken in spike-local nodes, offsets
              t = x - x0 that Offsets hands to spectral_density: Re eta is
              (omega_ratio - x0) - t - g2 P(x0 + t), exact in t, the phase
              is exp(ist), and exp(isx0) multiplies the window once.  In
              absolute x the hydrogen spike, 3.7e-11 wide at x0 = 1.8e-3,
              is resolved only to 6e-9 of its width, noise that bisection
              cannot remove.  Geometric breakpoints x0 / 4^k step toward
              the head at x = 0 (the sqrt of phi1, the y log y of P for
              phi2 and phi3) where the window reaches it.  At every s > 0
              the window comes from one table of Filon panels per
              parameter set (quadrature.FourierTable): the density on
              Gauss-Legendre panels cut at rungs t = +-(width/4) 2^j and
              at that head ladder, whose Legendre coefficients integrate
              exactly against exp(ist) at any s.  A time costs a
              contraction of the table, and a moment series where the
              phase barely turns, not density nodes of its own.  The
              adaptive mass integral's tail at s = 0 starts at x >= 1,
              where the unit scale of its map to [0, 1) fits the density.
              The right tail, from the window's right end at every s > 0,
              is one fixed table of double-exponential nodes
              (quadrature.oscillatory_tail) in the same offsets, so its
              phase matches the window's at their common end.  Where the
              phase turns slowly the window reaches far out (D >= 40 pi /
              s), into the density's smooth power tail.  A window whose
              left part [0, x0 - D] would hold at most 3000 half periods
              past its first reaches the head in the table; a longer left
              part is in absolute x (quadrature.oscillatory_finite, one
              call on the arrays of every such time's x0 - D, s and D):
              an adaptive first half period at x = 0 and the rest by
              parts.

PHI1_EXACT    For the sqrt-head weight the density is rational in
              u = sqrt(x), and the transform reduces to three Faddeeva
              functions, one per second-sheet root:

                  A(s) = (1/2) sum_k W_k wofz(exp(3i pi/4) u_k sqrt(s)),

              with W_k the residue weights and u_k the cubic roots,
              both read from the root finder's memo at each call
              (dispersion._roots_cached).  wofz is the scaled
              complementary error function, so no intermediate
              overflows for any s.  Below the real axis it is reflected,
              w(b) = 2 exp(izs) - w(-b), the exponential formed from the
              root z: wofz's own exp(-b^2) loses |Re z| s ulp there.

PHI2_POLES    Two contour poles plus a background integral along the
              positive imaginary axis, -g2 int_0^inf w(x) exp(-xs) dx,
              with a weight w written in a form that is stable near
              x = 1 where the raw factors almost cancel.  w does not
              depend on s, so it is integrated once per parameter set
              into a cached node table (quadrature.LaplaceTable), and a
              batch of times is one contraction of exp(-xs) on the
              nodes between two bounds the batch sets: below
              x = 1/(4 max s) cached moments of the table's head give
              the integral as a power series in s, and past
              x = 42/min s exp(-xs) < 6e-19 is left out.  The poles are
              the contributing roots and their weights, read from the
              root finder's memo at each call, which has checked that
              no two of them coincide.

Small deficits 1 - p are computed by a dedicated cancellation-free path
that integrates rho(x) (1 - exp(is(x - x0))) against the spike center
x0, exact for p because a global phase cannot change |A|.  Within 1/4
of x0 that integral is a power series in s over moments of rho, cached
per parameter set and weight; the rest of the range is one shared
integral up to a split X1 >= 30/s on a power-of-two grid, and past it
the double-exponential tail of each time, in one call.  Each deficit is
held to about 1e-12 of itself and raises ConvergenceError past 1e-8.

The three amplitude engines are numerical bodies behind one boundary,
_engine, which reads the times, answers free evolution at zero coupling
and raises ConvergenceError when an estimate is worse than 1e-7 or a
value or estimate is not finite.

Every engine and every public function of a time takes one time or an
array of times.  On an array the phi1 closed form, the asymptote and the
series are evaluated elementwise, the phi2 background takes every time
on its table's fixed nodes, and the deficit kernel integrates every time
as one column on a shared node set, so the density is evaluated once per
node for all times.  In the quadrature engine a time's spike window
costs a contraction of the parameters' table, built in one piece for
the widest reach asked (again when a time reaches past it), and its
right tail nodes of one shared double-exponential call.  Its adaptive
integrals, the first half periods of the left parts taken by parts, are
each time's own, with their own intervals, but advance together: each
pass evaluates the new nodes of every time in one density call
(quadrature.quad_segments' K integrals), so a time costs its own nodes,
not its own passes.  The s = 0 mass integral is one call for every zero
time.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConvergenceError, EngineMismatchError, ExpansionUnavailableError
from .formfactors import (DIVERGENT, PHI1, PHI2, PHI3, Formfactor,
                          ModelParams, bound_state_margin, builtin, moment,
                          squared_norm)
from .dispersion import (Offsets, _roots_cached, _sqrt_upper,
                         background_weight, decaying_resonance,
                         spectral_density, spectral_peak)
from . import quadrature as quadlib


class Engine(Enum):
    AUTO = "auto"
    QUADRATURE = "quadrature"
    PHI1_EXACT = "phi1-exact"
    PHI2_POLES = "phi2-poles"


_CLOSED_FORM = {PHI1: Engine.PHI1_EXACT, PHI2: Engine.PHI2_POLES}


def resolve_engine(ff: Formfactor, engine: Engine = Engine.AUTO) -> Engine:
    if engine is Engine.AUTO:
        return _CLOSED_FORM.get(ff.id, Engine.QUADRATURE)
    for weight, closed in _CLOSED_FORM.items():
        if engine is closed and ff.id != weight:
            raise EngineMismatchError(
                f"{engine.value} engine requires the {weight} formfactor")
    return engine


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

_SPIKE_HALFWIDTHS = 80.0   # spike window extent in units of the half width
_X_FAR = 60.0              # beyond this every built-in density is tiny
_TOL = 1e-10               # the engine's absolute tolerance on A(s)
_BYPARTS_FROM = 3000.0     # left parts past this many half periods: by parts


def _head_ladder(x0):
    """Offsets x0 / 4^k - x0, k = 1 .. 19, of a geometric ladder toward the
    head at x = 0, where phi1 has its sqrt and P of phi2 and phi3 its
    y log y.  It stops at x = x0 4^-19, the last rung above 1e-12 x0, so
    that the nodes of the first interval, x0 + t, stay clear of 0 after
    rounding (offsets near -x0 are spaced by ulp(x0))."""
    return [math.ldexp(x0, -2 * k) - x0 for k in range(1, 20)]


def _window_breakpoints(x0, width, a, b):
    """Breakpoints of the window [a, b] in offsets t = x - x0: the spike
    ladder around t = 0 and, when the window starts at x = 0, the head
    ladder (_head_ladder)."""
    lo, hi = a - x0, b - x0
    pts = [lo, 0.0, hi] + quadlib.geometric_ladder(0.0, width, lo, hi)
    if a == 0.0:
        pts += _head_ladder(x0)
    return sorted(set(pts))


@lru_cache(maxsize=64)
def _spike_table(params: ModelParams, ff: Formfactor):
    """The spike window's Filon table (quadrature.FourierTable) in offsets
    t = x - x0 from the spike center: panels cut at the rungs
    +-(width/4) 2^j and, toward x = 0, at the head ladder, each refined
    to _TOL / 512 (a window holds 40 to 200 panels).  Memoized on
    (params, ff), built-in or custom."""
    x0, width = spectral_peak(params, ff)
    return quadlib.FourierTable(
        lambda t: spectral_density(params, ff, Offsets(x0, t)), width, x0,
        _head_ladder(x0), _TOL / 512)


def _amp_quadrature(params: ModelParams, ff: Formfactor, s: np.ndarray):
    """A(s) and error estimates for a 1-D array of dimensionless times
    s >= 0, in two steps.

    Plan: each time's pieces past s = 0: the spike window from the
    parameters' spike table (_spike_table), of reach D = max(80 width,
    40 pi / s) on either side of x0 snapped out to the table's next rung,
    or out to the head at x = 0 when the stretch [0, x0 - D] left of it
    holds at most _BYPARTS_FROM half periods past its first; the left
    part, by parts, when the window still leaves one; and the
    double-exponential tail from the window's right end.  The window and
    the tail are taken over the offset t = x - x0 from the spike center:
    Re eta is formed from t exactly (Offsets), the phase is exp(ist), and
    the global factor exp(isx0) is applied once (see the module
    docstring).  A time with s <= MOMENT_REACH / MOMENT_TOP (about
    2.7e-23), whose table core would overflow its moments, raises
    ConvergenceError.

    Execute: the mass integral A(0), for every zero time, is one
    quad_segments call of two real integrals in offsets, its body and
    tail split at X1 = max(x0 + 1e7 width, 1): the body's spike ladder
    reaches X1, and from x = 1 on the density varies on the unit scale of
    quad_tail's map, so the tail needs no bisection toward its start
    (from x0 + 1e7 width, about 2 x0 in the weak-coupling box, it took
    3-10 passes).  The windows are one contraction of the table, the
    tails one oscillatory_tail call and the left parts one
    oscillatory_finite call in absolute x.  Each time's integrals and
    table panels are its own, so its A and estimate depend only on the
    parameters, the weight and its s, not on the other times of the call
    or the calls before it."""
    x0, width = spectral_peak(params, ff)
    rho = lambda x: spectral_density(params, ff, x)
    rho_t = lambda t: spectral_density(params, ff, Offsets(x0, t))
    table = _spike_table(params, ff)

    # plan
    offs, err = np.zeros(s.shape, dtype=complex), np.zeros(s.shape)
    left = []                 # (time, window start a, reach D)
    windows = []              # (time, rung of its reach in the spike table,
                              #  start b - x0 of its right tail)
    for k, sk in enumerate(s.tolist()):
        if sk == 0.0:
            continue
        if sk * quadlib.MOMENT_TOP <= quadlib.MOMENT_REACH:
            # the table's core, of reach MOMENT_REACH / s, would overflow
            # its moments t^MOMENT_ORDER
            raise ConvergenceError("time too short for the spike table",
                                   achieved=math.inf)
        rung = table.rung(max(_SPIKE_HALFWIDTHS * width, 40.0 * math.pi / sk))
        # left of the window: out to the head in the table, unless more
        # than _BYPARTS_FROM half periods past the first are left, which
        # oscillatory_finite takes by parts
        if sk * (x0 - table.reach(rung)) / math.pi - 1.0 <= _BYPARTS_FROM:
            rung = max(rung, table.rung(x0))
        D = table.reach(rung)
        a, b = max(x0 - D, 0.0), x0 + D
        if a > 0.0:
            left.append((k, a, D))
        windows.append((k, rung, b - x0))

    # execute
    zero = s == 0.0
    if zero.any():
        X1 = max(x0 + 1e7 * width, 1.0)
        v, e = quadlib.quad_segments(
            lambda t, o: rho_t(t),
            [_window_breakpoints(x0, width, 0.0, X1), [X1 - x0, math.inf]],
            epsabs=_TOL / 8)
        offs[zero], err[zero] = v.sum(), e.sum()
    if windows:
        k, rung, start = (np.array(v) for v in zip(*windows))
        for v, e in (table.integrals(s[k], rung),
                     quadlib.oscillatory_tail(rho_t, start, s[k])):
            offs[k] += v
            err[k] += e
    val = offs * np.exp(1j * s * x0)
    if left:
        k, a, D = (np.array(v) for v in zip(*left))
        v, e = quadlib.oscillatory_finite(rho, a, s[k], D, epsabs=_TOL / 8)
        val[k] += v
        err[k] += e
    return val, err


def survival_amplitude_quadrature(params: ModelParams, ff: Formfactor, t,
                                  with_error: bool = False):
    """Spectral-density Fourier engine for a time or an array of times,
    taken together through each integrator (_amp_quadrature); with_error
    adds the error estimates.  Raises ConvergenceError when an estimate
    is worse than 1e-7."""
    val, est = _engine(params, t, lambda s: _amp_quadrature(params, ff, s),
                       "oscillatory quadrature")
    return (val, est) if with_error else val


# ---------------------------------------------------------------------------
# phi1 exact engine
# ---------------------------------------------------------------------------

def survival_amplitude_phi1_exact(params: ModelParams, t):
    """A(t) for a time or an array of times."""
    from scipy.special import wofz

    def body(s):
        roots = _roots_cached(params, builtin(PHI1))
        zs = np.array([r.z for r in roots])
        us = np.array([-_sqrt_upper(z) for z in zs])
        ws = np.array([r.residue_weight for r in roots])
        beta = cmath.exp(3j * math.pi / 4) * us * np.sqrt(s)[:, None]
        # below the real axis w(b) = 2 exp(izs) - w(-b), exp(izs) from z
        below = beta.imag < 0.0
        w = wofz(np.where(below, -beta, beta))
        w[below] = 2.0 * np.exp(np.multiply.outer(s, 1j * zs)[below]) - w[below]
        return 0.5 * (ws * w).sum(axis=1), None
    return _engine(params, t, body, "phi1 closed form")[0]


# ---------------------------------------------------------------------------
# phi2 pole engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _phi2_table(params: ModelParams):
    """The background's node table: breakpoints at 0.5, 1, 2, 4, 6 and
    10, a ladder 1 +- d 2^k (k >= 0, d = sqrt(pi) lambda / 2) out to 0.5
    and 2 around w's feature at x = 1, a tail from x = 10 (which the
    table starts split in u, see quadrature.LaplaceTable), and a ladder
    0.5 / 2^k toward x = 0 down to 1e-15, which resolves exp(-xs) up to
    s ~ 1e14.  These are the splits that bisection would reach, so a
    cold build on the sweep box and at quantum-dot takes one
    Gauss-Kronrod pass."""
    ff = builtin(PHI2)
    rungs = math.sqrt(math.pi) / 2 * params.coupling * 2.0 ** np.arange(64)
    segs = [0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0]
    segs += (1 - rungs[rungs < 0.5]).tolist()
    segs += (1 + rungs[rungs < 1.0]).tolist()
    segs += (0.5 * 2.0 ** -np.arange(1, 50)).tolist()
    segs = sorted(segs)
    return quadlib.LaplaceTable(
        lambda x: background_weight(params, ff, x), segs, epsabs=1e-14)


def survival_amplitude_phi2(params: ModelParams, t, with_error: bool = False):
    """A(t) for a time or an array of times: the poles plus -g2 times the
    background integral, which the parameters' node table takes on its
    fixed nodes for every time at once (_phi2_table); with_error adds the
    error estimate of the background integral.  Raises ConvergenceError
    when an estimate is worse than 1e-7."""
    def body(s):
        roots = [r for r in _roots_cached(params, builtin(PHI2))
                 if r.contributing]
        z = np.array([r.z for r in roots], dtype=complex)
        w = np.array([r.residue_weight for r in roots], dtype=complex)
        poles = (w * np.exp(np.multiply.outer(s, 1j * z))).sum(axis=1)
        bg, err = _phi2_table(params).integrals(s)
        return poles - params.coupling_sq * bg, params.coupling_sq * err
    val, est = _engine(params, t, body, "phi2 background integral")
    return (val, est) if with_error else val


# ---------------------------------------------------------------------------
# the engines' boundary, probability, engine dispatch, deficits
# ---------------------------------------------------------------------------

def _engine(params: ModelParams, t, body, what: str):
    """(A, its error estimates or None) for a time or an array of times,
    from body(s) on the 1-D array s = cutoff * t, or at zero coupling free
    evolution exp(i omega_ratio s) with zero estimates.  Raises
    ConvergenceError, naming the engine by what, when an estimate is
    worse than 1e-7 or a value or estimate is not finite."""
    ts, scalar = _times(t)
    s = params.cutoff * ts
    if params.coupling_sq == 0.0:
        val, est = np.exp(1j * params.omega_ratio * s), np.zeros(s.shape)
    else:
        val, est = body(s)
        worst = 0.0 if est is None else est.max(initial=0.0)
        if not np.isfinite(val).all():
            worst = math.inf
        if not worst <= 1e-7:                 # a nan estimate fails too
            raise ConvergenceError(f"{what} accuracy not reached",
                                   achieved=float(worst))
    return _unwrap(val, scalar), None if est is None else _unwrap(est, scalar)


def _times(t):
    """(1-D float array of the times, whether t was a single time)."""
    ts = np.asarray(t, dtype=float)
    if not ((ts >= 0) & (ts < math.inf)).all():
        raise ValueError("time must be nonnegative and finite")
    return ts.reshape(-1), ts.ndim == 0


def _unwrap(values, scalar):
    return values[0].item() if scalar else values


def _abs2(a):
    """|a|^2 for a complex array.  abs() of a Python complex is the C
    library's hypot of its parts, as np.hypot is; numpy's complex abs
    differs from both in the last bit."""
    return np.hypot(a.real, a.imag) ** 2


def _amplitude(params: ModelParams, ff: Formfactor, t, eng: Engine):
    """(A, its error estimate or None) for a time or an array of times:
    the one map from an amplitude Engine to its function, looked up by
    name at each call, so that a wrapper rebound in its place sees it."""
    if eng is Engine.QUADRATURE:
        return survival_amplitude_quadrature(params, ff, t, with_error=True)
    if eng is Engine.PHI2_POLES:
        return survival_amplitude_phi2(params, t, with_error=True)
    if eng is Engine.PHI1_EXACT:
        return survival_amplitude_phi1_exact(params, t), None
    raise EngineMismatchError(f"{eng.value} does not produce an amplitude")


def survival_amplitude(params: ModelParams, ff: Formfactor, t,
                       engine: Engine = Engine.AUTO):
    """A(t) for a time or an array of times."""
    return _amplitude(params, ff, t, resolve_engine(ff, engine))[0]


def _probability(params: ModelParams, ff: Formfactor, t, eng: Engine):
    """(p, its error estimate or None) for a time or an array of times:
    |A|^2 of the amplitude engine eng, whose estimate is doubled for p."""
    ts, scalar = _times(t)
    amp, est = _amplitude(params, ff, ts, eng)
    return (_unwrap(_abs2(amp), scalar),
            None if est is None else _unwrap(2.0 * est, scalar))


def survival_probability(params: ModelParams, ff: Formfactor, t,
                         engine: Engine = Engine.AUTO):
    """p(t) = |A(t)|^2 for a time or an array of times, from any engine."""
    return _probability(params, ff, t, resolve_engine(ff, engine))[0]


def _on_kernel(params: ModelParams, t):
    """Whether the deficit at time(s) t comes from the cancellation-free
    kernel (s <= 1) rather than from 1 - p."""
    return params.cutoff * t <= 1.0


def survival_deficit(params: ModelParams, ff: Formfactor, t):
    """1 - p(t), accurate in relative terms even when it underflows the
    absolute tolerance of the amplitude engines (short-time regime), for a
    time or an array of times.  Raises ConvergenceError when the kernel's
    estimate of a deficit exceeds 1e-8 of it."""
    ts, scalar = _times(t)
    out = np.zeros(ts.shape)
    if params.coupling_sq != 0.0:
        s = params.cutoff * ts
        late = ~_on_kernel(params, ts)
        if late.any():
            out[late] = 1.0 - survival_probability(params, ff, ts[late])
        short = (s > 0.0) & ~late
        if short.any():
            val, est = _deficit_kernel(params, ff, s[short])
            bad = ~(est <= 1e-8 * val)
            if bad.any():
                raise ConvergenceError("deficit kernel accuracy not reached",
                                       achieved=float(np.max(est[bad] / val[bad])))
            out[short] = val
    return _unwrap(out, scalar)


# the kernel's spike region |x - x0| <= delta, with |st| <= 1/4 for s <= 1:
# its moments M_1..M_J, J = MOMENT_ORDER (even), leave a rest < 3e-20 Re D
_SPIKE_REACH = quadlib.MOMENT_REACH
_THIRDS_FROM = 16.0    # the kernel's range is cut in thirds of octaves past this
# at or below this s the kernel raises: its nodes, out to about 2^27 / s, pass
# where the density overflows (Re eta^2 past x = 2^512); the presets and the
# sweep box run clean to 2^-489
_KERNEL_FLOOR = 2.0 ** -484


@lru_cache(maxsize=64)
def _spike_moments(params: ModelParams, ff: Formfactor):
    """M_j = int rho t^j dt over the spike region, t = x - x0 in
    [max(-x0, -delta), delta], for j = 1..MOMENT_ORDER, and their error
    estimates.  The halves of the region, t < 0 and t > 0, are two
    integrals of one quad_segments call in exact offsets (Offsets) with a
    column per j: there t^j keeps its sign, so every column is held to
    1e-12 of itself.  Memoized on (params, ff), built-in or custom."""
    x0, width = spectral_peak(params, ff)
    pts = _window_breakpoints(x0, width, max(x0 - _SPIKE_REACH, 0.0),
                              x0 + _SPIKE_REACH)
    j = np.arange(1, quadlib.MOMENT_ORDER + 1)
    f = lambda t, k: (spectral_density(params, ff, Offsets(x0, t))[:, None]
                      * t[:, None] ** j)
    val, err = quadlib.quad_segments(f, [[p for p in pts if p <= 0.0],
                                         [p for p in pts if p >= 0.0]],
                                     epsabs=0.0, columns=j.size)
    return val[0] + val[1], err[0] + err[1]


def _tail_splits(s, x0):
    """Where each column of the kernel hands over to its double-exponential
    tail: past 30/s, _X_FAR and 2 x0, rounded up to a power of two, so
    that a batch of times shares a few breakpoints."""
    X1 = np.maximum(np.maximum(_X_FAR, 30.0 / s), 2.0 * x0)
    return np.exp2(np.ceil(np.log2(X1)))


def _range_breakpoints(a, b, X1):
    """Breakpoints of the kernel's range: [0, a] with a ladder toward the
    head when the spike region leaves one, then [b, max X1] at every split
    and every octave 2^k, in thirds 2^(k + j/3) past _THIRDS_FROM.  A
    column turns through at most 30 rad an octave below its split (32 rad
    for s <= 1 below 64), so a third holds about two periods, which the
    21-point rule takes to 1e-12 without bisection."""
    top = X1.max()
    grid = 2.0 ** np.arange(-2.0, np.log2(top))
    grid = np.concatenate([grid[grid < _THIRDS_FROM], np.multiply.outer(
        grid[grid >= _THIRDS_FROM], 2.0 ** (np.arange(3) / 3)).ravel()])
    segs = [b, *np.union1d(grid[(grid > b) & (grid < top)], X1)]
    if a > 0.0:
        segs = [0.0, *quadlib.geometric_ladder(0.0, a * 4.0 ** -6, 0.0, a)] + segs
    return segs


def _deficit_kernel(params: ModelParams, ff: Formfactor, s: np.ndarray):
    """2 Re D - |D|^2 with D = int rho (1 - exp(is(x - x0))) dx for each
    s <= 1, and the error estimates.

    Anchoring the phase at the spike center removes the mean-frequency
    phase from D, so no catastrophic cancellation occurs between the two
    terms.  D has three parts:

    * the spike region |x - x0| <= delta: -sum_j (is)^j M_j / j! from the
      cached spike moments (_spike_moments), free of cancellation since
      |st| <= 1/4;
    * the rest of the range up to the column's split X1_k (_tail_splits),
      one quad_segments call shared by every s, with a real column for
      Re D, rho 2 sin^2(s(x - x0)/2), and one for Im D,
      -rho sin(s(x - x0)); past X1_k the real column carries the plain
      mass rho, which one quad_tail from the largest split completes;
    * minus int_X1^inf rho exp(is(x - x0)) dx, the tails of all columns in
      one call of quadrature.oscillatory_tail, in offsets.

    Every column is held to 1e-12 of itself.  The estimates of the parts
    add up to e_re for Re D and e_im for Im D, and the deficit's estimate
    is 2 (1 + |Re D|) e_re + 2 |Im D| e_im.
    """
    if s.min() <= _KERNEL_FLOOR:
        raise ConvergenceError("time too short for the deficit kernel")
    rho = lambda x: spectral_density(params, ff, x)
    x0, _ = spectral_peak(params, ff)
    m = s.size

    # the spike region.  For j > J, |t|^j <= delta^(j-J) t^J, so the rest
    # of the series is below e^(s delta) s^(J+1) delta M_J / (J+1)!
    moments, moment_err = _spike_moments(params, ff)
    j = np.arange(1, quadlib.MOMENT_ORDER + 1)
    terms = np.power.outer(s, j) / np.cumprod(j)          # s^j / j!
    d = terms @ (-np.array([1.0, 1j, -1.0, -1j])[j % 4] * moments)
    rem = (np.exp(s * _SPIKE_REACH) * s ** (j[-1] + 1) * _SPIKE_REACH
           * moments[-1] / math.factorial(j[-1] + 1))
    odd = j % 2 == 1                                     # the terms of Im D
    err_re = terms[:, ~odd] @ moment_err[~odd] + rem
    err_im = terms[:, odd] @ moment_err[odd] + rem

    # the rest of the range, with (a, b) left out when [0, a] is a head
    a, b = max(x0 - _SPIKE_REACH, 0.0), x0 + _SPIKE_REACH
    X1 = _tail_splits(s, x0)

    def body(x):
        r = rho(x)
        if a > 0.0:
            r[(x > a) & (x < b)] = 0.0
        # phases only for the columns split past some node of this call;
        # past X1_k the real column is rho and the imaginary one 0
        out = np.zeros((x.size, 2 * m))
        out[:, :m] = r[:, None]
        act = X1 > x.min()
        theta = np.multiply.outer(x - x0, s[act])
        near = np.less.outer(x, X1[act])
        rc = r[:, None]
        out[:, :m][:, act] = np.where(near, 2.0 * rc * np.sin(0.5 * theta) ** 2, rc)
        out[:, m:][:, act] = np.where(near, -rc * np.sin(theta), 0.0)
        return out

    val, e = quadlib.quad_segments(body, _range_breakpoints(a, b, X1),
                                   epsabs=0.0, columns=2 * m)
    # the mass past X in y = x/X - 1: the density varies on the scale X,
    # quad_tail's map on the unit scale
    X = X1.max()
    mass, e_mass = quadlib.quad_tail(lambda y: X * rho(X * (1.0 + y)), 0.0,
                                     epsabs=0.0)
    osc, e_osc = quadlib.oscillatory_tail(
        lambda t: spectral_density(params, ff, Offsets(x0, t)), X1 - x0, s)
    re_d = d.real + val[:m] + mass.real - osc.real
    im_d = d.imag + val[m:] - osc.imag
    val = 2.0 * re_d - re_d * re_d - im_d * im_d
    err_re += e[:m] + e_mass + e_osc
    err_im += e[m:] + e_osc
    return val, 2.0 * (1.0 + np.abs(re_d)) * err_re + 2.0 * np.abs(im_d) * err_im


def log_survival(params: ModelParams, ff: Formfactor, t):
    """ln p(t) without underflow for small deficits, for a time or an
    array of times."""
    ts, scalar = _times(t)
    out = np.empty(ts.shape)
    short = _on_kernel(params, ts)
    late = ~short
    if short.any():
        out[short] = [-math.inf if d >= 1.0 else math.log1p(-d)
                      for d in survival_deficit(params, ff, ts[short]).tolist()]
    if late.any():
        out[late] = [math.log(p) if p > 0.0 else -math.inf
                     for p in survival_probability(params, ff, ts[late]).tolist()]
    return _unwrap(out, scalar)


# ---------------------------------------------------------------------------
# short-time expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShortTimeExpansion:
    """Leading terms of p(t) near t = 0.

    p = 1 - (t/t_a)^s + (t/t_b)^q + [log-corrected quartic], with the
    pairing (s, q) = (1.5, 2) for the sqrt-head weight and (2, 4)
    otherwise; the Lorentzian-squared weight replaces the (t/t_b)^q term
    by -log_coefficient * ln(log_frequency * t) * t^4, in the deficit
    (g2/12) s^4 (ln s + c) with c = gamma_E - 19/12, the first-order
    deficit's constant as omega1/cutoff -> 0 (-0.990 at 1e-2).
    validity_time is the paper's t_Z and the package's one Zeno time
    (Timescales.t_z; the CLI curve grid and the protocol scans take it).
    """

    leading_exponent: float
    t_a: float
    t_b: Optional[float]
    log_coefficient: Optional[float]
    log_frequency: Optional[float]
    validity_time: float

    @property
    def has_log_correction(self) -> bool:
        return self.log_coefficient is not None

    def deficit(self, t):
        """1 - p for a time or an array of times; t^4 ln t is 0 at t = 0."""
        ts, scalar = _times(t)
        out = (ts / self.t_a) ** self.leading_exponent
        if self.has_log_correction:     # libm's log: numpy's may differ by an ulp
            logs = [math.log(self.log_frequency * t) if t > 0 else 0.0
                    for t in ts.tolist()]
            out += self.log_coefficient * (ts ** 4 * np.array(logs))
        elif self.t_b is not None:
            q = 2.0 if self.leading_exponent == 1.5 else 4.0
            out -= (ts / self.t_b) ** q
        return _unwrap(out, scalar)

    def evaluate(self, t):
        """p for a time or an array of times."""
        return 1.0 - self.deficit(t)


def short_time_expansion(params: ModelParams, ff: Formfactor) -> ShortTimeExpansion:
    if params.coupling_sq == 0.0:
        raise ValueError("coupling_sq = 0: free evolution has no short-time expansion")
    lam = params.coupling
    cut = params.cutoff
    if ff.id == PHI1:
        t_a = (3.0 / (4.0 * math.sqrt(2 * math.pi))) ** (2.0 / 3.0) \
            / (lam ** (4.0 / 3.0) * cut)
        t_b = 1.0 / (math.sqrt(math.pi) * lam * cut)
        # t_Z = t_b^4 / t_a^3, where (t/t_a)^1.5 and (t/t_b)^2 balance
        return ShortTimeExpansion(1.5, t_a, t_b, None, None,
                                  32.0 / (9.0 * math.pi * cut))
    if ff.id == PHI2:
        t_a = math.sqrt(2.0) / (lam * cut)
        coeff = params.coupling_sq * cut ** 4 / 12.0
        arg = 2.0 * math.sqrt(6) * params.omega_ratio
        t_z = math.sqrt(6) / (cut * math.sqrt(abs(math.log(arg))))
        log_frequency = cut * math.exp(np.euler_gamma - 19.0 / 12.0)
        return ShortTimeExpansion(2.0, t_a, None, coeff, log_frequency, t_z)

    i0 = moment(ff, 0)
    if i0 is DIVERGENT:
        raise ExpansionUnavailableError("I0 = int phi dx")
    i2 = moment(ff, 2)
    if i2 is DIVERGENT:
        raise ExpansionUnavailableError("I2 = int x^2 phi dx")
    g2 = params.coupling_sq
    t_a = 1.0 / (lam * cut * math.sqrt(i0))
    i1 = moment(ff, 1)
    phi_sq = squared_norm(ff)
    if i1 is not DIVERGENT and phi_sq is not DIVERGENT:
        inv_tb4 = (g2 * (params.omega1 ** 2 * cut ** 2 * i0 / 12.0
                         - params.omega1 * cut ** 3 * i1 / 6.0
                         + cut ** 4 * i2 / 12.0)
                   + g2 * g2 * cut ** 4 * (i0 * i0 / 4.0 + phi_sq / 12.0))
    elif params.weak_coupling:
        inv_tb4 = g2 * cut ** 4 * i2 / 12.0
    else:
        name = "I1" if i1 is DIVERGENT else "int phi^2 dx"
        raise ExpansionUnavailableError(name)
    # t_Z balances the quadratic term against the quartic's g2 I2 part
    return ShortTimeExpansion(2.0, t_a, inv_tb4 ** -0.25, None, None,
                              math.sqrt(12.0 * i0 / i2) / cut)


# ---------------------------------------------------------------------------
# long-time asymptote
# ---------------------------------------------------------------------------

# the asymptote is warned below these times, in units of 1/omega1
_VALID_FROM = {PHI1: 24.0, PHI2: 4.0, PHI3: 4.0}


def _asymptote(params: ModelParams, ff: Formfactor, s):
    """(pole term, power term) of A(s) at late s > 0, a number or an array.
    The pole term is the decaying root's W exp(izs); the power term is
    Watson's lemma on the weight's head phi ~ x^a, g2 Gamma(a+1) i^(a+1)
    s^-(a+1) / m^2 with m the bound-state margin eta_I(0) (Fonda, Ghirardi
    & Rimini, Rep. Prog. Phys. 41 (1978) 587).  The head coefficient is 1
    for every built-in weight; a custom weight has no roots and raises."""
    if not np.all(s > 0.0):
        raise ValueError("the long-time asymptote needs a time t > 0")
    res = decaying_resonance(params, ff)
    pole = res.residue_weight * np.exp(1j * res.z * s)
    a, m = ff.head_exponent, bound_state_margin(params, ff)
    tail = (params.coupling_sq * math.gamma(a + 1) * 1j ** (a + 1) / (m * m)
            * s ** -(a + 1))
    return pole, tail


def long_time_asymptote(params: ModelParams, ff: Formfactor, t):
    """|pole + tail|^2 for a time or an array of times t > 0: exponential,
    power law and their oscillatory cross term (_asymptote).  Warns once,
    naming the earliest time, if any lies below the validity threshold."""
    ts, scalar = _times(t)
    pole, tail = _asymptote(params, ff, params.cutoff * ts)
    threshold = _VALID_FROM[ff.id] / params.omega1
    if (ts < threshold).any():
        warnings.warn(
            f"long-time asymptote evaluated at t={ts.min():.3g}s below its "
            f"validity threshold {threshold:.3g}s", stacklevel=2)
    return _unwrap(_abs2(pole + tail), scalar)


def asymptote_terms(params: ModelParams, ff: Formfactor, t):
    """(exponential term, power term) of the asymptote, |pole|^2 and
    |tail|^2 of _asymptote, for a time or an array of times t > 0."""
    ts, scalar = _times(t)
    pole, tail = _asymptote(params, ff, params.cutoff * ts)
    return _unwrap(_abs2(pole), scalar), _unwrap(_abs2(tail), scalar)


# ---------------------------------------------------------------------------
# curve sampling
# ---------------------------------------------------------------------------

@dataclass
class SurvivalCurve:
    params: ModelParams
    formfactor_id: str
    engine: Engine
    times: np.ndarray          # seconds, strictly increasing
    probabilities: np.ndarray
    error_estimates: np.ndarray
    decay_time: Optional[float] = None
    clamped: bool = False

    EPS = 1e-8

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("curve times must be strictly increasing")
        low, high = -self.EPS, 1.0 + self.EPS
        if np.any(self.probabilities < low) or np.any(self.probabilities > high):
            raise ValueError("probability outside [0,1] beyond tolerance")
        out = np.clip(self.probabilities, 0.0, 1.0)
        self.clamped = bool(np.any(out != self.probabilities))
        self.probabilities = out


def sample_curve(params: ModelParams, ff: Formfactor, times,
                 engine: Engine = Engine.AUTO,
                 decay_time: Optional[float] = None) -> SurvivalCurve:
    """p on the sorted distinct times, from one call of the engine, with
    an error estimate per time: twice the amplitude estimate for the
    quadrature engine and for phi2-poles (its background integral).
    Only phi1-exact carries no estimate, and reports the placeholder
    1e-12."""
    eng = resolve_engine(ff, engine)
    times = np.asarray(sorted(set(float(t) for t in times)))
    ps, est = _probability(params, ff, times, eng)
    errs = np.full(times.shape, 1e-12) if est is None else est
    return SurvivalCurve(params, ff.id, eng, times, ps, errs,
                         decay_time=decay_time)
