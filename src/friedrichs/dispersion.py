"""Resolvent denominator on both Riemann sheets and its resonance roots.

For coupling weight phi and dimensionless detuning w = omega1/cutoff the
first-sheet function is

    eta_I(z) = w - z - g2 * int_0^inf phi(x)/(x - z) dx,   z off [0, inf),

with g2 the squared coupling.  Boundary values from below the cut are
Re eta(y) + i*pi*g2*phi(y), Re eta from dispersion_real_part; continued
upward through the cut they define the second sheet, in the upper half
plane

    eta_II(z) = eta_I(z) + 2*pi*i*g2*phi(z),

whose zeros in the first quadrant are the resonance poles that drive the
exponential decay era.  Conventions are anchored by two requirements:
the survival amplitude equals 1 at t = 0 and decays afterwards, which
puts the decaying poles in the upper half plane with time dependence
exp(i z s), s = cutoff * t.

Closed forms of the dispersion integral are used for the built-in
weights, both sheets from one body (_eta); custom weights fall back to
quadrature (on the cut pv_dispersion, one call for a whole array of y)
and do not support continuation.  The sheets differ only in a branch:
phi1's F(z) = pi/(1 - i u) takes u = sqrt z with Im u >= 0 on sheet I
and its negative on sheet II.  phi2 and phi3, x/(1+x^2)^n, are one table
entry (n, c, p): F(z) = (p(z) - c z L)/(c (1+z^2)^n), where L = log y
gives P(y) on the cut, log(-z) the first sheet and log z + i*pi the
second.  That form of eta_II is analytic across the positive axis (below
it, it is eta_I), so Newton and the residue weights -1/eta_II' take its
exact derivative; no difference stencil straddles the branch point 0
near the bound-state edge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import BoundStateError, ContinuationUnsupportedError, ConvergenceError
from .formfactors import (_TAIL_FROM, PHI1, PHI2, PHI3, Formfactor,
                          ModelParams, bound_state_margin)
from .quadrature import pv_dispersion, quad_complex


class RootKind(Enum):
    RESONANCE = "resonance"  # near the real axis
    CUTOFF = "cutoff"        # near the cutoff scale, |z| ~ 1


@dataclass(frozen=True)
class ResonanceRoot:
    z: complex
    residue_weight: complex
    kind: RootKind
    contributing: bool


def _sqrt_upper(z: complex) -> complex:
    """Branch of sqrt(z) with nonnegative imaginary part (first sheet of
    the sqrt(z) plane; positive real axis maps to itself)."""
    w = cmath.sqrt(z)
    if w.imag < 0:
        w = -w
    return w


# ---------------------------------------------------------------------------
# closed-form dispersion integrals  F(z) = int phi(x)/(x-z) dx
# ---------------------------------------------------------------------------

# phi2 and phi3 as (n, c, p), p's coefficients highest power first
_RATIONAL = {
    PHI2: (2, 4.0, (-2.0, -math.pi, -2.0, math.pi)),
    PHI3: (4, 96.0, (-16.0, -3 * math.pi, -72.0, -15 * math.pi, -144.0,
                     -45 * math.pi, -88.0, 15 * math.pi)),
}


def _horner(coeffs, z):
    acc = coeffs[0]
    for a in coeffs[1:]:
        acc = acc * z + a
    return acc


def _rational(ff_id, z, L):
    """(p(z) - c z L, c, h), F = num / (c h^2) with h = (1+z^2)^(n/2)
    formed by squaring.  P(y) divides by (c h) h and the complex forms by
    c (h h): the groupings round differently, and these keep the level
    shift and the preset roots to the last bit."""
    n, c, coeffs = _RATIONAL[ff_id]
    h = 1 + z * z
    if n == 4:
        h = h * h
    return _horner(coeffs, z) - c * z * L, c, h


def _num_den(ff_id, z, L):
    """Numerator and denominator c (1+z^2)^n of F off the cut."""
    num, c, h = _rational(ff_id, z, L)
    return num, c * (h * h)


def _eta(params: ModelParams, ff: Formfactor, z: complex, second: bool):
    """eta_I(z) off the cut, or eta_II(z) when `second`, by the built-in
    weight's closed form (module docstring), or None for a custom weight,
    which has no closed form."""
    w, g2 = params.omega_ratio, params.coupling_sq
    if ff.id == PHI1:
        u = _sqrt_upper(z)
        return w - z - g2 * (math.pi / (1.0 - 1j * (-u if second else u)))
    if ff.id in _RATIONAL:  # each L is analytic on its sheet's domain
        L = cmath.log(z) + 1j * math.pi if second else cmath.log(-z)
        num, den = _num_den(ff.id, z, L)
        return w - z - g2 * (num / den)
    return None


def eta_first_sheet(params: ModelParams, ff: Formfactor, z: complex) -> complex:
    """eta on the first sheet, z off the cut [0, inf); a custom weight's
    dispersion integral by quadrature."""
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError("z lies on the continuum cut")
    eta = _eta(params, ff, z, False)
    if eta is not None:
        return eta
    # the contour never touches the cut
    val, err = quad_complex(lambda x: ff(x) / (x - z), 0.0, math.inf)
    if err > 1e-8:
        raise ConvergenceError("dispersion integral did not converge",
                               achieved=err)
    return params.omega_ratio - z - params.coupling_sq * val


def _level_shift(ff: Formfactor, g2: float, y: np.ndarray) -> np.ndarray:
    """g2 * P(y), P(y) = PV int phi(x)/(x-y) dx: closed forms for built-ins,
    otherwise one pv_dispersion call on the whole array."""
    if ff.id == PHI1:
        return math.pi * g2 / (1.0 + y)
    if ff.id in _RATIONAL:
        if y.max(initial=0.0) > _TAIL_FROM:
            # there P(y) is -int phi / y to double, int phi = 1 / (2 (n - 1)),
            # as phi is its tail power; c (1 + y^2)^n overflows from 2^127 (phi3)
            big, out = y > _TAIL_FROM, np.empty(y.shape)
            out[big] = g2 * (-0.5 / (_RATIONAL[ff.id][0] - 1) / y[big])
            out[~big] = _level_shift(ff, g2, y[~big])
            return out[()]
        num, c, h = _rational(ff.id, y, np.log(y))
        return g2 * num / (c * h * h)
    return g2 * pv_dispersion(ff, y)


class Offsets:
    """Points x = center + t given by a float center and offsets t from it.

    On a feature far narrower than its distance from 0, such as the
    resonance spike of the density, rounded absolute x cannot place points
    finely enough; the offsets can, and dispersion_real_part forms Re eta
    from them exactly.  `size` is the number of points, as for an array.
    (A plain slotted class: a frozen dataclass costs 0.5 ms at import.)"""

    __slots__ = ("center", "t", "x")

    def __init__(self, center: float, t: np.ndarray):
        self.center, self.t = center, t
        self.x = center + t

    @property
    def size(self) -> int:
        return self.t.size


def dispersion_real_part(params: ModelParams, ff: Formfactor, y) -> np.ndarray:
    """Re eta on the cut: omega_ratio - y - g2 * P(y) with
    P(y) = PV int phi/(x-y) dx.

    Vectorized over y; closed forms for built-ins, pv_dispersion
    otherwise.  y may be Offsets, center + t: then the linear part is
    (omega_ratio - center) - t, exact in t, and only P, smooth on the
    scale of y, sees the rounded points.
    """
    w, g2 = params.omega_ratio, params.coupling_sq
    if isinstance(y, Offsets):
        ys, linear = y.x, (w - y.center) - y.t
    else:   # a single point as a numpy scalar: 0-d array arithmetic is slower
        ys = np.asarray(y, dtype=float)[()]
        linear = w - ys
    return linear - _level_shift(ff, g2, ys)


def eta_second_sheet(params: ModelParams, ff: Formfactor, z: complex) -> complex:
    """eta continued upward through the cut, eta_I + 2*pi*i*g2*phi(z) in the
    upper half plane; ContinuationUnsupportedError for a custom weight."""
    eta = _eta(params, ff, complex(z), True)
    if eta is None:
        raise ContinuationUnsupportedError(
            f"no analytic continuation for formfactor {ff.id!r}")
    return eta


def _eta_second_sheet_prime(params, ff, z):
    """d(eta_II)/dz = -1 - g2 F' for phi2 and phi3, exact: with u = 1 + z^2
    and dL/dz = 1/z,
    F' = (p' - c L - c)/(c u^n) - 2 n z (p - c z L)/(c u^(n+1))."""
    z = complex(z)
    n, c, coeffs = _RATIONAL[ff.id]
    L = cmath.log(z) + 1j * math.pi
    deg = len(coeffs) - 1
    dp = _horner([a * (deg - k) for k, a in enumerate(coeffs[:-1])], z)
    num, den = _num_den(ff.id, z, L)
    dF = (dp - c * L - c) / den - 2 * n * z * num / (den * (1 + z * z))
    return -1.0 - params.coupling_sq * dF


def background_weight(params: ModelParams, ff: Formfactor, x) -> np.ndarray:
    """x / ((1 - x^2)^n eta_I(ix) eta_II(ix)) at nodes x > 0 for phi2 and
    phi3, the s-free weight of the background -g2 int_0^inf w(x) exp(-xs) dx
    that rotating the contour onto the positive imaginary axis leaves.
    Formed as c^2 x (1 - x^2)^n / (N_I N_II), N = c (1 + z^2)^n eta at
    z = ix, polynomial but for L = log x - i*pi/2 on sheet I (2*pi*i more
    on sheet II): no negative power of 1 - x^2 is formed near x = 1."""
    z, g2 = 1j * x, params.coupling_sq
    num, den = _num_den(ff.id, z, np.log(x) - 0.5j * math.pi)
    c = _RATIONAL[ff.id][1]
    n_first = den * (params.omega_ratio - z) - g2 * num
    n_second = n_first - 2 * math.pi * g2 * c * x
    return c * x * den.real / (n_first * n_second)


def _newton_polish(params, ff, seed):
    z = complex(seed)
    for _ in range(100):
        fz = eta_second_sheet(params, ff, z)
        dz = fz / _eta_second_sheet_prime(params, ff, z)
        z -= dz
        if abs(dz) < 1e-15 * (1.0 + abs(z)):
            return z
    resid = abs(eta_second_sheet(params, ff, z))
    if resid < 1e-12 * max(1.0, params.omega_ratio):
        return z
    raise ConvergenceError("root polishing did not converge",
                           last_iterate=z, residual=resid)


def _classify(z: complex) -> RootKind:
    if abs(z.imag) < 0.1 * (1.0 + abs(z.real)) and z.real > 0:
        return RootKind.RESONANCE
    return RootKind.CUTOFF


def _phi1_cubic_roots(params) -> np.ndarray:
    """Roots (in u = sqrt z on the second-sheet branch) of
    (w - u^2)(1 - iu) - pi*g2 = 0 via the companion matrix, then polished."""
    w, g2 = params.omega_ratio, params.coupling_sq
    coeffs = np.array([1.0, 1j, -w, -1j * (w - math.pi * g2)])
    roots = np.roots(coeffs)

    def C(u):
        return (w - u * u) * (1 - 1j * u) - math.pi * g2

    def dC(u):
        return -2 * u * (1 - 1j * u) - 1j * (w - u * u)

    for i, u in enumerate(roots):
        best, best_res = u, abs(C(u))
        for _ in range(100):
            du = C(u) / dC(u)
            u -= du
            res = abs(C(u))
            if res < best_res:
                best, best_res = u, res
            elif abs(du) < 1e-15 * (1.0 + abs(u)):
                break  # residual at its floating-point floor
        roots[i] = best
    return roots


@lru_cache(maxsize=64)
def _roots_cached(params: ModelParams, ff: Formfactor):
    """resonance_roots as a tuple, memoized on (params, ff); a raise is
    not memoized, so coincident roots raise on every call."""
    margin = bound_state_margin(params, ff)
    if margin <= 0:
        raise BoundStateError(margin)
    w, g2 = params.omega_ratio, params.coupling_sq
    if ff.id == PHI1:
        # W_k, the coefficient of exp(izs) once the pole's Faddeeva term
        # turns exponential, is -2 pi i g2 u_k / prod_m (z_k - z_m), z = u^2.
        # At a root of p(u) = u^3 + i u^2 - w u - i (w - pi g2) the u_k - u_m
        # multiply to p'(u_k) and the u_k + u_m to -pi g2 / (1 - i u_k); the
        # near roots' z_1 - z_2 would keep only eps w / g2 of its accuracy
        us = _phi1_cubic_roots(params)
        zs = us * us
        weights = 2j * us * (1 - 1j * us) / (3 * us * us + 2j * us - w)
        return tuple(ResonanceRoot(complex(z), complex(W), _classify(z), True)
                     for z, W in zip(zs, weights))

    if ff.id == PHI2:
        # the cutoff roots sit at i +- eps: near z = i, (1 + z^2)^2 is
        # -4 eps^2 and p(i) - c i L(i) = 8 pi (L(i) = 3 pi i / 2), so
        # eta_II = w - i + pi g2 / (2 eps^2) to leading order.  Its zeros,
        # |eps| = sqrt(pi/2) lambda about 45 degrees off the real axis,
        # are each Newton's nearest root in a few steps
        eps = cmath.sqrt(-math.pi * g2 / (2 * (w - 1j)))
        seeds = [w * (1 + 1j * math.pi * g2), 1j + eps, 1j - eps]
    else:   # PHI3: resonance_roots refuses custom weights
        c = math.sqrt(math.sqrt(g2)) * (math.pi / 8) ** 0.25
        seeds = [w * (1 + 1j * math.pi * g2),
                 1j * (1 - c * cmath.exp(1j * math.pi / 8)),
                 1j * (1 - c * cmath.exp(5j * math.pi / 8))]
    out = []
    for seed in seeds:
        z = _newton_polish(params, ff, seed)
        # two seeds converged onto one root would count its residue twice
        for r in out:
            if abs(r.z - z) < 1e-8 * (1.0 + abs(r.z)):
                raise ConvergenceError(
                    f"two Newton seeds converged onto one resonance root "
                    f"{r.z:.6g}", achieved=abs(r.z - z), last_iterate=r.z)
        weight = -1.0 / _eta_second_sheet_prime(params, ff, z)
        # poles in the first quadrant are enclosed by the deformed contour
        out.append(ResonanceRoot(complex(z), complex(weight),
                                 _classify(z), z.real > 0))
    return tuple(out)


def resonance_roots(params: ModelParams, ff: Formfactor):
    """Second-sheet zeros of eta, polished to |eta_II| < 1e-12.

    For the sqrt-head weight these are the squares of the three cubic
    roots; for the rational weights, Newton iterates from analytic seeds,
    and ConvergenceError is raised, on every call, when two of them
    coincide, |z_i - z_j| < 1e-8 (1 + |z_i|) (_roots_cached).
    """
    if not ff.is_builtin:
        raise ContinuationUnsupportedError(
            "resonance roots require an analytically continuable formfactor")
    return list(_roots_cached(params, ff))


def decaying_resonance(params: ModelParams, ff: Formfactor) -> ResonanceRoot:
    """The near-axis root with Im z > 0 (decaying pole in the exp(izs)
    convention); its real part is the shifted frequency."""
    cands = [r for r in resonance_roots(params, ff)
             if r.kind is RootKind.RESONANCE and r.z.imag > 0]
    if not cands:
        raise ConvergenceError("no decaying resonance root found")
    return max(cands, key=lambda r: r.z.real)


def spectral_density(params: ModelParams, ff: Formfactor, x) -> np.ndarray:
    """rho(x) = g2*phi / (Re_eta^2 + (pi*g2*phi)^2); integrates to 1 when
    no bound state is present.  x may be Offsets from a spike center."""
    xs = x.x if isinstance(x, Offsets) else np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("spectral density is defined for x > 0")
    g2 = params.coupling_sq
    ph = ff(xs)
    re = dispersion_real_part(params, ff, x)
    return g2 * ph / (re * re + (math.pi * g2 * ph) ** 2)


@lru_cache(maxsize=64)
def spectral_peak(params: ModelParams, ff: Formfactor):
    """Location and half-width of the resonance spike of the density:
    the zero of Re eta on the cut and pi*g2*phi there over |d Re eta/dx|.
    Memoized on (params, ff), built-in or custom.  At the true peak
    pi*width*rho(x0) is 1 up to O(g2); raises ConvergenceError when it is
    more than 0.1 from 1, a center the root finder left off the spike."""
    from scipy import optimize

    w = params.omega_ratio
    g2 = params.coupling_sq

    def R(x):
        return float(dispersion_real_part(params, ff, x))

    # one walk from w: up while R > 0, then down while R <= 0, to a
    # bracket [x, 2x]
    x_hi = w
    while R(x_hi) > 0:
        x_hi *= 2
        if x_hi > 1e12:
            raise ConvergenceError("no spectral peak below 1e12")
    x_lo = x_hi / 2
    while R(x_lo) <= 0:
        x_hi = x_lo
        x_lo /= 2
        if x_lo < 1e-300:
            raise BoundStateError(bound_state_margin(params, ff))
    x0 = optimize.brentq(R, x_lo, x_hi, rtol=1e-15)
    eps = x0 * 1e-6
    slope = (R(x0 + eps) - R(x0 - eps)) / (2 * eps)
    width = math.pi * g2 * float(ff(x0)) / abs(slope)
    miss = math.pi * width * float(spectral_density(params, ff, x0)) - 1.0
    if not abs(miss) <= 0.1:
        raise ConvergenceError("spectral peak off the spike", achieved=miss)
    return x0, width
