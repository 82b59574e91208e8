"""Dimensionless spectral coupling functions and physical parameters.

The coupling between the discrete state and the continuum enters only
through a nonnegative weight phi(x) of the dimensionless frequency
x = omega / cutoff.  Three built-in shapes are supported:

    phi1(x) = sqrt(x)/(1+x)        (half-power head, x^-1/2 tail)
    phi2(x) = x/(1+x^2)^2          (linear head, x^-3 tail)
    phi3(x) = x/(1+x^2)^4          (linear head, x^-7 tail)

plus user-supplied couplings, either as a callable or as a tabulated
(x, phi) file interpolated by a natural cubic spline in log-log space.

Which weighted integrals int x^p phi^q dx exist is decided from the
declared exponents, never from quadrature blow-up: with phi ~ x^b at the
head and x^-a at the tail, the integral is finite iff q b + p > -1 and
q a - p > 1 (_weighted_integral).  A NaN exponent, which no comparison
can place, is refused when the weight is made (ValueError); an infinite
one keeps its meaning: a +inf tail is faster than any power, and a -inf
end makes the integrals divergent.  A finite integral is quad_complex
from 0 to inf and raises ConvergenceError when it misses its error
bound.  A slow but integrable tail, r = q a - p < 3/2, is integrated in
y = x^(1/k), k = 1/(2 (r - 1)), where it decays as y^-3/2; every
built-in integral has r >= 3/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .quadrature import converged, quad_complex


class Sentinel:
    """A named marker value, such as DIVERGENT for a moment that does not
    exist: one object, tested with `is`, that copies return unchanged."""

    def __init__(self, name: str, truth: bool):
        self._name, self._truth = name, truth

    def __repr__(self):
        return self._name

    def __bool__(self):
        return self._truth

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


DIVERGENT = Sentinel("DIVERGENT", False)

PHI1 = "phi1"
PHI2 = "phi2"
PHI3 = "phi3"
CUSTOM = "custom"


def _phi1(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(x) / (1.0 + x)


_TAIL_FROM = 1e30      # _rational: past here x / (1 + x^2)^n rounds to x^(1-2n)


def _rational(x, n):
    """x / (1 + x^2)^n for n = 2 (phi2) and 4 (phi3); past _TAIL_FROM the
    tail power, where (1 + x^2)^n would overflow (n = 4: past about 1e38)."""
    x = np.asarray(x, dtype=float)
    if x.max(initial=0.0) > _TAIL_FROM:
        big = x > _TAIL_FROM
        out = np.empty(x.shape)
        out[big], out[~big] = x[big] ** (1.0 - 2 * n), _rational(x[~big], n)
        return out
    u = 1.0 + x * x
    u *= u
    if n == 4:
        u *= u
    return x / u


@dataclass(frozen=True)
class Formfactor:
    """A dimensionless coupling weight phi(x) on (0, inf).

    tail_exponent a means phi ~ C x^-a as x -> inf; head_exponent b means
    phi ~ C x^b as x -> 0.  Both are trusted metadata used to decide
    moment convergence and to pick integration maps.

    Equality takes in the evaluator, which the built-ins share, so every
    memo keyed on a Formfactor gives each custom weight its own entry; the
    hash leaves it out, so an unhashable callable still makes a weight.
    """

    id: str
    evaluator: Callable = field(hash=False)
    tail_exponent: float
    head_exponent: float

    def __call__(self, x):
        return self.evaluator(x)

    @property
    def is_builtin(self) -> bool:
        return self.id in (PHI1, PHI2, PHI3)

    @classmethod
    def from_callable(cls, func, tail_exponent, head_exponent) -> "Formfactor":
        """A weight from a callable; warns if its exponents do not fit."""
        ff = cls(CUSTOM, func, float(tail_exponent), float(head_exponent))
        _verify_declared_exponents(ff)
        return ff

    @classmethod
    def from_table(cls, path, tail_exponent, head_exponent) -> "Formfactor":
        """Tabulated (x, phi) columns; a natural cubic spline in
        (ln x, ln phi) inside the table (_natural_spline), declared power
        laws outside it, checked as from_callable's are.  Raises
        ValueError unless there are two rows or more, every x is finite,
        positive and distinct and every phi finite and positive."""
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] < 2:
            raise ValueError(f"expected two columns of (x, phi) in {path}")
        if data.shape[0] < 2:
            raise ValueError(f"expected two rows of (x, phi) or more in {path}")
        xs, ps = data[:, 0], data[:, 1]
        if not (np.isfinite(data[:, :2]).all() and np.all(xs > 0)
                and np.all(ps > 0)):
            raise ValueError("table must have finite x > 0 and phi > 0")
        order = np.argsort(xs)
        xs, ps = xs[order], ps[order]
        if np.any(xs[1:] == xs[:-1]):
            raise ValueError("table has a repeated x")
        lx = np.log(xs)
        spline = _natural_spline(lx, np.log(ps))
        tail, head = float(tail_exponent), float(head_exponent)

        def evaluator(x):
            x = np.asarray(x, dtype=float)
            out = np.exp(spline(np.clip(np.log(x), lx[0], lx[-1])))
            lo = x < xs[0]
            hi = x > xs[-1]
            if np.any(lo):
                out = np.where(lo, ps[0] * (x / xs[0]) ** head, out)
            if np.any(hi):
                out = np.where(hi, ps[-1] * (xs[-1] / x) ** tail, out)
            return out

        ff = cls(CUSTOM, evaluator, tail, head)
        _verify_declared_exponents(ff)
        return ff


def _natural_spline(u, v):
    """The natural cubic spline through (u_k, v_k), u increasing, as a
    function of an array of points in [u_0, u_-1]: its second derivatives
    m_k, zero at both ends, from one tridiagonal solve, then on each
    interval the cubic a v_k + b v_k+1 + ((a^3 - a) m_k + (b^3 - b) m_k+1)
    h_k^2 / 6, with b = 1 - a the fraction of the interval covered."""
    h = np.diff(u)
    m = np.zeros(u.size)
    # h_k-1 m_k-1 + 2 (h_k-1 + h_k) m_k + h_k m_k+1 = 6 (slope_k - slope_k-1)
    # for the inner k, by Gaussian elimination without pivoting
    diag, rhs = 2.0 * (h[:-1] + h[1:]), 6.0 * np.diff(np.diff(v) / h)
    for k in range(1, diag.size):
        w = h[k] / diag[k - 1]
        diag[k] -= w * h[k]
        rhs[k] -= w * rhs[k - 1]
    for k in range(diag.size - 1, -1, -1):
        m[k + 1] = (rhs[k] - h[k + 1] * m[k + 2]) / diag[k]

    def spline(t):
        k = np.minimum(u.searchsorted(t, side="right") - 1, u.size - 2)
        a = (u[k + 1] - t) / h[k]
        b = 1.0 - a
        return (a * v[k] + b * v[k + 1]
                + ((a ** 3 - a) * m[k] + (b ** 3 - b) * m[k + 1]) * h[k] ** 2 / 6.0)

    return spline


def _verify_declared_exponents(ff: Formfactor) -> None:
    """Trust but verify: raise ValueError for a NaN exponent, then fit the
    log-log slope of phi over two decades at each end and warn if a
    declared exponent is off by more than 0.1."""
    if math.isnan(ff.tail_exponent) or math.isnan(ff.head_exponent):
        raise ValueError("declared exponents must not be NaN")
    for end, lo, sign, declared in (("head", 1e-8, 1.0, ff.head_exponent),
                                    ("tail", 1e6, -1.0, ff.tail_exponent)):
        x = np.geomspace(lo, 100.0 * lo, 41)
        y = ff(x)
        if np.any(y <= 0):
            continue
        slope = sign * float(np.polyfit(np.log(x), np.log(y), 1)[0])
        if abs(slope - declared) > 0.1:
            warnings.warn(
                f"declared {end} exponent {declared} but fitted slope "
                f"{slope:.3f} over x in [{lo:g}, {100.0 * lo:g}]",
                stacklevel=3,
            )


# one shared instance per built-in weight: memo lookups match it by identity
_BUILTINS = {
    PHI1: Formfactor(PHI1, _phi1, tail_exponent=0.5, head_exponent=0.5),
    PHI2: Formfactor(PHI2, partial(_rational, n=2), tail_exponent=3.0,
                     head_exponent=1.0),
    PHI3: Formfactor(PHI3, partial(_rational, n=4), tail_exponent=7.0,
                     head_exponent=1.0),
}


def builtin(name: str) -> Formfactor:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown built-in formfactor {name!r}") from None


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: cutoff and excitation frequency in s^-1,
    positive and finite, and the squared coupling, dimensionless, in
    (0, 1): at zero coupling nothing decays, so it is refused here."""

    cutoff: float
    omega1: float
    coupling_sq: float

    def __post_init__(self):
        if not 0 < self.cutoff < math.inf:
            raise ValueError("cutoff must be positive and finite")
        if not 0 < self.omega1 < math.inf:
            raise ValueError("omega1 must be positive and finite")
        if not 0 < self.coupling_sq < 1:
            raise ValueError("coupling_sq must lie in (0, 1)")

    @property
    def omega_ratio(self) -> float:
        """omega1 / cutoff, the only frequency the dimensionless core sees."""
        return self.omega1 / self.cutoff

    @property
    def coupling(self) -> float:
        return math.sqrt(self.coupling_sq)

    @property
    def weak_coupling(self) -> bool:
        """Gates approximate formulas: coupling_sq << 1 and omega1 << cutoff."""
        return self.coupling_sq < 1e-2 and self.omega_ratio < 1e-1


@lru_cache(maxsize=64)
def _weighted_integral(ff: Formfactor, p: int, q: int):
    """int_0^inf x^p phi^q dx, or DIVERGENT when the declared head
    x^(q head + p) or tail x^-r, r = q tail - p, is not integrable:
    q head + p <= -1 or r <= 1.  Otherwise quad_complex of phi^q x^p,
    checked against its error estimate; for p < 0 it divides by x^-p,
    where a product with x ** p would round twice.  A tail slower than
    x^-3/2, which _tail_map leaves singular, is integrated in y = x^(1/k),
    k = 1/(2 (r - 1)), as k y^(k-1) f(y^k), which decays as y^-3/2;
    ConvergenceError when y^k or the weight there overflows.  Memoized
    on the weight, built-in or custom."""
    r = q * ff.tail_exponent - p
    if q * ff.head_exponent + p <= -1 or r <= 1:
        return DIVERGENT
    f = ((lambda x: ff(x) ** q / x ** -p) if p < 0 else
         (lambda x: ff(x) ** q * x ** p))
    if r < 1.5:
        f = partial(_in_root, f, 0.5 / (r - 1.0))
    val, err = quad_complex(f, 0.0, math.inf)
    return float(converged(val.real, err, f"int x^{p} phi^{q} dx"))


def _in_root(f, k, y):
    """k y^(k-1) f(y^k), f integrated in y = x^(1/k).  An overflow, of
    y^k or inside the weight at such an x, raises ConvergenceError: left
    to run on, it gives an inf, or a 0 that shifts the integral within
    its error bound."""
    try:
        with np.errstate(over="raise"):
            x = y ** k
            return k * y ** (k - 1.0) * f(x)
    except FloatingPointError:
        raise ConvergenceError(f"overflow at x = y^{k:.3g}: the tail is too "
                               f"slow to integrate") from None


def moment(ff: Formfactor, k: int):
    """k-th moment int x^k phi(x) dx, or DIVERGENT."""
    if k < 0 or k != int(k):
        raise ValueError("moment order must be a nonnegative integer")
    return _weighted_integral(ff, k, 1)


def squared_norm(ff: Formfactor):
    """int phi(x)^2 dx, or DIVERGENT."""
    return _weighted_integral(ff, 0, 2)


def head_integral(ff: Formfactor):
    """int phi(x)/x dx, or DIVERGENT."""
    return _weighted_integral(ff, -1, 1)


def bound_state_margin(params: ModelParams, ff: Formfactor) -> float:
    """Dimensionless margin omega_ratio - coupling_sq * int phi(x)/x dx.

    Positive margin means the resolvent denominator has no zero below the
    continuum, i.e. no bound state and pure decay.
    """
    head = head_integral(ff)
    if head is DIVERGENT:
        raise ValueError(
            f"head integral of formfactor {ff.id!r} diverges "
            f"(head exponent {ff.head_exponent})"
        )
    return params.omega_ratio - params.coupling_sq * head
