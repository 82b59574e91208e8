"""Dimensionless spectral coupling functions and physical parameters.

The coupling between the discrete state and the continuum enters only
through a nonnegative weight phi(x) of the dimensionless frequency
x = omega / cutoff.  Three built-in shapes are supported:

    phi1(x) = sqrt(x)/(1+x)        (half-power head, x^-1/2 tail)
    phi2(x) = x/(1+x^2)^2          (linear head, x^-3 tail)
    phi3(x) = x/(1+x^2)^4          (linear head, x^-7 tail)

plus user-supplied couplings, either as a callable or as a tabulated
(x, phi) file interpolated by a natural cubic spline in log-log space.

Moment finiteness is decided analytically from the declared tail
exponent, never from quadrature blow-up: int x^k phi dx converges iff
the tail exponent exceeds k+1 (all built-ins have integrable heads).
A finite integral is quad_complex from 0 to inf and raises
ConvergenceError when it misses its error bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

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
    def from_callable(cls, func, tail_exponent, head_exponent,
                      verify=True) -> "Formfactor":
        ff = cls(CUSTOM, func, float(tail_exponent), float(head_exponent))
        if verify:
            _verify_declared_exponents(ff)
        return ff

    @classmethod
    def from_table(cls, path, tail_exponent, head_exponent,
                   verify=True) -> "Formfactor":
        """Tabulated (x, phi) columns; a natural cubic spline in
        (ln x, ln phi) inside the table (_natural_spline), declared power
        laws outside it.  Raises ValueError unless there are two rows or
        more, every x is finite, positive and distinct and every phi
        finite and positive."""
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
        if verify:
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


def _loglog_slope(ff: Formfactor, lo: float, hi: float) -> float | None:
    """Least-squares log-log slope of phi over [lo, hi] (two decades)."""
    x = np.geomspace(lo, hi, 41)
    y = ff(x)
    if np.any(y <= 0):
        return None
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _verify_declared_exponents(ff: Formfactor) -> None:
    """Trust but verify: fit the head/tail power laws over two decades and
    warn if the declared exponents are off by more than 0.1."""
    head = _loglog_slope(ff, 1e-8, 1e-6)
    if head is not None and abs(head - ff.head_exponent) > 0.1:
        warnings.warn(
            f"declared head exponent {ff.head_exponent} but fitted slope "
            f"{head:.3f} over x in [1e-8, 1e-6]",
            stacklevel=3,
        )
    tail = _loglog_slope(ff, 1e6, 1e8)
    if tail is not None and abs(-tail - ff.tail_exponent) > 0.1:
        warnings.warn(
            f"declared tail exponent {ff.tail_exponent} but fitted slope "
            f"{-tail:.3f} over x in [1e6, 1e8]",
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
    squared coupling dimensionless."""

    cutoff: float
    omega1: float
    coupling_sq: float

    def __post_init__(self):
        if not 0 < self.cutoff < math.inf:
            raise ValueError("cutoff must be positive and finite")
        if not 0 < self.omega1 < math.inf:
            raise ValueError("omega1 must be positive and finite")
        if not 0 <= self.coupling_sq < 1:
            raise ValueError("coupling_sq must lie in [0, 1)")

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


def eval_formfactor(ff: Formfactor, x: float) -> float:
    """phi(x) for scalar x > 0."""
    if not x > 0:
        raise ValueError(f"formfactor argument must be positive, got {x}")
    val = float(np.asarray(ff(x)))
    if val < 0:
        raise ValueError(f"formfactor returned negative value {val} at x={x}")
    return val


@lru_cache(maxsize=64)
def _weighted_integral(ff: Formfactor, kind: str, k: int = 0) -> float:
    """int_0^inf of x^k phi ("moment"), phi^2 ("square") or phi/x ("head")
    by quad_complex, checked against its error estimate.  Memoized on the
    weight, built-in or custom."""
    f = {"moment": lambda x: ff(x) * x ** k, "square": lambda x: ff(x) ** 2,
         "head": lambda x: ff(x) / x}[kind]
    val, err = quad_complex(f, 0.0, math.inf)
    return float(converged(val.real, err, f"{kind} integral"))


def moment(ff: Formfactor, k: int):
    """k-th moment int x^k phi(x) dx, or DIVERGENT when the tail does not
    decay fast enough (tail_exponent <= k+1)."""
    if k < 0 or k != int(k):
        raise ValueError("moment order must be a nonnegative integer")
    if ff.tail_exponent <= k + 1:
        return DIVERGENT
    if ff.head_exponent <= -1 - k:
        return DIVERGENT
    return _weighted_integral(ff, "moment", k)


def squared_norm(ff: Formfactor):
    """int phi(x)^2 dx, or DIVERGENT when 2*tail_exponent <= 1."""
    if 2 * ff.tail_exponent <= 1:
        return DIVERGENT
    if 2 * ff.head_exponent <= -1:
        return DIVERGENT
    return _weighted_integral(ff, "square")


def head_integral(ff: Formfactor):
    """int phi(x)/x dx; finite for head_exponent > 0 and tail_exponent > 0."""
    if ff.head_exponent <= 0 or ff.tail_exponent <= 0:
        return DIVERGENT
    return _weighted_integral(ff, "head")


def bound_state_margin(params: ModelParams, ff: Formfactor) -> float:
    """Dimensionless margin omega_ratio - coupling_sq * int phi(x)/x dx.

    Positive margin means the resolvent denominator has no zero below the
    continuum, i.e. no bound state and pure decay.
    """
    if params.coupling_sq == 0.0:
        return params.omega_ratio
    head = head_integral(ff)
    if head is DIVERGENT:
        raise ValueError(
            f"head integral of formfactor {ff.id!r} diverges "
            f"(head exponent {ff.head_exponent})"
        )
    return params.omega_ratio - params.coupling_sq * head
