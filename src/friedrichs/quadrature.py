"""Quadrature helpers: principal values and oscillatory Fourier integrals.

The survival amplitude is a Fourier transform of a spectral density that
combines a very narrow resonance spike with slowly decaying power tails,
at phases s = cutoff * t reaching 1e12 and beyond.  The oscillatory
integrals dispatch per region:

  * few oscillations  -> quad_complex, the vectorized adaptive Gauss-Kronrod
                         rule, with geometric breakpoint ladders;
  * up to 3000 half   -> phase-aligned half-period panels with a fixed
    periods              Gauss-Legendre rule (panel_integrals);
  * more              -> short panel caps at the ends and, between them,
                         five integrations by parts in exp(isx) with
                         finite-difference derivatives;
  * infinite tails    -> the Ooura-Mori double-exponential rule, whose nodes
                         approach the zeros of exp(isx): one table of nodes
                         for every s (oscillatory_tail).

quad_complex evaluates its integrand on whole arrays of nodes and returns
complex values, so a complex integrand costs one density evaluation per
node.  An integrand may also return m columns, m integrals on one node set
(one per time, say), each held to its own tolerance.  Each call of the
integrand covers at most MAX_NODES node x column values and is reduced to
per-interval sums before the next, so memory stays bounded for any m.

A Laplace-type integral int w(x) exp(-xs) dx whose weight w does not
depend on s keeps the Gauss-Kronrod nodes of one adaptive integration of
w (LaplaceTable); each batch of s is then exp(-xs) on those nodes,
reduced by the same qk21 value and estimate as quad_complex.

Principal values fold onto t = |x - y|, where (f(y + t) - f(y - t))/t
has no pole and no node lies on t = 0: one quad_complex column per pole.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# 21-point Gauss-Kronrod rule (QUADPACK qk21): Kronrod abscissae on [0, 1]
# from the end to the centre with their weights, and the weights of the
# 10-point Gauss rule on the odd-indexed abscissae; mirrored onto [-1, 1].
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_OFFSETS = 1.0 + _GK_NODES          # node positions in half widths from lo
_GK_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_G_WEIGHTS = np.concatenate([_WG, _WG[::-1]])

MAX_NODES = 16384          # node x column values fvec returns in one call
_EPS = np.finfo(float).eps
# An interval is bisected only while it is wider than this many ulps of its
# endpoints, so that every node of its halves stays strictly inside them.
_MIN_ULPS = 4096.0
_LIMIT = 600              # the default interval budget of an integral


def _qk21(f, h):
    """QUADPACK qk21 on rows f of 21 node values over intervals of half
    width h: the Kronrod values and their error estimates."""
    resk = f @ _GK_WEIGHTS
    err = h * np.abs(resk - f[:, 1::2] @ _G_WEIGHTS)
    resasc = h * (np.abs(f - 0.5 * resk[:, None]) @ _GK_WEIGHTS)
    both = (resasc > 0) & (err > 0)
    err[both] = resasc[both] * np.minimum(
        1.0, (200.0 * err[both] / resasc[both]) ** 1.5)
    roundoff = 50.0 * _EPS * h * (np.abs(f) @ _GK_WEIGHTS)
    return h * resk, np.maximum(err, roundoff)


def _gk_nodes(lo, hi):
    """The 21 Gauss-Kronrod nodes of each [lo_k, hi_k], shape (intervals,
    21), and the half widths."""
    # Nodes are placed from lo, not from the rounded midpoint: on a spike
    # far narrower than x, half an ulp of midpoint rounding shifts the
    # whole rule, an error of (f(hi) - f(lo)) * ulp / 2 that the error
    # estimate cannot see.
    h = 0.5 * (hi - lo)
    return lo[:, None] + h[:, None] * _GK_OFFSETS, h


def _gk21(fvec, lo, hi, m):
    """Kronrod values and QUADPACK error estimates on each [lo_k, hi_k]
    for the m columns of the integrand, shape (intervals, m), or
    (intervals,) when m = 1.

    fvec sees at most MAX_NODES node x column values per call (one
    interval's 21 nodes at least), and each call's values are reduced to
    per-interval sums before the next, so no (intervals, 21, m) array is
    built.
    """
    x, h = _gk_nodes(lo, hi)
    shape = (-1,) if m == 1 else (-1, m)
    rows = max(1, MAX_NODES // (_GK_NODES.size * m))
    vals, errs = [], []
    for k in range(0, len(x), rows):
        xk = x[k:k + rows]
        f = np.asarray(fvec(xk.ravel()))
        if not np.isfinite(f).all():
            raise ConvergenceError("integrand is not finite at a quadrature node",
                                   achieved=math.inf)
        # one row of 21 node values per interval and column
        f = f.reshape(len(xk), _GK_NODES.size, m).transpose(0, 2, 1)
        f = f.reshape(-1, _GK_NODES.size)
        hk = h[k:k + rows] if m == 1 else np.repeat(h[k:k + rows], m)
        val, err = _qk21(f, hk)
        vals.append(val.reshape(shape))
        errs.append(err.reshape(shape))
    if len(vals) == 1:
        return vals[0], errs[0]
    return np.concatenate(vals), np.concatenate(errs)


def quad_complex(fvec, a, b, points=None, epsabs=1e-12, limit=_LIMIT,
                 columns=None):
    """int_a^b fvec(x) dx for a vectorized, possibly complex integrand;
    returns (value, error estimate).

    fvec maps a 1-D array of n nodes to their values, shape (n,), and the
    result is a complex value and a float.  With `columns` = m it returns
    m integrands at once, shape (n, m), which share one set of intervals
    and give arrays of m values and estimates.  A plain integrand is the
    one-column case.  With one column the per-interval arrays are kept
    1-D, which numpy handles several times faster than (intervals, 1).

    Adaptive 21-point Gauss-Kronrod over the intervals that `points`
    (repeats allowed) cut [a, b] into.  Column k's tolerance is
    tol_k = max(epsabs, 1e-12 |I_k|), with epsabs a float or one per
    column.  Each pass ranks the intervals by their largest err_k / tol_k
    and bisects them, worst first, until every column still above its
    tolerance would hold under an eighth of it; the nodes of all new
    halves are evaluated in batches.  It stops when every column meets
    its tolerance or has more error than that in intervals too narrow to
    bisect, or at `limit` intervals; callers act on the returned error
    estimates.  A non-finite integrand value raises
    ConvergenceError.  An empty range gives zero values and estimates, and
    zero columns give empty arrays.
    """
    if b < a:
        val, err = quad_complex(fvec, b, a, points, epsabs, limit, columns)
        return -val, err
    m = 1 if columns is None else columns
    inner = [p for p in (points if points is not None else ()) if a < p < b]
    edges = np.unique(np.array([a, b] + inner, dtype=float))
    if edges.size < 2 or m == 0:
        return (0j, 0.0) if columns is None else (np.zeros(m, dtype=complex),
                                                  np.zeros(m))
    _, _, val, err = _adapt(fvec, edges, epsabs, limit, m)
    val, err = val.sum(axis=0), err.sum(axis=0)
    if columns is None:
        return complex(val), float(err)
    return val.reshape(m), err.reshape(m)


def _tolerance(total, epsabs):
    """Column k's tolerance max(epsabs, 1e-12 |I_k|)."""
    return np.maximum(epsabs, 1e-12 * abs(total))


def _adapt(fvec, edges, epsabs, limit, m):
    """quad_complex's adaptive loop from the intervals between the sorted
    edges; returns the final intervals lo, hi and their values and
    estimates, shape (intervals, m), or (intervals,) when m = 1.  epsabs
    is a float or one per column."""
    if m == 1 and isinstance(epsabs, np.ndarray):   # the 1-D path ranks
        epsabs = float(epsabs.max())                 # by a float tolerance
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk21(fvec, lo, hi, m)
    while True:
        # a column is active while above its tolerance, unless narrow
        # intervals already hold more.  An interval's score is its worst
        # err_k / tol_k over the active columns, in units of their largest
        # tol_k: once the unbisected scores sum under an eighth of that
        # unit, every column is under tol_k / 8.
        tol = _tolerance(val.sum(axis=0), epsabs)
        active = err.sum(axis=0) > tol
        if not np.count_nonzero(active):
            break
        wide = (hi - lo) > _MIN_ULPS * _EPS * np.maximum(np.abs(lo), np.abs(hi))
        narrow = ~wide
        if narrow.any():
            active &= err[narrow].sum(axis=0) <= tol
        if not np.count_nonzero(active):
            break
        if m == 1:     # unit = tol, so the score is err itself
            unit, score = tol, err
        else:
            tol = tol[active]
            unit = tol.max()
            score = (err[:, active] * (unit / tol)).max(axis=1)
        worst = np.argsort(-score, kind="stable")
        worst = worst[wide[worst]]
        n = np.searchsorted(np.cumsum(score[worst]), score.sum() - unit / 8) + 1
        n = min(n, worst.size, limit - lo.size)
        if n <= 0:
            break
        pick = worst[:n]
        mid = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate([lo[pick], mid])
        new_hi = np.concatenate([mid, hi[pick]])
        new_val, new_err = _gk21(fvec, new_lo, new_hi, m)
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
    return lo, hi, val, err


def geometric_ladder(center, width, lo, hi, ratio=4.0):
    """Breakpoints stepping geometrically away from a feature of the given
    width at `center`, clipped to the open interval (lo, hi).  Adaptive
    quadrature subdivides each rung cheaply, so narrow features are never
    missed by coarse initial sampling."""
    pts = []
    d = width
    span = max(abs(hi - center), abs(center - lo), 1.0)
    for _ in range(240):
        if lo < center - d < hi:
            pts.append(center - d)
        if lo < center + d < hi:
            pts.append(center + d)
        if d > ratio * span:
            break
        d *= ratio
    return sorted(set(pts))


def quad_segments(fvec, breakpoints, epsabs=1e-12, limit=_LIMIT, columns=None):
    """quad_complex from the first to the last breakpoint, split at all."""
    return quad_complex(fvec, breakpoints[0], breakpoints[-1],
                        points=breakpoints[1:-1], epsabs=epsabs, limit=limit,
                        columns=columns)


def quad_tail(fvec, X, epsabs=1e-12, columns=None):
    """int_X^inf fvec(x) dx by quad_complex over x = X + (u/(1-u))^2.

    A tail x^(-p) maps to (1-u)^(2p-3), bounded at u = 1 for p >= 3/2; the
    plain map x = X + u/(1-u) gives (1-u)^(p-2), which leaves an endpoint
    singularity for p < 2 and a cusp for p < 3 that bisection resolves
    slowly and float resolution at u = 1 cuts short.
    """
    def g(u):
        x, jac = _tail_map(u, X)
        return fvec(x) * (jac if columns is None else jac[:, None])

    return quad_complex(g, 0.0, 1.0, epsabs=epsabs, columns=columns)


def _tail_map(u, X):
    """x = X + (u/(1-u))^2 and dx/du, quad_tail's change of variable."""
    r = u / (1.0 - u)
    return X + r * r, 2.0 * r / (1.0 - u) ** 2


_LAPLACE_CUT = 42.0       # exp(-xs) < 6e-19 past x = _LAPLACE_CUT / s


class LaplaceTable:
    """int_a^inf w(x) exp(-xs) dx for any batch of s >= 0 on nodes fixed
    once for the weight w.

    w does not depend on s, so one adaptive integration of w fixes the
    partition: [a, X] cut at the breakpoints, and the tail past X in
    quad_tail's variable.  The table keeps that partition's Gauss-Kronrod
    nodes x and values w(x) dx/du.  A batch of s is then exp(-xs) times
    those values, reduced per interval by the qk21 value and estimate;
    intervals that start past _LAPLACE_CUT / min(s) are left out.  A
    column whose estimate exceeds its tolerance max(epsabs, 1e-12 |I|) is
    integrated again by quad_segments from the table's partition.  The
    table resolves exp(-xs) only for s up to about the inverse of its
    smallest interval at a, so callers cut [a, X] geometrically toward a.
    """

    def __init__(self, wvec, breakpoints, epsabs):
        self.wvec, self.X, self.epsabs = wvec, breakpoints[-1], epsabs

        def tail(u):
            x, jac = _tail_map(u, self.X)
            return wvec(x) * jac

        edges = np.unique(np.asarray(breakpoints, dtype=float))
        lo, hi, _, _ = _adapt(wvec, edges, epsabs, _LIMIT, 1)
        ulo, uhi, _, _ = _adapt(tail, np.array([0.0, 1.0]), epsabs, _LIMIT, 1)
        x, h = _gk_nodes(lo, hi)
        u, hu = _gk_nodes(ulo, uhi)
        xt, jac = _tail_map(u, self.X)
        self.edges = np.union1d(lo, hi)          # the partition of [a, X]
        self.x = np.concatenate([x, xt])
        self.v = (wvec(self.x.ravel()).reshape(self.x.shape)
                  * np.concatenate([np.ones(x.shape), jac]))
        self.h = np.concatenate([h, hu])
        self.start = np.concatenate([lo, _tail_map(ulo, self.X)[0]])

    def integrals(self, s):
        """Values and error estimates, one per s in the 1-D array s."""
        m = s.size
        if not m:
            return np.zeros(0, dtype=complex), np.zeros(0)
        with np.errstate(divide="ignore"):
            keep = self.start < _LAPLACE_CUT / s.min()
        x, v, h = self.x[keep], self.v[keep], self.h[keep]
        val, err = np.zeros(m, dtype=complex), np.zeros(m)
        cols = max(1, MAX_NODES // x.size)
        for k in range(0, m, cols):
            sk = s[k:k + cols]
            f = v[:, None, :] * np.exp(-x[:, None, :] * sk[:, None])
            vk, ek = _qk21(f.reshape(-1, _GK_NODES.size),
                           np.repeat(h, sk.size))
            val[k:k + cols] = vk.reshape(-1, sk.size).sum(axis=0)
            err[k:k + cols] = ek.reshape(-1, sk.size).sum(axis=0)
        bad = err > _tolerance(val, self.epsabs)
        if bad.any():
            val[bad], err[bad] = self._refine(s[bad])
        return val, err

    def _refine(self, s):
        """The adaptive integrals for the columns s, from the table's
        partition with a breakpoint at each column's cut."""
        m = s.size
        with np.errstate(divide="ignore"):
            cut = _LAPLACE_CUT / s
        top = min(cut.max(), self.X)
        segs = np.union1d(self.edges, cut)
        segs = np.append(segs[segs < top], top)
        f = lambda x: self.wvec(x)[:, None] * np.exp(np.multiply.outer(-x, s))
        val, err = quad_segments(f, segs, epsabs=self.epsabs,
                                 limit=_LIMIT + 4 * m, columns=m)
        if top == self.X:
            vt, et = quad_tail(f, self.X, epsabs=self.epsabs, columns=m)
            val, err = val + vt, err + et
        return val, err


def panel_integrals(fvec, start, n_panels, h, s):
    """Per-panel integrals of f(x) exp(isx) over n consecutive panels of
    width h, one 16-point Gauss-Legendre rule per panel (vectorized).

    Panel k's phase factor is exp(is start) exp(iskh) times one table of
    exp(is(x - edge_k)) for the 16 nodes: one complex exponential per
    panel, not one per node."""
    k = np.arange(n_panels)
    offsets = (h / 2.0) * (1.0 + _GL_NODES)
    x = ((start + h * k)[:, None] + offsets).ravel()
    vals = fvec(x).reshape(n_panels, _GL_NODES.size)
    table = np.exp(1j * s * offsets) * _GL_WEIGHTS
    phase = np.exp(1j * (s * h) * k) * (cmath.exp(1j * s * start) * (h / 2.0))
    return phase * (vals @ table)


def endpoint_derivatives(fvec, x, h):
    """f, f', ..., f'''' at x from a 9-point central stencil of spacing h."""
    vals = fvec(x + h * np.arange(-4.0, 5.0))
    d0 = vals[4]
    d1 = (-vals[6] + 8 * vals[5] - 8 * vals[3] + vals[2]) / (12 * h)
    d2 = (-vals[6] + 16 * vals[5] - 30 * vals[4] + 16 * vals[3] - vals[2]) / (12 * h * h)
    d3 = (vals[6] - 2 * vals[5] + 2 * vals[3] - vals[2]) / (2 * h ** 3)
    d4 = (vals[6] - 4 * vals[5] + 6 * vals[4] - 4 * vals[3] + vals[2]) / h ** 4
    return (d0, d1, d2, d3, d4)


def _byparts_terms(fvec, x, s, scale):
    """The five by-parts endpoint terms (-1)^m f^(m)(x) exp(isx) / (is)^(m+1)
    at x, summed, and the last.  The stencil step beats the truncation error
    at the smoothness scale and keeps roundoff / (h s)^m tame."""
    d = endpoint_derivatives(fvec, x,
                             min(max(scale / 40.0, 4.0 / s), scale / 8.0))
    e = np.exp(1j * s * x)
    terms = [((-1) ** m) * d[m] * e / (1j * s) ** (m + 1) for m in range(5)]
    return sum(terms), terms[-1]


def byparts_segment(fvec, a, b, s, scale_a, scale_b):
    """int_a^b f exp(isx) dx by five integrations by parts.

    Valid when s * min(scale) >> 1, where scale_a/scale_b bound the
    smoothness scale of f at each endpoint; the error estimate is a few
    times the last retained term.
    """
    va, la = _byparts_terms(fvec, a, s, scale_a)
    vb, lb = _byparts_terms(fvec, b, s, scale_b)
    return vb - va, 3.0 * abs(lb - la)


def oscillatory_finite(fvec, a, b, s, scale_a, scale_b, epsabs=1e-12):
    """int_a^b f exp(isx) dx for smooth f; dispatch on oscillation count."""
    if b <= a:
        return 0j, 0.0
    n_half = s * (b - a) / np.pi
    if n_half <= 24:
        return quad_complex(lambda x: fvec(x) * np.exp(1j * s * x),
                            a, b, epsabs=epsabs)
    h = np.pi / s
    n = int(n_half)
    if n <= 3000:
        head = panel_integrals(fvec, a, n, h, s).sum()
        rest, err = quad_complex(lambda x: fvec(x) * np.exp(1j * s * x),
                                 a + n * h, b, epsabs=epsabs)
        return head + rest, err
    ncap = 24
    cap_a = panel_integrals(fvec, a, ncap, h, s).sum()
    cap_b = panel_integrals(fvec, b - ncap * h, ncap, h, s).sum()
    c, d = a + ncap * h, b - ncap * h
    sc = min(scale_a, c) if scale_a is not None else c
    sd = scale_b if scale_b is not None else (b - a)
    mid, err = byparts_segment(fvec, c, d, s, sc, sd)
    return cap_a + mid + cap_b, err


def byparts_tail(fvec, X, s, scale):
    """int_X^inf f exp(isx) dx for f decaying to zero, via endpoint terms
    at X only (the boundary terms at infinity vanish).  The library no
    longer calls it; the benchmark's `quadrature.byparts` layer still
    wraps it by name."""
    total, last = _byparts_terms(fvec, X, s, scale)
    return -total, 3.0 * abs(last)


def _de_fourier_rule(h):
    """Nodes u_k and weights w_k of the Ooura-Mori rule int_0^inf F(u) e^(iu)
    du ~ sum_k w_k F(u_k) at step h: u = M phi(t), M = pi/h, the sine part
    on t = n h and the cosine part on t = (n + 1/2) h, where M t is a zero
    of sin u or cos u.  phi(t) - t vanishes double exponentially as t grows
    and phi(t) as t falls.  J. Comput. Appl. Math. 112 (1999) 229."""
    M, beta = math.pi / h, 0.25
    alpha = beta / math.sqrt(1.0 + M * math.log1p(M) / (4.0 * math.pi))
    n = np.arange(math.floor(-7.0 / h), math.ceil(6.0 / h))
    t = np.concatenate([n * h, (n + 0.5) * h])
    g = 2.0 * t - alpha * np.expm1(-t) + beta * np.expm1(t)
    dg = 2.0 + alpha * np.exp(-t) + beta * np.exp(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = -np.expm1(-g)
        phi, dev = t / d, t / np.expm1(g)                # dev = phi - t
        dphi = (d - t * dg * np.exp(-g)) / (d * d)
    at0 = t == 0.0                                       # limits at t = 0
    phi[at0] = dev[at0] = 1.0 / (2.0 + alpha + beta)
    dphi[at0] = 0.5 - (beta - alpha) / (2.0 * (2.0 + alpha + beta) ** 2)
    # sin(M phi) = (-1)^n sin(M dev), cos(M phi) = -(-1)^n sin(M dev): exact
    trig = np.tile(np.where(n % 2, -1.0, 1.0), 2) * np.sin(M * dev)
    w = h * M * dphi * trig * np.repeat([1j, -1.0], n.size)
    keep = np.abs(w) > 1e-20
    return M * phi[keep], w[keep]


(_DE_U1, _DE_W1), (_DE_U2, _DE_W2) = (_de_fourier_rule(h) for h in (0.1, 0.2))
_DE_NODES = np.concatenate([_DE_U1, _DE_U2])


def oscillatory_tail(fvec, b, s):
    """int_b^inf f exp(isx) dx for s > 0 and f smooth on [b, inf), decaying
    to 0; returns (value, error estimate).  It is exp(isb)/s times
    int_0^inf f(b + u/s) exp(iu) du by the Ooura-Mori rule at steps 0.1
    and 0.2, one table of nodes for every s; the estimate is their
    difference, at least the roundoff eps sum |w f|.

    b and s may be numpy arrays of one shape, a tail per pair (b_k, s_k):
    fvec then sees the nodes of all of them in one call, and the values
    and estimates are arrays of that shape."""
    if isinstance(b, np.ndarray) or isinstance(s, np.ndarray):
        return _oscillatory_tails(fvec, *np.broadcast_arrays(b, s))
    f = np.asarray(fvec(b + _DE_NODES / s))
    fine, coarse = f[:_DE_W1.size] @ _DE_W1, f[_DE_W1.size:] @ _DE_W2
    err = max(abs(fine - coarse),
              10.0 * _EPS * (np.abs(f[:_DE_W1.size]) @ np.abs(_DE_W1)))
    return fine * cmath.exp(1j * s * b) / s, err / s


def _oscillatory_tails(fvec, b, s):
    """oscillatory_tail on arrays b and s of one shape."""
    x = b[..., None] + _DE_NODES / s[..., None]
    f = np.asarray(fvec(x.ravel())).reshape(x.shape)
    n = _DE_W1.size
    fine, coarse = f[..., :n] @ _DE_W1, f[..., n:] @ _DE_W2
    err = np.maximum(np.abs(fine - coarse),
                     10.0 * _EPS * (np.abs(f[..., :n]) @ np.abs(_DE_W1)))
    return fine * np.exp(1j * s * b) / s, err / s


def converged(val, err, what):
    """val, once every error estimate err is within 1e-8 max(1, |val|);
    otherwise ConvergenceError."""
    if np.any(err > 1e-8 * np.maximum(1.0, np.abs(val))):
        raise ConvergenceError(f"{what} did not converge",
                               achieved=float(np.max(err)))
    return val


def principal_value(fvec, pole, upper):
    """PV int_0^upper f(x)/(x - y) dx for a pole y, or an array of poles,
    with 0 < 2y <= upper; values of the pole's shape.

    Over (0, 2y) it is int_0^1 (f(y(1 + u)) - f(y(1 - u)))/u du, t = yu,
    with breakpoints 1 - 4^-k toward the head x = 0; over (2y, upper) it
    is L int_0^1 f(y + y e^(Lv)) dv, t = y e^(Lv), L = log((upper - y)/y).
    Each pole is one column of quad_complex in the shared u and v; an
    estimate past converged's bound raises ConvergenceError.
    """
    y = np.asarray(pole, dtype=float)
    ys = y.ravel()
    if not np.all((ys > 0) & (2.0 * ys <= upper)):
        raise ValueError("poles must lie in (0, upper/2]")
    L = np.log((upper - ys) / ys)

    def fold(u):
        up, down = np.multiply.outer(1.0 + u, ys), np.multiply.outer(1.0 - u, ys)
        diff = fvec(up.ravel()) - fvec(down.ravel())
        return diff.reshape(up.shape) / u[:, None]

    def rest(v):
        x = ys + ys * np.exp(np.multiply.outer(v, L))
        return fvec(x.ravel()).reshape(x.shape) * L

    ladder = [0.0, *(1.0 - 4.0 ** -np.arange(1.0, 13.0)), 1.0]
    head, err = quad_segments(fold, ladder, columns=ys.size)
    far, far_err = quad_complex(rest, 0.0, 1.0, columns=ys.size)
    val = converged(head.real + far.real, err + far_err, "principal value")
    return float(val[0]) if y.ndim == 0 else val.reshape(y.shape)


def pv_dispersion(phi_vec, y):
    """PV int_0^inf phi(x)/(x - y) dx for y > 0, or an array of y:
    principal_value up to X = 4 max(1, max y), quad_tail past X."""
    y = np.asarray(y, dtype=float)
    ys = y.ravel()
    if not ys.size:
        return np.zeros(y.shape)
    X = 4.0 * max(1.0, ys.max())
    tail, err = quad_tail(lambda x: phi_vec(x)[:, None]
                          / np.subtract.outer(x, ys), X, columns=ys.size)
    val = principal_value(phi_vec, ys, X) + converged(tail.real, err,
                                                      "dispersion tail")
    return float(val[0]) if y.ndim == 0 else val.reshape(y.shape)
