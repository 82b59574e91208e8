"""Quadrature helpers: principal values and oscillatory Fourier integrals.

The survival amplitude is a Fourier transform of a spectral density that
combines a very narrow resonance spike with slowly decaying power tails,
at phases s = cutoff * t reaching 1e12 and beyond.  The oscillatory
integrals dispatch per region:

  * few oscillations  -> quad_complex, the vectorized adaptive Gauss-Kronrod
                         rule, with geometric breakpoint ladders;
  * a spike window at -> Filon panels: the Legendre interpolant of f on 16
    any s                Gauss-Legendre nodes, integrated against exp(isx)
                         exactly (_legendre_panels, _filon_sums), in the
                         spike's table (FourierTable);
  * thousands of half -> an adaptive first half period, then short panel
    periods              caps at the ends and, between them, five
                         integrations by parts in exp(isx) with
                         finite-difference derivatives (oscillatory_finite);
  * infinite tails    -> the Ooura-Mori double-exponential rule, whose nodes
                         approach the zeros of exp(isx): one table of nodes
                         for every s (oscillatory_tail).

quad_complex evaluates its integrand on whole arrays of nodes and returns
complex values, so a complex integrand costs one density evaluation per
node.  An integrand may also return m columns, m integrals on one node set
(one per time, say), each held to its own tolerance.  Each call of the
integrand covers at most MAX_NODES node x column values and is reduced to
per-interval sums before the next, so memory stays bounded for any m.

Columns share their intervals.  K independent integrals, each with its
own range, breakpoints, tolerance and interval budget (quad_segments
with K breakpoint lists), run in one adaptive loop (_integrals), and a
quad_complex call is the case K = 1; an infinite upper bound is [X, inf)
in _tail_map's variable.  Each integral keeps the partition it reaches
alone, but a pass bisects the intervals of all integrals still at work
and evaluates their nodes in one integrand call fvec(x, owner).
Most of the cost of a pass is fixed, so K integrals take about as many
passes as the slowest of them.  Each interval is reduced by a dot product
of its own and each integral's sums are its own, so an integral gives the
same bits alone, in any company or as a plain call.  The intervals of
all K integrals are one store, and an integral that stops keeps its
intervals there, where no later pass picks them.  oscillatory_finite
takes 1-D arrays of integrals over [0, b_k] this way, one set of K
integrals for the adaptive first half periods of all its elements.

A Laplace-type integral int w(x) exp(-xs) dx whose weight w does not
depend on s keeps the Gauss-Kronrod nodes and weight values of one
adaptive integration of w (LaplaceTable), its body and tail as two
integrals of one loop; each batch of s is then exp(-xs) on those nodes,
reduced to qk21's values and estimates by matrix-vector products.

A Fourier-type integral around a spike, int f(t) exp(ist) dt with f
free of s, keeps its Filon panels in a table the same way (FourierTable):
panels cut at rungs width/4 2^j on both sides of the spike, built and
refined in one piece for the widest reach asked, and each batch of s one
contraction of their Legendre coefficients with the exact weights
2 i^k j_k(sh) (spherical_j).

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
LIMIT = 600               # the default interval budget of an integral


def _qk21(f, h):
    """QUADPACK qk21 on rows f of 21 node values over intervals of half
    width h: the Kronrod values and their error estimates.  The adaptive
    loop passes a stack of rows (rows, 1, 21), with h of shape (rows, 1):
    each row is reduced by a dot product of its own (as _row_dots), which
    its neighbours cannot change.  LaplaceTable.integrals passes rows
    (rows, 21), reduced by one matrix-vector product."""
    resk = f @ _GK_WEIGHTS
    err = h * np.abs(resk - f[..., 1::2] @ _G_WEIGHTS)
    resasc = h * (np.abs(f - 0.5 * resk[..., None]) @ _GK_WEIGHTS)
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


def _gk21(fvec, lo, hi, m, own, tail=None, values=False):
    """Kronrod values and QUADPACK error estimates on each [lo_k, hi_k]
    for the m columns of the integrand, shape (intervals, m), and when
    `values` is set (one column) the node values, shape (intervals, 21),
    else None.

    Interval k belongs to integral own[k], and fvec(x, owner) gets the
    owner of each node.  Each row of 21 node values is reduced by a dot
    product of its own (_qk21 on a stack of rows), so an interval's value
    does not depend on the other intervals of its pass.  An integral k
    with a finite tail[k] is [tail[k], inf): fvec sees its nodes u as
    x = tail[k] + (u/(1-u))^2, and the values are weighted by dx/du.

    fvec sees at most MAX_NODES node x column values per call (one
    interval's 21 nodes at least), and each call's values are reduced to
    per-interval sums before the next, so no (intervals, 21, m) array is
    built.
    """
    x, h = _gk_nodes(lo, hi)
    rows = max(1, MAX_NODES // (_GK_NODES.size * m))
    vals, errs, nodes = [], [], []
    for k in range(0, len(x), rows):
        xk, ok, jac = x[k:k + rows], own[k:k + rows], None
        if tail is not None:        # dx/du = 1 on the rows of finite ranges
            start = tail[ok, None]
            plain = np.isnan(start)
            u, jac = _tail_map(np.where(plain, 0.0, xk), np.where(plain, 0.0, start))
            xk, jac = np.where(plain, xk, u), np.where(plain, 1.0, jac)
        f = np.asarray(fvec(xk.ravel(), ok.repeat(_GK_NODES.size)))
        f = f.reshape(len(xk), _GK_NODES.size, m)
        if jac is not None:
            f = f * jac[:, :, None]
        if not np.isfinite(f).all():
            raise ConvergenceError("integrand is not finite at a quadrature node",
                                   achieved=math.inf)
        # one row of 21 node values per interval and column
        f = f.transpose(0, 2, 1).reshape(-1, _GK_NODES.size)
        val, err = _qk21(f[:, None, :], np.repeat(h[k:k + rows], m)[:, None])
        vals.append(val.reshape(-1, m))
        errs.append(err.reshape(-1, m))
        if values:
            nodes.append(f)
    if len(vals) == 1:
        return vals[0], errs[0], nodes[0] if values else None
    return (np.concatenate(vals), np.concatenate(errs),
            np.concatenate(nodes) if values else None)


def quad_complex(fvec, a, b, points=None, epsabs=1e-12, limit=LIMIT,
                 columns=None):
    """int_a^b fvec(x) dx for a vectorized, possibly complex integrand;
    returns (value, error estimate).

    fvec maps a 1-D array of n nodes to their values, shape (n,), and the
    result is a complex value and a float.  With `columns` = m it returns
    m integrands at once, shape (n, m), which share one set of intervals
    and give arrays of m values, of the integrand's type, and estimates.
    A plain integrand is the one-column case.

    Adaptive 21-point Gauss-Kronrod over the intervals that `points`
    (repeats allowed) cut [a, b] into; an infinite b makes it [a, inf) in
    _tail_map's variable, where `points` are not used.  Column k's
    tolerance is tol_k = max(epsabs, 1e-12 |I_k|).  Each pass ranks the
    intervals by their largest err_k / tol_k and bisects them, worst
    first, until every column still above its tolerance would hold under
    an eighth of it; the nodes of all new halves are evaluated in
    batches.  It stops when every column meets its tolerance or has more
    error than that in intervals too narrow to bisect, or at `limit`
    intervals; callers act on the returned error estimates.  A non-finite
    integrand value raises ConvergenceError.  An empty range gives zero
    values and estimates, and zero columns give empty arrays.  K
    independent integrals are quad_segments' (see there); this call is
    their case K = 1.
    """
    m = 1 if columns is None else columns
    val, err = _integrals(lambda x, k: fvec(x), [a], [b], [points], epsabs,
                          limit, m)
    if columns is None:
        return complex(val[0, 0]), float(err[0, 0])
    return val[0], err[0]


def _integrals(fvec, a, b, points, epsabs, limit, m):
    """K integrals of m columns over [a_k, b_k] cut at points[k] (None or
    a sequence), behind quad_complex and quad_segments (see
    quad_segments): values, of the integrand's type, and estimates, shape
    (K, m)."""
    a, b = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    K = len(a)
    # each integral's intervals between its sorted edges; an empty range
    # has none, and the integrals with intervals are renumbered
    lo, hi, own, index, tail, flip = [], [], [], [], [], []
    for k, (ak, bk) in enumerate(zip(a, b)):
        start, stop = min(ak, bk), max(ak, bk)
        if stop == math.inf:             # [start, inf) in the tail variable u
            edges = [0.0, 1.0]
        else:
            inner = () if points is None or points[k] is None else points[k]
            edges = sorted({start, stop, *[p for p in inner if start < p < stop]})
        if len(edges) > 1:
            lo += edges[:-1]
            hi += edges[1:]
            own += [len(index)] * (len(edges) - 1)
            index.append(k)
            tail.append(start if stop == math.inf else math.nan)
            if bk < ak:
                flip.append(k)
    if not (index and m):
        return np.zeros((K, m), dtype=complex), np.zeros((K, m))
    index = np.array(index)
    eps, limit = (given[index] if given.ndim else given.repeat(index.size)
                  for given in (np.asarray(epsabs, dtype=float), np.asarray(limit)))
    _, _, v, e, o, _ = _adapt(
        fvec if index.size == K else lambda x, j: fvec(x, index[j]),
        np.array(lo), np.array(hi), np.array(own),
        eps[:, None], limit, m,
        np.array(tail) if math.inf in b else None)
    starts = o.searchsorted(np.arange(index.size))
    val, err = np.zeros((K, m), dtype=v.dtype), np.zeros((K, m))
    val[index] = np.add.reduceat(v, starts).reshape(-1, m)
    err[index] = np.add.reduceat(e, starts).reshape(-1, m)
    val[flip] *= -1.0
    return val, err


def _tolerance(total, epsabs):
    """Column k's tolerance max(epsabs, 1e-12 |I_k|)."""
    return np.maximum(epsabs, 1e-12 * abs(total))


def _adapt(fvec, lo, hi, own, epsabs, limit, m, tail=None, values=False):
    """The adaptive loop of _integrals and LaplaceTable from the
    intervals [lo, hi];
    returns the final intervals lo, hi, their values and estimates,
    shape (intervals, m), their integrals and, when `values` is set (one
    column), their node values, shape (intervals, 21), else None.

    Interval k belongs to integral own[k], and the intervals come grouped
    by integral 0..K-1.  epsabs holds each integral's tolerance, limit
    its interval budget and tail its start when it is [tail_k, inf) in
    the tail variable u (nan for the others); fvec is fvec(x, owner).
    Each interval is reduced by itself (_gk21) and each integral's values
    and estimates are summed in order, so an integral reaches what it
    reaches alone, bit for bit.  The intervals are one store of rows,
    grouped by integral: a pass replaces the rows it bisects by their
    halves, which follow the integral's other rows.  An integral that
    stops keeps its rows where they are, and no later pass picks them.
    """
    K = int(own[-1]) + 1
    counts = np.bincount(own, minlength=K)
    rows = [lo, hi, own, *_gk21(fvec, lo, hi, m, own, tail, values)]
    while True:
        lo, hi, own, val, err, f = rows
        # sums adds up each integral's intervals in order
        starts = counts.cumsum() - counts
        sums = lambda v: np.add.reduceat(v, starts)
        # an integral's column is active while above its tolerance, unless
        # narrow intervals already hold more.  An interval's score is its
        # worst err_k / tol_k over the active columns, in units of their
        # largest tol_k: once the unbisected scores sum under an eighth
        # of that unit, every column is under tol_k / 8.  The column that
        # sets the unit scores err_k itself, also at tol_k = 0.
        tol = _tolerance(sums(val), epsabs)
        total = sums(err)
        active = total > tol
        wide = (hi - lo) > _MIN_ULPS * _EPS * np.maximum(np.abs(lo), np.abs(hi))
        if not wide.all():
            active &= sums(np.where(wide[:, None], 0.0, err)) <= tol
        busy = active.any(axis=1)
        if not busy.any():
            break
        unit = np.where(active, tol, -np.inf).max(axis=1)
        scale = np.divide(unit[:, None], tol, out=np.where(active, 1.0, 0.0),
                          where=active & (tol != unit[:, None]))
        score = (err * scale[own]).max(axis=1)
        total = sums(score)
        pick, n = _worst(score, wide & busy[own], own, total - unit / 8,
                         limit - counts)
        if not pick.size:
            break
        mid = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate([lo[pick], mid])
        new_hi = np.concatenate([mid, hi[pick]])
        new_own = own[np.concatenate([pick, pick])]
        halves = (new_lo, new_hi, new_own,
                  *_gk21(fvec, new_lo, new_hi, m, new_own, tail, values))
        # the rows and their halves grouped by integral again, each in its
        # own order; the bisected rows sort past every integral and drop off
        key = np.concatenate([own, new_own])
        key[pick] = K
        order = key.argsort(kind="stable")[:key.size - pick.size]
        rows = [r if r is None else np.concatenate([r, h])[order]
                for r, h in zip(rows, halves)]
        counts = counts + n
    return lo, hi, val, err, own, f


def _worst(score, cand, own, threshold, room):
    """The intervals to bisect, and how many of each integral: of the
    candidates cand, an integral's worst first, until its unbisected
    scores would sum under its threshold, at most room of them.  Only the
    integrals with candidates are visited, and each integral's scores are
    summed by themselves, in the order of the integral alone."""
    worst = np.lexsort((-score, own))        # grouped by integral, worst first
    worst = worst[cand[worst]]
    bounds = own[worst].searchsorted(np.arange(room.size + 1))
    n = np.zeros(room.size, dtype=np.intp)
    picks = [worst[:0]]
    for k in np.flatnonzero(bounds[1:] > bounds[:-1]).tolist():
        first, stop = bounds[k:k + 2].tolist()
        take = score[worst[first:stop]].cumsum().searchsorted(threshold[k]) + 1
        n[k] = max(min(take, stop - first, room[k]), 0)
        picks.append(worst[first:first + n[k]])
    return np.concatenate(picks), n


def geometric_ladder(center, width, lo, hi):
    """Breakpoints center +- width 4^k away from a feature of the given
    width, clipped to the finite open interval (lo, hi), for k = 0 up to
    the first step past 4 span, span = max(|hi - center|, |center - lo|,
    1), and k < 240: with width = m 2^e and 4 span = m1 2^e1, the least k with
    2k > e1 - e, or 2k = e1 - e and m > m1.  Adaptive quadrature
    subdivides each rung cheaply, so narrow features are never missed."""
    span = max(abs(hi - center), abs(center - lo), 1.0)
    (m, e), (m1, e1) = math.frexp(width), math.frexp(4.0 * span)
    top = min(max(0, (e1 - e + 1 + (m <= m1)) // 2), 239)
    d = [math.ldexp(width, 2 * k) for k in range(top + 1)]
    return sorted({p for dk in d for p in (center - dk, center + dk) if lo < p < hi})


def quad_segments(fvec, breakpoints, epsabs=1e-12, limit=LIMIT, columns=None):
    """K independent integrals of quad_complex, one per sequence of the
    list `breakpoints`, from its first breakpoint to its last (which may
    be inf, [X, inf) as in quad_complex), split at the others.

    epsabs and limit are a number or one per integral, and the integrand
    is fvec(x, owner), with the index of each node's integral.  Each
    keeps its own intervals, tolerance, limit and stopping rule; a pass
    bisects the intervals of all still at work and evaluates their nodes
    in one call.  The values and estimates are arrays of K, or (K, m)
    with `columns` = m.  A quad_complex call is the case K = 1, so an
    integral gives the same bits in any company.
    """
    val, err = _integrals(fvec, [p[0] for p in breakpoints],
                          [p[-1] for p in breakpoints],
                          [p[1:-1] for p in breakpoints], epsabs, limit,
                          1 if columns is None else columns)
    return (val[:, 0], err[:, 0]) if columns is None else (val, err)


def _tail_map(u, X):
    """x = X + (u/(1-u))^2 and dx/du, the change of variable of [X, inf)
    for u in [0, 1).

    A tail x^(-p) maps to (1-u)^(2p-3), bounded at u = 1 for p >= 3/2; the
    plain map x = X + u/(1-u) gives (1-u)^(p-2), which leaves an endpoint
    singularity for p < 2 and a cusp for p < 3 that bisection resolves
    slowly and float resolution at u = 1 cuts short."""
    r = u / (1.0 - u)
    return X + r * r, 2.0 * r / (1.0 - u) ** 2


_LAPLACE_CUT = 42.0       # exp(-xs) < 6e-19 past x = _LAPLACE_CUT / s

# exp(-u) for |u| <= MOMENT_REACH as its power series through u^MOMENT_ORDER:
# the rest is below MOMENT_REACH^15 / 15! < 7e-22.  The deficit kernel's
# spike region and LaplaceTable's head both take exp this way, from moments.
MOMENT_REACH = 0.25
MOMENT_ORDER = 14
MOMENT_TOP = math.ldexp(1.0, 1024 // MOMENT_ORDER)   # t^MOMENT_ORDER finite below
_FACTORIALS = np.array([math.factorial(k) for k in range(MOMENT_ORDER + 2)],
                       dtype=float)          # 0! .. (MOMENT_ORDER + 1)!
_HEAD_TOP = 0.5           # LaplaceTable's head ends at or below this x
# LaplaceTable's tail starts as these intervals of u, x = X + 1 and X + 9:
# the splits bisection reaches on a tail decaying like a power of x
_TAIL_SPLITS = np.array([0.0, 0.5, 0.75, 1.0])


def _moments(t, fw):
    """Each row's moments sum fw t^m / m! for m <= MOMENT_ORDER, shape
    (rows, MOMENT_ORDER + 1), and its sum |fw| / 15!, the mass that bounds
    a moment series' rest, from the nodes t and the weighted values fw of
    its panels, shape (rows, nodes)."""
    powers = np.empty((t.shape[0], MOMENT_ORDER + 1, t.shape[1]))   # t^m
    powers[:, 0] = 1.0
    for m in range(MOMENT_ORDER):          # one cumulative product
        np.multiply(powers[:, m], t, out=powers[:, m + 1])
    return ((powers @ fw[:, :, None])[:, :, 0] / _FACTORIALS[:-1],
            _row_dots(np.abs(fw), np.ones(t.shape[1])) / _FACTORIALS[-1])


class LaplaceTable:
    """int_a^inf w(x) exp(-xs) dx for any batch of s >= 0 on nodes fixed
    once for the weight w.

    w does not depend on s, so one adaptive integration of w fixes the
    partition: [a, X] cut at the breakpoints, and the tail past X in
    _tail_map's variable u, from [0, 1] split at u = 1/2 and 3/4.  The
    table keeps that partition's Gauss-Kronrod nodes x and values
    w(x) dx/du, interval by interval in order of their start.  A batch
    of s is then exp(-xs) times those values, reduced per interval by the
    qk21 value and estimate, over the one contiguous run of intervals
    between a head and a cut:

      * the head, the intervals ending at or below min(MOMENT_REACH /
        max(s), _HEAD_TOP), where every s x <= 1/4, is one power series
        sum_k (-s)^k M_k / k! for k <= MOMENT_ORDER, over the moments
        M_k = sum h w_gk v x^k of its nodes.  The table keeps their
        prefix sums over the intervals ending at or below _HEAD_TOP
        (the ladder toward a = 0), with those of the intervals' s = 0
        estimates from the adaptive integration.  The head's estimate is
        the sum of those estimates plus a bound on the series' rest,
        (sum h w_gk |v|) (s x_end)^15 / 15!;
      * intervals that start past _LAPLACE_CUT / min(s) are left out.

    So the nodes a batch contracts, and the last bits of its values,
    depend on its largest and smallest s.  A column whose estimate
    exceeds its tolerance max(epsabs, 1e-12 |I|) is integrated again,
    adaptively from the table's partition (_refine).  The table resolves
    exp(-xs) only for s up to about the inverse of its smallest interval
    at a, so callers cut [a, X] geometrically toward a.
    """

    def __init__(self, wvec, breakpoints, epsabs):
        self.wvec, self.X, self.epsabs = wvec, breakpoints[-1], epsabs

        # the body [a, X] and the tail past X in one lockstep run, which
        # keeps the weight's values on the final nodes
        edges = np.unique(np.asarray(breakpoints, dtype=float))
        lo, hi, _, err, own, nodes = _adapt(
            lambda x, k: wvec(x), np.append(edges[:-1], _TAIL_SPLITS[:-1]),
            np.append(edges[1:], _TAIL_SPLITS[1:]),
            np.repeat([0, 1], [edges.size - 1, _TAIL_SPLITS.size - 1]),
            np.full((2, 1), epsabs, dtype=float), np.full(2, LIMIT), 1,
            np.array([np.nan, self.X]), values=True)
        # interval by interval in order of their start, the body first
        order = np.lexsort((lo, own))
        lo, hi, err, own = lo[order], hi[order], err[order, 0], own[order]
        self.v = nodes[order]
        body = own == 0
        lo, hi, err, ulo, uhi = lo[body], hi[body], err[body], lo[~body], hi[~body]
        x, h = _gk_nodes(lo, hi)
        u, hu = _gk_nodes(ulo, uhi)
        self.edges = np.union1d(lo, hi)          # the partition of [a, X]
        self.x = np.concatenate([x, _tail_map(u, self.X)[0]])
        self.h = np.concatenate([h, hu])
        self.start = np.concatenate([lo, _tail_map(ulo, self.X)[0]])

        # the head's candidate intervals: prefix sums, row k over the first
        # k + 1 of them, of M_j / j!, of the s = 0 estimates and of
        # sum h w_gk |v| / 15!, the mass that bounds the series' rest
        n = np.searchsorted(hi, _HEAD_TOP, side="right")
        moments, mass = _moments(x[:n], self.v[:n] * (_GK_WEIGHTS * h[:n, None]))
        self.head_hi = hi[:n]
        self.head_moments = np.cumsum(moments, axis=0)
        self.head_err = np.cumsum(err[:n])
        self.head_mass = np.cumsum(mass)

    def integrals(self, s):
        """Values and error estimates, one per s in the 1-D array s."""
        m = s.size
        if not m:
            return np.zeros(0, dtype=complex), np.zeros(0)
        smin, smax = float(s.min()), float(s.max())
        # min(MOMENT_REACH / smax, _HEAD_TOP), smax = 0 included
        reach = MOMENT_REACH / smax if smax * _HEAD_TOP > MOMENT_REACH else _HEAD_TOP
        j = self.head_hi.searchsorted(reach, side="right")    # the head's size
        if j:
            val = (np.vander(-s, MOMENT_ORDER + 1, increasing=True)
                   @ self.head_moments[j - 1])
            err = self.head_err[j - 1] + self.head_mass[j - 1] * (
                s * self.head_hi[j - 1]) ** (MOMENT_ORDER + 1)
        else:
            val, err = np.zeros(m, dtype=complex), np.zeros(m)
        # the kept intervals: from the head to the last start before the cut
        stop = self.start.searchsorted(_LAPLACE_CUT / smin if smin else math.inf)
        x, v, h = self.x[j:stop], self.v[j:stop], self.h[j:stop]
        cols = max(1, MAX_NODES // x.size)
        for k in range(0, m, cols):
            sk = s[k:k + cols]
            f = v[:, None, :] * np.exp(-x[:, None, :] * sk[:, None])
            vk, ek = _qk21(f.reshape(-1, _GK_NODES.size),
                           np.repeat(h, sk.size))
            val[k:k + cols] += vk.reshape(-1, sk.size).sum(axis=0)
            err[k:k + cols] += ek.reshape(-1, sk.size).sum(axis=0)
        bad = err > _tolerance(val, self.epsabs)
        if bad.any():
            val[bad], err[bad] = self._refine(s[bad])
        return val, err

    def _refine(self, s):
        """The adaptive integrals for the columns s, from the table's
        partition with a breakpoint at each column's cut: the body up to
        the largest cut and, when that lies past X, the tail from X, two
        integrals of one quad_segments call."""
        m = s.size
        with np.errstate(divide="ignore"):
            cut = _LAPLACE_CUT / s
        top = min(cut.max(), self.X)
        segs = np.union1d(self.edges, cut)
        segs = np.append(segs[segs < top], top)
        f = lambda x, k: self.wvec(x)[:, None] * np.exp(np.multiply.outer(-x, s))
        val, err = quad_segments(
            f, [segs, [self.X, math.inf if top == self.X else self.X]],
            epsabs=self.epsabs, limit=np.array([LIMIT + 4 * m, LIMIT]),
            columns=m)
        return val.sum(axis=0), err.sum(axis=0)


# Legendre coefficients c_0..c_15 of the degree-15 polynomial through 16
# values v at the Gauss-Legendre nodes, c = v @ _GL_LEGENDRE, and 2 i^k
_GL_LEGENDRE = (np.polynomial.legendre.legvander(_GL_NODES, _GL_NODES.size - 1)
                * (_GL_WEIGHTS[:, None] * (np.arange(_GL_NODES.size) + 0.5)))
_GL_OFFSETS = 1.0 + _GL_NODES          # node positions in half widths from lo
_TWO_I_K = 2.0 * 1j ** np.arange(_GL_NODES.size)
_J_TINY = 1e-9      # spherical_j: j_0 = 1, j_1 = w/3 and j_k = 0 below this w,
_J_UPWARD = 20.0    # the upward recurrence from this one on,
_J_MILLER = 40      # and between them the downward one from this order


def spherical_j(w):
    """The spherical Bessel functions j_0(w) .. j_15(w) for a 1-D array of
    w >= 0, shape (w.size, 16), to about 5e-16 absolute.

    Below _J_TINY the leading terms; up to _J_UPWARD Miller's downward
    recurrence y_(k-1) = (2k+1)/w y_k - y_(k+1) from order 40, scaled to
    the closed forms j_0 = sin w / w and j_1 = (j_0 - cos w) / w by least
    squares (they have no common zero); past it the same recurrence
    upward from j_0 and j_1, stable there for every k <= 15.  Each w
    takes the same operations whatever its companions, so a value does
    not depend on the batch."""
    tiny, up = w < _J_TINY, w >= _J_UPWARD
    out = np.empty((_GL_NODES.size, w.size))
    for mask, method in ((tiny, _j_tiny), (~(tiny | up), _j_miller), (up, _j_upward)):
        if mask.any():
            out[:, mask] = method(w[mask])
    return out.T


_J_ORDERS = 2.0 * np.arange(_J_MILLER + 1) + 1.0        # 2k + 1


def _j_tiny(x):
    """j_0 .. j_15 as rows, for x < _J_TINY: 1, x/3 and 0 (the rest of
    j_0 and j_1 is x^2 of them, and j_k is O(x^k))."""
    j = np.zeros((_GL_NODES.size, x.size))
    j[0] = 1.0
    j[1] = x / 3.0
    return j


def _j_miller(x):
    """j_0 .. j_15 as rows by Miller's recurrence from order _J_MILLER."""
    inv = 1.0 / x
    a = list(np.multiply.outer(_J_ORDERS, inv))           # (2k+1)/x
    y = np.empty((_J_MILLER + 2, x.size))
    rows = list(y)
    # y_(k-1) / y_k ~ (2k+1) / x: starting at (x/2)^32 keeps y_0 .. y_40
    # and y_0^2 in range for every _J_TINY <= x < _J_UPWARD
    rows[-1][:] = 0.0
    np.power(0.5 * x, 32, out=rows[-2])
    for k in range(_J_MILLER, 0, -1):       # y_(k-1) = (2k+1)/x y_k - y_(k+1)
        np.multiply(a[k], rows[k], out=rows[k - 1])
        np.subtract(rows[k - 1], rows[k + 1], out=rows[k - 1])
    y = y[:_GL_NODES.size]
    j0 = np.sin(x) * inv
    j1 = (j0 - np.cos(x)) * inv
    return y * ((y[0] * j0 + y[1] * j1) / (y[0] * y[0] + y[1] * y[1]))


def _j_upward(x):
    """j_0 .. j_15 as rows by the upward recurrence, for x >= _J_UPWARD."""
    inv = 1.0 / x
    a = list(np.multiply.outer(_J_ORDERS[:_GL_NODES.size], inv))
    j = np.empty((_GL_NODES.size, x.size))
    rows = list(j)
    np.multiply(np.sin(x), inv, out=rows[0])
    np.multiply(rows[0] - np.cos(x), inv, out=rows[1])
    for k in range(1, _GL_NODES.size - 1):
        np.multiply(a[k], rows[k], out=rows[k + 1])
        np.subtract(rows[k + 1], rows[k - 1], out=rows[k + 1])
    return j


# _legendre_panels: Legendre tails below this fraction of int |f| dx are taken
# for rounding, which the density near the spike carries up to 2e-9 of
_ROUNDING = 1e-6


def _legendre_panels(fvec, lo, hi, tol):
    """The disjoint panels [lo_k, hi_k], given in order, refined for Filon
    integration; returns the panels' lo, hi, Fourier coefficients,
    estimates, node values and the number of passes (fvec calls), the
    panels in order of their start.

    Each pass evaluates f on the 16 Gauss-Legendre nodes of every open
    panel in one call and takes the Legendre coefficients c_k of the
    polynomial through them; the panel's estimate is its width times
    |c_14| + |c_15|.  A panel is halved while its estimate exceeds tol,
    unless the estimate is below _ROUNDING of int |f| dx over the panel
    and the tail no longer falls: halving its parent did not cut the
    estimate below a quarter of the parent's, or |c_14| + |c_15| is not
    below a quarter of |c_12| + |c_13|.  There the tail is the rounding
    of f, or a singularity at an end that halving barely helps.  (A
    larger tail is a feature of f narrower than the panel, which
    halving resolves.)  The Fourier coefficients are c_k h 2 i^k, h the
    half width, ready for _filon_sums.  Each panel's refinement is its
    own, so its values do not depend on its company.
    """
    parent = np.full(lo.size, math.inf)
    done = []                 # the panels each pass finished
    while lo.size:
        h = 0.5 * (hi - lo)
        v = np.asarray(fvec((lo[:, None] + h[:, None] * _GL_OFFSETS).ravel())
                       ).reshape(-1, _GL_NODES.size)
        if not np.isfinite(v).all():
            raise ConvergenceError("integrand is not finite at a quadrature node",
                                   achieved=math.inf)
        c = (v[:, None, :] @ _GL_LEGENDRE)[:, 0, :] * h[:, None]
        tail = np.abs(c[:, -4:])
        est = 2.0 * (tail[:, 2] + tail[:, 3])
        split = est > tol
        if split.any():      # wide enough, and not at rounding level
            split &= (h > 0.5 * _MIN_ULPS * _EPS * np.maximum(np.abs(lo), np.abs(hi))) & (
                ((4.0 * est < parent) & (2.0 * est < tail[:, 0] + tail[:, 1]))
                | (est > _ROUNDING * h * _row_dots(np.abs(v), _GL_WEIGHTS)))
        keep = ~split
        done.append((lo[keep], hi[keep], c[keep], est[keep], v[keep]))
        lo, hi, mid = lo[split], hi[split], 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        parent = np.concatenate([est[split], est[split]])
    lo, hi, c, est, v = (np.concatenate(part) for part in zip(*done))
    order = lo.argsort()
    return lo[order], hi[order], c[order] * _TWO_I_K, est[order], v[order], len(done)


def _filon_sums(lo, hi, coef, s, counts):
    """sum over panels of int f exp(isx) dx from their Fourier
    coefficients (_legendre_panels), for consecutive groups of counts[k]
    panels with phases s[k], one value per group (0 for an empty group).

    Over a panel of centre c and half width h, int P_k(u) exp(iwu) du =
    2 i^k j_k(w) (DLMF 10.54.2), so the panel's integral is exp(isc) h
    sum_k c_k 2 i^k j_k(sh): exact for the polynomial at any s.  Each
    group is summed by itself, so its value does not depend on the
    others."""
    sp = np.repeat(s, counts)
    j = spherical_j(sp * (0.5 * (hi - lo)))
    vals = ((j[:, None, :] @ coef[:, :, None])[:, 0, 0]
            * np.exp(1j * sp * (0.5 * (lo + hi))))
    out = np.zeros(counts.size, dtype=complex)
    full = counts > 0
    out[full] = np.add.reduceat(vals, (np.cumsum(counts) - counts)[full])
    return out


_CORE_RUNGS = 8      # FourierTable: the least core, in rungs, taken as a series


class FourierTable:
    """int f(t) exp(ist) dt over windows [-min(r, head), r] around a spike
    of the given width at t = 0, for any batch of s > 0 with a reach r
    each, on panels fixed once for f.

    The reaches are the rungs r_j = (width/4) 2^j, and the table's panels
    are cut at every +-r_j, down to t = -head, where f has its head, and
    at the given edges (a ladder toward the head).  Each panel is refined
    by _legendre_panels, by itself, and the table is built in one piece
    for the widest reach asked, again when a batch reaches past it.  A
    time's window is two parts:

      * the core, the window of the largest rung with s r <= MOMENT_REACH
        when that is rung _CORE_RUNGS or later, is one power series
        sum_m (is)^m M_m / m!, m <= MOMENT_ORDER, over the moments
        M_m = int f t^m dt of its panels' nodes, which the table takes
        per panel when first asked for (as LaplaceTable's head);
      * the panels outside the core are one Filon contraction
        (_filon_sums) for the whole batch.

    The estimate is the sum of the window's panel estimates, plus for the
    core a bound on the series' rest, (int |f| dt) (s r)^15 / 15!.  A
    time's panels, value and estimate depend only on f, its s and its
    rung.
    """

    def __init__(self, fvec, width, head, edges, tol):
        self.fvec, self.unit, self.head, self.tol = fvec, 0.25 * width, head, tol
        self.edges = np.sort(np.asarray(edges, dtype=float))
        self.top = -1                     # the rungs built
        self.passes = 0

    def rung(self, d):
        """The index of the smallest rung at or past a finite d > 0:
        unit 2^j >= d exactly when j >= e - e0 + log2(m / m0), for
        d = m 2^e and unit = m0 2^e0, and m / m0 lies in (1/2, 2)."""
        (m, e), (m0, e0) = math.frexp(d), math.frexp(self.unit)
        return max(0, e - e0 + (m > m0))

    def reach(self, j):
        """The rung r_j."""
        return math.ldexp(self.unit, int(j))

    def _grow(self, top):
        """Panels for the rungs 0 .. top on both sides, cut down to
        -min(r_top, head) and at the edges inside that, each interval
        between two cuts halved to start with."""
        rungs = np.ldexp(self.unit, np.arange(top + 1))
        end = min(rungs[-1], self.head)
        inside = self.edges[(self.edges > -end) & (self.edges < 0.0)]
        edges = np.unique(np.concatenate([-rungs[rungs < end], [-end], inside,
                                          [0.0], rungs]))
        cut = np.empty(2 * edges.size - 1)
        cut[::2] = edges
        cut[1::2] = 0.5 * (edges[:-1] + edges[1:])
        self.lo, self.hi, self.coef, self.est, self.nodes, passes = _legendre_panels(
            self.fvec, cut[:-1], cut[1:], self.tol)
        self.passes += passes
        self.moments = self.mass = None         # taken again when asked for
        self.top = top

    def _core(self, a, b):
        """sum M_m / m! and int |f| dt / 15! over the panels a .. b - 1,
        each panel's taken from its nodes t when first asked for."""
        if self.mass is None:
            self.moments = np.full((self.lo.size, MOMENT_ORDER + 1), np.nan)
            self.mass = np.full(self.lo.size, np.nan)
        new = a + np.flatnonzero(np.isnan(self.mass[a:b]))
        if new.size:
            h = 0.5 * (self.hi[new] - self.lo[new])
            t = self.lo[new, None] + h[:, None] * _GL_OFFSETS
            self.moments[new], self.mass[new] = _moments(
                t, self.nodes[new] * (h[:, None] * _GL_WEIGHTS))
        return self.moments[a:b].sum(axis=0), self.mass[a:b].sum()

    def panels(self, j):
        """The index range [first, stop) of the panels of rung j's window
        [-min(r_j, head), r_j]."""
        r = self.reach(j)
        return (int(self.lo.searchsorted(-min(r, self.head))),
                int(self.hi.searchsorted(r, side="right")))

    def integrals(self, s, j):
        """Values and estimates for the 1-D arrays s > 0 and their rung
        indices j."""
        if j.max() > self.top:
            self._grow(int(j.max()))
        val, err = np.zeros(s.size, dtype=complex), np.zeros(s.size)
        ranges = []
        for k, (sk, jk) in enumerate(zip(s.tolist(), j.tolist())):
            first, stop = self.panels(jk)
            core = self.rung(MOMENT_REACH / sk)
            if self.reach(core) * sk > MOMENT_REACH:
                core -= 1
            if _CORE_RUNGS <= core < jk:
                a, b = self.panels(core)
                moments, mass = self._core(a, b)
                val[k] = _row_dots(moments, (1j * sk) ** np.arange(MOMENT_ORDER + 1))
                err[k] = (self.est[first:a].sum() + self.est[a:b].sum()
                          + self.est[b:stop].sum()
                          + mass * (sk * self.reach(core)) ** (MOMENT_ORDER + 1))
                ranges.append(np.r_[first:a, b:stop])
            else:
                ranges.append(np.arange(first, stop))
                err[k] = self.est[first:stop].sum()
        counts = np.array([r.size for r in ranges])
        idx = np.concatenate(ranges)
        val += _filon_sums(self.lo[idx], self.hi[idx], self.coef[idx], s, counts)
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
    """f, f', ..., f'''' at x from a 5-point central stencil of spacing h."""
    vals = fvec(x + h * np.arange(-2.0, 3.0))
    d0 = vals[2]
    d1 = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)
    d2 = (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) / (12 * h * h)
    d3 = (vals[4] - 2 * vals[3] + 2 * vals[1] - vals[0]) / (2 * h ** 3)
    d4 = (vals[4] - 4 * vals[3] + 6 * vals[2] - 4 * vals[1] + vals[0]) / h ** 4
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


_CAP_PANELS = 24      # byparts_segment: half-period panels at each end


def byparts_segment(fvec, a, b, s, scale_b):
    """int_a^b f exp(isx) dx for a > 0: _CAP_PANELS half-period panels
    (panel_integrals) at each end and, between them, five integrations by
    parts, valid when s times f's smoothness scale at the caps' inner ends
    is >> 1: scale_b at the right, at the left a + _CAP_PANELS pi / s, the
    distance from a head at x = 0.  The error estimate is a few times the
    last retained term, and the caps add none."""
    h = math.pi / s
    cap_a = panel_integrals(fvec, a, _CAP_PANELS, h, s).sum()
    cap_b = panel_integrals(fvec, b - _CAP_PANELS * h, _CAP_PANELS, h, s).sum()
    va, la = _byparts_terms(fvec, a + _CAP_PANELS * h, s, a + _CAP_PANELS * h)
    vb, lb = _byparts_terms(fvec, b - _CAP_PANELS * h, s, scale_b)
    return vb - va + cap_a + cap_b, 3.0 * abs(lb - la)


def oscillatory_finite(fvec, b, s, scale_b, epsabs=1e-12):
    """int_0^b_k f exp(is_k x) dx for f smooth on (0, b_k], one integral
    per element of the 1-D arrays b, s and scale_b; returns arrays of
    their values and error estimates.

    The first half period from 0 is adaptive, with a geometric ladder
    toward 0, where f may have a head such as the sqrt of phi1; the rest
    is 24-panel caps at both ends and, between them, by parts
    (byparts_segment).  A rest of at most 2 _CAP_PANELS = 48 half
    periods, where the caps would overlap, raises ValueError.  The first
    half periods of all elements are one quad_segments call of K
    integrals.
    """
    h = math.pi / s                         # each element's first half period
    fixed, fixed_err = np.zeros(b.size, dtype=complex), np.zeros(b.size)
    segs = []
    for k, (hk, bk, sk, scale) in enumerate(zip(h.tolist(), b.tolist(), s.tolist(),
                                                scale_b.tolist())):
        if sk * (bk - hk) / math.pi <= 2 * _CAP_PANELS:
            raise ValueError("oscillatory_finite needs more than "
                             f"{2 * _CAP_PANELS} half periods past the first")
        segs.append([0.0, *geometric_ladder(0.0, hk * 4.0 ** -6, 0.0, hk), hk])
        fixed[k], fixed_err[k] = byparts_segment(fvec, hk, bk, sk, scale)
    val, err = quad_segments(lambda x, j: fvec(x) * np.exp(1j * s[j] * x),
                             segs, epsabs=epsabs)
    return val + fixed, err + fixed_err


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
    difference, at least the roundoff eps sum |w f|.  b and s are numbers
    or arrays that broadcast to one shape, a tail per pair (b_k, s_k):
    fvec sees the nodes of all of them in one call, and the values and
    estimates have that shape."""
    b, s = np.asarray(b, dtype=float), np.asarray(s, dtype=float)
    x = b[..., None] + _DE_NODES / s[..., None]
    f = np.asarray(fvec(x.ravel())).reshape(x.shape)
    n = _DE_W1.size
    fine, coarse = _row_dots(f[..., :n], _DE_W1), _row_dots(f[..., n:], _DE_W2)
    diff = fine - coarse
    err = np.maximum(np.hypot(diff.real, diff.imag),
                     10.0 * _EPS * _row_dots(np.abs(f[..., :n]), np.abs(_DE_W1)))
    return fine * np.exp(1j * s * b) / s, err / s


def _row_dots(f, w):
    """f @ w by one dot product per row: a matrix-vector product of many
    rows may add a row in another order than the row alone."""
    return (f[..., None, :] @ w[:, None])[..., 0, 0]


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

    ladder = 1.0 - 4.0 ** -np.arange(1.0, 13.0)
    head, err = quad_complex(fold, 0.0, 1.0, ladder, columns=ys.size)
    far, far_err = quad_complex(rest, 0.0, 1.0, columns=ys.size)
    val = converged(head.real + far.real, err + far_err, "principal value")
    return float(val[0]) if y.ndim == 0 else val.reshape(y.shape)


def pv_dispersion(phi_vec, y):
    """PV int_0^inf phi(x)/(x - y) dx for y > 0, or an array of y:
    principal_value up to X = 4 max(1, max y), quad_complex to inf past X."""
    y = np.asarray(y, dtype=float)
    ys = y.ravel()
    if not ys.size:
        return np.zeros(y.shape)
    X = 4.0 * max(1.0, ys.max())
    tail, err = quad_complex(lambda x: phi_vec(x)[:, None]
                             / np.subtract.outer(x, ys), X, math.inf,
                             columns=ys.size)
    val = principal_value(phi_vec, ys, X) + converged(tail.real, err,
                                                      "dispersion tail")
    return float(val[0]) if y.ndim == 0 else val.reshape(y.shape)
