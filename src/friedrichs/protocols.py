"""Repeated ideal projective measurements and the Zeno / anti-Zeno zoo.

After N equally spaced ideal measurements over [0, T] the survival
probability is p(T/N)^N.  Everything here is computed in log space,
exp(N * ln p(T/N)), with ln p coming from the cancellation-free deficit
path, so protocols with N ~ 1e9 and deficits ~ 1e-14 stay accurate.

The interval between measurements controls three regimes: freezing for
intervals deep below the Zeno time, accelerated decay (anti-Zeno) in a
broad region above it, and the unperturbed exponential once intervals
reach the decay era.

ln p comes from memos filled in batches, one log_survival call for many
intervals.  protocol_curve fetches its N grid into a memo that lives for
the call, and hands it to anti_zeno_minimum, which fetches each round of
its search into it and so starts from the N grid just fetched.
n_epsilon fetches the next few scan candidates or bisection levels it
may visit into a memo per observation time that its calls at that time
share: the accuracies of one T walk one scan.
repeated_measurement_survival evaluates its one interval directly.

The deficit kernel's times share one node set, cut at the power-of-two
splits of the whole batch, so a batched ln p depends on which other
times share its batch only in the last bits: on the photodetachment,
quantum-dot and hydrogen presets it moves by up to 6e-16 relative
against the same times one by one or in random sub-batches.  The phi2
background takes every time on one fixed node set per parameter set (its
cached table), so there too the batch moves only the last bits: through
rounding, the nodes left out past x = 42/min(s), and the table's head
below x = 1/(4 max(s)), whose nodes a power series over cached moments
replaces.  A search whose answer hangs on such differences can answer
differently from one-at-a-time evaluation: on a flat anti-Zeno minimum,
a few N apart.  A memoized value is the one from the first batch that
fetched it, so an n_epsilon answer can also depend in those bits on the
n_epsilon calls at the same T that came before it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .amplitude import ShortTimeExpansion, log_survival, short_time_expansion
from .formfactors import Formfactor, ModelParams, Sentinel


UNBOUNDED = Sentinel("UNBOUNDED", True)


def _logp_memo(params: ModelParams, ff: Formfactor):
    """ln p(tau) memoized on tau: fetch(taus) returns ln p at taus as a
    list, with one log_survival call for those not in fetch.cache.  A
    lookup hits only for the very same float, so callers compute fetched
    taus with the expression they look them up with."""
    cache = {}

    def fetch(taus) -> list:
        missing = [tau for tau in dict.fromkeys(taus) if tau not in cache]
        if missing:
            cache.update(zip(missing, log_survival(params, ff, missing).tolist()))
        return [cache[tau] for tau in taus]

    fetch.cache = cache
    return fetch


@lru_cache(maxsize=32)
def _n_epsilon_memo(params: ModelParams, ff: Formfactor, T: float):
    """The ln p memo that the n_epsilon calls at one observation time
    share, for the 32 most recent (params, ff, T); a walk adds a few dozen
    intervals to it."""
    return _logp_memo(params, ff)


def _check_time(T: float):
    if not 0.0 < T < math.inf:
        raise ValueError("observation time must be positive and finite")


def _check_count(n, least: int, what: str):
    if not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{what} must be an integer >= {least}")


def repeated_measurement_survival(params: ModelParams, ff: Formfactor,
                                  T: float, N: int) -> float:
    """p_N(T) = p(T/N)^N for N ideal measurements over [0, T]."""
    if not 1 <= N < math.inf or N != int(N):
        raise ValueError("measurement count must be a positive integer")
    _check_time(T)
    return math.exp(N * log_survival(params, ff, T / N))


class ZenoLimitKind(Enum):
    FREEZE = "freeze"
    EXPONENTIAL = "exponential"
    VANISH = "vanish"


@dataclass(frozen=True)
class ZenoLimit:
    kind: ZenoLimitKind
    rate: Optional[float] = None   # only for the exponential fixed point


def zeno_limit_class(expansion: ShortTimeExpansion) -> ZenoLimit:
    """Continuous-measurement limit from the leading short-time exponent:
    above 1 the state freezes, exactly 1 reproduces exponential decay at
    the linear coefficient, below 1 the state is wiped out."""
    s = expansion.leading_exponent
    if s > 1.0:
        return ZenoLimit(ZenoLimitKind.FREEZE)
    if s == 1.0:
        return ZenoLimit(ZenoLimitKind.EXPONENTIAL, rate=1.0 / expansion.t_a)
    return ZenoLimit(ZenoLimitKind.VANISH)


@dataclass(frozen=True)
class AntiZenoMinimum:
    tau: float
    probability: float
    n_measurements: int
    degenerate: bool


_ROUND = 17            # anti_zeno_minimum: integers per round
_FIT = 1e-3            # anti_zeno_minimum: relative reach of the vertex fit


def anti_zeno_minimum(params: ModelParams, ff: Formfactor,
                      T: float, _ns=None, _fetch=None) -> AntiZenoMinimum:
    """Deepest point of p_N(T) over the number of measurements N.

    A coarse grid of N, then rounds over integers, each one log_survival
    call.  A round takes _ROUND integers spread geometrically over the
    bracket, ends included, and the best N so far, whose value is already
    known; the next bracket is the two samples next to the best one, so a
    unimodal p_N keeps its minimum inside.  Once the bracket is narrower
    than _ROUND, the last round takes every integer within _ROUND - 1 of
    _vertex's estimate of the minimum, and the best N.  The coarse grid
    is _ns, protocol_curve's N grid (whose ln p its memo _fetch holds),
    or else _n_grid's 161 intervals.  Returns the best p_N seen, coarse
    grid included.  A flat curve or a coarse minimum at an end of the
    grid (no interior minimum) sets the degenerate flag.
    """
    _check_time(T)
    if _ns is None:
        _ns = _n_grid(T, short_time_expansion(params, ff).validity_time, 161)
    fetch = _fetch or _logp_memo(params, ff)
    seen = {}

    def costs(ns: np.ndarray) -> np.ndarray:     # N ln p, one fetch
        vals = ns * np.array(fetch([T / n for n in ns.tolist()]))
        seen.update(zip(ns.tolist(), vals.tolist()))
        return vals

    ns = np.unique(_ns)
    vals = costs(ns)
    k = int(np.argmin(vals))
    degenerate = k in (0, ns.size - 1) or bool(vals.max() - vals.min() < 1e-15)
    while True:
        lo, hi = ns[max(k - 1, 0)], ns[min(k + 1, ns.size - 1)]
        if hi - lo < _ROUND:
            break
        ns = np.unique(np.append(np.rint(np.geomspace(lo, hi, _ROUND)), ns[k])
                       .astype(np.int64))
        vals = costs(ns)
        k = int(np.argmin(vals))
    best = int(ns[k])
    c = _vertex(seen, best)
    ns = np.unique(np.append(np.arange(max(1, c - _ROUND + 1), c + _ROUND), best))
    vals = costs(ns)
    k = int(np.argmin(vals))
    n_star = int(ns[k])
    return AntiZenoMinimum(T / n_star, math.exp(vals[k]), n_star, degenerate)


def _vertex(seen: dict, best: int) -> int:
    """The integer nearest the vertex of the least-squares parabola through
    the costs N ln p seen within _FIT of best; best itself when fewer than
    five lie there, or the parabola does not open upward with its vertex
    in that reach.  Past the deficit kernel's seam, rounding jitters p_N
    from one N to the next (3.5e-9 relative rms at T = 1e-2 t_d on
    photodetachment), so on a flat bottom the best sample can lie hundreds
    of N from the minimum; the fit averages the jitter out."""
    ns = np.array([n for n in seen if abs(n - best) <= _FIT * best])
    if ns.size < 5:
        return best
    x = ns / (_FIT * best) - 1.0 / _FIT
    y = np.array([seen[n] for n in ns.tolist()]) - seen[best]
    a2, a1, _ = np.polyfit(x, y, 2)
    if not (a2 > 0 and abs(a1) <= 2 * a2):
        return best
    return int(round(best - _FIT * best * a1 / (2 * a2)))


def _n_grid(T: float, t_z: float, n_tau: int) -> np.ndarray:
    """Distinct N = T/tau, descending, for n_tau intervals tau on a log
    grid over [1e-3 t_Z, T]."""
    taus = np.geomspace(1e-3 * t_z, T, n_tau)
    return np.unique(np.maximum(1, np.rint(T / taus)).astype(np.int64))[::-1]


_SCAN_AHEAD = 8        # n_epsilon: geometric-scan candidates per fetch
_BISECT_AHEAD = 4      # n_epsilon: bisection-tree levels per fetch


def n_epsilon(params: ModelParams, ff: Formfactor, T: float, eps: float,
              cap: int = 10 ** 9):
    """Largest N with p_n(T) >= (1 - eps) p_1(T) for every n <= N.

    Geometric scan brackets the first violation, integer bisection pins
    it.  When no scan point fails, p_n is tested at anti_zeno_minimum's
    N and at the cap, and the first of them that fails is bisected from
    the last scan point below it; UNBOUNDED when neither fails (when no
    violation occurs up to the cap, for a p_n that falls to one minimum
    and climbs back).  Whenever the
    next N is not cached, one log_survival call fetches it with the next
    scan candidates (_SCAN_AHEAD in all) or bisection levels
    (_BISECT_AHEAD); the walk is the sequential one, so it makes no more
    log_survival calls than that walk, though some times go unvisited.
    The calls at one T share their memo (_n_epsilon_memo), so another
    accuracy at that T finds the scan fetched and fetches only its own
    bisection levels, and a repeated call fetches nothing.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    _check_time(T)
    _check_count(cap, 1, "measurement cap")
    fetch = _n_epsilon_memo(params, ff, T)

    def p_n(n: int) -> float:          # n is fetched
        return math.exp(n * fetch.cache[T / n])

    def ok(n: int, ahead) -> bool:
        """p_n(T) >= threshold; on a miss, fetch the candidates ahead()
        lists, n first."""
        if T / n not in fetch.cache:
            fetch([T / k for k in ahead()])
        return p_n(n) >= threshold

    def step(n: int) -> int:
        return max(n + 1, int(n * 1.35))

    def scan_from(n):
        ns = []
        while n <= cap and len(ns) < _SCAN_AHEAD:
            ns.append(n)
            n = step(n)
        return ns

    def tree(lo, hi, depth):
        if hi - lo <= 1 or depth == 0:
            return []
        mid = (lo + hi) // 2
        return [mid] + tree(lo, mid, depth - 1) + tree(mid, hi, depth - 1)

    fetch([T / 1, *(T / k for k in scan_from(2))])
    threshold = (1.0 - eps) * p_n(1)

    good, n = [1], 2               # the scan points that pass
    while n <= cap:
        if not ok(n, lambda: scan_from(n)):
            break
        good.append(n)
        n = step(n)
    else:
        # no scan point fails.  The deepest point, anti_zeno_minimum's N,
        # may still: p_n falls to it and climbs back, so a narrow window
        # of violations can lie between two scan points.  So may the cap,
        # past the last scan point
        deepest = anti_zeno_minimum(params, ff, T).n_measurements
        for n in (deepest, cap):
            if n <= cap and n not in good and not ok(n, lambda: [n]):
                break
        else:
            return UNBOUNDED

    lo, hi = max(k for k in good if k < n), n      # ok(lo), not ok(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid, lambda: tree(lo, hi, _BISECT_AHEAD)):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class ProtocolResult:
    T: float
    n_values: np.ndarray
    tau_values: np.ndarray
    probabilities: np.ndarray
    reference_exponential: Optional[float]
    minimum: AntiZenoMinimum


def protocol_curve(params: ModelParams, ff: Formfactor, T: float,
                   n_tau: int = 400,
                   decay_time: Optional[float] = None) -> ProtocolResult:
    """p_N(T) sampled on a log grid of intervals tau in [1e-3 t_Z, T];
    duplicate integer N collapsed.  Its minimum is anti_zeno_minimum's,
    searched from this N grid."""
    _check_time(T)
    _check_count(n_tau, 2, "interval count")
    ns = _n_grid(T, short_time_expansion(params, ff).validity_time, n_tau)
    fetch = _logp_memo(params, ff)
    lps = fetch([T / n for n in ns.tolist()])
    ps = np.array([math.exp(n * lp) for n, lp in zip(ns.tolist(), lps)])
    ref = math.exp(-T / decay_time) if decay_time else None
    minimum = anti_zeno_minimum(params, ff, T, _ns=ns, _fetch=fetch)
    return ProtocolResult(T, ns, T / ns, ps, ref, minimum)
