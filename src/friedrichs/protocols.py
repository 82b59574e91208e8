"""Repeated ideal projective measurements and the Zeno / anti-Zeno zoo.

After N equally spaced ideal measurements over [0, T] the survival
probability is p(T/N)^N.  Everything here is computed in log space,
exp(N * ln p(T/N)), with ln p coming from the cancellation-free deficit
path, so protocols with N ~ 1e9 and deficits ~ 1e-14 stay accurate.

The interval between measurements controls three regimes: freezing for
intervals deep below the Zeno time, accelerated decay (anti-Zeno) in a
broad region above it, and the unperturbed exponential once intervals
reach the decay era.

N ln p(T/N) comes from a store per observation time, keyed by the
integer N and filled in batches of one log_survival call each.
protocol_curve fills a fresh store with its N grid and hands it to
anti_zeno_minimum, which starts its search from that grid and fetches
each round into the same store.  The n_epsilon calls at one T share a
store, so the accuracies of one T walk one scan.
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
a few N apart.  A stored value is the one from the first batch that
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


@lru_cache(maxsize=32)
def _costs(params: ModelParams, ff: Formfactor, T: float):
    """N ln p(T/N) stored on the integer N: costs(ns) returns it at ns as
    an array, with one log_survival call for the N not in costs.held.
    Cached for the 32 most recent (params, ff, T), the store the n_epsilon
    calls at one T share; _costs.__wrapped__ makes a fresh one."""
    held = {}

    def costs(ns) -> np.ndarray:
        ns = np.asarray(ns).tolist()
        missing = [n for n in dict.fromkeys(ns) if n not in held]
        if missing:
            lps = log_survival(params, ff, [T / n for n in missing])
            held.update(zip(missing, (np.array(missing) * lps).tolist()))
        return np.array([held[n] for n in ns])

    costs.held = held
    return costs


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


_ROUND = 17            # anti_zeno_minimum, n_epsilon: integers per round
_FIT = 1e-3            # anti_zeno_minimum: relative reach of the vertex fit


def anti_zeno_minimum(params: ModelParams, ff: Formfactor,
                      T: float, _store=None) -> AntiZenoMinimum:
    """Deepest point of p_N(T) over the number of measurements N.

    A coarse grid of N, then rounds over integers, each one log_survival
    call.  A round takes _ROUND integers spread geometrically over the
    bracket, ends included, and the best N so far, whose value is already
    known; the next bracket is the two samples next to the best one, so a
    unimodal p_N keeps its minimum inside.  Once the bracket is narrower
    than _ROUND, the last round takes every integer within _ROUND - 1 of
    _vertex's estimate of the minimum, and the best N.  The coarse grid
    is the N that _store holds (protocol_curve's N grid), or else
    _n_grid's 161 intervals.  Returns the best p_N seen, coarse grid
    included.  A flat curve or a coarse minimum at an end of the grid (no
    interior minimum) sets the degenerate flag.
    """
    _check_time(T)
    costs = _store or _costs.__wrapped__(params, ff, T)
    ns = np.unique(list(costs.held) or _n_grid(
        T, short_time_expansion(params, ff).validity_time, 161))
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
    c = _vertex(costs.held, best)
    ns = np.unique(np.append(np.arange(max(1, c - _ROUND + 1), c + _ROUND), best))
    vals = costs(ns)
    k = int(np.argmin(vals))
    n_star = int(ns[k])
    return AntiZenoMinimum(T / n_star, math.exp(vals[k]), n_star, degenerate)


def _vertex(held: dict, best: int) -> int:
    """The integer nearest the vertex of the least-squares parabola through
    the costs N ln p held within _FIT of best; best itself when fewer than
    five lie there, or the parabola does not open upward with its vertex
    in that reach.  Past the deficit kernel's seam, rounding jitters p_N
    from one N to the next (3.5e-9 relative rms at T = 1e-2 t_d on
    photodetachment), so on a flat bottom the best sample can lie hundreds
    of N from the minimum; the fit averages the jitter out."""
    ns = np.array([n for n in held if abs(n - best) <= _FIT * best])
    if ns.size < 5:
        return best
    x = ns / (_FIT * best) - 1.0 / _FIT
    y = np.array([held[n] for n in ns.tolist()]) - held[best]
    a2, a1, _ = np.polyfit(x, y, 2)
    if not (a2 > 0 and abs(a1) <= 2 * a2):
        return best
    return int(round(best - _FIT * best * a1 / (2 * a2)))


def _n_grid(T: float, t_z: float, n_tau: int) -> np.ndarray:
    """Distinct N = T/tau, descending, for n_tau intervals tau on a log
    grid over [1e-3 t_Z, T]."""
    taus = np.geomspace(1e-3 * t_z, T, n_tau)
    return np.unique(np.maximum(1, np.rint(T / taus)).astype(np.int64))[::-1]


_SCAN_AHEAD = 8        # n_epsilon: scan points per fetch


@lru_cache(maxsize=8)
def _scan(cap: int) -> tuple:
    """n_epsilon's geometric scan up to the cap: 1, 2, 3, 4, 5, 6, 8, 10,
    13, ..., each max(n + 1, int(1.35 n)) of the one before."""
    scan, n = [1], 2
    while n <= cap:
        scan.append(n)
        n = max(n + 1, int(n * 1.35))
    return tuple(scan)


def n_epsilon(params: ModelParams, ff: Formfactor, T: float, eps: float,
              cap: int = 10 ** 9):
    """Largest N with p_n(T) >= (1 - eps) p_1(T) for every n <= N.

    A geometric scan (_scan) brackets the first violation, and rounds of
    at most _ROUND integers spread evenly over the bracket, ends included,
    pin it: the next bracket ends at the first of them that fails.  When
    no scan point fails, p_n is tested at anti_zeno_minimum's N and at the
    cap, and the first of them that fails is bracketed from the last scan
    point below it; UNBOUNDED when neither fails (when no violation occurs
    up to the cap, for a p_n that falls to one minimum and climbs back).
    The scan is fetched _SCAN_AHEAD points at a time (N = 1 joins the
    first chunk), and each round in one call.  The calls at one T share
    their store (_costs), so another accuracy at that T finds the scan
    fetched, and a repeated call fetches nothing.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    _check_time(T)
    _check_count(cap, 1, "measurement cap")
    costs = _costs(params, ff, T)
    scan = _scan(cap)
    threshold = (1.0 - eps) * math.exp(costs(scan[:_SCAN_AHEAD + 1])[0])

    def first_failure(ns):
        """Index of the first n in ns with p_n(T) < threshold, else len(ns)."""
        return next((k for k, c in enumerate(costs(ns).tolist())
                     if math.exp(c) < threshold), len(ns))

    for i in range(1, len(scan), _SCAN_AHEAD):
        chunk = scan[i:i + _SCAN_AHEAD]
        k = first_failure(chunk)
        if k < len(chunk):
            hi = chunk[k]
            break
    else:
        # no scan point fails.  The deepest point, anti_zeno_minimum's N,
        # may still: p_n falls to it and climbs back, so a narrow window
        # of violations can lie between two scan points.  So may the cap,
        # past the last scan point
        deepest = anti_zeno_minimum(params, ff, T).n_measurements
        for hi in (deepest, cap):
            if hi <= cap and hi not in scan and first_failure([hi]) == 0:
                break
        else:
            return UNBOUNDED

    lo = max(n for n in scan if n < hi)            # lo passes, hi fails
    while hi - lo > 1:
        m = min(_ROUND, hi - lo + 1)
        ns = [lo + round((hi - lo) * j / (m - 1)) for j in range(m)]  # lo .. hi
        k = 1 + first_failure(ns[1:-1])
        lo, hi = ns[k - 1], ns[k]
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
    costs = _costs.__wrapped__(params, ff, T)
    ps = np.array([math.exp(c) for c in costs(ns).tolist()])
    ref = math.exp(-T / decay_time) if decay_time else None
    minimum = anti_zeno_minimum(params, ff, T, _store=costs)
    return ProtocolResult(T, ns, T / ns, ps, ref, minimum)
