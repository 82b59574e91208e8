"""Repeated ideal projective measurements and the Zeno / anti-Zeno zoo.

After N equally spaced ideal measurements over [0, T] the survival
probability is p(T/N)^N.  Everything here is computed in log space,
exp(N * ln p(T/N)), with ln p coming from the cancellation-free deficit
path, so protocols with N ~ 1e9 and deficits ~ 1e-14 stay accurate.

The interval between measurements controls three regimes: freezing for
intervals deep below the Zeno time, accelerated decay (anti-Zeno) in a
broad region above it, and the unperturbed exponential once intervals
reach the decay era.

ln p comes from a memo that is filled in batches, one log_survival call
for many intervals: protocol_curve prefetches its N grid together with
the anti-Zeno scan, and n_epsilon prefetches the next few scan candidates
or bisection levels it may visit.  The searches then walk the memo in the
order they always did.

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
differently from one-at-a-time evaluation:
on a flat anti-Zeno minimum, protocol_curve's minimum (scan batched with
the N grid) can lie a few N from that of a standalone anti_zeno_minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .amplitude import ShortTimeExpansion, log_survival, short_time_expansion
from .formfactors import Formfactor, ModelParams, Sentinel


UNBOUNDED = Sentinel("UNBOUNDED", True)


def _logp_memo(params: ModelParams, ff: Formfactor):
    """ln p(tau) memoized on tau.  logp.prefetch(taus) fills the cache
    with one log_survival call for the taus it lacks.  A lookup hits only
    for the very same float, so callers compute prefetched taus with the
    expression they look them up with."""
    cache = {}

    def logp(tau: float) -> float:
        val = cache.get(tau)
        if val is None:
            val = log_survival(params, ff, tau)
            cache[tau] = val
        return val

    def prefetch(taus):
        missing = [tau for tau in dict.fromkeys(taus) if tau not in cache]
        if missing:
            cache.update(zip(missing, log_survival(params, ff, missing).tolist()))

    logp.cache, logp.prefetch = cache, prefetch
    return logp


def repeated_measurement_survival(params: ModelParams, ff: Formfactor,
                                  T: float, N: int,
                                  _logp=None) -> float:
    """p_N(T) = p(T/N)^N for N ideal measurements over [0, T]."""
    if N < 1 or N != int(N):
        raise ValueError("measurement count must be a positive integer")
    if not T > 0:
        raise ValueError("observation time must be positive")
    lp = (_logp or (lambda tau: log_survival(params, ff, tau)))(T / N)
    return math.exp(N * lp)


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


def anti_zeno_minimum(params: ModelParams, ff: Formfactor,
                      T: float, _logp=None) -> AntiZenoMinimum:
    """Deepest point of p_N(T) over the measurement interval.

    Coarse scan on log tau, golden-section refinement, then integer
    refinement of N = T/tau.  A flat curve (no interior minimum) is
    returned with the degenerate flag set.
    """
    if not T > 0:
        raise ValueError("observation time must be positive")
    logp = _logp or _logp_memo(params, ff)
    grid = _anti_zeno_grid(T, short_time_expansion(params, ff).validity_time)
    logp.prefetch([math.exp(x) for x in grid])

    def cost(ltau: float) -> float:
        tau = math.exp(ltau)
        return (T / tau) * logp(tau)   # minimize = deepest p_N

    vals = np.array([cost(x) for x in grid])
    k = int(np.argmin(vals))
    degenerate = k in (0, len(grid) - 1) or bool(vals.max() - vals.min() < 1e-15)
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = cost(x1), cost(x2)
    for _ in range(80):
        if b - a < 1e-12:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = cost(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = cost(x2)
    tau_star = math.exp(0.5 * (a + b))

    n_best = max(1, round(T / tau_star))
    ns = range(max(1, n_best - 3), n_best + 4)
    logp.prefetch([T / n for n in ns])
    p_n = lambda n: repeated_measurement_survival(params, ff, T, n, _logp=logp)
    n_star = min(ns, key=p_n)
    return AntiZenoMinimum(T / n_star, p_n(n_star), n_star, degenerate)


def _anti_zeno_grid(T: float, t_z: float) -> np.ndarray:
    """The coarse scan of anti_zeno_minimum: 161 values of ln tau."""
    return np.linspace(math.log(1e-3 * t_z), math.log(T), 161)


_SCAN_AHEAD = 8        # n_epsilon: geometric-scan candidates per prefetch
_BISECT_AHEAD = 4      # n_epsilon: bisection-tree levels per prefetch


def n_epsilon(params: ModelParams, ff: Formfactor, T: float, eps: float,
              cap: int = 10 ** 9):
    """Largest N with p_n(T) >= (1 - eps) p_1(T) for every n <= N.

    Geometric scan brackets the first violation, integer bisection pins
    it; UNBOUNDED when no violation occurs up to the cap.  Whenever the
    next N is not cached, one log_survival call fetches it with the next
    scan candidates (_SCAN_AHEAD in all) or bisection levels
    (_BISECT_AHEAD); the walk is the sequential one, so it makes no more
    log_survival calls than that walk, though some times go unvisited.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    if not T > 0:
        raise ValueError("observation time must be positive")
    logp = _logp_memo(params, ff)

    def ok(n: int, ahead) -> bool:
        """p_n(T) >= threshold; on a miss, prefetch the candidates ahead()
        lists, n first."""
        if T / n not in logp.cache:
            logp.prefetch([T / k for k in ahead()])
        return repeated_measurement_survival(params, ff, T, n, _logp=logp) >= threshold

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

    logp.prefetch([T / 1, *(T / k for k in scan_from(2))])
    p1 = repeated_measurement_survival(params, ff, T, 1, _logp=logp)
    threshold = (1.0 - eps) * p1

    last_good, n = 1, 2
    while n <= cap:
        if not ok(n, lambda: scan_from(n)):
            break
        last_good, n = n, step(n)
    else:
        return UNBOUNDED

    lo, hi = last_good, n          # ok(lo), not ok(hi)
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
    duplicate integer N collapsed."""
    if not T > 0:
        raise ValueError("observation time must be positive")
    logp = _logp_memo(params, ff)
    t_z = short_time_expansion(params, ff).validity_time
    taus = np.geomspace(1e-3 * t_z, T, n_tau)
    ns = sorted(set(max(1, int(round(T / tau))) for tau in taus), reverse=True)
    # the N grid and the anti-Zeno scan in one batch
    logp.prefetch([T / n for n in ns]
                  + [math.exp(x) for x in _anti_zeno_grid(T, t_z)])
    ns = np.array(ns, dtype=np.int64)
    ps = np.array([repeated_measurement_survival(params, ff, T, int(n), _logp=logp)
                   for n in ns])
    ref = math.exp(-T / decay_time) if decay_time else None
    minimum = anti_zeno_minimum(params, ff, T, _logp=logp)
    return ProtocolResult(T, ns, T / ns, ps, ref, minimum)
