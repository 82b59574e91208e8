"""The three benchmark workloads.

Each workload is built from a freshly imported `friedrichs` package, a
seed and the number of rounds the run will make.  Construction is the
workload's set-up.  `round(r)` returns the items of round r as (item id,
item count, thunk); the thunks call only the library's public functions,
the same ones the CLI `curve`, `protocol` and `neps` commands call.
`check(item, output)` returns how many of the item's entries are wrong; an
exception from the library is passed in as the output and fails every
entry.  `may_fail(item)` is true only for items with a known defect of the
library: a failure of any other item makes the run incorrect.

protocol repeats the same items every round; curve runs the same presets
every round, at times jittered afresh (warm root caches, the way the CLI
uses them); sweep draws fresh parameters for every round in its set-up,
so each of its items meets cold parameter caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Item:
    id: str
    size: int
    run: Callable[[], object]


class Workload:
    ROUND_S: float         # seconds per round of the starting code

    @classmethod
    def rounds(cls, seconds):
        """Rounds per run: set by `seconds` alone, not by the speed of the
        code, so every version of the code is timed on the same work."""
        return max(2, round(seconds / cls.ROUND_S))

    def may_fail(self, item):
        return False


def fingerprint(output):
    """Exact identity of an item's output, for comparing repeated rounds."""
    if hasattr(output, "probabilities"):
        return output.probabilities.tobytes()
    return repr(output)


def _jitter(rng, values, decades):
    """Scale each value by 10**u, u uniform in [-decades, decades]."""
    values = np.asarray(values, dtype=float)
    return values * 10.0 ** rng.uniform(-decades, decades, values.shape)


class Curve(Workload):
    """sample_curve on the CLI's log grid, 1e-3 t_Z .. 5 t_ep plus the
    t_Z and t_d anchors, coarsened to N_POINTS and jittered, for round r,
    by the seed and r.  One item is one time point.

    Every round has its own jitter because the cost of a quadrature point
    is erratic in t: the hydrogen point at 0.2 t_ep takes about half of a
    round, and moving it by 0.0005 decades changes its cost by up to a
    fifth.  A run then averages that cost over its rounds instead of
    repeating one draw of it."""

    N_POINTS = 12          # the CLI default is 200
    JITTER = 0.01          # decades; keeps every point in its phase regime
    CASES = (("hydrogen", "AUTO"), ("photodetachment", "QUADRATURE"),
             ("quantum-dot", "AUTO"))
    CROSS_ENGINE = {"photodetachment": "PHI1_EXACT",
                    "quantum-dot": "QUADRATURE"}
    CROSS_SUBSET = 4       # cross-engine points per preset, spread evenly
    ROUND_S = 4.8

    def __init__(self, F, seed, rounds):
        self.F = F
        self.cases = {}
        grids = {}
        for name, engine in self.CASES:
            params, ff = F.preset(name)
            ts = F.compute_timescales(params, ff)
            grids[name] = np.concatenate([
                np.geomspace(1e-3 * ts.t_z, 5.0 * ts.t_ep, self.N_POINTS),
                [ts.t_z, ts.t_d]])
            self.cases[name] = (params, ff, F.Engine[engine], ts.t_d)
        self.times = {}    # item id -> times
        for r in range(rounds):
            rng = np.random.default_rng([seed, r])
            for name, grid in grids.items():
                self.times[f"{r}:{name}"] = np.unique(_jitter(rng, grid, self.JITTER))

    def round(self, r):
        items = []
        for name, (params, ff, eng, t_d) in self.cases.items():
            key = f"{r}:{name}"
            items.append(Item(key, len(self.times[key]),
                              lambda p=params, f=ff, e=eng, t=self.times[key], d=t_d:
                              self.F.sample_curve(p, f, t, engine=e, decay_time=d)))
        return items

    def check(self, item, curve):
        if isinstance(curve, Exception):
            return item.size
        F = self.F
        name = item.id.split(":")[1]
        params, ff, eng, _ = self.cases[name]
        times = self.times[item.id]
        p, err = curve.probabilities, curve.error_estimates
        bad = (p < 0.0) | (p > 1.0) | (err > 1e-7)
        picks = np.unique(np.linspace(0, len(times) - 1, self.CROSS_SUBSET)
                          .round().astype(int))
        other = self.CROSS_ENGINE.get(name)
        if other:
            for k in picks:
                try:
                    a = F.survival_amplitude(params, ff, times[k], eng)
                    b = F.survival_amplitude(params, ff, times[k], F.Engine[other])
                except (F.FriedrichsError, ValueError):
                    bad[k] = True
                    continue
                bad[k] |= abs(a - b) >= 1e-8 or abs(abs(a) ** 2 - p[k]) >= 1e-8
        if name == "hydrogen":
            for k in np.flatnonzero(params.cutoff * times <= 1.0):
                try:
                    d = F.survival_deficit(params, ff, times[k])
                except (F.FriedrichsError, ValueError):
                    bad[k] = True
                    continue
                bad[k] |= abs((1.0 - p[k]) - d) >= 1e-8
        return int(bad.sum())


class Protocol(Workload):
    """Photodetachment protocol_curve at T = 1e-3 t_d (one of the CLI's
    observation times) plus quantum-dot n_epsilon over the CLI default
    grid, 7 values of T/t_d times 3 accuracies.  The seed jitters the
    observation times.  One item is one public call."""

    T_OVER_TD = 1e-3
    N_TAU = 100            # the CLI default is 400
    NEPS_T_OVER_TD = np.geomspace(1e-3, 1e-1, 7)
    NEPS_EPSILON = (1e-2, 3e-3, 1e-3)
    JITTER = 0.02          # decades
    ROUND_S = 10.5

    def __init__(self, F, seed, rounds):
        self.F = F
        rng = np.random.default_rng(seed)
        self.pd = F.preset("photodetachment")
        self.pd_td = F.compute_timescales(*self.pd).t_d
        self.T = float(_jitter(rng, self.T_OVER_TD, self.JITTER)) * self.pd_td
        self.qd = F.preset("quantum-dot")
        qd_td = F.compute_timescales(*self.qd).t_d
        ratios = _jitter(rng, self.NEPS_T_OVER_TD, self.JITTER)
        self.neps = {f"n_epsilon:{eps:g}:{k}": (float(ratio) * qd_td, eps)
                     for eps in self.NEPS_EPSILON
                     for k, ratio in enumerate(ratios)}

    def round(self, r):
        F = self.F
        items = [Item("protocol_curve", 1,
                      lambda: F.protocol_curve(*self.pd, self.T, n_tau=self.N_TAU,
                                               decay_time=self.pd_td))]
        items += [Item(key, 1, lambda T=T, eps=eps: F.n_epsilon(*self.qd, T, eps))
                  for key, (T, eps) in self.neps.items()]
        return items

    def check(self, item, out):
        if isinstance(out, Exception):
            return 1
        F = self.F
        try:
            if item.id == "protocol_curve":
                p1 = out.probabilities[out.n_values == 1]
                exact = F.survival_probability(*self.pd, self.T)
                ok = (p1.size == 1 and abs(p1[0] - exact) <= 1e-12 * exact
                      and out.minimum.probability <= out.probabilities.min())
            else:
                T, eps = self.neps[item.id]
                N = 10 ** 9 if out is F.UNBOUNDED else out   # n_epsilon's cap
                p = lambda n: F.repeated_measurement_survival(*self.qd, T, n)
                threshold = (1.0 - eps) * p(1)
                ok = p(N) >= threshold and (out is F.UNBOUNDED
                                            or p(N + 1) < threshold)
        except (F.FriedrichsError, ValueError):
            return 1
        return 0 if ok else 1


class Sweep(Workload):
    """Seeded draws over a weak-coupling box: cutoff 1e12 s^-1,
    omega1/cutoff log-uniform in [1e-6, 1e-2], coupling_sq log-uniform in
    [1e-9, 1e-3], for phi1, phi2 and phi3.  The set-up draws DRAWS
    parameter sets per formfactor for each round, round r from the seed
    and r alone; draws with a bound state are rejected, redrawn and counted
    in `rejected`.  A fixed count per formfactor keeps the mix of cheap
    (phi1) and costly (phi3) items, and so the work per round, the same in
    every round.  One item is one draw: timescales, roots, spectral peak
    and A(t) at t = 0 and t = t_d.

    phi2 and phi3 items may fail; phi1 items may not.  phi2: the Newton
    seeds can converge onto one resonance root, which is then counted
    twice, and A(0) is far from 1 (about 20% of phi2 draws).  phi3: the
    quadrature engine's A(0), the integral of the spectral density, misses
    1 by 1.0-1.5e-8 against the 1e-8 check (about 0.4% of phi3 draws)."""

    CUTOFF = 1e12
    LOG_W = (-6.0, -2.0)
    LOG_G2 = (-9.0, -3.0)
    FORMFACTORS = ("phi1", "phi2", "phi3")
    DRAWS = 6
    ROUND_S = 1.9
    MAY_FAIL = ("phi2", "phi3")

    def __init__(self, F, seed, rounds):
        self.F = F
        self.rejected = 0
        self.draws = []
        for r in range(rounds):
            rng = np.random.default_rng([seed, r])
            self.draws.append([(ff_name, k, ff, self._draw(rng, ff))
                               for ff_name in self.FORMFACTORS
                               for ff in [F.builtin(ff_name)]
                               for k in range(self.DRAWS)])

    def round(self, r):
        return [Item(f"{r}:{ff_name}:{k}", 1,
                     lambda p=params, f=ff: self._item(p, f))
                for ff_name, k, ff, params in self.draws[r]]

    def _draw(self, rng, ff):
        """Log-uniform parameters in the box without a bound state."""
        while True:
            w = 10.0 ** rng.uniform(*self.LOG_W)
            params = self.F.ModelParams(self.CUTOFF, w * self.CUTOFF,
                                        10.0 ** rng.uniform(*self.LOG_G2))
            if self.F.bound_state_margin(params, ff) > 0:
                return params
            self.rejected += 1

    def _item(self, params, ff):
        F = self.F
        ts = F.compute_timescales(params, ff)
        F.resonance_roots(params, ff)
        F.spectral_peak(params, ff)
        return (F.survival_amplitude(params, ff, 0.0),
                F.survival_amplitude(params, ff, ts.t_d))

    def check(self, item, out):
        if isinstance(out, Exception):
            return 1
        a0, a_td = out
        return int(not (abs(a0 - 1.0) < 1e-8 and abs(a_td) ** 2 <= 1.0 + 1e-8))

    def may_fail(self, item):
        return item.id.split(":")[1] in self.MAY_FAIL


WORKLOADS = {"curve": Curve, "protocol": Protocol, "sweep": Sweep}
