"""Characteristic times of the decay: Zeno, quadratic, exponential, and
exponential-to-power crossover scales.

Conventions
-----------
t_a     scale of the leading short-time term, 1 - p ~ (t/t_a)^s.
t_b     scale of the next term of the expansion.
t_Z     balance point where the two terms match; the region where
        repeated measurement freezes decay ends here, orders of
        magnitude before t_a; the short-time expansion's validity_time.
t_d     tabulated decay-time convention per formfactor.  For the
        sqrt-head weight t_d is the 1/e time of the *amplitude*, so the
        probability decays at rate 2/t_d; for the rational weights t_d
        is the 1/e time of the probability itself.  The report flags
        this factor-2 convention split rather than hiding it.
t_ep    closed-form estimate of the exponential-to-power-law handover,
        a leading-log solution of a transcendental equation; the
        numeric crossover solver is its independent check.

Shifted quantities (the resonance root's real part and width) come from
the exact second-sheet roots; the closed-form entries that reference the
shifted frequency use those root-based values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .amplitude import asymptote_terms, short_time_expansion
from .dispersion import decaying_resonance
from .errors import ConvergenceError, EngineMismatchError
from .formfactors import PHI1, PHI2, Formfactor, ModelParams, bound_state_margin


class Provenance(Enum):
    CLOSED_FORM = "closed-form"
    ROOT_BASED = "root-based"
    NUMERIC = "numeric"


@dataclass
class Timescales:
    """t_a, t_b and t_z are the short-time expansion's t_a, t_b and
    validity_time; the rest as the module docstring says."""

    t_a: float
    leading_exponent: float
    t_b: Optional[float]
    t_z: float
    t_d: float
    t_ep: float
    gamma: float            # dimensionless width parameter
    omega_tilde: float      # shifted frequency, s^-1
    provenance: dict = field(default_factory=dict)
    notes: tuple = ()

    def as_rows(self):
        return [("t_Z", self.t_z), ("t_a", self.t_a),
                ("t_d", self.t_d), ("t_ep", self.t_ep)]


_FACTOR2_NOTE = (
    "t_d for the sqrt-head formfactor is the amplitude 1/e time; the "
    "probability decays at rate 2/t_d, unlike the rational formfactors "
    "where t_d is the probability 1/e time."
)


def compute_timescales(params: ModelParams, ff: Formfactor) -> Timescales:
    if not ff.is_builtin:
        # custom weights: only the generic weak-coupling trio is defined
        raise EngineMismatchError(
            "timescales beyond (t_a, t_b, t_Z) need a built-in formfactor; "
            "use short_time_expansion for the generic scales")
    cut, lam, g2 = params.cutoff, params.coupling, params.coupling_sq
    exp = short_time_expansion(params, ff)
    root = decaying_resonance(params, ff)
    omega_tilde = root.z.real * cut
    if ff.id == PHI1:
        gamma = root.z.imag / (2.0 * math.sqrt(root.z.real))
        t_d = 1.0 / (math.pi * g2 * math.sqrt(cut * omega_tilde))
        t_ep = (-5.0 * math.log(g2 * g2 * cut / omega_tilde)
                / (4.0 * math.pi * g2 * math.sqrt(cut * omega_tilde)))
        t_d_from = t_ep_from = Provenance.ROOT_BASED
    else:
        gamma = 2.0 * root.z.imag
        t_d = 1.0 / (2.0 * math.pi * g2 * params.omega1)
        t_d_from = Provenance.CLOSED_FORM
        if ff.id == PHI2:
            q0 = bound_state_margin(params, ff)
            t_ep = 4.0 / (gamma * cut) * math.log(q0 / (lam * gamma))
            t_ep_from = Provenance.ROOT_BASED
        else:
            t_ep = -2.0 * math.log(2.0 * math.pi * lam ** 3) / (math.pi * g2 * params.omega1)
            t_ep_from = Provenance.CLOSED_FORM
    prov = {"t_a": Provenance.CLOSED_FORM, "t_b": Provenance.CLOSED_FORM,
            "t_z": Provenance.CLOSED_FORM, "t_d": t_d_from, "t_ep": t_ep_from,
            "gamma": Provenance.ROOT_BASED, "omega_tilde": Provenance.ROOT_BASED}
    notes = (_FACTOR2_NOTE,) if ff.id == PHI1 else ()
    return Timescales(exp.t_a, exp.leading_exponent, exp.t_b, exp.validity_time,
                      t_d, t_ep, gamma, omega_tilde, prov, notes)


# crossover_time_numeric's Newton steps, at most: 5 on the sweep box, 27 for R
# one ulp above 1, where the root nears u = 1 and the slope 1 - 1/u with it
_NEWTON = 50


def crossover_time_numeric(params: ModelParams, ff: Formfactor) -> float:
    """Time where the exponential and power terms of the long-time
    asymptote, |W|^2 exp(-2 Im z s) and (C s^-b)^2 with b = head exponent
    + 1, meet for the second time.  Their log ratio peaks at s1 = b / Im z,
    and the crossing u = s / s1 solves u - ln u = R, R = 1 + ln(ratio at
    s1) / (2b): the W_-1 branch of Lambert's function (Corless et al., Adv.
    Comput. Math. 5 (1996) 329).  Newton from u = 2R descends onto it, since
    u - ln u is convex and increasing past 1.  ValueError when R <= 1."""
    b = ff.head_exponent + 1.0
    s1 = b / decaying_resonance(params, ff).z.imag
    expo, power = asymptote_terms(params, ff, s1 / params.cutoff)
    if not expo > power:
        raise ValueError("the exponential and power terms of the asymptote "
                         "do not cross")
    r = 1.0 + math.log(expo / power) / (2.0 * b)
    u = 2.0 * r
    for _ in range(_NEWTON):
        step = (u - math.log(u) - r) * u / (u - 1.0)
        u -= step
        if step <= 1e-15 * u:
            return s1 * u / params.cutoff
    raise ConvergenceError("the crossover's Newton steps did not converge")


_TABLE_SYSTEMS = ("photodetachment", "quantum-dot", "hydrogen")


def render_table1(fmt: str = "text") -> str:
    """Characteristic-times grid of the three presets: rows t_Z, t_a,
    t_d, t_ep; one column per system; seconds with decay-time units in
    parentheses.  fmt is "text" or "csv"; ValueError for any other."""
    if fmt not in ("text", "csv"):
        raise ValueError(f"fmt must be 'text' or 'csv', not {fmt!r}")
    from .presets import preset

    names = _TABLE_SYSTEMS
    tables = [compute_timescales(*preset(name)) for name in names]
    # per row: its label and, per system, (seconds, decay-time units)
    rows = [(cells[0][0], [(v, v / ts.t_d) for (_, v), ts in zip(cells, tables)])
            for cells in zip(*(ts.as_rows() for ts in tables))]
    if fmt == "csv":
        lines = ["row," + ",".join(names)]
        for k, suffix in ((0, ""), (1, "_over_td")):
            lines += [label + suffix + "," + ",".join(f"{pair[k]:.17g}" for pair in vals)
                      for label, vals in rows]
    else:
        lines = ["".ljust(10) + "".join(name.rjust(24) for name in names)] + [
            label.ljust(10) + "".join(f"{v:.3g} ({r:.3g})".rjust(24) for v, r in vals)
            for label, vals in rows]
        lines += ["", "values in seconds (decay-time units in parentheses)"]
    return "\n".join(lines) + "\n"
