"""Characteristic times of the decay: Zeno, quadratic, exponential, and
exponential-to-power crossover scales.

Conventions
-----------
t_a     scale of the leading short-time term, 1 - p ~ (t/t_a)^s.
t_b     scale of the next term of the expansion.
t_Z     balance point where the two terms match; the region where
        repeated measurement freezes decay ends here, orders of
        magnitude before t_a.
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

from scipy import optimize

from .amplitude import asymptote_terms, short_time_expansion
from .dispersion import decaying_resonance
from .errors import EngineMismatchError
from .formfactors import PHI1, PHI2, Formfactor, ModelParams, bound_state_margin


class Provenance(Enum):
    CLOSED_FORM = "closed-form"
    ROOT_BASED = "root-based"
    NUMERIC = "numeric"


@dataclass
class Timescales:
    t_a: float
    leading_exponent: float
    t_b: Optional[float]
    t_z: float
    t_d: float
    t_ep: float
    gamma: Optional[float]          # dimensionless width parameter
    omega_tilde: Optional[float]    # shifted frequency, s^-1
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
    cut, lam, g2 = params.cutoff, params.coupling, params.coupling_sq
    exp = short_time_expansion(params, ff)
    if not ff.is_builtin:
        # custom weights: only the generic weak-coupling trio is defined
        raise EngineMismatchError(
            "timescales beyond (t_a, t_b, t_Z) need a built-in formfactor; "
            "use short_time_expansion for the generic scales")

    root = decaying_resonance(params, ff)
    omega_tilde = root.z.real * cut
    if ff.id == PHI1:
        gamma = root.z.imag / (2.0 * math.sqrt(root.z.real))
        t_z = 32.0 / (9.0 * math.pi * cut)
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
            t_z = exp.validity_time
            t_ep = 4.0 / (gamma * cut) * math.log(q0 / (lam * gamma))
            t_ep_from = Provenance.ROOT_BASED
        else:
            t_z = 2.0 * math.sqrt(6.0) / cut
            t_ep = -2.0 * math.log(2.0 * math.pi * lam ** 3) / (math.pi * g2 * params.omega1)
            t_ep_from = Provenance.CLOSED_FORM
    prov = {"t_a": Provenance.CLOSED_FORM, "t_b": Provenance.CLOSED_FORM,
            "t_z": Provenance.CLOSED_FORM, "t_d": t_d_from, "t_ep": t_ep_from,
            "gamma": Provenance.ROOT_BASED, "omega_tilde": Provenance.ROOT_BASED}
    notes = (_FACTOR2_NOTE,) if ff.id == PHI1 else ()
    return Timescales(exp.t_a, exp.leading_exponent, exp.t_b, t_z, t_d, t_ep,
                      gamma, omega_tilde, prov, notes)


_WIDEN = 16     # crossover_time_numeric: bracket widenings, by 4x an end


def crossover_time_numeric(params: ModelParams, ff: Formfactor) -> float:
    """Time where the exponential and power terms of the long-time
    asymptote are equal; bracketed root find on the log of their ratio.

    The bracket is [t_d/4, 400 t_d], with the closed-form t_d.  Where
    the exponential term does not lead at its start or trail at its end
    (the closed forms are far off when coupling_sq is near omega1/cutoff),
    that end moves by a factor of 4, at most _WIDEN times; ValueError
    when the two terms still do not cross."""
    ts = compute_timescales(params, ff)

    def logratio(logt):
        expo, power = asymptote_terms(params, ff, math.exp(logt))
        if expo == 0.0:
            return -700.0
        return math.log(expo) - math.log(power)

    lo, hi = math.log(ts.t_d / 4.0), math.log(400.0 * ts.t_d)
    for _ in range(_WIDEN + 1):             # the bracket and its widenings
        if logratio(lo) > 0 and logratio(hi) < 0:
            return math.exp(optimize.brentq(logratio, lo, hi, xtol=1e-13))
        if logratio(lo) <= 0:
            lo -= math.log(4.0)
        if logratio(hi) >= 0:
            hi += math.log(4.0)
    raise ValueError("the exponential and power terms of the asymptote do "
                     "not cross")


_TABLE_SYSTEMS = ("photodetachment", "quantum-dot", "hydrogen")


def render_table1(preset_names=_TABLE_SYSTEMS, fmt: str = "text") -> str:
    """Characteristic-times grid for the named presets: rows t_Z, t_a,
    t_d, t_ep; one column per system; seconds with decay-time units in
    parentheses."""
    from .presets import preset

    cols = []
    for name in preset_names:
        params, ff = preset(name)
        ts = compute_timescales(params, ff)
        cols.append((name, ts))

    if fmt == "csv":
        lines = ["row," + ",".join(name for name, _ in cols)]
        for idx, label in enumerate(("t_Z", "t_a", "t_d", "t_ep")):
            vals = [c.as_rows()[idx][1] for _, c in cols]
            lines.append(label + "," + ",".join(f"{v:.17g}" for v in vals))
        for idx, label in enumerate(("t_Z", "t_a", "t_d", "t_ep")):
            vals = [c.as_rows()[idx][1] / c.t_d for _, c in cols]
            lines.append(label + "_over_td," + ",".join(f"{v:.17g}" for v in vals))
        return "\n".join(lines) + "\n"

    width = 24
    head = "".ljust(10) + "".join(name.rjust(width) for name, _ in cols)
    lines = [head]
    for idx, label in enumerate(("t_Z", "t_a", "t_d", "t_ep")):
        cells = []
        for _, ts in cols:
            v = ts.as_rows()[idx][1]
            cells.append(f"{v:.3g} ({v / ts.t_d:.3g})".rjust(width))
        lines.append(label.ljust(10) + "".join(cells))
    lines.append("")
    lines.append("values in seconds (decay-time units in parentheses)")
    return "\n".join(lines) + "\n"
