"""Helpers shared by the test modules: parameter draws of the sweep box,
and the phi1 closed form's roots and weights in mpmath."""

import mpmath
import numpy as np

from friedrichs import ModelParams, bound_state_margin, builtin


def box(name, n, seed=23):
    """n parameter sets of the benchmark's sweep box for the built-in
    weight `name`: cutoff 1e12, omega1/cutoff log-uniform in [1e-6, 1e-2]
    and coupling_sq in [1e-9, 1e-3], without a bound state."""
    rng, ff, out = np.random.default_rng(seed), builtin(name), []
    while len(out) < n:
        w, g2 = 10.0 ** rng.uniform(-6, -2), 10.0 ** rng.uniform(-9, -3)
        params = ModelParams(1e12, w * 1e12, g2)
        if bound_state_margin(params, ff) > 0:
            out.append(params)
    return out


def phi1_weights_mp(params):
    """(z_k, W_k) for phi1 as mpc at mpmath's working precision: the three
    roots u of (w - u^2)(1 - iu) - pi g2, z = u^2 and
    W = -2 pi i g2 u / prod (z - z'), where the differences are exact."""
    w = mpmath.mpf(params.omega1) / params.cutoff
    g2 = mpmath.mpf(params.coupling_sq)
    us = mpmath.polyroots([1, 1j, -w, -1j * (w - mpmath.pi * g2)],
                          maxsteps=200, extraprec=200)
    zs = [u * u for u in us]
    return [(zs[k], -2j * mpmath.pi * g2 * us[k] / (
        (zs[k] - zs[k - 1]) * (zs[k] - zs[k - 2]))) for k in range(3)]
