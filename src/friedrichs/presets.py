"""Built-in parameter sets for the three reference systems."""

from .formfactors import ModelParams, builtin

PRESETS = {
    "photodetachment": {
        "formfactor": "phi1",
        "cutoff": 1.0e10,
        "omega1": 2.0e4,
        "coupling_sq": 3.18e-7,
    },
    "quantum-dot": {
        "formfactor": "phi2",
        "cutoff": 1.67e16,
        "omega1": 7.25e12,
        "coupling_sq": 3.58e-6,
    },
    "hydrogen": {
        "formfactor": "phi3",
        "cutoff": 8.498e18,
        "omega1": 1.55e16,
        "coupling_sq": 6.43e-9,
    },
}


def preset(name: str):
    """(ModelParams, Formfactor) for a named preset."""
    try:
        cfg = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    params = ModelParams(cfg["cutoff"], cfg["omega1"], cfg["coupling_sq"])
    return params, builtin(cfg["formfactor"])
