"""Decay of a discrete state coupled to a continuum: survival
probability engines, characteristic timescales, and repeated-measurement
protocols."""

from .errors import (BoundStateError, ContinuationUnsupportedError,
                     ConvergenceError, EngineMismatchError,
                     ExpansionUnavailableError, FriedrichsError)
from .formfactors import (CUSTOM, DIVERGENT, PHI1, PHI2, PHI3, Formfactor,
                          ModelParams, bound_state_margin, builtin,
                          eval_formfactor, head_integral, moment, squared_norm)
from .dispersion import (ResonanceRoot, RootKind, Side, decaying_resonance,
                         eta_boundary, eta_first_sheet, eta_second_sheet,
                         resonance_roots, spectral_density, spectral_peak)
from .amplitude import (Engine, ShortTimeExpansion, SurvivalCurve,
                        long_time_asymptote, sample_curve,
                        short_time_expansion, survival_amplitude,
                        survival_amplitude_phi1_exact, survival_amplitude_phi2,
                        survival_amplitude_quadrature, survival_deficit,
                        survival_probability)
from .timescales import (Provenance, Timescales, compute_timescales,
                         crossover_time_numeric, render_table1)
from .protocols import (UNBOUNDED, AntiZenoMinimum, ProtocolResult, ZenoLimit,
                        ZenoLimitKind, anti_zeno_minimum, n_epsilon,
                        protocol_curve, repeated_measurement_survival,
                        zeno_limit_class)
from .presets import PRESETS, preset

__version__ = "0.1.0"
