"""Jump-driven flows on foliated manifolds: canonical integration of
pure-jump driving noise along compact leaves, slow transversal
perturbations, the averaged transversal flow, and the rate and exit
experiments connecting the two.

The bundled cylinder preset (circle leaves, radius/height transversal
coordinates, Gamma subordinator driver) exercises every piece with known
closed forms.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .averaging import (AveragedField, AveragedSolution, RateEstimate,
                        averaged_field, estimate_eta, fit_loglog,
                        leaf_average_quadrature, lp_moment,
                        solve_averaged_ode)
from .config import (ExperimentConfig, apply_overrides, config_from_dict,
                     config_to_dict, dump_config, load_config, loads_config,
                     preset_from_config)
from .drivers import (GammaSubordinator, JumpEvents, TruncatedMeasure,
                      characteristic_function, circle_law_distance,
                      marginal_samples, sample_jump_events, truncate_gamma)
from .errors import BlowupError, ConfigError, DomainError, FolevyError
from .experiments import (OBSERVABLES, ComparisonResult, DeviationResult,
                          ExitProbabilityResult, SchemeAgreementResult,
                          deviation_scaling, exit_probability,
                          projected_perturbation, scheme_agreement,
                          transversal_comparison)
from .geometry import (ConstantK, CylinderPreset, FoliatedChart, LinearK,
                       VectorFieldSet, dpi_k, make_cylinder_preset,
                       tangency_check)
from .marcus import (EnsembleResult, IntegratorConfig, Trajectory,
                     integrate_grid_ensemble, integrate_path, jump_flow)
from .rng import RngStream, path_streams

__all__ = [
    "AveragedField", "AveragedSolution", "BlowupError", "ComparisonResult",
    "ConfigError", "ConstantK", "CylinderPreset", "DeviationResult",
    "DomainError", "EnsembleResult", "ExitProbabilityResult",
    "ExperimentConfig", "FoliatedChart", "FolevyError",
    "GammaSubordinator", "IntegratorConfig", "JumpEvents", "LinearK",
    "OBSERVABLES", "RateEstimate", "RngStream", "SchemeAgreementResult",
    "Trajectory", "TruncatedMeasure", "VectorFieldSet", "apply_overrides",
    "averaged_field", "characteristic_function", "circle_law_distance",
    "config_from_dict", "config_to_dict", "deviation_scaling", "dpi_k",
    "dump_config", "estimate_eta", "exit_probability", "fit_loglog",
    "integrate_grid_ensemble", "integrate_path", "jump_flow",
    "leaf_average_quadrature", "load_config", "loads_config", "lp_moment",
    "make_cylinder_preset", "marginal_samples", "path_streams",
    "preset_from_config", "projected_perturbation", "sample_jump_events",
    "scheme_agreement", "solve_averaged_ode", "tangency_check",
    "transversal_comparison", "truncate_gamma",
]
