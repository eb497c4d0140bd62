"""Kinematics of an articulated arm in R^{k+1} (the width-k generalization
of the planar car with trailers), with numerical verification of the
nested bracket structure of its control distribution."""

from .arm import (AngularConfig, ArmDims, CartesianConfig, config_from_dict,
                  config_to_dict, constraint_residuals, gamma, gamma_inverse,
                  load_config, normal_fields, save_config)
from .dynamics import (ControlSignal, IntegratorSettings, Trajectory,
                       cascade_residuals, collinearity_residuals,
                       induced_subarm_controls, integrate_arm, integrate_car,
                       integrate_cartesian, integrate_subarm, project_subarm,
                       velocity_report)
from .errors import ChartDegenerate, ConstraintViolated, StepRejected
from .fields import (A_coeff, GeneratorSet, TangentVector, X0_field, Xi_field,
                     Z_field, cartesian_Z, cartesian_delta, f_coeff,
                     pushforward_check)
from .flags import (FlagReport, build_level, classify_point, lie_bracket,
                    verify_flag)
from .hyperspherical import (Angles, TangentFrame, UnitVector, frame,
                             frame_change, jacobian, jacobian_det,
                             jacobian_inverse, phi, phi_inverse)

__version__ = "0.1.0"

__all__ = [
    "Angles", "UnitVector", "TangentFrame", "phi", "phi_inverse", "jacobian",
    "jacobian_det", "jacobian_inverse", "frame", "frame_change",
    "ArmDims", "CartesianConfig", "AngularConfig", "gamma", "gamma_inverse",
    "constraint_residuals", "normal_fields", "config_to_dict",
    "config_from_dict", "save_config", "load_config",
    "TangentVector", "GeneratorSet", "A_coeff", "f_coeff",
    "Z_field", "X0_field", "Xi_field", "cartesian_Z", "cartesian_delta",
    "pushforward_check",
    "ControlSignal", "IntegratorSettings", "Trajectory", "integrate_car",
    "integrate_arm", "integrate_cartesian", "integrate_subarm",
    "project_subarm", "induced_subarm_controls", "velocity_report",
    "collinearity_residuals", "cascade_residuals",
    "lie_bracket", "build_level", "classify_point", "verify_flag",
    "FlagReport",
    "ChartDegenerate", "ConstraintViolated", "StepRejected",
]
