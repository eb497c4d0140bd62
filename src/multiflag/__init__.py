"""Kinematics of an articulated arm in R^{k+1} (the width-k generalization
of the planar car with trailers), with numerical verification of the
nested bracket structure of its control distribution."""

from .arm import (AngularConfig, ArmDims, CartesianConfig,
                  constraint_residuals, gamma, gamma_inverse, normal_fields)
from .dynamics import (ControlSignal, IntegratorSettings, cascade_residuals,
                       collinearity_residuals, induced_subarm_controls,
                       integrate_arm, integrate_car, integrate_cartesian,
                       integrate_subarm, project_subarm)
from .errors import ChartDegenerate, ConstraintViolated, StepRejected
from .fields import (a_chain, cart_z_field, cartesian_delta, f_products,
                     pushforward_check, x0_chart, x0_field, xi_field,
                     z_chart, z_field)
from .flags import FlagReport, bracket_field, build_level, verify_flag
from .hyperspherical import (angles_from_unit, frame_change, frame_inverse,
                             frame_norms, jacobian, jacobian_det,
                             unit_and_jacobian, unit_from_angles)
from .records import (Trajectory, config_from_dict, config_to_dict,
                      load_config, save_config)

__version__ = "0.1.0"

__all__ = [
    "unit_from_angles", "angles_from_unit", "unit_and_jacobian",
    "frame_norms", "frame_inverse", "jacobian", "jacobian_det",
    "frame_change",
    "ArmDims", "CartesianConfig", "AngularConfig", "gamma", "gamma_inverse",
    "constraint_residuals", "normal_fields", "config_to_dict",
    "config_from_dict", "save_config", "load_config",
    "a_chain", "f_products", "z_field", "x0_field", "xi_field",
    "z_chart", "x0_chart", "cart_z_field", "cartesian_delta",
    "pushforward_check",
    "ControlSignal", "IntegratorSettings", "Trajectory", "integrate_car",
    "integrate_arm", "integrate_cartesian", "integrate_subarm",
    "project_subarm", "induced_subarm_controls",
    "collinearity_residuals", "cascade_residuals",
    "bracket_field", "build_level", "verify_flag",
    "FlagReport",
    "ChartDegenerate", "ConstraintViolated", "StepRejected",
]
