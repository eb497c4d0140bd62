"""Exception types shared across the package."""


class ChartDegenerate(ValueError):
    """A hyperspherical chart was queried too close to a coordinate
    singularity (some interior angle with sin(theta) ~ 0), where the
    chart frame collapses and the inverse is ill-defined."""


class ConstraintViolated(ValueError):
    """A Cartesian configuration breaks the unit-segment constraints
    beyond the operation's tolerance."""


class StepRejected(RuntimeError):
    """A single integration step produced more constraint drift than the
    integrator is willing to repair by projection."""


class FlagCheckFailed(RuntimeError):
    """A flag check failed at a regular configuration."""
