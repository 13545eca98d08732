"""Exception types shared across the package."""


class InvalidFieldError(ValueError):
    """Raised when field coefficients are malformed (shape, NaN, symmetry)."""


class ResolutionError(ValueError):
    """Raised when a physical grid is too coarse for alias-free quadrature."""


class ParameterError(ValueError):
    """Raised when a parameter lies outside its admissible range.

    The message names the violated constraint.
    """


class InfeasibleError(ValueError):
    """Raised when a model's constants admit no valid (c, lambda0) choice."""


class SchemaError(ValueError):
    """Raised on malformed experiment configs; lists the offending fields."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config: " + "; ".join(self.problems))


class DivergenceError(RuntimeError):
    """Raised when a trajectory leaves the representable range.

    Carries the step index and time at which the blow-up was detected and,
    when known, the (experiment_seed, replicate) address of the trajectory.
    """

    def __init__(self, step, time, message=None, experiment_seed=None,
                 replicate=None):
        self.step = step
        self.time = time
        self.experiment_seed = experiment_seed
        self.replicate = replicate
        super().__init__(
            message or f"trajectory diverged at step {step} (t = {time:.6g})"
        )

    def __reduce__(self):
        return (type(self), (self.step, self.time, str(self),
                             self.experiment_seed, self.replicate))
