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

    Carries the step index and time at which the blow-up was detected, the
    (experiment_seed, replicate) address of the trajectory, the time step
    ``dt`` it ran at and whether it ran on a Girsanov-shifted leg
    (``shifted``); the message names them all.
    """

    def __init__(self, step, time, experiment_seed, replicate, dt, shifted):
        self.step = step
        self.time = time
        self.experiment_seed = experiment_seed
        self.replicate = replicate
        self.dt = dt
        self.shifted = shifted
        super().__init__(
            f"trajectory diverged at step {step} (t = {time:.6g}; "
            f"experiment_seed={experiment_seed}, replicate={replicate}, "
            f"dt={dt:.6g}, {'shifted' if shifted else 'unshifted'})")

    def __reduce__(self):
        return (type(self), (self.step, self.time, self.experiment_seed,
                             self.replicate, self.dt, self.shifted))
