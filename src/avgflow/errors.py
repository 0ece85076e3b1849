"""Exception types shared across the package.

Each class maps to one failure mode of the pipeline so callers (and the
command line front end) can translate them into stable exit codes.
"""


class ConfigError(Exception):
    """A run configuration file is malformed or inconsistent."""


class NotAveragedControllableError(Exception):
    """The averaged controllability Gramian over the full horizon is
    numerically singular, so no minimum-energy steering control exists.

    Carries the smallest eigenvalue seen so the caller can report how far
    from invertible the Gramian was.
    """

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class DegeneratePosteriorError(Exception):
    """Every mixture component weight underflowed while conditioning on the
    current state; the posterior mean is undefined."""


class TrainingDivergenceError(Exception):
    """A training loss became non-finite.

    Carries the epoch and batch index at which divergence was detected.
    """

    def __init__(self, message, epoch=None, batch_index=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index
