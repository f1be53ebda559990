"""Exception hierarchy shared by all solver modules.

Exit-code mapping used by the CLI: ConfigurationError -> 2, any
NumericalError -> 3, verdict failures -> 1.
"""


class FrontLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FrontLabError):
    """Invalid parameters, malformed config files, unknown keys."""


class NumericalError(FrontLabError):
    """A solver failed to produce a usable result."""


class BracketError(NumericalError):
    """A scalar root search could not bracket a sign change."""

    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = history or []


class NonConvergenceError(NumericalError):
    """Fixed-point iteration exhausted its budget.

    sweeps holds one record per iteration where the solver keeps them
    (front.SweepRecord for the pinned front solver).
    """

    def __init__(self, msg, residual_history=None, sweeps=None):
        super().__init__(msg)
        self.residual_history = residual_history or []
        self.sweeps = sweeps or []


class BlowUpError(NumericalError):
    """NaN/Inf detected during time integration."""

    def __init__(self, msg, last_state=None, partial_series=None):
        super().__init__(msg)
        self.last_state = last_state
        self.partial_series = partial_series


class RecenterError(NumericalError):
    """Frame shift requested while the outflow monitors were violated.

    last_state is the state the shift was refused on.
    """

    def __init__(self, msg, last_state=None, partial_series=None):
        super().__init__(msg)
        self.last_state = last_state
        self.partial_series = partial_series


class CheckpointError(FrontLabError):
    """Base class for checkpoint I/O failures."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointFormatError(CheckpointError):
    """Payload size inconsistent with the declared field shape."""
