"""Exception types raised by the toolkit.

Everything inherits from BotsiftError, which is itself a ValueError so
callers that only care about "bad input" can catch the stdlib type.
"""


class BotsiftError(ValueError):
    """Base class for all toolkit errors."""


class SchemaError(BotsiftError):
    """Schema file is malformed or inconsistent with the data."""


class LoadError(BotsiftError):
    """A CSV file cannot be read or contains invalid row values."""


class CleanseError(BotsiftError):
    """Cleansing removed every row."""


class EncodingError(BotsiftError):
    """A categorical token has no assigned code."""


class FeatureScoreError(BotsiftError):
    """Feature scoring preconditions were violated."""


class ResampleError(BotsiftError):
    """SMOTE configuration is infeasible for the given data."""


class TrainingError(BotsiftError):
    """A classifier cannot be fitted on the given data."""


class DivergenceError(TrainingError):
    """Training loss became non-finite.

    Carries the 1-based epoch at which divergence was detected.
    """

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}: loss is not finite")

    def __reduce__(self):
        # rebuild from (epoch, message): the default reduce would pass the
        # message alone back into __init__ as the epoch
        return type(self), (self.epoch, *self.args)


class EvaluationError(BotsiftError):
    """An evaluation request is ill-posed (empty split, one-class fold, ...)."""


class SynthError(BotsiftError):
    """A traffic profile is invalid."""


class ConfigError(BotsiftError):
    """An experiment configuration failed validation."""
