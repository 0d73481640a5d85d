"""Exception types shared across the package."""


class GlassoPruneError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(GlassoPruneError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class ModelFormatError(GlassoPruneError):
    """A model file is not valid GLNN (bad header, shape, size or value)."""


class DataFormatError(GlassoPruneError, ValueError):
    """A dataset file (IDX or CSV) failed to parse."""


class TrainingDiverged(GlassoPruneError):
    """The loss became non-finite; the message names the epoch, and the batch if known."""


class ConfigError(GlassoPruneError):
    """An experiment config failed validation; the message names the key."""
