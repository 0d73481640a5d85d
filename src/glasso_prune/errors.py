"""Exception types shared across the package.

Each declares exit_code, the CLI's exit status when it ends a command."""


class GlassoPruneError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 4


class ShapeMismatchError(GlassoPruneError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class ModelFormatError(GlassoPruneError):
    """A model file is not valid GLNN (bad header, shape, size or value)."""


class DataFormatError(GlassoPruneError, ValueError):
    """A dataset file (IDX or CSV) failed to parse."""


class TrainingDiverged(GlassoPruneError):
    """The loss became non-finite; the message names the epoch, and the batch if known."""
    exit_code = 3


class ConfigError(GlassoPruneError):
    """An experiment config failed validation; the message names the key."""
    exit_code = 2
