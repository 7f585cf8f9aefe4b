"""Exception types shared across the package."""

from contextlib import contextmanager


class ConfigError(Exception):
    """A configuration file or CLI argument is missing, malformed or invalid."""


class NumericsError(RuntimeError):
    """A numeric routine failed (singular system, residual out of bounds)."""


@contextmanager
def as_config_error(where: str = ""):
    """Re-raise a ``ValueError`` from the block as a ``ConfigError`` prefixed with ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc
