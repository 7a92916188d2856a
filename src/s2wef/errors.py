"""Exception types shared across the package."""


class S2wefError(Exception):
    """Base class for all package errors."""


class ConfigurationError(S2wefError):
    """An invalid config, config file or --out directory."""


class ResourceError(S2wefError):
    """The system refused a trial the memory or a process it needs."""


class NumericError(S2wefError):
    """Non-finite values encountered during training."""


class TraceError(S2wefError):
    """Malformed or truncated trace file."""


class HelperExited(S2wefError, RuntimeError):
    """A forked helper process exited before it answered for its work."""
