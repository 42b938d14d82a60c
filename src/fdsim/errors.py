"""Exception types shared across the package."""


class FdsimError(Exception):
    """Base class for errors raised by fdsim."""


class ConfigError(FdsimError):
    """Invalid configuration file, key, or parameter combination."""


class ProfileError(FdsimError):
    """Malformed or inconsistent channel profile data."""


class EstimationError(FdsimError):
    """Channel estimation could not be performed (training too short)."""
