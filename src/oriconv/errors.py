"""Exception types shared across the package."""

import dataclasses


class OriconvError(Exception):
    """Base class for all package errors."""


class ShapeError(OriconvError, ValueError):
    """Raised when array shapes are inconsistent with an operation's contract."""


class NumericalError(OriconvError, ArithmeticError):
    """Raised when a computation produces non-finite values."""


class ConfigError(OriconvError, ValueError):
    """Raised for invalid network or training configuration."""


def reject_unknown_keys(section: str, d: dict, spec_cls) -> None:
    """Raise ConfigError naming each key of config section `section` that is
    not a field of the dataclass `spec_cls`."""
    known = {f.name for f in dataclasses.fields(spec_cls)}
    unknown = sorted(str(k) for k in d if k not in known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r} config: {', '.join(unknown)}")
