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


class StateError(OriconvError, RuntimeError):
    """Raised when a layer is called out of order, such as a backward pass
    with no training forward pass before it."""


def check_section(section: str, d: dict, spec_cls, owned_elsewhere=()) -> None:
    """Raise ConfigError naming each key of config section `section` that is
    not a field of the dataclass `spec_cls`, or is one of `owned_elsewhere`,
    or the first value whose JSON type does not match its field's default (an
    int passes for a float, a list for a tuple, and a bool only for a bool)."""
    defaults = {f.name: f.default for f in dataclasses.fields(spec_cls)
                if f.name not in owned_elsewhere}
    unknown = sorted(str(k) for k in d if k not in defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r} config: {', '.join(unknown)}")
    for key, value in d.items():
        default = defaults[key]
        if isinstance(default, float):
            want = (int, float)
        elif isinstance(default, tuple):
            want = (list, tuple)
        else:
            want = type(default)
        if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, want):
            raise ConfigError(
                f"{section}.{key} must be {type(default).__name__}, got {value!r}"
            )
