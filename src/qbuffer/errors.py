"""Exception types shared across the package, and the value and type
checks behind every model constructor and entry point."""

import math
import numbers


class QBufferError(Exception):
    """Base class for every error this package raises deliberately."""


class InputDomainError(QBufferError, ValueError):
    """An argument lies outside the documented domain of an operation.

    ``field`` names the rejected constructor field when there is one, e.g.
    ``v_pi``, ``per_element_loss_db.circulator`` or ``eta_list[2]``.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _checked(field, value, *, gt=None, ge=None, lt=None, le=None,
             integer=False, label=None):
    """Raise InputDomainError naming ``field`` unless ``value`` is a real
    number (an integer if ``integer``), not a bool, finite as a float, and
    ``> gt``, ``>= ge``, ``< lt`` and ``<= le`` for each bound given.
    ``label`` replaces the field name in the message.

    A passing value allocates nothing: a plain int or float skips the
    ``numbers`` check, and the message is built only on failure."""
    t = type(value)
    try:
        if ((t is int or t is float and not integer
             or t is not bool and isinstance(
                 value, numbers.Integral if integer else numbers.Real))
                and math.isfinite(value)
                and (gt is None or value > gt) and (ge is None or value >= ge)
                and (lt is None or value < lt) and (le is None or value <= le)):
            return
    except OverflowError:  # an int beyond the float range
        pass
    rule = " and ".join(f"{sym} {b}" for sym, b in (
        (">", gt), (">=", ge), ("<", lt), ("<=", le)) if b is not None)
    raise InputDomainError(
        f"{label or field} {value!r} must be "
        + ("an integer" if integer else "a finite number")
        + (f" {rule}" if rule else ""), field)


def _typed(field, value, cls):
    """Raise InputDomainError naming ``field`` unless ``value`` is a
    ``cls``: the one check of every model-object argument."""
    if not isinstance(value, cls):
        raise InputDomainError(
            f"{field} must be a {cls.__name__}, not {type(value).__name__}",
            field)


def _choice(field, value, choices):
    """Raise InputDomainError naming ``field`` unless ``value`` is one of
    the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        *rest, last = choices
        raise InputDomainError(f"{field} {value!r} must be "
                               f"{', '.join(rest)} or {last}", field)


def _array(field, make, value, expected="an array of numbers", **kwargs):
    """``make(value, **kwargs)``, e.g. ``np.asarray(value, dtype=...)``,
    raising InputDomainError naming ``field`` and what it takes,
    ``expected``, when an entry does not convert (a string, a ragged list)
    or ``value`` is no sequence."""
    try:
        return make(value, **kwargs)
    except (TypeError, ValueError):
        raise InputDomainError(f"{field} must be {expected}", field) from None


class ContractViolationError(QBufferError, ValueError):
    """An internal consistency guarantee failed (non-unitary optic, broken
    power audit, ...). Indicates misuse or a bug rather than bad user input."""


class ScheduleError(QBufferError, ValueError):
    """A drive schedule is structurally invalid or unsafe to run."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class CalibrationError(QBufferError, ValueError):
    """Requested visibility targets cannot be realized by the
    depolarization model."""


class ConfigError(QBufferError, ValueError):
    """A run configuration failed schema validation.

    ``path`` is the dotted location of the offending field, e.g.
    ``topology.storage_length_m``.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message
