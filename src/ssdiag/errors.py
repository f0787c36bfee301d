"""Exception types shared across the package, and the check of an integer setting.

The CLI maps these onto exit codes: validation -> 2, degeneracy -> 3,
budget -> 4.
"""

from numbers import Integral


class SsdiagError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SsdiagError, ValueError):
    """Malformed input data or configuration."""


class DegeneracyError(SsdiagError, ArithmeticError):
    """A computation is undefined for the given data (e.g. constant regressor)."""


class BudgetError(SsdiagError):
    """An exact computation would exceed its combinatorial budget."""


def check_integer(key: str, value) -> None:
    """Refuse a count or seed that is a bool or not an integer, in the CLI's wording.

    bool is an int to Python, and a float count such as 2.5 or 4.0 would end
    in a numpy TypeError mid-run; numpy integers pass.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{key}: could not parse {value!r} as an integer")
