"""Exception types and the numeric-input rule shared across the package."""

import math
import sys

# A float holds every integer up to 2**53 exactly.  Counts and distances meet
# float arithmetic, so a larger one would be rounded, overflow or raise.
MAX_EXACT_INT = 2 ** 53


class InfeasibleInputError(ValueError):
    """A model input that is syntactically valid but has no feasible solution."""


class RateUnderflowError(ValueError):
    """A logical error rate too small for a float: it underflows to 0.0."""


def shown(value) -> str:
    """``repr(value)`` for an error message; an int too long to print is given by
    its size, and a container holding one by its type.  Never raises."""
    try:
        return repr(value)
    except ValueError:  # the interpreter's limit on int-to-string digits
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


def is_int(value) -> bool:
    """An int that is not a bool: bool subclasses int, but True is not a count of 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite float, or an int (not a bool) within the float range; never raises."""
    if isinstance(value, float):
        return math.isfinite(value)
    return is_int(value) and abs(value) <= sys.float_info.max
