"""Exception types shared across the package."""


class InfeasibleInputError(ValueError):
    """A model input that is syntactically valid but has no feasible solution."""


class UnreachableTargetError(InfeasibleInputError):
    """No finite code distance can reach the requested logical error rate."""


class NoFactoryCapacityError(InfeasibleInputError):
    """The machine has no logical qubits left over for distillation factories."""


class RateUnderflowError(ValueError):
    """A logical error rate too small for a float: it underflows to 0.0."""


def shown(value) -> str:
    """``repr(value)`` for an error message; an int too long to print is given by its size."""
    try:
        return repr(value)
    except ValueError:  # the interpreter's limit on int-to-string digits
        return f"an integer of {value.bit_length()} bits"
