"""The numeric checks every boundary of the package shares.

`fock`, `cloner`, `tomography` and `hom` reject a parameter through these:
`is_number`, `is_integer`, `finite`, `check_number`, `check_unit` and
`check_positive`, with `shown` printing a rejected value. The module
imports no numpy, so ``entclone hom --fit`` loads only it and `hom`.
"""

from __future__ import annotations

import math
import numbers


# float and int are tried first: an isinstance check against the numbers
# ABCs alone takes several times as long
def is_number(value) -> bool:
    """A real number that is not a bool; numpy's ``bool_`` is none."""
    return not isinstance(value, bool) and \
        isinstance(value, (float, int, numbers.Real))


def is_integer(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return not isinstance(value, bool) and \
        isinstance(value, (int, numbers.Integral))


def finite(value) -> bool:
    """``math.isfinite``, false for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def shown(value) -> str:
    """``value`` for an error message: a non-number by its repr, so that
    '0.5' reads as text, and an int too long to print, as Python refuses to
    for more than 4300 digits, by its size instead."""
    if not is_number(value):
        return repr(value)
    if isinstance(value, int) and value.bit_length() > 1000:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} int of {value.bit_length()} bits"
    return str(value)


def check_number(name: str, value) -> None:
    if not is_number(value):
        raise ValueError(f"{name} must be a number, got {shown(value)}")


def check_unit(name: str, val: float) -> None:
    """Reject a reflectivity or overlap outside [0, 1], NaN or no number."""
    check_number(name, val)
    if not 0.0 <= val <= 1.0:
        raise ValueError(f"{name} = {shown(val)} outside [0, 1]")


def check_positive(name: str, value: float) -> None:
    """Reject a value that is no number, or not finite and positive."""
    check_number(name, value)
    if not (finite(value) and value > 0):
        raise ValueError(
            f"{name} must be finite and positive, got {shown(value)}")
