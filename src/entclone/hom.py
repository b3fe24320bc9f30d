"""Hong-Ou-Mandel calibration in closed form, and the shared numeric checks.

Turning a measured HOM visibility into the photon overlap is one division,
so this module imports no numpy: ``entclone hom --fit`` loads nothing else
of the package. The brute-force Fock visibility that cross-checks the
closed form is `cloner.hom_visibility`.

The shared numeric checks of `fock`, `cloner` and `tomography` live here
too: `_is_number`, `_is_integer`, `_finite`, `_check_number`, `_check_unit`
and `_check_positive`, with `_shown` printing a rejected value.
"""

from __future__ import annotations

import math
import numbers


# float and int are tried first: an isinstance check against the numbers
# ABCs alone takes several times as long
def _is_number(value) -> bool:
    """A real number that is not a bool; numpy's ``bool_`` is none."""
    return not isinstance(value, bool) and \
        isinstance(value, (float, int, numbers.Real))


def _is_integer(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return not isinstance(value, bool) and \
        isinstance(value, (int, numbers.Integral))


def _finite(value) -> bool:
    """``math.isfinite``, false for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _shown(value) -> str:
    """``value`` for an error message: a non-number by its repr, so that
    '0.5' reads as text, and an int too long to print, as Python refuses to
    for more than 4300 digits, by its size instead."""
    if not _is_number(value):
        return repr(value)
    if isinstance(value, int) and value.bit_length() > 1000:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} int of {value.bit_length()} bits"
    return str(value)


def _check_number(name: str, value) -> None:
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {_shown(value)}")


def _check_unit(name: str, val: float) -> None:
    """Reject a reflectivity or overlap outside [0, 1], NaN or no number."""
    _check_number(name, val)
    if not 0.0 <= val <= 1.0:
        raise ValueError(f"{name} = {_shown(val)} outside [0, 1]")


def _check_positive(name: str, value: float) -> None:
    """Reject a value that is no number, or not finite and positive."""
    _check_number(name, value)
    if not (_finite(value) and value > 0):
        raise ValueError(
            f"{name} must be finite and positive, got {_shown(value)}")


def ideal_hom_visibility(r: float) -> float:
    """Closed-form HOM visibility 1 - (1-2R)^2 / (R^2 + (1-R)^2)."""
    _check_unit("reflectivity", r)
    return 1.0 - (1.0 - 2.0 * r) ** 2 / (r**2 + (1.0 - r) ** 2)


def fit_overlap(v_measured: float, r: float) -> float:
    """Squared overlap reproducing a measured HOM visibility at given R."""
    _check_unit("reflectivity", r)
    _check_number("visibility", v_measured)
    ideal = ideal_hom_visibility(r)
    if ideal == 0.0:
        raise ValueError(f"at R = {r} the visibility is 0 for every overlap, "
                         "so none can be fitted")
    if not 0.0 <= v_measured <= ideal + 1e-12:
        raise ValueError(f"visibility {_shown(v_measured)} outside physical "
                         f"range [0, {ideal}]")
    return min(1.0, v_measured / ideal)
