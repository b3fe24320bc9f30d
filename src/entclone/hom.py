"""Hong-Ou-Mandel calibration in closed form, and the shared range check.

Turning a measured HOM visibility into the photon overlap is one division,
so this module imports no numpy: ``entclone hom --fit`` loads nothing else
of the package. The brute-force Fock visibility that cross-checks the
closed form is `cloner.hom_visibility`.
"""

from __future__ import annotations


def _check_unit(name: str, val: float) -> None:
    """Reject a reflectivity or overlap outside [0, 1], NaN or a bool."""
    if isinstance(val, bool):
        raise ValueError(f"{name} must be a number, got {val}")
    if not 0.0 <= val <= 1.0:
        raise ValueError(f"{name} = {val} outside [0, 1]")


def ideal_hom_visibility(r: float) -> float:
    """Closed-form HOM visibility 1 - (1-2R)^2 / (R^2 + (1-R)^2)."""
    return 1.0 - (1.0 - 2.0 * r) ** 2 / (r**2 + (1.0 - r) ** 2)


def fit_overlap(v_measured: float, r: float) -> float:
    """Squared overlap reproducing a measured HOM visibility at given R."""
    _check_unit("reflectivity", r)
    if isinstance(v_measured, bool):
        raise ValueError(f"visibility must be a number, got {v_measured}")
    ideal = ideal_hom_visibility(r)
    if ideal == 0.0:
        raise ValueError(f"at R = {r} the visibility is 0 for every overlap, "
                         "so none can be fitted")
    if not 0.0 <= v_measured <= ideal + 1e-12:
        raise ValueError(
            f"visibility {v_measured} outside physical range [0, {ideal}]")
    return min(1.0, v_measured / ideal)
