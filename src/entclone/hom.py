"""Hong-Ou-Mandel calibration in closed form.

Turning a measured HOM visibility into the photon overlap is one division,
so this module imports no numpy: ``entclone hom --fit`` loads only it and
`checks`. The brute-force Fock visibility that cross-checks the closed
form is `cloner.hom_visibility`.
"""

from __future__ import annotations

from .checks import check_number, check_unit, shown


def ideal_hom_visibility(r: float) -> float:
    """Closed-form HOM visibility 1 - (1-2R)^2 / (R^2 + (1-R)^2)."""
    check_unit("reflectivity", r)
    return 1.0 - (1.0 - 2.0 * r) ** 2 / (r**2 + (1.0 - r) ** 2)


def fit_overlap(v_measured: float, r: float) -> float:
    """Squared overlap reproducing a measured HOM visibility at given R."""
    check_unit("reflectivity", r)
    check_number("visibility", v_measured)
    ideal = ideal_hom_visibility(r)
    if ideal == 0.0:
        raise ValueError(f"at R = {r} the visibility is 0 for every overlap, "
                         "so none can be fitted")
    if not 0.0 <= v_measured <= ideal + 1e-12:
        raise ValueError(f"visibility {shown(v_measured)} outside physical "
                         f"range [0, {ideal}]")
    return min(1.0, v_measured / ideal)
