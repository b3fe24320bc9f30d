"""The full beam-splitter unitary, the reference that `fock`'s
post-selected splitter is checked against bit for bit.

It walks every route of every monomial by the textbook rule on its own,
sharing no routing code with `fock`, and folds each amplitude from the
coefficient through one factor per photon, passive photons' 1.0
included, so that signed zeros come out as the post-selected splitter
makes them.
"""

import itertools
import math
from collections import Counter, defaultdict

from entclone.fock import _PRUNE, BeamSplitterSpec, FockState


def apply_beamsplitter(state: FockState, bs: BeamSplitterSpec) -> FockState:
    """Rewrite creation operators through the beam splitter.

    Arm a: a+ -> sqrt(1-R) c+ + i sqrt(R) d+
    Arm b: b+ -> i sqrt(R) c+ + sqrt(1-R) d+

    with (c, d) the output arms; polarization and internal labels ride along
    unchanged. Photon number and norm are preserved.
    """
    a_in, b_in = bs.input_arms
    c_out, d_out = bs.output_arms
    if state.terms and not {a_in, b_in} & state.arms():
        raise KeyError(f"neither input arm of {bs.input_arms} carries a photon")
    t = math.sqrt(1.0 - bs.reflectivity)
    r = 1j * math.sqrt(bs.reflectivity)

    def paths(mode):
        arm, pol, internal = mode
        to_c, to_d = (c_out, pol, internal), (d_out, pol, internal)
        if arm == a_in:
            return (t, to_c), (r, to_d)
        if arm == b_in:
            return (r, to_c), (t, to_d)
        return ((1.0, mode),)

    out = defaultdict(complex)
    for mono, coeff in state.terms.items():
        for path in itertools.product(*map(paths, mono)):
            amp = coeff
            for factor, _ in path:
                amp = amp * factor
            if abs(amp) > _PRUNE:
                out[tuple(sorted(mode for _, mode in path))] += amp
    return FockState._from_canonical(out)


def norm_squared(state: FockState) -> float:
    """``<psi|psi>``: each monomial's squared coefficient times its
    bosonic factor ``prod n_m!``."""
    total = 0.0
    for mono, coeff in state.terms.items():
        boson = 1.0
        for n in Counter(mono).values():
            boson *= math.factorial(n)
        total += abs(coeff) ** 2 * boson
    return total
