"""Second-quantized linear optics on labeled spatial/polarization modes.

A mode is the triple ``(arm, polarization, internal)`` where ``internal`` is a
small integer tagging temporal/spectral distinguishability (0 = reference).
States are kept as sparse polynomials in creation operators: each term is a
sorted monomial of modes with a complex coefficient, meaning
``coeff * prod_m a_m^dagger |vac>``. The Fock-basis amplitude of a monomial
with occupations ``n_m`` is ``coeff * sqrt(prod n_m!)``, which is where the
bosonic bunching factors enter.

The six-photon cloning network post-selects inside its beam splitters
(`apply_postselected_beamsplitter`): of a monomial's routes through a
splitter, only those leaving one photon in each output arm are kept. So a
branch holds at most 16 monomials in, 32 between the splitters and 64 at
the read-out, against up to 256 had each splitter's full unitary output
been formed; that unitary is kept only in the tests, as the reference the
filtered splitter must match bit for bit. Nothing dense is materialized
before `postselect_coincidence` reads out the polarization as a plain
matrix, from which `cloner` builds the checked state.

Neither step's routing depends on R or on a coefficient, so each is built
once and cached: `_coincidence_table` keyed on the state's monomials in
order plus the splitter's input and output arms, `_readout_table` on the
monomials plus the read-out arms, each bounded at `_TABLE_SIZE` entries.
One table serves every R of a sweep. A call forms the amplitudes from it
with the same products, prune tests and sums, in the same order, as a walk
over the routes would, so every output bit is what it was without a cache.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .checks import check_unit

# (arm, polarization, internal)
Mode = tuple[str, str, int]

_PRUNE = 1e-15
_POL_INDEX = {"H": 0, "V": 1}
# entries each of the route and read-out caches keeps, least recently used
# out first; a sweep fills a few, a `paper` run under 20, each under 10 KB
_TABLE_SIZE = 128


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Non-polarizing beam splitter routing two input arms to two output arms.

    Acts identically on every polarization and internal label. The reflected
    amplitude carries a factor +i.
    """

    input_arms: tuple[str, str]
    output_arms: tuple[str, str]
    reflectivity: float

    def __post_init__(self):
        check_unit("reflectivity", self.reflectivity)
        for pair in (self.input_arms, self.output_arms):
            if pair[0] == pair[1]:
                raise ValueError(f"arm {pair[0]!r} repeated in {pair}")
        if set(self.input_arms) & set(self.output_arms):
            raise ValueError("input and output arm pairs must be disjoint")


class FockState:
    """Sparse multi-photon state as a creation-operator polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Mode, ...], complex]):
        clean: dict[tuple[Mode, ...], complex] = {}
        nphot = None
        for mono, coeff in terms.items():
            if abs(coeff) <= _PRUNE:
                continue
            mono = tuple(sorted(mono))
            if nphot is None:
                nphot = len(mono)
            elif len(mono) != nphot:
                raise ValueError("mixed total photon number in one state")
            clean[mono] = clean.get(mono, 0.0) + coeff
        self.terms = {m: c for m, c in clean.items() if abs(c) > _PRUNE}

    @classmethod
    def _from_canonical(cls, terms: Mapping[tuple[Mode, ...], complex]
                        ) -> "FockState":
        """State from monomials that are already sorted and summed.

        Each coefficient must be a sum that started from ``0j`` (as a
        ``defaultdict(complex)`` builds it), so the constructor's merge
        would leave its bits unchanged; this skips the merge and the
        re-sort but keeps the prune and the photon-number check.
        """
        state = object.__new__(cls)
        state.terms = {m: c for m, c in terms.items() if abs(c) > _PRUNE}
        if len({len(m) for m in state.terms}) > 1:
            raise ValueError("mixed total photon number in one state")
        return state

    @staticmethod
    def from_photons(modes: Iterable[Mode]) -> "FockState":
        """Product state with one photon per listed mode, amplitude 1."""
        return FockState({tuple(sorted(modes)): 1.0 + 0.0j})

    def num_photons(self) -> int:
        return len(next(iter(self.terms))) if self.terms else 0

    def arms(self) -> set[str]:
        return {m[0] for mono in self.terms for m in mono}

    def tensor(self, other: "FockState") -> "FockState":
        out: dict[tuple[Mode, ...], complex] = defaultdict(complex)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out[tuple(sorted(m1 + m2))] += c1 * c2
        return FockState(out)


def _factors(bs: BeamSplitterSpec) -> tuple:
    """The values of the factor slots: transmitted t = sqrt(1-R),
    reflected r = i sqrt(R) and passive 1.0."""
    return (math.sqrt(1.0 - bs.reflectivity),
            1j * math.sqrt(bs.reflectivity), 1.0)


def apply_postselected_beamsplitter(state: FockState,
                                    bs: BeamSplitterSpec) -> FockState:
    """The beam splitter's output projected onto exactly one photon in
    each output arm: a partial Bell-state projection.

    Arm a: a+ -> sqrt(1-R) c+ + i sqrt(R) d+
    Arm b: b+ -> i sqrt(R) c+ + sqrt(1-R) d+

    with (c, d) the output arms; polarization and internal labels ride
    along unchanged, and a photon in any other arm passes with the factor
    1.0. Each kept amplitude is the left fold of its route's factors from
    the coefficient, summed over the routes in ``itertools.product`` order,
    so the result equals the full unitary's output projected, bit for bit.
    The routes come from `_coincidence_table`, which holds no reflectivity.
    """
    patterns, table, outs = _coincidence_table(
        tuple(state.terms), bs.input_arms, bs.output_arms)
    factor = _factors(bs)
    factors = [tuple(map(factor.__getitem__, p)) for p in patterns]
    # math.prod folds from ``start`` left to right, as functools.reduce does
    out: dict[int, complex] = defaultdict(complex)
    for coeff, routes in zip(state.terms.values(), table):
        for k, j in routes:
            amp = math.prod(factors[k], start=coeff)
            if abs(amp) > _PRUNE:
                out[j] += amp
    return FockState._from_canonical({outs[j]: c for j, c in out.items()})


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _coincidence_table(monos: tuple[tuple[Mode, ...], ...],
                       input_arms: tuple[str, str],
                       output_arms: tuple[str, str]
                       ) -> tuple[tuple, tuple, tuple]:
    """The coincidence routes of ``monos`` through the splitter from
    ``input_arms`` to ``output_arms``: the distinct factor-slot patterns;
    per monomial, in order, its routes as (pattern index, output index)
    pairs; and the distinct sorted output monomials. Patterns and outputs
    are numbered as the routes first reach them.

    A route sends each input-arm photon to the first output arm or the
    second and keeps every other photon where it is. Each monomial's
    routes are walked in ``itertools.product`` order, and only those
    leaving exactly one photon in each output arm are kept. A slot indexes
    `_factors`: t or r for a moved photon, in the order its arm gives, and
    1.0 for a passive one.
    """
    a_in, b_in = input_arms
    c_out, d_out = output_arms
    modes = {mode for mono in monos for mode in mono}
    # a vacuum port is legitimate (single-photon splitting); both ports
    # empty means the splitter is wired to arms this state does not have
    if monos and not {a_in, b_in} & {arm for arm, _, _ in modes}:
        raise KeyError(
            f"neither input arm of {input_arms} carries a photon")

    # each mode's (factor slot, output mode) choices
    choices: dict[Mode, tuple] = {}
    for mode in modes:
        arm, pol, internal = mode
        if arm in input_arms:
            slot_c, slot_d = (0, 1) if arm == a_in else (1, 0)
            choices[mode] = ((slot_c, (c_out, pol, internal)),
                             (slot_d, (d_out, pol, internal)))
        else:
            choices[mode] = ((2, mode),)
    patterns: dict[tuple[int, ...], int] = {}
    outs: dict[tuple[Mode, ...], int] = {}
    table = []
    for mono in monos:
        kept = []
        for route in itertools.product(*map(choices.__getitem__, mono)):
            pattern, out = zip(*route)
            arms = [arm for arm, _, _ in out]
            if arms.count(c_out) == arms.count(d_out) == 1:
                kept.append((patterns.setdefault(pattern, len(patterns)),
                             outs.setdefault(tuple(sorted(out)), len(outs))))
        table.append(tuple(kept))
    return tuple(patterns), tuple(table), tuple(outs)


def postselect_coincidence(
    state: FockState, arms: Sequence[str]
) -> tuple[np.ndarray | None, float]:
    """Project onto exactly one photon per requested arm and read out polarization.

    Internal labels are traced out. Returns the normalized polarization
    density matrix, a plain array in the order of ``arms`` that `cloner`
    checks once mixed, plus the squared norm of the kept component (relative
    success probability). A fully rejected state comes back as ``(None, 0.0)``.
    """
    arms = [str(a) for a in arms]
    for k, arm in enumerate(arms):
        if arm in arms[:k]:
            raise ValueError(f"arm {arm!r} repeated in {tuple(arms)}")
    if state.terms and state.num_photons() != len(arms):
        raise ValueError(
            f"state has {state.num_photons()} photons, expected {len(arms)}"
        )
    slot_of, size, groups = _readout_table(tuple(state.terms), tuple(arms))

    # one amplitude per kept (polarization index, internal labels), summed
    # from 0j in the order the monomials first reach it
    kept = [0j] * size
    for coeff, k in zip(state.terms.values(), slot_of):
        if k is not None:
            kept[k] += coeff

    weight = sum(abs(c) ** 2 for c in kept)
    if weight <= 0.0:
        return None, 0.0

    dim = 2 ** len(arms)
    rho = np.zeros((dim, dim), dtype=complex)
    # the internal label is traced, so only amplitudes with identical
    # internals interfere
    for block, members in groups:
        amps = np.fromiter(map(kept.__getitem__, members), dtype=complex,
                           count=len(members))
        rho[block] += _outer_conj(amps)
    # complex / real runs numpy's complex-divide loop, which multiplies by 1/x
    rho *= 1.0 / weight
    return rho, weight


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _readout_table(monos: tuple[tuple[Mode, ...], ...], arms: tuple[str, ...]
                   ) -> tuple[tuple[int | None, ...], int, tuple[tuple, ...]]:
    """The read-out of ``monos`` on ``arms``: per monomial its slot among
    the kept amplitudes, or None when rejected; the number of slots; and
    per internal configuration, in the order the slots first reach it, the
    ``np.ix_`` block of its polarization indices and its slots.

    With the photon number checked, a monomial is kept unless some photon
    sits in an unlisted arm or shares its arm with an earlier one. Slots
    are numbered in the order of first arrival, and so are the slots of
    each group.
    """
    arm_pos = {a: k for k, a in enumerate(arms)}
    slot: dict[tuple[int, tuple[int, ...]], int] = {}
    slot_of = []
    for mono in monos:
        pols = [None] * len(arms)
        internals = [0] * len(arms)
        for arm, pol, internal in mono:
            k = arm_pos.get(arm)
            if k is None or pols[k] is not None:
                slot_of.append(None)
                break
            pols[k] = _POL_INDEX[pol]
            internals[k] = internal
        else:
            idx = 0
            for p in pols:
                idx = 2 * idx + p
            slot_of.append(slot.setdefault((idx, tuple(internals)), len(slot)))
    by_internal: dict[tuple[int, ...], list[tuple[int, int]]] = \
        defaultdict(list)
    for (idx, internals), k in slot.items():
        by_internal[internals].append((idx, k))
    groups = []
    for members in by_internal.values():
        idx, slots = zip(*members)
        block = np.ix_(idx, idx)
        for index in block:  # shared by every call that hits this entry
            index.flags.writeable = False
        groups.append((block, slots))
    return tuple(slot_of), len(slot), tuple(groups)


def _outer_conj(a: np.ndarray) -> np.ndarray:
    """``a_i * conj(a_j)`` for all i, j, rounded as the scalar complex
    product rounds it.

    numpy's vectorized complex multiply may fuse a multiply and an add
    (``np.outer`` of a vector with its conjugate can leave a diagonal
    imaginary part of ~1e-18), so the product is formed from real parts.
    """
    re, im = a.real, a.imag
    out = np.empty((a.size, a.size), dtype=complex)
    out.real = np.multiply.outer(re, re) - np.multiply.outer(im, -im)
    out.imag = np.multiply.outer(re, -im) + np.multiply.outer(im, re)
    return out


def dephase_internal(
    state: FockState, pairings: Sequence[tuple[str, str, float]]
) -> list[tuple[FockState, float]]:
    """Branch a state over partial photon distinguishability.

    Each pairing ``(arm_a, arm_b, overlap)`` splits the photon in ``arm_b``
    into a component indistinguishable from ``arm_a``'s photon (probability
    overlap^2) and an orthogonal internal mode (probability 1 - overlap^2).
    Branches combine multiplicatively across pairings; downstream evolution
    runs per branch and results are averaged incoherently by weight.

    Orthogonal branches relabel ``arm_b`` photons to internal label k+1 for
    the k-th pairing; reference states are expected to start at internal 0.
    """
    branches: list[tuple[FockState, float]] = [(state, 1.0)]
    for k, (arm_a, arm_b, lam) in enumerate(pairings):
        check_unit("overlap", lam)
        for arm in (arm_a, arm_b):
            if state.terms and arm not in state.arms():
                raise KeyError(f"pairing references unknown arm {arm!r}")
        new_branches: list[tuple[FockState, float]] = []
        for st, w in branches:
            if lam**2 > 0.0:
                new_branches.append((st, w * lam**2))
            if 1.0 - lam**2 > 0.0:
                relabeled = FockState({
                    tuple(sorted(
                        (arm, pol, k + 1 if arm == arm_b else internal)
                        for arm, pol, internal in mono
                    )): c
                    for mono, c in st.terms.items()
                })
                new_branches.append((relabeled, w * (1.0 - lam**2)))
        branches = new_branches
    return branches
