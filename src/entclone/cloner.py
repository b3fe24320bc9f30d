"""The entanglement broadcasting network.

Six qubits: the pair to be cloned lives on (1, 2); two singlet ancilla pairs
on (3, 4) and (5, 6). A beam splitter of reflectivity R on arms (1, 3) and
another on (2, 5), post-selected on one photon per output arm, implement
partial Bell-state projections. Alice keeps the local pair (1', 2'), Bob the
distant pair (4, 6); arms 3' and 5' are detected but not analyzed.

Two models are provided: `run_ideal` works at the qubit level with the
post-selected two-photon map, `run_physical` builds the second-quantized
network (optionally with partial photon distinguishability) and must agree
with the ideal model exactly when photons are indistinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, metrics
from .fock import BeamSplitterSpec, FockState
# re-exported: callers read the HOM calibration through this module, and
# `hom_visibility` looks up `ideal_hom_visibility` in this namespace
from .hom import (_check_unit, _finite, _is_integer, _shown,  # noqa: F401
                  fit_overlap, ideal_hom_visibility)
from .qmath import (ConsistencyError, DensityMatrix, InputSpec, PureState,
                    bell_state, named_density)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)

LOCAL_PAIR = ("1'", "2'")
DISTANT_PAIR = ("4", "6")
_ALL_OUTPUT_ARMS = ("1'", "2'", "3'", "4", "5'", "6")
_POLARIZATION_PAIRS = (("H", "H"), ("H", "V"), ("V", "H"), ("V", "V"))


@dataclass(frozen=True)
class NetworkConfig:
    input_spec: InputSpec
    r1: float
    r2: float
    overlap_sq: float = 1.0

    def __post_init__(self):
        for name, val in (("r1", self.r1), ("r2", self.r2),
                          ("overlap_sq", self.overlap_sq)):
            _check_unit(name, val)


@dataclass(frozen=True)
class CloneOutcome:
    """Post-selected outputs: Alice's pair, Bob's pair, and the relative
    success weight. Each beam splitter keeps a weight
    (1-R)^2 + R^2 - sR(1-R) >= 1/4 (s the squared overlap), so the weight
    is at least 1/16 and both pairs always exist."""

    rho_local: DensityMatrix
    rho_distant: DensityMatrix
    success_weight: float


def postselection_operator(r: float) -> np.ndarray:
    """Post-selected two-photon polarization map of one beam splitter.

    Conditioned on one photon per output arm, a beam splitter of
    reflectivity R maps |pq> to (1-R)|pq> - R|qp>, i.e.
    (1-R) I - R SWAP = (1-2R) P_sym + P_anti (up to the global phase fixed
    by the +i reflection convention).
    """
    _check_unit("reflectivity", r)
    return (1.0 - r) * np.eye(4, dtype=complex) - r * SWAP


def _apply_two_qubit(vec: np.ndarray, op: np.ndarray, i: int, j: int,
                     n: int) -> np.ndarray:
    t = vec.reshape((2,) * n)
    t = np.tensordot(op.reshape(2, 2, 2, 2), t, axes=([2, 3], [i, j]))
    t = np.moveaxis(t, [0, 1], [i, j])
    return t.reshape(-1)


def initial_joint_state(input_spec: InputSpec) -> PureState:
    """|xi> = |phi>_12 |Psi->_34 |Psi->_56 on labels 1..6."""
    phi = input_spec.state(("1", "2"))
    return phi.tensor(bell_state("psi-", ("3", "4"))).tensor(
        bell_state("psi-", ("5", "6")))


def run_ideal(config: NetworkConfig) -> CloneOutcome:
    """Qubit-level network: apply the post-selected maps and reduce.

    Requires overlap_sq = 1 (the ideal model has no distinguishability
    notion).
    """
    if config.overlap_sq != 1.0:
        raise ValueError("run_ideal requires overlap_sq = 1")
    xi = initial_joint_state(config.input_spec)
    vec = xi.amplitudes
    # label order: 1 2 3 4 5 6 -> tensor slots 0..5
    vec = _apply_two_qubit(vec, postselection_operator(config.r1), 0, 2, 6)
    vec = _apply_two_qubit(vec, postselection_operator(config.r2), 1, 4, 6)
    weight = float(np.vdot(vec, vec).real)
    if weight == 0.0:
        raise ConsistencyError("post-selection kept no weight")
    return _outcome(np.outer(vec, np.conj(vec)) / weight, weight)


def _outcome(rho: np.ndarray, weight: float) -> CloneOutcome:
    """The outcome of a run whose six-arm read-out is ``rho``, in the order
    of `_ALL_OUTPUT_ARMS`: its one checked state and the two pairs."""
    full = DensityMatrix(rho, _ALL_OUTPUT_ARMS)
    return CloneOutcome(full.partial_trace(LOCAL_PAIR),
                        full.partial_trace(DISTANT_PAIR), weight)


def _fock_pair(amps: np.ndarray, arm_a: str, arm_b: str) -> FockState:
    """One photon in each arm, with polarization amplitudes ``amps`` on
    |HH>, |HV>, |VH>, |VV>."""
    return FockState({((arm_a, p, 0), (arm_b, q, 0)): c
                      for (p, q), c in zip(_POLARIZATION_PAIRS, amps)})


def _network_branches(input_spec: InputSpec,
                      overlap_sq: float) -> list[tuple[FockState, float]]:
    """The six-photon input |phi>_12 |Psi->_34 |Psi->_56 split over the
    distinguishability branches of photons 3 and 5; it does not depend on
    the reflectivities."""
    singlet = bell_state("psi-").amplitudes
    xi = _fock_pair(input_spec.state().amplitudes, "1", "2").tensor(
        _fock_pair(singlet, "3", "4")).tensor(_fock_pair(singlet, "5", "6"))
    lam = math.sqrt(overlap_sq)
    return fock.dephase_internal(xi, [("1", "3", lam), ("2", "5", lam)])


def _run_branches(branches: list[tuple[FockState, float]], r1: float,
                  r2: float) -> CloneOutcome:
    """Send each branch through both beam splitters, each post-selected on
    one photon per output arm as it acts, so no bunched route is built;
    read out the six arms' polarization per branch and average the branches
    by weight. The bits equal those of the two unitaries followed by one
    coincidence post-selection."""
    bs1 = BeamSplitterSpec(("1", "3"), ("1'", "3'"), r1)
    bs2 = BeamSplitterSpec(("2", "5"), ("2'", "5'"), r2)

    dim = 2 ** len(_ALL_OUTPUT_ARMS)
    rho_acc = np.zeros((dim, dim), dtype=complex)
    total = 0.0
    for st, w in branches:
        st = fock.apply_postselected_beamsplitter(st, bs1)
        st = fock.apply_postselected_beamsplitter(st, bs2)
        rho6, weight = fock.postselect_coincidence(st, _ALL_OUTPUT_ARMS)
        if rho6 is None:
            raise ConsistencyError("post-selection rejected a branch")
        rho_acc += w * weight * rho6
        total += w * weight
    return _outcome(rho_acc / total, total)


def run_physical(config: NetworkConfig) -> CloneOutcome:
    """Second-quantized network with the distinguishability branch model.

    Photons 3 and 5 (from the ancilla sources) each carry squared overlap
    ``overlap_sq`` with the photon they interfere with; the orthogonal
    branches evolve separately and the post-selected density matrices are
    averaged weighted by branch probability times post-selection weight.
    """
    return _run_branches(
        _network_branches(config.input_spec, config.overlap_sq),
        config.r1, config.r2)


def ideal_clone_sigma() -> DensityMatrix:
    """The symmetric-point clone 4/9 |Phi+><Phi+| + 5/36 I on two qubits."""
    return named_density("sigma")


def _hom_coincidence_probability(r: float, lam: float) -> float:
    state = FockState.from_photons([("a", "H", 0), ("b", "H", 0)])
    bs = BeamSplitterSpec(("a", "b"), ("c", "d"), r)
    prob = 0.0
    for st, w in fock.dephase_internal(state, [("a", "b", lam)]):
        _, weight = fock.postselect_coincidence(
            fock.apply_postselected_beamsplitter(st, bs), ("c", "d"))
        prob += w * weight
    return prob


def hom_visibility(r: float, overlap_sq: float) -> float:
    """Hong-Ou-Mandel visibility for two photons with squared overlap
    ``overlap_sq`` meeting on a beam splitter of reflectivity R.

    Computed by brute force in the Fock model and cross-checked against the
    closed form overlap_sq * (1 - (1-2R)^2 / (R^2 + (1-R)^2)).
    """
    _check_unit("reflectivity", r)
    _check_unit("overlap_sq", overlap_sq)
    p_dist = _hom_coincidence_probability(r, 0.0)
    p = _hom_coincidence_probability(r, math.sqrt(overlap_sq))
    v = 1.0 - p / p_dist
    closed = overlap_sq * ideal_hom_visibility(r)
    if abs(v - closed) > 1e-9:
        raise ConsistencyError(
            f"fock visibility {v} disagrees with closed form {closed}")
    return v


def fidelity_sweep(input_spec: InputSpec, r_grid, overlap_sq: float,
                   workers: int = 1):
    """Run the physical network over a reflectivity grid (R1 = R2 = R).

    Returns a list of (R, F_local, F_distant, success_weight), fidelities
    measured against the pure input state. The input state and its
    distinguishability branches are built once; the points run serially.
    ``workers`` must be an integer of at least 1 but starts no process.
    """
    # by type first: nan < 1 is False, and 1.5 is no count
    if not (_is_integer(workers) and _finite(workers) and workers >= 1):
        raise ValueError(
            f"worker count must be at least 1, got {_shown(workers)}")
    # checked before the grid, so an empty grid rejects what a full one does
    _check_unit("overlap_sq", overlap_sq)
    target = input_spec.state()
    # checked before float(), which takes a bool or a numeric string
    grid = [float(NetworkConfig(input_spec, r, r, overlap_sq).r1)
            for r in r_grid]
    if not grid:
        return []
    branches = _network_branches(input_spec, overlap_sq)
    rows = []
    for r in grid:
        out = _run_branches(branches, r, r)
        rows.append((
            r,
            metrics.fidelity_to_pure(out.rho_local, target),
            metrics.fidelity_to_pure(out.rho_distant, target),
            out.success_weight,
        ))
    return rows
