"""One-shot reproduction harness for the published reference numbers.

`REFERENCES` declares every reference value and tolerance once, with its
provenance. `criterion_k(seed)` returns the rows of criterion k of the
acceptance suite; `run_paper_checks` returns those of criteria 1-9 in table
order for the CLI `paper` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cloner, metrics, tomography
from .cloner import NetworkConfig
from .hom import fit_overlap
from .qmath import DensityMatrix, InputSpec

PHI, PSI = InputSpec.from_name("phi+"), InputSpec.from_name("psi+")
# criterion 5 compares the two network models on these inputs and R values
EQUIVALENCE_INPUTS = (PHI, PSI,
                      InputSpec.from_name(f"schmidt:{math.pi / 8!r}"))
R_GRID = np.linspace(0, 1, 11)
# Schmidt angles scanned for the input hardest to clone (criterion 8)
_THETAS = np.linspace(1e-3, math.pi / 2 - 1e-3, 50)
HOM_VISIBILITY_MEASURED = 0.731  # at R = 1/3; sets criterion 7's overlap

# name -> (expected, tolerance) in `paper` row order, under the number of the
# criterion computing it; a lower bound x >= b is (1, 1 - b).
REFERENCES: dict[str, tuple[float, float]] = {
    # 1. at R = 1/3 both clones are sigma = 4/9 |Phi+><Phi+| + 5/36 I, F = 7/12
    "sigma_fixed_point_local_maxdev": (0.0, 1e-9),
    "sigma_fixed_point_distant_maxdev": (0.0, 1e-9),
    "fidelity_local_R_one_third": (7 / 12, 1e-9),
    "fidelity_distant_R_one_third": (7 / 12, 1e-9),
    # 2. R = 1/2 teleports the input to the distant pair, R = 0 leaves it
    # local; the other pair is then maximally mixed (F = 1/4)
    "fidelity_local_R_half": (0.25, 1e-9),
    "fidelity_distant_R_half": (1.0, 1e-9),
    "fidelity_local_R_zero": (1.0, 1e-9),
    "fidelity_distant_R_zero": (0.25, 1e-9),
    # 3. sigma has spectrum (21/36, 5/36 x3): witness 1/2 - F, concurrence
    # (3p - 1)/2 at p = 4/9, trace distance from spectrum (-15/36, 5/36 x3)
    "witness_sigma": (-1 / 12, 1e-9),
    "concurrence_sigma": (1 / 6, 1e-9),
    "entropy_sigma": (-sum(p * math.log2(p)
                           for p in (21 / 36, 5 / 36, 5 / 36, 5 / 36)), 1e-9),
    "trace_distance_sigma_phi_plus": (5 / 12, 1e-9),
    "uhlmann_fidelity_sigma_phi_plus": (7 / 12, 1e-9),
    # 6. V = 1 - (1-2R)^2 / (R^2 + (1-R)^2) at R = 1/3; the fit round-trips
    "hom_visibility_ideal": (0.8, 1e-9),
    "hom_visibility_refit": (HOM_VISIBILITY_MEASURED, 1e-9),
    # 8. the network is universal: Psi+ clones like Phi+
    "psi_plus_universality": (7 / 12, 1e-9),
    # 4. the witness 1/2 - |Phi+><Phi+| is (1 - XX + YY - ZZ)/4
    "witness_identity_max_deviation": (0.0, 1e-12),
    # 5. with indistinguishable photons the Fock model is the qubit model
    "fock_qubit_equivalence_max_deviation": (0.0, 1e-9),
    # 8. the maximally entangled input is hardest to clone, within a grid step
    "worst_case_schmidt_angle": (math.pi / 4, float(_THETAS[1] - _THETAS[0])),
    # 7. measured (local, distant) fidelities vs the noisy model; distant
    # fidelity peaks at R = 1/2
    "noisy_fidelity_local_R_0.3333": (0.562, 0.05),
    "noisy_fidelity_distant_R_0.3333": (0.530, 0.05),
    "noisy_fidelity_local_R_0.5000": (0.278, 0.05),
    "noisy_fidelity_distant_R_0.5000": (0.783, 0.05),
    "noisy_fidelity_local_R_0.6667": (0.334, 0.05),
    "noisy_fidelity_distant_R_0.6667": (0.493, 0.05),
    "noisy_distant_ordering_low_high_low": (1.0, 0.0),
    # 9. Phi+ tomography, 1e5 counts per setting
    "tomography_initial_state_fidelity": (1.0, 1.0 - 0.991),
    # 9, acceptance suite only: sigma tomography, Uhlmann fidelity
    "tomography_sigma_fidelity": (1.0, 1.0 - 0.999),
}
# Acceptance suite only, so that `paper` keeps its rows and its cost: 10. the
# concurrence std of sigma over MC_RESAMPLES resamples at MC_COUNTS counts
# per setting is within a factor MC_STD_FACTOR of the published error bar
# MC_STD_REFERENCE
MC_COUNTS, MC_RESAMPLES, MC_STD_REFERENCE, MC_STD_FACTOR = 4000, 1000, 0.032, 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    computed: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance

    @property
    def margin(self) -> float:
        """Distance to the tolerance: negative when the check fails."""
        return self.tolerance - abs(self.computed - self.expected)


def check(name: str, computed: float) -> CheckResult:
    """``computed`` against the reference value and tolerance of ``name``."""
    return CheckResult(name, computed, *REFERENCES[name])


def _max_dev(a: DensityMatrix, b: DensityMatrix) -> float:
    return float(np.max(np.abs(a.matrix - b.matrix)))


def _phi_plus_fidelities(out) -> tuple[float, float]:
    return (metrics.fidelity_to_pure(out.rho_local, metrics.PHI_PLUS),
            metrics.fidelity_to_pure(out.rho_distant, metrics.PHI_PLUS))


def _fitted_overlap() -> float:
    return fit_overlap(HOM_VISIBILITY_MEASURED, 1 / 3)


def criterion_1(seed: int = 0) -> list[CheckResult]:
    sigma = cloner.ideal_clone_sigma()
    out = cloner.run_ideal(NetworkConfig(PHI, 1 / 3, 1 / 3))
    f_local, f_distant = _phi_plus_fidelities(out)
    return [check("sigma_fixed_point_local_maxdev",
                  _max_dev(out.rho_local, sigma)),
            check("sigma_fixed_point_distant_maxdev",
                  _max_dev(out.rho_distant, sigma)),
            check("fidelity_local_R_one_third", f_local),
            check("fidelity_distant_R_one_third", f_distant)]


def criterion_2(seed: int = 0) -> list[CheckResult]:
    rows = []
    for r, label in ((0.5, "half"), (0.0, "zero")):
        f_local, f_distant = _phi_plus_fidelities(
            cloner.run_ideal(NetworkConfig(PHI, r, r)))
        rows += [check(f"fidelity_local_R_{label}", f_local),
                 check(f"fidelity_distant_R_{label}", f_distant)]
    return rows


def criterion_3(seed: int = 0) -> list[CheckResult]:
    sigma = cloner.ideal_clone_sigma()
    phi_dm = PHI.state(("a", "b")).to_density()
    return [check("witness_sigma", metrics.witness_expectation(sigma)),
            check("concurrence_sigma", metrics.concurrence(sigma)),
            check("entropy_sigma", metrics.von_neumann_entropy(sigma)),
            check("trace_distance_sigma_phi_plus",
                  metrics.trace_distance(sigma, phi_dm)),
            check("uhlmann_fidelity_sigma_phi_plus",
                  metrics.uhlmann_fidelity(sigma, phi_dm))]


def criterion_4(seed: int = 0) -> list[CheckResult]:
    """The witness identity on 10 000 random states from rng ``seed + 1``."""
    rng = np.random.default_rng(seed + 1)
    n = 10_000
    a = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    rhos = a @ np.conj(np.swapaxes(a, 1, 2))
    rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None].real
    direct = np.einsum("nab,ba->n", rhos, metrics.WITNESS).real
    xx, yy, zz = (np.einsum("nab,ba->n", rhos,
                            metrics.PAULI_PRODUCTS[b, b]).real
                  for b in metrics.PAULI_BASES)
    expanded = 0.25 * (1 - xx + yy - zz)
    return [check("witness_identity_max_deviation",
                  float(np.max(np.abs(direct - expanded))))]


def criterion_5(seed: int = 0) -> list[CheckResult]:
    worst = 0.0
    for spec in EQUIVALENCE_INPUTS:
        for r in R_GRID:
            a = cloner.run_ideal(NetworkConfig(spec, r, r))
            b = cloner.run_physical(NetworkConfig(spec, r, r, 1.0))
            worst = max(worst, _max_dev(a.rho_local, b.rho_local),
                        _max_dev(a.rho_distant, b.rho_distant))
    return [check("fock_qubit_equivalence_max_deviation", worst)]


def criterion_6(seed: int = 0) -> list[CheckResult]:
    return [check("hom_visibility_ideal", cloner.hom_visibility(1 / 3, 1.0)),
            check("hom_visibility_refit",
                  cloner.hom_visibility(1 / 3, _fitted_overlap()))]


def criterion_7(seed: int = 0) -> list[CheckResult]:
    overlap_sq = _fitted_overlap()
    rows, distant = [], []
    for r in (1 / 3, 1 / 2, 2 / 3):
        f_local, f_distant = _phi_plus_fidelities(
            cloner.run_physical(NetworkConfig(PHI, r, r, overlap_sq)))
        distant.append(f_distant)
        rows += [check(f"noisy_fidelity_local_R_{r:.4f}", f_local),
                 check(f"noisy_fidelity_distant_R_{r:.4f}", f_distant)]
    ordering_ok = distant[0] < distant[1] > distant[2]
    return rows + [check("noisy_distant_ordering_low_high_low",
                         1.0 if ordering_ok else 0.0)]


def _symmetric_clone_fidelity(spec: InputSpec) -> float:
    out = cloner.run_ideal(NetworkConfig(spec, 1 / 3, 1 / 3))
    return metrics.fidelity_to_pure(out.rho_local, spec.state())


def criterion_8(seed: int = 0) -> list[CheckResult]:
    fids = [_symmetric_clone_fidelity(InputSpec.from_name(f"schmidt:{t!r}"))
            for t in _THETAS.tolist()]
    return [check("psi_plus_universality", _symmetric_clone_fidelity(PSI)),
            check("worst_case_schmidt_angle",
                  float(_THETAS[int(np.argmin(fids))]))]


def criterion_9(seed: int = 0) -> list[CheckResult]:
    """Phi+ tomography from counts drawn with ``seed``."""
    counts = tomography.sample_counts(PHI.state(("a", "b")).to_density(), 1e5,
                                      seed=seed)
    rec = tomography.mle_reconstruct(counts)
    return [check("tomography_initial_state_fidelity",
                  metrics.fidelity_to_pure(rec.rho_hat, metrics.PHI_PLUS))]


def run_paper_checks(seed: int = 0) -> list[CheckResult]:
    rows = [row for criterion in (criterion_1, criterion_2, criterion_3,
                                  criterion_4, criterion_5, criterion_6,
                                  criterion_7, criterion_8, criterion_9)
            for row in criterion(seed)]
    order = {name: i for i, name in enumerate(REFERENCES)}
    return sorted(rows, key=lambda row: order[row.name])
