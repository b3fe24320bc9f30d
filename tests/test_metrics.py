import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density, random_unitary
from entclone import metrics, qmath
from entclone.cloner import ideal_clone_sigma
from entclone.metrics import (concurrence, fidelity_to_pure, pauli_correlation,
                              ppt_min_eigenvalue, trace_distance,
                              uhlmann_fidelity, von_neumann_entropy,
                              witness_expectation)
from entclone.qmath import (NORM_TOL, ConsistencyError, DensityMatrix,
                            PureState, bell_state, kron)

PHI_DM = bell_state("phi+").to_density()
MIXED = DensityMatrix(np.eye(4) / 4, ("a", "b"))
SIGMA = ideal_clone_sigma()

# Werner weight of sigma and its analytic consequences
SIGMA_ENTROPY = -(21 / 36) * np.log2(21 / 36) - 3 * (5 / 36) * np.log2(5 / 36)


class TestFidelityToPure:
    def test_self_overlap(self):
        assert fidelity_to_pure(PHI_DM, metrics.PHI_PLUS) == pytest.approx(1.0)

    def test_sigma(self):
        assert fidelity_to_pure(SIGMA, metrics.PHI_PLUS) == \
            pytest.approx(7 / 12, abs=1e-12)

    def test_maximally_mixed(self):
        assert fidelity_to_pure(MIXED, metrics.PHI_PLUS) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_to_pure(MIXED, np.array([1, 0]))

    # a plain target is checked as a PureState's amplitudes are: [1, 0, 0, 1]
    # gave F = 2 and a NaN target F = nan
    @pytest.mark.parametrize("target, problem", [
        ([1, 0, 0, 1], "state not normalized"),
        ([math.nan, 0, 0, 1], "non-finite amplitude"),
    ], ids=["unnormalized", "nan"])
    def test_bad_target_rejected(self, target, problem):
        with pytest.raises(ValueError, match=problem):
            fidelity_to_pure(PHI_DM, target)

    # one norm tolerance, qmath.NORM_TOL, for a target and a PureState
    def test_norm_tolerance_shared_with_pure_state(self):
        phi = metrics.PHI_PLUS
        inside = phi * math.sqrt(1 + 0.5 * NORM_TOL)
        outside = phi * math.sqrt(1 + 2 * NORM_TOL)
        assert fidelity_to_pure(PHI_DM, inside) == \
            pytest.approx(1.0, abs=1e-11)
        PureState(inside, ("a", "b"))
        for check in (lambda: fidelity_to_pure(PHI_DM, outside),
                      lambda: PureState(outside, ("a", "b"))):
            with pytest.raises(ValueError, match="not normalized"):
                check()

    def test_phi_plus_is_the_bell_state(self):
        old = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert metrics.PHI_PLUS.tobytes() == old.tobytes()
        assert metrics.PHI_PLUS.tobytes() == \
            bell_state("phi+").amplitudes.tobytes()


class TestPauliCorrelation:
    def test_sigma_zz(self):
        assert pauli_correlation(SIGMA, "Z", "Z") == pytest.approx(4 / 9)

    def test_sigma_yy(self):
        assert pauli_correlation(SIGMA, "Y", "Y") == pytest.approx(-4 / 9)

    def test_mixed_xx(self):
        assert pauli_correlation(MIXED, "X", "X") == pytest.approx(0.0)

    def test_bounds(self, rng):
        for _ in range(50):
            rho = random_density(rng)
            for a in "XYZ":
                for b in "XYZ":
                    assert -1 - 1e-10 <= pauli_correlation(rho, a, b) <= 1 + 1e-10

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            pauli_correlation(MIXED, "Q", "Z")


class TestWitness:
    def test_bell_state_maximal_violation(self):
        assert witness_expectation(PHI_DM) == pytest.approx(-0.5)

    def test_sigma(self):
        assert witness_expectation(SIGMA) == pytest.approx(-1 / 12, abs=1e-12)

    def test_mixed_positive(self):
        assert witness_expectation(MIXED) == pytest.approx(0.25)

    def test_identity_with_fidelity(self, rng):
        # F = 1/2 - <W> for the Phi+ target, exactly
        for _ in range(200):
            rho = random_density(rng)
            f = fidelity_to_pure(rho, metrics.PHI_PLUS)
            w = witness_expectation(rho)
            assert abs(f - (0.5 - w)) < 1e-12

    def test_negative_witness_implies_entanglement(self, rng):
        for _ in range(500):
            rho = random_density(rng)
            if witness_expectation(rho) < 0:
                assert concurrence(rho) > 0

    def test_disagreeing_forms_raise_typed_error(self, monkeypatch):
        monkeypatch.setattr(metrics, "pauli_correlation", lambda *a: 0.0)
        with pytest.raises(ConsistencyError, match="disagree"):
            witness_expectation(PHI_DM)


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(PHI_DM) == pytest.approx(1.0)

    def test_mixed(self):
        assert concurrence(MIXED) == pytest.approx(0.0)

    def test_sigma_werner_form(self):
        # Werner concurrence max(0, (3p-1)/2) at p = 4/9 gives 1/6
        assert concurrence(SIGMA) == pytest.approx(1 / 6, abs=1e-12)

    def test_agrees_with_ppt(self, rng):
        # for two qubits: entangled <=> partial transpose has a negative
        # eigenvalue (exact equivalence)
        for _ in range(300):
            rho = random_density(rng)
            c = concurrence(rho)
            neg = ppt_min_eigenvalue(rho) < -1e-9
            assert (c > 1e-9) == neg


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(PHI_DM) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(MIXED) == pytest.approx(2.0)

    def test_sigma(self):
        assert von_neumann_entropy(SIGMA) == pytest.approx(SIGMA_ENTROPY,
                                                           abs=1e-12)


class TestTraceDistance:
    def test_identical_states(self):
        assert trace_distance(SIGMA, SIGMA) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_vs_bell(self):
        assert trace_distance(PHI_DM, SIGMA) == pytest.approx(5 / 12, abs=1e-12)

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix(np.diag([1.0, 0.0]), ("q",))
        one = DensityMatrix(np.diag([0.0, 1.0]), ("q",))
        assert trace_distance(zero, one) == pytest.approx(1.0)

    def test_metric_properties(self, rng):
        for _ in range(50):
            a, b, c = (random_density(rng) for _ in range(3))
            dab = trace_distance(a, b)
            assert abs(dab - trace_distance(b, a)) < 1e-9
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9
            assert -1e-12 <= dab <= 1 + 1e-12


class TestUhlmannFidelity:
    def test_identical_states(self):
        assert uhlmann_fidelity(SIGMA, SIGMA) == pytest.approx(1.0, abs=1e-9)

    def test_pure_state_reduction(self):
        assert uhlmann_fidelity(PHI_DM, SIGMA) == pytest.approx(7 / 12, abs=1e-9)
        # and it agrees with fidelity_to_pure when one argument is pure
        assert uhlmann_fidelity(PHI_DM, SIGMA) == pytest.approx(
            fidelity_to_pure(SIGMA, metrics.PHI_PLUS), abs=1e-9)

    def test_single_qubit_mixed(self):
        half = DensityMatrix(np.eye(2) / 2, ("q",))
        zero = DensityMatrix(np.diag([1.0, 0.0]), ("q",))
        assert uhlmann_fidelity(half, zero) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(30):
            a, b = random_density(rng), random_density(rng)
            assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) < 1e-9

    def test_fuchs_van_de_graaff(self, rng):
        for _ in range(50):
            a, b = random_density(rng), random_density(rng)
            f = uhlmann_fidelity(a, b)
            d = trace_distance(a, b)
            assert 1 - np.sqrt(f) <= d + 1e-9
            assert d <= np.sqrt(1 - f) + 1e-9


class TestLocalUnitaryInvariance:
    def test_all_measures(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            other = random_density(rng)
            u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rot = DensityMatrix(u @ rho.matrix @ u.conj().T, ("a", "b"))
            other_rot = DensityMatrix(u @ other.matrix @ u.conj().T, ("a", "b"))
            assert abs(concurrence(rot) - concurrence(rho)) < 1e-9
            assert abs(von_neumann_entropy(rot) - von_neumann_entropy(rho)) < 1e-9
            assert abs(trace_distance(rot, other_rot)
                       - trace_distance(rho, other)) < 1e-9
            assert abs(uhlmann_fidelity(rot, other_rot)
                       - uhlmann_fidelity(rho, other)) < 1e-9


_RANKS = {"full rank": 4, "pure": 1, "rank 2": 2, "rank 3": 3}
_KINDS = (*_RANKS, "maximally mixed")


def _state_row(kind: str, rng) -> np.ndarray:
    """A 4x4 density matrix of a kind in ``_KINDS``."""
    if kind == "maximally mixed":
        return np.eye(4, dtype=complex) / 4
    return random_density(rng, rank=_RANKS[kind]).matrix


# every stack-aware function, on a (..., 4, 4) stack and a single state
# ``point``; the pairs compare each row with the point, as the Monte Carlo
# statistics compare each resample with the point estimate
_PER_ROW = {
    "herm_eig values": lambda m, point: qmath.herm_eig(m)[0],
    "herm_eig vectors": lambda m, point: qmath.herm_eig(m)[1],
    "psd_sqrt": lambda m, point: qmath.psd_sqrt(m),
    "trace_norm": lambda m, point: qmath.trace_norm(m - point),
    "fidelity_to_pure": lambda m, point: fidelity_to_pure(m, metrics.PHI_PLUS),
    "pauli_correlation": lambda m, point: pauli_correlation(m, "X", "Y"),
    "witness_expectation": lambda m, point: witness_expectation(m),
    "concurrence": lambda m, point: concurrence(m),
    "von_neumann_entropy": lambda m, point: von_neumann_entropy(m),
    "trace_distance": lambda m, point: trace_distance(m, point),
    "trace_distance to the rows": lambda m, point: trace_distance(point, m),
    "uhlmann_fidelity": lambda m, point: uhlmann_fidelity(m, point),
    "uhlmann_fidelity to the rows":
        lambda m, point: uhlmann_fidelity(point, m),
    "ppt_min_eigenvalue": lambda m, point: ppt_min_eigenvalue(m),
}


class TestStackRows:
    """A stack of states gives every row the bits the row gives alone."""

    @given(kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=12),
           point_kind=st.sampled_from(_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_each_row_has_its_bits_alone(self, kinds, point_kind, seed):
        rng = np.random.default_rng(seed)
        stack = np.array([_state_row(kind, rng) for kind in kinds])
        point = _state_row(point_kind, rng)
        qmath.check_density(stack)
        for name, fn in _PER_ROW.items():
            rows = [fn(row, point) for row in stack]
            if np.ndim(rows[0]) == 0:
                assert all(type(v) is float for v in rows), name
            whole = fn(stack, point)
            assert whole.shape == np.shape(rows), name
            assert whole.tobytes() == np.array(rows).tobytes(), name
