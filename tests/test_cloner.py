import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from entclone import cloner, fock, metrics
from entclone.cloner import (InputSpec, NetworkConfig, fidelity_sweep,
                             fit_overlap, hom_visibility,
                             postselection_operator, run_ideal, run_physical)
from entclone.fock import (BeamSplitterSpec, dephase_internal,
                           postselect_coincidence)
from entclone.paperchecks import REFERENCES
from entclone.qmath import (ConsistencyError, DensityMatrix, bell_state,
                            check_density)
from entclone.tomography import matrix_to_json_dict
from fock_reference import apply_beamsplitter

PHI = InputSpec.from_name("phi+")
PSI = InputSpec.from_name("psi+")

P_SYM = (np.eye(4) + cloner.SWAP) / 2
P_ANTI = (np.eye(4) - cloner.SWAP) / 2

# the paper's Fock/qubit agreement tolerance
EQUIVALENCE_TOL = REFERENCES["fock_qubit_equivalence_max_deviation"][1]
# fidelities of 1 come back as 1 + a few ulp
RANGE_TOL = 1e-12

# every named input leaves each network amplitude real or imaginary, and
# such products round the same with or without a fused multiply-add; the
# complex amplitudes of this input would show one in the last bit
_CUSTOM = InputSpec((0.4 + 0.3j, 0.1 - 0.5j, -0.3 + 0.2j,
                     0.5 + math.sqrt(0.11) * 1j))
NETWORK_GOLDEN_INPUTS = {"phi+": InputSpec.from_name("phi+"),
                         "psi-": InputSpec.from_name("psi-"),
                         "schmidt:0.3": InputSpec.from_name("schmidt:0.3"),
                         "custom": _CUSTOM}
NETWORK_GOLDEN_OVERLAPS = (1.0, 0.91375, 0.5, 0.0)
NETWORK_GOLDEN_GRID = (0.0, 0.1, 1 / 3, 0.5, 2 / 3, 1.0)
# (input, R1, R2, overlap^2), all with R1 != R2
NETWORK_GOLDEN_ASYMMETRIC = (("phi+", 0.5, 0.35, 0.91375),
                             ("psi-", 0.2, 0.9, 0.5),
                             ("schmidt:0.3", 1 / 3, 0.0, 1.0),
                             ("phi+", 0.8, 0.56, 0.0),
                             ("custom", 0.3, 0.6, 0.9))
NETWORK_GOLDEN_HOM = ((1 / 3, 0.91375), (0.5, 0.5), (0.2, 1.0), (0.0, 0.7),
                      (0.9, 0.0))
# written by `network_golden_text()` on the Fock kernel as it was before each
# sweep built its branches once; any change to the floating-point work of
# fock.py or the physical network shows here
NETWORK_GOLDEN = Path(__file__).parent / "data" / "network_golden.json"


def network_golden_text() -> str:
    """JSON of sweep rows, asymmetric `run_physical` outputs and HOM
    visibilities, floats in repr form."""
    out = {}
    for name, spec in NETWORK_GOLDEN_INPUTS.items():
        for overlap_sq in NETWORK_GOLDEN_OVERLAPS:
            out[f"sweep {name} overlap_sq={overlap_sq!r}"] = [
                list(row) for row in
                fidelity_sweep(spec, NETWORK_GOLDEN_GRID, overlap_sq)]
    for name, r1, r2, overlap_sq in NETWORK_GOLDEN_ASYMMETRIC:
        res = run_physical(NetworkConfig(NETWORK_GOLDEN_INPUTS[name], r1, r2,
                                         overlap_sq))
        out[f"run_physical {name} r1={r1!r} r2={r2!r} "
            f"overlap_sq={overlap_sq!r}"] = {
            "rho_local": matrix_to_json_dict(res.rho_local)["matrix"],
            "rho_distant": matrix_to_json_dict(res.rho_distant)["matrix"],
            "success_weight": res.success_weight,
        }
    out["hom_visibility"] = [[r, overlap_sq, hom_visibility(r, overlap_sq)]
                             for r, overlap_sq in NETWORK_GOLDEN_HOM]
    return json.dumps(out, indent=1) + "\n"


class TestPostselectionOperator:
    def test_r_zero_identity(self):
        assert np.allclose(postselection_operator(0.0), np.eye(4))

    def test_r_half_singlet_projector(self):
        m = postselection_operator(0.5)
        assert np.allclose(m, P_ANTI)

    def test_r_one_third(self):
        m = postselection_operator(1 / 3)
        assert np.allclose(m, (1 / 3) * P_SYM + P_ANTI)

    def test_algebraic_identity_all_r(self):
        # (1-R)I - R SWAP = (1-2R) P_sym + P_anti exactly
        for r in np.linspace(0, 1, 21):
            lhs = postselection_operator(r)
            rhs = (1 - 2 * r) * P_SYM + P_ANTI
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            postselection_operator(1.2)


class TestRunIdeal:
    def test_symmetric_point_gives_sigma(self):
        out = run_ideal(NetworkConfig(PHI, 1 / 3, 1 / 3))
        sigma = cloner.ideal_clone_sigma().matrix
        assert np.max(np.abs(out.rho_local.matrix - sigma)) < 1e-12
        assert np.max(np.abs(out.rho_distant.matrix - sigma)) < 1e-12
        f = metrics.fidelity_to_pure(out.rho_local, metrics.PHI_PLUS)
        assert f == pytest.approx(7 / 12, abs=1e-12)

    def test_identity_endpoint(self):
        out = run_ideal(NetworkConfig(PHI, 0.0, 0.0))
        assert metrics.fidelity_to_pure(out.rho_local, metrics.PHI_PLUS) == \
            pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.rho_distant.matrix, np.eye(4) / 4)

    def test_teleportation_endpoint(self):
        out = run_ideal(NetworkConfig(PHI, 0.5, 0.5))
        assert metrics.fidelity_to_pure(out.rho_distant, metrics.PHI_PLUS) == \
            pytest.approx(1.0, abs=1e-12)
        assert metrics.fidelity_to_pure(out.rho_local, metrics.PHI_PLUS) == \
            pytest.approx(0.25, abs=1e-12)

    def test_symmetry_at_one_third_for_any_input(self):
        specs = [PHI, PSI, InputSpec.from_name("schmidt:0.3"),
                 InputSpec((0.5, 0.5j, -0.5, 0.5))]
        for spec in specs:
            out = run_ideal(NetworkConfig(spec, 1 / 3, 1 / 3))
            assert np.max(np.abs(out.rho_local.matrix
                                 - out.rho_distant.matrix)) < 1e-9

    def test_bell_universality(self):
        for r in np.linspace(0, 1, 11):
            a = run_ideal(NetworkConfig(PHI, r, r))
            b = run_ideal(NetworkConfig(PSI, r, r))
            fa = metrics.fidelity_to_pure(a.rho_local, PHI.state().amplitudes)
            fb = metrics.fidelity_to_pure(b.rho_local, PSI.state().amplitudes)
            assert fa == pytest.approx(fb, abs=1e-9)
            fa_d = metrics.fidelity_to_pure(a.rho_distant, PHI.state().amplitudes)
            fb_d = metrics.fidelity_to_pure(b.rho_distant, PSI.state().amplitudes)
            assert fa_d == pytest.approx(fb_d, abs=1e-9)

    def test_entanglement_broadcast_window(self):
        out = run_ideal(NetworkConfig(PHI, 1 / 3, 1 / 3))
        assert metrics.concurrence(out.rho_local) > 0
        assert metrics.concurrence(out.rho_distant) > 0

    def test_maximally_entangled_is_worst_case(self):
        thetas = np.linspace(0.03, math.pi / 2 - 0.03, 50)
        fids = []
        for theta in thetas.tolist():
            spec = InputSpec.from_name(f"schmidt:{theta!r}")
            out = run_ideal(NetworkConfig(spec, 1 / 3, 1 / 3))
            fids.append(metrics.fidelity_to_pure(out.rho_local,
                                                 spec.state().amplitudes))
        worst = thetas[int(np.argmin(fids))]
        assert abs(worst - math.pi / 4) == pytest.approx(
            0.0, abs=(thetas[1] - thetas[0]) + 1e-12)

    def test_success_weight_positive_and_continuous(self):
        grid = np.linspace(0, 0.99, 100)
        weights = [run_ideal(NetworkConfig(PHI, r, r)).success_weight
                   for r in grid]
        assert all(w > 0 for w in weights)
        # differences shrink with the grid spacing (no jump discontinuity)
        diffs = np.abs(np.diff(weights))
        assert np.max(diffs) < 6.0 * (grid[1] - grid[0])

    def test_requires_unit_overlap(self):
        with pytest.raises(ValueError):
            run_ideal(NetworkConfig(PHI, 0.3, 0.3, overlap_sq=0.9))


class TestRunPhysical:
    def test_matches_ideal_at_unit_overlap(self):
        schmidt = InputSpec.from_name(f"schmidt:{math.pi / 8!r}")
        for spec in (PHI, PSI, schmidt):
            for r in (0.0, 0.25, 1 / 3, 0.5, 0.8, 1.0):
                a = run_ideal(NetworkConfig(spec, r, r))
                b = run_physical(NetworkConfig(spec, r, r, 1.0))
                assert np.max(np.abs(a.rho_local.matrix
                                     - b.rho_local.matrix)) < 1e-9
                assert np.max(np.abs(a.rho_distant.matrix
                                     - b.rho_distant.matrix)) < 1e-9
                assert a.success_weight == pytest.approx(b.success_weight,
                                                         abs=1e-9)

    def test_asymmetric_reflectivities(self):
        out = run_physical(NetworkConfig(PHI, 0.2, 0.6, 1.0))
        ref = run_ideal(NetworkConfig(PHI, 0.2, 0.6))
        assert np.max(np.abs(out.rho_local.matrix - ref.rho_local.matrix)) < 1e-9

    def test_no_interference_means_no_teleportation(self):
        out = run_physical(NetworkConfig(PHI, 0.5, 0.5, overlap_sq=0.0))
        f = metrics.fidelity_to_pure(out.rho_distant, metrics.PHI_PLUS)
        assert f < 1.0 - 1e-3

    def test_noise_degrades_distant_fidelity_at_half(self):
        clean = run_physical(NetworkConfig(PHI, 0.5, 0.5, 1.0))
        noisy = run_physical(NetworkConfig(PHI, 0.5, 0.5, 0.9))
        f_clean = metrics.fidelity_to_pure(clean.rho_distant, metrics.PHI_PLUS)
        f_noisy = metrics.fidelity_to_pure(noisy.rho_distant, metrics.PHI_PLUS)
        assert f_noisy < f_clean


class TestNetworkGolden:
    def test_reproduces_golden_bits(self):
        assert network_golden_text() == NETWORK_GOLDEN.read_text()


def unitary_run_physical(config: NetworkConfig) -> cloner.CloneOutcome:
    """`run_physical` composed as the unitary beam splitters, one after the
    other, then one coincidence post-selection on all six arms."""
    bs1 = BeamSplitterSpec(("1", "3"), ("1'", "3'"), config.r1)
    bs2 = BeamSplitterSpec(("2", "5"), ("2'", "5'"), config.r2)
    arms = cloner._ALL_OUTPUT_ARMS
    rho_acc = np.zeros((2 ** len(arms),) * 2, dtype=complex)
    total = 0.0
    for branch, w in cloner._network_branches(config.input_spec,
                                              config.overlap_sq):
        out = apply_beamsplitter(apply_beamsplitter(branch, bs1), bs2)
        rho6, weight = postselect_coincidence(out, arms)
        rho_acc += w * weight * rho6
        total += w * weight
    full = DensityMatrix(rho_acc / total, arms)
    return cloner.CloneOutcome(full.partial_trace(cloner.LOCAL_PAIR),
                               full.partial_trace(cloner.DISTANT_PAIR), total)


class TestPostselectedNetworkBits:
    """Post-selecting inside each beam splitter leaves every bit of the
    network's output as the unitary composition makes it."""

    @given(amps=st.lists(st.builds(complex, st.floats(-1, 1),
                                   st.floats(-1, 1)), min_size=4, max_size=4),
           r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0),
           overlap_sq=st.floats(0.0, 1.0))
    def test_matches_unitary_composition(self, amps, r1, r2, overlap_sq):
        assume(r1 != r2)
        vec = np.array(amps)
        norm = np.linalg.norm(vec)
        assume(norm > 0.1)
        spec = InputSpec(tuple(vec / norm))
        config = NetworkConfig(spec, r1, r2, overlap_sq)
        got, want = run_physical(config), unitary_run_physical(config)
        assert got.rho_local.matrix.tobytes() == \
            want.rho_local.matrix.tobytes()
        assert got.rho_distant.matrix.tobytes() == \
            want.rho_distant.matrix.tobytes()
        assert got.success_weight.hex() == want.success_weight.hex()


def clear_tables():
    fock._coincidence_table.cache_clear()
    fock._readout_table.cache_clear()


class TestCachedTables:
    """The Fock network reads its routes and read-out from tables that hold
    no R and no coefficient; a state that reuses one keeps the bits of the
    unitary composition."""

    # phi+ and schmidt:0.3 have amplitudes on |HH> and |VV> only, psi+ and
    # psi- on |HV> and |VH>: each pair's branches share their monomials
    @pytest.mark.parametrize("names", [
        ("phi+", "schmidt:0.3"), ("schmidt:0.3", "phi+"), ("psi+", "psi-"),
        ("psi-", "psi+")])
    def test_shared_monomials_keep_unitary_bits(self, names):
        clear_tables()
        for name in names:
            hits = fock._coincidence_table.cache_info().hits
            for overlap_sq in (1.0, 0.91375):
                # R = 0 and 1 prune routes, 1/2 cancels the HOM pairs
                for r1, r2 in ((0.0, 0.5), (0.5, 1.0), (1.0, 0.0),
                               (0.5, 0.5), (1 / 3, 0.7)):
                    config = NetworkConfig(InputSpec.from_name(name), r1, r2,
                                           overlap_sq)
                    got, want = run_physical(config), \
                        unitary_run_physical(config)
                    assert got.rho_local.matrix.tobytes() == \
                        want.rho_local.matrix.tobytes()
                    assert got.rho_distant.matrix.tobytes() == \
                        want.rho_distant.matrix.tobytes()
                    assert got.success_weight.hex() == \
                        want.success_weight.hex()
            assert fock._coincidence_table.cache_info().hits > hits

    def test_sweep_builds_no_table_per_point(self):
        # 0.5 is not on the grid, so no point prunes a route
        spec = InputSpec.from_name("schmidt:0.3")
        built = []
        for grid in ([0.3], np.linspace(0.05, 0.95, 20)):
            clear_tables()
            fidelity_sweep(spec, grid, 0.91375)
            built.append((fock._coincidence_table.cache_info().misses,
                          fock._readout_table.cache_info().misses))
        assert built[0] == built[1] == (8, 4)


class TestPhysicalProperties:
    """Physical outputs over the whole parameter space; at overlap^2 = 1
    the Fock model must be the qubit model."""

    @given(r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0),
           overlap_sq=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
           theta=st.floats(0.0, math.pi / 2))
    def test_outputs_physical_and_match_ideal(self, r1, r2, overlap_sq,
                                              theta):
        spec = InputSpec.from_name(f"schmidt:{theta!r}")
        out = run_physical(NetworkConfig(spec, r1, r2, overlap_sq))
        assert math.isfinite(out.success_weight)
        assert out.success_weight >= 0.0
        target = spec.state().amplitudes
        for rho in (out.rho_local, out.rho_distant):
            assert isinstance(rho, DensityMatrix) and rho.validate
            f = metrics.fidelity_to_pure(rho, target)
            assert -RANGE_TOL <= f <= 1.0 + RANGE_TOL
        if overlap_sq == 1.0:
            ideal = run_ideal(NetworkConfig(spec, r1, r2))
            for a, b in ((ideal.rho_local, out.rho_local),
                         (ideal.rho_distant, out.rho_distant)):
                assert np.max(np.abs(a.matrix - b.matrix)) <= EQUIVALENCE_TOL
            assert abs(ideal.success_weight
                       - out.success_weight) <= EQUIVALENCE_TOL

    # each post-selected beam splitter succeeds with w(R, s) whatever its
    # input, and the two factorize; w >= (2 - s)/4 >= 1/4 for R, s in
    # [0, 1], so post-selection never fails. The minimum, 1/16 at
    # R1 = R2 = 1/2 and s = 1, comes out a few ulp either side of it, so the
    # bound takes the closed form's 1e-12
    @example(r1=0.5, r2=0.5, overlap_sq=1.0, theta=0.0)
    @given(r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0),
           overlap_sq=st.floats(0.0, 1.0),
           theta=st.floats(0.0, math.pi / 2))
    def test_success_weight_closed_form(self, r1, r2, overlap_sq, theta):
        def w(r):
            return (1 - r) ** 2 + r ** 2 - overlap_sq * r * (1 - r)

        spec = InputSpec.from_name(f"schmidt:{theta!r}")
        out = run_physical(NetworkConfig(spec, r1, r2, overlap_sq))
        assert abs(out.success_weight - w(r1) * w(r2)) <= 1e-12
        assert out.success_weight >= 1 / 16 - 1e-12


class TestZeroWeight:
    """No input reaches a zero post-selection weight (see the bound above),
    so reaching one is an internal error, not an empty outcome."""

    def test_rejected_branch_raises(self, monkeypatch):
        monkeypatch.setattr(cloner.fock, "postselect_coincidence",
                            lambda state, arms: (None, 0.0))
        with pytest.raises(ConsistencyError, match="rejected a branch"):
            run_physical(NetworkConfig(PHI, 0.3, 0.3, 0.9))
        with pytest.raises(ConsistencyError, match="rejected a branch"):
            fidelity_sweep(PHI, [0.3], 0.9)

    def test_zero_ideal_weight_raises(self, monkeypatch):
        monkeypatch.setattr(cloner, "postselection_operator",
                            lambda r: np.zeros((4, 4), dtype=complex))
        with pytest.raises(ConsistencyError, match="no weight"):
            run_ideal(NetworkConfig(PHI, 0.3, 0.3))


class TestCheckedStates:
    """A network run checks one six-arm state and its two pairs; the Fock
    read-outs it mixes are plain arrays, checked through the mixture."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The labels of each `DensityMatrix` built, counted where
        bench/tracing.py hooks the check."""
        labels = []
        check = DensityMatrix.__post_init__

        def counted(self):
            check(self)
            labels.append(self.labels)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        return labels

    @pytest.mark.parametrize("run, overlap_sq", [
        (run_physical, 1.0), (run_physical, 0.9), (run_ideal, 1.0)],
        ids=["physical-1", "physical-0.9", "ideal"])
    def test_one_checked_state_per_run(self, built, run, overlap_sq):
        run(NetworkConfig(PHI, 0.3, 0.4, overlap_sq))
        assert built == [cloner._ALL_OUTPUT_ARMS, cloner.LOCAL_PAIR,
                         cloner.DISTANT_PAIR]

    def test_sweep_checks_three_states_per_point(self, built):
        fidelity_sweep(PHI, [0.2, 0.5], 0.9)
        assert len(built) == 6

    def test_hom_visibility_checks_no_state(self, built):
        assert hom_visibility(1 / 3, 0.9) == pytest.approx(0.72, abs=1e-12)
        assert built == []

    @pytest.mark.parametrize("name", ["phi+", "psi-", "schmidt:0.3"])
    def test_branch_readouts_are_states(self, monkeypatch, name):
        # what a check per branch would have checked
        readouts = []
        readout = fock.postselect_coincidence

        def recorded(state, arms):
            rho, weight = readout(state, arms)
            readouts.append(rho)
            return rho, weight

        monkeypatch.setattr(cloner.fock, "postselect_coincidence", recorded)
        for r1, r2 in ((0.3, 0.4), (0.5, 0.5), (0.0, 1.0)):
            run_physical(NetworkConfig(InputSpec.from_name(name), r1, r2,
                                       0.9))
        assert len(readouts) == 12
        for rho in readouts:
            assert np.array_equal(rho, rho.conj().T)
            check_density(rho)

    def test_non_finite_readout_raises_in_the_mixture(self, monkeypatch):
        readout = fock.postselect_coincidence

        def poisoned(state, arms):
            rho, weight = readout(state, arms)
            rho[0, 1] = math.nan
            return rho, weight

        monkeypatch.setattr(cloner.fock, "postselect_coincidence", poisoned)
        for overlap_sq in (1.0, 0.9):
            with pytest.raises(ValueError, match="non-finite matrix entry"):
                run_physical(NetworkConfig(PHI, 0.3, 0.4, overlap_sq))


class TestHom:
    def test_ideal_visibility_at_one_third(self):
        assert hom_visibility(1 / 3, 1.0) == pytest.approx(0.8, abs=1e-12)

    def test_balanced_perfect_dip(self):
        assert hom_visibility(0.5, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_measured_visibility(self):
        lam2 = fit_overlap(0.731, 1 / 3)
        assert lam2 == pytest.approx(0.731 / 0.8, abs=1e-12)
        assert hom_visibility(1 / 3, lam2) == pytest.approx(0.731, abs=1e-9)

    def test_fit_trivial_points(self):
        assert fit_overlap(0.8, 1 / 3) == pytest.approx(1.0, abs=1e-12)
        assert fit_overlap(0.0, 1 / 3) == 0.0

    def test_fit_above_bound_raises(self):
        with pytest.raises(ValueError):
            fit_overlap(0.9, 1 / 3)

    # at R = 0 or 1 (or so close that it rounds there) every overlap gives
    # visibility 0, so none fits; 0.0 came back. At R = 1/2 a visibility of
    # True fitted 1.0 and False 0.0
    @pytest.mark.parametrize("v, r", [
        (float("nan"), 1 / 3), (0.5, float("nan")), (0.5, -0.1), (0.5, 1.5),
        (0.0, 0.0), (0.0, 1.0), (0.0, 1e-300), (True, 0.5), (False, 0.5),
    ])
    def test_fit_rejects_nan_and_out_of_range(self, v, r):
        problem = (f"^visibility must be a number, got {v}$"
                   if isinstance(v, bool) else None)
        with pytest.raises(ValueError, match=problem):
            fit_overlap(v, r)

    def test_disagreeing_forms_raise_typed_error(self, monkeypatch):
        monkeypatch.setattr(cloner, "ideal_hom_visibility", lambda r: 0.5)
        with pytest.raises(ConsistencyError, match="disagrees"):
            hom_visibility(1 / 3, 1.0)


class TestSweep:
    def test_endpoint_fixed_points(self):
        rows = fidelity_sweep(PHI, [0.0, 0.5], 1.0)
        (r0, fl0, fd0, w0), (r1, fl1, fd1, w1) = rows
        assert (fl0, fd0) == (pytest.approx(1.0, abs=1e-9),
                              pytest.approx(0.25, abs=1e-9))
        assert (fl1, fd1) == (pytest.approx(0.25, abs=1e-9),
                              pytest.approx(1.0, abs=1e-9))

    def test_symmetric_point(self):
        [(_, fl, fd, _)] = fidelity_sweep(PHI, [1 / 3], 1.0)
        assert fl == pytest.approx(7 / 12, abs=1e-9)
        assert fd == pytest.approx(7 / 12, abs=1e-9)

    def test_noisy_ordering_matches_measurement(self):
        lam2 = fit_overlap(0.731, 1 / 3)
        rows = fidelity_sweep(PHI, [1 / 3, 0.5, 2 / 3], lam2)
        distant = [fd for _, _, fd, _ in rows]
        assert distant[0] < distant[1] > distant[2]

    def test_parallel_matches_serial(self):
        grid = [0.1, 0.3, 0.5]
        serial = fidelity_sweep(PHI, grid, 0.9, workers=1)
        parallel = fidelity_sweep(PHI, grid, 0.9, workers=2)
        assert np.allclose(np.array(serial), np.array(parallel))

    # the points run serially whatever the worker count; that no module
    # can start a pool is checked in test_cli.py
    @pytest.mark.parametrize("workers, grid_size", [
        (1000, 3), (1000, 6), (2, 6), (1, 6), (1000, 0),
    ])
    def test_no_pool_started(self, workers, grid_size):
        grid = np.linspace(0, 1, grid_size)
        rows = fidelity_sweep(PHI, grid, 1.0, workers=workers)
        assert [r for r, _, _, _ in rows] == list(grid)

    def test_branches_built_once_per_sweep(self, monkeypatch):
        calls = []
        dephase = cloner.fock.dephase_internal
        monkeypatch.setattr(cloner.fock, "dephase_internal",
                            lambda *a: calls.append(a) or dephase(*a))
        rows = fidelity_sweep(PHI, [0.1, 0.4, 0.7], 0.9)
        assert len(rows) == 3 and len(calls) == 1

    def test_every_point_validated(self):
        with pytest.raises(ValueError, match="r1 = 1.5"):
            fidelity_sweep(PHI, [0.2, 1.5], 1.0)
        with pytest.raises(ValueError, match="overlap_sq"):
            fidelity_sweep(PHI, [0.2], float("nan"))
        # an empty grid checks its inputs as a full one does
        for overlap_sq in (2.0, float("nan")):
            with pytest.raises(ValueError, match="overlap_sq"):
                fidelity_sweep(PHI, [], overlap_sq)
        # an unnormalized input fails when it is built, before any sweep
        with pytest.raises(ValueError, match="normalized"):
            InputSpec((1, 1, 0, 0))

    def test_zero_workers_rejected(self):
        # nan < 1 is False, and 1.5 or True is no worker count
        for workers in (0, float("nan"), 1.5, True):
            with pytest.raises(ValueError, match="at least 1"):
                fidelity_sweep(PHI, [0.1, 0.2], 1.0, workers=workers)


def _bits(amplitudes) -> bytes:
    return np.asarray(amplitudes, dtype=complex).tobytes()


class TestInputSpec:
    # an input is its amplitudes: a name gives those of `bell_state`, or
    # cos t and sin t on |HH> and |VV>, bit for bit and whitespace aside
    def test_named_parsing(self):
        for name in ("phi+", "psi+", "psi-"):
            assert _bits(InputSpec.from_name(name).amplitudes) == \
                _bits(bell_state(name).amplitudes)
        spec = InputSpec.from_name(" schmidt:0.5\t")
        assert _bits(spec.amplitudes) == \
            _bits([math.cos(0.5), 0, 0, math.sin(0.5)])
        assert _bits(spec.state().amplitudes) == _bits(spec.amplitudes)
        assert spec.state(("a", "b")).labels == ("a", "b")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            InputSpec.from_name("werner")

    # inf failed on math.cos as "math domain error", nan on the norm check
    # as "non-finite amplitude" and an empty angle in float()
    @pytest.mark.parametrize("angle", ["inf", "-inf", "nan", "", "x"])
    def test_schmidt_angle_not_finite_raises(self, angle):
        with pytest.raises(ValueError, match="schmidt angle must be a finite "
                           f"number of radians, got '{angle}'"):
            InputSpec.from_name(f"schmidt:{angle}")

    # invalid amplitudes fail when the input is built, not when it is used
    def test_custom_must_be_normalized(self):
        with pytest.raises(ValueError, match="state not normalized"):
            InputSpec((1, 1, 0, 0))

    @pytest.mark.parametrize("amplitudes, problem", [
        ((1, 0, 0), "2 labels but amplitude vector of length 3"),
        ((math.nan, 0, 0, 1), "non-finite amplitude"),
    ], ids=["length", "finite"])
    def test_bad_amplitudes_rejected_when_built(self, amplitudes, problem):
        with pytest.raises(ValueError, match=problem):
            InputSpec(amplitudes)

    def test_config_range_checks(self):
        with pytest.raises(ValueError):
            NetworkConfig(PHI, -0.1, 0.5)
        with pytest.raises(ValueError):
            NetworkConfig(PHI, 0.5, 0.5, overlap_sq=1.1)
