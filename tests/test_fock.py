import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entclone.fock import BeamSplitterSpec, FockState, apply_beamsplitter, \
    apply_postselected_beamsplitter, dephase_internal, postselect_coincidence


def one_photon(arm, pol="H", internal=0):
    return FockState.from_photons([(arm, pol, internal)])


class TestBeamSplitter:
    def test_full_transmission_is_identity_routing(self):
        st = apply_beamsplitter(one_photon("1"),
                                BeamSplitterSpec(("1", "3"), ("1'", "3'"), 0.0))
        assert st.terms == {(("1'", "H", 0),): pytest.approx(1.0)}

    def test_single_photon_split_amplitudes(self):
        # paper matrix entries: sqrt(1-R) transmitted, i sqrt(R) reflected
        st = apply_beamsplitter(one_photon("1"),
                                BeamSplitterSpec(("1", "3"), ("1'", "3'"), 1 / 3))
        assert st.terms[(("1'", "H", 0),)] == pytest.approx(math.sqrt(2 / 3))
        assert st.terms[(("3'", "H", 0),)] == pytest.approx(1j * math.sqrt(1 / 3))

    def test_hom_dip_balanced(self):
        # brute force over the four two-photon paths: coincidence amplitude
        # (1-R) - R vanishes at R = 1/2
        st = FockState.from_photons([("a", "H", 0), ("b", "H", 0)])
        out = apply_beamsplitter(st, BeamSplitterSpec(("a", "b"), ("c", "d"), 0.5))
        rho, weight = postselect_coincidence(out, ("c", "d"))
        assert rho is None
        assert weight == 0.0

    def test_hom_coincidence_matches_path_sum(self):
        # independent oracle: enumerate the four path amplitudes by hand
        for r in (0.1, 1 / 3, 0.7):
            st = FockState.from_photons([("a", "H", 0), ("b", "H", 0)])
            out = apply_beamsplitter(st, BeamSplitterSpec(("a", "b"), ("c", "d"), r))
            _, weight = postselect_coincidence(out, ("c", "d"))
            t, refl = math.sqrt(1 - r), math.sqrt(r)
            amp = t * t - refl * refl  # transmit-transmit + reflect-reflect (i^2)
            assert weight == pytest.approx(amp**2, abs=1e-12)

    def test_unitarity_preserves_norm(self):
        rng = np.random.default_rng(7)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        st = FockState({
            (("a", "H", 0), ("b", "H", 0)): amps[0],
            (("a", "H", 0), ("b", "V", 0)): amps[1],
            (("a", "V", 0), ("b", "H", 0)): amps[2],
            (("a", "V", 1), ("b", "V", 0)): amps[3],
        })
        assert st.norm_squared() == pytest.approx(1.0)
        for r in (0.0, 0.25, 0.5, 1 / 3, 0.9, 1.0):
            out = apply_beamsplitter(st, BeamSplitterSpec(("a", "b"), ("c", "d"), r))
            assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_photon_number_conserved_through_cascade(self):
        st = FockState.from_photons([("a", "H", 0), ("b", "V", 0), ("e", "H", 0)])
        out = apply_beamsplitter(st, BeamSplitterSpec(("a", "b"), ("c", "d"), 0.3))
        out = apply_beamsplitter(out, BeamSplitterSpec(("c", "e"), ("f", "g"), 0.6))
        assert out.num_photons() == 3
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_double_application_not_identity_but_r0_is(self):
        st = one_photon("a")
        once = apply_beamsplitter(st, BeamSplitterSpec(("a", "b"), ("c", "d"), 0.3))
        twice = apply_beamsplitter(once, BeamSplitterSpec(("c", "d"), ("a", "b"), 0.3))
        # amplitude back on arm a is (1-R) - R != 1
        assert abs(twice.terms[(("a", "H", 0),)] - 1.0) > 0.1
        r0 = apply_beamsplitter(st, BeamSplitterSpec(("a", "b"), ("a2", "b2"), 0.0))
        assert r0.terms[(("a2", "H", 0),)] == pytest.approx(1.0, abs=1e-12)

    def test_bosonic_bunching_weights(self):
        # identical photons on a balanced splitter bunch: |2,0> and |0,2>
        # each with probability 1/2, which needs the sqrt(n!) factors
        st = FockState.from_photons([("a", "H", 0), ("b", "H", 0)])
        out = apply_beamsplitter(st, BeamSplitterSpec(("a", "b"), ("c", "d"), 0.5))
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
        both_c = out.terms[(("c", "H", 0), ("c", "H", 0))]
        # |coeff|^2 * 2! = 1/2
        assert abs(both_c) ** 2 * 2 == pytest.approx(0.5, abs=1e-12)

    def test_unknown_arm_raises(self):
        with pytest.raises(KeyError):
            apply_beamsplitter(one_photon("a"),
                               BeamSplitterSpec(("x", "y"), ("u", "v"), 0.5))

    def test_bad_reflectivity_rejected(self):
        with pytest.raises(ValueError):
            BeamSplitterSpec(("a", "b"), ("c", "d"), 1.5)
        with pytest.raises(ValueError):
            BeamSplitterSpec(("a", "b"), ("a", "d"), 0.5)

    @pytest.mark.parametrize("inputs, outputs", [
        (("a", "b"), ("c", "c")), (("a", "a"), ("c", "d"))])
    def test_repeated_arm_rejected(self, inputs, outputs):
        # a repeated output arm would bunch both photons there; a repeated
        # input arm would leave the other input's photon untouched
        with pytest.raises(ValueError, match="repeated"):
            BeamSplitterSpec(inputs, outputs, 0.5)


def bits(state):
    """A state's monomials in order, each with its coefficient's exact
    bits (signed zeros included)."""
    return [(mono, c.real.hex(), c.imag.hex())
            for mono, c in state.terms.items()]


def coincidences(state, arms):
    """The terms of ``state`` with exactly one photon in each of ``arms``."""
    return FockState._from_canonical({
        mono: c for mono, c in state.terms.items()
        if all(Counter(arm for arm, _, _ in mono)[a] == 1 for a in arms)})


# the splitter (a, b) -> (c, d); photons may already sit in c or d, bunch
# in one input arm, leave one input arm empty or pass by in arm e
MODES = st.tuples(st.sampled_from("abcde"), st.sampled_from("HV"),
                  st.integers(0, 2))
COEFFS = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda c: abs(c) > 1e-3)
REFLECTIVITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


@st.composite
def fock_states(draw):
    n = draw(st.integers(2, 4))
    monos = draw(st.lists(st.lists(MODES, min_size=n, max_size=n),
                          min_size=1, max_size=6))
    return FockState({tuple(m): draw(COEFFS) for m in monos})


class TestPostselectedBeamSplitter:
    @given(state=fock_states(), r=REFLECTIVITIES)
    def test_equals_projected_unitary_bits(self, state, r):
        bs = BeamSplitterSpec(("a", "b"), ("c", "d"), r)
        if state.terms and not {"a", "b"} & state.arms():
            for apply in (apply_beamsplitter, apply_postselected_beamsplitter):
                with pytest.raises(KeyError):
                    apply(state, bs)
            return
        expected = coincidences(apply_beamsplitter(state, bs), ("c", "d"))
        assert bits(apply_postselected_beamsplitter(state, bs)) == \
            bits(expected)

    def test_unknown_arm_raises(self):
        with pytest.raises(KeyError, match="neither input arm"):
            apply_postselected_beamsplitter(
                one_photon("a"), BeamSplitterSpec(("x", "y"), ("u", "v"), 0.5))


class TestPostselect:
    def test_product_state_passes_through(self):
        st = FockState.from_photons([("a", "H", 0), ("b", "V", 0)])
        rho, weight = postselect_coincidence(st, ("a", "b"))
        assert weight == pytest.approx(1.0)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |HV><HV|
        assert np.allclose(rho.matrix, expected)
        assert rho.labels == ("a", "b")

    def test_internal_labels_are_traced(self):
        # equal superposition of matching/orthogonal internal labels on arm b
        # dephases the polarization coherence
        s = 1 / math.sqrt(2)
        st = FockState({
            (("a", "H", 0), ("b", "H", 0)): 0.5,
            (("a", "H", 0), ("b", "V", 0)): 0.5,
            (("a", "H", 0), ("b", "H", 1)): 0.5,
            (("a", "H", 0), ("b", "V", 1)): -0.5,
        })
        rho, weight = postselect_coincidence(st, ("a", "b"))
        assert weight == pytest.approx(1.0)
        # coherence between b=H and b=V cancels between internal sectors
        assert abs(rho.matrix[0, 1]) < 1e-12
        assert rho.matrix[0, 0] == pytest.approx(0.5)

    def test_weight_bounds_and_density_invariants(self):
        st = apply_beamsplitter(
            FockState.from_photons([("a", "H", 0), ("b", "V", 0)]),
            BeamSplitterSpec(("a", "b"), ("c", "d"), 0.37))
        rho, weight = postselect_coincidence(st, ("c", "d"))
        assert 0.0 <= weight <= 1.0
        # DensityMatrix constructor enforces Hermiticity/trace/PSD
        assert rho.num_qubits == 2

    def test_repeated_arm_raises(self):
        st_in = FockState.from_photons([("a", "H", 0), ("b", "V", 0)])
        with pytest.raises(ValueError, match="arm 'a' repeated"):
            postselect_coincidence(st_in, ("a", "a"))

    def test_wrong_photon_number_raises(self):
        st = FockState.from_photons([("a", "H", 0)])
        with pytest.raises(ValueError):
            postselect_coincidence(st, ("a", "b"))


class TestDephase:
    def test_full_overlap_single_branch(self):
        st = FockState.from_photons([("a", "H", 0), ("b", "H", 0)])
        branches = dephase_internal(st, [("a", "b", 1.0)])
        assert len(branches) == 1
        assert branches[0][1] == pytest.approx(1.0)
        assert branches[0][0].terms == st.terms

    def test_zero_overlap_classical_coincidences(self):
        # fully distinguishable photons: coincidence probability is the
        # classical sum R^2 + (1-R)^2
        st = FockState.from_photons([("a", "H", 0), ("b", "H", 0)])
        for r in (0.2, 0.5, 1 / 3):
            prob = 0.0
            for branch, w in dephase_internal(st, [("a", "b", 0.0)]):
                out = apply_beamsplitter(
                    branch, BeamSplitterSpec(("a", "b"), ("c", "d"), r))
                _, weight = postselect_coincidence(out, ("c", "d"))
                prob += w * weight
            assert prob == pytest.approx(r**2 + (1 - r) ** 2, abs=1e-12)

    def test_branch_weights_multiply(self):
        st = FockState.from_photons([("a", "H", 0), ("b", "H", 0),
                                     ("c", "H", 0), ("d", "H", 0)])
        lam = 0.8
        branches = dephase_internal(st, [("a", "b", lam), ("c", "d", lam)])
        weights = sorted(w for _, w in branches)
        lam2 = lam**2
        expected = sorted([lam2 * lam2, lam2 * (1 - lam2),
                           (1 - lam2) * lam2, (1 - lam2) ** 2])
        assert np.allclose(weights, expected)

    def test_bad_overlap_raises(self):
        st = FockState.from_photons([("a", "H", 0), ("b", "H", 0)])
        with pytest.raises(ValueError):
            dephase_internal(st, [("a", "b", 1.5)])

    def test_unknown_arm_raises(self):
        st = FockState.from_photons([("a", "H", 0), ("b", "H", 0)])
        with pytest.raises(KeyError):
            dephase_internal(st, [("a", "zz", 0.5)])


class TestStateRepresentation:
    def test_mixed_photon_number_rejected(self):
        with pytest.raises(ValueError):
            FockState({(("a", "H", 0),): 1.0,
                       (("a", "H", 0), ("b", "H", 0)): 1.0})

    def test_monomials_are_canonicalized(self):
        st = FockState({(("b", "H", 0), ("a", "H", 0)): 0.5,
                        (("a", "H", 0), ("b", "H", 0)): 0.5})
        assert list(st.terms.values()) == [pytest.approx(1.0)]
