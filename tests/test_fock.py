import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entclone import fock
from entclone.fock import BeamSplitterSpec, FockState, apply_beamsplitter, \
    apply_postselected_beamsplitter, dephase_internal, postselect_coincidence
from entclone.qmath import check_density


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


def projected_unitary(state, bs):
    return coincidences(apply_beamsplitter(state, bs), bs.output_arms)


def three_photons(coeffs):
    """One photon in each of arms a and b (the splitter's inputs) and e
    (passive), with ``coeffs`` on four fixed polarization patterns."""
    pols = ("HHV", "HVH", "VHH", "VVV")
    return FockState({
        tuple((arm, p, 0) for arm, p in zip("abe", pol)): c
        for pol, c in zip(pols, coeffs)})


# the same monomials with other coefficients; most are real or imaginary,
# so a signed zero a product got wrong would show
SHARED_MONOMIALS = (three_photons((0.5, -0.5j, 0.5, 0.5)),
                    three_photons((0.1 + 0.7j, -0.3, 0.2j, -0.6 - 0.1j)))


class TestRouteTable:
    """A cached route table serves every state with the same monomials and
    splitter arms, whatever the coefficients and R, with the bits of the
    projected unitary."""

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_hit_keeps_projected_unitary_bits(self, order):
        bs = BeamSplitterSpec(("a", "b"), ("c", "d"), 0.3)
        fock._coincidence_table.cache_clear()
        for k in order:
            state = SHARED_MONOMIALS[k]
            assert bits(apply_postselected_beamsplitter(state, bs)) == \
                bits(projected_unitary(state, bs))
        info = fock._coincidence_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_pruning_reflectivities_keep_bits(self):
        # at R = 1/2 the HOM routes cancel and at R = 1 the kept routes
        # come in another order, so the second splitter meets other
        # monomial sequences than at R = 0.3
        fock._coincidence_table.cache_clear()
        between = set()
        for state in SHARED_MONOMIALS:
            for r in (0.0, 0.5, 1.0, 0.3, 0.0, 1.0, 0.5):
                first = BeamSplitterSpec(("a", "b"), ("c", "d"), r)
                second = BeamSplitterSpec(("c", "e"), ("f", "g"), r)
                once = apply_postselected_beamsplitter(state, first)
                between.add(tuple(once.terms))
                want = projected_unitary(projected_unitary(state, first),
                                         second)
                assert bits(apply_postselected_beamsplitter(once, second)) \
                    == bits(want)
        # one table for the first splitter, one per sequence after it
        assert len(between) == 3
        assert fock._coincidence_table.cache_info().misses == 1 + 3

    @pytest.mark.parametrize("inputs, outputs", [
        (("a", "b"), ("c", "d")), (("b", "a"), ("c", "d")),
        (("a", "b"), ("d", "c")), (("b", "a"), ("d", "c"))])
    def test_swapped_arms_keep_bits(self, inputs, outputs):
        # each arm order routes the same monomials with its own table
        for r in (0.3, 0.0, 1 / 3):
            bs = BeamSplitterSpec(inputs, outputs, r)
            for state in SHARED_MONOMIALS:
                assert bits(apply_postselected_beamsplitter(state, bs)) == \
                    bits(projected_unitary(state, bs))


def reference_readout(state, arms):
    """`postselect_coincidence`'s read-out by a direct walk over the
    monomials: each kept amplitude summed in a dict in monomial order,
    grouped by internal labels."""
    arm_pos = {a: k for k, a in enumerate(arms)}
    kept = defaultdict(complex)
    for mono, coeff in state.terms.items():
        pols = [None] * len(arms)
        internals = [0] * len(arms)
        for arm, pol, internal in mono:
            k = arm_pos.get(arm)
            if k is None or pols[k] is not None:
                break
            pols[k] = "HV".index(pol)
            internals[k] = internal
        else:
            kept[(tuple(pols), tuple(internals))] += coeff
    weight = sum(abs(c) ** 2 for c in kept.values())
    if weight <= 0.0:
        return None, 0.0
    rho = np.zeros((2 ** len(arms),) * 2, dtype=complex)
    by_internal = defaultdict(dict)
    for (pols, internals), amp in kept.items():
        by_internal[internals][int("".join(map(str, pols)), 2)] = amp
    for vec in by_internal.values():
        idx = list(vec)
        rho[np.ix_(idx, idx)] += fock._outer_conj(
            np.array(list(vec.values()), dtype=complex))
    return rho / weight, weight


@st.composite
def readout_cases(draw):
    """Read-out arms and a state on them whose monomials, in the order
    drawn, mostly hold one photon per arm; the others have one photon
    elsewhere and are rejected."""
    arms = draw(st.sampled_from([("a", "b"), ("b", "a", "c"),
                                 ("c", "d", "e", "a")]))
    monos = []
    for _ in range(draw(st.integers(1, 8))):
        mono = [(arm, draw(st.sampled_from("HV")), draw(st.integers(0, 2)))
                for arm in arms]
        if draw(st.booleans()):
            mono[draw(st.integers(0, len(arms) - 1))] = draw(MODES)
        monos.append(tuple(mono))
    return arms, FockState({mono: draw(COEFFS) for mono in monos})


class TestReadoutTable:
    @given(case=readout_cases())
    def test_equals_direct_walk_bits(self, case):
        arms, state = case
        for _ in range(2):  # built, then read from the cache
            got, weight = postselect_coincidence(state, arms)
            want, want_weight = reference_readout(state, arms)
            assert weight.hex() == float(want_weight).hex()
            if want is None:
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()
                # left unchecked, so Hermitian bit for bit
                assert np.array_equal(got, got.conj().T)

    def test_hit_with_other_coefficients_keeps_bits(self):
        fock._readout_table.cache_clear()
        for state in SHARED_MONOMIALS + SHARED_MONOMIALS[::-1]:
            got, weight = postselect_coincidence(state, ("a", "b", "e"))
            want, want_weight = reference_readout(state, ("a", "b", "e"))
            assert got.tobytes() == want.tobytes()
            assert weight.hex() == want_weight.hex()
        info = fock._readout_table.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_cached_index_blocks_are_read_only(self):
        postselect_coincidence(SHARED_MONOMIALS[0], ("a", "b", "e"))
        _, _, groups = fock._readout_table(
            tuple(SHARED_MONOMIALS[0].terms), ("a", "b", "e"))
        for block, _ in groups:
            for index in block:
                with pytest.raises(ValueError, match="read-only"):
                    index[0] = 0


class TestPostselect:
    def test_product_state_passes_through(self):
        st = FockState.from_photons([("a", "H", 0), ("b", "V", 0)])
        rho, weight = postselect_coincidence(st, ("a", "b"))
        assert weight == pytest.approx(1.0)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |HV><HV|
        assert np.allclose(rho, expected)
        # rows follow the order of the arms: (b, a) reads |VH>
        swapped, _ = postselect_coincidence(st, ("b", "a"))
        assert np.allclose(swapped, expected[[0, 2, 1, 3]][:, [0, 2, 1, 3]])

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
        assert abs(rho[0, 1]) < 1e-12
        assert rho[0, 0] == pytest.approx(0.5)

    def test_weight_bounds_and_density_invariants(self):
        st = apply_beamsplitter(
            FockState.from_photons([("a", "H", 0), ("b", "V", 0)]),
            BeamSplitterSpec(("a", "b"), ("c", "d"), 0.37))
        rho, weight = postselect_coincidence(st, ("c", "d"))
        assert 0.0 <= weight <= 1.0
        assert rho.shape == (4, 4)
        check_density(rho)  # Hermitian, unit trace, PSD

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
