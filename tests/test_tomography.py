import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import matrix_to_json, random_density, tier1_examples
from entclone import metrics, tomography as tg
from entclone.cli import _named_density
from entclone.cloner import ideal_clone_sigma
from entclone.qmath import DensityMatrix, bell_state, check_density

PHI_DM = bell_state("phi+").to_density()
SIGMA = ideal_clone_sigma()

# (state, counts per setting, seed) of the pinned reconstructions: a mixed
# entangled state, a pure one at 1e6 counts whose maximizer lies on the
# boundary, a mixed one at 3e4 and 30 counts per setting of a Schmidt state,
# each stopped by its certified gap
MLE_GOLDEN_CASES = (("sigma", 2000.0, 21), ("phi+", 1e6, 22),
                    ("mixed", 3e4, 23), ("schmidt:0.4", 30.0, 23))
# written by `mle_golden_text()` through tests/data/regenerate.py; any
# change to the floating-point work shows here
MLE_GOLDEN = Path(__file__).parent / "data" / "mle_golden.json"


def mle_golden_text() -> str:
    """JSON of each golden case's converged flag, certified gap,
    log-likelihood history and reconstruction, floats in repr form."""
    out = {}
    for state, n, seed in MLE_GOLDEN_CASES:
        rho = _named_density(state)
        rec = tg.mle_reconstruct(tg.sample_counts(rho, n, seed=seed))
        out[f"{state} n={n!r} seed={seed}"] = {
            "converged": rec.converged,
            "certified_gap": rec.certified_gap,
            "log_likelihood_history": rec.log_likelihood_history,
            "rho_hat": tg.matrix_to_json_dict(rec.rho_hat)["matrix"],
        }
    return json.dumps(out, indent=1) + "\n"


class TestBornProbability:
    def test_bell_hh(self):
        assert tg.born_probability(PHI_DM, "H", "H") == pytest.approx(0.5)

    def test_bell_hv_perfect_correlation(self):
        assert tg.born_probability(PHI_DM, "H", "V") == pytest.approx(0.0)

    def test_sigma_hh(self):
        assert tg.born_probability(SIGMA, "H", "H") == \
            pytest.approx(13 / 36, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_sample_counts_probabilities_have_single_setting_bits(self, seed,
                                                                  rank):
        # sample_counts' stacked product, against born_probability per
        # setting: every Poisson mean keeps its bits
        rho = random_density(np.random.default_rng(seed), rank=rank)
        alone = [tg.born_probability(rho, a, b) for a, b in tg.SETTINGS]
        assert tg._born(rho, tg._SETTING_PROJECTORS).tobytes() == \
            np.array(alone).tobytes()

    # an unknown setting raised a bare KeyError
    @pytest.mark.parametrize("setting", [("X", "H"), ("H", "h")],
                             ids=["XH", "Hh"])
    def test_unknown_setting_rejected(self, setting):
        problem = f"^unknown setting \\({setting[0]}, {setting[1]}\\)$"
        with pytest.raises(ValueError, match=problem):
            tg.born_probability(SIGMA, *setting)
        with pytest.raises(ValueError, match=problem):
            tg.setting_projector(*setting)

    def test_settings_form_scaled_povm(self):
        total = sum(tg.setting_projector(a, b) for a, b in tg.SETTINGS)
        assert np.allclose(total, 9 * np.eye(4))

    def test_probabilities_in_range(self, rng):
        rho = random_density(rng)
        for a, b in tg.SETTINGS:
            p = tg.born_probability(rho, a, b)
            assert -1e-12 <= p <= 1 + 1e-12


def _random_stack(rng, size):
    """``size`` random states, each of a random rank from 1 to 4."""
    a = [rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
         for rank in rng.integers(1, 5, size)]
    return np.array([m / np.trace(m).real for m in (x @ x.conj().T
                                                    for x in a)])


# a few ulps of the sum of the absolute terms, the scale of a dot product's
# rounding error: neither contraction came within 2 of it on 3000 stacks
_ULPS = 4 * np.finfo(float).eps
_LONG_PROJECTORS = tg._MLE_PROJECTORS.astype(np.clongdouble)


class TestContractions:
    """The MLE's two contractions over the 36 settings, run as per-state
    matmuls: the Born probabilities and the weighted projector sums."""

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 64))
    def test_probabilities_have_single_state_bits(self, seed, size):
        stack = _random_stack(np.random.default_rng(seed), size)
        p = tg._probs_stack(stack)
        assert p.shape == (size, 36)
        alone = np.array([tg._probs(rho.copy()) for rho in stack])
        assert p.tobytes() == alone.tobytes()
        exact = np.einsum("nab,jba->nj", stack.astype(np.clongdouble),
                          _LONG_PROJECTORS).real
        scale = np.einsum("nab,jba->nj", np.abs(stack),
                          np.abs(tg._MLE_PROJECTORS))
        assert np.all(np.abs(p - np.maximum(exact, 1e-12)) <= _ULPS * scale)

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 64),
           log_n=st.floats(0.0, 9.0))
    def test_projector_sums_have_single_row_bits(self, seed, size, log_n):
        # weights counts / p, as the gradient sums them
        rng = np.random.default_rng(seed)
        p = tg._probs_stack(_random_stack(rng, size))
        weights = rng.poisson(10.0**log_n * p) / p
        sums = tg._projector_sums(weights)
        assert sums.shape == (size, 4, 4)
        alone = np.array([tg._projector_sums(w[None].copy())[0]
                          for w in weights])
        assert sums.tobytes() == alone.tobytes()
        exact = np.einsum("nj,jab->nab", weights.astype(np.longdouble),
                          _LONG_PROJECTORS)
        scale = np.einsum("nj,jab->nab", weights, np.abs(tg._MLE_PROJECTORS))
        assert np.all(np.abs(sums - exact) <= _ULPS * scale)


class TestSampleCounts:
    def test_deterministic_given_seed(self):
        a = tg.sample_counts(SIGMA, 1000, seed=42)
        b = tg.sample_counts(SIGMA, 1000, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        a = tg.sample_counts(SIGMA, 1000, seed=1)
        b = tg.sample_counts(SIGMA, 1000, seed=2)
        assert a != b

    def test_law_of_large_numbers(self):
        n = 1_000_000
        records = tg.sample_counts(SIGMA, n, seed=9)
        for rec in records:
            p = tg.born_probability(SIGMA, rec.setting_a, rec.setting_b)
            assert rec.count / n == pytest.approx(p, abs=0.005)

    @pytest.mark.parametrize("state", ["sigma", "phi+", "mixed"])
    def test_matches_one_setting_at_a_time(self, state):
        # the one draw over all 36 means, against a copy of the loop that
        # drew one setting at a time
        rho = _named_density(state)
        for n in (30, 1e3, 1e18):
            for seed in (0, 1, 7, 2024):
                rng = np.random.default_rng(seed)
                loop = [tg.CountRecord(a, b, int(rng.poisson(
                    n * tg.born_probability(rho, a, b))))
                    for a, b in tg.SETTINGS]
                drawn = tg.sample_counts(rho, n, seed)
                assert drawn == loop
                assert all(type(r.count) is int for r in drawn)

    def test_bad_n_raises(self):
        with pytest.raises(ValueError):
            tg.sample_counts(SIGMA, 0, seed=1)

    # True drew 11 counts at n = 1
    @pytest.mark.parametrize("n", [float("nan"), float("inf"), -float("inf"),
                                   0.0, -5.0, True, False])
    def test_non_finite_or_non_positive_n_rejected(self, n):
        problem = (f"n_per_setting must be a number, got {n}$"
                   if isinstance(n, bool) else "n_per_setting must be finite")
        with pytest.raises(ValueError, match=problem):
            tg.sample_counts(SIGMA, n, seed=1)

    def test_mean_count_too_large_rejected(self):
        # numpy's Poisson sampler failed with "lam value too large"
        with pytest.raises(ValueError, match="n_per_setting must be at most "
                           "1e\\+18, got 1e\\+20$"):
            tg.sample_counts(SIGMA, 1e20, seed=1)
        assert len(tg.sample_counts(SIGMA, 1e18, seed=1)) == 36

    # NaN and negative exposures failed inside numpy's Poisson sampler, and
    # True was kept as each record's exposure. Drawn records get another
    # exposure by `dataclasses.replace`, which checks it again.
    @pytest.mark.parametrize("exposure", [float("nan"), float("inf"), 0.0,
                                          -1.0, True, False])
    def test_bad_exposure_rejected(self, exposure):
        problem = (f"exposure must be a number, got {exposure}$"
                   if isinstance(exposure, bool)
                   else "exposure must be finite")
        for record in tg.sample_counts(SIGMA, 100.0, seed=1):
            with pytest.raises(ValueError, match=problem):
                dataclasses.replace(record, exposure=exposure)

    # a plain array was drawn from unchecked: np.eye(4) gave 36 102 counts
    # and a non-PSD one failed inside numpy's Poisson sampler
    @pytest.mark.parametrize("bad", [
        np.eye(4),  # trace 4
        np.eye(4) / 4 + np.eye(4, k=1) / 10,  # not Hermitian
        np.diag([1.5, -0.5, 0.0, 0.0]),  # eigenvalue -0.5
        np.diag([np.nan, 1.0, 0.0, 0.0]),  # NaN
    ])
    def test_plain_matrix_checked_as_a_state(self, bad):
        with pytest.raises(ValueError) as checked:
            check_density(bad)
        for draw in (lambda: tg.sample_counts(bad, 1000, seed=0),
                     lambda: tg.born_probability(bad, "H", "H")):
            with pytest.raises(ValueError) as exc:
                draw()
            assert str(exc.value) == str(checked.value)

    def test_plain_matrix_draws_as_its_state(self):
        assert tg.sample_counts(SIGMA.matrix, 1000, seed=4) == \
            tg.sample_counts(SIGMA, 1000, seed=4)

    # None drew from fresh OS entropy, so two calls differed; True drew
    # the counts of seed 1
    @pytest.mark.parametrize("seed", [None, 2.5, np.random.default_rng(0),
                                      True, False],
                             ids=["none", "float", "generator", "true",
                                  "false"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError,
                           match="sampling needs an integer seed, got"):
            tg.sample_counts(SIGMA, 1000, seed=seed)


class TestMleReconstruct:
    def test_noiseless_bell_counts(self):
        n = 1_000_000
        records = [
            tg.CountRecord(a, b, round(n * tg.born_probability(PHI_DM, a, b)))
            for a, b in tg.SETTINGS
        ]
        rec = tg.mle_reconstruct(records)
        f = metrics.fidelity_to_pure(rec.rho_hat, metrics.PHI_PLUS)
        assert f >= 0.9999

    def test_sigma_large_n_consistency(self):
        records = tg.sample_counts(SIGMA, 1_000_000, seed=5)
        rec = tg.mle_reconstruct(records)
        assert metrics.uhlmann_fidelity(rec.rho_hat, SIGMA) >= 0.999

    def test_output_always_physical(self, rng):
        # even from very noisy small-count data the reconstruction satisfies
        # the density-matrix invariants (enforced by the constructor)
        records = tg.sample_counts(SIGMA, 20, seed=13)
        rec = tg.mle_reconstruct(records)
        assert rec.rho_hat.num_qubits == 2
        vals = np.linalg.eigvalsh(rec.rho_hat.matrix)
        assert vals.min() >= -1e-9

    def test_loglik_monotone(self):
        records = tg.sample_counts(SIGMA, 4000, seed=3)
        rec = tg.mle_reconstruct(records)
        hist = np.array(rec.log_likelihood_history)
        assert np.all(np.diff(hist) >= 0)
        assert rec.converged

    def test_permutation_invariance(self):
        records = tg.sample_counts(SIGMA, 4000, seed=21)
        rec = tg.mle_reconstruct(records)
        rng = np.random.default_rng(0)
        shuffled = list(records)
        rng.shuffle(shuffled)
        rec2 = tg.mle_reconstruct(shuffled)
        assert np.max(np.abs(rec.rho_hat.matrix - rec2.rho_hat.matrix)) < 1e-10

    def test_statistical_consistency(self):
        # median reconstruction error decreases with counts per setting
        medians = []
        for n in (100, 1000, 10_000, 100_000):
            errs = []
            for seed in range(50):
                records = tg.sample_counts(SIGMA, n, seed=1000 * seed + n)
                rec = tg.mle_reconstruct(records)
                errs.append(metrics.trace_distance(rec.rho_hat, SIGMA))
            medians.append(float(np.median(errs)))
        assert all(a > b for a, b in zip(medians, medians[1:]))

    def test_iterations_and_gap_reported(self, monkeypatch):
        # sigma stops on its certified gap; for schmidt:0.4 at 3e10 counts
        # (seed 100, a draw of tests/data/frontier_scan.py that does not
        # certify) an accepted step stops gaining before the gap reaches
        # CERT_TOL
        records = tg.sample_counts(SIGMA, 2000, seed=8)
        rec = tg.mle_reconstruct(records)
        assert rec.converged
        assert rec.iterations == len(rec.log_likelihood_history) - 1 > 1
        assert 0 < rec.certified_gap < tg.CERT_TOL
        rho = _named_density("schmidt:0.4")
        large = tg.mle_reconstruct(tg.sample_counts(rho, 3e10, seed=100))
        assert not large.converged
        assert large.iterations == len(large.log_likelihood_history) - 1 > 1
        assert large.certified_gap > tg.CERT_TOL
        # one pass, whose step from the start of this draw is rejected
        monkeypatch.setattr(tg, "MAX_ITERATIONS", 1)
        one = tg.mle_reconstruct(records)
        assert (one.converged, one.iterations) == (False, 0)
        assert one.certified_gap > tg.CERT_TOL

    # at large counts the float log-likelihood cannot tell the last steps'
    # gains apart, but their gains summed from the probability differences
    # can; a run is converged only when its certified gap says so. From
    # 1e15 counts the gap's rounding bound alone exceeds CERT_TOL: without
    # it phi+ came back converged there, with gaps of -0.56 and -255
    @pytest.mark.parametrize("state, n, converged", [
        ("sigma", 1e6, True), ("mixed", 1e9, True), ("sigma", 1e9, True),
        ("phi+", 1e12, False), ("phi+", 1e15, False), ("phi+", 1e18, False)])
    def test_large_counts_converged_only_when_certified(self, state, n,
                                                        converged):
        rho = _named_density(state)
        rec = tg.mle_reconstruct(tg.sample_counts(rho, n, seed=7))
        assert rec.converged == converged
        assert (rec.certified_gap < tg.CERT_TOL) == converged

    # counts in a few settings only put the maximizer on the boundary,
    # where each iterate must stay a state: the projected gradient keeps it
    # one by construction, and these sets certify after 3200 and 1197
    # steps (the line search this step replaced let the iterate's rounding
    # eigenvalue reach -6.6e-5 and -2.4e-7 here, and mle_reconstruct
    # raised "min eigenvalue ... below -1e-9")
    @pytest.mark.parametrize("nonzero", [
        {31: 5, 32: 5, 33: 1282, 34: 168175, 35: 194939},
        {8: 470987, 19: 506, 23: 72, 33: 255540}])
    def test_boundary_iterates_stay_states(self, nonzero):
        rec = tg.mle_reconstruct([tg.CountRecord(a, b, nonzero.get(k, 0))
                                  for k, (a, b) in enumerate(tg.SETTINGS)])
        assert rec.converged and rec.certified_gap < tg.CERT_TOL

    # the record keeps the history and the gap; the log-likelihood, the
    # step count and the converged flag are read from them, and cannot be
    # set apart from them
    def test_record_derives_its_summaries(self):
        assert [f.name for f in dataclasses.fields(tg.TomographyRecord)] == [
            "records", "rho_hat", "log_likelihood_history", "certified_gap",
            "monte_carlo"]
        rec = tg.mle_reconstruct(tg.sample_counts(SIGMA, 2000, seed=8))
        assert rec.log_likelihood == rec.log_likelihood_history[-1]
        assert rec.iterations == len(rec.log_likelihood_history) - 1
        assert rec.converged == (rec.certified_gap < tg.CERT_TOL)
        for name in ("iterations", "log_likelihood", "converged"):
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))

    def test_all_zero_counts_raises(self):
        records = [tg.CountRecord(a, b, 0) for a, b in tg.SETTINGS]
        with pytest.raises(ValueError):
            tg.mle_reconstruct(records)

    # the rate estimate assumes all 36 settings once each; without this
    # check sigma at n = 1e6 reconstructs to F = 0.972 (6 duplicates) or
    # 0.905 (30 settings), both reported as converged
    @pytest.mark.parametrize("pick, problem", [
        (lambda r: r + r[:6], "missing: none; duplicated: HH HV HD HA HL HR$"),
        (lambda r: r[:30], "missing: RH RV RD RA RL RR; duplicated: none"),
        (lambda r: [], "missing: HH HV"),
    ], ids=["duplicated", "missing", "empty"])
    def test_settings_not_each_once_rejected(self, pick, problem):
        records = tg.sample_counts(SIGMA, 1_000_000, seed=5)
        with pytest.raises(ValueError, match=problem):
            tg.mle_reconstruct(pick(records))


class TestMleGolden:
    def test_reproduces_golden_bits(self):
        assert mle_golden_text() == MLE_GOLDEN.read_text()


_SPARSE_COUNT = st.one_of(st.just(0), st.integers(0, 3),
                          st.integers(0, 10**6))


class TestMleProperties:
    """Random 36-setting data, including sparse and zero-heavy counts."""

    @given(counts=st.lists(_SPARSE_COUNT, min_size=36, max_size=36)
           .filter(any),
           exposures=st.lists(st.floats(1e-3, 1e3), min_size=36,
                              max_size=36),
           order=st.permutations(range(36)))
    def test_physical_monotone_and_order_free(self, counts, exposures,
                                              order):
        records = [tg.CountRecord(a, b, c, e) for (a, b), c, e
                   in zip(tg.SETTINGS, counts, exposures)]
        rec, steps = _stepped(records)
        # the constructor validates Hermiticity, unit trace and PSD
        assert isinstance(rec.rho_hat, DensityMatrix)
        assert np.all(np.diff(rec.log_likelihood_history) >= 0)
        assert rec.log_likelihood == rec.log_likelihood_history[-1]
        shuffled = tg.mle_reconstruct([records[k] for k in order])
        assert np.array_equal(shuffled.rho_hat.matrix, rec.rho_hat.matrix)
        assert shuffled.log_likelihood_history == rec.log_likelihood_history
        assert shuffled.converged == rec.converged
        # a run that does not stop on an accepted step without gain, and
        # not on the budget, stops on the certificate: at every exposure
        # its gap is below CERT_TOL (the RrhoR step stopped unequal
        # exposures with gaps of ~2e4)
        stalled = bool(steps) and _stalled(steps[-1])
        if not stalled and len(steps) < tg.MAX_ITERATIONS:
            assert rec.converged and rec.certified_gap < tg.CERT_TOL


class TestIterationCount:
    """The number of steps a reconstruction takes, pinned: a change to the
    step rule that keeps every test of the bits can still cost iterations."""

    def test_sigma_at_4000_counts(self):
        # 466 with the RrhoR line search; 262 from I/4 on the linear gap
        # alone, [12, 13, 14, 14, 14, 13, 13, 12, 12, 12,
        #         13, 14, 14, 14, 13, 13, 13, 13, 13, 13];
        # 122 from I/4, [6, 6, 6, 6, 6, 6, 6, 6, 6, 7,
        #                6, 6, 7, 6, 6, 6, 6, 6, 6, 6]
        iterations = [tg.mle_reconstruct(
            tg.sample_counts(SIGMA, 4000, seed=seed)).iterations
            for seed in range(20)]
        assert iterations == [3, 2, 2, 2, 2, 2, 3, 4, 2, 3,
                              2, 2, 2, 2, 3, 2, 3, 3, 2, 2]
        assert sum(iterations) == 48

    def test_phi_plus_at_1e5_counts(self):
        # the data of paper criterion 9; 15 with the RrhoR line search and
        # 4 from I/4
        rec = tg.mle_reconstruct(tg.sample_counts(PHI_DM, 1e5, seed=3))
        assert (rec.iterations, rec.converged) == (2, True)

    def test_mixed_certified_at_its_start(self):
        # the projected linear inversion of a full-rank state's counts is
        # of full rank, and the dual gap certifies it before any step
        rho = _named_density("mixed")
        rec = tg.mle_reconstruct(tg.sample_counts(rho, 1e4, seed=2))
        assert (rec.iterations, rec.converged) == (0, True)
        assert rec.certified_gap < tg.CERT_TOL


def _stepped(records):
    """`mle_reconstruct` of ``records``, and the inputs and results of each
    `tg._step` call it made."""
    steps = []
    step = tg._step

    def recording(*inputs):
        found = step(*inputs)
        steps.append((inputs, found))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tg, "_step", recording)
        return tg.mle_reconstruct(records), steps


def _stalled(step):
    """Whether a recorded `tg._step` call of one row was accepted without
    gaining, the stop short of the certificate."""
    _, (_, _, gain, accepted, _) = step
    return bool(accepted[0] and not gain[0] > 0)


class TestStepRule:
    """Each step `mle_reconstruct` takes, against the projected-gradient
    rule and against `reference_mle`, which takes one step at a time."""

    @tier1_examples(25)
    @given(counts=st.lists(_SPARSE_COUNT, min_size=36, max_size=36)
           .filter(any),
           exposures=st.one_of(
               st.just([1.0] * 36),
               st.lists(st.floats(1e-3, 1e3), min_size=36, max_size=36)))
    # 2 and 1 counts at R,H and R,V: a threshold of the reference's simplex
    # projection taken at another k than the library's left rho_hat 5.6e-17
    # off reference_mle's
    @example(counts=[0] * 30 + [2, 1] + [0] * 4, exposures=[1.0] * 36)
    def test_each_accepted_step_meets_the_rule(self, counts, exposures):
        records = [tg.CountRecord(a, b, c, e) for (a, b), c, e
                   in zip(tg.SETTINGS, counts, exposures)]
        with reference_started():
            rec, steps = _stepped(records)
        taken = 0
        for inputs, found in steps:
            g, rho, p, n, expected, alpha = (a[0] for a in inputs)
            z, z_p, gain, accepted, _ = (a[0] for a in found)
            if not (accepted and gain > 0):
                continue
            taken += 1
            check_density(z)
            # the rule as stated, with the inner products formed from the
            # matrices, up to their rounding
            d = z - rho
            bound = np.vdot(g, d).real - np.vdot(d, d).real / (2 * alpha)
            rounding = 1e-13 * (np.abs(g).sum() + np.abs(
                n / p).sum() + abs(gain))
            assert gain >= bound - rounding
            assert_gain_is_rise(n, expected, p, z_p, gain)
        assert taken == rec.iterations
        assert np.all(np.diff(rec.log_likelihood_history) >= 0)
        ordered = [records[k] for k in tg._mle_order(records)]
        ref = reference_mle([r.count for r in ordered],
                            [r.exposure for r in ordered])
        assert np.array_equal(rec.rho_hat.matrix, ref[0])
        assert (rec.log_likelihood, rec.log_likelihood_history,
                rec.converged, rec.iterations, rec.certified_gap) == ref[1:]

    # from I/4, the third accepted step on these counts (`SETTINGS` order)
    # takes the setting with n = 1000 from p = 0.0416 to 6.0e-10; its gain,
    # summed with log1p(d / p) alone, was 3.0e-6 off the rise, 1.8 times
    # the rounding allowed
    def test_gain_of_a_falling_probability(self, monkeypatch):
        counts = [0, 2, 1000, 87478, 1, 0, 0, 2, 17799, 1000000, 0, 74, 3, 3,
                  2, *[0] * 13, 2, 0, 0, 3, 0, 0, 1, 0]
        monkeypatch.setattr(tg, "MAX_ITERATIONS", 8)
        rec, steps = _stepped([tg.CountRecord(a, b, c) for (a, b), c
                               in zip(tg.SETTINGS, counts)])
        taken = [(inputs, found) for inputs, found in steps
                 if found[3][0] and found[2][0] > 0]
        assert len(taken) == rec.iterations == 3
        inputs, found = taken[2]
        g, rho, p, n, expected, alpha = (a[0] for a in inputs)
        z, z_p, gain, accepted, _ = (a[0] for a in found)
        assert ((z_p - p) / p)[n > 0].min() < -0.99
        assert_gain_is_rise(n, expected, p, z_p, gain)
        assert gain.tobytes() == _gains(n, expected, p, z_p).tobytes()


def _gains(counts, expected, p, cand_p):
    """Test-only copy of a step's gain: the log-likelihood of probabilities
    ``cand_p`` less that of ``p``, over the last axis, summed from the
    differences d, each logarithm log1p(d / p), or log(cand_p / p) where
    d / p < -1/2."""
    d = cand_p - p
    x = d / p
    logs = np.where(x < -0.5, np.log(cand_p / p), np.log1p(x))
    return (counts * logs - expected * d).sum(axis=-1)


def assert_gain_is_rise(n, expected, p, z_p, gain):
    """A step's gain, from the probabilities ``p`` to ``z_p``, is the rise
    of the log-likelihood, up to the rounding of the two sums."""
    rise = tg._loglik(n, expected, z_p) - tg._loglik(n, expected, p)
    scale = np.abs(n * np.log(expected * p)).sum() + expected.sum()
    assert abs(rise - gain) <= 1e-13 * scale


class TestCertificate:
    """The certified gap bounds how far a reconstruction's log-likelihood is
    below the maximum."""

    @tier1_examples(30)
    @given(state=st.sampled_from(["phi+", "psi-", "sigma", "mixed",
                                  "schmidt:0.4"]),
           n=st.sampled_from([10.0, 30.0, 1e3, 1e4, 1e5]),
           seed=st.integers(0, 2**32 - 1))
    def test_gap_bounds_a_long_run(self, state, n, seed):
        counts = _point_rows([(state, n, seed)])[0]
        rec = tg.mle_reconstruct([tg.CountRecord(a, b, int(c)) for (a, b), c
                                  in zip(sorted(tg.SETTINGS), counts)])
        # at these counts every equal-exposure run stops on its certificate
        assert rec.converged and 0 <= rec.certified_gap < tg.CERT_TOL
        # the same steps, run on to an accepted gain below 1e-10, the stop
        # the certificate replaced
        long_ll = reference_mle(counts, np.ones(36), gain_tol=1e-10)[1]
        rounding = 64 * np.finfo(float).eps * abs(long_ll)
        assert long_ll - rec.log_likelihood <= rec.certified_gap + rounding

    # the RrhoR operator is the likelihood's gradient only when the
    # exposure-weighted projectors sum to a multiple of I: the RrhoR line
    # search stopped these draws, not converged, with gaps of ~2e4 and
    # fidelities to sigma of 0.89-0.91
    def test_unequal_exposures_certified(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            exposures = rng.uniform(0.3, 3.0, 36)
            records = [tg.CountRecord(a, b, int(rng.poisson(
                1e4 * e * tg.born_probability(SIGMA, a, b))), float(e))
                for (a, b), e in zip(tg.SETTINGS, exposures)]
            assert tg.mle_reconstruct(records).certified_gap < tg.CERT_TOL

    # the linear gap at the returned state, against a 50-digit
    # recomputation of G and its largest eigenvalue from the same floats:
    # the float value is off by at most 0.05 eps sum_j e_j, and `_gaps` adds
    # eps sum_j e_j to bound it, which alone exceeds CERT_TOL from 1e15
    # counts; for phi+ at 1e15 (seed 26) the float value is below CERT_TOL,
    # the true gap above
    @pytest.mark.parametrize("state, n, seed", [
        *((state, n, 7) for n in (1e9, 1e12, 1e15)
          for state in ("phi+", "sigma", "mixed")),
        ("phi+", 1e15, 26), ("phi+", 1e18, 1)])
    def test_gap_bounds_its_rounding(self, state, n, seed):
        import mpmath
        counts, rec, rho, expected, p, g = _at_returned_state(state, n, seed)
        gap = float(tg._gaps(g[None], rho[None], counts[None], p[None],
                             expected[None], 0.0)[0])
        rounding = _EPS * expected.sum()
        with mpmath.workdps(50):
            exact_rho, exact_g, _ = _exact_gradient(mpmath, rho, counts,
                                                    expected)
            exact = (max(mpmath.eighe(exact_g, eigvals_only=True))
                     - _exact_trace(mpmath, exact_g * exact_rho))
        assert abs(gap - rounding - exact) <= 0.1 * rounding
        assert exact < gap
        if n >= 1e15:
            assert not rec.converged
        if (state, n, seed) == ("phi+", 1e15, 26):
            assert gap - rounding < tg.CERT_TOL < exact

    # U(y) from its definition, less the log-likelihood of the returned
    # state: at y = n / p, delta = 0, it is the linear gap, and at the dual
    # point it is the small-terms value, which `_gaps` gives. phi+ returns a
    # state of rank 1, where the least-norm delta gives some y_j < 0, so
    # `_dual_point` falls back to x = 0 and its gap is the linear one
    @pytest.mark.parametrize("state, n", [
        ("sigma", 1e3), ("mixed", 1e3), ("sigma", 1e5), ("mixed", 1e5),
        ("phi+", 1e3)])
    def test_dual_expression(self, state, n):
        counts, rec, rho, expected, p, g = _at_returned_state(state, n, 7)
        ll = float(tg._loglik(counts, expected, p))
        rounding = 64 * _EPS * (abs(ll) + expected.sum())
        at = (g[None], rho[None], counts[None], p[None], expected[None])
        at_x0 = float(tg._gaps(*at, 0.0)[0])
        linear = at_x0 - _EPS * expected.sum()
        at_zero = _upper(np.where(counts > 0, counts / p, 0.0), counts,
                         expected) - ll
        assert abs(at_zero - linear) <= rounding
        y, x = _dual_y(g, rho, counts, p)
        dual = float(tg._gaps(*at, x[None])[0])
        if state == "phi+":
            assert (_least_norm_x(g, rho, counts, p) <= -1.0).any()
            assert not x.any()
            assert dual == at_x0
            return
        assert (y[counts > 0] > 0).all()
        t = float(tg._inner(g[None], rho[None])[0])
        delta = tg._projector_sums((counts * x / p)[None])[0]
        small = (-(counts * np.log1p(x)).sum() - t
                 + np.linalg.eigvalsh(g + delta)[-1])
        at_dual = _upper(y, counts, expected) - ll
        assert abs(at_dual - small) <= rounding
        assert at_dual <= dual + rounding
        # the solve's x is the least-norm one
        assert np.allclose(x, _least_norm_x(g, rho, counts, p),
                           rtol=1e-6, atol=1e-12)
        # the reconstruction certified on this gap, at the last iterate,
        # of which the returned state is the Hermitian part at unit trace
        assert rec.converged and rec.certified_gap < tg.CERT_TOL
        assert dual == pytest.approx(rec.certified_gap, rel=1e-9)
        assert tg.CERT_TOL < linear

    # every gap's rounding bound has eps sum_j e_j as its floor, under
    # CERT_TOL up to CERTIFIABLE_MEAN_COUNT, so full-rank draws certify up
    # to it; a bound of 2 eps sum_j e_j, as a Frobenius norm in place of
    # lambda_max needs, exceeds CERT_TOL from about 6.2e12 counts per
    # setting and certifies none of these draws
    @pytest.mark.parametrize("state", ["sigma", "mixed"])
    @pytest.mark.parametrize("n", [8e12, 1.1e13])
    def test_certified_up_to_the_certifiable_count(self, state, n):
        assert n < tg.CERTIFIABLE_MEAN_COUNT
        rows = _point_rows([(state, n, seed) for seed in (100, 101, 102)])
        results = tg._mle_batch(rows, np.ones(36))
        assert all(gap < tg.CERT_TOL for _, _, gap in results)

    # U(y) at the dual point bounds the log-likelihood of every state:
    # states mixed from the returned one and a random one, from next to it
    # (s = 1e-6) to all the random one (s = 1)
    @tier1_examples(30)
    @given(state=st.sampled_from(["sigma", "mixed"]),
           n=st.sampled_from([1e3, 1e4, 1e5]),
           seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4),
           log_s=st.floats(-6.0, 0.0))
    def test_dual_bound_holds_for_every_state(self, state, n, seed, rank,
                                              log_s):
        counts, _, rho, expected, p, g = _at_returned_state(state, n, seed)
        y, _ = _dual_y(g, rho, counts, p)
        # at these counts the returned states are of full rank and their
        # dual point valid, as for 60 of 60 draws tried
        if not (y[counts > 0] > 0).all():
            return
        upper = _upper(y, counts, expected)
        tau = random_density(np.random.default_rng(seed), rank=rank).matrix
        sigma = (1.0 - 10**log_s) * rho + 10**log_s * tau
        ll = float(tg._loglik(counts, expected, tg._probs(sigma)))
        assert ll <= upper + 64 * _EPS * (abs(ll) + expected.sum())

    # counts in one setting give a singular normal matrix: the solve fails
    # for that row, whose dual point falls back to x = 0 and whose gap is
    # then its linear gap, bit for bit, and the row beside it keeps the bits
    # it has alone
    def test_singular_normal_matrix_has_no_dual_gap(self):
        counts, _, rho, expected, p, g = _at_returned_state("sigma", 1e3, 7)
        lone = np.where(np.arange(36) == 0, counts, 0.0)
        rows, pair = np.array([lone, counts]), (lambda a: np.array([a, a]))
        x = tg._dual_point(pair(g), pair(rho), rows, pair(p))
        assert not x[0].any()
        alone = tg._dual_point(g[None], rho[None], counts[None], p[None])
        assert x[1].tobytes() == alone[0].tobytes()
        at = (pair(g), pair(rho), rows, pair(p), pair(expected))
        gaps, linear = tg._gaps(*at, x), tg._gaps(*at, 0.0)
        assert gaps[0].tobytes() == linear[0].tobytes()
        assert linear[1] >= tg.CERT_TOL > gaps[1]

    # the gap at the dual point of the returned state, against a 50-digit
    # recomputation of lambda_max(G + sum_j delta_j Pi_j) from the same
    # floats and the same dual point: the float value less its rounding
    # bound is below the true one, by at most 0.23 of the bound (seeds 1 and
    # 7), so the bound is what keeps it an upper bound. From 1e15 counts the
    # rounding bound alone exceeds CERT_TOL; at 1.1e13 its floor
    # eps sum_j e_j is 0.088
    @pytest.mark.parametrize("state, n", [
        (state, n) for n in (1e6, 1e9, 1e12, 1.1e13, 1e15)
        for state in ("sigma", "mixed")])
    def test_dual_gap_bounds_its_rounding(self, state, n):
        import mpmath
        counts, rec, rho, expected, p, g = _at_returned_state(state, n, 7)
        _, x = _dual_y(g, rho, counts, p)
        gap = float(tg._gaps(g[None], rho[None], counts[None], p[None],
                             expected[None], x[None])[0])
        rounding = _EPS * (expected.sum() + np.abs(counts * x / p).sum()
                           + np.abs(counts * np.log1p(x)).sum())
        with mpmath.workdps(50):
            exact_rho, exact_g, exact_p = _exact_gradient(mpmath, rho, counts,
                                                          expected)
            t = _exact_trace(mpmath, exact_g * exact_rho)
            m = exact_g - t * mpmath.eye(4)
            logs = mpmath.mpf(0)
            for n_j, x_j, p_j, pi in zip(counts, x, exact_p,
                                         tg._MLE_PROJECTORS):
                if n_j > 0:
                    m += (float(n_j) * float(x_j) / p_j) * mpmath.matrix(
                        pi.tolist())
                    logs -= float(n_j) * mpmath.log1p(float(x_j))
            exact = logs + max(mpmath.eighe(m, eigvals_only=True))
        assert abs(gap - rounding - exact) <= rounding
        assert gap - rounding < exact < gap
        assert rec.converged == (n < 1e15)


class TestMonteCarlo:
    def test_deterministic(self):
        records = tg.sample_counts(SIGMA, 4000, seed=8)
        a = tg.mle_reconstruct(records, 25, seed=4).monte_carlo
        b = tg.mle_reconstruct(records, 25, seed=4).monte_carlo
        assert a == b

    def test_noiseless_large_n_tiny_std(self):
        n = 1_000_000
        records = [
            tg.CountRecord(a, b, round(n * tg.born_probability(PHI_DM, a, b)))
            for a, b in tg.SETTINGS
        ]
        _, std = tg.mle_reconstruct(
            records, 20, seed=2).monte_carlo.statistics["fidelity"]
        assert std < 1e-3

    def test_reference_statistics(self):
        records = tg.sample_counts(SIGMA, 4000, seed=8)
        mean, std = tg.mle_reconstruct(
            records, 10, seed=4).monte_carlo.statistics["trace_distance"]
        assert mean >= 0

    def test_no_resamples_no_summary(self):
        records = tg.sample_counts(SIGMA, 1000, seed=8)
        assert tg.mle_reconstruct(records).monte_carlo is None
        assert tg.mle_reconstruct(records, 0, seed=3).monte_carlo is None
        assert tg.mle_reconstruct(records, np.int64(0)).monte_carlo is None

    @pytest.mark.parametrize("n_resamples, seed, problem", [
        (1, 4, "n_resamples must be 0"), (-1, 4, "n_resamples must be 0"),
        (-5, None, "n_resamples must be 0"),
        (3, None, "integer seed"), (3, 2.0, "integer seed"),
        (3, "4", "integer seed"), (3, True, "integer seed"),
        (3, False, "integer seed"),
        # SeedSequence.spawn raised a TypeError for these
        (2.5, 4, "n_resamples must be 0"), (3.0, 4, "n_resamples must be 0"),
        (float("nan"), 4, "n_resamples must be 0"),
        # ran without error bars
        (False, 4, "n_resamples must be 0")])
    def test_bad_resampling_rejected(self, n_resamples, seed, problem):
        records = tg.sample_counts(SIGMA, 1000, seed=8)
        with pytest.raises(ValueError, match=problem):
            tg.mle_reconstruct(records, n_resamples, seed=seed)

    # SeedSequence.spawn built every child before any reconstruction, for
    # days at 10**12
    @pytest.mark.parametrize("n_resamples", [tg.MAX_RESAMPLES + 1, 10**12],
                             ids=["max+1", "10**12"])
    def test_too_many_resamples_rejected(self, no_spawn, n_resamples):
        records = tg.sample_counts(SIGMA, 1000, seed=8)
        with pytest.raises(ValueError, match="^n_resamples must be at most "
                           f"100000, got {n_resamples}$"):
            tg.mle_reconstruct(records, n_resamples, seed=4)

    # numpy's Poisson sampler raised a bare "lam value too large"
    def test_count_beyond_the_sampler_rejected(self, no_spawn):
        records = tg.sample_counts(SIGMA, 1000, seed=8)
        records[0] = dataclasses.replace(records[0], count=10**19)
        with pytest.raises(ValueError, match=r"^resampling needs every count "
                           r"at most 9\.2e\+18, got 10000000000000000000 at "
                           "setting HH$"):
            tg.mle_reconstruct(records, 2, seed=4)


def assert_same_point(rec, point):
    """``rec`` has the bits of ``point`` in every field but
    ``monte_carlo``."""
    assert rec.records == point.records
    assert np.array_equal(rec.rho_hat.matrix, point.rho_hat.matrix)
    assert rec.rho_hat.labels == point.rho_hat.labels
    for name in ("log_likelihood", "converged", "log_likelihood_history",
                 "iterations", "certified_gap"):
        assert getattr(rec, name) == getattr(point, name), name


class TestMonteCarloStatistics:
    def test_single_pass_matches_per_statistic_runs(self):
        # each statistic of the one pass, against that statistic alone
        # evaluated on each resample row of the batched reconstruction
        records = tg.sample_counts(SIGMA, 2000, seed=8)
        point = tg.mle_reconstruct(records)
        summary = tg.mle_reconstruct(records, 6, seed=4).monte_carlo
        assert tuple(summary.statistics) == tuple(tg._STATISTICS)
        assert summary.nonconverged == 0
        rngs = map(np.random.default_rng, np.random.SeedSequence(4).spawn(6))
        counts = np.array([[rng.poisson(r.count) for r in records]
                           for rng in rngs], dtype=float)
        results = tg._mle_batch(counts[:, tg._mle_order(records)], 1.0)
        states = [DensityMatrix(rho, ("a", "b")) for rho, *_ in results]
        for name, value in summary.statistics.items():
            v = np.array([tg._STATISTICS[name](rho, point.rho_hat)
                          for rho in states])
            assert value == (float(v.mean()), float(v.std(ddof=1)))
        assert summary.max_certified_gap == max(gap for *_, gap in results)
        assert summary.max_certified_gap < tg.CERT_TOL

    def test_nonconverged_resamples_counted(self, monkeypatch):
        records = tg.sample_counts(SIGMA, 2000, seed=8)
        monkeypatch.setattr(tg, "MAX_ITERATIONS", 1)
        rec = tg.mle_reconstruct(records, 5, seed=4)
        assert rec.monte_carlo.nonconverged == 5
        assert rec.monte_carlo.max_certified_gap >= tg.CERT_TOL

    # the point estimate and every resample go into one batched
    # reconstruction in this process
    @pytest.mark.parametrize("resamples", [5, 6, 10])
    def test_one_stack_per_report(self, monkeypatch, resamples):
        rows = []
        batch = tg._mle_batch

        def recording_batch(counts, exposures):
            rows.append(len(counts))
            return batch(counts, exposures)

        records = tg.sample_counts(SIGMA, 1000, seed=8)
        monkeypatch.setattr(tg, "_mle_batch", recording_batch)
        tg.mle_reconstruct(records, resamples, seed=2)
        assert rows == [resamples + 1]

    def test_resamples_match_one_at_a_time_reconstruction(self):
        # the summary of the batched pass, against the statistics of each
        # resample drawn and reconstructed on its own, as before batching
        records = [dataclasses.replace(r, exposure=1.5)
                   for r in tg.sample_counts(SIGMA, 500 * 1.5, seed=8)]
        point = tg.mle_reconstruct(records)
        values = []
        for child in np.random.SeedSequence(4).spawn(5):
            rng = np.random.default_rng(child)
            rho = tg.mle_reconstruct(
                [tg.CountRecord(r.setting_a, r.setting_b,
                                int(rng.poisson(r.count)), r.exposure)
                 for r in records]).rho_hat
            values.append([
                metrics.fidelity_to_pure(rho, metrics.PHI_PLUS),
                metrics.witness_expectation(rho),
                metrics.concurrence(rho),
                metrics.von_neumann_entropy(rho),
                metrics.trace_distance(rho, point.rho_hat),
                metrics.uhlmann_fidelity(rho, point.rho_hat)])
        names = ("fidelity", "witness", "concurrence", "entropy",
                 "trace_distance", "uhlmann_fidelity")
        expected = {name: (float(v.mean()), float(v.std(ddof=1)))
                    for name, v in zip(names, np.array(values).T)}
        summary = tg.mle_reconstruct(records, 5, seed=4).monte_carlo
        # in the key order of a tomo report's monte_carlo block
        assert list(summary.statistics.items()) == list(expected.items())

    def test_all_zero_resample_raises(self):
        records = [tg.CountRecord(a, b, 0) for a, b in tg.SETTINGS]
        records[0] = tg.CountRecord("H", "H", 1)
        # some resample of a single count draws zero; the error names it
        with pytest.raises(ValueError, match="degenerate data: .* drew no "
                           "counts, .*; the observed counts total 1$"):
            tg.mle_reconstruct(records, 20, seed=1)

    @tier1_examples(25)
    @given(counts=st.lists(_SPARSE_COUNT, min_size=36, max_size=36)
           .filter(any),
           exposures=st.lists(st.floats(1e-3, 1e3), min_size=36,
                              max_size=36),
           resamples=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_point_estimate_independent_of_resamples(self, counts, exposures,
                                                     resamples, seed):
        # the point estimate is row 0 of the stack, with the bits it has
        # alone, whatever the resamples beside it
        records = [tg.CountRecord(a, b, c, e) for (a, b), c, e
                   in zip(tg.SETTINGS, counts, exposures)]
        point = tg.mle_reconstruct(records)
        try:
            rec = tg.mle_reconstruct(records, resamples, seed=seed)
        except ValueError as e:
            # a resample of these few counts drew none at all
            assert "degenerate data" in str(e)
            return
        assert_same_point(rec, point)
        assert rec.monte_carlo is not None


def _resampled_rows(state, n, seed, size):
    """``size`` Poisson resamples of one simulated data set, as rows of
    counts in the MLE's setting order."""
    rho = _named_density(state)
    counts, _ = tg._mle_arrays(tg.sample_counts(rho, n, seed=seed))
    rows = np.random.default_rng(seed).poisson(counts, size=(size, 36))
    assert rows.sum(axis=1).all()
    return rows.astype(float)


def assert_rows_match_one_set(counts, exposures):
    """Every row of `_mle_batch` has the bits of its own `mle_reconstruct`:
    state, log-likelihood history (whose last entry is the log-likelihood
    and whose length less one is the iteration count) and certified gap,
    whose test against ``CERT_TOL`` is the converged flag."""
    results = tg._mle_batch(counts, exposures)
    assert len(results) == len(counts)
    exposures = np.broadcast_to(exposures, np.shape(counts))
    for row, row_exposures, result in zip(counts, exposures, results):
        rho, history, gap = result
        one = tg.mle_reconstruct([
            tg.CountRecord(a, b, int(c), float(e)) for (a, b), c, e
            in zip(sorted(tg.SETTINGS), row, row_exposures)])
        assert np.array_equal(rho, one.rho_hat.matrix)
        assert history[-1] == one.log_likelihood
        assert (gap < tg.CERT_TOL) == one.converged
        assert len(history) - 1 == one.iterations
        assert gap == one.certified_gap
        assert history == one.log_likelihood_history
    return results


class TestMleBatch:
    """The batched reconstruction the Monte Carlo error bars rest on."""

    # (state, counts per setting, seed): sigma certifies within ~15 steps,
    # mixed at 40 counts and schmidt:0.4 at 30 within 7 to 18, spread over
    # the rows, and phi+ at 1e6 counts certifies a maximizer on the
    # boundary after 4 or 5
    @pytest.mark.parametrize("state, n, seed, size", [
        ("sigma", 2000.0, 1, 2), ("sigma", 2000.0, 1, 3),
        ("mixed", 40.0, 2, 10), ("schmidt:0.4", 30.0, 3, 11),
        ("phi+", 1e6, 22, 3),
    ])
    def test_rows_match_one_set(self, state, n, seed, size):
        rows = _resampled_rows(state, n, seed, size)
        results = assert_rows_match_one_set(rows, np.ones(36))
        if state == "phi+":
            assert all(0 < gap < tg.CERT_TOL for _, _, gap in results)

    @pytest.mark.parametrize("size", [2, 3, 10, 11])
    def test_identical_rows(self, size):
        # copies of one row, and one other row when the size is odd; the
        # two rows take 7 and 9 steps
        rows = _resampled_rows("mixed", 40.0, 5, 2)
        rows = rows[[0] * (size - size % 2) + [1] * (size % 2)]
        results = assert_rows_match_one_set(rows, np.ones(36))
        assert len({len(r[1]) for r in results}) == 1 + size % 2

    def test_exposures_per_setting_and_per_row(self):
        rows = _resampled_rows("schmidt:0.4", 300.0, 6, 4)
        rng = np.random.default_rng(6)
        assert_rows_match_one_set(rows, rng.uniform(0.1, 10.0, 36))
        assert_rows_match_one_set(rows, rng.uniform(0.1, 10.0, (4, 36)))

    @pytest.mark.parametrize("budget", [0, 1, 5, 110, 180])
    def test_small_iteration_budget(self, monkeypatch, budget):
        # these schmidt:0.2 rows certify after 4 to 67 passes: at 5 passes
        # one has and the others have not, and at 110 and 180 all have
        monkeypatch.setattr(tg, "MAX_ITERATIONS", budget)
        rows = _resampled_rows("schmidt:0.2", 1e6, 5, 10)
        results = assert_rows_match_one_set(rows, np.ones(36))
        converged = sum(gap < tg.CERT_TOL for _, _, gap in results)
        assert converged == {5: 1, 110: 10, 180: 10}.get(budget, 0)

    def test_one_row_and_none(self):
        rows = _resampled_rows("sigma", 2000.0, 1, 1)
        assert_rows_match_one_set(rows, np.ones(36))
        assert tg._mle_batch(np.empty((0, 36)), np.ones(36)) == []

    @tier1_examples(25)
    @given(rows=st.lists(st.lists(_SPARSE_COUNT, min_size=36, max_size=36)
                         .filter(any), min_size=1, max_size=5),
           exposures=st.lists(st.floats(1e-3, 1e3), min_size=36,
                              max_size=36))
    def test_rows_match_one_set_property(self, rows, exposures):
        assert_rows_match_one_set(np.array(rows, dtype=float),
                                  np.array(exposures))


def _simplex(v):
    """The point of the probability simplex nearest to the vector ``v``,
    found by sorting: with s_k the sum of the k largest entries, the
    threshold theta, the largest (s_k - 1) / k, is taken from every entry,
    and negatives clip to 0. That is the (s_k - 1) / k of the largest k
    whose k-th largest entry exceeds it, as the sequence rises while the
    next entry exceeds it and falls after; taking the largest, as
    `tg._project` does, keeps the bits of a tie between neighbours."""
    u = np.sort(v)[::-1]
    thresholds = (np.cumsum(u) - 1.0) / np.arange(1.0, len(u) + 1.0)
    return np.maximum(v - thresholds.max(), 0.0)


def _hermitian_basis():
    """An orthonormal basis of the 4 x 4 Hermitian matrices under
    Tr(A B): the diagonal units, then for each entry above the diagonal a
    symmetric and an antisymmetric pair, each scaled by 1 / sqrt(2)."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    basis = [units[5 * a] for a in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            e = units[4 * a + b]
            basis += [(e + e.T) / np.sqrt(2), 1j * (e.T - e) / np.sqrt(2)]
    return np.array(basis)


_BASIS = _hermitian_basis()
# Tr(Pi_j B_k) for each setting j in the MLE's order and basis matrix B_k
_DESIGN = np.array([[np.trace(tg.setting_projector(a, b) @ m).real
                     for m in _BASIS] for a, b in sorted(tg.SETTINGS)])


def reference_start(counts, expected):
    """The start of `reference_mle`, where it is more likely than I/4, built
    without the library's inversion: the Hermitian matrix whose
    probabilities fit the frequencies n_j / e_j best in least squares, by
    ``np.linalg.lstsq`` over its coordinates in `_BASIS`, with its
    eigenvalues projected by `_simplex`. Returns the state and whether no
    eigenvalue clipped to 0."""
    x = np.linalg.lstsq(_DESIGN, counts / expected, rcond=None)[0]
    lam, vecs = np.linalg.eigh(np.tensordot(x, _BASIS, axes=1))
    weights = _simplex(lam)
    return (vecs * weights) @ vecs.conj().T, bool(weights.all())


@contextlib.contextmanager
def reference_started():
    """Within it the library starts each row at `reference_start`'s state,
    not at its own inversion, whose bits the least-squares solve does not
    share, so that the library and `reference_mle` step from one state."""
    def inversions(counts, expected):
        starts = [reference_start(n, e) for n, e in zip(counts, expected)]
        return (np.array([rho for rho, _ in starts]),
                np.array([full for _, full in starts]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tg, "_linear_inversion", inversions)
        yield


def reference_mle(counts, exposures, gain_tol=None):
    """Test-only copy of the projected-gradient loop on one row, one step
    at a time, from `reference_start`'s state where its log-likelihood
    exceeds that of I/4 and from I/4 otherwise: from the gradient G, the
    candidate z = Proj(rho + alpha G) with its eigenvalues projected by
    `_simplex`; taken when its gain is at least
    <G, z - rho> - ||z - rho||^2 / (2 alpha), in the form that
    `tg._step` tests, which grows alpha by 1.25 and else halves it. A gain
    is the change of the log-likelihood summed from the probability
    differences, and the log-likelihood is the start value plus the gains.

    It stops as the library does: at the start or at an iterate reached by
    a gain below ``tg.CERT_TOL`` whose certified gap is below it, when an
    accepted step does not gain, or after ``tg.MAX_ITERATIONS`` passes. An
    iterate that is `reference_start`'s state or was reached by a step,
    with a projection that clipped no eigenvalue to 0, and whose linear gap
    (`tg._gaps` at x = 0) is not below ``tg.CERT_TOL``, also takes the gap
    at its `tg._dual_point`, and its gap is the smaller of the two.
    Given ``gain_tol``, it does not stop on the certificate but after the
    first accepted step that gains less than ``gain_tol``. Takes one row of
    counts and exposures in the MLE's setting order and returns the state,
    log-likelihood, history, converged flag, accepted steps and the
    certified gap of the last iterate.
    """
    counts = np.asarray(counts, dtype=float)
    exposures = np.asarray(exposures, dtype=float)
    n_hat = 4.0 * float(np.mean(counts / exposures))
    expected = n_hat * exposures
    h_op = tg._projector_sums(expected[None])[0]
    rho, interior = reference_start(counts, expected)
    p = tg._probs(rho)
    ll = float(tg._loglik(counts, expected, p))
    mixed_p = tg._probs(tg._IDENTITY / 4.0)
    mixed_ll = float(tg._loglik(counts, expected, mixed_p))
    if not ll > mixed_ll:
        rho, p, ll, interior = tg._IDENTITY / 4.0, mixed_p, mixed_ll, False
    history = [ll]
    alpha = 1.0 / max(counts.sum(), 1.0)
    check = True

    def gradient():
        return tg._projector_sums((counts / p)[None])[0] - h_op

    def gap(g):
        at = (g[None], rho[None], counts[None], p[None], expected[None])
        linear = float(tg._gaps(*at, 0.0)[0])
        if not (interior and linear >= tg.CERT_TOL):
            return linear
        return min(linear, float(tg._gaps(*at, tg._dual_point(*at[:4]))[0]))

    for _ in range(tg.MAX_ITERATIONS):
        g = gradient()
        if gain_tol is None and check and gap(g) < tg.CERT_TOL:
            break
        lam, vecs = np.linalg.eigh(rho + alpha * g)
        weights = _simplex(lam)
        z = (vecs * weights) @ vecs.conj().T
        z_p = tg._probs(z)
        gain = float(_gains(counts, expected, p, z_p))
        x = (z_p - p) / p
        d = z - rho
        accepted = bool((counts * (np.log1p(x) - x)).sum()
                        >= -tg._inner(d[None], d[None])[0] / (2.0 * alpha))
        alpha *= 1.25 if accepted else 0.5
        if accepted and not gain > 0:
            break
        check = accepted and gain < tg.CERT_TOL
        if accepted:
            rho, p, ll = z, z_p, ll + gain
            interior = bool(weights.all())
            history.append(ll)
            if gain_tol is not None and gain < gain_tol:
                break
    last = gap(gradient())
    return (tg._finish(rho), ll, history, last < tg.CERT_TOL,
            len(history) - 1, last)


def assert_match_reference(counts, exposures):
    """`mle_reconstruct` on each row, and every row of one `_mle_batch`,
    started where `reference_mle` starts, equal `reference_mle` in every
    field. Returns the references."""
    exposures = np.broadcast_to(exposures, np.shape(counts))
    refs = [reference_mle(row, e) for row, e in zip(counts, exposures)]
    with reference_started():
        ones = [tg.mle_reconstruct([
            tg.CountRecord(a, b, int(c), float(e)) for (a, b), c, e
            in zip(sorted(tg.SETTINGS), row, row_exposures)])
            for row, row_exposures in zip(counts, exposures)]
        results = tg._mle_batch(counts, exposures)
    for one, ref in zip(ones, refs):
        assert np.array_equal(one.rho_hat.matrix, ref[0])
        assert (one.log_likelihood, one.log_likelihood_history,
                one.converged, one.iterations, one.certified_gap) == ref[1:]
    for (rho, history, gap), ref in zip(results, refs):
        assert np.array_equal(rho, ref[0])
        assert (history, gap < tg.CERT_TOL, gap) == (ref[2], ref[3], ref[5])
        assert (history[-1], len(history) - 1) == (ref[1], ref[4])
    return refs


_EPS = np.finfo(float).eps


def _at_returned_state(state, n, seed):
    """The counts of one simulated data set in the MLE's setting order, its
    `mle_reconstruct`, and at the returned state the state, the expected
    counts, the probabilities and the log-likelihood's gradient."""
    counts = _point_rows([(state, n, seed)])[0]
    rec = tg.mle_reconstruct([tg.CountRecord(a, b, int(c)) for (a, b), c
                              in zip(sorted(tg.SETTINGS), counts)])
    rho = rec.rho_hat.matrix
    expected = np.full(36, 4.0 * counts.mean())
    p = tg._probs(rho)
    g = tg._projector_sums((counts / p)[None])[0] - tg._projector_sums(
        expected[None])[0]
    return counts, rec, rho, expected, p, g


def _dual_y(g, rho, counts, p):
    """The dual point y = n / p + delta of `tg._dual_point` at one iterate,
    0 where n_j = 0, and x = delta p / n."""
    x = tg._dual_point(g[None], rho[None], counts[None], p[None])[0]
    return np.where(counts > 0, counts / p * (1.0 + x), 0.0), x


def _least_norm_x(g, rho, counts, p):
    """x = delta p / n at one iterate, 0 where n_j = 0, for the
    p_j^2 / n_j-weighted least-norm delta with sum_j delta_j Pi_j =
    Tr(G rho) I - G over the settings with counts, by `lstsq` on the
    16 x 36 system in the Hermitian coordinates, with none of
    `tg._dual_point`'s fallbacks: delta_j = sqrt(w_j) u_j, w_j = n_j / p_j^2,
    for the least-norm u."""
    seen = counts > 0
    root_w = np.sqrt(counts[seen]) / p[seen]
    target = tg._coords(float(tg._inner(g[None], rho[None])[0])
                        * tg._IDENTITY - g)
    u = np.linalg.lstsq(tg._coords(tg._MLE_PROJECTORS[seen]).T * root_w,
                        target, rcond=None)[0]
    x = np.zeros(36)
    x[seen] = root_w * u * p[seen] / counts[seen]
    return x


def _upper(y, counts, expected):
    """U(y) of `tg._gaps`, the bound on every state's log-likelihood,
    from its definition, with the terms n_j log e_j that `tg._loglik` keeps:
    sum_{n>0} n_j [log(n_j e_j / y_j) - 1]
    + lambda_max(sum_j (y_j - e_j) Pi_j)."""
    seen = counts > 0
    m = tg._projector_sums((y - expected)[None])[0]
    return ((counts[seen] * (np.log(counts[seen] * expected[seen] / y[seen])
                             - 1.0)).sum() + np.linalg.eigvalsh(m)[-1])


def _exact_trace(mpmath, m):
    return mpmath.re(sum(m[k, k] for k in range(4)))


def _exact_gradient(mpmath, rho, counts, expected):
    """``rho`` and the log-likelihood's gradient at it as 50-digit mpmath
    matrices, and its probabilities, floored at 1e-12 as `tg._probs` does,
    recomputed from the same floats; call within ``mpmath.workdps(50)``."""
    exact_rho = mpmath.matrix(rho.tolist())
    exact_g = mpmath.matrix(4, 4)
    exact_p = []
    for n_j, e_j, pi in zip(counts, expected, tg._MLE_PROJECTORS):
        pi = mpmath.matrix(pi.tolist())
        exact_p.append(max(_exact_trace(mpmath, exact_rho * pi),
                           mpmath.mpf(1e-12)))
        exact_g += (float(n_j) / exact_p[-1] - float(e_j)) * pi
    return exact_rho, exact_g, exact_p


def _point_rows(cases):
    """Counts of each simulated (state, counts per setting, seed) data set,
    in the MLE's setting order."""
    return np.array([tg._mle_arrays(tg.sample_counts(
        _named_density(state), n, seed=seed))[0]
        for state, n, seed in cases])


# counts that give I/4 back, where the gradient vanishes
UNIFORM_ROWS = np.array([[1.0], [100.0], [12345.0]]) * np.ones(36)


def _diluted_gain(eps, rho, counts):
    """The gain of the diluted RrhoR step I + eps R from ``rho``, at equal
    exposures, the candidate (I + eps R) rho (I + eps R)^H at unit
    trace."""
    expected = np.full(36, 4.0 * counts.mean())
    p = tg._probs(rho)
    step = tg._IDENTITY + eps * tg._projector_sums(
        (counts / p)[None])[0] / counts.sum()
    cand = step @ rho @ step.conj().T
    return float(_gains(counts, expected, p,
                        tg._probs(cand / cand.trace().real)))


class TestDilutionLadder:
    """The projected gradient's three stops, on the certificate, on an
    accepted step that does not gain and on the budget, against
    `reference_mle`, which takes one step at a time; and at a stop, the
    diluted steps I + eps R of the rule of Rehacek, Hradil, Knill & Lvovsky
    (PRA 75, 042108 (2007)), which gain nothing there."""

    def test_stalls_uncertified(self):
        # an accepted step that does not gain stops the run: at 3e10 counts
        # per setting the gap of this draw stays above CERT_TOL
        rows = _point_rows([("schmidt:0.4", 3e10, 100)] * 2)
        for ref in assert_match_reference(rows, np.ones(36)):
            assert not ref[3] and ref[5] > tg.CERT_TOL

    def test_rows_stopping_in_one_iteration(self, monkeypatch):
        # the uniform rows stop together at the start, certified at the
        # maximum, where the gradient vanishes
        rows = np.concatenate(
            [UNIFORM_ROWS, _point_rows([("sigma", 2000.0, 21)] * 2)])
        refs = assert_match_reference(rows, np.ones(36))
        assert [ref[4] for ref in refs[:3]] == [0, 0, 0]
        assert all(ref[3] and ref[5] < tg.CERT_TOL for ref in refs[:3])
        # one stack whose rows leave on each stop in the same call: a
        # uniform row certifies at the start, schmidt:0.4 at 3e10 counts
        # (seed 100) stalls after 8 passes, and schmidt:0.2 (seed 21),
        # which certifies after 72, runs out of a budget of 50
        monkeypatch.setattr(tg, "MAX_ITERATIONS", 50)
        rows = np.concatenate([UNIFORM_ROWS[:1], _point_rows(
            [("schmidt:0.4", 3e10, 100), ("schmidt:0.2", 1e6, 21)])])
        certified, stalled, cut = assert_match_reference(rows, np.ones(36))
        assert certified[3] and certified[4] == 0
        for row, ref in zip(rows[1:], (stalled, cut)):
            _, steps = _stepped([tg.CountRecord(a, b, int(c)) for
                                 (a, b), c in zip(sorted(tg.SETTINGS), row)])
            assert not ref[3] and ref[5] > tg.CERT_TOL
            assert _stalled(steps[-1]) == (ref is stalled)
            assert (len(steps) == tg.MAX_ITERATIONS) == (ref is cut)

    def test_no_diluted_step_gains_at_the_stop(self):
        # where the loop stops, none of the steps I + eps R, eps = 2^-1 ...
        # 2^-46, gains more than 36 float spacings of the log-likelihood,
        # the rounding a sum of 36 terms of its size carries, so the
        # reconstruction stops where they would have
        rows = np.concatenate(
            [_point_rows([("schmidt:0.4", 3e10, 100), ("phi+", 1e12, 7)]),
             UNIFORM_ROWS])
        for row in rows:
            rec, steps = _stepped([tg.CountRecord(a, b, int(c)) for
                                   (a, b), c in zip(sorted(tg.SETTINGS),
                                                    row)])
            # the drawn rows stop on an accepted step that does not gain,
            # and the uniform ones on the certificate before any step
            assert _stalled(steps[-1]) if steps else rec.converged
            least = 36.0 * np.spacing(abs(rec.log_likelihood))
            for k in range(1, 47):
                assert _diluted_gain(0.5 ** k, rec.rho_hat.matrix,
                                     row) <= least

    @tier1_examples(25)
    @given(rows=st.lists(st.lists(_SPARSE_COUNT, min_size=36, max_size=36)
                         .filter(any), min_size=1, max_size=5),
           exposures=st.lists(st.floats(1e-3, 1e3), min_size=36,
                              max_size=36))
    def test_matches_reference_property(self, rows, exposures):
        assert_match_reference(np.array(rows, dtype=float),
                               np.array(exposures))


class TestStart:
    """The projected linear inversion each reconstruction starts from where
    it is more likely than I/4."""

    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_exact_probabilities_invert_to_the_state(self, seed, rank):
        # from each state's exact probabilities, rounded once, both the
        # library's inversion and the least-squares one give it back
        rho = random_density(np.random.default_rng(seed), rank=rank).matrix
        exact = np.einsum("ab,jba->j", rho.astype(np.clongdouble),
                          _LONG_PROJECTORS).real.astype(float)
        states, _ = tg._linear_inversion(exact[None], np.ones((1, 36)))
        assert np.abs(states[0] - rho).max() <= 1e-12
        assert np.abs(reference_start(exact, np.ones(36))[0]
                      - rho).max() <= 1e-12

    @tier1_examples(25)
    @given(rows=st.lists(st.lists(_SPARSE_COUNT, min_size=36, max_size=36)
                         .filter(any), min_size=1, max_size=5),
           exposures=st.one_of(
               st.just([1.0] * 36),
               st.lists(st.floats(1e-3, 1e3), min_size=36, max_size=36)))
    def test_start_is_a_state_no_less_likely_than_mixed(self, rows,
                                                        exposures):
        counts, exposures = np.array(rows, dtype=float), np.array(exposures)
        expected = (4.0 * np.mean(counts / exposures, axis=1, keepdims=True)
                    * exposures)
        states, _ = tg._linear_inversion(counts, expected)
        check_density(states)
        inverted = tg._loglik(counts, expected, tg._probs_stack(states))
        mixed = tg._loglik(counts, expected, tg._probs(tg._IDENTITY / 4.0))
        # with no pass to take, each row returns its start
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tg, "MAX_ITERATIONS", 0)
            results = tg._mle_batch(counts, exposures)
        for (rho, history, *_), a, b in zip(results, inverted, mixed):
            assert history == [max(a, b)]
            check_density(rho)


class TestInterchange:
    def test_csv_round_trip(self, tmp_path):
        records = [dataclasses.replace(r, exposure=1.5)
                   for r in tg.sample_counts(SIGMA, 4000 * 1.5, seed=6)]
        path = tmp_path / "counts.csv"
        tg.counts_to_csv(records, path)
        back = tg.counts_from_csv(path)
        assert back == records

    def test_csv_round_trip_of_numpy_exposure(self, tmp_path):
        # np.float64(1.5) was kept and written as "np.float64(1.5)", which
        # the reader refused as no number
        records = [tg.CountRecord(a, b, 5, np.float64(1.5))
                   for a, b in tg.SETTINGS]
        path = tmp_path / "counts.csv"
        tg.counts_to_csv(records, path)
        assert "H,H,5,1.5\n" in path.read_text()
        back = tg.counts_from_csv(path)
        assert back == records
        assert all(type(r.exposure) is float for r in records + back)

    def test_csv_round_trip_of_integral_float_counts(self, tmp_path):
        # a count of 5.0 was written as "5.0", which the reader refused
        records = [tg.CountRecord(a, b, 5.0) for a, b in tg.SETTINGS]
        path = tmp_path / "counts.csv"
        tg.counts_to_csv(records, path)
        assert "H,H,5,1.0\n" in path.read_text()
        assert tg.counts_from_csv(path) == records

    # int() raised its own error, naming no line
    @pytest.mark.parametrize("count", ["5.0", "2.5", "nan", "five", ""])
    def test_csv_count_not_an_integer_rejected(self, tmp_path, count):
        path = tmp_path / "bad.csv"
        path.write_text("setting_a,setting_b,count,exposure\n"
                        f"H,H,3,1.0\nH,V,{count},1.0\n")
        with pytest.raises(ValueError, match="line 3: count must be a "
                           "non-negative integer"):
            tg.counts_from_csv(path)

    # float() raised its own error, naming no line
    @pytest.mark.parametrize("exposure", ["abc", ""])
    def test_csv_exposure_not_a_number_rejected(self, tmp_path, exposure):
        path = tmp_path / "bad.csv"
        path.write_text("setting_a,setting_b,count,exposure\n"
                        f"H,H,3,1.0\nH,V,5,{exposure}\n")
        with pytest.raises(ValueError, match="line 3: exposure must be a "
                           "number"):
            tg.counts_from_csv(path)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            tg.counts_from_csv(path)

    # a short row failed with a TypeError from float(None), and an extra
    # field was dropped without a word
    @pytest.mark.parametrize("row", ["H,V,5", "H,V,5,1.0,7"])
    def test_csv_row_with_wrong_field_count_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("setting_a,setting_b,count,exposure\n"
                        f"H,H,3,1.0\n{row}\n")
        with pytest.raises(ValueError, match="line 3"):
            tg.counts_from_csv(path)

    # CountRecord's own errors named no line
    @pytest.mark.parametrize("row, problem", [
        ("h,H,5,1.0", "unknown setting \\(h, H\\)"),
        ("H,H,5,nan", "exposure must be finite and positive, got nan"),
        ("H,H,-5,1.0", "count must be a non-negative integer, got -5")],
        ids=["setting", "exposure", "count"])
    def test_csv_record_rejected_with_its_line(self, tmp_path, row, problem):
        path = tmp_path / "bad.csv"
        path.write_text("setting_a,setting_b,count,exposure\n"
                        f"H,V,3,1.0\n{row}\n")
        with pytest.raises(ValueError,
                           match=f"^counts CSV line 3: {problem}$"):
            tg.counts_from_csv(path)

    def test_matrix_json_round_trip_bit_exact(self, tmp_path):
        records = tg.sample_counts(SIGMA, 4000, seed=6)
        rec = tg.mle_reconstruct(records)
        path = tmp_path / "rho.json"
        matrix_to_json(rec.rho_hat, path)
        back = tg.matrix_from_json(path)
        assert back.labels == rec.rho_hat.labels
        assert np.array_equal(back.matrix, rec.rho_hat.matrix)

    def test_round_trip_preserves_metrics(self, tmp_path):
        path = tmp_path / "sigma.json"
        matrix_to_json(SIGMA, path)
        back = tg.matrix_from_json(path)
        assert abs(metrics.concurrence(back) - metrics.concurrence(SIGMA)) < 1e-12
        assert abs(metrics.witness_expectation(back)
                   - metrics.witness_expectation(SIGMA)) < 1e-12


class TestCountRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            tg.CountRecord("Q", "H", 5)
        with pytest.raises(ValueError):
            tg.CountRecord("H", "H", -1)
        with pytest.raises(ValueError):
            tg.CountRecord("H", "H", 5, exposure=0.0)

    @pytest.mark.parametrize("exposure", [
        float("nan"), float("inf"),
        # too large for a float: math.isfinite raised OverflowError
        pytest.param(10**400, id="10**400"), True, False])
    def test_non_finite_exposure_rejected(self, exposure):
        # a NaN exposure would reach the MLE and come back as a converged
        # reconstruction of plausible fidelity; True was kept as it was
        problem = (f"exposure must be a number, got {exposure}$"
                   if isinstance(exposure, bool) else "finite and positive")
        with pytest.raises(ValueError, match=problem):
            tg.CountRecord("H", "H", 5, exposure=exposure)

    # a NaN or infinite count made the MLE return I/4 as converged after
    # 0 iterations, with a NaN log-likelihood
    @pytest.mark.parametrize("count", [
        float("nan"), float("inf"), float("-inf"), 2.5, -1, True, False,
        # too large for a float: math.isfinite raised OverflowError
        pytest.param(10**400, id="10**400")])
    def test_count_not_a_non_negative_integer_rejected(self, count):
        with pytest.raises(ValueError, match="non-negative integer"):
            tg.CountRecord("H", "H", count)

    # formatting the count raised Python's 4300-digit limit error instead
    @pytest.mark.parametrize("count, shown", [
        pytest.param(10**5000, "an int of 16610 bits", id="10**5000"),
        pytest.param(-10**5000, "a negative int of 16610 bits",
                     id="-10**5000")])
    def test_huge_count_rejected_by_size(self, count, shown):
        with pytest.raises(ValueError, match="count must be a non-negative "
                           f"integer, got {shown}$"):
            tg.CountRecord("H", "H", count)

    def test_integral_float_count_accepted(self):
        assert tg.CountRecord("H", "H", 5.0) == tg.CountRecord("H", "H", 5)
