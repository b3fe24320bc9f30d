"""Simulated two-photon state tomography.

36 polarization settings (all pairs drawn from H, V, D, A, L, R), Poisson
count statistics, maximum-likelihood reconstruction by projected gradient
ascent, and Monte Carlo error bars from Poisson resampling.

A reconstruction starts at the least-squares linear inversion of the
frequencies projected onto the states (Smolin, Gambetta & Smith, PRL 108,
070502 (2012)), one matmul and one `eigh` per data set
(`_linear_inversion`), where that is more likely than I/4, and at I/4
otherwise. Each step takes the iterate rho to z = Proj(rho + alpha G),
along the log-likelihood's gradient G, with its eigenvalues projected onto
the probability simplex (Shang, Zhang & Ng, PRA 95, 062336 (2017)): one
rule for every exposure, and every iterate a state by construction
(`_step`).

A reconstruction stops on a certificate, not on a small step: the
log-likelihood is concave in the state, and its Fenchel dual bounds how far
the maximum lies above the iterate rho at any dual point y (`_gaps`). At
y = n / p that gap is the linear gap lambda_max(G) - Tr(G rho), from the
gradient G at rho (Glancy, Knill & Girard, NJP 14, 095017 (2012)), first
order in G, while the shortfall is second order; so at an iterate of full
rank that the linear gap does not certify the loop also takes the gap at a
second-order dual point (`_dual_point`), and the smaller of the two counts.
The iteration stops at the first iterate whose gap is below ``CERT_TOL``
and reports the gap of the state it returns as ``certified_gap``.

One loop, `_mle_batch`, runs every reconstruction on a stack of data sets:
`mle_reconstruct` stacks the observed counts as row 0 and their Monte Carlo
resamples, if any, as the rows after it, and runs them as one stack. The
loop's two contractions over the 36 settings, the Born probabilities of each
state (`_probs_stack`) and the projector sums weighted by each row
(`_projector_sums`), are numpy matmuls with one state per matrix, which
numpy hands to BLAS a state at a time, as `eigh` takes each matrix alone.
A row's results therefore have the same bits in any stack, so the point
estimate does not depend on the resamples. Every stochastic operation
takes an explicit integer seed, and Monte Carlo resamples draw their
streams from ``numpy.random.SeedSequence.spawn``, so the results are
reproducible for a seed.
"""

from __future__ import annotations

import contextlib
import csv
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import metrics
from .hom import (_check_positive, _finite, _is_integer, _is_number,
                  _shown)
from .qmath import DensityMatrix, check_density

PROJECTOR_LETTERS = ("H", "V", "D", "A", "L", "R")

_s = 1 / np.sqrt(2)
_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([_s, _s], dtype=complex),
    "A": np.array([_s, -_s], dtype=complex),
    "L": np.array([_s, 1j * _s], dtype=complex),
    "R": np.array([_s, -1j * _s], dtype=complex),
}

# all 36 settings in a fixed canonical order
SETTINGS: tuple[tuple[str, str], ...] = tuple(
    (a, b) for a in PROJECTOR_LETTERS for b in PROJECTOR_LETTERS
)

MAX_ITERATIONS = 100_000
# the certified log-likelihood gap at which a reconstruction stops; a 1 sigma
# likelihood-ratio interval spans a log-likelihood drop of 0.5
CERT_TOL = 0.1
# the mean count per setting above which no reconstruction can certify:
# the rounding bound of the gap at every dual point (`_gaps`) is at least
# eps sum_j e_j, 36 eps n at unit exposures, which alone exceeds CERT_TOL
# above about 1.25e13
CERTIFIABLE_MEAN_COUNT = CERT_TOL / (36 * np.finfo(float).eps)
# the largest mean count sample_counts draws: numpy's Poisson sampler refuses
# means above about 9.2e18, and with every Born probability at most 1 the
# mean counts stay under n_per_setting
MAX_MEAN_COUNT = 1e18
# the largest count mle_reconstruct resamples: numpy's Poisson sampler takes
# means up to int64 max - 10 sqrt(int64 max), about 9.2234e18, so 9.2e18
# draws and 9.3e18 raises; MAX_MEAN_COUNT is no bound here, as a count
# drawn at that mean can exceed it
MAX_RESAMPLED_COUNT = 9.2e18
# the most resamples mle_reconstruct runs: its one stack takes about 9 KB
# and 0.1 ms a resample, so a run stays near 0.9 GB and 11 s
MAX_RESAMPLES = 100_000


def _check_setting(setting_a: str, setting_b: str) -> None:
    if setting_a not in PROJECTOR_LETTERS or \
            setting_b not in PROJECTOR_LETTERS:
        raise ValueError(f"unknown setting ({setting_a}, {setting_b})")


@dataclass(frozen=True)
class CountRecord:
    setting_a: str
    setting_b: str
    count: int
    exposure: float = 1.0

    def __post_init__(self):
        _check_setting(self.setting_a, self.setting_b)
        # NaN fails every comparison, so `count < 0` alone let it through
        if not (_is_number(self.count) and _finite(self.count)
                and self.count >= 0 and self.count == int(self.count)):
            raise ValueError("count must be a non-negative integer, got "
                             f"{_shown(self.count)}")
        _check_positive("exposure", self.exposure)
        # a float, so that the counts CSV writes it as one
        object.__setattr__(self, "exposure", float(self.exposure))


@dataclass(frozen=True)
class MonteCarloSummary:
    """Sample (mean, std) with ddof=1 of each statistic over the resamples,
    how many resample reconstructions did not converge, and the largest
    certified gap among them."""

    statistics: dict[str, tuple[float, float]]
    nonconverged: int
    max_certified_gap: float


@dataclass
class TomographyRecord:
    records: list[CountRecord]
    rho_hat: DensityMatrix
    # the start's log-likelihood, then that of each accepted step
    log_likelihood_history: list[float]
    # the certified gap of the returned state, an upper bound on how far its
    # log-likelihood is below the maximum (`_gaps`)
    certified_gap: float
    # the Monte Carlo error bars, None when no resamples were asked for
    monte_carlo: MonteCarloSummary | None = None

    @property
    def log_likelihood(self) -> float:
        return self.log_likelihood_history[-1]

    @property
    def iterations(self) -> int:
        return len(self.log_likelihood_history) - 1

    @property
    def converged(self) -> bool:
        return self.certified_gap < CERT_TOL


def setting_projector(setting_a: str, setting_b: str) -> np.ndarray:
    _check_setting(setting_a, setting_b)
    ka, kb = _KETS[setting_a], _KETS[setting_b]
    k = np.kron(ka, kb)
    return np.outer(k, np.conj(k))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# built once: every probability and every MLE iteration reads these
_PROJECTORS = {s: _frozen(setting_projector(*s)) for s in SETTINGS}
# in SETTINGS order, the order in which sample_counts draws
_SETTING_PROJECTORS = _frozen(np.stack([_PROJECTORS[s] for s in SETTINGS]))
# in the (setting_a, setting_b) sort order in which the MLE takes its records
_MLE_PROJECTORS = _frozen(np.stack([_PROJECTORS[s] for s in sorted(SETTINGS)]))
_IDENTITY = _frozen(np.eye(4, dtype=complex))
# k = 1 ... 4, the sizes of the leading sums of the simplex projection
_RANKS = _frozen(np.arange(1.0, 5.0))
# the MLE's two contractions as matmul operands, one column or row per
# setting: Tr(rho Pi) = sum_ab rho_ab Pi_ba = vec(rho) . vec(Pi^T), so the
# 36 probabilities are vec(rho) times the (16, 36) table of vec(Pi_j^T), and
# a row of 36 weights times the (36, 16) table of vec(Pi_j) is the weighted
# projector sum
_PROB_TABLE = _frozen(np.ascontiguousarray(
    _MLE_PROJECTORS.transpose(0, 2, 1).reshape(36, 16).T))
_SUM_TABLE = _frozen(_MLE_PROJECTORS.reshape(36, 16))
# the least-squares linear inversion of the 36 frequencies: one qubit's six
# projectors sum to 3 I and map each Pauli matrix to itself under
# X -> sum_a Tr(Pi_a X) Pi_a, so sum_a Tr(Pi_a X) (Pi_a - I/3) = X, and the
# dual of setting (a, b) is D_ab = (|a><a| - I/3) x (|b><b| - I/3). A row of
# 36 frequencies times this (36, 16) table of vec(D_j), one row per setting
# in the MLE's order as in `_SUM_TABLE`, is the inversion
_DUALS = {a: np.outer(k, k.conj()) - np.eye(2) / 3.0
          for a, k in _KETS.items()}
_INVERSION_TABLE = _frozen(np.stack(
    [np.kron(_DUALS[a], _DUALS[b]) for a, b in sorted(SETTINGS)]
).reshape(36, 16))
# the rows and the columns of the six entries above the diagonal
_UPPER = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])


def _coords(m: np.ndarray) -> np.ndarray:
    """The coordinates of each Hermitian matrix of an (..., 4, 4) stack in
    an orthonormal real basis of the Hermitian matrices under Tr(A B), as
    (..., 16): the four diagonal entries, then sqrt(2) times the real and
    the imaginary parts of the six entries above the diagonal. The basis is
    orthonormal, so Tr(A B) is the dot product of the coordinates."""
    upper = np.sqrt(2.0) * m[..., _UPPER[0], _UPPER[1]]
    return np.concatenate([np.diagonal(m, axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


# the dual point's operands (`_dual_point`): the coordinates a_j of
# the projectors, one row per setting, the outer products a_j a_j^T of
# each, flattened, and the coordinates of I
_COORD_TABLE = _frozen(_coords(_MLE_PROJECTORS))
_NORMAL_TABLE = _frozen((_COORD_TABLE[:, :, None]
                         * _COORD_TABLE[:, None, :]).reshape(36, 256))
_IDENTITY_COORDS = _frozen(_coords(_IDENTITY))


def _born(rho, projectors: np.ndarray) -> np.ndarray:
    """Tr[rho Pi] for a projector, or for each of a stack of them. A plain
    array is checked as `DensityMatrix` checks its matrix."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if m.shape != (4, 4):
        raise ValueError("born_probability requires a two-qubit state")
    if not isinstance(rho, DensityMatrix):
        check_density(m)
    return (m @ projectors).trace(axis1=-2, axis2=-1).real


def born_probability(rho, setting_a: str, setting_b: str) -> float:
    """Tr[rho (Pi_a x Pi_b)] for single-photon projectors a, b."""
    _check_setting(setting_a, setting_b)
    return float(_born(rho, _PROJECTORS[setting_a, setting_b]))


def _check_seed(use: str, seed) -> None:
    if not _is_integer(seed):
        raise ValueError(f"{use} needs an integer seed, got {seed!r}")
    if seed < 0:
        raise ValueError(
            f"{use} needs a non-negative seed, got {_shown(seed)}")


def sample_counts(rho, n_per_setting: float, seed: int) -> list[CountRecord]:
    """Poisson counts for all 36 settings at unit exposure, drawn in one call
    in ``SETTINGS`` order; deterministic given the seed, which must be a
    non-negative integer. The 36 Born probabilities are one stacked
    product, each with the bits `born_probability` gives it."""
    _check_seed("sampling", seed)
    _check_positive("n_per_setting", n_per_setting)
    if n_per_setting > MAX_MEAN_COUNT:
        raise ValueError(f"n_per_setting must be at most {MAX_MEAN_COUNT:g}, "
                         f"got {n_per_setting}")
    mus = n_per_setting * _born(rho, _SETTING_PROJECTORS)
    drawn = np.random.default_rng(seed).poisson(mus).tolist()
    return [CountRecord(a, b, n) for (a, b), n in zip(SETTINGS, drawn)]


def _require_each_setting_once(records: list[CountRecord]) -> None:
    seen = Counter((r.setting_a, r.setting_b) for r in records)
    missing = " ".join(a + b for a, b in SETTINGS if seen[a, b] == 0)
    duplicated = " ".join(a + b for a, b in SETTINGS if seen[a, b] > 1)
    if missing or duplicated:
        raise ValueError("records must hold each of the 36 settings once; "
                         f"missing: {missing or 'none'}; "
                         f"duplicated: {duplicated or 'none'}")


def _mle_order(records: list[CountRecord]) -> list[int]:
    """Positions of the records in the MLE's setting order (sorted
    ``SETTINGS``); this canonical order makes a reconstruction exactly
    independent of record order."""
    return sorted(range(len(records)),
                  key=lambda k: (records[k].setting_a, records[k].setting_b))


def _mle_arrays(records: list[CountRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Counts and exposures in the MLE's setting order, after checking that
    the records hold each setting once and not only zero counts."""
    _require_each_setting_once(records)
    if all(r.count == 0 for r in records):
        raise ValueError("degenerate data: all counts are zero")
    ordered = [records[k] for k in _mle_order(records)]
    counts = np.array([r.count for r in ordered], dtype=float)
    exposures = np.array([r.exposure for r in ordered], dtype=float)
    return counts, exposures


def _probs_stack(stack: np.ndarray) -> np.ndarray:
    """The 36 Born probabilities of each state of an (n, 4, 4) stack in the
    MLE's setting order, floored at 1e-12, as an (n, 36) array.

    The stack is one (n, 1, 16) @ (16, 36) matmul against `_PROB_TABLE`,
    which numpy hands to BLAS one state at a time, so each row has the bits
    its state has alone, in any stack. A 2-D (n, 16) @ (16, 36) product
    would block the states together and give a row other bits."""
    rows = np.ascontiguousarray(stack).reshape(-1, 1, 16)
    return np.maximum((rows @ _PROB_TABLE)[:, 0].real, 1e-12)


def _probs(rho: np.ndarray) -> np.ndarray:
    """`_probs_stack` of one state."""
    return _probs_stack(rho[None])[0]


def _projector_sums(weights: np.ndarray) -> np.ndarray:
    """The projectors summed with each row of an (n, 36) array of weights
    in the MLE's setting order, as an (n, 4, 4) stack: one (n, 1, 36) @
    (36, 16) matmul against `_SUM_TABLE`, a row at a time in BLAS as in
    `_probs_stack`, so each sum has the bits of its row alone."""
    rows = np.asarray(weights, dtype=complex)[:, None, :]
    return (rows @ _SUM_TABLE).reshape(-1, 4, 4)


def _loglik(counts: np.ndarray, expected: np.ndarray,
            p: np.ndarray) -> np.ndarray:
    """Poisson log-likelihood over the last axis, log factorial terms
    dropped: they are constant in rho."""
    mu = np.maximum(expected * p, 1e-300)
    return (counts * np.log(mu) - mu).sum(axis=-1)


def _finish(rho: np.ndarray) -> np.ndarray:
    """Hermitian part of the last iterate, at unit trace."""
    rho = (rho + rho.conj().T) / 2.0
    rho /= rho.trace().real
    return rho


def _inner(a, b):
    """Tr(a b) of each pair of matrices of two (n, 4, 4) stacks, real part:
    the Frobenius inner product of Hermitian matrices."""
    return np.einsum("nab,nba->n", a, b).real


def _gaps(g, rho, counts, p, expected, x):
    """The certified gap of each iterate of an (n, 4, 4) stack ``rho`` at
    the dual point given by ``x``, from the log-likelihood's gradient ``g``
    at it and its (n, 36) counts, probabilities and expected counts at unit
    probability; ``x`` is an (n, 36) array from `_dual_point`, or the
    scalar 0 for the linear gap.

    The gradient at rho is G = sum_j (n_j / p_j - e_j) Pi_j. For n_j > 0
    and y_j > 0, n_j log p <= n_j log(n_j / y_j) - n_j + y_j p for every
    p >= 0, and a setting without counts needs only y_j >= 0, so every
    state's log-likelihood, less the constants n_j log e_j, is at most
    U(y) = sum_{n>0} [n_j log(n_j / y_j) - n_j]
    + lambda_max(sum_j (y_j - e_j) Pi_j), for any such y (the Fenchel dual
    of the maximization). At y_j = n_j / p_j + delta_j, with
    delta_j = n_j x_j / p_j, U less rho's log-likelihood is
    lambda_max(G + sum_j delta_j Pi_j) - Tr(G rho) - sum_j n_j log1p(x_j):
    at x = 0 the linear gap lambda_max(G) - Tr(G rho), first order in G
    (Glancy, Knill & Girard, NJP 14, 095017 (2012)), and at `_dual_point`
    second order. G is a difference of sums of size sum_j e_j, so the gap
    adds eps (sum_j e_j + sum_j |delta_j| + sum_j n_j |log1p(x_j)|) for its
    rounding: against 50-digit arithmetic the linear gap was off by at most
    0.05 eps sum_j e_j (1e9 to 1e18 counts per setting), and the gap at the
    dual point less that bound fell below the true one by at most 0.23 of
    the bound (sigma and mixed, 1e4 to 1e15). Each gap has the bits of the
    same iterate in any other stack, so a row stops where it would alone.
    """
    shifted, logs, scale = g, 0.0, expected.sum(axis=-1)
    # at x = 0 delta and the logarithms vanish: forming them, and the
    # projector sum of zeros, would nearly double the linear gap's cost
    if isinstance(x, np.ndarray):
        delta = counts * x / p
        terms = counts * np.log1p(x)
        shifted = g + _projector_sums(delta)
        logs = terms.sum(axis=-1)
        scale = (scale + np.abs(delta).sum(axis=-1)
                 + np.abs(terms).sum(axis=-1))
    return (np.linalg.eigvalsh(shifted)[:, -1] - _inner(g, rho) - logs
            + np.finfo(float).eps * scale)


def _dual_point(g, rho, counts, p):
    """The second-order dual point of `_gaps` for each iterate of an
    (n, 4, 4) stack ``rho``, from the gradient ``g`` at it and its (n, 36)
    counts and probabilities, as x_j = delta_j p_j / n_j, 0 where n_j = 0,
    in an (n, 36) array. A row is 0, the linear gap's point, where the
    solve finds its normal matrix singular or some x_j <= -1, where y_j <= 0
    and U(y) is no bound.

    delta is the p_j^2 / n_j-weighted least-norm solution of
    sum_j delta_j Pi_j = t I - G, t = Tr(G rho), over the settings with
    counts: with the projectors' coordinates a_j and the weights
    w_j = n_j / p_j^2, it is w_j a_j . l, where the normal matrix
    sum_j w_j a_j a_j^T times l is the coordinates of t I - G. As
    sum_j delta_j p_j = 0, the gap at it is second order in delta. The
    normal matrices, the solve and the products a_j . l are formed one row
    at a time, as in `_probs_stack`, so each row has its bits alone."""
    target = _inner(g, rho)[:, None] * _IDENTITY_COORDS - _coords(g)
    normal = (counts / (p * p))[:, None, :] @ _NORMAL_TABLE
    normal, rhs = normal.reshape(-1, 16, 16), target[:, :, None]
    try:
        solution = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError:
        solution = np.zeros_like(rhs)
        for k in range(len(rhs)):
            try:
                solution[k] = np.linalg.solve(normal[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
    x = np.where(counts > 0, (solution.swapaxes(-1, -2)
                              @ _COORD_TABLE.T)[:, 0] / p, 0.0)
    x[~(x > -1.0).all(axis=-1)] = 0.0
    return x


def _log_ratios(x, p, cand_p):
    """log(cand_p / p) from x = (cand_p - p) / p: log1p(x), which keeps the
    digits of a small change, but log of the ratio itself where x < -1/2,
    as 1 + x formed from x has lost the digits of a probability that falls
    by orders of magnitude (1000 log1p(x) was off by 3e-6 for a fall from
    0.04 to 6e-10)."""
    logs = np.log1p(x)
    low = x < -0.5
    if low.any():
        logs[low] = np.log(cand_p[low] / p[low])
    return logs


def _project(m):
    """The state nearest to each Hermitian matrix of an (n, 4, 4) stack in
    Frobenius norm (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)): each
    eigenvalue lambda becomes max(lambda - theta, 0), on the same
    eigenvectors. With s_k the sum of the k largest eigenvalues, theta is
    the largest (s_k - 1) / k, as that sequence rises while the next
    eigenvalue exceeds it and falls after; `eigh` returns them ascending,
    so the sums need no sort. Also returns whether each state is of full
    rank, no eigenvalue clipped to 0."""
    lam, vecs = np.linalg.eigh(m)
    theta = ((np.cumsum(lam[:, ::-1], axis=1) - 1.0) / _RANKS).max(axis=1)
    weights = np.maximum(lam - theta[:, None], 0.0)
    return ((vecs * weights[:, None, :]) @ vecs.conj().swapaxes(-1, -2),
            lam[:, 0] > theta)


def _linear_inversion(counts, expected):
    """The start of each row of an (n, 36) count array in the MLE's setting
    order, from its expected counts at unit probability: the least-squares
    linear inversion sum_j (n_j / e_j) D_j of its frequencies, one (n, 1,
    36) @ (36, 16) matmul against `_INVERSION_TABLE`, a row at a time in
    BLAS as in `_projector_sums`, projected onto the states by `_project`,
    which also returns whether each is of full rank (Smolin, Gambetta &
    Smith, PRL 108, 070502 (2012))."""
    rows = (counts / expected).astype(complex)[:, None, :]
    return _project((rows @ _INVERSION_TABLE).reshape(-1, 4, 4))


def _step(g, rho, p, counts, expected, alpha):
    """One projected-gradient step for each row of an (n, 4, 4) stack of
    iterates ``rho``, from the gradients ``g`` at them and each row's step
    size ``alpha``: the candidate z = Proj(rho + alpha G), its
    probabilities, its gain, whether it is accepted, which it is when the
    gain is at least <G, z - rho> - ||z - rho||^2 / (2 alpha), and whether
    it is of full rank.

    The gain, the log-likelihood at z less that at rho, is
    sum_j (n_j log(z_p_j / p_j) - e_j d_j) over the probability changes d_j
    (`_log_ratios`), which keeps gains far below the float spacing of the
    log-likelihood. <G, z - rho> is sum_j (n_j / p_j - e_j) d_j, so the gain
    less it is sum_j n_j (log(z_p_j / p_j) - d_j / p_j), from the same
    logarithms: the rule is tested in that form, free of the rounding of |G|
    times the iterate's float spacing that Tr(G (z - rho)) carries, 1e-4 at
    1e12 counts per setting. In exact arithmetic the bound is at least
    ||z - rho||^2 / (2 alpha), so an accepted step that does not gain has
    reached the maximum.
    """
    z, full = _project(rho + alpha[:, None, None] * g)
    z_p = _probs_stack(z)
    dp = z_p - p
    x = dp / p
    logs = _log_ratios(x, p, z_p)
    d = z - rho
    accepted = ((counts * (logs - x)).sum(axis=-1)
                >= -_inner(d, d) / (2.0 * alpha))
    gain = (counts * logs - expected * dp).sum(axis=-1)
    return z, z_p, gain, accepted, full


# each statistic of the resamples' (B, 4, 4) state stack rho, one value per
# resample, against the point estimate point_rho where it compares the two;
# fidelity and witness are taken against |Phi+>. Also the key order of the
# monte_carlo block of a tomo report
_STATISTICS = {
    "fidelity":
        lambda rho, point_rho: metrics.fidelity_to_pure(rho, metrics.PHI_PLUS),
    "witness": lambda rho, point_rho: metrics.witness_expectation(rho),
    "concurrence": lambda rho, point_rho: metrics.concurrence(rho),
    "entropy": lambda rho, point_rho: metrics.von_neumann_entropy(rho),
    "trace_distance":
        lambda rho, point_rho: metrics.trace_distance(rho, point_rho),
    "uhlmann_fidelity":
        lambda rho, point_rho: metrics.uhlmann_fidelity(rho, point_rho),
}


def mle_reconstruct(records: list[CountRecord], n_resamples: int = 0, *,
                    seed: int | None = None) -> TomographyRecord:
    """Maximum-likelihood density matrix from the 36 count records, with
    Monte Carlo error bars over ``n_resamples`` Poisson resamples.

    Independent Poisson likelihood per setting with the overall rate
    estimated as 4 x mean(count / exposure) (the 36 projectors sum to 9 I,
    so the mean success probability per setting is 1/4). That rate is only
    right for the full set, so the records must hold each of the 36
    ``SETTINGS`` exactly once; any other set raises ValueError. The rate
    stays fixed at that estimate; it is not fitted with the state, and at
    equal exposures the two give the same state.

    The maximizer is found by projected gradient ascent (`_step`), at equal
    and unequal exposures alike, so iterates stay physical with unit trace.
    It starts at the projected least-squares linear inversion of the
    frequencies (`_linear_inversion`) where that is more likely than I/4,
    and at I/4 otherwise; the first entry of the log-likelihood history is
    the start's. A step's gain is summed from the changes of the
    probabilities, which resolves gains far below the float spacing of the
    log-likelihood, and the log-likelihood reported is the start's plus the
    gains of the accepted steps, so its history rises with every step.

    The iteration stops at the first iterate whose certified gap, an upper
    bound on how far its log-likelihood lies below the maximum, is below
    ``CERT_TOL``, when an accepted step does not raise the log-likelihood,
    or after ``MAX_ITERATIONS`` passes, accepted or not. It has converged
    exactly when the gap of the returned state, its ``certified_gap``, is
    below ``CERT_TOL``, whichever stop it took; the gap stays above it when
    the counts are so large that no step gains any more before the gap gets
    there (some draws of states whose maximizer has a zero eigenvalue, such
    as schmidt:0.4 at 1e10 and 3e10 counts per setting, where only the
    linear gap applies; tests/data/frontier_scan.py counts them), and
    always above ``CERTIFIABLE_MEAN_COUNT``, about 1.25e13 counts per
    setting at unit exposures, where the gap's rounding bound alone exceeds
    ``CERT_TOL``. ``log_likelihood``, ``iterations`` (accepted steps) and
    ``converged`` are read from the history and the gap.

    ``n_resamples`` is an integer, 0 (no error bars, ``monte_carlo`` is
    None) or from 2 to ``MAX_RESAMPLES``, and resampling needs a
    non-negative integer ``seed`` and every count at most
    ``MAX_RESAMPLED_COUNT``.
    Resample k draws its 36 counts in one call, in record order, from
    child k of ``SeedSequence(seed).spawn(n_resamples)``. The observed counts and the
    resamples are reconstructed as the rows of one `_mle_batch` stack, the
    observed counts as row 0; a row has the same bits in any stack, so
    every field but ``monte_carlo`` is the same with or without resamples.
    The resample states form one (B, 4, 4) stack, checked with
    `qmath.check_density` as `DensityMatrix` checks one state, and each
    statistic of `_STATISTICS` is one call on that stack, whose every row
    has the bits the statistic gives that resample alone; 'trace_distance'
    and 'uhlmann_fidelity' compare each resample with the point estimate.
    """
    if not (_is_integer(n_resamples) and _finite(n_resamples)
            and (n_resamples == 0 or n_resamples >= 2)):
        raise ValueError("n_resamples must be 0 (no error bars) or at least "
                         f"2, got {_shown(n_resamples)}")
    if n_resamples > MAX_RESAMPLES:
        raise ValueError(f"n_resamples must be at most {MAX_RESAMPLES}, "
                         f"got {n_resamples}")
    if n_resamples:
        _check_seed("resampling", seed)
        for r in records:
            if r.count > MAX_RESAMPLED_COUNT:
                raise ValueError(
                    "resampling needs every count at most "
                    f"{MAX_RESAMPLED_COUNT:g}, got {_shown(r.count)} at "
                    f"setting {r.setting_a}{r.setting_b}")
    counts, exposures = _mle_arrays(records)
    counts = counts[None]
    if n_resamples:
        observed = np.array([r.count for r in records], dtype=float)
        drawn = np.array([
            np.random.default_rng(child).poisson(observed)
            for child in np.random.SeedSequence(seed).spawn(n_resamples)])
        empty = (~drawn.any(axis=1)).nonzero()[0]
        if len(empty):
            raise ValueError(
                f"degenerate data: {len(empty)} of {n_resamples} Monte Carlo "
                f"resamples drew no counts, the first resample {empty[0]} "
                "(counting from 0); the observed counts total "
                f"{int(observed.sum())}")
        counts = np.concatenate([counts, drawn[:, _mle_order(records)]])
    results = _mle_batch(counts, exposures)
    rho, history, gap = results[0]
    rec = TomographyRecord(list(records), DensityMatrix(rho, ("a", "b")),
                           history, gap)
    if not n_resamples:
        return rec
    resamples = results[1:]
    states = np.array([row[0] for row in resamples])
    # each resample is checked as a DensityMatrix would check it
    check_density(states)
    values = np.array([fn(states, rec.rho_hat)
                       for fn in _STATISTICS.values()])
    rec.monte_carlo = MonteCarloSummary(
        {name: (float(v.mean()), float(v.std(ddof=1)))
         for name, v in zip(_STATISTICS, values)},
        sum(not gap < CERT_TOL for *_, gap in resamples),
        float(np.max([gap for *_, gap in resamples])))
    return rec


def _mle_batch(counts: np.ndarray, exposures: np.ndarray) -> list[tuple]:
    """The iteration of `mle_reconstruct` on every row of a (B, 36) count
    array at once: the only MLE loop, which `mle_reconstruct` runs on the
    observed counts and their resamples as one stack.

    The columns are in the MLE's setting order (sorted ``SETTINGS``), and
    ``exposures`` broadcasts against ``counts``. Each row starts at its
    projected linear inversion (`_linear_inversion`) where its
    log-likelihood exceeds that of I/4, and at I/4 otherwise. The rows run
    as one (B, 4, 4) stack and take one `_step` each per pass; each row
    keeps its own step size, from 1 / (its count total), its certificate
    stop and its ``MAX_ITERATIONS`` budget of passes, and a row's results
    have the same bits in any stack.

    Rows leave the stack in one place, at the top of a pass, once its
    gradient is known: a row leaves on the first iterate whose certified
    gap is below ``CERT_TOL``, on its iterate when the last pass's accepted
    step did not gain (a stalled row), and on every iterate when the passes
    reach ``MAX_ITERATIONS``; it has converged if the gap of that iterate
    is below ``CERT_TOL``. A gap reuses the pass's gradient. One linear
    `_gaps` call, one `eigvalsh`, covers the stalled rows, the rows out of
    budget, and the rows whose iterate is the start or was reached by a
    step gaining less than ``CERT_TOL``; skipping it elsewhere costs no
    correctness, as no row stops on the certificate without computing it.
    Of those, a row whose linear gap is not below ``CERT_TOL`` and whose
    iterate is its inversion or was reached by a step, with a projection
    that clipped no eigenvalue (an interior row), also takes the gap at its
    `_dual_point`, one 16 x 16 solve, and its gap is the smaller of the
    two; a full-rank inversion can so certify before any step. I/4 and the
    iterates of lower rank are left out: there the dual point makes some
    y_j <= 0 and falls back to the linear one. A stalled row keeps its
    state and probabilities, so its gradient and gap have the bits of those
    of the pass whose step stalled.

    Returns per row the finished state, its log-likelihood history (that
    of its start, then the previous entry plus each accepted step's gain,
    so the last entry is the state's) and the certified gap of its last
    iterate, below ``CERT_TOL`` if the row converged.
    """
    counts = np.ascontiguousarray(counts, dtype=float)
    exposures = np.ascontiguousarray(
        np.broadcast_to(exposures, counts.shape), dtype=float)
    n_rows = len(counts)
    n_hat = 4.0 * np.mean(counts / exposures, axis=1)
    expected = n_hat[:, None] * exposures
    # the constant part of the log-likelihood's gradient
    h_op = _projector_sums(expected)
    # each row starts at its projected linear inversion where that is more
    # likely than I/4, and at I/4 otherwise
    start, full = _linear_inversion(counts, expected)
    start_p = _probs_stack(start)
    start_ll = _loglik(counts, expected, start_p)
    mixed_p = _probs(_IDENTITY / 4.0)
    mixed_ll = _loglik(counts, expected, mixed_p)
    taken = start_ll > mixed_ll
    rho = np.where(taken[:, None, None], start, _IDENTITY / 4.0)
    p = np.where(taken[:, None], start_p, mixed_p)
    history = [[v] for v in np.where(taken, start_ll, mixed_ll).tolist()]
    alpha = 1.0 / np.maximum(counts.sum(axis=1), 1.0)
    # the rows whose iterates need a gap check: the start, and an iterate
    # reached by a step that gained less than CERT_TOL
    check = np.ones(n_rows, dtype=bool)
    # the rows whose last accepted step did not gain
    stalled = np.zeros(n_rows, dtype=bool)
    # the rows whose iterate is the inversion or was reached by a step, and
    # is of full rank, which may try the dual gap
    interior = taken & full
    # positions in the caller's array of the rows still in the stack
    rows = np.arange(n_rows)
    results = [None] * n_rows
    passes = 0
    while len(rows):
        # the log-likelihood's gradient at each iterate
        g = _projector_sums(counts / p) - h_op
        leaving = stalled | (passes == MAX_ITERATIONS)
        checked = (check | leaving).nonzero()[0]
        # an empty gap computation costs as much as a small one
        gaps = (_gaps(g[checked], rho[checked], counts[checked],
                      p[checked], expected[checked], 0.0)
                if len(checked) else np.empty(0))
        # the second-order gap, where the linear one does not certify an
        # iterate that may have one
        dual = (interior[checked] & (gaps >= CERT_TOL)).nonzero()[0]
        if len(dual):
            k = checked[dual]
            gaps[dual] = np.minimum(gaps[dual], _gaps(
                g[k], rho[k], counts[k], p[k], expected[k],
                _dual_point(g[k], rho[k], counts[k], p[k])))
        stop = leaving[checked] | (gaps < CERT_TOL)
        if stop.any():
            for i, gap in zip(checked[stop], gaps[stop]):
                results[rows[i]] = (_finish(rho[i]), history[rows[i]],
                                    float(gap))
            keep = np.ones(len(rows), dtype=bool)
            keep[checked[stop]] = False
            rows, counts, expected, h_op, alpha, rho, p, g, interior = (
                a[keep] for a in (rows, counts, expected, h_op, alpha, rho,
                                  p, g, interior))
            if not len(rows):
                break
        z, z_p, gain, accepted, full = _step(g, rho, p, counts, expected,
                                             alpha)
        passes += 1
        moved = accepted & (gain > 0)
        rho = np.where(moved[:, None, None], z, rho)
        p = np.where(moved[:, None], z_p, p)
        interior = np.where(moved, full, interior)
        alpha = np.where(accepted, 1.25 * alpha, 0.5 * alpha)
        check = moved & (gain < CERT_TOL)
        stalled = accepted & ~moved
        for row, value in zip(rows[moved].tolist(), gain[moved].tolist()):
            history[row].append(history[row][-1] + value)
    return results


# ---------------------------------------------------------------------------
# CSV / JSON interchange

CSV_HEADER = ["setting_a", "setting_b", "count", "exposure"]


def counts_to_csv(records: list[CountRecord], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in records:
            # CountRecord holds an integral float count as given, and the
            # reader takes integer literals only
            w.writerow([r.setting_a, r.setting_b, int(r.count), r.exposure])


def counts_from_csv(path) -> list[CountRecord]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_HEADER:
            raise ValueError(
                f"bad counts CSV header {reader.fieldnames}, expected {CSV_HEADER}")
        records = []
        for row in reader:
            # DictReader files extra fields under the key None and gives
            # missing ones the value None
            if None in row or None in row.values():
                raise ValueError(
                    f"counts CSV line {reader.line_num} does not have the "
                    f"{len(CSV_HEADER)} fields {CSV_HEADER}")
            # a field that does not parse stays text, which CountRecord
            # rejects as no number
            count, exposure = row["count"], row["exposure"]
            with contextlib.suppress(ValueError):
                count = int(count)
            with contextlib.suppress(ValueError):
                exposure = float(exposure)
            try:
                records.append(CountRecord(row["setting_a"], row["setting_b"],
                                           count, exposure))
            except ValueError as e:
                raise ValueError(
                    f"counts CSV line {reader.line_num}: {e}") from None
        return records


def matrix_to_json_dict(rho: DensityMatrix) -> dict:
    return {
        "labels": list(rho.labels),
        "matrix": [[[float(z.real), float(z.imag)] for z in row]
                   for row in rho.matrix],
    }


def matrix_from_json_dict(d: dict) -> DensityMatrix:
    if not isinstance(d, dict):
        raise ValueError("matrix JSON must be an object with 'labels' and "
                         f"'matrix', got {type(d).__name__}")
    labels = d.get("labels")
    if not (isinstance(labels, list)
            and all(isinstance(label, str) for label in labels)):
        raise ValueError(
            f"matrix JSON labels must be a list of strings, got {labels!r}")
    if "matrix" not in d:
        raise ValueError("matrix JSON has no 'matrix'")
    try:
        # unpacking an entry of another length raises ValueError
        entries = [[complex(re, im) for re, im in row] for row in d["matrix"]]
    except (TypeError, ValueError):
        raise ValueError(
            "matrix JSON entries must be [re, im] pairs of numbers") from None
    if any(len(row) != len(entries) for row in entries):
        raise ValueError("matrix JSON must hold a square matrix, got rows "
                         f"of lengths {[len(row) for row in entries]}")
    dim = 2 ** len(labels)
    if len(entries) != dim:
        raise ValueError(f"matrix JSON labels {labels!r} need a {dim}x{dim} "
                         f"matrix, got {len(entries)}x{len(entries)}")
    try:
        return DensityMatrix(np.array(entries), tuple(labels))
    except ValueError as e:
        raise ValueError(f"matrix JSON does not hold a state: {e}") from None


def matrix_to_json(rho: DensityMatrix, path) -> None:
    with open(path, "w") as f:
        json.dump(matrix_to_json_dict(rho), f, indent=2)


def matrix_from_json(path) -> DensityMatrix:
    with open(path) as f:
        try:
            d = json.load(f)
        except ValueError as e:  # bad JSON, or bytes that are not UTF-8
            raise ValueError(f"matrix JSON {str(path)!r} is not valid JSON: "
                             f"{e}") from None
    return matrix_from_json_dict(d)
