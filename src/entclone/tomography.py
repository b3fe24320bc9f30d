"""Simulated two-photon state tomography.

36 polarization settings (all pairs drawn from H, V, D, A, L, R), Poisson
count statistics, maximum-likelihood reconstruction by diluted fixed-point
iteration, and Monte Carlo error bars from Poisson resampling.

Every stochastic operation takes an explicit integer seed; Monte Carlo
resamples draw their streams from ``numpy.random.SeedSequence.spawn``, and
are reconstructed together in one batched pass with the bits of one-at-a-time
reconstruction, so the results are reproducible for a seed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .qmath import DensityMatrix

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
LOGLIK_TOL = 1e-10
# the largest mean count sample_counts draws: numpy's Poisson sampler refuses
# means above about 9.2e18, and with every Born probability at most 1 the
# mean counts stay under n_per_setting * exposure
MAX_MEAN_COUNT = 1e18


@dataclass(frozen=True)
class CountRecord:
    setting_a: str
    setting_b: str
    count: int
    exposure: float = 1.0

    def __post_init__(self):
        if self.setting_a not in PROJECTOR_LETTERS or \
                self.setting_b not in PROJECTOR_LETTERS:
            raise ValueError(
                f"unknown setting ({self.setting_a}, {self.setting_b})")
        # NaN fails every comparison, so `count < 0` alone let it through
        try:
            valid = (math.isfinite(self.count) and self.count >= 0
                     and self.count == int(self.count))
        except OverflowError:  # an int too large for a float
            valid = False
        if not valid:
            raise ValueError(
                f"count must be a non-negative integer, got {self.count}")
        if not (math.isfinite(self.exposure) and self.exposure > 0):
            raise ValueError(
                f"exposure must be finite and positive, got {self.exposure}")


@dataclass
class TomographyRecord:
    records: list[CountRecord]
    rho_hat: DensityMatrix
    log_likelihood: float
    converged: bool
    log_likelihood_history: list[float] = field(default_factory=list)
    # accepted RrhoR steps, and the dilution of the last step tried (None
    # when none was); diagnostics only, no report prints them
    iterations: int = 0
    final_eps: float | None = None


def setting_projector(setting_a: str, setting_b: str) -> np.ndarray:
    ka, kb = _KETS[setting_a], _KETS[setting_b]
    k = np.kron(ka, kb)
    return np.outer(k, np.conj(k))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# built once: every probability and every MLE iteration reads these
_PROJECTORS = {s: _frozen(setting_projector(*s)) for s in SETTINGS}
# in the (setting_a, setting_b) sort order in which the MLE takes its records
_MLE_PROJECTORS = _frozen(np.stack([_PROJECTORS[s] for s in sorted(SETTINGS)]))
_IDENTITY = _frozen(np.eye(4, dtype=complex))


def born_probability(rho, setting_a: str, setting_b: str) -> float:
    """Tr[rho (Pi_a x Pi_b)] for single-photon projectors a, b."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if m.shape != (4, 4):
        raise ValueError("born_probability requires a two-qubit state")
    return float((m @ _PROJECTORS[setting_a, setting_b]).trace().real)


def sample_counts(rho, n_per_setting: float, seed: int,
                  exposure: float = 1.0) -> list[CountRecord]:
    """Poisson counts for all 36 settings; deterministic given the seed."""
    if not (math.isfinite(n_per_setting) and n_per_setting > 0):
        raise ValueError(
            f"n_per_setting must be finite and positive, got {n_per_setting}")
    if not (math.isfinite(exposure) and exposure > 0):
        raise ValueError(
            f"exposure must be finite and positive, got {exposure}")
    if n_per_setting * exposure > MAX_MEAN_COUNT:
        raise ValueError(
            f"n_per_setting * exposure must be at most {MAX_MEAN_COUNT:g}, "
            f"got {n_per_setting} * {exposure}")
    rng = np.random.default_rng(seed)
    records = []
    for a, b in SETTINGS:
        mu = n_per_setting * exposure * born_probability(rho, a, b)
        records.append(CountRecord(a, b, int(rng.poisson(mu)), exposure))
    return records


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


def _probs(rho: np.ndarray) -> np.ndarray:
    """The 36 Born probabilities of one state in the MLE's setting order,
    floored at 1e-12."""
    return np.maximum(
        np.einsum("jab,ba->j", _MLE_PROJECTORS, rho).real, 1e-12)


def _probs_stack(stack: np.ndarray) -> np.ndarray:
    """`_probs` of each state of an (n, 4, 4) stack, as a C-ordered (n, 36)
    array with the bits `_probs` gives each state alone."""
    if len(stack) <= 2:
        # one state needs the 2-D form for its bits, and two take 14 us that
        # way against 27 us in the stacked einsum (numpy 2.4)
        return np.array([_probs(rho) for rho in stack])
    # this operand layout sums each probability in the order of `_probs`;
    # the einsum writes a Fortran-ordered result, and a row sum over a
    # Fortran-ordered array would add the terms in another order
    p = np.einsum("jab,anb->nj", _MLE_PROJECTORS,
                  np.ascontiguousarray(stack.transpose(2, 0, 1)))
    return np.maximum(p.real, 1e-12, order="C")


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


def _rrr_loop(counts, expected, total, rho, p, ll, budget, final_eps=None,
              history=None):
    """At most ``budget`` diluted RrhoR steps of one reconstruction, resumed
    from the iterate ``rho``, its probabilities ``p`` and log-likelihood
    ``ll``.

    Each accepted log-likelihood is appended to ``history`` when one is
    given. Returns the finished state, its log-likelihood, whether the loop
    converged, the number of steps it accepted and the dilution of the last
    step it tried (``final_eps`` when it tried none).
    """
    converged = False
    accepted = 0
    for _ in range(budget):
        r_op = np.einsum("j,jab->ab", counts / p, _MLE_PROJECTORS) / total
        # the undiluted step first
        step = _IDENTITY + r_op
        cand = step @ rho @ step.conj().T
        cand /= cand.trace().real
        cand_p = _probs(cand)
        cand_ll = float(_loglik(counts, expected, cand_p))
        final_eps = 1.0
        if not cand_ll > ll:
            found = _dilute(r_op[None], rho[None], counts[None],
                            expected[None], np.array([ll]))
            cand, cand_p = found[0][0], found[1][0]
            cand_ll, final_eps = float(found[2][0]), float(found[3][0])
        if not cand_ll > ll:
            converged = True  # no improving step exists at machine precision
            break
        gain = cand_ll - ll
        # the accepted candidate's probabilities feed the next R operator
        rho, p, ll = cand, cand_p, cand_ll
        accepted += 1
        if history is not None:
            history.append(ll)
        if gain < LOGLIK_TOL:
            converged = True
            break
    return _finish(rho), ll, converged, accepted, final_eps


def mle_reconstruct(records: list[CountRecord]) -> TomographyRecord:
    """Maximum-likelihood density matrix from the 36 count records.

    Independent Poisson likelihood per setting with the overall rate
    estimated as 4 x mean(count / exposure) (the 36 projectors sum to 9 I,
    so the mean success probability per setting is 1/4). That rate is only
    right for the full set, so the records must hold each of the 36
    ``SETTINGS`` exactly once; any other set raises ValueError. The
    maximizer is found by RrhoR fixed-point iteration with step dilution: a
    full step is tried first and geometrically damped until the
    log-likelihood improves, which keeps iterates PSD with unit trace and the
    likelihood monotone.
    """
    counts, exposures = _mle_arrays(records)
    n_hat = 4.0 * float(np.mean(counts / exposures))
    # loop invariants, hoisted with the same operands and operation order
    expected = n_hat * exposures
    total = max(counts.sum(), 1.0)
    rho = _IDENTITY / 4.0
    p = _probs(rho)
    ll = float(_loglik(counts, expected, p))
    history = [ll]
    rho, ll, converged, iterations, final_eps = _rrr_loop(
        counts, expected, total, rho, p, ll, MAX_ITERATIONS, history=history)
    return TomographyRecord(list(records),
                            DensityMatrix(rho, ("a", "b")),
                            ll, converged, history, iterations, final_eps)


def _candidates(step, rho, counts, expected):
    """Each candidate step @ rho @ step^H at unit trace, with its
    probabilities and log-likelihood, over the leading axes of a stack of
    steps; ``rho``, ``counts`` and ``expected`` broadcast against them."""
    cand = step @ rho @ step.conj().swapaxes(-1, -2)
    cand /= cand.trace(axis1=-2, axis2=-1).real[..., None, None]
    cand_p = _probs_stack(cand.reshape(-1, 4, 4)).reshape(
        *cand.shape[:-2], 36)
    return cand, cand_p, _loglik(counts, expected, cand_p)


# the diluted steps tried when the full one does not raise the likelihood:
# eps = 2^-1, ..., 2^-46, the last power of 2 above 1e-14. A row tries 1/2
# alone, then up to 8 at a time as one stack; the cap bounds the stack's
# memory, as most rows that search try all 46
_DILUTIONS = np.array([0.5 ** k for k in range(1, 47)])
_LADDER = [_DILUTIONS[:1]] + [_DILUTIONS[k:k + 8] for k in range(1, 46, 8)]


def _dilute(r_op, rho, counts, expected, ll):
    """The step search of the rows of an (n, 4, 4) stack whose full step
    did not raise the log-likelihood ``ll``: each row takes the first
    dilution of `_DILUTIONS` whose candidate raises it, or the last one
    when none does.

    Every candidate goes through `_candidates`, so each has the bits of the
    same step tried alone. Returns each row's candidate, its probabilities,
    its log-likelihood and its dilution.
    """
    n = len(rho)
    cand, cand_p = np.empty_like(rho), np.empty((n, 36))
    cand_ll, eps = np.empty(n), np.empty(n)
    # positions in the given stack of the rows still searching
    rows = np.arange(n)
    for chunk in _LADDER:
        # (rows, dilutions) stacks: row i's candidate at chunk[j] is [i, j]
        found = _candidates(
            _IDENTITY + chunk[:, None, None] * r_op[rows, None],
            rho[rows, None], counts[rows, None], expected[rows, None])
        gains = found[2] > ll[rows, None]
        each = np.arange(len(rows))
        first = gains.argmax(axis=1)
        hit = gains[each, first]
        pick = np.where(hit, first, len(chunk) - 1)
        cand[rows], cand_p[rows], cand_ll[rows] = (a[each, pick]
                                                   for a in found)
        eps[rows] = chunk[pick]
        rows = rows[~hit]
        if not len(rows):
            break
    return cand, cand_p, cand_ll, eps


def _mle_batch(counts: np.ndarray, exposures: np.ndarray) -> list[tuple]:
    """`mle_reconstruct`'s iteration on every row of a (B, 36) count array
    at once.

    The columns are in the MLE's setting order (sorted ``SETTINGS``), and
    ``exposures`` broadcasts against ``counts``. The rows run as one
    (B, 4, 4) stack; each row keeps its own dilution, stopping test and
    ``MAX_ITERATIONS`` budget, and does the floating-point operations of
    `mle_reconstruct`, so its result has the same bits. A row leaves the
    stack when it stops, and the last row left finishes in the one-set
    loop, which is faster for a single state. Returns per row what
    `_rrr_loop` returns, with the steps accepted counted from the start.
    """
    counts = np.ascontiguousarray(counts, dtype=float)
    exposures = np.ascontiguousarray(
        np.broadcast_to(exposures, counts.shape), dtype=float)
    n_rows = len(counts)
    budget = MAX_ITERATIONS
    n_hat = 4.0 * np.mean(counts / exposures, axis=1)
    expected = n_hat[:, None] * exposures
    total = np.maximum(counts.sum(axis=1), 1.0)[:, None, None]
    rho = np.repeat((_IDENTITY / 4.0)[None], n_rows, axis=0)
    p = np.repeat(_probs(_IDENTITY / 4.0)[None], n_rows, axis=0)
    ll = _loglik(counts, expected, p)
    final_eps = np.empty(n_rows)
    # positions in the caller's array of the rows still in the stack
    rows = np.arange(n_rows)
    results = [None] * n_rows
    steps = 0
    while len(rows) > 1 and steps < budget:
        r_op = np.einsum("nj,jab->nab", counts / p, _MLE_PROJECTORS) / total
        # the undiluted step first
        cand, cand_p, cand_ll = _candidates(_IDENTITY + r_op, rho, counts,
                                            expected)
        final_eps.fill(1.0)
        steps += 1
        # a row goes on while its gain is at least the tolerance, which is
        # positive: a row that goes on has improved
        keep = cand_ll - ll >= LOGLIK_TOL
        if not keep.all():
            improved = cand_ll > ll
            if not improved.all():
                # the rows without a gain search the diluted steps
                searching = np.flatnonzero(~improved)
                found = _dilute(r_op[searching], rho[searching],
                                counts[searching], expected[searching],
                                ll[searching])
                for a, b in zip((cand, cand_p, cand_ll, final_eps), found):
                    a[searching] = b
                improved = cand_ll > ll
                keep = cand_ll - ll >= LOGLIK_TOL
            # an improved row with a gain below the tolerance has converged
            # on its new iterate, a row without a gain on its last one
            for i in np.flatnonzero(~keep):
                last, last_ll = (cand[i], cand_ll[i]) if improved[i] \
                    else (rho[i], ll[i])
                results[rows[i]] = (_finish(last), float(last_ll), True,
                                    steps - (not improved[i]),
                                    float(final_eps[i]))
            rows, counts, expected, total, final_eps = (
                a[keep] for a in (rows, counts, expected, total, final_eps))
            cand, cand_p, cand_ll = cand[keep], cand_p[keep], cand_ll[keep]
        # the accepted candidates' probabilities feed the next R operators
        rho, p, ll = cand, cand_p, cand_ll
    for i, row in enumerate(rows):
        last_eps = None if steps == 0 else float(final_eps[i])
        # the one-set loop takes a lone row faster than a stack of one, and
        # with no budget left it only finishes the iterate
        left = budget - steps if len(rows) == 1 else 0
        rho_i, ll_i, converged, accepted, last_eps = _rrr_loop(
            counts[i], expected[i], total[i, 0, 0], rho[i], p[i],
            float(ll[i]), left, last_eps)
        results[row] = (rho_i, ll_i, converged, steps + accepted, last_eps)
    return results


# each statistic of a resample's state rho, against the point estimate
# point_rho where it compares the two; fidelity and witness are taken against
# |Phi+>. Also the key order of the monte_carlo block of a tomo report
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


@dataclass(frozen=True)
class MonteCarloSummary:
    """Sample (mean, std) with ddof=1 of each statistic over the resamples,
    and how many resample reconstructions did not converge."""

    statistics: dict[str, tuple[float, float]]
    nonconverged: int


def monte_carlo_statistics(point: TomographyRecord, n_resamples: int,
                           seed: int) -> MonteCarloSummary:
    """Poisson-resample the counts of the point estimate ``point``,
    reconstruct each resample once, and summarize every statistic of
    `_STATISTICS` over the resamples, in its key order.

    Resample k draws from child k of
    ``SeedSequence(seed).spawn(n_resamples)``, and all resamples are
    reconstructed in one batched pass whose every reconstruction has the
    bits `mle_reconstruct` gives it, so the result is deterministic given
    the seed. 'trace_distance' and 'uhlmann_fidelity' compare each resample
    with ``point.rho_hat``.
    """
    if n_resamples < 2:
        raise ValueError("need at least 2 resamples")
    # mle_reconstruct has checked that these hold each setting once
    records = point.records
    resamples = []
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        rng = np.random.default_rng(child)
        drawn = [int(rng.poisson(r.count)) for r in records]
        if not any(drawn):
            raise ValueError("degenerate data: all counts are zero")
        resamples.append(drawn)
    order = _mle_order(records)
    counts = np.array(resamples, dtype=float)[:, order]
    exposures = np.array([records[k].exposure for k in order], dtype=float)
    values = np.empty((len(_STATISTICS), n_resamples))
    nonconverged = 0
    for k, (rho, _, converged, _, _) in enumerate(
            _mle_batch(counts, exposures)):
        rho_hat = DensityMatrix(rho, ("a", "b"))
        values[:, k] = [fn(rho_hat, point.rho_hat)
                        for fn in _STATISTICS.values()]
        nonconverged += not converged
    summary = {name: (float(v.mean()), float(v.std(ddof=1)))
               for name, v in zip(_STATISTICS, values)}
    return MonteCarloSummary(summary, nonconverged)


# ---------------------------------------------------------------------------
# CSV / JSON interchange

CSV_HEADER = ["setting_a", "setting_b", "count", "exposure"]


def counts_to_csv(records: list[CountRecord], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in records:
            w.writerow([r.setting_a, r.setting_b, r.count, repr(r.exposure)])


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
            records.append(CountRecord(row["setting_a"], row["setting_b"],
                                       int(row["count"]),
                                       float(row["exposure"])))
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
    try:
        mat = np.array([[complex(re, im) for re, im in row]
                        for row in d["matrix"]])
    except TypeError:
        raise ValueError(
            "matrix JSON entries must be [re, im] pairs of numbers") from None
    return DensityMatrix(mat, tuple(d["labels"]))


def matrix_to_json(rho: DensityMatrix, path) -> None:
    with open(path, "w") as f:
        json.dump(matrix_to_json_dict(rho), f, indent=2)


def matrix_from_json(path) -> DensityMatrix:
    with open(path) as f:
        return matrix_from_json_dict(json.load(f))
