"""Simulated two-photon state tomography.

36 polarization settings (all pairs drawn from H, V, D, A, L, R), Poisson
count statistics, maximum-likelihood reconstruction by diluted fixed-point
iteration, and Monte Carlo error bars from Poisson resampling.

Every stochastic operation takes an explicit integer seed; Monte Carlo
resamples draw their streams from ``numpy.random.SeedSequence.spawn`` so the
results are reproducible regardless of evaluation order or parallelism.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .parallel import worker_count
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
        if self.count < 0:
            raise ValueError("negative count")
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
    _require_each_setting_once(records)
    if all(r.count == 0 for r in records):
        raise ValueError("degenerate data: all counts are zero")
    # canonical ordering makes the result exactly independent of record order
    ordered = sorted(records, key=lambda r: (r.setting_a, r.setting_b))
    counts = np.array([r.count for r in ordered], dtype=float)
    exposures = np.array([r.exposure for r in ordered], dtype=float)
    n_hat = 4.0 * float(np.mean(counts / exposures))
    # loop invariants, hoisted with the same operands and operation order
    expected = n_hat * exposures
    total = max(counts.sum(), 1.0)

    def probs(r):
        return np.maximum(
            np.einsum("jab,ba->j", _MLE_PROJECTORS, r).real, 1e-12)

    def loglik(p):
        # Poisson log-likelihood, log factorial terms dropped: constant in rho
        mu = np.maximum(expected * p, 1e-300)
        return float((counts * np.log(mu) - mu).sum())

    rho = _IDENTITY / 4.0
    p = probs(rho)
    ll = loglik(p)
    history = [ll]
    converged = False
    final_eps = None
    for _ in range(MAX_ITERATIONS):
        r_op = np.einsum("j,jab->ab", counts / p, _MLE_PROJECTORS) / total
        # the undiluted step first; eps * r_op at eps = 1 changes no bit
        step, eps = _IDENTITY + r_op, 1.0
        while True:
            cand = step @ rho @ step.conj().T
            cand /= cand.trace().real
            cand_p = probs(cand)
            cand_ll = loglik(cand_p)
            final_eps = eps
            eps *= 0.5
            if cand_ll > ll or eps <= 1e-14:
                break
            step = _IDENTITY + eps * r_op
        if not cand_ll > ll:
            converged = True  # no improving step exists at machine precision
            break
        gain = cand_ll - ll
        # the accepted candidate's probabilities feed the next R operator
        rho, p, ll = cand, cand_p, cand_ll
        history.append(ll)
        if gain < LOGLIK_TOL:
            converged = True
            break

    rho = (rho + rho.conj().T) / 2.0
    rho /= rho.trace().real
    return TomographyRecord(list(records),
                            DensityMatrix(rho, ("a", "b")),
                            ll, converged, history, len(history) - 1,
                            final_eps)


# also the key order of the monte_carlo block of a tomo report
_STATISTICS = ("fidelity", "witness", "concurrence", "entropy",
               "trace_distance", "uhlmann_fidelity")
# statistics that compare against the point estimate
_REFERENCE_STATISTICS = ("trace_distance", "uhlmann_fidelity")


def evaluate_statistic(name: str, rho: DensityMatrix,
                       reference: DensityMatrix | None = None) -> float:
    """Named scalar statistic of a reconstructed state.

    'fidelity' and 'witness' are taken against |Phi+>; 'trace_distance' and
    'uhlmann_fidelity' compare against ``reference`` (for Monte Carlo runs,
    the point-estimate reconstruction).
    """
    if name == "fidelity":
        return metrics.fidelity_to_pure(rho, metrics.PHI_PLUS)
    if name == "concurrence":
        return metrics.concurrence(rho)
    if name == "entropy":
        return metrics.von_neumann_entropy(rho)
    if name == "witness":
        return metrics.witness_expectation(rho)
    if name in _REFERENCE_STATISTICS:
        if reference is None:
            raise ValueError(f"statistic {name!r} needs a reference state")
        fn = metrics.trace_distance if name == "trace_distance" \
            else metrics.uhlmann_fidelity
        return fn(rho, reference)
    raise ValueError(f"unknown statistic {name!r}; choose from {_STATISTICS}")


@dataclass(frozen=True)
class MonteCarloSummary:
    """Sample (mean, std) with ddof=1 of each statistic over the resamples,
    and how many resample reconstructions did not converge."""

    statistics: dict[str, tuple[float, float]]
    nonconverged: int


def _mc_resample(args):
    """Reconstruct one Poisson resample and evaluate every statistic on it."""
    counts, exposures, settings, child_seed, statistics, ref_matrix = args
    rng = np.random.default_rng(child_seed)
    resampled = [
        CountRecord(a, b, int(rng.poisson(c)), e)
        for (a, b), c, e in zip(settings, counts, exposures)
    ]
    rec = mle_reconstruct(resampled)
    reference = DensityMatrix(ref_matrix, ("a", "b")) \
        if ref_matrix is not None else None
    values = [evaluate_statistic(name, rec.rho_hat, reference)
              for name in statistics]
    return values, rec.converged


def monte_carlo_statistics(records: list[CountRecord], n_resamples: int,
                           seed: int, statistics=_STATISTICS,
                           workers: int = 1,
                           point: TomographyRecord | None = None
                           ) -> MonteCarloSummary:
    """Poisson-resample the counts, reconstruct each resample once, and
    summarize every named statistic over the resamples.

    Resample k draws from child k of
    ``SeedSequence(seed).spawn(n_resamples)``, so the result is deterministic
    given the seed and independent of ``workers``. 'trace_distance' and
    'uhlmann_fidelity' compare against the point estimate ``point``,
    reconstructed here when not given.
    """
    if n_resamples < 2:
        raise ValueError("need at least 2 resamples")
    statistics = tuple(statistics)
    if not statistics:
        raise ValueError("need at least one statistic")
    for name in statistics:
        if name not in _STATISTICS:
            raise ValueError(
                f"unknown statistic {name!r}; choose from {_STATISTICS}")
    ref = None
    if any(name in _REFERENCE_STATISTICS for name in statistics):
        if point is None:
            point = mle_reconstruct(records)
        elif point.records != list(records):
            raise ValueError(
                "point estimate was reconstructed from other counts")
        ref = point.rho_hat.matrix
    counts = [r.count for r in records]
    exposures = [r.exposure for r in records]
    settings = [(r.setting_a, r.setting_b) for r in records]
    children = np.random.SeedSequence(seed).spawn(n_resamples)
    tasks = [(counts, exposures, settings, child, statistics, ref)
             for child in children]
    workers = worker_count(workers, len(tasks))
    if workers > 1:
        # one chunk per worker; a pool of more workers than chunks would
        # start processes that get no task
        chunksize = -(-len(tasks) // workers)
        workers = -(-len(tasks) // chunksize)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mc_resample, tasks, chunksize=chunksize))
    else:
        results = [_mc_resample(t) for t in tasks]
    summary = {}
    for j, name in enumerate(statistics):
        values = np.asarray([v[j] for v, _ in results], dtype=float)
        summary[name] = (float(values.mean()), float(values.std(ddof=1)))
    nonconverged = sum(not converged for _, converged in results)
    return MonteCarloSummary(summary, nonconverged)


def monte_carlo_uncertainty(records: list[CountRecord], n_resamples: int,
                            seed: int, statistic: str,
                            workers: int = 1) -> tuple[float, float]:
    """Sample mean and standard deviation of one named statistic over
    Poisson resamples; see `monte_carlo_statistics`."""
    return monte_carlo_statistics(records, n_resamples, seed, (statistic,),
                                  workers).statistics[statistic]


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
        return [CountRecord(row["setting_a"], row["setting_b"],
                            int(row["count"]), float(row["exposure"]))
                for row in reader]


def matrix_to_json_dict(rho: DensityMatrix) -> dict:
    return {
        "labels": list(rho.labels),
        "matrix": [[[float(z.real), float(z.imag)] for z in row]
                   for row in rho.matrix],
    }


def matrix_from_json_dict(d: dict) -> DensityMatrix:
    mat = np.array([[complex(re, im) for re, im in row]
                    for row in d["matrix"]])
    return DensityMatrix(mat, tuple(d["labels"]))


def matrix_to_json(rho: DensityMatrix, path) -> None:
    with open(path, "w") as f:
        json.dump(matrix_to_json_dict(rho), f, indent=2)


def matrix_from_json(path) -> DensityMatrix:
    with open(path) as f:
        return matrix_from_json_dict(json.load(f))
