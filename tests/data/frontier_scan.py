"""Where the maximum-likelihood reconstruction stops certifying: sigma,
mixed, phi+ and schmidt:0.4 at 3e8, 1e9, 3e9, 1e10, 3e10 and 1e13 counts
per setting, over seeds 100-139.

    python tests/data/frontier_scan.py

At these counts the last steps' gains approach the float spacing of the
probabilities, and a run can stop, on an accepted step that does not gain,
before its certified gap falls below ``CERT_TOL``. For each case this
prints how many of the draws certified, how many of those have a linear
gap (`_gaps` at x = 0) at or above ``CERT_TOL`` at their returned state,
so that only the gap at the dual point (`_dual_point`) certified them, the
largest iteration count among all its draws, the largest certified gap
among the draws that did not certify and those draws' seeds. sigma and
mixed are of full rank and certify at the dual point; phi+ and schmidt:0.4
are pure, with their maximizers on the boundary of the state space, where
only the linear gap applies. 1e13 lies just under
``CERTIFIABLE_MEAN_COUNT``, where the gap's rounding bound, 0.08 there,
nears ``CERT_TOL``. schmidt:0.4 is the slowest kind of draw to
certify, and no benchmark workload holds one, so its iteration counts are
the worst case to watch. A change to the MLE's floating-point work moves
this frontier; run it before and after such a change.

Each case's draws are reconstructed as one `_mle_batch` stack, whose rows
have the bits of `mle_reconstruct` on each draw alone: a state, a
log-likelihood history, one entry more than the draw's accepted steps, and
a certified gap, which certifies the draw when below ``CERT_TOL``. pytest
does not collect this file.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path(__file__).resolve().parents[2] / "src")]

from entclone import tomography as tg  # noqa: E402
from entclone.cli import _named_density  # noqa: E402

STATES = ("sigma", "mixed", "phi+", "schmidt:0.4")
COUNTS = (3e8, 1e9, 3e9, 1e10, 3e10, 1e13)
SEEDS = range(100, 140)


def scan_case(state: str, n: float,
              seeds: range) -> tuple[int, int, int, float, list]:
    """The number of draws that certified, how many of those only at the
    dual point, the largest iteration count, the largest gap of a draw that
    did not certify (NaN if all did) and the seeds that did not certify,
    for one state and count."""
    rho = _named_density(state)
    rows = np.array([tg._mle_arrays(tg.sample_counts(rho, n, seed=seed))[0]
                     for seed in seeds])
    results = tg._mle_batch(rows, np.ones(36))
    certified = [gap < tg.CERT_TOL for _, _, gap in results]
    iterations = max(len(history) - 1 for _, history, _ in results)
    # the linear gap at each returned state, at equal exposures
    states = np.array([state for state, _, _ in results])
    p = tg._probs_stack(states)
    expected = np.repeat(4.0 * rows.mean(axis=1, keepdims=True), 36, axis=1)
    g = tg._projector_sums(rows / p) - tg._projector_sums(expected)
    linear = tg._gaps(g, states, rows, p, expected, 0.0)
    on_dual = sum(ok and gap >= tg.CERT_TOL
                  for ok, gap in zip(certified, linear))
    stalled = [gap for _, _, gap in results if not gap < tg.CERT_TOL]
    return (sum(certified), on_dual, iterations, max(stalled, default=np.nan),
            [seed for seed, ok in zip(seeds, certified) if not ok])


def main() -> None:
    print(f"{'state':<12}{'n':>8}{'certified':>12}{'on dual':>9}"
          f"{'max it':>9}{'max gap':>10}{'s':>8}  not certified")
    totals = dict.fromkeys(STATES, 0)
    for state in STATES:
        for n in COUNTS:
            t0 = time.perf_counter()
            certified, on_dual, iterations, worst, failed = scan_case(
                state, n, SEEDS)
            totals[state] += certified
            print(f"{state:<12}{n:>8.0e}{certified:>7}/{len(SEEDS):<4}"
                  f"{on_dual:>9}{iterations:>9}{worst:>10.3g}"
                  f"{time.perf_counter() - t0:>8.2f}  "
                  f"{' '.join(map(str, failed))}", flush=True)
    print("certified per state:",
          ", ".join(f"{state} {totals[state]}" for state in STATES))


if __name__ == "__main__":
    main()
