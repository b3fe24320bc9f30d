"""Rewrite, from the current code, each golden file here that derives from
the maximum-likelihood reconstruction.

    python tests/data/regenerate.py

- ``mle_golden.json``: ``mle_golden_text()`` of ``tests/test_tomography.py``;
- ``tomo_sigma_seed11_n2000_b8.json``: ``entclone --seed 11 --format json
  tomo --state sigma --n 2000 --resamples 8``;
- ``paper_seed3.txt`` and ``paper_seed3.json``: ``entclone --seed 3 paper``,
  as text and as JSON.

``network_golden.json`` and ``cli_network_golden.json`` (the ``clone`` and
``sweep`` stdout bytes, ``cli_network_golden_text()`` of
``tests/test_cli.py``) do not derive from the MLE and are left as they are.
A change that moves the MLE's output is then: run this, and read
``git diff tests/data``.

Before it writes anything, it checks each ``mle_golden.json`` case against
the file as it stands: it prints the old and new log-likelihood, their
difference, both certified gaps and both converged flags, and exits
non-zero, writing nothing, if the log-likelihood moved by more than the
larger of the two gaps or a converged flag flipped. A case new to the file
has nothing to check against, and is printed as new.
"""

import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path[:0] = [str(DATA.parents[1] / "src"), str(DATA.parent)]

from entclone.cli import main  # noqa: E402
from test_tomography import MLE_GOLDEN, mle_golden_text  # noqa: E402

CLI_GOLDENS = {
    "tomo_sigma_seed11_n2000_b8.json": [
        "--seed", "11", "--format", "json", "tomo", "--state", "sigma",
        "--n", "2000", "--resamples", "8"],
    "paper_seed3.txt": ["--seed", "3", "paper"],
    "paper_seed3.json": ["--seed", "3", "--format", "json", "paper"],
}


def check_mle_golden(text: str) -> bool:
    """Print each case of the golden text ``text`` against the file as it
    stands, and whether its change is within the larger certified gap with
    the same converged flag; True when every case is."""
    old = json.loads(MLE_GOLDEN.read_text()) if MLE_GOLDEN.exists() else {}
    ok = True
    print(f"{'case':<30}{'old log-likelihood':>26}{'new log-likelihood':>26}"
          f"{'difference':>12}{'old gap':>10}{'new gap':>10}  converged")
    for case, new in json.loads(text).items():
        ll = new["log_likelihood_history"][-1]
        if case not in old:
            print(f"{case:<30}{'(new case)':>26}{ll!r:>26}{'':>22}"
                  f"{new['certified_gap']:>10.3g}  {new['converged']}")
            continue
        was = old[case]
        diff = ll - was["log_likelihood_history"][-1]
        within = abs(diff) <= max(was["certified_gap"], new["certified_gap"])
        same_flag = was["converged"] == new["converged"]
        ok = ok and within and same_flag
        print(f"{case:<30}{was['log_likelihood_history'][-1]!r:>26}{ll!r:>26}"
              f"{diff:>12.3g}{was['certified_gap']:>10.3g}"
              f"{new['certified_gap']:>10.3g}  {was['converged']} -> "
              f"{new['converged']}"
              f"{'' if within else '  MOVED BEYOND THE LARGER GAP'}"
              f"{'' if same_flag else '  FLAG FLIPPED'}")
    return ok


def regenerate() -> None:
    text = mle_golden_text()
    if not check_mle_golden(text):
        raise SystemExit("a golden case moved beyond its certified gap or "
                         "changed its converged flag; nothing written")
    MLE_GOLDEN.write_text(text)
    for name, argv in CLI_GOLDENS.items():
        if main(["--out", str(DATA / name), *argv]) != 0:
            raise SystemExit(f"entclone {' '.join(argv)} failed")


if __name__ == "__main__":
    regenerate()
