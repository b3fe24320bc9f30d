"""Rewrite, from the current code, each golden file here that derives from
the maximum-likelihood reconstruction.

    python tests/data/regenerate.py

- ``mle_golden.json``: ``mle_golden_text()`` of ``tests/test_tomography.py``;
- ``tomo_sigma_seed11_n2000_b8.json``: ``entclone --seed 11 --format json
  tomo --state sigma --n 2000 --resamples 8``;
- ``paper_seed3.txt`` and ``paper_seed3.json``: ``entclone --seed 3 paper``,
  as text and as JSON.

``network_golden.json`` does not derive from the MLE and is left as it is.
A change that moves the MLE's output is then: run this, and read
``git diff tests/data``.
"""

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


def regenerate() -> None:
    MLE_GOLDEN.write_text(mle_golden_text())
    for name, argv in CLI_GOLDENS.items():
        if main(["--out", str(DATA / name), *argv]) != 0:
            raise SystemExit(f"entclone {' '.join(argv)} failed")


if __name__ == "__main__":
    regenerate()
