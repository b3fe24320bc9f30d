import json

import numpy as np
import pytest
from hypothesis import settings

from entclone.qmath import DensityMatrix
from entclone.tomography import matrix_to_json_dict

# property tests draw the same bounded set of examples on every run and keep
# no example database, so the suite stays reproducible
settings.register_profile("entclone", derandomize=True, max_examples=60,
                          deadline=None, database=None)
# random examples, a new set on every run unless --hypothesis-seed fixes
# it, so a defect does not hide behind the examples that the test source
# text selects; run with --hypothesis-profile=entclone-thorough, which
# overrides the profile loaded here
settings.register_profile("entclone-thorough", derandomize=False,
                          max_examples=1000, deadline=None, database=None)
settings.load_profile("entclone")


def tier1_examples(max_examples: int):
    """A test's own cap on its examples under the tier-1 `entclone`
    profile; under any other profile, such as entclone-thorough, the test
    runs as many examples as that profile asks for."""
    if settings.get_current_profile_name() == "entclone":
        return settings(max_examples=max_examples)
    return lambda test: test


def random_density(rng, n_qubits=2, labels=None, rank=None):
    """Ginibre-distributed random density matrix, of full rank or of rank
    ``rank``."""
    dim = 2 ** n_qubits
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    if labels is None:
        labels = tuple(str(i) for i in range(n_qubits))
    return DensityMatrix(rho, labels)


def random_unitary(rng, dim):
    """Haar-ish random unitary via QR of a Ginibre matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_to_json(rho: DensityMatrix, path) -> None:
    """Write ``rho`` as the matrix JSON `tomography.matrix_from_json`
    reads."""
    with open(path, "w") as f:
        json.dump(matrix_to_json_dict(rho), f, indent=2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture
def no_spawn(monkeypatch):
    """numpy's SeedSequence replaced by one whose ``spawn`` fails the test
    at once, so that a resample count let through fails instead of
    spawning seeds for days."""
    class NoSpawn:
        def __init__(self, *args, **kwargs):
            pass

        def spawn(self, n_children):
            pytest.fail(f"spawned {n_children} seeds")

    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
