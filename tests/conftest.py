import numpy as np
import pytest
from hypothesis import settings

from entclone.qmath import DensityMatrix

# property tests draw the same bounded set of examples on every run and keep
# no example database, so the suite stays reproducible
settings.register_profile("entclone", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("entclone")


def random_density(rng, n_qubits=2, labels=None):
    """Ginibre-distributed random density matrix."""
    dim = 2 ** n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture
def recording_pool(monkeypatch):
    """A serial stand-in for ProcessPoolExecutor that records each pool's
    max_workers and each map's chunksize, on a machine that reports 4 CPUs,
    and asserts that the tasks fill at least one chunk per worker. No
    process is started."""
    sizes = []
    chunksizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            chunksizes.append(chunksize)
            chunks = -(-len(tasks) // chunksize)
            assert chunks >= self.max_workers, \
                f"{self.max_workers} workers started for {chunks} chunks"
            return map(fn, tasks)

    RecordingPool.sizes = sizes
    RecordingPool.chunksizes = chunksizes
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    return RecordingPool
