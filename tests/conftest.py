import numpy as np
import pytest

from entclone.qmath import DensityMatrix


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
    max_workers, on a machine that reports 4 CPUs. No process is started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    RecordingPool.sizes = sizes
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    return RecordingPool
