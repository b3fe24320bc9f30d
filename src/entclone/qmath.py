"""Dense complex linear algebra for small qubit registers.

Everything here operates on plain ``numpy`` arrays (complex128), with two
thin wrapper types that carry qubit labels: `PureState` and `DensityMatrix`.
All subsystem operations are label-based rather than index-based, because
the cloning network relabels modes (1 -> 1', 3 -> 3', ...) and raw-index
bookkeeping is the easiest way to silently trace out the wrong qubit.

`herm_eig`, `psd_sqrt`, `trace_norm` and `check_density` also take a
``(..., d, d)`` stack of matrices and treat each matrix as they treat it
alone, with the same bits, so a batch of states is checked and decomposed
in one call.

`check_density` proves positivity with a Cholesky factorization rather than
a spectrum. With H = (m + m†)/2 it factors H + τI, τ = `CHOLESKY_SHIFT` =
0.999·`EIG_CLAMP`, for the whole stack in one call. By Higham's backward
error bound for Cholesky (*Accuracy and Stability of Numerical Algorithms*,
Thm 10.3), a factorization that completes proves
λmin(H) ≥ −τ − γ_{d+1}·tr(H + τI), γ_k = ku/(1 − ku), u the unit roundoff:
at unit trace and d = 64 that is −τ − 7e-15 (complex arithmetic scales the
constant by a small factor), well inside the 1e-12 between τ and
`EIG_CLAMP`. So a stack that factors passes, and only a stack that does not
pays for `eigvalsh`, whose verdict and message are final.

Every state name is read here, stripped of surrounding whitespace: by
`InputSpec.from_name` for a network input, by `named_density` for a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_CLAMP = 1e-9       # eigenvalues in [-EIG_CLAMP, 0) are numerical noise
EIG_NEGATIVE_ERR = 1e-6  # below -EIG_NEGATIVE_ERR the matrix is genuinely not PSD
NORM_TOL = 1e-12       # |psi|^2 of a pure state may differ from 1 this much
# check_density's certificate shift: the 1e-12 it leaves below EIG_CLAMP
# absorbs the Cholesky factorization's rounding
CHOLESKY_SHIFT = 0.999 * EIG_CLAMP

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class ConsistencyError(ValueError):
    """Two independent evaluations of the same quantity disagree beyond
    their tolerance: an internal check failed, not bad input."""


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(m).swapaxes(-1, -2)


def float_or_rows(values: np.ndarray):
    """A per-matrix result: a Python float for a single matrix, the array
    of per-matrix values for a stack."""
    return float(values) if values.ndim == 0 else values


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(vals, vecs)`` with ``m = vecs @ diag(vals) @ vecs.conj().T``
    and ``vecs[:, k]`` the eigenvector for ``vals[k]``. A ``(..., d, d)``
    stack gives ``(..., d)`` values and ``(..., d, d)`` vectors, each
    matrix's with the bits it has alone; every matrix must be Hermitian.
    """
    m = np.asarray(m, dtype=complex)
    if not np.max(np.abs(m - dagger(m))) <= HERMITICITY_TOL:
        raise ValueError("herm_eig requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(m)
    # eigh returns the eigenvalues ascending; the reversed views are copied
    # so that callers get contiguous arrays
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of a PSD Hermitian matrix, or of
    each matrix of a ``(..., d, d)`` stack.

    Eigenvalues in ``[-EIG_NEGATIVE_ERR, 0)`` = ``[-1e-6, 0)`` are clamped
    to zero; anything below ``-EIG_NEGATIVE_ERR``, in any matrix, raises,
    since that is no longer numerical noise.
    """
    vals, vecs = herm_eig(m)
    if vals.min() < -EIG_NEGATIVE_ERR:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ dagger(vecs)


def trace_norm(m: np.ndarray):
    """Sum of absolute eigenvalues of a Hermitian matrix: a float, or an
    array of one per matrix of a ``(..., d, d)`` stack."""
    vals, _ = herm_eig(m)
    return float_or_rows(np.abs(vals).sum(axis=-1))


def check_density(m: np.ndarray) -> None:
    """Raise ValueError unless ``m``, a matrix or a ``(..., d, d)`` stack,
    holds only density matrices: finite, Hermitian, of unit trace and
    positive semidefinite, each within its tolerance.

    The checks run in that order over the whole stack; a message quotes
    the first matrix that fails.

    Positivity is certified by one batched Cholesky factorization of
    H + τI, with H = (m + m†)/2 and τ = `CHOLESKY_SHIFT` = 0.999·EIG_CLAMP.
    If it completes, Higham's bound (Thm 10.3) gives every matrix
    λmin(H) ≥ −τ − γ_{d+1}·tr(H + τI) > −EIG_CLAMP, the error term being
    about 7e-15 at d = 64, and the stack passes. Otherwise the smallest
    eigenvalue of each H is computed (`eigvalsh`) and any below −EIG_CLAMP
    raises; a matrix whose λmin lies between −EIG_CLAMP and −τ passes there.
    """
    if not np.isfinite(m).all():
        raise ValueError("non-finite matrix entry")
    m_dagger = dagger(m)
    if not np.max(np.abs(m - m_dagger)) <= HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    tr = m.trace(axis1=-2, axis2=-1).real
    off = abs(tr - 1.0) > TRACE_TOL
    if off.any():
        bad = float(np.ravel(tr)[np.ravel(off)][0])
        raise ValueError(f"trace = {bad!r}, expected 1")
    # complex / real runs numpy's complex-divide loop, which multiplies by 1/x
    h = (m + m_dagger) * 0.5
    try:
        np.linalg.cholesky(h + CHOLESKY_SHIFT * np.eye(h.shape[-1]))
        return
    except np.linalg.LinAlgError:
        pass
    min_eig = np.linalg.eigvalsh(h)[..., 0]
    low = min_eig < -EIG_CLAMP
    if low.any():
        bad = np.ravel(min_eig)[np.ravel(low)][0]
        raise ValueError(f"min eigenvalue {bad:.3e} below -1e-9")


def _as_labels(labels: Iterable[str]) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels: {labels}")
    return labels


def check_amplitudes(amps) -> np.ndarray:
    """``amps`` as a flat complex vector; ValueError unless every entry is
    finite and the squared norm is 1 within `NORM_TOL`."""
    amps = np.asarray(amps, dtype=complex).ravel()
    if not np.all(np.isfinite(amps.view(float))):
        raise ValueError("non-finite amplitude")
    norm2 = float(np.vdot(amps, amps).real)
    if abs(norm2 - 1.0) > NORM_TOL:
        raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")
    return amps


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a labeled qubit register."""

    amplitudes: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        labels = _as_labels(self.labels)
        if amps.size != 2 ** len(labels):
            raise ValueError(
                f"{len(labels)} labels but amplitude vector of length {amps.size}"
            )
        object.__setattr__(self, "amplitudes", check_amplitudes(amps))
        object.__setattr__(self, "labels", labels)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def to_density(self) -> "DensityMatrix":
        rho = np.outer(self.amplitudes, np.conj(self.amplitudes))
        return DensityMatrix(rho, self.labels)

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(np.kron(self.amplitudes, other.amplitudes),
                         self.labels + other.labels)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator on a labeled qubit register."""

    matrix: np.ndarray
    labels: tuple[str, ...]
    # every instance is checked; the constant stays only because
    # bench/tracing.py reads it
    validate: ClassVar[bool] = True

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        labels = _as_labels(self.labels)
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        check_density(mat)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", labels)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def partial_trace(self, keep: Sequence[str]) -> "DensityMatrix":
        """Reduced density matrix on the labels in ``keep``.

        The output label order follows this state's label order, not the
        order of ``keep``. Trace is preserved.
        """
        keep_set = set(str(k) for k in keep)
        if not keep_set:
            raise ValueError("keep set must be non-empty")
        unknown = keep_set - set(self.labels)
        if unknown:
            raise KeyError(f"unknown qubit labels: {sorted(unknown)}")

        n = self.num_qubits
        kept_pos = [i for i, lab in enumerate(self.labels) if lab in keep_set]
        traced_pos = [i for i in range(n) if i not in kept_pos]

        t = self.matrix.reshape((2,) * (2 * n))
        # contract each traced row axis with its column partner
        for offset, pos in enumerate(traced_pos):
            t = np.trace(t, axis1=pos - offset,
                         axis2=pos - offset + (n - offset))
        k = len(kept_pos)
        reduced = t.reshape(2 ** k, 2 ** k)
        new_labels = tuple(self.labels[i] for i in kept_pos)
        return DensityMatrix(reduced, new_labels)


_S = 1 / np.sqrt(2)
# amplitudes on |HH>, |HV>, |VH>, |VV>
_BELL = {"phi+": (_S, 0, 0, _S), "phi-": (_S, 0, 0, -_S),
         "psi+": (0, _S, _S, 0), "psi-": (0, _S, -_S, 0)}
# the names `InputSpec.from_name` reads besides schmidt:<theta>
_INPUT_NAMES = ("phi+", "psi+", "psi-")


def bell_state(which: str, labels: Sequence[str] = ("a", "b")) -> PureState:
    """One of the four Bell states: 'phi+', 'phi-', 'psi+', 'psi-'."""
    if which not in _BELL:
        raise ValueError(f"unknown Bell state {which!r}")
    return PureState(_BELL[which], tuple(labels))


@dataclass(frozen=True)
class InputSpec:
    """Two-qubit pure input of the cloning network: its amplitudes on |HH>,
    |HV>, |VH>, |VV>, checked as `PureState` checks them when it is built.
    `from_name` reads ``phi+``, ``psi+``, ``psi-`` and ``schmidt:<theta>``,
    cos t |HH> + sin t |VV> with t in radians."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        amps = PureState(self.amplitudes, ("1", "2")).amplitudes
        object.__setattr__(self, "amplitudes", tuple(amps.tolist()))

    def state(self, labels=("1", "2")) -> PureState:
        return PureState(self.amplitudes, labels)

    @staticmethod
    def from_name(name: str) -> "InputSpec":
        name = name.strip()
        if name in _INPUT_NAMES:
            return InputSpec(_BELL[name])
        if not name.startswith("schmidt:"):
            raise ValueError(f"unknown input state {name!r}")
        angle = name.split(":", 1)[1]
        try:
            theta = float(angle)
        except ValueError:
            theta = math.nan
        if not math.isfinite(theta):
            raise ValueError("schmidt angle must be a finite number of "
                             f"radians, got {angle!r}")
        return InputSpec((math.cos(theta), 0, 0, math.sin(theta)))


def _sigma() -> np.ndarray:
    phi = bell_state("phi+").amplitudes
    return (4.0 / 9.0) * np.outer(phi, np.conj(phi)) + (5.0 / 36.0) * np.eye(4)


# the names `named_density` reads besides the input names, each with the
# builder of its matrix
_DENSITIES = {"sigma": _sigma, "mixed": lambda: np.eye(4) / 4.0}


def named_density(name: str) -> DensityMatrix | None:
    """The named two-qubit state on labels ("a", "b"): an input name, the
    symmetric clone ``sigma`` = 4/9 |Phi+><Phi+| + 5/36 I or ``mixed`` =
    I/4. None for a name outside the table; a bad schmidt angle raises."""
    name = name.strip()
    if name in _DENSITIES:
        return DensityMatrix(_DENSITIES[name](), ("a", "b"))
    try:
        spec = InputSpec.from_name(name)
    except ValueError:
        if name.startswith("schmidt:"):
            raise  # names the bad angle
        return None
    return spec.state(("a", "b")).to_density()
