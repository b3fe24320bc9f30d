"""Scalar entanglement and distance measures for small density matrices."""

from __future__ import annotations

import numpy as np

from . import qmath
from .qmath import (ConsistencyError, DensityMatrix, PureState, herm_eig,
                    kron, psd_sqrt)

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)

_PAULI = {"X": qmath.SX, "Y": qmath.SY, "Z": qmath.SZ}
PAULI_BASES = ("X", "Y", "Z")
# two-qubit operators built once, at import
_PAULI_PRODUCTS = {(a, b): kron(_PAULI[a], _PAULI[b])
                   for a in PAULI_BASES for b in PAULI_BASES}
_WITNESS = 0.5 * np.eye(4) - np.outer(PHI_PLUS, np.conj(PHI_PLUS))


def _mat(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _vec(state) -> np.ndarray:
    if isinstance(state, PureState):
        return state.amplitudes
    return np.asarray(state, dtype=complex).ravel()


def fidelity_to_pure(rho, target) -> float:
    """Overlap <t|rho|t> of a mixed state with a pure target."""
    m = _mat(rho)
    t = _vec(target)
    if m.shape[0] != t.size:
        raise ValueError(f"dimension mismatch: {m.shape[0]} vs {t.size}")
    return float(np.vdot(t, m @ t).real)


def pauli_correlation(rho, basis_a: str, basis_b: str) -> float:
    """Two-qubit correlation Tr[rho (sigma_a x sigma_b)]."""
    m = _mat(rho)
    if m.shape != (4, 4):
        raise ValueError("pauli_correlation requires a two-qubit state")
    if basis_a not in _PAULI or basis_b not in _PAULI:
        raise ValueError(f"bases must be in {PAULI_BASES}")
    return _expectation(m, _PAULI_PRODUCTS[basis_a, basis_b])


def _expectation(m: np.ndarray, op: np.ndarray) -> float:
    return float((m @ op).trace().real)


def witness_expectation(rho) -> float:
    """Expectation of the witness (1/2)I - |Phi+><Phi+|; negative => entangled.

    Evaluated both directly and through the three-correlation expansion
    (1/4)(1 - <XX> + <YY> - <ZZ>); the two agree identically and the
    agreement is checked internally (`ConsistencyError` if they differ).
    """
    m = _mat(rho)
    if m.shape != (4, 4):
        raise ValueError("witness_expectation requires a two-qubit state")
    direct = _expectation(m, _WITNESS)
    expanded = 0.25 * (1.0
                       - pauli_correlation(m, "X", "X")
                       + pauli_correlation(m, "Y", "Y")
                       - pauli_correlation(m, "Z", "Z"))
    if abs(direct - expanded) > 1e-10:
        raise ConsistencyError(
            f"witness forms disagree: {direct} vs {expanded}"
        )
    return direct


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    Complex conjugation is taken in the computational (H/V) basis.
    """
    m = _mat(rho)
    if m.shape != (4, 4):
        raise ValueError("concurrence requires a two-qubit state")
    yy = _PAULI_PRODUCTS["Y", "Y"]
    m_tilde = yy @ m.conj() @ yy
    vals = np.linalg.eigvals(m @ m_tilde)
    vals = np.sqrt(np.maximum(vals.real, 0.0))
    vals = np.sort(vals)[::-1]
    return float(max(0.0, vals[0] - vals[1] - vals[2] - vals[3]))


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(p log2 p) in bits; eigenvalues clamped at zero."""
    vals, _ = herm_eig(_mat(rho))
    vals = np.maximum(vals, 0.0)
    vals = vals[vals > 0.0]
    return float(-(vals * np.log2(vals)).sum())


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference, in [0, 1]."""
    ma, mb = _mat(a), _mat(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    return 0.5 * qmath.trace_norm(ma - mb)


def uhlmann_fidelity(a, b) -> float:
    """Uhlmann fidelity Tr(sqrt(sqrt(a) b sqrt(a)))^2."""
    ma, mb = _mat(a), _mat(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    sa = psd_sqrt(ma)
    inner = psd_sqrt(sa @ mb @ sa)
    f = float(inner.trace().real ** 2)
    return min(1.0, f)


def ppt_min_eigenvalue(rho) -> float:
    """Smallest eigenvalue of the partial transpose (second qubit).

    For two qubits, negativity of this eigenvalue is exactly equivalent to
    entanglement; used as an independent cross-check of the concurrence.
    """
    m = _mat(rho)
    if m.shape != (4, 4):
        raise ValueError("PPT test requires a two-qubit state")
    t = m.reshape(2, 2, 2, 2)
    pt = np.transpose(t, (0, 3, 2, 1)).reshape(4, 4)
    vals, _ = herm_eig(pt)
    return float(vals[-1])
