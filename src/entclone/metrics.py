"""Entanglement and distance measures for small density matrices.

Each measure takes a state (a `DensityMatrix` or a plain matrix) and returns
a float, or takes a ``(..., d, d)`` stack of states and returns an array of
one value per state, each with the bits that state gives alone. The
two-state measures broadcast, so a stack compares with a single state.
"""

from __future__ import annotations

import numpy as np

from . import qmath
from .qmath import (ConsistencyError, DensityMatrix, PureState, bell_state,
                    check_amplitudes, float_or_rows, herm_eig, kron,
                    psd_sqrt)

PHI_PLUS = bell_state("phi+").amplitudes

_PAULI = {"X": qmath.SX, "Y": qmath.SY, "Z": qmath.SZ}
PAULI_BASES = ("X", "Y", "Z")
# two-qubit operators built once, at import
PAULI_PRODUCTS = {(a, b): kron(_PAULI[a], _PAULI[b])
                  for a in PAULI_BASES for b in PAULI_BASES}
WITNESS = 0.5 * np.eye(4) - np.outer(PHI_PLUS, np.conj(PHI_PLUS))


def _mat(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def fidelity_to_pure(rho, target):
    """Overlap <t|rho|t> of a mixed state with a pure target: a `PureState`
    or a plain vector, checked as `PureState` checks its amplitudes."""
    m = _mat(rho)
    t = (target.amplitudes if isinstance(target, PureState)
         else check_amplitudes(target))
    if m.shape[-1] != t.size:
        raise ValueError(f"dimension mismatch: {m.shape[-1]} vs {t.size}")
    # one np.vdot per state: no stacked product sums <t|m t> in its order
    mt = m @ t
    f = np.array([np.vdot(t, v) for v in mt.reshape(-1, t.size)]).real
    return float_or_rows(f.reshape(mt.shape[:-1]))


def _two_qubit(rho, what: str) -> np.ndarray:
    m = _mat(rho)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"{what} requires a two-qubit state")
    return m


def pauli_correlation(rho, basis_a: str, basis_b: str):
    """Two-qubit correlation Tr[rho (sigma_a x sigma_b)]."""
    m = _two_qubit(rho, "pauli_correlation")
    if basis_a not in _PAULI or basis_b not in _PAULI:
        raise ValueError(f"bases must be in {PAULI_BASES}")
    return _expectation(m, PAULI_PRODUCTS[basis_a, basis_b])


def _expectation(m: np.ndarray, op: np.ndarray):
    return float_or_rows((m @ op).trace(axis1=-2, axis2=-1).real)


def witness_expectation(rho):
    """Expectation of the witness (1/2)I - |Phi+><Phi+|; negative => entangled.

    Evaluated both directly and through the three-correlation expansion
    (1/4)(1 - <XX> + <YY> - <ZZ>); the two agree identically and the
    agreement is checked internally, for every state of a stack
    (`ConsistencyError` if they differ).
    """
    m = _two_qubit(rho, "witness_expectation")
    direct = _expectation(m, WITNESS)
    expanded = 0.25 * (1.0
                       - pauli_correlation(m, "X", "X")
                       + pauli_correlation(m, "Y", "Y")
                       - pauli_correlation(m, "Z", "Z"))
    apart = np.abs(np.subtract(direct, expanded)) > 1e-10
    if apart.any():
        k = np.flatnonzero(apart)[0]
        raise ConsistencyError(
            f"witness forms disagree: {np.ravel(direct)[k]} vs "
            f"{np.ravel(expanded)[k]}"
        )
    return direct


def concurrence(rho):
    """Wootters concurrence of a two-qubit state.

    Complex conjugation is taken in the computational (H/V) basis.
    """
    m = _two_qubit(rho, "concurrence")
    yy = PAULI_PRODUCTS["Y", "Y"]
    m_tilde = yy @ m.conj() @ yy
    vals = np.linalg.eigvals(m @ m_tilde)
    vals = np.sqrt(np.maximum(vals.real, 0.0))
    vals = np.sort(vals, axis=-1)[..., ::-1]
    return float_or_rows(np.maximum(
        0.0, vals[..., 0] - vals[..., 1] - vals[..., 2] - vals[..., 3]))


def von_neumann_entropy(rho):
    """Entropy -sum(p log2 p) in bits; eigenvalues clamped at zero."""
    vals, _ = herm_eig(_mat(rho))
    vals = np.maximum(vals, 0.0)
    # a zero eigenvalue adds 0 log 0 = 0
    logs = np.log2(vals, out=np.zeros_like(vals), where=vals > 0.0)
    return float_or_rows(-(vals * logs).sum(axis=-1))


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    ma, mb = _mat(a), _mat(b)
    if ma.shape[-2:] != mb.shape[-2:]:
        raise ValueError("dimension mismatch")
    return ma, mb


def trace_distance(a, b):
    """Half the trace norm of the difference, in [0, 1]."""
    ma, mb = _pair(a, b)
    return 0.5 * qmath.trace_norm(ma - mb)


def uhlmann_fidelity(a, b):
    """Uhlmann fidelity Tr(sqrt(sqrt(a) b sqrt(a)))^2."""
    ma, mb = _pair(a, b)
    sa = psd_sqrt(ma)
    inner = psd_sqrt(sa @ mb @ sa)
    tr = inner.trace(axis1=-2, axis2=-1).real
    # each square is a float's ** 2, libm's pow: numpy's array square, a
    # product, differs from it in the last bit on about one trace in 1000
    f = np.array([t ** 2 for t in np.ravel(tr).tolist()]).reshape(tr.shape)
    return float_or_rows(np.minimum(1.0, f))

