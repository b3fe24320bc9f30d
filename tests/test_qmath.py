import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import random_density, random_unitary
from entclone import qmath
from entclone.qmath import (EIG_CLAMP, DensityMatrix, PureState, bell_state,
                            dagger, herm_eig, kron, psd_sqrt, trace_norm)

I2 = np.eye(2)
I4 = np.eye(4)

# spectrum of sigma = 4/9 |Phi+><Phi+| + 5/36 I in the Bell basis
SIGMA_SPECTRUM = np.array([21 / 36, 5 / 36, 5 / 36, 5 / 36])


def sigma_matrix():
    phi = bell_state("phi+").amplitudes
    return (4 / 9) * np.outer(phi, phi.conj()) + (5 / 36) * I4


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(I2, I2), I4)

    def test_pauli_zz(self):
        assert np.allclose(kron(qmath.SZ, qmath.SZ),
                           np.diag([1, -1, -1, 1]))

    def test_beamsplitter_block(self):
        # spatial 2x2 block of the R = 1/3 transformation, extended by I2
        r = 1 / 3
        u = np.array([[np.sqrt(1 - r), 1j * np.sqrt(r)],
                      [1j * np.sqrt(r), np.sqrt(1 - r)]])
        m = kron(u, I2)
        assert m.shape == (4, 4)
        assert np.isclose(m[0, 0], np.sqrt(2 / 3))
        assert np.isclose(m[0, 2], 1j * np.sqrt(1 / 3))
        assert np.isclose(m[2, 0], 1j * np.sqrt(1 / 3))
        assert np.isclose(m[3, 3], np.sqrt(2 / 3))
        # only the two distinct magnitudes appear
        mags = set(np.round(np.abs(m[np.abs(m) > 1e-12]), 12))
        assert mags == {round(np.sqrt(2 / 3), 12), round(np.sqrt(1 / 3), 12)}

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-10


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        rho = bell_state("phi+", ("1", "2")).to_density()
        red = rho.partial_trace(["1"])
        assert red.labels == ("1",)
        assert np.allclose(red.matrix, I2 / 2)

    def test_product_state_factorizes(self, rng):
        rho_a = random_density(rng, 1, ("A",))
        rho_b = random_density(rng, 1, ("B",))
        joint = DensityMatrix(kron(rho_a.matrix, rho_b.matrix), ("A", "B"))
        assert np.allclose(joint.partial_trace(["A"]).matrix, rho_a.matrix)
        assert np.allclose(joint.partial_trace(["B"]).matrix, rho_b.matrix)

    def test_sigma_marginal(self):
        # direct computation from the Werner form: marginals are I/2
        rho = DensityMatrix(sigma_matrix(), ("1'", "2'"))
        assert np.allclose(rho.partial_trace(["1'"]).matrix, I2 / 2)

    def test_unknown_label_raises(self):
        rho = bell_state("phi+", ("1", "2")).to_density()
        with pytest.raises(KeyError):
            rho.partial_trace(["nope"])

    def test_sequential_equals_joint(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4, ("a", "b", "c", "d"))
            joint = rho.partial_trace(["b", "d"])
            seq = rho.partial_trace(["b", "c", "d"]).partial_trace(["b", "d"])
            assert np.max(np.abs(joint.matrix - seq.matrix)) < 1e-12

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 3, ("a", "b", "c"))
        red = rho.partial_trace(["b"])
        assert abs(np.trace(red.matrix) - 1) < 1e-12


class TestHermEig:
    def test_identity(self):
        vals, vecs = herm_eig(I4)
        assert np.allclose(vals, np.ones(4))

    def test_pauli_x(self):
        vals, vecs = herm_eig(qmath.SX)
        assert np.allclose(vals, [1, -1])
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(vecs[:, 0], plus)) - 1) < 1e-12

    def test_sigma_spectrum(self):
        vals, _ = herm_eig(sigma_matrix())
        assert np.allclose(vals, SIGMA_SPECTRUM, atol=1e-12)

    def test_descending_and_reconstruction(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 17))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = (a + a.conj().T) / 2
            vals, vecs = herm_eig(m)
            assert np.all(np.diff(vals) <= 1e-12)
            recon = (vecs * vals) @ vecs.conj().T
            assert np.max(np.abs(recon - m)) < 1e-9

    def test_non_hermitian_raises(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(I4), I4)

    def test_rank_one(self):
        proj = np.zeros((2, 2))
        proj[0, 0] = 4.0
        assert np.allclose(psd_sqrt(proj), proj / 2)

    def test_sigma_sqrt(self):
        s = psd_sqrt(sigma_matrix())
        # eigenvalues must be the square roots of the Bell-diagonal spectrum
        vals, _ = herm_eig(s)
        assert np.allclose(vals, np.sqrt(SIGMA_SPECTRUM), atol=1e-10)
        assert np.max(np.abs(s @ s - sigma_matrix())) < 1e-8

    def test_squares_back(self, rng):
        for _ in range(20):
            rho = random_density(rng, 2).matrix
            s = psd_sqrt(rho)
            assert np.max(np.abs(s @ s - rho)) < 1e-8

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            psd_sqrt(-I2)


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(I4) == pytest.approx(4.0)

    def test_pauli_z(self):
        assert trace_norm(qmath.SZ) == pytest.approx(2.0)

    def test_sigma_minus_bell(self):
        phi = bell_state("phi+").amplitudes
        diff = sigma_matrix() - np.outer(phi, phi.conj())
        # Bell-diagonal difference has eigenvalues -15/36, 5/36 (x3)
        assert trace_norm(diff) == pytest.approx(5 / 6, abs=1e-12)

    def test_unitary_invariance(self, rng):
        for _ in range(10):
            m = random_density(rng, 2).matrix - I4 / 4
            u = random_unitary(rng, 4)
            assert abs(trace_norm(u @ m @ u.conj().T) - trace_norm(m)) < 1e-9


class TestStateTypes:
    def test_pure_state_normalization_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), ("q",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            PureState(np.array([1, 0, 0, 0], dtype=complex), ("a", "a"))

    def test_density_invariants_enforced(self):
        bad = np.array([[0.5, 0.5j], [0.5j, 0.5]])  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(bad, ("q",))
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2), ("q",))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]), ("q",))  # negative eigenvalue

    @pytest.mark.parametrize("bad", [
        np.eye(4) / 2,  # trace 2
        np.eye(4) / 4 + np.eye(4, k=1) / 10,  # not Hermitian
        np.diag([1.5, -0.5, 0.0, 0.0]),  # eigenvalue -0.5
        np.diag([np.nan, 1.0, 0.0, 0.0]),  # NaN
    ])
    def test_stack_with_one_bad_row_rejected(self, rng, bad):
        with pytest.raises(ValueError) as alone:
            DensityMatrix(bad, ("a", "b"))
        stack = np.array([random_density(rng).matrix for _ in range(5)])
        qmath.check_density(stack)
        stack[3] = bad
        with pytest.raises(ValueError) as stacked:
            qmath.check_density(stack)
        assert str(stacked.value) == str(alone.value)

    def test_tensor_order(self):
        a = PureState(np.array([1, 0], dtype=complex), ("x",))
        b = PureState(np.array([0, 1], dtype=complex), ("y",))
        joint = a.tensor(b)
        assert joint.labels == ("x", "y")
        assert np.allclose(joint.amplitudes, [0, 1, 0, 0])


def with_min_eigenvalue(rng, dim, min_eig):
    """A unit-trace Hermitian matrix U diag(λ) U† with smallest eigenvalue
    ``min_eig``, U random and the other eigenvalues random above it."""
    rest = min_eig + rng.dirichlet(np.ones(dim - 1)) * (1 - dim * min_eig)
    u = random_unitary(rng, dim)
    return (u * np.concatenate([[min_eig], rest])) @ u.conj().T


class TestCheckDensityThreshold:
    """`check_density` passes a stack whose shifted Cholesky factorization
    completes without computing a spectrum, and decides every other stack
    from its eigenvalues."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "row"])
    @pytest.mark.parametrize("dim", [4, 64])
    @pytest.mark.parametrize("factor, verdict", [
        (0.99, "certified"),
        (0.9995, "fallback"),  # between the shift and EIG_CLAMP
        (1.01, "min eigenvalue -1.010e-09 below -1e-9"),
    ])
    def test_min_eigenvalue_at_the_threshold(self, rng, eigvalsh_calls,
                                             dim, stacked, factor, verdict):
        m = with_min_eigenvalue(rng, dim, -factor * EIG_CLAMP)
        if stacked:
            n_qubits = dim.bit_length() - 1
            m = np.array([random_density(rng, n_qubits).matrix, m,
                          random_density(rng, n_qubits).matrix])
        if verdict.startswith("min eigenvalue"):
            with pytest.raises(ValueError) as exc:
                qmath.check_density(m)
            assert str(exc.value) == verdict
        else:
            qmath.check_density(m)
        expected_calls = [] if verdict == "certified" else [m.shape]
        assert eigvalsh_calls == expected_calls

    @given(dim=st.sampled_from([2, 4, 16, 64]),
           rows=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_raises_exactly_when_a_spectrum_does(self, dim, rows, seed, data):
        # min eigenvalues near -EIG_CLAMP on either side, or anywhere a
        # unit-trace matrix allows; rows = 0 checks one matrix alone
        near = st.tuples(st.sampled_from([-1.0, 1.0]),
                         st.floats(-3.0, 0.0)).map(
            lambda t: -EIG_CLAMP * (1 + t[0] * 10 ** t[1]))
        anywhere = st.floats(-0.1, 1 / dim)
        rng = np.random.default_rng(seed)
        mins = [data.draw(st.one_of(near, anywhere))
                for _ in range(max(rows, 1))]
        m = np.array([with_min_eigenvalue(rng, dim, x) for x in mins])
        # an anti-Hermitian part within HERMITICITY_TOL, which only the
        # symmetrization removes
        noise = rng.standard_normal(m.shape) * 1e-12
        m = m + 1j * (noise + np.swapaxes(noise, -1, -2))
        if not rows:
            m = m[0]
        # the reference: positivity decided from the full spectrum
        min_eig = np.linalg.eigvalsh((m + dagger(m)) / 2)[..., 0]
        assume(np.all(abs(min_eig + EIG_CLAMP) >= 1e-12))
        low = min_eig < -EIG_CLAMP
        if not low.any():
            qmath.check_density(m)
            return
        with pytest.raises(ValueError) as exc:
            qmath.check_density(m)
        bad = np.ravel(min_eig)[np.ravel(low)][0]
        assert str(exc.value) == f"min eigenvalue {bad:.3e} below -1e-9"
