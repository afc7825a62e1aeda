"""Hermitian eigendecomposition."""

import numpy as np
import pytest

from kickedtop import (
    DimensionMismatch,
    NotHermitian,
    hermitian_eigen,
)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def test_hermitian_eigen_matches_lapack_and_reconstructs():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 5, 8, 13):
        h = random_hermitian(rng, dim)
        dec = hermitian_eigen(h)
        assert np.all(np.diff(dec.values) >= 0)
        np.testing.assert_allclose(dec.values, np.linalg.eigvalsh(h), atol=1e-12)
        recon = (dec.vectors * dec.values) @ dec.vectors.conj().T
        np.testing.assert_allclose(recon, h, atol=1e-12)
        gram = dec.vectors.conj().T @ dec.vectors
        np.testing.assert_allclose(gram, np.eye(dim), atol=1e-12)


def test_hermitian_eigen_on_a_stack_matches_matrix_by_matrix():
    rng = np.random.default_rng(3)
    stack = np.stack([random_hermitian(rng, 4) for _ in range(6)])
    dec = hermitian_eigen(stack)
    assert dec.values.shape == (6, 4) and dec.vectors.shape == (6, 4, 4)
    for h, values, vectors in zip(stack, dec.values, dec.vectors):
        one = hermitian_eigen(h)
        np.testing.assert_array_equal(values, one.values)
        np.testing.assert_array_equal(vectors, one.vectors)
    stack[4, 0, 1] += 1e-3
    with pytest.raises(NotHermitian):
        hermitian_eigen(stack)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # just inside the tolerance is accepted
    h = np.array([[1.0, 0.5 + 5e-11j], [0.5 - 0.0j, 2.0]])
    hermitian_eigen(h)


def test_hermitian_eigen_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        hermitian_eigen(np.zeros((2, 3)))


def test_hermitian_eigen_keeps_a_real_input_real():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    h = (a + a.T) / 2
    dec = hermitian_eigen(h)
    assert dec.values.dtype == np.float64 and dec.vectors.dtype == np.float64
    np.testing.assert_allclose((dec.vectors * dec.values) @ dec.vectors.T, h, atol=1e-12)
    np.testing.assert_allclose(dec.values, hermitian_eigen(h.astype(complex)).values, atol=1e-12)
    with pytest.raises(NotHermitian):
        hermitian_eigen(h + np.triu(np.full((6, 6), 1e-3), k=1))
