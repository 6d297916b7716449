"""Kernel-level checks: SVD, rank, orth, the factorization funnel, and the
pseudo-inverse and spectral-power oracles the engine is tested against."""

import ast
import pathlib

import numpy as np
import pytest

import framekit
from framekit.numkernel import (
    DEFAULT_TOL,
    NumericalError,
    Tolerance,
    as_matrix,
    orth,
    rank,
    singular_values,
    svd,
)
from oracles import pinv, psd_power

FACTORIZATIONS = {"svd", "eigh", "eigvalsh", "qr", "solve", "lstsq", "pinv", "inv"}


def random_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def test_tolerance_validation():
    Tolerance(1e-12, 1e-6)
    for bad in ({"rel_rank_tol": 0.0}, {"rel_rank_tol": 1.0}, {"eq_tol": -1e-8}, {"eq_tol": 2.0}):
        with pytest.raises(ValueError):
            Tolerance(**bad)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])


def test_svd_diagonal_case():
    u, s, v = svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])
    # Diagonal positive input: factors are the identity up to phase.
    assert np.allclose(np.abs(u), np.eye(2), atol=1e-14)
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-14)
    assert np.allclose(u @ np.diag(s) @ v.conj().T, np.diag([3.0, 1.0]), atol=1e-14)


def test_svd_rank_one_ones():
    m = np.ones((2, 2))
    s = singular_values(m)
    # Oracle: eigenvalues of M^H M = [[2,2],[2,2]] are 4 and 0.
    oracle = np.sqrt(np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1])
    assert np.allclose(s, oracle, atol=1e-12)
    assert np.allclose(s, [2.0, 0.0], atol=1e-12)


def test_svd_reconstruction_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d, r = rng.integers(1, 33, size=2)
        m = random_complex(rng, d, r)
        u, s, v = svd(m)
        top = s[0] if s.size else 0.0
        assert np.abs(u @ np.diag(s) @ v.conj().T - m).max() <= 1e-12 * max(1.0, top)
        k = min(d, r)
        assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(k), atol=1e-12)
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(s >= 0.0)


def test_pinv_identity_and_diagonal():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_column_vector():
    m = np.array([[1.0], [1.0]])
    # Oracle for full column rank: (M^H M)^{-1} M^H.
    oracle = np.linalg.inv(m.conj().T @ m) @ m.conj().T
    assert np.allclose(pinv(m), oracle, atol=1e-14)
    assert np.allclose(pinv(m), [[0.5, 0.5]], atol=1e-14)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d, r = rng.integers(1, 13, size=2)
        m = random_complex(rng, d, r)
        if rng.uniform() < 0.3:
            m[:, : max(1, r // 2)] = 0.0
        p = pinv(m)
        tol = DEFAULT_TOL.eq_tol
        assert np.abs(m @ p @ m - m).max() <= tol
        assert np.abs(p @ m @ p - p).max() <= tol
        assert np.abs((m @ p) - (m @ p).conj().T).max() <= tol
        assert np.abs((p @ m) - (p @ m).conj().T).max() <= tol


def test_pinv_of_pinv_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = random_complex(rng, 6, 4)
        assert np.abs(pinv(pinv(m)) - m).max() <= 1e-10


def test_pinv_zero_matrix():
    assert np.allclose(pinv(np.zeros((3, 2))), np.zeros((2, 3)))


def test_rank_examples():
    assert rank(np.zeros((4, 4))) == 0
    assert rank(np.eye(5)) == 5
    assert rank(np.ones((3, 3))) == 1
    m = np.array([[1.0, 1.0], [0.0, 1e-14]])
    assert rank(m) == 1


def test_rank_invariants():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d, r = rng.integers(1, 13, size=2)
        k = int(rng.integers(0, min(d, r) + 1))
        m = random_complex(rng, d, k) @ random_complex(rng, k, r) if k else np.zeros((d, r))
        assert rank(m) == k
        assert rank(m.conj().T) == k
        assert rank(m.conj().T @ m) == k


def test_orth_examples():
    b = orth(np.array([[2.0], [0.0]]))
    assert b.shape == (2, 1)
    assert np.allclose(b @ b.conj().T, np.diag([1.0, 0.0]), atol=1e-14)

    b = orth(np.ones((2, 2)))
    assert b.shape == (2, 1)
    assert np.allclose(b @ b.conj().T, np.ones((2, 2)) / 2.0, atol=1e-14)

    b = orth(np.eye(3))
    assert b.shape == (3, 3)
    assert np.allclose(b @ b.conj().T, np.eye(3), atol=1e-12)

    assert orth(np.zeros((3, 2))).shape == (3, 0)


def test_orth_property():
    rng = np.random.default_rng(19)
    for _ in range(50):
        d, r = rng.integers(1, 13, size=2)
        m = random_complex(rng, d, r)
        b = orth(m)
        assert b.shape == (d, rank(m))
        assert np.allclose(b.conj().T @ b, np.eye(b.shape[1]), atol=1e-12)
        # Columns of m lie in the span of b.
        assert np.abs(b @ (b.conj().T @ m) - m).max() <= 1e-10 * max(1.0, np.abs(m).max())


def test_psd_power_diagonal():
    g = np.diag([4.0, 0.0])
    assert np.allclose(psd_power(g, 0.5), np.diag([2.0, 0.0]), atol=1e-14)
    assert np.allclose(psd_power(g, -0.5), np.diag([0.5, 0.0]), atol=1e-14)
    assert np.allclose(psd_power(g, -1.0), np.diag([0.25, 0.0]), atol=1e-14)


def test_psd_power_rank_one():
    g = np.ones((2, 2))
    # Oracle: eigenpair (2, (1,1)/sqrt 2); inverse square root on the support
    # is 2^{-1/2} times the rank-one projector.
    oracle = (2.0 ** -0.5) * np.ones((2, 2)) / 2.0
    assert np.allclose(psd_power(g, -0.5), oracle, atol=1e-14)
    assert abs(oracle[0, 0] - 0.3535533905932738) < 1e-16


def test_psd_power_square_root_squares_back():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(1, 17))
        k = int(rng.integers(0, d + 1))
        m = random_complex(rng, d, k) if k else np.zeros((d, 1))
        g = m @ m.conj().T
        root = psd_power(g, 0.5)
        assert np.abs(root @ root - g).max() <= 1e-8 * max(1.0, np.abs(g).max())
        # Support projector: G^{1/2} G^{-1/2} agrees with G^0 on the support.
        proj = psd_power(g, 0.0)
        assert np.abs(proj @ proj - proj).max() <= 1e-10


def test_psd_power_domain_errors():
    with pytest.raises(ValueError):
        psd_power(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
    with pytest.raises(ValueError):
        psd_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        psd_power(np.zeros((2, 3)), 0.5)


def test_psd_power_zero_matrix():
    assert np.allclose(psd_power(np.zeros((3, 3)), -0.5), np.zeros((3, 3)))


def test_numerical_error_is_runtime_error():
    assert issubclass(NumericalError, RuntimeError)


def test_numkernel_is_the_only_factorization_caller():
    """No module of the package but numkernel calls a numpy.linalg
    factorization, so every rank decision and failure goes through one place."""
    offenders = []
    for path in sorted(pathlib.Path(framekit.__file__).parent.glob("*.py")):
        if path.name == "numkernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                offenders += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names]
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and func.attr in FACTORIZATIONS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "linalg"
            ):
                offenders.append(f"{path.name}:{node.lineno} calls linalg.{func.attr}")
    assert offenders == []
