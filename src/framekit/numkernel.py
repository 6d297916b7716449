"""Deterministic dense linear algebra kernel.

All higher layers funnel their numerics through this module so that rank
decisions, pseudo-inverses and spectral functions are taken with one shared
tolerance policy.  Matrices are dense complex128 throughout; inputs are
validated (shape, finiteness) before any factorization runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """A factorization failed to converge or produced unusable output."""


@dataclass(frozen=True)
class Tolerance:
    """Shared tolerance policy.

    rel_rank_tol: singular values below rel_rank_tol * sigma_max are treated
        as zero when deciding rank, truncating pseudo-inverses, or selecting
        spectral supports.
    eq_tol: absolute/relative slack used when testing algebraic identities
        (Hermitian symmetry, biorthogonality, residuals).
    """

    rel_rank_tol: float = 1e-10
    eq_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rel_rank_tol", "eq_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")


DEFAULT_TOL = Tolerance()


def as_stack(a) -> np.ndarray:
    """Coerce to a complex128 array of matrices, shape (..., m, n), and reject
    non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    return as_stack(m)


def ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a matrix or a (..., m, n) stack.  Returns (U, s, V) with
    M = U @ diag(s) @ V^H for every matrix.

    Singular values are non-negative and non-increasing.  Factorization
    failures surface as NumericalError, never as silent garbage.
    """
    m = as_stack(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return u, s, ct(vh)


def singular_values(m) -> np.ndarray:
    """Singular values, non-increasing along the last axis, of a matrix or a stack."""
    m = as_stack(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def rank_mask(s: np.ndarray, rel_tol: float) -> np.ndarray:
    """Per-matrix support of non-increasing singular values s (..., k): True
    where s > rel_tol * s[..., 0]; all False for a zero matrix."""
    top = s[..., :1]
    return (s > rel_tol * top) & (top > 0.0)


def rank(m, tol: Tolerance = DEFAULT_TOL):
    """Numerical rank with the relative cutoff tol.rel_rank_tol * sigma_max,
    an int for a matrix and an int array for a (..., m, n) stack."""
    r = rank_mask(singular_values(m), tol.rel_rank_tol).sum(axis=-1)
    return int(r) if r.ndim == 0 else r


def pinv(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared rank cutoff."""
    u, s, v = svd(as_matrix(m))
    keep = rank_mask(s, tol.rel_rank_tol)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (v * inv) @ u.conj().T


def orth(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the column space, as matrix columns.

    The basis has exactly rank(m) columns; a zero or empty input yields a
    d x 0 matrix.
    """
    u, s, _ = svd(as_matrix(m))
    return np.ascontiguousarray(u[:, rank_mask(s, tol.rel_rank_tol)])


def psd_power(m, power: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Spectral power of a positive semidefinite matrix.

    Negative powers act on the support only (pseudo-inverse convention), so
    psd_power(G, -0.5) is the square root of the pseudo-inverse.  Inputs must
    be Hermitian within eq_tol and have spectrum >= -eq_tol, both relative to
    the matrix scale; anything else is a domain error.
    """
    m = as_matrix(m)
    n, k = m.shape
    if n != k:
        raise ValueError(f"psd_power needs a square matrix, got {n}x{k}")
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    scale = 1.0 + float(np.abs(m).max())
    herm_dev = float(np.abs(m - m.conj().T).max())
    if herm_dev > tol.eq_tol * scale:
        raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
    h = (m + m.conj().T) / 2.0
    try:
        eigvals, eigvecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    top = max(float(eigvals[-1]), 0.0)
    if float(eigvals[0]) < -tol.eq_tol * max(1.0, top):
        raise ValueError(f"matrix is not positive semidefinite (eigenvalue {eigvals[0]:.3e})")
    eigvals = np.clip(eigvals, 0.0, None)
    support = eigvals > tol.rel_rank_tol * top if top > 0.0 else np.zeros(n, dtype=bool)
    powered = np.zeros(n)
    powered[support] = eigvals[support] ** power
    out = (eigvecs * powered) @ eigvecs.conj().T
    return (out + out.conj().T) / 2.0
