"""Deterministic dense linear algebra kernel.

All higher layers funnel their numerics through this module, the only one
that calls a numpy.linalg factorization (SVD and QR; duals are read off SVD
factors, never off a linear solve), so that every rank decision is taken
with the one relative cutoff REL_RANK_TOL, a constant: span dimensions,
pseudo-inverse supports, and the Gramian supports behind frame bounds and
Parseval tightening, which are the span supports themselves.  Every
threshold a check reads is a field of one Tolerance: that cutoff, read-only,
and the settable eq_tol, angle_tol and c_max.  One constant is not a
threshold on the input and stays apart: mispace._COS_SNAP snaps cosines
within rounding of 0 or 1 so that the angle identities survive the
cancellation in 1 - s^2.  Matrices are dense
complex128 throughout; inputs are validated (shape, finiteness) before any
factorization runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericalError(RuntimeError):
    """A factorization failed to converge or produced unusable output."""


# Singular values at most REL_RANK_TOL * sigma_max count as zero when deciding
# rank, truncating pseudo-inverses, or selecting spectral supports.
REL_RANK_TOL = 1e-10


@dataclass(frozen=True, kw_only=True)
class Tolerance:
    """Every threshold of the checks, set by keyword and validated here.

    rel_rank_tol: the rank cutoff REL_RANK_TOL, read-only.
    eq_tol: absolute/relative slack used when testing algebraic identities
        (orthonormality, residuals), and the ratio lower / upper of frame
        bounds that a frame must exceed.
    angle_tol: the cutoff a cosine must exceed to count as positive.
    c_max: the largest pinv_norm of a "verified" witness dual.
    """

    rel_rank_tol: float = field(default=REL_RANK_TOL, init=False)
    eq_tol: float = 1e-8
    angle_tol: float = 1e-8
    c_max: float = 1e8

    def __post_init__(self):
        for name in ("eq_tol", "angle_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")
        if not 0.0 < self.c_max < np.inf:
            raise ValueError(f"c_max must be finite and positive, got {self.c_max!r}")


DEFAULT_TOL = Tolerance()


def as_stack(a) -> np.ndarray:
    """Coerce to a complex128 array of matrices, shape (..., m, n), and reject
    non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
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


def rank_mask(s: np.ndarray) -> np.ndarray:
    """Per-matrix support of non-increasing singular values s (..., k): True
    where s > REL_RANK_TOL * s[..., 0]; all False for a zero matrix."""
    top = s[..., :1]
    return (s > REL_RANK_TOL * top) & (top > 0.0)


def rank(m):
    """Numerical rank with the relative cutoff REL_RANK_TOL * sigma_max, an
    int for a matrix and an int array for a (..., m, n) stack."""
    r = rank_mask(singular_values(m)).sum(axis=-1)
    return int(r) if r.ndim == 0 else r


def orth(m) -> np.ndarray:
    """Orthonormal basis for the column space, as matrix columns.

    The basis has exactly rank(m) columns; a zero or empty input yields a
    d x 0 matrix.
    """
    u, s, _ = svd(as_matrix(m))
    return np.ascontiguousarray(u[:, rank_mask(s)])


def qr(m) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization M = Q R of a matrix or a (..., m, n) stack."""
    m = as_stack(m)
    try:
        return np.linalg.qr(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"QR factorization failed: {exc}") from exc
