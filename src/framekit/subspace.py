"""Subspaces of C^d and the two cosine angles between them.

The infimum cosine angle of V against W is the smallest norm of P_W v over
unit vectors v in V; the supremum cosine angle is the largest.  Both reduce
to singular values of the cross product B^H A of orthonormal bases, which is
how they are computed here.  Degenerate cases follow fixed conventions: a
zero V has infimum angle 1 and supremum angle 0, and the infimum angle is 0
whenever dim W < dim V.  The infimum angles of one pair are the one-atom case
of the fiber engine's stacked angle kernel, mispace._inf_cos_pair, and the
endpoint snap of every cosine is mispace.clip_cos, imported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mispace import _inf_cos_pair, clip_cos
from .numkernel import DEFAULT_TOL, as_matrix, ct, orth, singular_values, svd


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^d held as an orthonormal column basis (d x p, p >= 0)."""

    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        gram = b.conj().T @ b
        if gram.size and np.abs(gram - np.eye(b.shape[1])).max() > DEFAULT_TOL.eq_tol:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)
        b.flags.writeable = False

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def span_of(cls, columns) -> "Subspace":
        """Span of the given matrix columns (a d x 0 input gives the zero subspace)."""
        return cls(orth(as_matrix(columns)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        return cls(np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        return cls(np.eye(ambient_dim, dtype=np.complex128))


def _check_same_ambient(v: Subspace, w: Subspace):
    if v.ambient_dim != w.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {v.ambient_dim} vs {w.ambient_dim}"
        )


def _one_atom(v: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """V as a one-atom stack for _inf_cos_pair: the basis, padded with a zero
    column when V is zero, and the dimension."""
    return np.pad(v.basis, ((0, 0), (0, int(v.dim == 0))))[None], np.array([v.dim])


def inf_cos(v: Subspace, w: Subspace) -> float:
    """Infimum cosine angle of V against W.

    Equals min over unit vectors u in V of the norm of P_W u.  Returns 1 for
    a zero V and 0 whenever dim W < dim V (some direction of V must then be
    lost under projection).
    """
    _check_same_ambient(v, w)
    (qv, dim_v), (qw, dim_w) = _one_atom(v), _one_atom(w)
    return float(_inf_cos_pair(singular_values(ct(qw) @ qv), dim_v, dim_w)[0][0])


def sup_cos(v: Subspace, w: Subspace) -> float:
    """Supremum cosine angle of V against W: max norm of P_W u over unit u in V."""
    _check_same_ambient(v, w)
    if v.dim == 0 or w.dim == 0:
        return 0.0
    s = singular_values(w.basis.conj().T @ v.basis)
    return float(clip_cos(s[0]))


def ortho_complement(w: Subspace) -> Subspace:
    """Orthogonal complement of W inside its ambient space.

    Computed by completing the orthonormal basis of W to a unitary, so the
    result always has dimension exactly d - dim W: the thin SVD of W padded
    with zero columns to d x d is a full one.
    """
    d = w.ambient_dim
    if w.dim == 0:
        return Subspace.full(d)
    u, _, _ = svd(np.pad(w.basis, ((0, 0), (0, d - w.dim))))
    return Subspace(np.ascontiguousarray(u[:, w.dim:]))
