"""Finite vector systems on a single fiber and their duality constructions.

A fiber system is a finite list of vectors in C^d, kept as the columns of a
d x r matrix M.  Everything a dual-frame statement needs on one fiber lives
here: the Gramian M^H M with its spectral frame bounds, the canonical dual,
Parseval tightening, mixed Gramians of two systems, pseudo-inverse duals of
a pair, and biorthogonal duals of a Riesz sequence inside a prescribed
subspace.  Each construction calls the array kernels of mispace on a
one-atom (1, d, r) stack, so one fiber is computed exactly as every fiber
of a fibered system is.

Conventions.  The inner product is linear in the first argument, and the
Gramian of a system is G[i][j] = <v_j, v_i>, so G = M^H M.  The mixed
Gramian of systems A and B is G[i][j] = <a_j, b_i>, the matrix M_B^H M_A.
Systems may contain zero vectors; a pair of systems of different lengths is
compared after padding the shorter one with zero vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mispace import (
    _RANK_CONDITION_FAILS,
    ConstructionError,
    _biorth_cos,
    _biorth_duals,
    _canonical_duals,
    _frame_bounds,
    _pinv_dual_pair,
    _spans,
    _tightened,
    alternate_dual_residuals,
)
from .numkernel import DEFAULT_TOL, Tolerance, as_matrix, ct, rank
from .subspace import DEFAULT_ANGLE_TOL, Subspace


@dataclass(frozen=True)
class FiberSystem:
    """A system of r >= 1 vectors in C^dim, stored as matrix columns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[1] < 1:
            raise ValueError("a fiber system needs at least one vector")
        if m.shape[0] < 1:
            raise ValueError("fiber dimension must be at least 1")
        object.__setattr__(self, "matrix", m)
        m.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    @property
    def vectors(self) -> list[np.ndarray]:
        return [self.matrix[:, i] for i in range(self.count)]

    @classmethod
    def from_vectors(cls, vectors) -> "FiberSystem":
        cols = [np.asarray(v, dtype=np.complex128) for v in vectors]
        if not cols:
            raise ValueError("a fiber system needs at least one vector")
        return cls(np.column_stack(cols))

    @classmethod
    def zeros(cls, dim: int, count: int) -> "FiberSystem":
        return cls(np.zeros((dim, count), dtype=np.complex128))

    def padded(self, count: int) -> "FiberSystem":
        """The same system extended with zero vectors up to the given length."""
        if count < self.count:
            raise ValueError("cannot pad to a shorter length")
        if count == self.count:
            return self
        extra = np.zeros((self.dim, count - self.count), dtype=np.complex128)
        return FiberSystem(np.concatenate([self.matrix, extra], axis=1))


def pad_pair(a: FiberSystem, b: FiberSystem) -> tuple[FiberSystem, FiberSystem]:
    if a.dim != b.dim:
        raise ValueError(f"fiber dimensions differ: {a.dim} vs {b.dim}")
    r = max(a.count, b.count)
    return a.padded(r), b.padded(r)


@dataclass(frozen=True)
class GramianBundle:
    """Gramian of a system together with its span and spectral frame bounds.

    frame_lower is the smallest nonzero eigenvalue of the Gramian and
    frame_upper the largest; for the zero system both default to 1, the
    vacuous bounds of an empty sum.
    """

    gram: np.ndarray
    span: Subspace
    frame_lower: float
    frame_upper: float


def gramian(a: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> GramianBundle:
    m = a.matrix
    g = m.conj().T @ m
    g = (g + g.conj().T) / 2.0
    q, dim, s, _ = _spans(m[None], tol)
    lower, upper = _frame_bounds(s, tol)
    return GramianBundle(g, Subspace(q[0, :, : dim[0]]), float(lower[0]), float(upper[0]))


def dual_gramian(a: FiberSystem) -> np.ndarray:
    """The d x d frame operator sum of v_i v_i^H."""
    m = a.matrix
    s = m @ m.conj().T
    return (s + s.conj().T) / 2.0


def mixed_gramian(a: FiberSystem, b: FiberSystem) -> np.ndarray:
    """Cross Gramian with entries <a_j, b_i>; systems are zero-padded to a
    common length first."""
    a, b = pad_pair(a, b)
    return b.matrix.conj().T @ a.matrix


def canonical_dual(a: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> FiberSystem:
    """Canonical dual system: the pseudo-inverse of the frame operator applied
    to each generator.  Reproduces every vector in the span of the system."""
    return FiberSystem(_canonical_duals(a.matrix[None], tol)[0])


def parsevalize(a: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> FiberSystem:
    """Parseval tightening: multiply the coefficient side by the inverse
    square root of the Gramian on its support.

    The output spans the same subspace, its Gramian is an orthogonal
    projection (eigenvalues 0 or 1), and the system is a Parseval frame for
    its span.
    """
    q, _, s, v = _spans(a.matrix[None], tol)
    u, v, _ = _tightened(q, s, v, tol)
    return FiberSystem((u @ ct(v))[0])


def is_alternate_dual(a: FiberSystem, aprime: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test the duality identity G_A G_{A,A'} = G_A.

    This is the Gramian form of the reproducing property u = sum_i <u, a'_i> a_i
    for all u in span(A).  The comparison is Frobenius, relative to the size
    of G_A.
    """
    a, aprime = pad_pair(a, aprime)
    return bool(alternate_dual_residuals(a.matrix[None], aprime.matrix[None], tol)[1][0])


def rank_condition(a: FiberSystem, b: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff rank G_{A,B} = dim span A = dim span B, the feasibility
    condition for a pseudo-inverse dual supported in span(B)."""
    a, b = pad_pair(a, b)
    return bool(_pinv_dual_pair(a.matrix[None], b.matrix[None], tol)[1][0])


def dualise(a: FiberSystem, b: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> FiberSystem:
    """Build from the generators of B a dual of A supported in span(B).

    The coefficient matrix is the pseudo-inverse of the mixed Gramian:
    h_i = sum_j conj(D[i][j]) b_j with D = pinv(G_{A,B}).  Requires the rank
    condition; the result is then an alternate dual of A and the pair (A, H)
    is in oblique duality between span(A) and span(B).
    """
    a, b = pad_pair(a, b)
    h, feasible = _pinv_dual_pair(a.matrix[None], b.matrix[None], tol)
    if not feasible[0]:
        raise ConstructionError(_RANK_CONDITION_FAILS)
    return FiberSystem(h[0])


def is_riesz(a: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the generators are linearly independent (numerical rank r)."""
    return rank(a.matrix, tol) == a.count


def biorth_riesz_dual(
    a: FiberSystem,
    w: Subspace,
    tol: Tolerance = DEFAULT_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> FiberSystem:
    """Biorthogonal dual of a Riesz sequence, supported in the subspace W.

    Solves <a_i, h_j> = delta_ij with every h_j in W.  Requires dim W equal
    to the number of generators and both infimum cosine angles between W and
    span(A) to exceed angle_tol; under those conditions the dual exists, is
    unique, and is itself a Riesz sequence spanning W.
    """
    if w.ambient_dim != a.dim:
        raise ValueError(f"ambient dimensions differ: {w.ambient_dim} vs {a.dim}")
    q, dim, _, _ = _spans(a.matrix[None], tol)
    if dim[0] != a.count:
        raise ConstructionError("generators are not a Riesz sequence")
    if w.dim != a.count:
        raise ValueError(f"dim W = {w.dim} does not match the system length {a.count}")
    if _biorth_cos(q, w.basis[None], a.count)[0] <= angle_tol:
        raise ConstructionError("subspaces are not in duality: a fiber angle is zero")
    return FiberSystem(_biorth_duals(a.matrix[None], w.basis[None])[0])
