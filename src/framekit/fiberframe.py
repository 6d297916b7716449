"""Finite vector systems on a single fiber and their duality constructions.

A fiber system is a finite list of vectors in C^d, kept as the columns of a
d x r matrix M.  Everything a dual-frame statement needs on one fiber lives
here: the Gramian M^H M with its spectral frame bounds, the canonical dual,
Parseval tightening, mixed Gramians of two systems, pseudo-inverse duals of
a pair, and biorthogonal duals of a Riesz sequence inside a prescribed
subspace.  FiberSystem itself is defined in mispace, as the K=1 case of a
fibered system, and imported here.  Each construction calls the array
kernels of mispace on a one-atom (1, d, r) stack, so one fiber is computed
exactly as every fiber of a fibered system is.

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
    FiberSystem,
    _canonical_duals,
    _factor_pair,
    _frame_bounds,
    _pinv_duals,
    _riesz_factors,
    _spans,
    alternate_dual_residuals,
)
from .numkernel import DEFAULT_TOL, Tolerance, ct
from .subspace import Subspace


def pad_pair(a: FiberSystem, b: FiberSystem) -> tuple[FiberSystem, FiberSystem]:
    if a.dim != b.dim:
        raise ValueError(f"fiber dimensions differ: {a.dim} vs {b.dim}")
    r = max(a.count, b.count)
    return a.padded(r), b.padded(r)


@dataclass(frozen=True)
class GramianBundle:
    """Gramian of a system together with its span and spectral frame bounds.

    frame_lower is the smallest eigenvalue of the Gramian on the span support
    (the eigenvalues s^2 with s above the rank cutoff) and frame_upper the
    largest; for the zero system both default to 1, the vacuous bounds of an
    empty sum.
    """

    gram: np.ndarray
    span: Subspace
    frame_lower: float
    frame_upper: float


def gramian(a: FiberSystem) -> GramianBundle:
    m = a.matrix
    g = m.conj().T @ m
    g = (g + g.conj().T) / 2.0
    q, dim, s, _ = _spans(m[None])
    lower, upper = _frame_bounds(s)
    return GramianBundle(g, Subspace(q[0, :, : dim[0]]), float(lower[0]), float(upper[0]))


def mixed_gramian(a: FiberSystem, b: FiberSystem) -> np.ndarray:
    """Cross Gramian with entries <a_j, b_i>; systems are zero-padded to a
    common length first."""
    a, b = pad_pair(a, b)
    return b.matrix.conj().T @ a.matrix


def canonical_dual(a: FiberSystem) -> FiberSystem:
    """Canonical dual system: the pseudo-inverse of the frame operator applied
    to each generator.  Reproduces every vector in the span of the system."""
    return FiberSystem(_canonical_duals(a.matrix[None])[0])


def parsevalize(a: FiberSystem) -> FiberSystem:
    """Parseval tightening: multiply the coefficient side by the inverse
    square root of the Gramian on its support, which is the span support.

    The output spans the same subspace, its Gramian is an orthogonal
    projection (eigenvalues 0 or 1), and the system is a Parseval frame for
    its span.
    """
    u, _, _, v = _spans(a.matrix[None])
    return FiberSystem((u @ ct(v))[0])


def is_alternate_dual(a: FiberSystem, aprime: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test the duality identity G_A G_{A,A'} = G_A.

    This is the Gramian form of the reproducing property u = sum_i <u, a'_i> a_i
    for all u in span(A).  The comparison is Frobenius, relative to the size
    of G_A.
    """
    a, aprime = pad_pair(a, aprime)
    return bool(alternate_dual_residuals(a.matrix[None], aprime.matrix[None], tol)[1][0])


def rank_condition(a: FiberSystem, b: FiberSystem) -> bool:
    """True iff rank G_{A,B} = dim span A = dim span B, the feasibility
    condition for a pseudo-inverse dual supported in span(B).  The rank of
    G_{A,B} is verify_duality's rank_mixed, the number of principal cosines
    above REL_RANK_TOL, so orthogonal spans fail at any scale of A or B."""
    a, b = pad_pair(a, b)
    return bool(_factor_pair(a.matrix[None], b.matrix[None]).feasible[0])


def dualise(a: FiberSystem, b: FiberSystem) -> FiberSystem:
    """Build from the generators of B a dual of A supported in span(B).

    The coefficient matrix is the pseudo-inverse of the mixed Gramian:
    h_i = sum_j conj(D[i][j]) b_j with D = pinv(G_{A,B}).  Requires the rank
    condition; the result is then an alternate dual of A and the pair (A, H)
    is in oblique duality between span(A) and span(B).  This is
    mispace.pinv_dual on one atom, read off the same three SVDs.
    """
    a, b = pad_pair(a, b)
    f = _factor_pair(a.matrix[None], b.matrix[None])
    if not f.feasible[0]:
        raise ConstructionError(_RANK_CONDITION_FAILS)
    return FiberSystem(_pinv_duals(f)[0])


def biorth_riesz_dual(a: FiberSystem, w: Subspace, tol: Tolerance = DEFAULT_TOL) -> FiberSystem:
    """Biorthogonal dual of a Riesz sequence, supported in the subspace W.

    Solves <a_i, h_j> = delta_ij with every h_j in W.  Requires dim W equal
    to the number of generators, a Riesz A and both infimum cosine angles
    between W and span(A) above tol.angle_tol, or raises ConstructionError;
    the dual then exists, is unique, and is a Riesz sequence spanning W: the
    pseudo-inverse dual of A in W, mispace.verify_biorthogonality on one atom.
    """
    if w.ambient_dim != a.dim:
        raise ValueError(f"ambient dimensions differ: {w.ambient_dim} vs {a.dim}")
    if w.dim != a.count:
        raise ConstructionError(f"dim W = {w.dim} does not match the system length {a.count}")
    f, cos = _riesz_factors(a.matrix[None], w.basis[None])
    if f.dim_a[0] != a.count:
        raise ConstructionError("generators are not a Riesz sequence")
    if cos[0] <= tol.angle_tol or not f.feasible[0]:
        raise ConstructionError("subspaces are not in duality: a fiber angle is zero")
    return FiberSystem(_pinv_duals(f)[0])
