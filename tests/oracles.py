"""Per-fiber reference implementations that the fiber engine is tested against.

framekit computes every fiber quantity with one stacked engine
(framekit.mispace, and the single-fiber functions of fiberframe and
subspace that run it on one-atom stacks).  This module keeps the independent
routes: frame bounds from Gramian eigenvalues, Parseval tightening through a
PSD matrix power, canonical and pseudo-inverse duals through an explicit
pseudo-inverse, the infimum cosine from orthonormal bases one pair at a
time, and the cross-check routes (biorthogonal duals through an oblique
projection, modulation-side pairings, group-side biorthogonality, direct
sums, translation and its modulation symbol one subgroup element at a
time).  Nothing here imports framekit.mispace or calls a single-fiber
function that runs on the engine, so agreement with the engine is a real
check.
"""

import numpy as np

from framekit.fiberframe import ConstructionError, FiberSystem, pad_pair
from framekit.numkernel import (
    DEFAULT_TOL,
    NumericalError,
    Tolerance,
    as_matrix,
    rank,
    rank_mask,
    singular_values,
    svd,
)
from framekit.subspace import DEFAULT_ANGLE_TOL, Subspace, clip_cos, ortho_complement
from framekit.zak import _translates, as_signal


def pinv(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared rank cutoff."""
    u, s, v = svd(as_matrix(m))
    keep = rank_mask(s, tol.rel_rank_tol)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (v * inv) @ u.conj().T


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


def frame_bounds(a: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Smallest nonzero and largest eigenvalue of the Gramian M^H M, the
    vacuous (1, 1) for the zero system."""
    g = a.matrix.conj().T @ a.matrix
    eigvals = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    top = max(float(eigvals[-1]), 0.0)
    active = eigvals > tol.rel_rank_tol * top if top > 0.0 else np.zeros(0, dtype=bool)
    if np.any(active):
        return float(eigvals[active].min()), top
    return 1.0, 1.0


def parsevalize(a: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> FiberSystem:
    """Parseval tightening M G^{-1/2} with G = M^H M on its support."""
    g = a.matrix.conj().T @ a.matrix
    return FiberSystem(a.matrix @ psd_power(g, -0.5, tol))


def canonical_dual(a: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> FiberSystem:
    """The pseudo-inverse of the frame operator M M^H applied to M."""
    m = a.matrix
    return FiberSystem(pinv(m @ m.conj().T, tol) @ m)


def dualise(a: FiberSystem, b: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> FiberSystem:
    """Pseudo-inverse dual of A supported in span(B): h_i = sum_j conj(D[i][j])
    b_j with D = pinv(B^H A), after checking rank B^H A = rank A = rank B."""
    a, b = pad_pair(a, b)
    g = b.matrix.conj().T @ a.matrix
    if not rank(g, tol) == rank(a.matrix, tol) == rank(b.matrix, tol):
        raise ConstructionError(
            "rank condition fails: rank of the mixed Gramian must equal both span dimensions"
        )
    return FiberSystem(b.matrix @ pinv(g, tol).conj().T)


def inf_cos(v: Subspace, w: Subspace) -> float:
    """Infimum cosine angle of V against W from the singular values of
    W^H V: 1 for a zero V, 0 when dim W < dim V."""
    if v.dim == 0:
        return 1.0
    if w.dim < v.dim:
        return 0.0
    s = singular_values(w.basis.conj().T @ v.basis)
    return float(clip_cos(s[v.dim - 1]))


def project(w: Subspace, vec) -> np.ndarray:
    """Orthogonal projection of a vector onto W."""
    v = np.asarray(vec, dtype=np.complex128)
    if v.shape != (w.ambient_dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({w.ambient_dim},)")
    return w.basis @ (w.basis.conj().T @ v)


def direct_sum_test(v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the ambient space is V (+) W-perp, i.e. the pair suits oblique
    projection onto V along W-perp."""
    wp = ortho_complement(w, tol)
    if v.dim + wp.dim != v.ambient_dim:
        return False
    stacked = np.concatenate([v.basis, wp.basis], axis=1)
    return rank(stacked, tol) == v.ambient_dim


def biorth_riesz_dual_via_projection(
    a: FiberSystem,
    w: Subspace,
    tol: Tolerance = DEFAULT_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> FiberSystem:
    """The biorthogonal dual of a Riesz sequence in W, built through the
    canonical dual and an oblique projection.

    Takes the canonical dual g_i of the sequence inside its own span, then
    inverts the restriction of the orthogonal projection P_span(A) to W.
    Agrees with biorth_riesz_dual by uniqueness of the biorthogonal dual.
    """
    if rank(a.matrix, tol) != a.count:
        raise ConstructionError("generators are not a Riesz sequence")
    if w.dim != a.count:
        raise ValueError(f"dim W = {w.dim} does not match the system length {a.count}")
    span_a = Subspace.span_of(a.matrix, tol)
    if inf_cos(span_a, w) <= angle_tol or inf_cos(w, span_a) <= angle_tol:
        raise ConstructionError("subspaces are not in duality: a fiber angle is zero")
    canon = canonical_dual(a, tol).matrix
    q = span_a.basis
    # Restrict P_span(A) to W, invert, and push the canonical dual through.
    coeff = np.linalg.solve(q.conj().T @ w.basis, q.conj().T @ canon)
    return FiberSystem(w.basis @ coeff)


def biorthogonality_deviation(a: FiberSystem, h: FiberSystem) -> float:
    """Max deviation of <a_i, h_j> from the Kronecker delta."""
    a, h = pad_pair(a, h)
    cross = (h.matrix.conj().T @ a.matrix).T
    return float(np.abs(cross - np.eye(a.count)).max())


def reproduction_residual(synth: FiberSystem, analysis: FiberSystem, probes) -> float:
    """Largest relative residual of u - sum_i <u, analysis_i> synth_i over the
    probe columns (zero probes are skipped)."""
    synth, analysis = pad_pair(synth, analysis)
    p = as_matrix(probes)
    out = synth.matrix @ (analysis.matrix.conj().T @ p)
    norms = np.linalg.norm(p, axis=0)
    resid = np.linalg.norm(out - p, axis=0)
    keep = norms > 0.0
    if not np.any(keep):
        return 0.0
    return float((resid[keep] / norms[keep]).max())


def _modulation_coefficients(system, f, dset) -> np.ndarray:
    """Coefficients <f, g_s . v_i> for every scalar function g_s of the
    determining set and generator v_i, as an (S, r) array."""
    u = np.stack([m.conj().T @ v for m, v in zip(system.matrices, f.values)])
    return dset.table.conj() @ (system.measure.weights[:, None] * u)


def global_pairing(synth, analysis, f, g, dset) -> complex:
    """<T' f, T g> computed on the modulation side: analysis coefficients of f
    against one fibered system paired with those of g against the other.

    Agrees with weighted_inner(apply_mixed_frame_operator(synth, analysis, f), g)
    whenever the determining set is Parseval; the two routes never share an
    intermediate, which is what makes the agreement a real check.
    """
    r = max(synth.count, analysis.count)
    cf = _modulation_coefficients(analysis.padded(r), f, dset)
    cg = _modulation_coefficients(synth.padded(r), g, dset)
    return complex((cf * cg.conj()).sum())


def global_biorthogonality_deviation(sa, dual, dset) -> float:
    """Max deviation of <g_s . f_i, g_t . h_j> from delta_st delta_ij over the
    doubly modulated families of two fibered systems."""
    r = max(sa.count, dual.count)
    a, h = sa.padded(r).matrices, dual.padded(r).matrices
    # cross[k, i, j] = <f_i(x_k), h_j(x_k)>
    cross = (h.conj().swapaxes(-1, -2) @ a).swapaxes(-1, -2)
    t = dset.table
    scal = np.einsum("sk,tk,k->stk", t, t.conj(), sa.measure.weights)
    out = np.einsum("stk,kij->stij", scal, cross)
    expected = np.einsum("st,ij->stij", np.eye(t.shape[0]), np.eye(r, dtype=np.complex128))
    return float(np.abs(out - expected).max())


def tg_biorthogonality_deviation(plan, generators, duals) -> float:
    """Max deviation of <L_gamma f_i, L_eta h_j> from delta_{gamma,eta} delta_{ij}
    across all subgroup translates, computed on the group side."""
    tf, th = _translates(plan, generators), _translates(plan, duals)
    if tf.shape != th.shape:
        raise ValueError("generator and dual counts differ")
    return float(np.abs(th.conj().T @ tf - np.eye(tf.shape[1])).max(initial=0.0))


def translate(plan, signal, gamma: int) -> np.ndarray:
    """Left translation by a subgroup element: (L_gamma f)(g) = f(gamma^{-1} g)."""
    f = as_signal(plan.group, signal)
    plan.power_of(gamma)  # domain check: only subgroup translations fiberize
    return f[plan.group.mul[plan.group.inverse[int(gamma)]]]


def modulation_symbol(plan, gamma: int) -> np.ndarray:
    """The scalar function on character atoms that Zak intertwines with
    translation by gamma: value conj(alpha_k(gamma)) at atom k."""
    return plan.characters[:, plan.power_of(gamma)].conj()
