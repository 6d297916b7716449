"""Per-fiber reference implementations that the fiber engine is tested against.

framekit computes every fiber quantity with one stacked engine
(framekit.mispace, and the single-fiber functions of fiberframe and
subspace that run it on one-atom stacks).  This module keeps the independent
routes: frame bounds from numpy's singular values, Parseval tightening
through a PSD matrix power, canonical and pseudo-inverse duals through an
explicit pseudo-inverse, the infimum cosine from orthonormal bases one pair
at a time, the random-probe certificate of a witness dual pair, and the
cross-check routes (biorthogonal duals through an oblique projection,
modulation-side pairings over the delta and Fourier determining sets,
group-side biorthogonality, direct sums,
translation and its modulation symbol one subgroup element at a time, and
the greedy generating set of a group table by breadth-first closure).  It
also keeps the Gabor system on Z_N built column by column from its
modulations and translations, an exact rank over the Gaussian integers by
fraction-free elimination, and the instance generator's draws one atom at
a time (random_unitary, well_conditioned_coefficients, rotated_span_pair,
fiber_pair), which the stacked generator must reproduce bit for bit on one
atom.  Nothing here imports framekit.mispace or calls a single-fiber
function that runs on the engine, so agreement with the engine is a real
check.
"""

import numpy as np

from framekit.fiberframe import ConstructionError, FiberSystem, pad_pair
from framekit.generate import MAX_COEFFICIENT_DRAWS, MAX_COND, complex_gaussian
from framekit.numkernel import (
    DEFAULT_TOL,
    REL_RANK_TOL,
    NumericalError,
    Tolerance,
    as_matrix,
    qr,
    rank,
    rank_mask,
    singular_values,
    svd,
)
from framekit.subspace import Subspace, clip_cos, ortho_complement
from framekit.zak import _translates, as_signal


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared rank cutoff."""
    u, s, v = svd(as_matrix(m))
    keep = rank_mask(s)
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
    support = eigvals > REL_RANK_TOL * top if top > 0.0 else np.zeros(n, dtype=bool)
    powered = np.zeros(n)
    powered[support] = eigvals[support] ** power
    out = (eigvecs * powered) @ eigvecs.conj().T
    return (out + out.conj().T) / 2.0


def frame_bounds(a: FiberSystem) -> tuple[float, float]:
    """Smallest and largest eigenvalue s^2 of the Gramian M^H M on the span
    support s > REL_RANK_TOL * s_0, with the singular values s taken from
    numpy directly; the vacuous (1, 1) for the zero system."""
    s = np.linalg.svd(a.matrix, compute_uv=False)
    if s[0] > 0.0:
        return float(s[s > REL_RANK_TOL * s[0]].min() ** 2), float(s[0] ** 2)
    return 1.0, 1.0


def parsevalize(a: FiberSystem, tol: Tolerance = DEFAULT_TOL) -> FiberSystem:
    """Parseval tightening M G^{-1/2} with G = M^H M on its support."""
    g = a.matrix.conj().T @ a.matrix
    return FiberSystem(a.matrix @ psd_power(g, -0.5, tol))


def canonical_dual(a: FiberSystem) -> FiberSystem:
    """The pseudo-inverse of the frame operator M M^H applied to M."""
    m = a.matrix
    return FiberSystem(pinv(m @ m.conj().T) @ m)


def dualise(a: FiberSystem, b: FiberSystem) -> FiberSystem:
    """Pseudo-inverse dual of A supported in span(B): h_i = sum_j conj(D[i][j])
    b_j with D = pinv(B^H A), after checking rank B^H A = rank A = rank B."""
    a, b = pad_pair(a, b)
    g = b.matrix.conj().T @ a.matrix
    if not rank(g) == rank(a.matrix) == rank(b.matrix):
        raise ConstructionError(
            "rank condition fails: rank of the mixed Gramian must equal both span dimensions"
        )
    return FiberSystem(b.matrix @ pinv(g).conj().T)


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


def direct_sum_test(v: Subspace, w: Subspace) -> bool:
    """True iff the ambient space is V (+) W-perp, i.e. the pair suits oblique
    projection onto V along W-perp."""
    wp = ortho_complement(w)
    if v.dim + wp.dim != v.ambient_dim:
        return False
    stacked = np.concatenate([v.basis, wp.basis], axis=1)
    return rank(stacked) == v.ambient_dim


def biorth_riesz_dual_via_projection(
    a: FiberSystem, w: Subspace, angle_tol: float = DEFAULT_TOL.angle_tol
) -> FiberSystem:
    """The biorthogonal dual of a Riesz sequence in W, built through the
    canonical dual and an oblique projection.

    Takes the canonical dual g_i of the sequence inside its own span, then
    inverts the restriction of the orthogonal projection P_span(A) to W.
    Agrees with biorth_riesz_dual by uniqueness of the biorthogonal dual.
    """
    if rank(a.matrix) != a.count:
        raise ConstructionError("generators are not a Riesz sequence")
    if w.dim != a.count:
        raise ValueError(f"dim W = {w.dim} does not match the system length {a.count}")
    span_a = Subspace.span_of(a.matrix)
    if inf_cos(span_a, w) <= angle_tol or inf_cos(w, span_a) <= angle_tol:
        raise ConstructionError("subspaces are not in duality: a fiber angle is zero")
    canon = canonical_dual(a).matrix
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


def probe_residuals(a, b, weights, tight, dual, seed: int = 0, count: int = 32) -> tuple[float, float]:
    """The random-probe certificate of a witness pair (tight, dual) for the
    zero-padded (atoms, d, r) stacks a and b of two systems.

    The probes on each atom are the generators of A plus count random
    elements of span(A), pushed through u -> sum_i <u, dual_i> tight_i, and
    alike on span(B) through u -> sum_i <u, tight_i> dual_i.  Returns the
    largest relative residual over atoms and probes, and over probe columns
    the largest residual relative to its norm in the weighted global norm.
    """
    rng = np.random.default_rng(seed)
    n_atoms, _, r = a.shape
    local = 0.0
    num, den = np.zeros((2, r + count)), np.zeros((2, r + count))
    for side, (m, synth, analysis) in enumerate(((a, tight, dual), (b, dual, tight))):
        probes = np.concatenate([m, m @ complex_gaussian(rng, n_atoms, r, count)], axis=-1)
        out = synth @ (analysis.conj().swapaxes(-1, -2) @ probes)
        res, nrm = np.linalg.norm(out - probes, axis=-2), np.linalg.norm(probes, axis=-2)
        live = nrm > 0.0
        if live.any():
            local = max(local, float((res[live] / nrm[live]).max()))
        num[side], den[side] = weights @ res**2, weights @ nrm**2
    live = den > 0.0
    glob = float(np.sqrt((num[live] / den[live]).max())) if live.any() else 0.0
    return local, glob


# DeterminingSet accepts a table whose analysis map deviates from an isometry
# by at most this much.  The tables built here are Parseval to rounding, and a
# looser bound would let through families for which modulation-side sums no
# longer equal the weighted inner products they stand for.
_PARSEVAL_TOL = 1e-10


class DeterminingSet:
    """Scalar functions g_s on the atoms with the Parseval property: the map
    f -> (<f, g_s>)_s is an isometry from the weighted space to C^S.  The
    measure is read through its weights and count only."""

    def __init__(self, measure, table):
        t = as_matrix(table)
        if t.shape[1] != measure.count:
            raise ValueError(f"table has {t.shape[1]} columns for {measure.count} atoms")
        b = np.sqrt(measure.weights)[None, :] * t.conj()
        if np.abs(b.conj().T @ b - np.eye(t.shape[1])).max() > _PARSEVAL_TOL:
            raise ValueError("function family is not Parseval for the weighted space")
        t.flags.writeable = False
        self.measure, self.table = measure, t  # table[s][k] = g_s(x_k), (S, K)


def delta_determining_set(measure) -> DeterminingSet:
    """Point masses scaled by the weights: g_s = delta_s / sqrt(w_s)."""
    return DeterminingSet(measure, np.diag(1.0 / np.sqrt(measure.weights)))


def fourier_determining_set(measure) -> DeterminingSet:
    """Characters over the atom index, weight-normalized."""
    k = measure.count
    s_idx, k_idx = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    t = np.exp(2j * np.pi * s_idx * k_idx / k) / np.sqrt(measure.weights * k)[None, :]
    return DeterminingSet(measure, t)


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


def _power_of(plan, gamma: int) -> int:
    """The m with gamma = g0^m, the discrete log of a subgroup element."""
    try:
        return plan.powers.index(int(gamma))
    except ValueError:
        raise ValueError(f"element {gamma} is not in the subgroup") from None


def translate(plan, signal, gamma: int) -> np.ndarray:
    """Left translation by a subgroup element: (L_gamma f)(g) = f(gamma^{-1} g)."""
    f = as_signal(plan.group, signal)
    _power_of(plan, gamma)  # domain check: only subgroup translations fiberize
    return f[plan.group.mul[plan.group.inverse[int(gamma)]]]


def modulation_symbol(plan, gamma: int) -> np.ndarray:
    """The scalar function on character atoms that Zak intertwines with
    translation by gamma: value conj(alpha_k(gamma)) = exp(-2 pi i k m / q) at
    atom k, for gamma = g0^m."""
    return np.exp(-2j * np.pi * np.arange(plan.q) * _power_of(plan, gamma) / plan.q)


def generating_set(m) -> list[int]:
    """Greedy generators of a table by breadth-first closure: the least
    element not yet reached, then the reached set closed under right
    multiplication by the generators so far, one level of products at a
    time, each element multiplied once by each generator."""
    m = np.asarray(m)
    reached = np.arange(m.shape[0]) == 0
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        cols = m[:, gens]
        # the elements reached so far have met every generator but the new one
        prods = cols[reached, -1]
        while prods.size:
            new = np.unique(prods[~reached[prods]])
            reached[new] = True
            prods = cols[new].ravel()
    return gens


def modulate(signal, k: int) -> np.ndarray:
    """Modulation on Z_N: (M_k f)(x) = exp(2 pi i k x / N) f(x)."""
    f = np.asarray(signal, dtype=np.complex128)
    n = f.shape[0]
    return np.exp(2j * np.pi * k * np.arange(n) / n) * f


def gabor_matrix(window, a: int, b: int) -> np.ndarray:
    """The N x (N/a)(N/b) synthesis matrix of the Gabor system G(g, a, b) on
    Z_N: column n (N/b) + m is M_{mb} T_{na} g, with (T_y f)(x) = f(x - y)."""
    g = np.asarray(window, dtype=np.complex128)
    n = g.shape[0]
    if n % a or n % b:
        raise ValueError(f"a = {a} and b = {b} must divide N = {n}")
    return np.stack([modulate(np.roll(g, t * a), m * b) for t in range(n // a) for m in range(n // b)], axis=1)


def _gi_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gi_exact_div(x, y):
    """x / y for Gaussian integers that y divides: x conj(y) / |y|^2."""
    n = y[0] ** 2 + y[1] ** 2
    re, im = x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1]
    if re % n or im % n:
        raise ArithmeticError(f"{x} is not divisible by {y}")
    return re // n, im // n


def gaussian_integer_rank(m) -> int:
    """Exact rank of a matrix with Gaussian-integer entries, by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968) with row pivoting.  Every
    entry stays a Gaussian integer, a minor of the input, so each division
    by the previous pivot is exact (and checked)."""
    m = np.asarray(m)
    if m.size and not (np.all(m.real == np.round(m.real)) and np.all(m.imag == np.round(m.imag))):
        raise ValueError("entries must be Gaussian integers")
    rows = [[(int(z.real), int(z.imag)) for z in row] for row in m.astype(np.complex128)]
    n_cols = m.shape[1]
    rank, prev = 0, (1, 0)
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != (0, 0)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for row in rows[rank + 1:]:
            for j in range(c + 1, n_cols):
                x, y = _gi_mul(p, row[j]), _gi_mul(row[c], rows[rank][j])
                row[j] = _gi_exact_div((x[0] - y[0], x[1] - y[1]), prev)
            row[c] = (0, 0)
        prev, rank = p, rank + 1
    return rank


def random_unitary(rng, d: int) -> np.ndarray:
    """One d x d unitary: the Q of a Gaussian block with R's diagonal phases
    moved into Q."""
    q, r = qr(complex_gaussian(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()


def well_conditioned_coefficients(rng, k: int, r: int) -> np.ndarray:
    """One k x r Gaussian block with condition number at most MAX_COND, drawn
    again until it passes, at most MAX_COEFFICIENT_DRAWS times."""
    if k > r:
        raise ValueError("need k <= r for a full-row-rank coefficient block")
    for _ in range(MAX_COEFFICIENT_DRAWS):
        c = complex_gaussian(rng, k, r)
        s = singular_values(c)
        if s[-1] > 0.0 and s[0] / s[-1] <= MAX_COND:
            return c
    raise ValueError(
        f"no {k} x {r} coefficient block with condition number <= {MAX_COND:g} "
        f"in {MAX_COEFFICIENT_DRAWS} draws"
    )


def rotated_span_pair(rng, d: int, k: int, cosines):
    """Orthonormal V and W (d x k) with the given principal cosines, the
    directions past min(k, d - k) left unrotated.  Returns (V, W, cosines)."""
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    q = random_unitary(rng, d)
    v = q[:, :k]
    compl = q[:, k:]
    cos = np.asarray(cosines, dtype=float).copy()
    if cos.shape != (k,):
        raise ValueError(f"need {k} cosines, got shape {cos.shape}")
    if np.any(cos < 0.0) or np.any(cos > 1.0):
        raise ValueError("cosines must lie in [0, 1]")
    m = min(k, d - k)
    cos[m:] = 1.0
    rot = np.concatenate([compl[:, :m], np.zeros((d, k - m))], axis=1)
    w = v * cos + rot * np.sqrt(1.0 - cos**2)
    return v, w, cos


def fiber_pair(rng, d: int, r: int, k: int, cosines):
    """One fiber of each system: spans of dimension k with prescribed angles."""
    v, w, cos = rotated_span_pair(rng, d, k, cosines)
    a = FiberSystem(v @ well_conditioned_coefficients(rng, k, r))
    b = FiberSystem(w @ well_conditioned_coefficients(rng, k, r))
    return a, b, cos
