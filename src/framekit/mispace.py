"""Fibered systems over a finite measure model and the duality equivalences.

A measure model is a finite atom list with strictly positive weights.  A
fibered system attaches one fiber system (a d x r matrix) to every atom; it
stands for the generator family of a multiplication-invariant space, and all
global statements about such spaces reduce to fiber statements plus weights.
This module hosts the reductions: global frame bounds as extrema of fiber
spectra, global infimum cosine angles as minima of fiber angles, the mixed
frame operator, reconstruction, and the two report-producing checkers.  They
run on array kernels that take raw (atoms, d, r) stacks; the single-fiber
functions of fiberframe are the same kernels on one-atom stacks.

verify_duality takes a pair of fibered systems and evaluates four statements
that are equivalent for frames of this kind: existence of global dual pairs,
positivity of the two global infimum cosine angles, existence of fiberwise
dual pairs, and positivity of both angles on every fiber.  The checker does
not assume the equivalence: the two existence statements are certified by
constructing witness duals (Parseval tightening followed by a pseudo-inverse
dual) and driving probe functions through the reproducing formulas, while
the angle statements are read off Gramian spectra.  Reports carry enough
per-fiber diagnostics to locate any failure.

verify_biorthogonality does the analogue for Riesz generator families and a
prescribed target subspace per fiber: it checks the angle conditions and, on
success, produces the unique biorthogonal dual family supported in the
target subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numkernel import (
    DEFAULT_TOL,
    REL_RANK_TOL,
    Tolerance,
    as_matrix,
    as_stack,
    ct,
    rank_mask,
    singular_values,
    solve,
    svd,
)
from .subspace import DEFAULT_ANGLE_TOL, _inf_cos_pair

if TYPE_CHECKING:
    from .fiberframe import FiberSystem
    from .subspace import Subspace

DEFAULT_C_MAX = 1e8
PROBE_COUNT = 32
# Atoms per block of the loops that draw no random numbers: span and cross
# product SVDs, tightening, pseudo-inverse and canonical duals, and the
# witnesses' singular values.  Each atom is factored on its own inside a
# batch, so this size changes no result bit; larger blocks pay numpy's
# per-call overhead fewer times and hold larger stacked temporaries.  Under
# tracemalloc, CLI verify-thm1 on a (300, 8, 6) instance peaks at 1.00x the
# instance file's size with 32-atom blocks, 1.18x with 128 and 1.80x with
# 256, past the 1.5x that tests/test_cli.py holds every command to.
_FACTOR_BLOCK = 128
# Atoms per block of the probe loops.  Each block draws its probe
# coefficients in one call and adds its residuals to the global sums, so
# this size is part of the probe draw order and of those sums: changing it
# changes every residual.  The probe stacks, (atoms, d, r + PROBE_COUNT), are
# the widest; at 128 they would take that verify-thm1 peak to 2.06x.
_PROBE_BLOCK = 32
# DeterminingSet accepts a table whose analysis map deviates from an isometry
# by at most this much.  The tables built here are Parseval to rounding, and a
# looser bound would let through families for which modulation-side sums no
# longer equal the weighted inner products they stand for.
_PARSEVAL_TOL = 1e-10
_RANK_CONDITION_FAILS = (
    "rank condition fails: rank of the mixed Gramian must equal both span dimensions"
)


class ConstructionError(Exception):
    """A dual construction is infeasible for the given input."""


@dataclass(frozen=True)
class MeasureModel:
    """A finite measure space: named atoms with strictly positive weights."""

    atoms: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(str(a) for a in self.atoms)
        if len(atoms) < 1:
            raise ValueError("a measure model needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom ids must be distinct")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(atoms),):
            raise ValueError(f"weights shape {w.shape} does not match {len(atoms)} atoms")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)
        w.flags.writeable = False

    @property
    def count(self) -> int:
        return len(self.atoms)


def _same_measure(m1: MeasureModel, m2: MeasureModel):
    if m1.atoms != m2.atoms or not np.array_equal(m1.weights, m2.weights):
        raise ValueError("measure models differ")


@dataclass(frozen=True)
class FiberedSystem:
    """One fiber system per atom, all with the same dimension and length, held
    as one read-only (atoms, dim, count) stack: fiber k is matrices[k].  A
    sequence of per-atom FiberSystem objects is accepted and stacked once."""

    measure: MeasureModel
    matrices: np.ndarray

    def __post_init__(self):
        m, n_atoms = self.matrices, self.measure.count
        if not isinstance(m, np.ndarray):
            fibers = tuple(m)
            if len(fibers) != n_atoms:
                raise ValueError(f"got {len(fibers)} fiber systems for {n_atoms} atoms")
            dims = {f.dim for f in fibers}
            if len(dims) != 1:
                raise ValueError(f"fiber dimensions are not uniform: {sorted(dims)}")
            counts = {f.count for f in fibers}
            if len(counts) != 1:
                raise ValueError(f"generator counts are not uniform: {sorted(counts)}")
            m = np.stack([f.matrix for f in fibers])
        m = np.ascontiguousarray(as_stack(m))
        if m.ndim != 3 or m.shape[0] != n_atoms or 0 in m.shape:
            raise ValueError(f"need an ({n_atoms}, dim >= 1, count >= 1) stack, got {m.shape}")
        object.__setattr__(self, "matrices", m)
        m.flags.writeable = False

    @property
    def fiber_dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def count(self) -> int:
        return self.matrices.shape[2]

    @property
    def fibers(self) -> tuple[FiberSystem, ...]:
        """Per-atom FiberSystem views of the stack, built on every access."""
        from .fiberframe import FiberSystem  # fiberframe is built on this module

        return tuple(FiberSystem(m) for m in self.matrices)

    def padded(self, count: int) -> "FiberedSystem":
        if count < self.count:
            raise ValueError("cannot pad to a shorter length")
        if count == self.count:
            return self
        pad = ((0, 0), (0, 0), (0, count - self.count))
        return FiberedSystem(self.measure, np.pad(self.matrices, pad))


def _padded_pair(s1: FiberedSystem, s2: FiberedSystem) -> tuple[np.ndarray, np.ndarray]:
    """The stacks of two systems on one measure and fiber dimension,
    zero-padded to their common generator count."""
    _same_measure(s1.measure, s2.measure)
    if s1.fiber_dim != s2.fiber_dim:
        raise ValueError("fiber dimensions differ")
    r = max(s1.count, s2.count)
    return s1.padded(r).matrices, s2.padded(r).matrices


@dataclass(frozen=True)
class FiberedFunction:
    """A vector-valued function on the atoms, one row of C^d per atom."""

    measure: MeasureModel
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != self.measure.count:
            raise ValueError(
                f"values must be (atoms, dim), got {v.shape} for {self.measure.count} atoms"
            )
        if v.size and not np.all(np.isfinite(v)):
            raise ValueError("function values contain non-finite entries")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    @property
    def fiber_dim(self) -> int:
        return self.values.shape[1]

    def norm(self) -> float:
        w = self.measure.weights
        return float(np.sqrt((w * (np.abs(self.values) ** 2).sum(axis=1)).sum()))


def weighted_inner(f: FiberedFunction, g: FiberedFunction) -> complex:
    _same_measure(f.measure, g.measure)
    if f.fiber_dim != g.fiber_dim:
        raise ValueError("fiber dimensions differ")
    w = f.measure.weights
    return complex((w * (f.values * g.values.conj()).sum(axis=1)).sum())


def _blocks(n_atoms: int, size: int):
    """Atom ranges (lo, hi) of at most size atoms covering 0..n_atoms-1."""
    return ((lo, min(lo + size, n_atoms)) for lo in range(0, n_atoms, size))


def _spans(m: np.ndarray):
    """Batched span SVDs of an (atoms, d, r) stack.  Returns the left singular
    vectors with the columns past each span dimension zeroed (orthonormal
    span bases padded with zero columns), the span dimensions, and the
    singular values and right singular vectors."""
    u, s, v = svd(m)
    keep = rank_mask(s)
    return u * keep[..., None, :], keep.sum(axis=-1), s, v


def _frame_bounds(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-fiber spectral frame bounds from the singular values s (atoms, k).

    The Gramian eigenvalues are s^2; the bounds are the smallest and largest
    of them on the Gramian support s^2 > REL_RANK_TOL * s_0^2, and the
    vacuous 1 where that support is empty.
    """
    ev = s**2
    support = rank_mask(ev)
    empty = ~support.any(axis=-1)
    lower = np.where(empty, 1.0, np.where(support, ev, np.inf).min(axis=-1))
    return lower, np.where(empty, 1.0, ev[..., 0])


def _global_bounds(
    active: np.ndarray, lower: np.ndarray, upper: np.ndarray, tol: Tolerance
) -> tuple[float, float, bool]:
    if not active.any():
        return 1.0, 1.0, True
    lo, hi = float(lower[active].min()), float(upper[active].max())
    return lo, hi, bool(lo > tol.eq_tol)


def _tightened(q, s, v):
    """Parseval tightening U_p V_p^H of a block from its span factors: the
    span bases q and right singular vectors v of _spans with the columns off
    the Gramian support s^2 > REL_RANK_TOL s_0^2 zeroed, and that support.
    The Gramian support is a prefix of the span support, so masking the span
    bases again gives the tightened ones."""
    keep = rank_mask(s**2)
    return q * keep[..., None, :], v * keep[..., None, :], keep


def _inverse_on(s: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """1 / s where keep, 0 elsewhere."""
    return np.divide(1.0, s, out=np.zeros_like(s), where=keep)


def _canonical_duals(m: np.ndarray) -> np.ndarray:
    """Canonical duals U_p S_p^-1 V_p^H of an (atoms, d, r) block: the
    pseudo-inverse of the frame operator M M^H applied to M, on the Gramian
    support of the Parseval tightening."""
    q, _, s, v = _spans(m)
    u, v, keep = _tightened(q, s, v)
    return (u * _inverse_on(s, keep)[..., None, :]) @ ct(v)


def _pinv_dual_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse duals B U S^+ V^H of A in span(B), for the SVD U S V^H
    of the mixed Gramian B^H A, for a block pair of equal length, and per atom
    the rank condition rank B^H A = rank A = rank B under which each is an
    alternate dual of A.

    The rank of B^H A is counted twice, and both counts must equal the span
    dimensions: against its own largest singular value, the support of the
    pseudo-inverse, and against REL_RANK_TOL s_0(A) s_0(B), with s_0 the
    largest singular values of A and B.  The second count is what rejects a
    mixed Gramian of orthogonal spans, whose singular values are all rounding
    noise and so all alike.
    """
    s_a, s_b = singular_values(a), singular_values(b)
    u, s, v = svd(ct(b) @ a)
    keep = rank_mask(s)
    h = b @ (u * _inverse_on(s, keep)[..., None, :]) @ ct(v)
    dim_a, dim_b = rank_mask(s_a).sum(axis=-1), rank_mask(s_b).sum(axis=-1)
    n_keep = keep.sum(axis=-1)
    n_scaled = (s > REL_RANK_TOL * s_a[..., :1] * s_b[..., :1]).sum(axis=-1)
    return h, (dim_a == n_keep) & (dim_b == n_keep) & (dim_a == n_scaled)


def _biorth_duals(a, w) -> np.ndarray:
    """Biorthogonal duals of Riesz blocks a in the spans of the orthonormal
    bases w: h_j = W c_j with <a_i, h_j> = delta_ij, one batched solve of
    (W^H A)^T C = I."""
    eye = np.eye(a.shape[-1], dtype=np.complex128)
    return w @ solve((ct(w) @ a).swapaxes(-1, -2), eye, "biorthogonal solve").conj()


def alternate_dual_residuals(a, h, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius residuals of the alternate-dual identity G_A G_{A,H} = G_A per
    atom of (atoms, d, r) stacks of equal length, and whether each is within
    eq_tol relative to the size of G_A.

    The identity is the Gramian form of the reproducing property
    u = sum_i <u, h_i> a_i for all u in span(A).
    """
    ga = ct(a) @ a
    resid = np.linalg.norm(ga @ (ct(h) @ a) - ga, axis=(-2, -1))
    return resid, resid <= tol.eq_tol * (1.0 + np.linalg.norm(ga, axis=(-2, -1)))


def global_frame_bounds(
    s: FiberedSystem, tol: Tolerance = DEFAULT_TOL
) -> tuple[float, float, bool]:
    """Frame bounds of the derived global system for its own span.

    The lower bound is the minimum of the smallest nonzero fiber Gramian
    eigenvalues over active fibers, the upper bound the maximum of the
    largest; with no active fiber both are the vacuous 1.  is_frame asks the
    lower bound to clear eq_tol.
    """
    blocks = _blocks(s.measure.count, _FACTOR_BLOCK)
    sv = np.concatenate([singular_values(s.matrices[lo:hi]) for lo, hi in blocks])
    return _global_bounds(sv[:, 0] > 0.0, *_frame_bounds(sv), tol)


def global_inf_cos(sa: FiberedSystem, sb: FiberedSystem) -> float:
    """Infimum cosine angle of the span of SA against the span of SB, which is
    the minimum fiber angle over atoms where SA is active (1 if there are none)."""
    _same_measure(sa.measure, sb.measure)
    if sa.fiber_dim != sb.fiber_dim:
        raise ValueError("fiber dimensions differ")
    worst = 1.0
    for lo, hi in _blocks(sa.measure.count, _FACTOR_BLOCK):
        qa, dim_a, _, _ = _spans(sa.matrices[lo:hi])
        qb, dim_b, _, _ = _spans(sb.matrices[lo:hi])
        worst = min(worst, float(_inf_cos_pair(qa, dim_a, qb, dim_b)[0].min()))
    return worst


def apply_mixed_frame_operator(
    synth: FiberedSystem, analysis: FiberedSystem, f: FiberedFunction
) -> FiberedFunction:
    """Analyze f against one system and synthesize with the other, fiber by
    fiber: output(x) = sum_i <f(x), analysis_i(x)> synth_i(x)."""
    syn, ana = _padded_pair(synth, analysis)
    _same_measure(synth.measure, f.measure)
    if synth.fiber_dim != f.fiber_dim:
        raise ValueError("fiber dimensions differ")
    out = np.empty_like(f.values)
    for lo, hi in _blocks(f.measure.count, _FACTOR_BLOCK):
        coeffs = ct(ana[lo:hi]) @ f.values[lo:hi, :, None]
        out[lo:hi] = (syn[lo:hi] @ coeffs)[..., 0]
    return FiberedFunction(f.measure, out)


def pinv_dual(sa: FiberedSystem, sb: FiberedSystem) -> FiberedSystem:
    """Fiberwise pseudo-inverse dual of SA supported in the span of SB, the
    stacked form of fiberframe.dualise: on every atom H = B U S^+ V^H for the
    SVD U S V^H of the mixed Gramian B^H A, both zero-padded to a common
    length.  Raises ConstructionError unless the rank condition holds on
    every atom."""
    a_all, b_all = _padded_pair(sa, sb)
    out = np.empty_like(b_all)
    for lo, hi in _blocks(sa.measure.count, _FACTOR_BLOCK):
        out[lo:hi], feasible = _pinv_dual_pair(a_all[lo:hi], b_all[lo:hi])
        if not feasible.all():
            raise ConstructionError(_RANK_CONDITION_FAILS)
    return FiberedSystem(sa.measure, out)


def canonical_duals(sa: FiberedSystem) -> FiberedSystem:
    """Fiberwise canonical duals, the stacked form of fiberframe.canonical_dual:
    on every atom the pseudo-inverse of the frame operator applied to the
    generators.  Reproduces every function with values in the fiber spans."""
    out = np.empty_like(sa.matrices)
    for lo, hi in _blocks(sa.measure.count, _FACTOR_BLOCK):
        out[lo:hi] = _canonical_duals(sa.matrices[lo:hi])
    return FiberedSystem(sa.measure, out)


def reconstruct(
    sa: FiberedSystem, dual: FiberedSystem, f: FiberedFunction
) -> tuple[FiberedFunction, float]:
    """Reconstruct f through the mixed frame operator and report the relative
    residual in the weighted norm."""
    fhat = apply_mixed_frame_operator(sa, dual, f)
    diff = FiberedFunction(f.measure, fhat.values - f.values)
    return fhat, diff.norm() / max(f.norm(), 1e-300)


# ---------------------------------------------------------------------------
# Determining sets: scalar function families that make coefficient sums on the
# atom space computable through a Parseval identity.


@dataclass(frozen=True)
class DeterminingSet:
    """Scalar functions g_s on the atoms with the Parseval property: the map
    f -> (<f, g_s>)_s is an isometry from the weighted space to C^S."""

    measure: MeasureModel
    table: np.ndarray  # (S, K): table[s][k] = g_s(x_k)

    def __post_init__(self):
        t = as_matrix(self.table)
        if t.shape[1] != self.measure.count:
            raise ValueError(
                f"table has {t.shape[1]} columns for {self.measure.count} atoms"
            )
        b = np.sqrt(self.measure.weights)[None, :] * t.conj()
        if np.abs(b.conj().T @ b - np.eye(t.shape[1])).max() > _PARSEVAL_TOL:
            raise ValueError("function family is not Parseval for the weighted space")
        object.__setattr__(self, "table", t)
        t.flags.writeable = False


def delta_determining_set(measure: MeasureModel) -> DeterminingSet:
    """Point masses scaled by the weights: g_s = delta_s / sqrt(w_s)."""
    t = np.diag(1.0 / np.sqrt(measure.weights)).astype(np.complex128)
    return DeterminingSet(measure, t)


def fourier_determining_set(measure: MeasureModel) -> DeterminingSet:
    """Characters over the atom index, weight-normalized."""
    k = measure.count
    s_idx, k_idx = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    t = np.exp(2j * np.pi * s_idx * k_idx / k) / np.sqrt(measure.weights * k)[None, :]
    return DeterminingSet(measure, t)


# ---------------------------------------------------------------------------
# Checkers.


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the four-statement duality check for a pair of fibered systems.

    The four booleans are, in order: global dual pairs exist (certified by a
    constructed witness), both global infimum cosine angles are positive,
    fiberwise dual pairs exist on every atom, and both fiber angles are
    positive on every atom.  For genuine frames the four agree; the checker
    reports them independently.

    diagnostics holds the per-atom results as columns in measure order:
    atom (the measure's ids), dim_ja, dim_jb, r_ab, r_ba, rank_mixed and
    pinv_norm, as the writers emit them.  worst_fiber is the index of the
    atom with the smallest fiber cosine.
    """

    global_duals_exist: bool
    global_angles_positive: bool
    fiber_duals_exist: bool
    fiber_angles_positive: bool
    angles_global: tuple[float, float]
    worst_fiber: int
    diagnostics: dict[str, tuple | np.ndarray]
    witness_status: str  # "verified", "constructed, unverified-bound", "not constructed"
    witnesses: tuple[FiberedSystem, FiberedSystem] | None
    max_local_residual: float | None
    max_global_residual: float | None
    frame_bounds_a: tuple[float, float, bool]
    frame_bounds_b: tuple[float, float, bool]

    @property
    def all_hold(self) -> bool:
        return (
            self.global_duals_exist
            and self.global_angles_positive
            and self.fiber_duals_exist
            and self.fiber_angles_positive
        )


def _columns(**columns) -> dict:
    """A per-atom column table: the keyword columns in order, each array
    made read-only."""
    for column in columns.values():
        if isinstance(column, np.ndarray):
            column.flags.writeable = False
    return columns


def _probe_block(rng, m: np.ndarray, extra: int) -> np.ndarray:
    """Generators plus random span elements, stacked as probe columns, for
    every fiber of an (atoms, d, r) block."""
    shape = m.shape[:-2] + (m.shape[-1], extra)
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return np.concatenate([m, m @ coeffs], axis=-1)


def _residuals(synth, analysis, probes) -> tuple[np.ndarray, np.ndarray]:
    """Norms of u - sum_i <u, analysis_i> synth_i and of u, per probe column u."""
    out = synth @ (ct(analysis) @ probes)
    return np.linalg.norm(out - probes, axis=-2), np.linalg.norm(probes, axis=-2)


def _max_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Largest num / den over entries with den > 0 (0 when there are none)."""
    live = den > 0.0
    return float((num[live] / den[live]).max()) if np.any(live) else 0.0


def _certify_witnesses(a, b, w, tight, dual, probe_seed):
    """Drive probe functions through the witness pair (tight, dual) fiberwise
    and in the w-weighted norm; a and b are the systems' stacks padded alike.

    Returns the largest local and global relative residuals and the singular
    values of both witnesses, shape (2, atoms, k), from which the caller
    checks their spans and frame bounds.
    """
    n_atoms, r = tight.shape[0], tight.shape[2]
    rng = np.random.default_rng(probe_seed)
    max_local = 0.0
    num = np.zeros((2, r + PROBE_COUNT))
    den = np.zeros((2, r + PROBE_COUNT))
    for lo, hi in _blocks(n_atoms, _PROBE_BLOCK):
        wa, wb = tight[lo:hi], dual[lo:hi]
        sides = ((a[lo:hi], wa, wb), (b[lo:hi], wb, wa))
        for side, (m, synth, analysis) in enumerate(sides):
            res, nrm = _residuals(synth, analysis, _probe_block(rng, m, PROBE_COUNT))
            max_local = max(max_local, _max_ratio(res, nrm))
            num[side] += w[lo:hi] @ res**2
            den[side] += w[lo:hi] @ nrm**2
    wit_s = np.empty((2, n_atoms, min(tight.shape[1:])))
    for lo, hi in _blocks(n_atoms, _FACTOR_BLOCK):
        wit_s[:, lo:hi] = singular_values(tight[lo:hi]), singular_values(dual[lo:hi])
    max_global = float(np.sqrt(max(_max_ratio(num[0], den[0]), _max_ratio(num[1], den[1]))))
    return max_local, max_global, wit_s


def _fiber_pass(sa: FiberedSystem, sb: FiberedSystem, tol: Tolerance, angle_tol: float, witnesses=False):
    """The factor pass of verify_duality, which the angles command runs on its
    own: everything read off the span factors, with no witness built, no
    probe drawn and no witness factored.

    Returns the EquivalenceReport fields the pass decides, as keyword
    arguments: both angle statements, angles_global, worst_fiber,
    diagnostics and both frame bounds.  When witnesses is true it also
    returns the witness material: the padded stacks of SA and SB, the
    tightened SA, its pseudo-inverse dual in the tightened SB, and per atom
    whether that pair meets the rank condition; None otherwise.  Raises
    ValueError when either system is not a frame for its span.

    Atoms are processed in blocks of _FACTOR_BLOCK, each factored once.  Per
    block: the span SVDs of A and B (spans, ranks, frame bounds), the
    singular values of the masked cross product Qb^H Qa, and the SVD
    X S Y^H of the cross product of the tightened systems.  The singular
    values of Qb^H Qa are the principal cosines between the spans; the
    smallest gives both infimum cosines, and rank_mixed, the rank of B^H A,
    is the number of them above REL_RANK_TOL (Bjorck & Golub, Math. Comp.
    27, 1973), a cutoff on the scale of A and B rather than of B^H A.
    Parseval tightening of M = U S V^H is U_p V_p^H, U_p the singular
    vectors on the Gramian support s^2 > REL_RANK_TOL s_0^2, so that cross
    product is Ub_p^H Ua_p, whose singular values are the principal cosines
    of the tightened spans.  pinv_norm is 1 over the smallest of them above
    REL_RANK_TOL, on the same scale as rank_mixed, and 0 when none is; the
    pseudo-inverse dual of the tightened pair is Ub_p X S^+ Y^H Va_p^H.
    """
    a_all, b_all = _padded_pair(sa, sb)
    n_atoms = sa.measure.count
    dim_a, dim_b, rank_mixed = (np.empty(n_atoms, dtype=np.int64) for _ in range(3))
    r_ab, r_ba, pinv_norm = (np.empty(n_atoms) for _ in range(3))
    bounds = np.empty((4, n_atoms))  # lower and upper frame bounds of A, then of B
    if witnesses:
        dualisable = np.empty(n_atoms, dtype=bool)
        tight = np.empty_like(a_all)
        dual = np.empty_like(a_all)
    for lo, hi in _blocks(n_atoms, _FACTOR_BLOCK):
        qa, dim_a[lo:hi], s_a, v_a = _spans(a_all[lo:hi])
        qb, dim_b[lo:hi], s_b, v_b = _spans(b_all[lo:hi])
        bounds[0:2, lo:hi] = _frame_bounds(s_a)
        bounds[2:4, lo:hi] = _frame_bounds(s_b)
        r_ab[lo:hi], r_ba[lo:hi], cos = _inf_cos_pair(qa, dim_a[lo:hi], qb, dim_b[lo:hi])
        rank_mixed[lo:hi] = (cos > REL_RANK_TOL).sum(axis=-1)
        ua, va, keep_a = _tightened(qa, s_a, v_a)
        ub, _, keep_b = _tightened(qb, s_b, v_b)
        x, sig, y = svd(ct(ub) @ ua)
        pinv_norm[lo:hi] = _inverse_on(sig, sig > REL_RANK_TOL).max(axis=-1)
        if witnesses:
            keep = rank_mask(sig)
            tight[lo:hi] = ua @ ct(va)
            dual[lo:hi] = ub @ (x * _inverse_on(sig, keep)[..., None, :]) @ ct(va @ y)
            # the rank condition of the pseudo-inverse dual of the tightened pair
            n_keep = keep.sum(axis=-1)
            dualisable[lo:hi] = (keep_a.sum(axis=-1) == n_keep) & (keep_b.sum(axis=-1) == n_keep)

    bounds_a = _global_bounds(dim_a > 0, bounds[0], bounds[1], tol)
    bounds_b = _global_bounds(dim_b > 0, bounds[2], bounds[3], tol)
    if not bounds_a[2]:
        raise ValueError("first system is not a frame for its span")
    if not bounds_b[2]:
        raise ValueError("second system is not a frame for its span")

    angles_global = (
        float(r_ab[dim_a > 0].min()) if np.any(dim_a > 0) else 1.0,
        float(r_ba[dim_b > 0].min()) if np.any(dim_b > 0) else 1.0,
    )
    fields = dict(
        global_angles_positive=angles_global[0] > angle_tol and angles_global[1] > angle_tol,
        fiber_angles_positive=bool(np.all((r_ab > angle_tol) & (r_ba > angle_tol))),
        angles_global=angles_global,
        worst_fiber=int(np.argmin(np.minimum(r_ab, r_ba))),
        diagnostics=_columns(
            atom=sa.measure.atoms,
            dim_ja=dim_a,
            dim_jb=dim_b,
            r_ab=r_ab,
            r_ba=r_ba,
            rank_mixed=rank_mixed,
            pinv_norm=pinv_norm,
        ),
        frame_bounds_a=bounds_a,
        frame_bounds_b=bounds_b,
    )
    return fields, ((a_all, b_all, tight, dual, dualisable) if witnesses else None)


def verify_duality(
    sa: FiberedSystem,
    sb: FiberedSystem,
    tol: Tolerance = DEFAULT_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
    c_max: float = DEFAULT_C_MAX,
    probe_seed: int = 0,
) -> EquivalenceReport:
    """Evaluate the duality equivalences for the pair (SA, SB).

    Requires both systems to be frames for their spans.  Angle statements are
    computed from fiber Gramians.  Existence statements are certified
    constructively: each fiber of SA and SB is Parseval-tightened, the
    tightened SB is pushed through the pseudo-inverse dual construction, and
    the resulting pair must reproduce probe functions fiberwise (local
    statement) and in the weighted global norm (global statement).  A fiber
    whose mixed-Gramian pseudo-inverse exceeds c_max downgrades the witness
    to "constructed, unverified-bound".

    The spans, angles, ranks and witnesses come from one factor pass over
    blocks of _FACTOR_BLOCK atoms (_fiber_pass); the witnesses' singular
    values are taken in the same blocks, and the probes in blocks of
    _PROBE_BLOCK.
    """
    fields, (a_all, b_all, tight, dual, dualisable) = _fiber_pass(
        sa, sb, tol, angle_tol, witnesses=True
    )
    diagnostics = fields["diagnostics"]
    dim_a, dim_b = diagnostics["dim_ja"], diagnostics["dim_jb"]
    pinv_norm = diagnostics["pinv_norm"]

    witnesses = None
    witness_status = "not constructed"
    max_local = None
    max_global = None
    fiber_duals_exist = False
    global_duals_exist = False
    feasible = np.all((diagnostics["rank_mixed"] == dim_a) & (dim_a == dim_b))
    if feasible and np.all(dualisable):
        witnesses = (FiberedSystem(sa.measure, tight), FiberedSystem(sa.measure, dual))
        max_local, max_global, wit_s = _certify_witnesses(
            a_all, b_all, sa.measure.weights, tight, dual, probe_seed
        )
        # Witness sanity: spans match fiberwise and both are frames.
        spans_ok = all(
            np.array_equal(rank_mask(s).sum(axis=-1), dims)
            for s, dims in zip(wit_s, (dim_a, dim_b))
        )
        frames_ok = all(
            _global_bounds(s[:, 0] > 0.0, *_frame_bounds(s), tol)[2] for s in wit_s
        )
        fiber_duals_exist = max_local <= tol.eq_tol
        global_duals_exist = (
            fiber_duals_exist and max_global <= tol.eq_tol and spans_ok and frames_ok
        )
        witness_status = (
            "verified" if np.all(pinv_norm <= c_max) else "constructed, unverified-bound"
        )

    return EquivalenceReport(
        global_duals_exist=global_duals_exist,
        fiber_duals_exist=fiber_duals_exist,
        witness_status=witness_status,
        witnesses=witnesses,
        max_local_residual=max_local,
        max_global_residual=max_global,
        **fields,
    )


@dataclass(frozen=True)
class BiorthogonalityReport:
    """Outcome of the fiberwise biorthogonal-dual construction.

    rows holds the per-atom results as columns in measure order: atom (the
    measure's ids), the cosines r_aw and r_wa, and ok, whether they clear
    the angle tolerance.  The dual and its residuals are None unless every
    atom is ok.
    """

    holds: bool
    rows: dict[str, tuple | np.ndarray]
    riesz_bounds: tuple[float, float]
    dual: FiberedSystem | None = None
    biorth_deviation: float | None = None
    repro_residual: float | None = None

    @property
    def failed_atoms(self) -> list[str]:
        """Ids of the atoms that are not ok, in measure order."""
        return [self.rows["atom"][k] for k in np.flatnonzero(~self.rows["ok"])]


def verify_biorthogonality(
    sa: FiberedSystem,
    targets: list[Subspace],
    angle_tol: float = DEFAULT_ANGLE_TOL,
    probe_seed: int = 0,
) -> BiorthogonalityReport:
    """Check fiberwise duality of a Riesz family against target subspaces and
    construct the biorthogonal dual family when every fiber passes.

    Every fiber of SA must be a Riesz sequence (raises ConstructionError
    otherwise) and every target must have dimension r.  The angle conditions
    are evaluated per atom; failures are reported by atom id instead of
    raising, since a negative answer is a result.

    Each block of _FACTOR_BLOCK atoms is factored once: the span SVD of A
    gives the Riesz test, the bounds and the span basis Q, and the singular
    values of W^H Q the angles, which coincide in both directions because
    both spans have dimension r.  The dual h_j = W c_j solves
    <a_i, h_j> = delta_ij, one batched solve of (W^H A)^T C = I per block of
    _PROBE_BLOCK atoms, the blocks its probes are drawn for.
    """
    a_all, (n_atoms, d, r) = sa.matrices, sa.matrices.shape
    if len(targets) != n_atoms:
        raise ValueError(f"got {len(targets)} target subspaces for {n_atoms} atoms")
    basis = np.empty((n_atoms, d, min(d, r)), dtype=np.complex128)
    lowers, uppers = np.empty(n_atoms), np.empty(n_atoms)
    for lo, hi in _blocks(n_atoms, _FACTOR_BLOCK):
        basis[lo:hi], dims, s, _ = _spans(a_all[lo:hi])
        if np.any(dims != r):
            atom = sa.measure.atoms[lo + int(np.argmax(dims != r))]
            raise ConstructionError(f"fiber at atom {atom!r} is not a Riesz sequence")
        lowers[lo:hi], uppers[lo:hi] = _frame_bounds(s)
    riesz_bounds = (float(lowers.min()), float(uppers.max()))
    for atom, w in zip(sa.measure.atoms, targets):
        if w.ambient_dim != d:
            raise ValueError(f"target at atom {atom!r} has wrong ambient dimension")
        if w.dim != r:
            raise ValueError(f"target at atom {atom!r} has dimension {w.dim}, expected {r}")
    w_all = np.stack([w.basis for w in targets])

    span_dims = np.full(n_atoms, r)
    cos = np.concatenate([
        _inf_cos_pair(basis[lo:hi], span_dims[lo:hi], w_all[lo:hi], span_dims[lo:hi])[0]
        for lo, hi in _blocks(n_atoms, _FACTOR_BLOCK)
    ])
    rows = _columns(atom=sa.measure.atoms, r_aw=cos, r_wa=cos, ok=cos > angle_tol)
    if not rows["ok"].all():
        return BiorthogonalityReport(holds=False, rows=rows, riesz_bounds=riesz_bounds)

    rng = np.random.default_rng(probe_seed)
    eye = np.eye(r, dtype=np.complex128)
    dual = np.empty((n_atoms, d, r), dtype=np.complex128)
    dev = repro = 0.0
    for lo, hi in _blocks(n_atoms, _PROBE_BLOCK):
        a, wb = a_all[lo:hi], w_all[lo:hi]
        h = dual[lo:hi] = _biorth_duals(a, wb)
        dev = max(dev, float(np.abs((ct(h) @ a).swapaxes(-1, -2) - eye).max()))
        probes_a = _probe_block(rng, a, PROBE_COUNT)
        probes_w = _probe_block(rng, wb, PROBE_COUNT)
        repro = max(repro, _max_ratio(*_residuals(a, h, probes_a)))
        repro = max(repro, _max_ratio(*_residuals(h, a, probes_w)))
    return BiorthogonalityReport(
        holds=True,
        rows=rows,
        riesz_bounds=riesz_bounds,
        dual=FiberedSystem(sa.measure, dual),
        biorth_deviation=dev,
        repro_residual=repro,
    )
