"""Seeded instance families for the duality checkers.

Three families of fibered-system pairs, all built the same way: per atom,
draw a random orthonormal k-frame V, rotate it against its orthogonal
complement by prescribed principal cosines to get W, and emit generators
V C_A and W C_B with well-conditioned coefficient blocks.  The principal
cosines between the fiber spans are then exactly the prescribed values,
which is what lets each family pin its angle profile:

    in-duality          every cosine drawn from [delta, 1]
    orthogonal-failure  one atom gets cosines identically 0
    near-threshold      one atom gets one cosine exactly eps

The draws are stacked: duality_instance makes them for a block of
_GEN_BLOCK atoms at a time, one batched call per quantity (span
dimensions, cosines, unitaries, the A and then the B coefficient blocks,
probe coefficients), and rejection sampling redraws only the atoms whose
coefficient block was rejected.  The per-atom functions random_unitary,
rotated_span_pair, well_conditioned_coefficients and fiber_pair are the
one-atom calls of the same kernels.

duality_instance returns a mispace.PairDocument, the type every reader
returns.  A single numpy Generator drives it all, so a seed fixes the
instance bit for bit.
"""

from __future__ import annotations

import numpy as np

from .mispace import FiberedFunction, FiberedSystem, FiberSystem, MeasureModel, PairDocument
from .numkernel import qr, singular_values

FAMILIES = ("in-duality", "orthogonal-failure", "near-threshold")

# Atoms per block of duality_instance's draws.  It bounds the temporaries
# (n x dim x dim unitaries, n x min(dim, gens) x gens coefficient draws) and
# is part of the draw order, so changing it changes every instance.
_GEN_BLOCK = 1024


def complex_gaussian(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unitaries(rng, n: int, d: int) -> np.ndarray:
    """n Haar-distributed d x d unitaries as an (n, d, d) stack.

    Each is the Q of the QR of a Gaussian block with the phases of R's
    diagonal moved into Q (Mezzadri, Notices AMS 54, 2007), which makes the
    factorization unique, not just deterministic.
    """
    q, r = qr(complex_gaussian(rng, n, d, d))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :].conj()


def random_unitary(rng, d: int) -> np.ndarray:
    return random_unitaries(rng, 1, d)[0]


# Draws each atom gets for its coefficient block before giving up, and the
# largest condition number accepted.  Square k x k Gaussian blocks pass
# cond <= 20 about 63% of the time at k = 8 and 12% at k = 16, so 1000 draws
# fail there with probability below 1e-50; at k = 32 none of 2000 draws passed.
MAX_COEFFICIENT_DRAWS = 1000
MAX_COND = 20.0


def _exhausted(k: int, r: int) -> str:
    return (
        f"no {k} x {r} coefficient block with condition number <= {MAX_COND:g} "
        f"in {MAX_COEFFICIENT_DRAWS} draws"
    )


def _coefficient_blocks(rng, ks: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked well-conditioned coefficient blocks, one per atom.

    Returns an (n, max ks, r) stack whose block i has its rows >= ks[i] zero
    and its first ks[i] rows of condition number at most MAX_COND, and the
    ascending indices of the atoms that ran out of draws (their blocks stay
    zero).  Needs max ks <= r.  Each round draws one block for every atom
    not yet accepted, for at most MAX_COEFFICIENT_DRAWS rounds.
    """
    n, kmax = len(ks), int(ks.max())
    if kmax > r:
        raise ValueError("need k <= r for a full-row-rank coefficient block")
    live = np.arange(kmax) < ks[:, None]
    out = np.zeros((n, kmax, r), dtype=np.complex128)
    todo = np.arange(n)
    for _ in range(MAX_COEFFICIENT_DRAWS):
        c = np.where(live[todo, :, None], complex_gaussian(rng, todo.size, kmax, r), 0.0)
        s = singular_values(c)
        last = s[np.arange(todo.size), ks[todo] - 1]
        ok = last > 0.0
        ok[ok] = s[ok, 0] / last[ok] <= MAX_COND
        out[todo[ok]] = c[ok]
        todo = todo[~ok]
        if not todo.size:
            break
    return out, todo


def _rotated_spans(rng, d: int, ks: np.ndarray, cosines: np.ndarray):
    """Stacked rotated_span_pair for atoms with span dimensions ks and
    cosines (n, kmax), kmax = max ks.  Returns V and W as (n, d, kmax) stacks
    and the effective cosines (n, kmax); columns and cosines past ks[i] are
    those of unrotated directions (W = V there, cosine 1)."""
    q = random_unitaries(rng, len(ks), d)
    kmax = cosines.shape[1]
    j = np.arange(kmax)
    turned = j < np.minimum(ks, d - ks)[:, None]
    cos = np.where(turned, cosines, 1.0)
    # column ks[i] + j of Q_i: the complement direction that direction j turns to
    partner = np.take_along_axis(q, np.minimum(ks[:, None] + j, d - 1)[:, None, :], axis=2)
    rot = np.where(turned[:, None, :], partner, 0.0)
    v = q[:, :, :kmax]
    w = v * cos[:, None, :] + rot * np.sqrt(1.0 - cos**2)[:, None, :]
    return v, w, cos


def _fiber_pairs(rng, d: int, r: int, ks: np.ndarray, cosines: np.ndarray):
    """Stacked fiber_pair: the A and B fiber stacks (n, d, r) and the
    effective cosines.  Raises ValueError naming the span dimension of the
    first atom, in atom order, whose A or B block ran out of draws."""
    cosines = cosines[:, : int(ks.max())]
    v, w, cos = _rotated_spans(rng, d, ks, cosines)
    ca, out_a = _coefficient_blocks(rng, ks, r)
    # Atoms past the first one that ran out cannot change the error raised.
    first = int(out_a[0]) if out_a.size else len(ks)
    if first:
        cb, out_b = _coefficient_blocks(rng, ks[:first], r)
        if out_b.size:
            first = int(out_b[0])
    if first < len(ks):
        raise ValueError(_exhausted(int(ks[first]), r))
    return v @ ca, w @ cb, cos


def _checked_cosines(d: int, k: int, cosines) -> np.ndarray:
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    cos = np.asarray(cosines, dtype=float)
    if cos.shape != (k,):
        raise ValueError(f"need {k} cosines, got shape {cos.shape}")
    if np.any(cos < 0.0) or np.any(cos > 1.0):
        raise ValueError("cosines must lie in [0, 1]")
    return cos


def well_conditioned_coefficients(rng, k: int, r: int) -> np.ndarray:
    """A k x r block (k <= r) with condition number at most MAX_COND.

    Raises ValueError when MAX_COEFFICIENT_DRAWS Gaussian draws all fail.
    """
    c, out = _coefficient_blocks(rng, np.array([k]), r)
    if out.size:
        raise ValueError(_exhausted(k, r))
    return c[0]


def rotated_span_pair(rng, d: int, k: int, cosines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal V and W (d x k) whose principal cosines are the given values.

    Only min(k, d - k) directions can be rotated away from V; the remaining
    cosines are forced to 1.  Returns (V, W, effective cosines).
    """
    cos = _checked_cosines(d, k, cosines)
    v, w, cos = _rotated_spans(rng, d, np.array([k]), cos[None])
    return v[0], w[0], cos[0]


def fiber_pair(rng, d: int, r: int, k: int, cosines) -> tuple[FiberSystem, FiberSystem, np.ndarray]:
    """One fiber of each system: spans of dimension k with prescribed angles."""
    cos = _checked_cosines(d, k, cosines)
    a, b, cos = _fiber_pairs(rng, d, r, np.array([k]), cos[None])
    return FiberSystem(a[0]), FiberSystem(b[0]), cos[0]


def random_fiber_system(rng, dim: int, count: int, zero_cols: int = 0) -> FiberSystem:
    """Gaussian fiber system; optionally a few generators are the zero vector.

    The nonzero generators are linearly independent with probability one when
    count - zero_cols <= dim.
    """
    if not 0 <= zero_cols < count + 1:
        raise ValueError("zero_cols must lie in [0, count]")
    live = count - zero_cols
    m = np.zeros((dim, count), dtype=np.complex128)
    if live:
        positions = rng.choice(count, size=live, replace=False)
        m[:, np.sort(positions)] = complex_gaussian(rng, dim, live)
    return FiberSystem(m)


def random_fibered_system(rng, n_atoms: int, dim: int, count: int) -> FiberedSystem:
    measure = MeasureModel(
        tuple(f"x{i}" for i in range(n_atoms)), rng.uniform(0.5, 1.5, n_atoms)
    )
    fibers = tuple(random_fiber_system(rng, dim, count) for _ in range(n_atoms))
    return FiberedSystem(measure, fibers)


def duality_instance(
    family: str,
    n_atoms: int,
    dim: int,
    count: int,
    seed: int,
    delta: float = 0.1,
    eps: float = 1e-6,
) -> PairDocument:
    """Draw one seeded pair of fibered systems from the named family.

    Returns a PairDocument of sa, sb, a probe in span(A) and meta, without
    targets.  delta is the angle floor for the in-duality family; eps is the
    exact minimum cosine planted by the near-threshold family.

    Draw order: the atom weights and the special atom's index for the whole
    instance, then, block by block of _GEN_BLOCK atoms, the span dimensions,
    the cosines (one row of min(dim, count) per atom), the special atom's
    overrides when it lies in the block, the unitaries, the A coefficient
    blocks with their redraws, the B blocks with theirs, and the probe
    coefficients.  The block size is part of that order: another _GEN_BLOCK
    gives other instances for the same seed.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (choose from {', '.join(FAMILIES)})")
    if n_atoms < 1 or dim < 1 or count < 1:
        raise ValueError("n_atoms, dim and count must be at least 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if family in ("orthogonal-failure", "near-threshold") and dim < 2:
        raise ValueError(f"the {family} family needs fiber dimension at least 2")

    rng = np.random.default_rng(seed)
    measure = MeasureModel(
        tuple(f"x{i}" for i in range(n_atoms)), rng.uniform(0.5, 1.5, n_atoms)
    )
    special = int(rng.integers(0, n_atoms))
    kmax = min(dim, count)
    mats_a = np.empty((n_atoms, dim, count), dtype=np.complex128)
    mats_b = np.empty_like(mats_a)
    probe_vals = np.empty((n_atoms, dim), dtype=np.complex128)
    min_cos = 1.0
    for lo in range(0, n_atoms, _GEN_BLOCK):
        hi = min(lo + _GEN_BLOCK, n_atoms)
        ks = rng.integers(1, kmax + 1, hi - lo)
        cosines = rng.uniform(delta, 1.0, (hi - lo, kmax))
        if family != "in-duality" and lo <= special < hi:
            i = special - lo
            ks[i] = rng.integers(1, min(count, max(1, dim // 2)) + 1)
            if family == "orthogonal-failure":
                cosines[i] = 0.0
            else:
                cosines[i] = np.concatenate([[eps], rng.uniform(0.5, 1.0, kmax - 1)])
        a, b, cos = _fiber_pairs(rng, dim, count, ks, cosines)
        mats_a[lo:hi], mats_b[lo:hi] = a, b
        probe_vals[lo:hi] = (a @ complex_gaussian(rng, hi - lo, count, 1))[..., 0]
        min_cos = min(min_cos, float(cos.min()))
    sa = FiberedSystem(measure, mats_a)
    sb = FiberedSystem(measure, mats_b)
    probe = FiberedFunction(measure, probe_vals)
    meta = {
        "family": family,
        "seed": int(seed),
        "n_atoms": int(n_atoms),
        "dim": int(dim),
        "count": int(count),
        "delta": float(delta),
        "eps": float(eps),
        "special_atom": measure.atoms[special]
        if family in ("orthogonal-failure", "near-threshold")
        else None,
        "min_cosine": min_cos,
    }
    return PairDocument(sa, sb, probe=probe, meta=meta)
