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

Everything is driven by a single numpy Generator, so a seed fixes the
instance bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fiberframe import FiberSystem
from .mispace import FiberedFunction, FiberedSystem, MeasureModel
from .numkernel import qr, singular_values

FAMILIES = ("in-duality", "orthogonal-failure", "near-threshold")


def complex_gaussian(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = qr(complex_gaussian(rng, d, d))
    # Fix the phase so the factorization is unique, not just deterministic.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()


def well_conditioned_coefficients(rng, k: int, r: int, max_cond: float = 20.0) -> np.ndarray:
    """A k x r block (k <= r) with condition number at most max_cond."""
    if k > r:
        raise ValueError("need k <= r for a full-row-rank coefficient block")
    while True:
        c = complex_gaussian(rng, k, r)
        s = singular_values(c)
        if s[-1] > 0.0 and s[0] / s[-1] <= max_cond:
            return c


def rotated_span_pair(rng, d: int, k: int, cosines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal V and W (d x k) whose principal cosines are the given values.

    Only min(k, d - k) directions can be rotated away from V; the remaining
    cosines are forced to 1.  Returns (V, W, effective cosines).
    """
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


def fiber_pair(rng, d: int, r: int, k: int, cosines) -> tuple[FiberSystem, FiberSystem, np.ndarray]:
    """One fiber of each system: spans of dimension k with prescribed angles."""
    v, w, cos = rotated_span_pair(rng, d, k, cosines)
    a = FiberSystem(v @ well_conditioned_coefficients(rng, k, r))
    b = FiberSystem(w @ well_conditioned_coefficients(rng, k, r))
    return a, b, cos


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


@dataclass(frozen=True)
class GeneratedPair:
    sa: FiberedSystem
    sb: FiberedSystem
    probe: FiberedFunction
    meta: dict = field(default_factory=dict)


def duality_instance(
    family: str,
    n_atoms: int,
    dim: int,
    count: int,
    seed: int,
    delta: float = 0.1,
    eps: float = 1e-6,
) -> GeneratedPair:
    """Draw one seeded pair of fibered systems from the named family.

    delta is the angle floor for the in-duality family; eps is the exact
    minimum cosine planted by the near-threshold family.
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
    fibers_a, fibers_b = [], []
    min_cos = 1.0
    for i in range(n_atoms):
        if family == "orthogonal-failure" and i == special:
            k = int(rng.integers(1, min(count, max(1, dim // 2)) + 1))
            cosines = np.zeros(k)
        elif family == "near-threshold" and i == special:
            k = int(rng.integers(1, min(count, max(1, dim // 2)) + 1))
            cosines = np.concatenate([[eps], rng.uniform(0.5, 1.0, k - 1)])
        else:
            k = int(rng.integers(1, kmax + 1))
            cosines = rng.uniform(delta, 1.0, k)
        a, b, cos = fiber_pair(rng, dim, count, k, cosines)
        fibers_a.append(a)
        fibers_b.append(b)
        min_cos = min(min_cos, float(cos.min()))
    sa = FiberedSystem(measure, tuple(fibers_a))
    sb = FiberedSystem(measure, tuple(fibers_b))
    probe_vals = np.stack(
        [f.matrix @ complex_gaussian(rng, count) for f in fibers_a]
    )
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
    return GeneratedPair(sa, sb, probe, meta)
