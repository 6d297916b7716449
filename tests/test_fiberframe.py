"""Single-fiber duality constructions: Gramians, duals, tightening, biorthogonality."""

import numpy as np
import pytest

from framekit.fiberframe import (
    ConstructionError,
    FiberSystem,
    biorth_riesz_dual,
    canonical_dual,
    dualise,
    gramian,
    is_alternate_dual,
    mixed_gramian,
    pad_pair,
    parsevalize,
    rank_condition,
)
from framekit.numkernel import rank
from framekit.subspace import Subspace, inf_cos
from oracles import (
    biorth_riesz_dual_via_projection,
    biorthogonality_deviation,
    reproduction_residual,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def rotated_span_pair(rng, d, k, cosines):
    """Orthonormal V (d x k) and W (d x k) whose principal cosines against each
    other are exactly the requested values (entries beyond d - k are forced 1)."""
    q, _ = np.linalg.qr(random_complex(rng, d, d))
    v = q[:, :k]
    compl = q[:, k:]
    cos = np.asarray(cosines, dtype=float).copy()
    m = min(k, d - k)
    cos[m:] = 1.0
    w = v * cos + np.concatenate(
        [compl[:, :m], np.zeros((d, k - m))], axis=1
    ) * np.sqrt(1.0 - cos**2)
    return v, w, cos


def test_fiber_system_basics():
    a = FiberSystem.from_vectors([E1, E1 + E2])
    assert a.dim == 2 and a.count == 2
    assert np.allclose(a.matrix[:, 1], [1.0, 1.0])
    with pytest.raises(ValueError):
        FiberSystem(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        FiberSystem(np.array([[np.nan, 0.0]]))
    padded = a.padded(4)
    assert padded.count == 4
    assert np.allclose(padded.matrix[:, 2:], 0.0)


def test_gramian_example():
    a = FiberSystem.from_vectors([E1, E1 + E2])
    b = gramian(a)
    assert np.allclose(b.gram, [[1.0, 1.0], [1.0, 2.0]])
    # Oracle: eigenvalues of [[1,1],[1,2]] are (3 -+ sqrt 5)/2.
    lo, hi = (3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0
    assert b.frame_lower == pytest.approx(lo, abs=1e-12)
    assert b.frame_upper == pytest.approx(hi, abs=1e-12)
    assert b.span.dim == 2


def test_gramian_zero_system():
    b = gramian(FiberSystem.zeros(3, 2))
    assert b.frame_lower == 1.0 and b.frame_upper == 1.0
    assert b.span.dim == 0


def test_mixed_gramian_orientation():
    a = FiberSystem.from_vectors([E1])
    b = FiberSystem.from_vectors([E1 + E2])
    assert np.allclose(mixed_gramian(a, b), [[1.0]])
    c = FiberSystem.from_vectors([1j * E1])
    # <c_1, a_1> = i conj(1) = i.
    assert mixed_gramian(c, a)[0, 0] == pytest.approx(1j)
    # Padding: unequal lengths are compared after zero extension.
    d = FiberSystem.from_vectors([E1, E2, E1])
    g = mixed_gramian(a, d)
    assert g.shape == (3, 3)
    assert np.allclose(g[:, 1:], 0.0)


def test_canonical_dual_examples():
    a = FiberSystem.from_vectors([2.0 * E1])
    assert np.allclose(canonical_dual(a).matrix, np.array([[0.5], [0.0]]))
    assert is_alternate_dual(a, canonical_dual(a))


def test_canonical_dual_reproduces_span():
    rng = np.random.default_rng(53)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        r = int(rng.integers(1, 7))
        m = random_complex(rng, d, r)
        if rng.uniform() < 0.3:
            m[:, 0] = 0.0
        a = FiberSystem(m)
        dual = canonical_dual(a)
        probes = np.concatenate([m, m @ random_complex(rng, r, 8)], axis=1)
        assert reproduction_residual(a, dual, probes) <= 1e-8
        # The canonical dual also reproduces in the reverse pairing.
        assert reproduction_residual(dual, a, probes) <= 1e-8
        assert is_alternate_dual(a, dual)


def test_parsevalize_examples():
    a = FiberSystem.from_vectors([2.0 * E1])
    assert np.allclose(parsevalize(a).matrix, np.array([[1.0], [0.0]]))

    doubled = FiberSystem.from_vectors([E1, E1])
    p = parsevalize(doubled)
    assert np.allclose(p.matrix, np.array([[1.0, 1.0], [0.0, 0.0]]) / np.sqrt(2.0))
    g = p.matrix.conj().T @ p.matrix
    assert np.allclose(g, np.ones((2, 2)) / 2.0)
    assert np.allclose(np.linalg.eigvalsh(g), [0.0, 1.0], atol=1e-12)


def test_parsevalize_properties():
    rng = np.random.default_rng(59)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        r = int(rng.integers(1, 7))
        m = random_complex(rng, d, r)
        if rng.uniform() < 0.25:
            m[:, : max(1, r // 2)] = 0.0
        if rng.uniform() < 0.25 and r >= 2:
            m[:, -1] = m[:, 0]  # force a dependent generator
        a = FiberSystem(m)
        p = parsevalize(a)
        g = p.matrix.conj().T @ p.matrix
        # Projection Gramian: idempotent with eigenvalues in {0, 1}.
        assert np.linalg.norm(g @ g - g) <= 1e-8
        eig = np.linalg.eigvalsh(g)
        assert np.all((np.abs(eig) < 1e-8) | (np.abs(eig - 1.0) < 1e-8))
        # Span is preserved.
        sa = Subspace.span_of(a.matrix)
        sp = Subspace.span_of(p.matrix)
        assert sa.dim == sp.dim
        assert inf_cos(sa, sp) >= 1.0 - 1e-10
        # Generator norms never exceed 1.
        assert np.all(np.linalg.norm(p.matrix, axis=0) <= 1.0 + 1e-10)
        # Tight systems are fixed points.
        again = parsevalize(p)
        assert np.abs(again.matrix - p.matrix).max() <= 1e-8


def test_parsevalize_full_rank_norms():
    # With linearly independent nonzero generators plus zero padding, every
    # output generator has norm exactly 0 or 1.
    rng = np.random.default_rng(61)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        m = random_complex(rng, d, k)
        zero_cols = int(rng.integers(0, 3))
        if zero_cols:
            m = np.concatenate([m, np.zeros((d, zero_cols))], axis=1)
        p = parsevalize(FiberSystem(m))
        norms = np.linalg.norm(p.matrix, axis=0)
        assert np.all((np.abs(norms) < 1e-8) | (np.abs(norms - 1.0) < 1e-8))


def test_rank_condition_examples():
    a = FiberSystem.from_vectors([E1])
    assert rank_condition(a, FiberSystem.from_vectors([E1 + E2]))
    assert not rank_condition(a, FiberSystem.from_vectors([E2]))
    assert rank_condition(FiberSystem.zeros(2, 1), FiberSystem.zeros(2, 1))
    assert not rank_condition(a, FiberSystem.zeros(2, 1))


def test_dualise_example():
    a = FiberSystem.from_vectors([2.0 * E1])
    b = FiberSystem.from_vectors([E1 + E2])
    h = dualise(a, b)
    assert np.allclose(h.matrix, np.array([[0.5], [0.5]]))
    assert is_alternate_dual(a, h)
    assert is_alternate_dual(h, a)


def test_dualise_requires_rank_condition():
    a = FiberSystem.from_vectors([E1])
    with pytest.raises(ConstructionError):
        dualise(a, FiberSystem.from_vectors([E2]))


def test_dualise_properties():
    rng = np.random.default_rng(67)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(d, r) + 1))
        cosines = rng.uniform(0.2, 1.0, size=k)
        v, w, _ = rotated_span_pair(rng, d, k, cosines)
        a = FiberSystem(v @ random_complex(rng, k, r))
        b = FiberSystem(w @ random_complex(rng, k, r))
        if rank(a.matrix) < k or rank(b.matrix) < k:
            continue
        h = dualise(a, b)
        assert is_alternate_dual(a, h)
        assert is_alternate_dual(h, a)
        # Dual generators live in span(B).
        span_b = Subspace.span_of(b.matrix)
        inside = span_b.basis @ (span_b.basis.conj().T @ h.matrix)
        assert np.abs(inside - h.matrix).max() <= 1e-9 * max(1.0, np.abs(h.matrix).max())
        # Reproduction on span(A) probes.
        probes = a.matrix @ random_complex(rng, r, 8)
        assert reproduction_residual(a, h, probes) <= 1e-8


def test_dualise_zero_pair():
    z = FiberSystem.zeros(3, 2)
    h = dualise(z, z)
    assert np.allclose(h.matrix, 0.0)


def test_biorth_example():
    a = FiberSystem.from_vectors([E1])
    w = Subspace.span_of(np.array([[1.0], [1.0]]))
    h = biorth_riesz_dual(a, w)
    assert np.allclose(h.matrix, np.array([[1.0], [1.0]]))
    assert biorthogonality_deviation(a, h) <= 1e-12
    h2 = biorth_riesz_dual_via_projection(a, w)
    assert np.abs(h2.matrix - h.matrix).max() <= 1e-12


def test_biorth_preconditions():
    a = FiberSystem.from_vectors([E1, E1])
    with pytest.raises(ConstructionError):
        biorth_riesz_dual(a, Subspace.full(2))
    b = FiberSystem.from_vectors([E1])
    with pytest.raises(ConstructionError, match="dim W = 2"):
        biorth_riesz_dual(b, Subspace.full(2))  # dim W != r, as in verify_biorthogonality
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        biorth_riesz_dual(b, Subspace.full(3))
    with pytest.raises(ConstructionError):
        biorth_riesz_dual(b, Subspace.span_of(np.array([[0.0], [1.0]])))  # orthogonal


def test_biorth_routes_agree():
    rng = np.random.default_rng(71)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(4, d) + 1))
        cosines = rng.uniform(0.15, 1.0, size=r)
        v, wb, _ = rotated_span_pair(rng, d, r, cosines)
        a = FiberSystem(v @ random_complex(rng, r, r))
        if rank(a.matrix) < r:
            continue
        w = Subspace(wb)
        h1 = biorth_riesz_dual(a, w)
        h2 = biorth_riesz_dual_via_projection(a, w)
        assert biorthogonality_deviation(a, h1) <= 1e-8
        assert biorthogonality_deviation(a, h2) <= 1e-8
        assert np.abs(h1.matrix - h2.matrix).max() <= 1e-7 * max(1.0, np.abs(h1.matrix).max())
        # The dual spans W and is itself Riesz.
        assert rank(h1.matrix) == h1.count
        assert inf_cos(Subspace.span_of(h1.matrix), w) >= 1.0 - 1e-8


def test_biorth_dual_reproduces_obliquely():
    # The biorthogonal dual gives the oblique reconstruction u = sum <u, h_i> a_i
    # for u in span(A).
    rng = np.random.default_rng(73)
    v, wb, _ = rotated_span_pair(rng, 5, 3, [0.4, 0.7, 0.9])
    a = FiberSystem(v @ random_complex(rng, 3, 3))
    h = biorth_riesz_dual(a, Subspace(wb))
    probes = a.matrix @ random_complex(rng, 3, 16)
    assert reproduction_residual(a, h, probes) <= 1e-8


def test_pad_pair_dimension_mismatch():
    with pytest.raises(ValueError):
        pad_pair(FiberSystem.zeros(2, 1), FiberSystem.zeros(3, 1))
