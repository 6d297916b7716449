"""Angle computations between subspaces, with brute-force and sampling oracles."""

import itertools

import numpy as np
import pytest

from framekit.numkernel import orth
from framekit.subspace import Subspace, inf_cos, ortho_complement, sup_cos
from oracles import direct_sum_test, project


def random_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_subspace(rng, d, p):
    if p == 0:
        return Subspace.zero(d)
    return Subspace.span_of(random_complex(rng, d, p))


def coordinate_subspace(d, idx):
    basis = np.zeros((d, len(idx)), dtype=np.complex128)
    for col, i in enumerate(idx):
        basis[i, col] = 1.0
    return Subspace(basis)


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    s = Subspace.span_of(np.array([[2.0], [0.0]]))
    assert s.dim == 1 and s.ambient_dim == 2
    assert Subspace.zero(3).dim == 0
    assert Subspace.full(3).dim == 3


def test_project_examples():
    w = coordinate_subspace(2, [0])
    assert np.allclose(project(w, [3.0, 4.0]), [3.0, 0.0])
    z = Subspace.zero(2)
    assert np.allclose(project(z, [3.0, 4.0]), [0.0, 0.0])
    with pytest.raises(ValueError):
        project(w, [1.0, 2.0, 3.0])


def test_angles_known_plane_pair():
    # V = span{e1}, W = span{(cos t, sin t)}: both angles equal |cos t|.
    for t in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2):
        v = coordinate_subspace(2, [0])
        w = Subspace.span_of(np.array([[np.cos(t)], [np.sin(t)]]))
        assert abs(inf_cos(v, w) - abs(np.cos(t))) < 1e-12
        assert abs(sup_cos(v, w) - abs(np.cos(t))) < 1e-12


def test_angles_conventions():
    v0 = Subspace.zero(3)
    w = coordinate_subspace(3, [0, 1])
    assert inf_cos(v0, w) == 1.0
    assert sup_cos(v0, w) == 0.0
    assert inf_cos(w, v0) == 0.0  # dim W < dim V branch
    assert sup_cos(w, v0) == 0.0
    assert inf_cos(v0, v0) == 1.0
    assert sup_cos(v0, v0) == 0.0


def test_angle_identity_inf_vs_sup_complement():
    # R(V, W) = sqrt(1 - S(V, W-perp)^2) whenever dim W >= dim V.
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 200:
        d = int(rng.integers(1, 13))
        p = int(rng.integers(0, d + 1))
        q = int(rng.integers(p, d + 1))
        v = random_subspace(rng, d, p)
        w = random_subspace(rng, d, q)
        r = inf_cos(v, w)
        s_perp = sup_cos(v, ortho_complement(w))
        assert abs(r - np.sqrt(max(0.0, 1.0 - s_perp**2))) <= 1e-8
        checked += 1


def test_angle_symmetry_when_positive():
    # If both directed infimum angles are positive the two values coincide.
    rng = np.random.default_rng(37)
    found = 0
    while found < 100:
        d = int(rng.integers(2, 9))
        p = int(rng.integers(1, d + 1))
        v = random_subspace(rng, d, p)
        w = random_subspace(rng, d, p)
        r_vw = inf_cos(v, w)
        r_wv = inf_cos(w, v)
        if r_vw > 1e-8 and r_wv > 1e-8:
            assert abs(r_vw - r_wv) <= 1e-8
            found += 1


def test_sampling_lower_bound():
    rng = np.random.default_rng(41)
    v = random_subspace(rng, 6, 3)
    w = random_subspace(rng, 6, 4)
    r = inf_cos(v, w)
    s = sup_cos(v, w)
    worst, best = 2.0, -1.0
    for _ in range(1000):
        c = random_complex(rng, 3)
        x = v.basis @ c
        x /= np.linalg.norm(x)
        proj_norm = np.linalg.norm(project(w, x))
        worst = min(worst, proj_norm)
        best = max(best, proj_norm)
    assert worst >= r - 1e-9
    assert best <= s + 1e-9


def test_ortho_complement_examples():
    w = coordinate_subspace(3, [0])
    wc = ortho_complement(w)
    assert wc.dim == 2
    assert np.abs(wc.basis.conj().T @ w.basis).max() < 1e-12
    assert ortho_complement(Subspace.zero(3)).dim == 3
    assert ortho_complement(Subspace.full(3)).dim == 0


def test_direct_sum_examples():
    e1 = coordinate_subspace(2, [0])
    e2 = coordinate_subspace(2, [1])
    diag = Subspace.span_of(np.array([[1.0], [1.0]]))
    assert direct_sum_test(e1, e1) is True
    assert direct_sum_test(e1, e2) is False
    assert direct_sum_test(e1, diag) is True


def test_direct_sum_matches_angle_characterization():
    # C^d = V + W-perp with V, W of equal dimension holds exactly when both
    # infimum angles are positive.
    rng = np.random.default_rng(43)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        p = int(rng.integers(0, d + 1))
        v = random_subspace(rng, d, p)
        w = random_subspace(rng, d, p)
        by_rank = direct_sum_test(v, w)
        by_angle = inf_cos(v, w) > 1e-8 and inf_cos(w, v) > 1e-8
        assert by_rank == by_angle


def test_coordinate_subspace_angles_exhaustive():
    # For coordinate subspaces the angles are a set-inclusion calculation.
    d = 4
    subsets = [tuple(s) for k in range(d + 1) for s in itertools.combinations(range(d), k)]
    for sv in subsets:
        for sw in subsets:
            v = coordinate_subspace(d, sv)
            w = coordinate_subspace(d, sw)
            if not sv:
                r_expect, s_expect = 1.0, 0.0
            else:
                r_expect = 1.0 if set(sv) <= set(sw) else 0.0
                s_expect = 1.0 if set(sv) & set(sw) else 0.0
            assert inf_cos(v, w) == pytest.approx(r_expect, abs=1e-12)
            assert sup_cos(v, w) == pytest.approx(s_expect, abs=1e-12)


def test_projection_contraction_bound():
    # Norm of the projection never exceeds sup_cos times the vector norm.
    rng = np.random.default_rng(47)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        v = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        w = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        s = sup_cos(v, w)
        if v.dim == 0:
            continue
        c = random_complex(rng, v.dim)
        x = v.basis @ c
        assert np.linalg.norm(project(w, x)) <= s * np.linalg.norm(x) + 1e-9
