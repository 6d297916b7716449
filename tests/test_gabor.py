"""Gabor systems on Z_N as translation-generated systems, against closed forms.

The Gabor system G(g, a, b) = {M_{mb} T_{na} g} on C^N (a | N, b | N) is,
up to unimodular phases that cancel in every frame and dual statement, the
TG system of the subgroup aZ_N acting on the N/b generators M_{mb} g:
tg_to_mg(build_plan(cyclic_group(N), a), ...) gives N/a character atoms
with a x N/b fibers, the Zibulski-Zeevi matrices up to unimodular factors.
Each check compares the fiber side with the group side, where the system
is the N x (N/a)(N/b) matrix of oracles.gabor_matrix and nothing is
transformed:

- the frame bounds are the extreme nonzero eigenvalues of the N x N frame
  operator S = G G^H (Zibulski & Zeevi, ACHA 4, 1997);
- the canonical dual, built on the fibers and pulled back by zak_inverse,
  is the Gabor system of the window S^+ g (Grochenig, Foundations of
  Time-Frequency Analysis, 2001, ch. 7);
- that window satisfies the Wexler-Raz relations on the adjoint lattice
  (Wexler & Raz, Signal Processing 21, 1990; Janssen, JFAA 1, 1995), and,
  where the system is a Riesz sequence (ab > N), the biorthogonality on the
  lattice itself;
- the global infimum cosine of verify_duality is the smallest principal
  cosine between two Gabor spans.
"""

import numpy as np
import pytest

from framekit.mispace import (
    FiberedFunction,
    canonical_duals,
    global_frame_bounds,
    verify_duality,
)
from framekit.subspace import Subspace
from framekit.zak import build_plan, cyclic_group, tg_frame_bounds, tg_to_mg, zak_inverse
from oracles import gabor_matrix, inf_cos, modulate, pinv

# (N, a, b): three frames of C^N and one undercomplete (ab > N) Riesz
# sequence, whose N/b = 2 generators are not a multiple of a
LATTICES = [(24, 4, 3), (48, 6, 4), (60, 5, 6), (24, 4, 12)]
GAP = 1e-12


def window(n, seed):
    """A Gaussian e^{-pi x^2 / N} centred at 0, plus complex noise."""
    rng = np.random.default_rng(seed)
    x = np.minimum(np.arange(n), n - np.arange(n))
    return np.exp(-np.pi * x**2 / n) + 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def fibered(g, a, b):
    """The plan of aZ_N and the fibered form of G(g, a, b), with its N/b
    generators M_{mb} g."""
    n = len(g)
    plan = build_plan(cyclic_group(n), a)
    gens = [modulate(g, m * b) for m in range(n // b)]
    return plan, gens, tg_to_mg(plan, gens)


def rel_gap(x, y):
    return float(np.abs(np.asarray(x) - np.asarray(y)).max() / np.abs(np.asarray(y)).max())


@pytest.mark.parametrize("n, a, b", LATTICES)
def test_frame_bounds_are_the_frame_operators_extreme_eigenvalues(n, a, b):
    g = window(n, seed=n + a + b)
    plan, gens, system = fibered(g, a, b)
    ev = np.linalg.eigvalsh(gabor_matrix(g, a, b) @ gabor_matrix(g, a, b).conj().T)
    ev = ev[ev > 1e-10 * ev[-1]]
    assert len(ev) == min(n, (n // a) * (n // b))
    for lower, upper, is_frame in (global_frame_bounds(system), tg_frame_bounds(plan, gens)):
        assert is_frame
        assert rel_gap([lower, upper], [ev[0], ev[-1]]) <= GAP


@pytest.mark.parametrize("n, a, b", LATTICES)
def test_canonical_dual_is_the_gabor_system_of_the_dual_window(n, a, b):
    """canonical_duals on the fibers, pulled back one generator at a time,
    gives M_{mb} gamma with gamma = S^+ g."""
    g = window(n, seed=2 * n + a)
    plan, gens, system = fibered(g, a, b)
    frame_op = gabor_matrix(g, a, b) @ gabor_matrix(g, a, b).conj().T
    gamma = pinv(frame_op) @ g
    duals = canonical_duals(system).matrices
    for m in range(n // b):
        h = zak_inverse(plan, FiberedFunction(plan.measure, duals[:, :, m]))
        assert rel_gap(h, modulate(gamma, m * b)) <= GAP


@pytest.mark.parametrize("n, a, b", LATTICES)
def test_wexler_raz(n, a, b):
    """<gamma, M_{lN/a} T_{kN/b} g> = (ab / N) delta_{l0} delta_{k0} on the
    adjoint lattice (k < b, l < a) for a frame; for a Riesz sequence the
    dual system is biorthogonal to G(g, a, b) itself."""
    g = window(n, seed=3 * n + b)
    plan, _, system = fibered(g, a, b)
    gamma = zak_inverse(plan, FiberedFunction(plan.measure, canonical_duals(system).matrices[:, :, 0]))
    if a * b <= n:
        adjoint = gabor_matrix(g, n // b, n // a)  # column k a + l is M_{lN/a} T_{kN/b} g
        want = np.zeros(a * b)
        want[0] = a * b / n
        assert np.abs(adjoint.conj().T @ gamma - want).max() <= GAP
    else:
        cross = gabor_matrix(gamma, a, b).conj().T @ gabor_matrix(g, a, b)
        assert np.abs(cross - np.eye(cross.shape[0])).max() <= GAP


@pytest.mark.parametrize("n, a, b", LATTICES)
def test_global_cosine_is_the_smallest_principal_cosine_of_the_gabor_spans(n, a, b):
    """verify_duality's global infimum cosines, both ways, equal the infimum
    cosine between span G(g, a, b) and span G(g', a, b) on C^N: 1 where both
    are frames of C^N, an interior value in the undercomplete case."""
    g, g2 = window(n, seed=5), window(n, seed=6)
    report = verify_duality(fibered(g, a, b)[2], fibered(g2, a, b)[2])
    span, span2 = Subspace.span_of(gabor_matrix(g, a, b)), Subspace.span_of(gabor_matrix(g2, a, b))
    want = (inf_cos(span, span2), inf_cos(span2, span))
    assert np.abs(np.subtract(report.angles_global, want)).max() <= GAP
    assert (want[0] < 0.9) is (a * b > n)
