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


# At critical density (ab = N) the Zak transform of the even Gaussian
# vanishes at one point when a is even, the discrete Balian-Low zero
# (Benedetto, Heil & Walnut, JFAA 1, 1995), so exactly one fiber is singular;
# the box window 1[0, a) gives sqrt(a) times a unitary on every fiber.  The
# unitary DFT maps G(g, a, b) to G(g^, b, a) up to unimodular phases
# (Grochenig, ch. 1), so both have the same frame and dual statements.


def even_gaussian(n):
    """e^{-pi x^2 / N} with x centred at 0, real and even."""
    x = np.minimum(np.arange(n), n - np.arange(n))
    return np.exp(-np.pi * x**2 / n).astype(complex)


def box(n, a):
    """The window 1[0, a)."""
    return (np.arange(n) < a).astype(complex)


def verdicts(report):
    return (
        report.global_duals_exist,
        report.global_angles_positive,
        report.fiber_duals_exist,
        report.fiber_angles_positive,
    )


@pytest.mark.parametrize("n, a", [(16, 4), (36, 6), (64, 8), (25, 5), (49, 7)])
def test_critical_density_balian_low_zero(n, a):
    """At ab = N every fiber is a x a.  Against the box window, the even
    Gaussian fails all four statements where a is even, with the worst fiber
    at character q/2, the one singular fiber; where a is odd there is no
    character q/2 and all four hold."""
    _, _, sa = fibered(even_gaussian(n), a, a)
    _, _, sb = fibered(box(n, a), a, a)
    s_b = np.linalg.svd(sb.matrices, compute_uv=False)
    assert np.abs(s_b / np.sqrt(a) - 1.0).max() <= GAP
    s = np.linalg.svd(sa.matrices, compute_uv=False)
    rel = s[:, -1] / s[:, 0]
    lowest = np.sort(rel)
    report = verify_duality(sa, sb)
    if a % 2:
        assert report.all_hold
        assert lowest[0] >= 0.3
    else:
        assert not any(verdicts(report))
        assert report.worst_fiber == np.argmin(rel) == (n // a) // 2
        assert lowest[0] <= 1e-14 and lowest[1] >= 0.35


@pytest.mark.parametrize("n, a, b", LATTICES + [(16, 4, 4), (25, 5, 5)])
def test_dft_covariance(n, a, b):
    """G(g, a, b) and G(g^, b, a), with g^ the unitary DFT of g, have equal
    frame bounds, and so do the systems of a second window g2; the pairs
    (G(g, a, b), G(g2, a, b)) and (G(g^, b, a), G(g2^, b, a)) have equal
    verdicts and global cosines.  The windows are noisy Gaussians, or at
    critical density the Balian-Low pair above, which fails all four
    statements where a is even."""
    g, g2 = (even_gaussian(n), box(n, a)) if a * b == n else (window(n, seed=7), window(n, seed=8))
    systems = [fibered(h, a, b)[2] for h in (g, g2)]
    turned = [fibered(np.fft.fft(h, norm="ortho"), b, a)[2] for h in (g, g2)]
    for s, t in zip(systems, turned):
        (lo, hi, ok), (lo_t, hi_t, ok_t) = global_frame_bounds(s), global_frame_bounds(t)
        assert ok == ok_t
        assert rel_gap([lo_t, hi_t], [lo, hi]) <= GAP
    report, report_t = verify_duality(*systems), verify_duality(*turned)
    assert verdicts(report) == verdicts(report_t) == (a * b != n or a % 2 == 1,) * 4
    assert np.abs(np.subtract(report.angles_global, report_t.angles_global)).max() <= GAP
