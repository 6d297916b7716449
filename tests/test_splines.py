"""Shift-invariant spaces of L²(ℝ) over X = 𝕋: cardinal B-splines against
their closed form.

phi_m, the order-m cardinal B-spline on [0, m], has the Fourier transform
phi_m^(xi) = e^{-i pi m xi} sinc(xi)^m.  The integer translates of a
generator g span a shift-invariant space whose fiber at xi in 𝕋 is the
sequence (g^(xi + n))_n in l²(ℤ) (Unser, Aldroubi & Eden, IEEE TSP 41, 1993).
For A = phi_a and B = phi_b translated by tau, Poisson summation turns the
fiber cosine into finite sums of integer spline samples:

    cos(xi) = |P(a + b, b + tau)| / sqrt(P(2a, a) P(2b, b)),
    P(m, c)(xi) = sum_j phi_m(j + c) e^{-2 pi i j xi}.

Each atom xi_k of a K-point grid (weight 1/K) carries the fibers truncated
to |n| <= N, and verify_duality's per-atom r_ab must approach the closed
form, fast where both splines are continuous (min(a, b) >= 2) and like 1/N
where one is the box.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from framekit.mispace import FiberedSystem, MeasureModel, verify_duality
from framekit.numkernel import DEFAULT_TOL

K = 64
MIDPOINTS = (np.arange(K) + 0.5) / K
HALF = Fraction(1, 2)
# (a, b, tau)
CASES = [(1, 2, Fraction(0)), (1, 1, HALF), (2, 4, Fraction(0)), (2, 2, HALF), (3, 2, Fraction(1, 4))]


def spline(m: int, x: Fraction) -> Fraction:
    """phi_m(x), m >= 2, by the truncated-power formula in exact rationals."""
    terms = ((-1) ** i * math.comb(m, i) * max(x - i, 0) ** (m - 1) for i in range(m + 1))
    return sum(terms) / math.factorial(m - 1)


def symbol(m: int, c: Fraction, xi: np.ndarray) -> np.ndarray:
    """P(m, c)(xi) = sum_j phi_m(j + c) e^{-2 pi i j xi}, over every j with
    j + c in [0, m], the support of phi_m."""
    j = np.arange(math.floor(-c), math.ceil(m - c) + 1)
    samples = np.array([float(spline(m, int(i) + c)) for i in j])
    return np.exp(-2j * np.pi * np.outer(xi, j)) @ samples


def closed_form(a: int, b: int, tau: Fraction, xi: np.ndarray) -> np.ndarray:
    cross = symbol(a + b, b + tau, xi)
    return np.abs(cross) / np.sqrt(symbol(2 * a, a, xi).real * symbol(2 * b, b, xi).real)


def spline_hat(m: int, xi: np.ndarray) -> np.ndarray:
    return np.exp(-1j * np.pi * m * xi) * np.sinc(xi) ** m


def truncated_report(a: int, b: int, tau: Fraction, xi: np.ndarray, n: int):
    """verify_duality on one generator per atom: (phi_a^(xi_k + l))_l for A
    and (phi_b^(xi_k + l) e^{-2 pi i (xi_k + l) tau})_l for B, |l| <= n."""
    x = xi[:, None] + np.arange(-n, n + 1)
    measure = MeasureModel(tuple(f"xi{k}" for k in range(len(xi))), np.full(len(xi), 1.0 / len(xi)))
    sa = FiberedSystem(measure, spline_hat(a, x)[..., None])
    sb = FiberedSystem(measure, (spline_hat(b, x) * np.exp(-2j * np.pi * float(tau) * x))[..., None])
    return verify_duality(sa, sb)


def test_spline_samples_are_exact():
    # phi_2 is the hat on [0, 2], phi_4(1/2) = 1/48 and phi_4(3/2) = 23/48,
    # and the integer samples of every order sum to 1
    assert [spline(2, Fraction(k, 2)) for k in range(5)] == [0, HALF, 1, HALF, 0]
    assert spline(4, HALF) == Fraction(1, 48) and spline(4, Fraction(3, 2)) == Fraction(23, 48)
    for m in range(2, 9):
        assert sum(spline(m, Fraction(j)) for j in range(m + 1)) == 1


@pytest.mark.parametrize("a, b, tau", CASES)
def test_fiber_cosines_match_the_closed_form(a, b, tau):
    exact = closed_form(a, b, tau, MIDPOINTS)
    gap = {}
    for n in (200, 400) if min(a, b) == 1 else (200,):
        gap[n] = np.abs(truncated_report(a, b, tau, MIDPOINTS, n).diagnostics["r_ab"] - exact).max()
    if min(a, b) >= 2:
        assert gap[200] <= 1e-8
    else:
        # the box's fibers decay like 1/n: doubling n halves the gap
        assert gap[200] < 1e-3 and gap[200] / gap[400] >= 1.8


def test_node_grid_meets_the_zero_at_one_half():
    # (a, b, tau) = (2, 2, 1/2): the cross symbol sum_j (-1)^j phi_4(j + 5/2)
    # vanishes at xi = 1/2, the node of atom K/2, and nowhere else (j = k - 2)
    assert sum((-1) ** k * spline(4, k + HALF) for k in range(4)) == 0
    report = truncated_report(2, 2, HALF, np.arange(K) / K, 200)
    cosines = np.asarray(report.diagnostics["r_ab"])
    assert not report.global_angles_positive and not report.fiber_angles_positive
    assert report.worst_fiber == K // 2
    assert cosines[K // 2] < DEFAULT_TOL.angle_tol
    assert np.delete(cosines, K // 2).min() >= 0.1
