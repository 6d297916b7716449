"""Symmetries of the duality checker, as hypothesis properties.

Permuting atoms (across block boundaries of the batched engine) permutes the
per-atom diagnostics and leaves the verdicts, the global angles and the frame
bounds alone; a unitary change of basis on each fiber, applied to both
systems, leaves the verdicts and the angles alone.  Permuting the generators
of either system, or appending zero generators to it, changes no span: the
verdicts, the angles, the frame bounds and every per-atom diagnostic stay.
Rescaling the atom weights changes no angle, bound, verdict or diagnostic,
bit for bit.  Scaling either system changes no verdict, and a small
singular value never splits the four statements: they agree, or the frame
test refuses the system.  Scaling one generator changes no span, so it
leaves the rank condition alone, and pinv_dual decides that condition atom
by atom as verify_duality does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit.fiberframe import FiberSystem, dualise, is_alternate_dual, parsevalize
from framekit.generate import FAMILIES, duality_instance, random_unitary
from framekit.mispace import (
    _FACTOR_BLOCK,
    ConstructionError,
    FiberedFunction,
    FiberedSystem,
    MeasureModel,
    global_frame_bounds,
    pinv_dual,
    verify_duality,
)
from framekit.numkernel import Tolerance, rank, singular_values
from framekit.zak import build_plan, dihedral_group, explicit_group, tg_frame_bounds, tg_to_mg, zak_inverse

# a few examples of up to ~2.5 blocks keep each property near one second
BOUNDED = settings(max_examples=20, deadline=None, database=None, derandomize=True)


EXACT = ("atom", "dim_ja", "dim_jb", "rank_mixed")


def at(table, k, keys):
    """Entry k of the given columns of a report's column table."""
    return tuple(table[key][k] for key in keys)


def verdicts(report):
    return (
        report.global_duals_exist,
        report.global_angles_positive,
        report.fiber_duals_exist,
        report.fiber_angles_positive,
    )


@st.composite
def instances(draw):
    family = draw(st.sampled_from(FAMILIES))
    n_atoms = draw(st.integers(_FACTOR_BLOCK + 1, 2 * _FACTOR_BLOCK + 20))
    dim = draw(st.integers(2, 5))
    count = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    return duality_instance(family, n_atoms, dim, count, seed=seed, eps=1e-5)


@BOUNDED
@given(data=st.data())
def test_atom_permutation(data):
    inst = data.draw(instances())
    perm = data.draw(st.permutations(range(inst.sa.measure.count)))
    m = inst.sa.measure
    measure = MeasureModel(tuple(m.atoms[i] for i in perm), m.weights[list(perm)])
    sa = FiberedSystem(measure, inst.sa.matrices[list(perm)])
    sb = FiberedSystem(measure, inst.sb.matrices[list(perm)])
    base, moved = verify_duality(inst.sa, inst.sb), verify_duality(sa, sb)
    assert verdicts(moved) == verdicts(base)
    assert moved.angles_global == pytest.approx(base.angles_global, abs=1e-12)
    for got, want in ((moved.frame_bounds_a, base.frame_bounds_a), (moved.frame_bounds_b, base.frame_bounds_b)):
        assert got[2] == want[2] and got[:2] == pytest.approx(want[:2], rel=1e-12)
    got, want = moved.diagnostics, base.diagnostics
    floats = ("r_ab", "r_ba", "pinv_norm")
    for k, i in enumerate(perm):
        assert at(got, k, EXACT) == at(want, i, EXACT)
        assert at(got, k, floats) == pytest.approx(at(want, i, floats), rel=1e-12, abs=1e-12)


@BOUNDED
@given(data=st.data())
def test_unitary_change_of_basis(data):
    inst = data.draw(instances())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dim = inst.sa.fiber_dim
    turns = [random_unitary(rng, dim) for _ in range(inst.sa.measure.count)]

    def turned(s):
        return FiberedSystem(s.measure, tuple(FiberSystem(q @ f.matrix) for q, f in zip(turns, s.fibers)))

    base, moved = verify_duality(inst.sa, inst.sb), verify_duality(turned(inst.sa), turned(inst.sb))
    assert verdicts(moved) == verdicts(base)
    assert moved.angles_global == pytest.approx(base.angles_global, abs=1e-12)
    got, want = moved.diagnostics, base.diagnostics
    for k in range(len(want["atom"])):
        assert at(got, k, ("r_ab", "r_ba")) == pytest.approx(at(want, k, ("r_ab", "r_ba")), abs=1e-12)


def assert_same_spans_report(moved, base):
    """Reports of two pairs whose fibers span the same subspaces."""
    assert verdicts(moved) == verdicts(base)
    assert moved.witness_status == base.witness_status
    assert moved.angles_global == pytest.approx(base.angles_global, abs=1e-12)
    for got, want in ((moved.frame_bounds_a, base.frame_bounds_a), (moved.frame_bounds_b, base.frame_bounds_b)):
        assert got[2] == want[2] and got[:2] == pytest.approx(want[:2], rel=1e-12)
    got, want = moved.diagnostics, base.diagnostics
    for k in range(len(want["atom"])):
        assert at(got, k, EXACT) == at(want, k, EXACT)
        assert at(got, k, ("r_ab", "r_ba")) == pytest.approx(at(want, k, ("r_ab", "r_ba")), abs=1e-12)
        assert got["pinv_norm"][k] == pytest.approx(want["pinv_norm"][k], rel=1e-9)


@BOUNDED
@given(data=st.data())
def test_generator_permutation(data):
    inst = data.draw(instances())
    side = data.draw(st.sampled_from(("A", "B")))
    perm = list(data.draw(st.permutations(range(inst.sa.count))))
    sa, sb = inst.sa, inst.sb
    if side == "A":
        sa = FiberedSystem(sa.measure, sa.matrices[:, :, perm])
    else:
        sb = FiberedSystem(sb.measure, sb.matrices[:, :, perm])
    assert_same_spans_report(verify_duality(sa, sb), verify_duality(inst.sa, inst.sb))


@BOUNDED
@given(data=st.data())
def test_zero_generators_appended(data):
    inst = data.draw(instances())
    side = data.draw(st.sampled_from(("A", "B")))
    extra = data.draw(st.integers(1, 3))
    sa, sb = inst.sa, inst.sb
    if side == "A":
        sa = sa.padded(sa.count + extra)
    else:
        sb = sb.padded(sb.count + extra)
    assert_same_spans_report(verify_duality(sa, sb), verify_duality(inst.sa, inst.sb))


def _pinv_dual_feasible(a, b) -> bool:
    """Whether pinv_dual builds a dual of the one-atom pair (a, b)."""
    measure = MeasureModel(("x0",), np.ones(1))
    try:
        pinv_dual(FiberedSystem(measure, a[None]), FiberedSystem(measure, b[None]))
    except ConstructionError:
        return False
    return True


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", FAMILIES)
def test_rescaling_weights(family, seed):
    """Each atom's weight times its own factor drawn log-uniformly from
    [1e-6, 1e6]: angles, bounds and verdicts are infima and suprema over the
    atoms, not integrals, so every diagnostics column, angles_global,
    worst_fiber, both frame bounds and the four verdicts stay bit for bit."""
    inst = duality_instance(family, _FACTOR_BLOCK + 45, 5, 3, seed=seed, eps=1e-6)
    m = inst.sa.measure
    factors = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 6.0, m.count)
    measure = MeasureModel(m.atoms, m.weights * factors)
    base = verify_duality(inst.sa, inst.sb)
    moved = verify_duality(FiberedSystem(measure, inst.sa.matrices), FiberedSystem(measure, inst.sb.matrices))
    assert verdicts(moved) == verdicts(base)
    assert moved.angles_global == base.angles_global and moved.worst_fiber == base.worst_fiber
    assert (moved.frame_bounds_a, moved.frame_bounds_b) == (base.frame_bounds_a, base.frame_bounds_b)
    assert moved.diagnostics.keys() == base.diagnostics.keys()
    for key, column in base.diagnostics.items():
        assert np.array_equal(moved.diagnostics[key], column), key


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
@pytest.mark.parametrize("family", FAMILIES)
@BOUNDED
@given(
    n_atoms=st.integers(1, 40),
    dim=st.integers(2, 6),
    count=st.integers(1, 4),
    column=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_scaling_a_generator_keeps_the_rank_condition(family, eps, n_atoms, dim, count, column, seed):
    inst = duality_instance(family, n_atoms, dim, count, seed=seed, eps=eps)
    a = inst.sa.matrices.copy()
    a[:, :, column % count] *= 1e-3
    sa = FiberedSystem(inst.sa.measure, a)
    # the scaled column can take lower / upper below the default eq_tol, and
    # the frame test, which reads eq_tol, is not what is checked here: no
    # rank decision reads eq_tol
    report = verify_duality(sa, inst.sb, tol=Tolerance(eq_tol=1e-14))
    base = verify_duality(inst.sa, inst.sb).diagnostics
    for k in range(n_atoms):
        assert at(report.diagnostics, k, EXACT) == at(base, k, EXACT)
    got = report.diagnostics
    want = (got["rank_mixed"] == got["dim_ja"]) & (got["dim_ja"] == got["dim_jb"])
    assert [_pinv_dual_feasible(a[k], inst.sb.matrices[k]) for k in range(n_atoms)] == want.tolist()
    try:
        pinv_dual(sa, inst.sb)
        assert want.all()
    except ConstructionError:
        assert not want.all()


SIGMAS = (1e-4, 1e-6, 1e-7, 1e-9, 1e-11)


def _thin_pair(sigma, scale):
    """One atom: A = Q diag(1, sigma) and B = Q for an orthonormal 4 x 2 Q,
    both times scale."""
    q = random_unitary(np.random.default_rng(3), 4)[:, :2]
    measure = MeasureModel(("x0",), np.ones(1))
    return (
        FiberedSystem(measure, (scale * q * [1.0, sigma])[None]),
        FiberedSystem(measure, (scale * q)[None]),
    )


@pytest.mark.parametrize("sigma", SIGMAS)
def test_small_singular_value_never_splits_the_statements(sigma):
    # one support for spans, bounds and tightening: the four statements agree
    # at every scale, or the scale-free frame test refuses the system
    outcomes = set()
    for k in range(-6, 7):
        try:
            outcomes.add(verdicts(verify_duality(*_thin_pair(sigma, 10.0**k))))
        except ValueError as exc:
            assert str(exc) == "first system is not a frame for its span"
            outcomes.add("not a frame")
    assert all(outcome == "not a frame" or len(set(outcome)) == 1 for outcome in outcomes)
    if sigma < 1e-10:  # below the rank cutoff: span(A) is a line inside span(B)
        assert outcomes == {(False,) * 4}
    elif sigma < 1e-4:  # lower / upper = sigma^2 < eq_tol
        assert outcomes == {"not a frame"}
    # at sigma = 1e-4, lower / upper = eq_tol up to rounding, so the frame
    # test may go either way; all four statements hold where it passes


@pytest.mark.parametrize("factor", [1e-5, 1e-9])
def test_scaling_a_system_keeps_the_verdicts(factor):
    inst = duality_instance("in-duality", 50, 6, 4, seed=0)
    base = verify_duality(inst.sa, inst.sb)
    assert base.all_hold
    for sa, sb in ((FiberedSystem(inst.sa.measure, factor * inst.sa.matrices), inst.sb),
                   (inst.sa, FiberedSystem(inst.sb.measure, factor * inst.sb.matrices))):
        moved = verify_duality(sa, sb)
        assert verdicts(moved) == verdicts(base)
        assert moved.witness_status == base.witness_status
        assert moved.angles_global == pytest.approx(base.angles_global, abs=1e-12)


@pytest.mark.parametrize("factor", [1.0, 1e-5, 1e-9, 1e5])
def test_scaling_keeps_the_alternate_dual_test(factor):
    # the identity G_A G_{A,H} = G_A is tested relative to the size of G_A, so
    # at any scale of A the pseudo-inverse dual H passes both ways and a zero
    # system is a dual neither of A nor of H
    inst = duality_instance("in-duality", 5, 4, 3, seed=0)
    zero = FiberSystem.zeros(4, 3)
    for a, b in zip(inst.sa.matrices, inst.sb.matrices):
        a = FiberSystem(factor * a)
        h = dualise(a, FiberSystem(b))
        assert is_alternate_dual(a, h) and is_alternate_dual(h, a)
        assert not is_alternate_dual(a, zero) and not is_alternate_dual(h, zero)


def test_parsevalize_keeps_a_small_singular_value():
    # s / s0 = 1e-7 is on the span support, so the tightening keeps it
    a = _thin_pair(1e-7, 1.0)[0].fibers[0]
    tight = parsevalize(a)
    assert rank(tight.matrix) == rank(a.matrix) == 2
    assert singular_values(tight.matrix) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.allclose(tight.matrix @ (tight.matrix.conj().T @ a.matrix), a.matrix, atol=1e-12)


# Renaming the elements of a group's table changes a TG system's fibers only
# by a unitary per fiber (other coset representatives), so its frame bounds
# on both sides, the verdicts and the global cosines stay.


def relabelled(group, perm):
    """The table of group with element x renamed perm[x] (perm[0] = 0)."""
    mul = np.empty_like(group.mul)
    mul[np.ix_(perm, perm)] = perm[group.mul]
    return explicit_group(mul)


# D_16 (order 32, index a + 16 b for r^a s^b) over <r>, which is normal,
# and over <s>, which is not; generators per system
@pytest.mark.parametrize("generator, count", [(1, 1), (16, 3)])
def test_relabelling_the_group(generator, count):
    """Against a random B, all four statements hold; against a B orthogonal
    to A on one fiber, none does.  Both pairs keep their verdicts and
    global cosines, and A its frame bounds on both sides, when the table,
    the subgroup generator and the signals are relabelled."""
    group = dihedral_group(16)
    rng = np.random.default_rng(generator)

    def complex_gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    perm = np.concatenate([[0], 1 + rng.permutation(group.order - 1)])
    plan = build_plan(group, generator)
    plan_r = build_plan(relabelled(group, perm), perm[generator])
    a = list(complex_gaussian(count, group.order))
    fa = tg_to_mg(plan, a).matrices
    # B's fiber at character 1 spans part of the complement of A's
    fb = complex_gaussian(plan.q, plan.p, count)
    fb[1] = np.linalg.svd(fa[1])[0][:, count : 2 * count]
    orthogonal = [zak_inverse(plan, FiberedFunction(plan.measure, fb[:, :, j])) for j in range(count)]
    drawn = list(complex_gaussian(count, group.order))

    def renamed(signals):
        out = np.empty((len(signals), group.order), dtype=complex)
        out[:, perm] = signals
        return list(out)

    def checked(p, signals):
        sa = tg_to_mg(p, signals(a))
        reports = [verify_duality(sa, tg_to_mg(p, signals(b))) for b in (drawn, orthogonal)]
        return tg_frame_bounds(p, signals(a)), global_frame_bounds(sa), reports

    group_side, fiber_side, reports = checked(plan, list)
    group_side_r, fiber_side_r, reports_r = checked(plan_r, renamed)
    for bounds, bounds_r in ((group_side, group_side_r), (fiber_side, fiber_side_r), (group_side, fiber_side)):
        assert bounds[2] == bounds_r[2]
        assert np.abs(np.subtract(bounds[:2], bounds_r[:2])).max() <= 1e-12 * bounds[1]
    assert [verdicts(r) for r in reports] == [(True,) * 4, (False,) * 4]
    for report, report_r in zip(reports, reports_r):
        assert verdicts(report) == verdicts(report_r)
        assert np.abs(np.subtract(report.angles_global, report_r.angles_global)).max() <= 1e-12
