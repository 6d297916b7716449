"""Symmetries of the duality checker, as hypothesis properties.

Permuting atoms (across block boundaries of the batched engine) permutes the
per-atom diagnostics and leaves the verdicts, the global angles and the frame
bounds alone; a unitary change of basis on each fiber, applied to both
systems, leaves the verdicts and the angles alone.  Permuting the generators
of either system, or appending zero generators to it, changes no span: the
verdicts, the angles, the frame bounds and every per-atom diagnostic stay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit.fiberframe import FiberSystem
from framekit.generate import FAMILIES, duality_instance, random_unitary
from framekit.mispace import _BLOCK, FiberedSystem, MeasureModel, verify_duality
from framekit.subspace import DEFAULT_ANGLE_TOL

# a few examples of up to ~2.5 blocks keep each property near one second
BOUNDED = settings(max_examples=20, deadline=None, database=None, derandomize=True)


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
    n_atoms = draw(st.integers(_BLOCK + 1, 2 * _BLOCK + 20))
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
    sa = FiberedSystem(measure, tuple(inst.sa.fibers[i] for i in perm))
    sb = FiberedSystem(measure, tuple(inst.sb.fibers[i] for i in perm))
    base, moved = verify_duality(inst.sa, inst.sb), verify_duality(sa, sb)
    assert verdicts(moved) == verdicts(base)
    assert moved.angles_global == pytest.approx(base.angles_global, abs=1e-12)
    for got, want in ((moved.frame_bounds_a, base.frame_bounds_a), (moved.frame_bounds_b, base.frame_bounds_b)):
        assert got[2] == want[2] and got[:2] == pytest.approx(want[:2], rel=1e-12)
    for d, i in zip(moved.diagnostics, perm):
        want = base.diagnostics[i]
        assert (d.atom, d.dim_ja, d.dim_jb, d.rank_mixed) == (want.atom, want.dim_ja, want.dim_jb, want.rank_mixed)
        assert (d.r_ab, d.r_ba, d.pinv_norm) == pytest.approx((want.r_ab, want.r_ba, want.pinv_norm), rel=1e-12, abs=1e-12)


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
    for d, want in zip(moved.diagnostics, base.diagnostics):
        assert (d.r_ab, d.r_ba) == pytest.approx((want.r_ab, want.r_ba), abs=1e-12)


def assert_same_spans_report(moved, base):
    """Reports of two pairs whose fibers span the same subspaces."""
    assert verdicts(moved) == verdicts(base)
    assert moved.witness_status == base.witness_status
    assert moved.angles_global == pytest.approx(base.angles_global, abs=1e-12)
    for got, want in ((moved.frame_bounds_a, base.frame_bounds_a), (moved.frame_bounds_b, base.frame_bounds_b)):
        assert got[2] == want[2] and got[:2] == pytest.approx(want[:2], rel=1e-12)
    for d, want in zip(moved.diagnostics, base.diagnostics):
        assert (d.atom, d.dim_ja, d.dim_jb, d.rank_mixed) == (want.atom, want.dim_ja, want.dim_jb, want.rank_mixed)
        assert (d.r_ab, d.r_ba) == pytest.approx((want.r_ab, want.r_ba), abs=1e-12)
        if min(want.r_ab, want.r_ba) > DEFAULT_ANGLE_TOL:  # else pinv_norm inverts rounding noise
            assert d.pinv_norm == pytest.approx(want.pinv_norm, rel=1e-9)


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
