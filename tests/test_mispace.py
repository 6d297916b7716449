"""Global-vs-fiberwise reductions over a finite measure model."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framekit.fiberframe import (
    ConstructionError,
    FiberSystem,
    canonical_dual,
)
from framekit.generate import (
    complex_gaussian,
    duality_instance,
    random_fibered_system,
    rotated_span_pair,
)
from framekit.mispace import (
    FiberedFunction,
    FiberedSystem,
    MeasureModel,
    _fiber_pass,
    apply_mixed_frame_operator,
    global_frame_bounds,
    reconstruct,
    verify_biorthogonality,
    verify_duality,
    weighted_inner,
)
from framekit.numkernel import Tolerance
from framekit.subspace import Subspace
from oracles import (
    DeterminingSet,
    delta_determining_set,
    direct_sum_test,
    fourier_determining_set,
    gaussian_integer_rank,
    global_biorthogonality_deviation,
    global_pairing,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def two_atom_measure(w1=0.5, w2=2.0):
    return MeasureModel(("x0", "x1"), np.array([w1, w2]))


def test_measure_model_validation():
    two_atom_measure()
    with pytest.raises(ValueError):
        MeasureModel((), np.array([]))
    with pytest.raises(ValueError):
        MeasureModel(("a", "a"), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        MeasureModel(("a", "b"), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MeasureModel(("a", "b"), np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        MeasureModel(("a",), np.array([np.inf]))


def test_fibered_system_validation():
    m = two_atom_measure()
    f1 = FiberSystem.from_vectors([E1])
    f2 = FiberSystem.from_vectors([E2])
    s = FiberedSystem(m, (f1, f2))
    assert s.fiber_dim == 2 and s.count == 1
    with pytest.raises(ValueError):
        FiberedSystem(m, (f1,))
    with pytest.raises(ValueError):
        FiberedSystem(m, (f1, FiberSystem.from_vectors([E1, E2])))
    with pytest.raises(ValueError):
        FiberedSystem(m, (f1, FiberSystem.zeros(3, 1)))


def test_fibered_system_is_one_read_only_stack():
    rng = np.random.default_rng(3)
    measure = MeasureModel(("x0", "x1", "x2"), np.ones(3))
    mats = complex_gaussian(rng, 3, 4, 2)
    from_seq = FiberedSystem(measure, [FiberSystem(m) for m in mats])
    from_arr = FiberedSystem(measure, np.asfortranarray(mats))
    for s in (from_seq, from_arr):
        assert np.array_equal(s.matrices, mats)
        assert s.matrices.dtype == np.complex128 and s.matrices.flags.c_contiguous
        assert (s.fiber_dim, s.count) == (4, 2)
        with pytest.raises(ValueError):
            s.matrices[0, 0, 0] = 1.0
        for k, f in enumerate(s.fibers):
            assert np.array_equal(f.matrix, s.matrices[k])
    bad = mats.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FiberedSystem(measure, bad)
    for shape in [(2, 4, 2), (3, 0, 2), (3, 4, 0), (4, 2)]:
        with pytest.raises(ValueError, match=r"need an \(3, dim >= 1, count >= 1\) stack"):
            FiberedSystem(measure, np.zeros(shape))
    with pytest.raises(ValueError, match="got 2 fiber systems for 3 atoms"):
        FiberedSystem(measure, [FiberSystem(m) for m in mats[:2]])
    uneven = [FiberSystem(mats[0]), FiberSystem(mats[1]), FiberSystem(mats[2][:, :1])]
    with pytest.raises(ValueError, match=r"generator counts are not uniform: \[1, 2\]"):
        FiberedSystem(measure, uneven)


def test_fibered_function_norm():
    m = two_atom_measure()
    f = FiberedFunction(m, np.stack([E1, E2]))
    assert f.norm() == pytest.approx(np.sqrt(0.5 + 2.0))
    g = FiberedFunction(m, np.stack([E1, E1]))
    assert weighted_inner(f, g) == pytest.approx(0.5)


def test_global_frame_bounds_example():
    m = two_atom_measure()
    s = FiberedSystem(
        m,
        (
            FiberSystem.from_vectors([E1, E1 + E2]),
            FiberSystem.from_vectors([2.0 * E1, np.zeros(2)]),
        ),
    )
    lo, hi, ok = global_frame_bounds(s)
    assert lo == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, abs=1e-12)
    assert hi == pytest.approx(4.0, abs=1e-12)
    assert ok


def test_global_frame_bounds_inactive_fibers():
    m = two_atom_measure()
    zero = FiberSystem.zeros(2, 1)
    s = FiberedSystem(m, (FiberSystem.from_vectors([2.0 * E1]), zero))
    lo, hi, ok = global_frame_bounds(s)
    assert (lo, hi, ok) == (4.0, 4.0, True)
    s0 = FiberedSystem(m, (zero, zero))
    assert global_frame_bounds(s0) == (1.0, 1.0, True)


def test_global_inf_cos_example():
    # the global infimum cosine of SA against SB is angles_global[0]
    m = two_atom_measure()
    t = 0.7
    rot = np.array([np.cos(t), np.sin(t)])
    sa = FiberedSystem(
        m, (FiberSystem.from_vectors([E1]), FiberSystem.from_vectors([E1]))
    )
    sb = FiberedSystem(
        m, (FiberSystem.from_vectors([E1]), FiberSystem.from_vectors([rot]))
    )
    assert verify_duality(sa, sb).angles_global[0] == pytest.approx(np.cos(t), abs=1e-12)
    # Atoms where the first system is inactive do not contribute.
    sa2 = FiberedSystem(
        m, (FiberSystem.from_vectors([E1]), FiberSystem.zeros(2, 1))
    )
    assert verify_duality(sa2, sb).angles_global[0] == pytest.approx(1.0)


def test_apply_mixed_frame_operator_hand_case():
    m = two_atom_measure()
    sa = FiberedSystem(
        m, (FiberSystem.from_vectors([2.0 * E1]), FiberSystem.from_vectors([E2]))
    )
    dual = FiberedSystem(
        m, (FiberSystem.from_vectors([0.5 * E1]), FiberSystem.from_vectors([E2]))
    )
    f = FiberedFunction(m, np.stack([3.0 * E1 + E2, 5.0 * E2]))
    out = apply_mixed_frame_operator(sa, dual, f)
    # Atom x0: <f, e1/2> 2e1 = 3 e1; atom x1: <f, e2> e2 = 5 e2.
    assert np.allclose(out.values, np.stack([3.0 * E1, 5.0 * E2]))


def test_reconstruct_with_canonical_duals():
    rng = np.random.default_rng(79)
    s = random_fibered_system(rng, 5, 4, 3)
    dual = FiberedSystem(s.measure, tuple(canonical_dual(f) for f in s.fibers))
    vals = np.stack([f.matrix @ complex_gaussian(rng, 3) for f in s.fibers])
    f = FiberedFunction(s.measure, vals)
    fhat, resid = reconstruct(s, dual, f)
    assert resid <= 1e-10
    assert np.abs(fhat.values - f.values).max() <= 1e-10


def test_reconstruct_orthogonal_function():
    m = two_atom_measure()
    s = FiberedSystem(
        m, (FiberSystem.from_vectors([E1]), FiberSystem.from_vectors([E1]))
    )
    dual = FiberedSystem(s.measure, tuple(canonical_dual(f) for f in s.fibers))
    f = FiberedFunction(m, np.stack([E2, E2]))
    _, resid = reconstruct(s, dual, f)
    assert resid == pytest.approx(1.0)


def test_determining_sets_are_parseval():
    rng = np.random.default_rng(83)
    m = MeasureModel(tuple(f"x{i}" for i in range(5)), rng.uniform(0.2, 3.0, 5))
    for dset in (delta_determining_set(m), fourier_determining_set(m)):
        f = complex_gaussian(rng, 5)
        coeffs = np.array(
            [np.sum(m.weights * f * row.conj()) for row in dset.table]
        )
        energy = np.sum(m.weights * np.abs(f) ** 2)
        assert np.abs(coeffs) ** 2 == pytest.approx(np.abs(coeffs) ** 2)
        assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(energy, rel=1e-12)


def test_determining_set_rejects_non_parseval():
    m = two_atom_measure()
    with pytest.raises(ValueError):
        DeterminingSet(m, np.ones((2, 2)))


def test_global_pairing_matches_fiberwise():
    # The modulation-side pairing and the fiberwise mixed operator never share
    # an intermediate; their agreement is the fiberization identity.
    rng = np.random.default_rng(89)
    for trial in range(50):
        n_atoms = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        sa = random_fibered_system(rng, n_atoms, d, r)
        sb = FiberedSystem(
            sa.measure,
            tuple(random_fibered_system(rng, n_atoms, d, r).fibers),
        )
        f = FiberedFunction(sa.measure, complex_gaussian(rng, n_atoms, d))
        g = FiberedFunction(sa.measure, complex_gaussian(rng, n_atoms, d))
        dset = (
            fourier_determining_set(sa.measure)
            if trial % 2
            else delta_determining_set(sa.measure)
        )
        lhs = global_pairing(sa, sb, f, g, dset)
        rhs = weighted_inner(apply_mixed_frame_operator(sa, sb, f), g)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_verify_duality_in_duality_family():
    for seed in range(20):
        inst = duality_instance("in-duality", 4, 5, 3, seed=seed, delta=0.1)
        report = verify_duality(inst.sa, inst.sb)
        assert report.all_hold, (seed, report.witness_status)
        assert report.witness_status == "verified"
        assert report.max_local_residual <= 1e-8
        assert report.max_global_residual <= 1e-8
        assert report.angles_global[0] >= 0.1 - 1e-9
        assert min(report.diagnostics["r_ab"]) == pytest.approx(
            inst.meta["min_cosine"], abs=1e-9
        )


def test_verify_duality_orthogonal_failure_family():
    for seed in range(20):
        inst = duality_instance("orthogonal-failure", 4, 4, 3, seed=seed)
        report = verify_duality(inst.sa, inst.sb)
        assert not report.global_duals_exist
        assert not report.global_angles_positive
        assert not report.fiber_duals_exist
        assert not report.fiber_angles_positive
        assert report.witness_status == "not constructed"
        assert report.witnesses is None
        # The planted atom is the worst fiber; its planted cosine is exactly 0
        # and the evaluated angle is zero to machine precision.
        diag, worst = report.diagnostics, report.worst_fiber
        assert diag["atom"][worst] == inst.meta["special_atom"]
        assert inst.meta["min_cosine"] == 0.0
        assert min(diag["r_ab"][worst], diag["r_ba"][worst]) <= 1e-12


def test_verify_duality_decomposition_invariant():
    # All-true reports imply the oblique decomposition fiber by fiber.
    for seed in range(10):
        inst = duality_instance("in-duality", 3, 4, 2, seed=100 + seed)
        report = verify_duality(inst.sa, inst.sb)
        assert report.all_hold
        for fa, fb in zip(inst.sa.fibers, inst.sb.fibers):
            ja = Subspace.span_of(fa.matrix)
            jb = Subspace.span_of(fb.matrix)
            assert direct_sum_test(ja, jb)


def test_verify_duality_zero_fiber_pair():
    # A shared inactive atom is benign: conventions keep all four flags true.
    m = two_atom_measure()
    sa = FiberedSystem(m, (FiberSystem.from_vectors([E1]), FiberSystem.zeros(2, 1)))
    sb = FiberedSystem(m, (FiberSystem.from_vectors([E1 + E2]), FiberSystem.zeros(2, 1)))
    report = verify_duality(sa, sb)
    assert report.all_hold


def test_verify_duality_rejects_non_frame():
    # the frame test is scale-free: lower / upper = 1e-12 fails it, while a
    # uniform scaling by 1e-9 is a frame with the verdicts of the unscaled one
    m = two_atom_measure()
    ill = FiberSystem.from_vectors([E1, 1e-6 * E2])
    full = FiberSystem.from_vectors([E1, E2])
    sb = FiberedSystem(m, (full, full))
    with pytest.raises(ValueError, match="first system is not a frame for its span"):
        verify_duality(FiberedSystem(m, (ill, ill)), sb)
    with pytest.raises(ValueError, match="second system is not a frame for its span"):
        verify_duality(sb, FiberedSystem(m, (ill, full)))
    line = FiberSystem.from_vectors([E1])
    one = FiberedSystem(m, (line, line))
    tiny = FiberedSystem(m, (FiberSystem.from_vectors([1e-9 * E1]),) * 2)
    base, scaled = verify_duality(one, one), verify_duality(tiny, one)
    assert scaled.all_hold and base.all_hold
    assert scaled.angles_global == base.angles_global == (1.0, 1.0)
    lo, hi, is_frame = global_frame_bounds(tiny)
    assert is_frame and (lo, hi) == pytest.approx((1e-18, 1e-18))


def test_verify_duality_cmax_downgrade():
    inst = duality_instance("in-duality", 3, 4, 2, seed=7, delta=0.1)
    report = verify_duality(inst.sa, inst.sb, Tolerance(c_max=1e-3))
    assert report.witness_status == "constructed, unverified-bound"
    # Residual certification is unaffected by the bound downgrade.
    assert report.fiber_duals_exist and report.global_duals_exist


def test_verify_duality_mismatched_measures():
    inst = duality_instance("in-duality", 2, 3, 2, seed=1)
    other = MeasureModel(("y0", "y1"), np.array([1.0, 1.0]))
    sb = FiberedSystem(other, inst.sb.fibers)
    with pytest.raises(ValueError):
        verify_duality(inst.sa, sb)


def test_verify_biorthogonality_happy_path():
    rng = np.random.default_rng(97)
    for seed in range(10):
        n_atoms, d, r = 3, 5, 2
        measure = MeasureModel(
            tuple(f"x{i}" for i in range(n_atoms)), rng.uniform(0.5, 1.5, n_atoms)
        )
        fibers, targets = [], []
        for _ in range(n_atoms):
            v, w, _ = rotated_span_pair(rng, d, r, rng.uniform(0.2, 1.0, r))
            fibers.append(FiberSystem(v @ (np.eye(r) + 0.3 * complex_gaussian(rng, r, r))))
            targets.append(Subspace(w))
        sa = FiberedSystem(measure, tuple(fibers))
        report = verify_biorthogonality(sa, targets)
        assert report.holds
        assert report.biorth_deviation <= 1e-8
        assert report.repro_residual <= 1e-8
        assert report.riesz_bounds[0] > 0.0
        # Doubly modulated biorthogonality transfers to the global system.
        for dset in (delta_determining_set(measure), fourier_determining_set(measure)):
            assert global_biorthogonality_deviation(sa, report.dual, dset) <= 1e-8


def test_verify_biorthogonality_angle_failure_names_atom():
    rng = np.random.default_rng(101)
    measure = MeasureModel(("x0", "x1"), np.array([1.0, 1.0]))
    v0, w0, _ = rotated_span_pair(rng, 4, 2, [0.5, 0.9])
    # Second atom: target orthogonal to the span.
    q = np.linalg.qr(complex_gaussian(rng, 4, 4))[0]
    fibers = (FiberSystem(v0), FiberSystem(q[:, :2]))
    targets = [Subspace(w0), Subspace(np.ascontiguousarray(q[:, 2:]))]
    sa = FiberedSystem(measure, fibers)
    report = verify_biorthogonality(sa, targets)
    assert not report.holds
    assert report.failed_atoms == ["x1"]
    assert report.dual is None
    assert report.rows["r_aw"][1] <= 1e-12


def test_verify_biorthogonality_rejects_non_riesz():
    measure = MeasureModel(("x0",), np.array([1.0]))
    sa = FiberedSystem(measure, (FiberSystem.from_vectors([E1, E1]),))
    targets = [Subspace.full(2)]
    with pytest.raises(ConstructionError):
        verify_biorthogonality(sa, targets)


def test_verify_biorthogonality_shape_errors():
    measure = MeasureModel(("x0",), np.array([1.0]))
    sa = FiberedSystem(measure, (FiberSystem.from_vectors([E1]),))
    # dim W != r is Theorem 2's hypothesis, like a Riesz fiber, so it raises
    # the same ConstructionError; a wrong target count or ambient dimension
    # is a shape error
    with pytest.raises(ConstructionError, match="atom 'x0': target subspace has dimension 2, expected 1"):
        verify_biorthogonality(sa, [Subspace.full(2)])
    with pytest.raises(ValueError):
        verify_biorthogonality(sa, [])
    with pytest.raises(ValueError, match="wrong ambient dimension"):
        verify_biorthogonality(sa, [Subspace.full(3)])
    # a shape error at x1 wins over a target of the wrong dimension at x0
    sa2 = FiberedSystem(two_atom_measure(), (FiberSystem.from_vectors([E1]),) * 2)
    with pytest.raises(ValueError, match="target at atom 'x1' has wrong ambient dimension"):
        verify_biorthogonality(sa2, [Subspace.full(2), Subspace.full(3)])
    # targets are checked before any factorization: a non-Riesz fiber beside
    # a target of the wrong dimension raises the target's error
    not_riesz = FiberedSystem(measure, (FiberSystem.from_vectors([E1, E1]),))
    with pytest.raises(ConstructionError, match="has dimension 1, expected 2"):
        verify_biorthogonality(not_riesz, [Subspace.span_of(E1[:, None])])


def test_report_tolerance_parameter():
    # A looser equality tolerance must not flip a clean verdict.
    inst = duality_instance("in-duality", 3, 4, 2, seed=11)
    loose = verify_duality(inst.sa, inst.sb, tol=Tolerance(eq_tol=1e-6))
    strict = verify_duality(inst.sa, inst.sb, tol=Tolerance(eq_tol=1e-8))
    assert loose.all_hold and strict.all_hold


def _ladder_report(n, scale):
    """verify_duality on one atom: A = scale * e0 and B = e0 + n e1 in C^2,
    whose spans meet at the cosine 1 / sqrt(1 + n^2)."""
    measure = MeasureModel(("x0",), np.array([1.0]))
    sa = FiberedSystem(measure, np.array([[[scale], [0.0]]]))
    sb = FiberedSystem(measure, np.array([[[1.0], [n]]]))
    return verify_duality(sa, sb)


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e5])
def test_closed_form_cosine_ladder(scale):
    """At N = 10^k the cosine 1 / sqrt(1 + N^2) walks down through
    angle_tol = 1e-8.  The computed cosines stay within 4 * 2^-52 of the
    closed form at every rung and scale of A, an absolute bound: principal
    cosines read off an SVD carry an absolute rounding error, so the
    smallest rungs keep few correct digits.  The angle statements hold up
    to k = 7 and fail from k = 9 (k = 8 lies within 1e-6 relative of
    angle_tol), and the dual statements and the witness status turn with
    them."""
    held = []
    for k in range(13):
        n = 10.0**k
        report = _ladder_report(n, scale)
        with localcontext(prec=50):
            want = float(1 / (1 + Decimal(n) ** 2).sqrt())
        for got in report.angles_global:
            assert abs(got - want) <= 4 * 2.0**-52
        angles = (report.global_angles_positive, report.fiber_angles_positive)
        duals = (report.global_duals_exist, report.fiber_duals_exist)
        if k != 8:
            assert angles == (k <= 7, k <= 7)
        assert duals in ((True, True), (False, False))
        assert report.witness_status == ("verified" if duals[0] else "not constructed")
        held.append(duals[0])
    # one flip, below or above k = 8
    assert held in ([True] * 8 + [False] * 5, [True] * 9 + [False] * 4)


def _plant(kind, a, b):
    """Plant one atom's span relation on Gaussian-integer fibers a, b (d, r)
    in place: B^H A = 0, B rank-deficient, the spans meeting in at most one
    direction, or span(B) = span(A); "random" leaves both as drawn."""
    if kind == "orthogonal":
        a[a.shape[0] // 2:] = 0
        b[: b.shape[0] // 2] = 0
    elif kind == "deficient":
        b[:, -1] = b[:, :-1].sum(axis=-1)
    elif kind == "meet":
        a[2:] = 0
        b[1] = 0
        b[3:] = 0
    elif kind == "same span":
        b[:] = 1j * a[:, ::-1]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_angle_verdict_is_the_exact_rank_condition(data):
    """Both infimum cosines of an atom exceed angle_tol exactly when
    rank(B^H A) = rank A = rank B, decided exactly over the Gaussian integers
    (Bareiss).  With entries in {-3..3} + i{-3..3}, d <= 5 and r <= 3, every
    nonzero cosine and singular-value ratio is bounded away from the cutoffs
    by a Gaussian-integer minor of modulus >= 1, so any disagreement is a bug
    of the factor pass, not rounding."""
    d, r = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 3))
    n_atoms = data.draw(st.integers(1, 40))
    parts = data.draw(hnp.arrays(np.int64, (4, n_atoms, d, r), elements=st.integers(-3, 3)))
    a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    kinds = st.sampled_from(["random", "orthogonal", "deficient", "meet", "same span"])
    for k, kind in enumerate(data.draw(st.lists(kinds, min_size=n_atoms, max_size=n_atoms))):
        _plant(kind, a[k], b[k])
    measure = MeasureModel(tuple(f"x{k}" for k in range(n_atoms)), np.ones(n_atoms))
    fields, _ = _fiber_pass(FiberedSystem(measure, a), FiberedSystem(measure, b))
    diag = fields["diagnostics"]
    got = np.minimum(diag["r_ab"], diag["r_ba"]) > Tolerance().angle_tol
    want = [
        gaussian_integer_rank(bk.conj().T @ ak) == gaussian_integer_rank(ak) == gaussian_integer_rank(bk)
        for ak, bk in zip(a, b)
    ]
    assert got.tolist() == want
