"""The atom-blocked fiber engine against the per-fiber oracles.

The oracle runs the duality reduction one atom at a time with the reference
implementations of tests/oracles.py (eigenvalue frame bounds, PSD-power
tightening, pseudo-inverse duals, the orthonormal-basis inf_cos); the engine
in mispace factors blocks of atoms at once, and the single-fiber functions
of fiberframe and subspace run it on one-atom stacks.  Verdicts, integer
diagnostics and the deciding atom must agree exactly, cosines to 1e-12 and
pseudo-inverse norms to 1e-8 relative.
"""

import numpy as np
import pytest

import oracles
from framekit.fiberframe import (
    ConstructionError,
    FiberSystem,
    biorth_riesz_dual,
    canonical_dual,
    dualise,
    gramian,
    is_alternate_dual,
    mixed_gramian,
    parsevalize,
    rank_condition,
)
from framekit.generate import (
    complex_gaussian,
    duality_instance,
    fiber_pair,
    random_fibered_system,
    random_unitary,
    rotated_span_pair,
)
from framekit.mispace import (
    _BLOCK,
    DEFAULT_C_MAX,
    FiberedFunction,
    FiberedSystem,
    MeasureModel,
    alternate_dual_residuals,
    apply_mixed_frame_operator,
    canonical_duals,
    global_frame_bounds,
    global_inf_cos,
    pinv_dual,
    verify_biorthogonality,
    verify_duality,
)
from framekit.numkernel import DEFAULT_TOL, rank, singular_values
from framekit.subspace import DEFAULT_ANGLE_TOL, Subspace, inf_cos
from framekit.zak import build_plan, cyclic_group, tg_to_mg

PROBES = 8


def oracle_duality(sa, sb, tol=DEFAULT_TOL, angle_tol=DEFAULT_ANGLE_TOL, c_max=DEFAULT_C_MAX):
    """verify_duality's statements computed atom by atom with the per-fiber
    oracles.  Returns (verdicts, witness_status, rows, worst atom, bounds)."""
    r = max(sa.count, sb.count)
    fa_all, fb_all = sa.padded(r).fibers, sb.padded(r).fibers
    rows, tight = [], []
    feasible = True
    for atom, fa, fb in zip(sa.measure.atoms, fa_all, fb_all):
        ja, jb = Subspace.span_of(fa.matrix, tol), Subspace.span_of(fb.matrix, tol)
        rank_mixed = rank(mixed_gramian(fa, fb), tol)
        pa, pb = oracles.parsevalize(fa, tol), oracles.parsevalize(fb, tol)
        s = singular_values(mixed_gramian(pa, pb))
        keep = s > tol.rel_rank_tol * s[0] if s[0] > 0 else np.zeros(s.shape, dtype=bool)
        pinv_norm = float(1.0 / s[keep].min()) if keep.any() else 0.0
        rows.append((atom, ja.dim, jb.dim, oracles.inf_cos(ja, jb), oracles.inf_cos(jb, ja), rank_mixed, pinv_norm))
        tight.append((pa, pb))
        feasible = feasible and rank_mixed == ja.dim == jb.dim

    def bounds(fibers):
        act = [oracles.frame_bounds(f, tol) for f in fibers if rank(f.matrix, tol) > 0]
        if not act:
            return 1.0, 1.0, True
        lo = min(b[0] for b in act)
        return lo, max(b[1] for b in act), lo > tol.eq_tol

    fiber_angles = all(row[3] > angle_tol and row[4] > angle_tol for row in rows)
    act_a = [row[3] for row in rows if row[1] > 0]
    act_b = [row[4] for row in rows if row[2] > 0]
    angles = (min(act_a, default=1.0), min(act_b, default=1.0))
    worst = min(rows, key=lambda row: min(row[3], row[4]))[0]
    status, local_ok, global_ok = "not constructed", False, False
    duals = None
    if feasible:
        try:
            duals = [oracles.dualise(pa, pb, tol) for pa, pb in tight]
        except ConstructionError:
            duals = None
    if duals is not None:
        rng = np.random.default_rng(0)
        w = sa.measure.weights
        local = 0.0
        num, den = np.zeros((2, r + PROBES)), np.zeros((2, r + PROBES))
        for k, ((pa, _), h) in enumerate(zip(tight, duals)):
            sides = ((fa_all[k].matrix, pa, h), (fb_all[k].matrix, h, pa))
            for side, (m, synth, analysis) in enumerate(sides):
                p = np.concatenate([m, m @ complex_gaussian(rng, r, PROBES)], axis=1)
                res = np.linalg.norm(synth.matrix @ (analysis.matrix.conj().T @ p) - p, axis=0)
                nrm = np.linalg.norm(p, axis=0)
                live = nrm > 0
                if live.any():
                    local = max(local, float((res[live] / nrm[live]).max()))
                num[side] += w[k] * res**2
                den[side] += w[k] * nrm**2
        live = den > 0
        glob = float(np.sqrt(num[live] / den[live]).max()) if live.any() else 0.0
        spans_ok = all(
            rank(pa.matrix, tol) == row[1] and rank(h.matrix, tol) == row[2]
            for (pa, _), h, row in zip(tight, duals, rows)
        )
        frames_ok = bounds([pa for pa, _ in tight])[2] and bounds(duals)[2]
        local_ok = local <= tol.eq_tol
        global_ok = local_ok and glob <= tol.eq_tol and spans_ok and frames_ok
        status = "verified" if all(row[6] <= c_max for row in rows) else "constructed, unverified-bound"
    verdicts = (global_ok, angles[0] > angle_tol and angles[1] > angle_tol, local_ok, fiber_angles)
    return verdicts, status, rows, worst, (bounds(sa.fibers), bounds(sb.fibers)), angles


def assert_matches_oracle(sa, sb, **kwargs):
    report = verify_duality(sa, sb, **kwargs)
    verdicts, status, rows, worst, bounds, angles = oracle_duality(sa, sb, **kwargs)
    got = (
        report.global_duals_exist,
        report.global_angles_positive,
        report.fiber_duals_exist,
        report.fiber_angles_positive,
    )
    assert got == verdicts
    assert report.witness_status == status
    assert report.worst_fiber.atom == worst
    assert report.angles_global == pytest.approx(angles, abs=1e-12)
    angle_tol = kwargs.get("angle_tol", DEFAULT_ANGLE_TOL)
    for d, row in zip(report.diagnostics, rows):
        assert (d.atom, d.dim_ja, d.dim_jb, d.rank_mixed) == (row[0], row[1], row[2], row[5])
        assert abs(d.r_ab - row[3]) <= 1e-12 and abs(d.r_ba - row[4]) <= 1e-12
        if min(row[3], row[4]) > angle_tol:
            assert d.pinv_norm == pytest.approx(row[6], rel=1e-8)
    for got_b, want_b in zip((report.frame_bounds_a, report.frame_bounds_b), bounds):
        assert got_b[2] == want_b[2]
        assert got_b[:2] == pytest.approx(want_b[:2], rel=1e-9)
    return report


@pytest.mark.parametrize(
    "family,shape",
    [
        ("in-duality", (4, 3)),
        ("in-duality", (5, 2)),
        ("orthogonal-failure", (4, 3)),
        ("orthogonal-failure", (6, 4)),
        ("near-threshold", (6, 4)),
        ("near-threshold", (8, 6)),
    ],
)
def test_families_match_oracle(family, shape):
    for seed in range(3):
        n_atoms = (_BLOCK + 7, 2 * _BLOCK + 1, 11)[seed]
        inst = duality_instance(family, n_atoms, *shape, seed=seed, eps=1e-6)
        assert_matches_oracle(inst.sa, inst.sb)


@pytest.mark.parametrize("n_atoms", [1, _BLOCK, _BLOCK + 1])
def test_block_edges_match_oracle(n_atoms):
    for family in ("in-duality", "orthogonal-failure", "near-threshold"):
        inst = duality_instance(family, n_atoms, 4, 3, seed=n_atoms, eps=1e-4)
        assert_matches_oracle(inst.sa, inst.sb)


def _measure(n_atoms, rng):
    return MeasureModel(tuple(f"x{i}" for i in range(n_atoms)), rng.uniform(0.5, 1.5, n_atoms))


def test_zero_fibers_and_unequal_counts_match_oracle():
    rng = np.random.default_rng(5)
    n_atoms = _BLOCK + 3
    measure = _measure(n_atoms, rng)
    fa, fb = [], []
    for k in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, 5, 2, rng.uniform(0.3, 1.0, 2))
        fa.append(FiberSystem(v @ complex_gaussian(rng, 2, 2)))
        fb.append(FiberSystem(w @ complex_gaussian(rng, 2, 4)))
    # inactive on both sides, at both ends of the first block
    for k in (0, _BLOCK - 1):
        fa[k], fb[k] = FiberSystem.zeros(5, 2), FiberSystem.zeros(5, 4)
    sa, sb = FiberedSystem(measure, tuple(fa)), FiberedSystem(measure, tuple(fb))
    report = assert_matches_oracle(sa, sb)
    assert report.all_hold and report.witnesses[1].count == 4
    # inactive on one side only: that atom decides the angle verdicts
    fa[_BLOCK + 1] = FiberSystem.zeros(5, 2)
    report = assert_matches_oracle(FiberedSystem(measure, tuple(fa)), sb)
    assert report.worst_fiber.atom == f"x{_BLOCK + 1}" and not report.fiber_angles_positive


def test_singular_value_between_the_two_cutoffs():
    # s/s0 = 1e-7 lies above the rank cutoff (1e-10) and below the Gramian
    # cutoff (s^2 / s0^2 > 1e-10): the span keeps the direction, Parseval
    # tightening drops it, and the tightened pair fails dualise's rank test.
    rng = np.random.default_rng(17)
    n_atoms = _BLOCK + 2
    inst = duality_instance("in-duality", n_atoms, 4, 3, seed=3)
    q = random_unitary(rng, 4)[:, :2]
    thin = FiberSystem(q @ np.diag([1.0, 1e-7]) @ random_unitary(rng, 3)[:2, :])
    wide = FiberSystem(q @ complex_gaussian(rng, 2, 3))
    k = _BLOCK
    sa = FiberedSystem(inst.sa.measure, inst.sa.fibers[:k] + (thin,) + inst.sa.fibers[k + 1:])
    sb = FiberedSystem(inst.sb.measure, inst.sb.fibers[:k] + (wide,) + inst.sb.fibers[k + 1:])
    report = assert_matches_oracle(sa, sb)
    d = report.diagnostics[k]
    assert (d.dim_ja, d.dim_jb, d.rank_mixed) == (2, 2, 2)
    assert report.witness_status == "not constructed"


def test_verify_duality_svd_calls_are_batched(monkeypatch):
    inst = duality_instance("in-duality", 2000, 3, 2, seed=1)
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    report = verify_duality(inst.sa, inst.sb)
    assert report.witness_status == "verified"
    # 16 per atom when factored one atom at a time
    assert len(calls) < 2000 / 4


def test_pinv_dual_matches_dualise():
    inst = duality_instance("in-duality", _BLOCK + 5, 5, 3, seed=8)
    sb = FiberedSystem(inst.sb.measure, tuple(f.padded(4) for f in inst.sb.fibers))
    dual = pinv_dual(inst.sa, sb)
    for fa, fb, h in zip(inst.sa.fibers, sb.fibers, dual.fibers):
        assert np.allclose(h.matrix, oracles.dualise(fa, fb).matrix, atol=1e-10)
    bad = duality_instance("orthogonal-failure", 3, 2, 2, seed=6)
    with pytest.raises(ConstructionError, match="rank condition"):
        pinv_dual(bad.sa, bad.sb)


def test_global_reductions_match_per_fiber():
    rng = np.random.default_rng(31)
    sa = random_fibered_system(rng, 2 * _BLOCK + 3, 4, 2)
    sb = FiberedSystem(sa.measure, random_fibered_system(rng, 2 * _BLOCK + 3, 4, 3).fibers)
    lows, highs = zip(*(oracles.frame_bounds(f) for f in sa.fibers))
    lo, hi, _ = global_frame_bounds(sa)
    assert (lo, hi) == pytest.approx((min(lows), max(highs)), rel=1e-10)
    want = min(
        oracles.inf_cos(Subspace.span_of(fa.matrix), Subspace.span_of(fb.matrix))
        for fa, fb in zip(sa.fibers, sb.fibers)
    )
    assert global_inf_cos(sa, sb) == pytest.approx(want, abs=1e-12)
    f = FiberedFunction(sa.measure, complex_gaussian(rng, sa.measure.count, 4))
    out = apply_mixed_frame_operator(sa, sb, f)
    for k, (fa, fb) in enumerate(zip(sa.fibers, sb.fibers)):
        want_k = fa.padded(3).matrix @ (fb.matrix.conj().T @ f.values[k])
        assert np.allclose(out.values[k], want_k, atol=1e-12)


def test_verify_biorthogonality_matches_per_fiber():
    rng = np.random.default_rng(37)
    n_atoms, d, r = _BLOCK + 4, 5, 2
    measure = _measure(n_atoms, rng)
    fibers, targets = [], []
    for _ in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, d, r, rng.uniform(0.2, 1.0, r))
        fibers.append(FiberSystem(v @ (np.eye(r) + 0.3 * complex_gaussian(rng, r, r))))
        targets.append(Subspace(w))
    sa = FiberedSystem(measure, tuple(fibers))
    report = verify_biorthogonality(sa, targets)
    assert report.holds and report.repro_residual <= 1e-10
    for fib, w, row, h in zip(sa.fibers, targets, report.rows, report.dual.fibers):
        span = Subspace.span_of(fib.matrix)
        assert row.r_aw == pytest.approx(oracles.inf_cos(span, w), abs=1e-12)
        assert row.r_wa == pytest.approx(oracles.inf_cos(w, span), abs=1e-12)
        assert np.allclose(h.matrix, oracles.biorth_riesz_dual_via_projection(fib, w).matrix, atol=1e-10)
    lows = [oracles.frame_bounds(f)[0] for f in sa.fibers]
    assert report.riesz_bounds[0] == pytest.approx(min(lows), rel=1e-10)
    # a non-Riesz fiber in the second block is named
    bad = list(fibers)
    bad[_BLOCK + 2] = FiberSystem(np.repeat(fibers[0].matrix[:, :1], 2, axis=1))
    with pytest.raises(ConstructionError, match=f"x{_BLOCK + 2}"):
        verify_biorthogonality(FiberedSystem(measure, tuple(bad)), targets)


def test_single_fiber_functions_match_oracles():
    """The single-fiber functions are the engine on one-atom stacks; the
    oracles compute the same quantities the independent way."""
    rng = np.random.default_rng(43)
    for trial in range(300):
        d = int(rng.integers(1, 7))
        r = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(d, r) + 1))
        cosines = rng.uniform(0.2, 1.0, k)
        if trial % 4 == 0 and k > 1:
            # one orthogonal direction beside others, so that the rank drop of
            # B^H A shows against its largest singular value
            cosines[0] = 0.0
        a, b, _ = fiber_pair(rng, d, r, k, cosines)
        bounds = gramian(a)
        assert (bounds.frame_lower, bounds.frame_upper) == pytest.approx(oracles.frame_bounds(a), rel=1e-10)
        assert np.allclose(parsevalize(a).matrix, oracles.parsevalize(a).matrix, atol=1e-10)
        assert np.allclose(canonical_dual(a).matrix, oracles.canonical_dual(a).matrix, atol=1e-10)
        ja, jb = Subspace.span_of(a.matrix), Subspace.span_of(b.matrix)
        assert inf_cos(ja, jb) == pytest.approx(oracles.inf_cos(ja, jb), abs=1e-12)
        assert inf_cos(jb, ja) == pytest.approx(oracles.inf_cos(jb, ja), abs=1e-12)
        try:
            want = oracles.dualise(a, b)
        except ConstructionError:
            want = None
        assert rank_condition(a, b) == (want is not None)
        if want is None:
            with pytest.raises(ConstructionError, match="rank condition"):
                dualise(a, b)
            continue
        h = dualise(a, b)
        assert np.allclose(h.matrix, want.matrix, atol=1e-8)
        assert is_alternate_dual(a, h) and is_alternate_dual(h, a)
        v, w, _ = rotated_span_pair(rng, d, k, rng.uniform(0.2, 1.0, k))
        riesz = FiberSystem(v @ (np.eye(k) + 0.3 * complex_gaussian(rng, k, k)))
        want = oracles.biorth_riesz_dual_via_projection(riesz, Subspace(w))
        assert np.allclose(biorth_riesz_dual(riesz, Subspace(w)).matrix, want.matrix, atol=1e-8)


def test_stacked_paths_build_no_fiber_objects(monkeypatch):
    """The checkers and constructions work on the (atoms, d, r) stack from
    input to result: no FiberSystem is built per atom on the way."""
    n_atoms = 2 * _BLOCK + 3
    inst = duality_instance("in-duality", n_atoms, 4, 3, seed=12)
    rng = np.random.default_rng(41)
    fibers, targets = [], []
    for _ in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, 5, 2, rng.uniform(0.2, 1.0, 2))
        fibers.append(FiberSystem(v @ (np.eye(2) + 0.3 * complex_gaussian(rng, 2, 2))))
        targets.append(Subspace(w))
    riesz = FiberedSystem(_measure(n_atoms, rng), fibers)
    plan = build_plan(cyclic_group(2 * n_atoms), 2)
    signals = complex_gaussian(rng, 2, 2 * n_atoms)

    built = []
    post_init = FiberSystem.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(FiberSystem, "__post_init__", counting)
    assert verify_duality(inst.sa, inst.sb).witnesses is not None
    assert pinv_dual(inst.sa, inst.sb).matrices.shape == (n_atoms, 4, 3)
    assert verify_biorthogonality(riesz, targets).dual is not None
    assert tg_to_mg(plan, signals).matrices.shape == (n_atoms, 2, 2)
    canonical = canonical_duals(inst.sa)
    assert canonical.matrices.shape == (n_atoms, 4, 3)
    assert alternate_dual_residuals(inst.sa.matrices, canonical.matrices)[1].all()
    assert built == []
    inst.sa.fibers  # the per-atom view does build them, so the counter is live
    assert len(built) == n_atoms
