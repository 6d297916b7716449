"""The atom-blocked fiber engine against the per-fiber oracles.

The oracle runs the duality reduction one atom at a time with the reference
implementations of tests/oracles.py (eigenvalue frame bounds, PSD-power
tightening, pseudo-inverse duals, the orthonormal-basis inf_cos); the engine
in mispace factors blocks of atoms at once, and the single-fiber functions
of fiberframe and subspace run it on one-atom stacks.  Verdicts, integer
diagnostics and the deciding atom must agree exactly, cosines to 1e-12 and
pseudo-inverse norms to 1e-8 relative.
"""

import tracemalloc

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
    FAMILIES,
    complex_gaussian,
    duality_instance,
    fiber_pair,
    random_fibered_system,
    random_unitary,
    rotated_span_pair,
)
from framekit import mispace
from framekit.mispace import (
    _FACTOR_BLOCK,
    FiberedFunction,
    FiberedSystem,
    MeasureModel,
    alternate_dual_residuals,
    apply_mixed_frame_operator,
    canonical_duals,
    global_frame_bounds,
    pinv_dual,
    verify_biorthogonality,
    verify_duality,
)
from framekit.numkernel import DEFAULT_TOL, REL_RANK_TOL, Tolerance, rank, singular_values
from framekit.subspace import Subspace, inf_cos
from framekit.zak import build_plan, cyclic_group, tg_to_mg


def oracle_duality(sa, sb, tol=DEFAULT_TOL):
    """verify_duality's statements computed atom by atom with the per-fiber
    oracles.  Returns (verdicts, witness_status, rows, worst atom, bounds)."""
    r = max(sa.count, sb.count)
    fa_all, fb_all = sa.padded(r).fibers, sb.padded(r).fibers
    rows, tight = [], []
    feasible = True
    for atom, fa, fb in zip(sa.measure.atoms, fa_all, fb_all):
        ja, jb = Subspace.span_of(fa.matrix), Subspace.span_of(fb.matrix)
        # rank B^H A = rank Jb^H Ja: the principal cosines above the cutoff
        rank_mixed = int((singular_values(jb.basis.conj().T @ ja.basis) > REL_RANK_TOL).sum())
        pa, pb = oracles.parsevalize(fa, tol), oracles.parsevalize(fb, tol)
        # the tightened spans' principal cosines, on the scale of rank_mixed
        s = singular_values(mixed_gramian(pa, pb))
        keep = s > REL_RANK_TOL
        pinv_norm = float(1.0 / s[keep].min()) if keep.any() else 0.0
        rows.append((atom, ja.dim, jb.dim, oracles.inf_cos(ja, jb), oracles.inf_cos(jb, ja), rank_mixed, pinv_norm))
        tight.append((pa, pb))
        feasible = feasible and rank_mixed == ja.dim == jb.dim

    def bounds(fibers):
        act = [oracles.frame_bounds(f) for f in fibers if rank(f.matrix) > 0]
        if not act:
            return 1.0, 1.0, True
        lo, hi = min(b[0] for b in act), max(b[1] for b in act)
        return lo, hi, lo > tol.eq_tol * hi

    angle_tol = tol.angle_tol
    fiber_angles = all(row[3] > angle_tol and row[4] > angle_tol for row in rows)
    act_a = [row[3] for row in rows if row[1] > 0]
    act_b = [row[4] for row in rows if row[2] > 0]
    angles = (min(act_a, default=1.0), min(act_b, default=1.0))
    worst = min(rows, key=lambda row: min(row[3], row[4]))[0]
    status, local_ok, global_ok = "not constructed", False, False
    duals = None
    # witnesses are built where the rank condition holds and every cosine
    # clears angle_tol, the cutoff of the angle statements
    if feasible and fiber_angles:
        try:
            duals = [oracles.dualise(pa, pb) for pa, pb in tight]
        except ConstructionError:
            duals = None
    if duals is not None:
        local, glob = oracles.probe_residuals(
            sa.padded(r).matrices,
            sb.padded(r).matrices,
            sa.measure.weights,
            np.stack([pa.matrix for pa, _ in tight]),
            np.stack([h.matrix for h in duals]),
        )
        spans_ok = all(
            rank(pa.matrix) == row[1] and rank(h.matrix) == row[2]
            for (pa, _), h, row in zip(tight, duals, rows)
        )
        # the witness bounds the engine takes from its construction: T is
        # Parseval, and D has singular values 1 / cosine, so its bounds lie in
        # [1, pinv_norm^2]
        frames_ok = all(
            np.allclose(oracles.frame_bounds(pa), 1.0, rtol=1e-9)
            and oracles.frame_bounds(h)[0] >= 1.0 - 1e-9
            and oracles.frame_bounds(h)[1] == pytest.approx(row[6] ** 2, rel=1e-6)
            for (pa, _), h, row in zip(tight, duals, rows)
            if row[1] > 0
        )
        local_ok = local <= tol.eq_tol
        global_ok = local_ok and glob <= tol.eq_tol and spans_ok and frames_ok
        status = "verified" if all(row[6] <= tol.c_max for row in rows) else "constructed, unverified-bound"
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
    diag = report.diagnostics
    assert diag["atom"][report.worst_fiber] == worst
    assert report.angles_global == pytest.approx(angles, abs=1e-12)
    for k, row in enumerate(rows):
        got = tuple(diag[key][k] for key in ("atom", "dim_ja", "dim_jb", "rank_mixed"))
        assert got == (row[0], row[1], row[2], row[5])
        assert abs(diag["r_ab"][k] - row[3]) <= 1e-12 and abs(diag["r_ba"][k] - row[4]) <= 1e-12
        assert diag["pinv_norm"][k] == pytest.approx(row[6], rel=1e-8)
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
        n_atoms = (_FACTOR_BLOCK + 7, 2 * _FACTOR_BLOCK + 1, 11)[seed]
        inst = duality_instance(family, n_atoms, *shape, seed=seed, eps=1e-6)
        assert_matches_oracle(inst.sa, inst.sb)


@pytest.mark.parametrize("n_atoms", [1, _FACTOR_BLOCK, _FACTOR_BLOCK + 1])
def test_block_edges_match_oracle(n_atoms):
    for family in ("in-duality", "orthogonal-failure", "near-threshold"):
        inst = duality_instance(family, n_atoms, 4, 3, seed=n_atoms, eps=1e-4)
        assert_matches_oracle(inst.sa, inst.sb)


def _measure(n_atoms, rng):
    return MeasureModel(tuple(f"x{i}" for i in range(n_atoms)), rng.uniform(0.5, 1.5, n_atoms))


def test_zero_fibers_and_unequal_counts_match_oracle():
    rng = np.random.default_rng(5)
    n_atoms = _FACTOR_BLOCK + 3
    measure = _measure(n_atoms, rng)
    fa, fb = [], []
    for k in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, 5, 2, rng.uniform(0.3, 1.0, 2))
        fa.append(FiberSystem(v @ complex_gaussian(rng, 2, 2)))
        fb.append(FiberSystem(w @ complex_gaussian(rng, 2, 4)))
    # inactive on both sides, at both ends of the first block
    for k in (0, _FACTOR_BLOCK - 1):
        fa[k], fb[k] = FiberSystem.zeros(5, 2), FiberSystem.zeros(5, 4)
    sa, sb = FiberedSystem(measure, tuple(fa)), FiberedSystem(measure, tuple(fb))
    report = assert_matches_oracle(sa, sb)
    assert report.all_hold and report.witnesses[1].count == 4
    # inactive on one side only: that atom decides the angle verdicts
    fa[_FACTOR_BLOCK + 1] = FiberSystem.zeros(5, 2)
    report = assert_matches_oracle(FiberedSystem(measure, tuple(fa)), sb)
    assert report.diagnostics["atom"][report.worst_fiber] == f"x{_FACTOR_BLOCK + 1}"
    assert not report.fiber_angles_positive


def test_singular_value_between_the_two_cutoffs():
    # s/s0 = 1e-7 lies above the rank cutoff (1e-10), so the span, the
    # bounds and the tightening all keep the direction; a lower bound of
    # 1e-14 s0^2 then fails the scale-free frame test lower > eq_tol * upper.
    rng = np.random.default_rng(17)
    n_atoms = _FACTOR_BLOCK + 2
    inst = duality_instance("in-duality", n_atoms, 4, 3, seed=3)
    q = random_unitary(rng, 4)[:, :2]
    thin = FiberSystem(q @ np.diag([1.0, 1e-7]) @ random_unitary(rng, 3)[:2, :])
    wide = FiberSystem(q @ complex_gaussian(rng, 2, 3))
    k = _FACTOR_BLOCK
    sa = FiberedSystem(inst.sa.measure, inst.sa.fibers[:k] + (thin,) + inst.sa.fibers[k + 1:])
    sb = FiberedSystem(inst.sb.measure, inst.sb.fibers[:k] + (wide,) + inst.sb.fibers[k + 1:])
    assert oracles.frame_bounds(thin) == pytest.approx((1e-14, 1.0), rel=1e-6)
    with pytest.raises(ValueError, match="first system is not a frame for its span"):
        verify_duality(sa, sb)
    assert not global_frame_bounds(sa)[2]
    assert global_frame_bounds(sb)[2]


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
    # per block of _FACTOR_BLOCK atoms: the spans of A and of B, and Qb^H Qa
    # (16 per atom when factored one atom at a time)
    assert len(calls) == 3 * -(-2000 // _FACTOR_BLOCK) == 48
    # the pseudo-inverse dual reads the same three factorizations
    calls.clear()
    pinv_dual(inst.sa, inst.sb)
    assert len(calls) == 48


def _witness_material(inst):
    """verify_duality's report on an instance, the padded stacks of both
    systems, and a copy of the witness pair's stacks."""
    report = verify_duality(inst.sa, inst.sb)
    a, b = mispace._padded_pair(inst.sa, inst.sb)
    tight, dual = (w.matrices.copy() for w in report.witnesses)
    return report, a, b, tight, dual


@pytest.mark.parametrize("family", ["in-duality", "near-threshold"])
@pytest.mark.parametrize("shape", [(4, 3), (8, 6)])
def test_certificate_and_probe_oracle_agree(family, shape):
    """The Frobenius certificate and the random-probe route of the oracles
    decide the existence statements alike on the witnesses."""
    for seed in range(3):
        inst = duality_instance(family, _FACTOR_BLOCK + 9, *shape, seed=seed, eps=1e-6)
        report, a, b, tight, dual = _witness_material(inst)
        local, glob = oracles.probe_residuals(a, b, inst.sa.measure.weights, tight, dual, seed=seed)
        assert report.fiber_duals_exist == (local <= DEFAULT_TOL.eq_tol)
        assert report.global_duals_exist == (local <= DEFAULT_TOL.eq_tol and glob <= DEFAULT_TOL.eq_tol)
        assert report.all_hold


def test_certificate_sees_a_perturbed_dual():
    """A dual moved by 1e-6 relative on one atom in the second block fails the
    certificate, which stays at least the probe oracle's ratio."""
    inst = duality_instance("in-duality", _FACTOR_BLOCK + 9, 4, 3, seed=2)
    report, a, b, tight, dual = _witness_material(inst)
    assert report.max_local_residual <= DEFAULT_TOL.eq_tol
    k = _FACTOR_BLOCK + 4
    e = complex_gaussian(np.random.default_rng(7), *dual[k].shape)
    dual[k] += 1e-6 * np.linalg.norm(dual[k]) / np.linalg.norm(e) * e
    qa, qb = mispace._spans(a)[0], mispace._spans(b)[0]
    cert = np.stack(mispace._certificate(tight, dual, qa, qb))
    local, _ = oracles.probe_residuals(a, b, inst.sa.measure.weights, tight, dual)
    assert cert.max() > DEFAULT_TOL.eq_tol and cert.max() >= local
    assert np.argmax(cert.max(axis=0)) == k


@pytest.mark.parametrize("eps", [1e-9, 5e-9, 1.2e-8, 2e-8, 5e-8, 1e-7])
def test_near_threshold_statements_agree(eps):
    """A planted cosine on either side of angle_tol, above REL_RANK_TOL: just
    above, the certificate, a backward error, does not grow with pinv_norm,
    so the dual statements hold with the angle statements; at or below, no
    witness is built, so they fail with them."""
    holds = eps > DEFAULT_TOL.angle_tol
    for seed in range(5):
        inst = duality_instance("near-threshold", 300, 8, 6, seed=seed, eps=eps)
        report = verify_duality(inst.sa, inst.sb)
        statements = (report.global_duals_exist, report.global_angles_positive,
                      report.fiber_duals_exist, report.fiber_angles_positive)
        assert statements == (holds,) * 4, (seed, report.max_local_residual)
        assert (report.witnesses is not None) == holds
        assert report.diagnostics["pinv_norm"].max() >= 0.5 / eps


@pytest.mark.parametrize("family", ["in-duality", "near-threshold"])
@pytest.mark.parametrize("shape", [(50, 4, 3), (40, 8, 6), (30, 7, 5)])
def test_criterion_constants(family, shape):
    """The criterion with its constants, c the smallest global cosine and
    B_X, A_X the global frame bounds of X.  The witness T is Parseval and its
    dual D is optimal, B_D c^2 = 1.  Any dual H of A in span(B) has
    c >= 1/sqrt(B_A B_H) (Cauchy-Schwarz on 1 = sum <u, h_i><a_i, u>), and
    the pseudo-inverse dual's bounds lie in [1/B_A, 1/(A_A c^2)]."""
    for seed in range(5):
        inst = duality_instance(family, *shape, seed=seed, eps=1e-6)
        report = verify_duality(inst.sa, inst.sb)
        t, d = report.witnesses
        c = min(report.angles_global)
        lower_t, upper_t, _ = global_frame_bounds(t)
        assert abs(lower_t - 1.0) <= 1e-12 and abs(upper_t - 1.0) <= 1e-12
        assert abs(global_frame_bounds(d)[1] * c**2 - 1.0) <= 1e-12
        lower_a, upper_a, _ = global_frame_bounds(inst.sa)
        lower_h, upper_h, _ = global_frame_bounds(pinv_dual(inst.sa, inst.sb))
        assert c >= 1.0 / np.sqrt(upper_a * upper_h)
        assert 1.0 / upper_a <= lower_h and upper_h <= 1.0 / (lower_a * c**2)


# (atoms, dim, gens) whose in-duality draws hold Riesz atoms (dim span A = r)
# and atoms with free dimensions 2, 3, 4 and 6 over seeds 0-9
_FAMILY_SHAPES = [(40, 7, 5), (30, 5, 4), (30, 6, 3)]


def _family_direction(base, a, b, rng):
    """A member base + E of the family of duals of the (atoms, d, r) stack a
    in span(b) around its dual base: per atom E = Qb G (I - Va Va^H) for a
    complex Gaussian G, scaled to base's norm where the family is more than
    base.  Returns E, the family's free dimension k (r - k) with k = dim
    span A, and I - Va Va^H, the projector onto ker A."""
    _, k, _, va = mispace._spans(a)
    qb = mispace._spans(b)[0]
    r = a.shape[-1]
    kernel = np.eye(r) - va @ va.conj().swapaxes(-1, -2)
    e = qb @ complex_gaussian(rng, len(a), qb.shape[-1], r) @ kernel
    free = k * (r - k)
    grow = free > 0
    e[grow] *= (np.linalg.norm(base[grow], axis=(-2, -1)) / np.linalg.norm(e[grow], axis=(-2, -1)))[:, None, None]
    return e, free, kernel


@pytest.mark.parametrize("shape", _FAMILY_SHAPES)
def test_family_of_duals_and_its_uniqueness(shape):
    """The family of duals and its uniqueness (Hemmat & Gabardo; Heil, Koo &
    Lim).  Under the rank condition the duals of A in span(B) on an atom are
    D0 + Qb Z with Z = G (I - Va Va^H), D0 = pinv_dual: A Z^H = 0 keeps the
    forward identity and Z A^H = 0 the backward one.  D0 is the one type II
    member, its coefficients D0^H in the range of A^H, and the free
    dimension k (r - k) is 0 exactly on Riesz atoms, where D0 is the only
    dual."""
    free_seen = set()
    for seed in range(10):
        inst = duality_instance("in-duality", *shape, seed=seed)
        a, b = inst.sa.matrices, inst.sb.matrices
        d0 = pinv_dual(inst.sa, inst.sb).matrices
        e, free, kernel = _family_direction(d0, a, b, np.random.default_rng(seed))
        h = d0 + e
        for x, y in ((a, h), (h, a)):
            resid, _ = alternate_dual_residuals(x, y)
            assert (resid <= 1e-12 * np.linalg.norm(x.conj().swapaxes(-1, -2) @ x, axis=(-2, -1))).all()
            assert all(is_alternate_dual(FiberSystem(u), FiberSystem(v)) for u, v in zip(x, y))

        def leaves(m):
            # how far the coefficients m^H reach out of the range of A^H
            return np.linalg.norm(kernel @ m.conj().swapaxes(-1, -2), axis=(-2, -1)) / np.linalg.norm(m, axis=(-2, -1))

        riesz = np.linalg.matrix_rank(a) == a.shape[-1]
        assert ((free == 0) == riesz).all()
        assert leaves(d0).max() <= 1e-13
        # E^H lies in ker A and D0^H in its complement, each of norm |D0|
        assert (leaves(h)[~riesz] >= 0.5).all()
        assert (np.linalg.norm(e[riesz], axis=(-2, -1)) <= 1e-13 * np.linalg.norm(d0[riesz], axis=(-2, -1))).all()
        free_seen |= set(free.tolist())
    assert 0 in free_seen and len(free_seen) > 1


@pytest.mark.parametrize("shape", _FAMILY_SHAPES)
def test_base_duals_are_optimal_in_their_family(shape):
    """The base duals are optimal within the family of duals: the witness dual
    W0 of the Parseval tightening T, and D0 = pinv_dual of A, each have the
    least upper frame bound among the duals in span(B) of their system,
    atom by atom and globally, and B_W0 = 1/c^2.  A base's coefficients lie
    in ker(A)^perp and a member's added ones in ker(A), so every member has
    H H^H = D D^H + E E^H."""
    for seed in range(10):
        inst = duality_instance("in-duality", *shape, seed=seed)
        report = verify_duality(inst.sa, inst.sb)
        t, w0 = report.witnesses
        c = min(report.angles_global)
        assert abs(global_frame_bounds(w0)[1] * c**2 - 1.0) <= 1e-12
        rng = np.random.default_rng(seed)
        d0 = pinv_dual(inst.sa, inst.sb)
        for system, base in ((t, w0), (inst.sa, d0)):
            a = system.matrices
            e, _, _ = _family_direction(base.matrices, a, inst.sb.matrices, rng)
            upper = singular_values(base.matrices)[:, 0] ** 2
            upper_base = global_frame_bounds(base)[1]
            for scale in (1e-3, 1.0):
                h = base.matrices + scale * e
                assert alternate_dual_residuals(a, h)[1].all() and alternate_dual_residuals(h, a)[1].all()
                assert (singular_values(h)[:, 0] ** 2 >= upper * (1.0 - 1e-12)).all()
                member = FiberedSystem(inst.sa.measure, h)
                assert global_frame_bounds(member)[1] >= upper_base * (1.0 - 1e-12)


@pytest.mark.parametrize("family,eps", [("in-duality", 1e-6), ("near-threshold", 1e-6)])
def test_backward_error_sees_a_perturbed_witness(family, eps, monkeypatch):
    """A witness dual moved by 1e-6 of its norm on one atom in the second
    block fails the certificate, on the near-threshold family's planted atom
    too, whose pinv_norm the backward error divides by."""
    inst = duality_instance(family, _FACTOR_BLOCK + 9, 8, 6, seed=4, eps=eps)
    k = _FACTOR_BLOCK + 4
    if family == "near-threshold":
        k = int(inst.meta["special_atom"][1:])
    assert verify_duality(inst.sa, inst.sb).all_hold
    pinv_duals, offset = mispace._pinv_duals, [0]

    def perturbed(f, tightened=False):
        d = pinv_duals(f, tightened)
        lo = offset[0]
        offset[0] += len(d)
        if lo <= k < lo + len(d):
            e = complex_gaussian(np.random.default_rng(7), *d[k - lo].shape)
            d[k - lo] += 1e-6 * np.linalg.norm(d[k - lo]) / np.linalg.norm(e) * e
        return d

    monkeypatch.setattr(mispace, "_pinv_duals", perturbed)
    report = verify_duality(inst.sa, inst.sb)
    assert offset[0] == inst.sa.measure.count
    assert not report.fiber_duals_exist and not report.global_duals_exist
    assert report.fiber_angles_positive and report.global_angles_positive


def test_pinv_dual_matches_dualise():
    inst = duality_instance("in-duality", _FACTOR_BLOCK + 5, 5, 3, seed=8)
    sb = FiberedSystem(inst.sb.measure, tuple(f.padded(4) for f in inst.sb.fibers))
    dual = pinv_dual(inst.sa, sb)
    for fa, fb, h in zip(inst.sa.fibers, sb.fibers, dual.fibers):
        assert np.allclose(h.matrix, oracles.dualise(fa, fb).matrix, atol=1e-10)
    bad = duality_instance("orthogonal-failure", 3, 2, 2, seed=6)
    with pytest.raises(ConstructionError, match="rank condition"):
        pinv_dual(bad.sa, bad.sb)


@pytest.mark.parametrize("seed", range(3))
def test_orthogonal_spans_fail_the_rank_condition(seed):
    # B^H A of orthogonal spans is rounding noise, its singular values all
    # alike; against its own largest one it would count as full rank
    a, b, _ = fiber_pair(np.random.default_rng(seed), 4, 2, 2, [0, 0])
    assert not rank_condition(a, b)
    with pytest.raises(ConstructionError, match="rank condition"):
        dualise(a, b)
    measure = MeasureModel(("x0",), np.ones(1))
    sa, sb = FiberedSystem(measure, (a,)), FiberedSystem(measure, (b,))
    with pytest.raises(ConstructionError, match="rank condition"):
        pinv_dual(sa, sb)
    report = verify_duality(sa, sb)
    assert report.diagnostics["rank_mixed"][0] == 0
    # no principal cosine clears REL_RANK_TOL, so no rounding noise is inverted
    assert report.diagnostics["pinv_norm"][0] == 0.0
    assert report.witness_status == "not constructed"


def test_one_rank_condition_on_an_ill_conditioned_pair():
    """A = [e0, 5e-4 e1] and B = [e0, 1e-7 e1 + sqrt(1 - 1e-14) e2] in C^4: the
    principal cosines are 1 and 1e-7, both above REL_RANK_TOL, so the rank
    condition holds although B^H A has singular values 1 and 5e-11.  The
    checker, pinv_dual, rank_condition and dualise give one answer, and the
    dual reproduces both ways.  (oracles.dualise counts the rank of B^H A
    against its own largest singular value, so this pair is outside it.)"""
    e = np.eye(4)
    a = np.stack([e[0], 5e-4 * e[1]], axis=1)
    b = np.stack([e[0], 1e-7 * e[1] + np.sqrt(1.0 - 1e-14) * e[2]], axis=1)
    measure = MeasureModel(("x0",), np.ones(1))
    sa, sb = FiberedSystem(measure, a[None]), FiberedSystem(measure, b[None])
    report = verify_duality(sa, sb)
    assert report.all_hold and report.witness_status == "verified"
    got = report.diagnostics
    assert got["rank_mixed"][0] == got["dim_ja"][0] == got["dim_jb"][0] == 2
    fa, fb = FiberSystem(a), FiberSystem(b)
    assert rank_condition(fa, fb)
    h = pinv_dual(sa, sb).matrices
    assert np.array_equal(dualise(fa, fb).matrix, h[0])
    assert alternate_dual_residuals(a[None], h)[1].all()
    assert alternate_dual_residuals(h, a[None])[1].all()
    qb = Subspace.span_of(b).basis
    assert np.linalg.norm(h[0] - qb @ (qb.conj().T @ h[0])) <= 1e-12 * np.linalg.norm(h[0])


def _bits(x):
    """x with every array replaced by its dtype, shape and bytes, so that
    == compares bit for bit."""
    if isinstance(x, FiberedSystem):
        return _bits(x.matrices)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    return x


def test_factor_block_size_changes_no_bit(monkeypatch):
    """Each atom is factored alone inside a batch, so the factor loops give
    the same bits at any block size."""
    n_atoms = _FACTOR_BLOCK + 9
    inst = duality_instance("in-duality", n_atoms, 4, 3, seed=4)
    fail = duality_instance("orthogonal-failure", n_atoms, 4, 3, seed=5)
    rng = np.random.default_rng(47)
    fibers, targets = [], []
    for _ in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, 5, 2, rng.uniform(0.2, 1.0, 2))
        fibers.append(FiberSystem(v @ (np.eye(2) + 0.3 * complex_gaussian(rng, 2, 2))))
        targets.append(Subspace(w))
    riesz = FiberedSystem(_measure(n_atoms, rng), fibers)

    def results():
        return _bits([
            [vars(verify_duality(i.sa, i.sb)) for i in (inst, fail)],
            vars(verify_biorthogonality(riesz, targets)),
            pinv_dual(inst.sa, inst.sb),
            canonical_duals(inst.sa),
            global_frame_bounds(inst.sa),
        ])

    want = results()
    assert vars(verify_duality(inst.sa, inst.sb))["witness_status"] == "verified"
    for size in (1, 7):
        monkeypatch.setattr(mispace, "_FACTOR_BLOCK", size)
        assert results() == want


def _outcome(fn, *args):
    """fn(*args), or the message of the ConstructionError it raises."""
    try:
        return fn(*args)
    except ConstructionError as exc:
        return "ConstructionError", str(exc)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_factor_loop_gives_the_same_bits_at_any_block_size(family, monkeypatch):
    """Each block's per-atom columns are concatenated after the loop and its
    witnesses written by slice: at block sizes 1, 7, 128 and K + 1 every
    stacked path returns the bits of the default size, with the failed
    constructions' messages.  The family's spans have dimension 1 to 3, so
    verify_biorthogonality takes a Riesz family of the same shape, at an
    angle_tol that fails some atoms too."""
    n_atoms = 300
    inst = duality_instance(family, n_atoms, 5, 3, seed=11)
    f = FiberedFunction(inst.sa.measure, complex_gaussian(np.random.default_rng(13), n_atoms, 5))
    riesz, sb = _riesz_and_b(n_atoms, 5, 3, 3, seed=FAMILIES.index(family))

    def biorth(targets, tol):
        return vars(verify_biorthogonality(riesz, targets, tol))

    def results():
        return _bits([
            vars(verify_duality(inst.sa, inst.sb)),
            _outcome(pinv_dual, inst.sa, inst.sb),
            canonical_duals(inst.sa),
            apply_mixed_frame_operator(inst.sa, inst.sb, f).values,
            global_frame_bounds(inst.sa),
            [biorth(t, tol) for t in (sb, _span_targets(sb)) for tol in (DEFAULT_TOL, Tolerance(angle_tol=0.3))],
        ])

    want = results()
    for size in (1, 7, 128, n_atoms + 1):
        monkeypatch.setattr(mispace, "_FACTOR_BLOCK", size)
        assert results() == want


def test_no_witness_is_built_after_a_block_fails_the_rank_condition(monkeypatch):
    """verify_duality reports no witness unless the rank condition holds on
    every atom, so the factor pass stops building and certifying witnesses
    at the first block where it fails; the report keeps every bit."""
    inst = duality_instance("orthogonal-failure", 3 * _FACTOR_BLOCK, 4, 3, seed=2)
    assert int(inst.meta["special_atom"][1:]) < _FACTOR_BLOCK  # the failing atom is in block 0
    calls = []
    certificate = mispace._certificate

    def counting(*args):
        calls.append(1)
        return certificate(*args)

    monkeypatch.setattr(mispace, "_certificate", counting)
    report = verify_duality(inst.sa, inst.sb)
    assert len(calls) <= 1
    # the report of the factor pass's fields and no witness, which it also
    # was when every block's witnesses were built and then dropped
    fields, built = mispace._fiber_pass(inst.sa, inst.sb, DEFAULT_TOL)
    assert built is None
    want = mispace.EquivalenceReport(
        global_duals_exist=False,
        fiber_duals_exist=False,
        witness_status="not constructed",
        witnesses=None,
        max_local_residual=None,
        max_global_residual=None,
        **fields,
    )
    assert _bits(vars(report)) == _bits(vars(want))
    assert not report.fiber_angles_positive and report.diagnostics["rank_mixed"].min() == 0


def test_global_reductions_match_per_fiber():
    rng = np.random.default_rng(31)
    sa = random_fibered_system(rng, 2 * _FACTOR_BLOCK + 3, 4, 2)
    sb = FiberedSystem(sa.measure, random_fibered_system(rng, 2 * _FACTOR_BLOCK + 3, 4, 3).fibers)
    lows, highs = zip(*(oracles.frame_bounds(f) for f in sa.fibers))
    lo, hi, _ = global_frame_bounds(sa)
    assert (lo, hi) == pytest.approx((min(lows), max(highs)), rel=1e-10)
    want = min(
        oracles.inf_cos(Subspace.span_of(fa.matrix), Subspace.span_of(fb.matrix))
        for fa, fb in zip(sa.fibers, sb.fibers)
    )
    assert verify_duality(sa, sb).angles_global[0] == pytest.approx(want, abs=1e-12)
    f = FiberedFunction(sa.measure, complex_gaussian(rng, sa.measure.count, 4))
    out = apply_mixed_frame_operator(sa, sb, f)
    for k, (fa, fb) in enumerate(zip(sa.fibers, sb.fibers)):
        want_k = fa.padded(3).matrix @ (fb.matrix.conj().T @ f.values[k])
        assert np.allclose(out.values[k], want_k, atol=1e-12)


def test_verify_biorthogonality_matches_per_fiber():
    rng = np.random.default_rng(37)
    n_atoms, d, r = _FACTOR_BLOCK + 4, 5, 2
    measure = _measure(n_atoms, rng)
    fibers, targets = [], []
    for _ in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, d, r, rng.uniform(0.2, 1.0, r))
        fibers.append(FiberSystem(v @ (np.eye(r) + 0.3 * complex_gaussian(rng, r, r))))
        targets.append(Subspace(w))
    sa = FiberedSystem(measure, tuple(fibers))
    report = verify_biorthogonality(sa, targets)
    assert report.holds and report.repro_residual <= 1e-10
    rows = report.rows
    for k, (fib, w, h) in enumerate(zip(sa.fibers, targets, report.dual.fibers)):
        span = Subspace.span_of(fib.matrix)
        assert rows["r_aw"][k] == pytest.approx(oracles.inf_cos(span, w), abs=1e-12)
        assert rows["r_wa"][k] == pytest.approx(oracles.inf_cos(w, span), abs=1e-12)
        assert np.allclose(h.matrix, oracles.biorth_riesz_dual_via_projection(fib, w).matrix, atol=1e-10)
    lows = [oracles.frame_bounds(f)[0] for f in sa.fibers]
    assert report.riesz_bounds[0] == pytest.approx(min(lows), rel=1e-10)
    # a non-Riesz fiber in the second block is named
    bad = list(fibers)
    bad[_FACTOR_BLOCK + 2] = FiberSystem(np.repeat(fibers[0].matrix[:, :1], 2, axis=1))
    with pytest.raises(ConstructionError, match=f"x{_FACTOR_BLOCK + 2}"):
        verify_biorthogonality(FiberedSystem(measure, tuple(bad)), targets)


def test_verify_biorthogonality_holds_one_full_size_array():
    """One pass over the slices: besides the dual it returns, nothing of the
    size of A is held, so the traced peak stays near twice A's size."""
    rng = np.random.default_rng(41)
    n_atoms, d, r = 1000, 12, 8
    fibers, targets = [], []
    for _ in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, d, r, rng.uniform(0.2, 1.0, r))
        fibers.append(v @ (np.eye(r) + 0.3 * complex_gaussian(rng, r, r)))
        targets.append(Subspace(w))
    sa = FiberedSystem(_measure(n_atoms, rng), np.stack(fibers))
    tracemalloc.start()
    try:
        report = verify_biorthogonality(sa, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak <= 2.5 * sa.matrices.nbytes


def test_verify_biorthogonality_allocates_no_dual_for_a_failing_first_slice():
    """The dual is made at the first slice that clears angle_tol; a family
    whose first slice fails never holds one."""
    rng = np.random.default_rng(43)
    n_atoms, d, r = 300, 5, 2
    fibers, targets = [], []
    for k in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, d, r, rng.uniform(0.1 if k == 3 else 0.8, 1.0, r))
        fibers.append(v @ (np.eye(r) + 0.3 * complex_gaussian(rng, r, r)))
        targets.append(Subspace(w))
    sa = FiberedSystem(_measure(n_atoms, rng), np.stack(fibers))
    tracemalloc.start()
    try:
        report = verify_biorthogonality(sa, targets, Tolerance(angle_tol=0.7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.holds and report.failed_atoms == ["x3"] and report.dual is None
    assert peak <= 3.2 * sa.matrices.nbytes


@pytest.mark.parametrize("c", [2e-8, 5e-8, 1e-6])
def test_verify_biorthogonality_residuals_are_backward_errors(c):
    """Targets at a planted principal cosine c just above angle_tol: the
    dual's norm is about 1/c, so its forward residuals grow like the unit
    roundoff over c.  Divided by ||A||_2 ||H||_2 they stay at rounding."""
    rng = np.random.default_rng(53)
    n_atoms, d, r = 200, 6, 3
    fibers, targets = [], []
    for _ in range(n_atoms):
        v, w, _ = rotated_span_pair(rng, d, r, [c, 0.5, 0.9])
        fibers.append(v @ (np.eye(r) + 0.3 * complex_gaussian(rng, r, r)))
        targets.append(Subspace(w))
    report = verify_biorthogonality(FiberedSystem(_measure(n_atoms, rng), np.stack(fibers)), targets)
    assert report.holds
    assert report.rows["r_aw"].min() == pytest.approx(c, rel=1e-6)
    assert report.biorth_deviation <= 1e-12
    assert report.repro_residual <= 1e-12


def test_a_cosine_below_the_rank_cutoff_is_not_ok_at_any_angle_tol():
    """A cosine above angle_tol but at most REL_RANK_TOL is a rank drop of
    W^H A, so the atom is not ok and no dual is built, as verify_duality
    builds no witness where its rank condition fails."""
    rng = np.random.default_rng(61)
    fibers, targets = [], []
    for c in (1e-11, 0.5):
        v, w, _ = rotated_span_pair(rng, 5, 2, [c, 0.9])
        fibers.append(v @ (np.eye(2) + 0.3 * complex_gaussian(rng, 2, 2)))
        targets.append(Subspace(w))
    loose = Tolerance(angle_tol=1e-12)
    report = verify_biorthogonality(FiberedSystem(_measure(2, rng), np.stack(fibers)), targets, loose)
    assert 1e-12 < report.rows["r_aw"][0] <= REL_RANK_TOL
    assert not report.holds and report.failed_atoms == ["x0"] and report.dual is None
    with pytest.raises(ConstructionError, match="not in duality"):
        biorth_riesz_dual(FiberSystem(fibers[0]), targets[0], loose)


@pytest.mark.parametrize("d,r", [(5, 2), (3, 3)])
def test_biorthogonal_dual_is_the_pseudo_inverse_dual(d, r):
    """A Riesz family has exactly one dual in r-dimensional targets W, so
    verify_biorthogonality's dual is pinv_dual against the stacked bases of
    W, with r < d and with r = d, where W is the whole space and the dual is
    A^-H."""
    rng = np.random.default_rng(59 + d)
    n_atoms = _FACTOR_BLOCK + 5
    fibers, targets = [], []
    for _ in range(n_atoms):
        if r < d:
            v, w, _ = rotated_span_pair(rng, d, r, rng.uniform(0.2, 1.0, r))
        else:
            v, w = random_unitary(rng, d), random_unitary(rng, d)
        fibers.append(v @ (np.eye(r) + 0.3 * complex_gaussian(rng, r, r)))
        targets.append(Subspace(w))
    sa = FiberedSystem(_measure(n_atoms, rng), np.stack(fibers))
    dual = verify_biorthogonality(sa, targets).dual.matrices
    want = pinv_dual(sa, FiberedSystem(sa.measure, np.stack([t.basis for t in targets]))).matrices
    gap = np.linalg.norm(dual - want, axis=(-2, -1))
    assert np.all(gap <= 1e-12 * np.linalg.norm(want, axis=(-2, -1)))
    if r == d:
        inverse = np.linalg.inv(sa.matrices).conj().swapaxes(-1, -2)
        assert np.all(np.linalg.norm(dual - inverse, axis=(-2, -1)) <= 1e-12 * np.linalg.norm(inverse, axis=(-2, -1)))
    assert alternate_dual_residuals(sa.matrices, dual)[1].all()
    assert alternate_dual_residuals(dual, sa.matrices)[1].all()


def _riesz_and_b(n_atoms, d, r, count, seed):
    """A Gaussian Riesz family A of r generators and a system B of count
    generators, G C for G of min(r, count) Gaussian columns, so that span(B)
    has dimension min(r, count) on every atom."""
    rng = np.random.default_rng(seed)
    k = min(r, count)
    b = complex_gaussian(rng, n_atoms, d, k) @ complex_gaussian(rng, n_atoms, k, count)
    measure = _measure(n_atoms, rng)
    return FiberedSystem(measure, complex_gaussian(rng, n_atoms, d, r)), FiberedSystem(measure, b)


def _span_targets(sb):
    """span(B) written out as one Subspace per atom from one span pass."""
    return [Subspace(q[:, :k]) for q, k in zip(*mispace._spans(sb.matrices)[:2])]


@pytest.mark.parametrize("extra", [0, 2])
def test_verify_biorthogonality_of_b_is_that_of_its_span(extra):
    """A system B as targets stands for W = span(B): the report is the one for
    span(B) written out as Subspaces, bit for bit across factor blocks, with B
    of r generators and of r + 2 whose spans have dimension r."""
    sa, sb = _riesz_and_b(_FACTOR_BLOCK + 9, 5, 2, 2 + extra, seed=71 + extra)
    report = verify_biorthogonality(sa, sb)
    assert report.holds
    assert _bits(vars(report)) == _bits(vars(verify_biorthogonality(sa, _span_targets(sb))))


def test_verify_biorthogonality_of_b_checks_its_hypotheses_first():
    n_atoms = _FACTOR_BLOCK + 9
    sa, sb = _riesz_and_b(n_atoms, 5, 2, 1, seed=73)
    with pytest.raises(ConstructionError, match="^atom 'x0': target subspace has dimension 1, expected 2$"):
        verify_biorthogonality(sa, sb)
    # every span dimension is checked before any fiber of A is factored
    sa, sb = _riesz_and_b(n_atoms, 5, 2, 2, seed=73)
    a, b = sa.matrices.copy(), sb.matrices.copy()
    a[0, :, 1] = a[0, :, 0]
    b[-1, :, 1] = 2.0 * b[-1, :, 0]
    with pytest.raises(ConstructionError, match=f"^atom 'x{n_atoms - 1}': target subspace has dimension 1"):
        verify_biorthogonality(FiberedSystem(sa.measure, a), FiberedSystem(sb.measure, b))
    with pytest.raises(ConstructionError, match="^fiber at atom 'x0' is not a Riesz sequence$"):
        verify_biorthogonality(FiberedSystem(sa.measure, a), sb)
    other = MeasureModel(sa.measure.atoms, 2.0 * sa.measure.weights)
    with pytest.raises(ValueError, match="measure models differ"):
        verify_biorthogonality(sa, FiberedSystem(other, sb.matrices))
    with pytest.raises(ValueError, match="fiber dimensions differ"):
        verify_biorthogonality(sa, FiberedSystem(sb.measure, np.pad(sb.matrices, ((0, 0), (0, 1), (0, 0)))))


def test_verify_biorthogonality_of_b_peaks_no_higher_than_its_span_targets():
    """Under tracemalloc, the B form peaks no higher than span(B) written out
    as a Subspace list from one span pass, the list built under tracing: the
    engine's one SVD of B, sliced per block, keeps no masked copy of U or V."""
    sa, sb = _riesz_and_b(1000, 12, 8, 8, seed=79)
    peaks = []
    for run in (lambda: verify_biorthogonality(sa, sb), lambda: verify_biorthogonality(sa, _span_targets(sb))):
        tracemalloc.start()
        try:
            report = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.holds
    assert peaks[0] <= peaks[1]


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
    n_atoms = 2 * _FACTOR_BLOCK + 3
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
