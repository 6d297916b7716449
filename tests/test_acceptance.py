"""Acceptance gate: eight property suites, one verdict line each.

Every suite prints a single [PASS]/[FAIL] line on the real stdout so the
verdicts survive pytest's capture, then asserts.  All randomness is seeded;
reruns are bit-for-bit repeatable.
"""

import json
import subprocess
import sys
import time
from itertools import combinations

import numpy as np

from framekit.fiberframe import (
    FiberSystem,
    biorth_riesz_dual,
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
    random_fiber_system,
    random_fibered_system,
    rotated_span_pair,
    well_conditioned_coefficients,
)
from framekit.mispace import (
    FiberedFunction,
    FiberedSystem,
    apply_mixed_frame_operator,
    delta_determining_set,
    fourier_determining_set,
    global_frame_bounds,
    reconstruct,
    verify_duality,
    weighted_inner,
)
from framekit.subspace import Subspace, inf_cos, sup_cos
from framekit.zak import (
    builtin_plan,
    tg_frame_bounds,
    tg_to_mg,
    verify_intertwine,
    zak_forward,
    zak_inverse,
)
from oracles import (
    biorth_riesz_dual_via_projection,
    biorthogonality_deviation,
    global_pairing,
    pinv,
)

PLAN_NAMES = ("z4", "z12", "d4")

# one line per criterion; the conftest terminal-summary hook prints these
# after the run so they survive pytest's fd-level capture
VERDICTS: list = []


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}{tail}"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_equivalence_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_resid = 0.0
    all_true = True
    for _ in range(500):
        n_atoms = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, 5))
        inst = duality_instance(
            "in-duality", n_atoms, dim, count, seed=int(rng.integers(2**31)), delta=0.1
        )
        rep = verify_duality(inst.sa, inst.sb)
        all_true = all_true and rep.all_hold and rep.witness_status == "verified"

        dual = FiberedSystem(
            inst.sa.measure,
            tuple(dualise(fa, fb) for fa, fb in zip(inst.sa.fibers, inst.sb.fibers)),
        )
        _, res_fwd = reconstruct(inst.sa, dual, inst.probe)
        g_vals = np.stack(
            [
                fb.matrix
                @ (
                    rng.standard_normal(fb.count) + 1j * rng.standard_normal(fb.count)
                )
                for fb in inst.sb.fibers
            ]
        )
        g = FiberedFunction(inst.sa.measure, g_vals)
        ghat = apply_mixed_frame_operator(dual, inst.sa, g)
        res_bwd = FiberedFunction(g.measure, ghat.values - g.values).norm() / max(
            g.norm(), 1e-300
        )
        worst_resid = max(worst_resid, res_fwd, res_bwd)

    all_false = True
    for _ in range(200):
        n_atoms = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, 5))
        inst = duality_instance(
            "orthogonal-failure", n_atoms, dim, count, seed=int(rng.integers(2**31))
        )
        rep = verify_duality(inst.sa, inst.sb)
        all_false = all_false and not (
            rep.global_duals_exist
            or rep.global_angles_positive
            or rep.fiber_duals_exist
            or rep.fiber_angles_positive
            or rep.all_hold
        )
    elapsed = time.perf_counter() - t0
    ok = all_true and all_false and worst_resid <= 1e-8 and elapsed < 30.0
    _verdict(
        1,
        "equivalence suite, 500 in-duality all-true + 200 orthogonal all-false",
        ok,
        f"max probe residual {worst_resid:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_dual_construction_suite():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    accepted = 0
    attempts = 0
    worst = 0.0
    both_ok = True
    while accepted < 1000:
        attempts += 1
        assert attempts < 20000, "rejection sampling runaway"
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(dim, 4) + 1))
        count = int(rng.integers(k, 5))
        a, b, _ = fiber_pair(rng, dim, count, k, rng.uniform(0.2, 1.0, k))
        gm = mixed_gramian(a, b)
        if not rank_condition(a, b):
            continue
        if np.linalg.norm(pinv(gm), 2) > 1e6:
            continue
        accepted += 1
        h = dualise(a, b)
        ga = gramian(a).gram
        gh = gramian(h).gram
        worst = max(
            worst,
            float(np.linalg.norm(ga @ mixed_gramian(a, h) - ga)),
            float(np.linalg.norm(gh @ mixed_gramian(h, a) - gh)),
        )
        both_ok = both_ok and is_alternate_dual(a, h) and is_alternate_dual(h, a)
    elapsed = time.perf_counter() - t0
    ok = both_ok and worst <= 1e-8 and elapsed < 10.0
    _verdict(
        2,
        "pseudo-inverse duals pass the alternate-dual test both ways, 1000 pairs",
        ok,
        f"max Frobenius residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_parsevalization():
    rng = np.random.default_rng(303)
    worst_idem = worst_span = worst_norm = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(1, dim + 1))
        zeros = int(rng.integers(0, 3))
        sysa = random_fiber_system(rng, dim, k + zeros, zero_cols=zeros)
        p = parsevalize(sysa)

        g = gramian(p).gram
        worst_idem = max(worst_idem, float(np.linalg.norm(g @ g - g)))

        va = Subspace.span_of(sysa.matrix)
        vp = Subspace.span_of(p.matrix)
        assert va.dim == vp.dim
        # spectral norm of the projection defect is the sine of the largest
        # principal angle, accurate where the cosine saturates at 1
        sin_ab = np.linalg.norm(vp.basis - va.basis @ (va.basis.conj().T @ vp.basis), 2)
        sin_ba = np.linalg.norm(va.basis - vp.basis @ (vp.basis.conj().T @ va.basis), 2)
        worst_span = max(worst_span, float(sin_ab), float(sin_ba))

        norms = np.linalg.norm(p.matrix, axis=0)
        worst_norm = max(worst_norm, float(np.abs(norms * (norms - 1.0)).max()))
    ok = worst_idem <= 1e-8 and worst_span <= 1e-8 and worst_norm <= 1e-8
    _verdict(
        3,
        "parsevalization: idempotent Gramian, span kept, norms in {0,1}",
        ok,
        f"idem {worst_idem:.2e}, span {worst_span:.2e}, norm {worst_norm:.2e}",
    )


def _coordinate_subspace(dim: int, idx: tuple) -> Subspace:
    m = np.zeros((dim, len(idx)), dtype=np.complex128)
    for j, i in enumerate(idx):
        m[i, j] = 1.0
    return Subspace(m)


def test_criterion_4_angle_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 13))
        kv = int(rng.integers(0, dim + 1))
        kw = int(rng.integers(0, dim + 1))
        v = Subspace.span_of(complex_gaussian(rng, dim, kv))
        w = Subspace.span_of(complex_gaussian(rng, dim, kw))
        from framekit.subspace import ortho_complement

        s = sup_cos(v, ortho_complement(w))
        lhs = inf_cos(v, w)
        rhs = float(np.sqrt(max(0.0, 1.0 - s * s)))
        worst = max(worst, abs(lhs - rhs))

    exact = True
    dim = 4
    all_subs = []
    for k in range(dim + 1):
        for idx in combinations(range(dim), k):
            all_subs.append((frozenset(idx), _coordinate_subspace(dim, idx)))
    for ia, va in all_subs:
        for ib, vb in all_subs:
            r_oracle = 1.0 if (not ia or ia <= ib) else 0.0
            s_oracle = 0.0 if (not ia or not ib) else (1.0 if ia & ib else 0.0)
            exact = exact and inf_cos(va, vb) == r_oracle and sup_cos(va, vb) == s_oracle
    ok = worst <= 1e-8 and exact
    _verdict(
        4,
        "angle identity on 1000 random pairs + exact coordinate subspaces",
        ok,
        f"max identity gap {worst:.2e}, exhaustive exact: {exact}",
    )


def test_criterion_5_biorthogonality():
    rng = np.random.default_rng(505)
    worst_dev = worst_gap = 0.0
    for _ in range(300):
        dim = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(dim, 4) + 1))
        v, w, _ = rotated_span_pair(rng, dim, r, rng.uniform(0.3, 1.0, r))
        a = FiberSystem(v @ well_conditioned_coefficients(rng, r, r))
        target = Subspace(w)
        via_solve = biorth_riesz_dual(a, target)
        via_projection = biorth_riesz_dual_via_projection(a, target)
        worst_dev = max(
            worst_dev,
            biorthogonality_deviation(a, via_solve),
            biorthogonality_deviation(a, via_projection),
        )
        worst_gap = max(
            worst_gap,
            float(np.linalg.norm(via_solve.matrix - via_projection.matrix)),
        )
    ok = worst_dev <= 1e-8 and worst_gap <= 1e-7
    _verdict(
        5,
        "biorthogonal duals on 300 Riesz instances, two routes agree",
        ok,
        f"max delta deviation {worst_dev:.2e}, route gap {worst_gap:.2e}",
    )


def test_criterion_6_zak_suite():
    t0 = time.perf_counter()
    worst_exact = 0.0
    for name in PLAN_NAMES:
        plan = builtin_plan(name)
        n = plan.group.order
        for pos in range(n):
            f = np.zeros(n, dtype=np.complex128)
            f[pos] = 1.0
            zf = zak_forward(plan, f)
            worst_exact = max(worst_exact, abs(zf.norm() - 1.0))
            worst_exact = max(
                worst_exact, float(np.abs(zak_inverse(plan, zf) - f).max())
            )
            worst_exact = max(worst_exact, verify_intertwine(plan, f))

    rng = np.random.default_rng(606)
    worst_bounds = 0.0
    for name in PLAN_NAMES:
        plan = builtin_plan(name)
        n = plan.group.order
        for _ in range(100):
            m = int(rng.integers(1, 4))
            gens = [
                rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(m)
            ]
            direct = tg_frame_bounds(plan, gens)
            fibered = global_frame_bounds(tg_to_mg(plan, gens))
            worst_bounds = max(
                worst_bounds,
                abs(direct[0] - fibered[0]),
                abs(direct[1] - fibered[1]),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-12 and worst_bounds <= 1e-9 and elapsed < 10.0
    _verdict(
        6,
        "Zak unitarity/intertwining exhaustive + frame-bound transfer",
        ok,
        f"exact {worst_exact:.2e}, bounds {worst_bounds:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_fiberization_consistency():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(500):
        n_atoms = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 6))
        sa = random_fibered_system(rng, n_atoms, dim, int(rng.integers(1, 5)))
        rb = int(rng.integers(1, 5))
        sb = FiberedSystem(
            sa.measure,
            tuple(FiberSystem(complex_gaussian(rng, dim, rb)) for _ in range(n_atoms)),
        )
        f = FiberedFunction(sa.measure, complex_gaussian(rng, n_atoms, dim))
        g = FiberedFunction(sa.measure, complex_gaussian(rng, n_atoms, dim))
        dset = (
            delta_determining_set(sa.measure)
            if trial % 2 == 0
            else fourier_determining_set(sa.measure)
        )
        direct = weighted_inner(apply_mixed_frame_operator(sa, sb, f), g)
        modulated = global_pairing(sa, sb, f, g, dset)
        worst = max(worst, abs(direct - modulated))
    ok = worst <= 1e-10
    _verdict(
        7,
        "global vs fiberwise pairing on 500 random triples",
        ok,
        f"max gap {worst:.2e}",
    )


def _run_cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "framekit", *args], capture_output=True, text=True
    )


def test_criterion_8_cli_determinism(tmp_path):
    pair = tmp_path / "pair.json"
    gens = []
    for run in range(2):
        out = tmp_path / f"gen{run}.json"
        proc = _run_cli(
            "gen", "--family", "in-duality", "--atoms", "4", "--dim", "5",
            "--gens", "3", "--seed", "99", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        gens.append(out.read_bytes())
    pair.write_bytes(gens[0])

    reports = [
        _run_cli("verify-thm1", "--in", str(pair), "--seed", "17").stdout
        for _ in range(2)
    ]
    zaks = [
        _run_cli("zak-demo", "--group", "d4", "--signal", "random", "--seed", "8").stdout
        for _ in range(2)
    ]
    ok = (
        gens[0] == gens[1]
        and reports[0] == reports[1]
        and len(reports[0]) > 0
        and zaks[0] == zaks[1]
        and json.loads(reports[0])["result"]["all_hold"] is True
    )
    _verdict(
        8,
        "byte-identical CLI reports under fixed seeds",
        ok,
        f"report bytes {len(reports[0])}",
    )
