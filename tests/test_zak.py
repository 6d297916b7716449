"""Finite-group Zak transform: exactness, unitarity, intertwining, fiberization."""

import numpy as np
import pytest

from framekit.generate import complex_gaussian
from framekit.mispace import (
    FiberedFunction,
    global_frame_bounds,
    verify_biorthogonality,
)
from framekit.subspace import Subspace
from framekit.zak import (
    FiniteGroupSpec,
    _translates,
    build_plan,
    builtin_plan,
    cyclic_group,
    determining_table,
    dihedral_group,
    explicit_group,
    tg_frame_bounds,
    tg_to_mg,
    verify_intertwine,
    zak_forward,
    zak_inverse,
)
from oracles import modulation_symbol, tg_biorthogonality_deviation, translate

PLANS = ("z4", "z12", "d4")


def delta(n, k):
    f = np.zeros(n, dtype=np.complex128)
    f[k] = 1.0
    return f


def test_cyclic_group_table():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.mul[1, 3] == 0
    assert g.inverse[1] == 3
    assert g.element_order(2) == 2
    assert g.element_order(0) == 1


def test_dihedral_group_relations():
    g = dihedral_group(4)
    assert g.order == 8
    r, s = 1, 4  # rotation r, reflection s
    assert g.element_order(r) == 4
    assert g.element_order(s) == 2
    # s r = r^{-1} s
    assert g.mul[s, r] == g.mul[g.inverse[r], s]
    # Non-abelian: r s != s r.
    assert g.mul[r, s] != g.mul[s, r]


def test_explicit_group_validation():
    explicit_group(cyclic_group(3).mul)  # a valid table round-trips
    with pytest.raises(ValueError):
        explicit_group([[1, 0], [0, 1]])  # 0 is not the identity
    with pytest.raises(ValueError):
        explicit_group([[0, 1], [1, 1]])  # no inverse for element 1
    with pytest.raises(ValueError):
        explicit_group([[0, 1], [1, 2]])  # entry out of range
    # A loop with identity and two-sided inverses that is not associative.
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        explicit_group(loop)


def test_build_plan_z4():
    plan = build_plan(cyclic_group(4), 2)
    assert plan.q == 2 and plan.p == 2
    assert plan.powers == (0, 2)
    assert plan.subgroup == (0, 2)
    assert plan.section == (0, 1)
    assert np.allclose(plan.characters, [[1.0, 1.0], [1.0, -1.0]])
    assert list(plan.coset_of) == [0, 1, 0, 1]


def test_build_plan_z12():
    plan = builtin_plan("z12")
    assert plan.q == 4 and plan.p == 3
    assert plan.powers == (0, 3, 6, 9)
    assert plan.section == (0, 1, 2)


def test_build_plan_d4():
    plan = builtin_plan("d4")
    assert plan.q == 4 and plan.p == 2
    assert plan.subgroup == (0, 1, 2, 3)  # the rotations
    assert plan.section == (0, 4)


def test_build_plan_trivial_subgroup():
    plan = build_plan(cyclic_group(6), 0)
    assert plan.q == 1 and plan.p == 6
    z = zak_forward(plan, np.arange(6.0))
    assert np.allclose(z.values, np.arange(6.0)[None, :])


def test_zak_of_deltas_on_z4():
    plan = builtin_plan("z4")
    z0 = zak_forward(plan, delta(4, 0))
    assert np.allclose(z0.values, [[1.0, 0.0], [1.0, 0.0]])
    z2 = zak_forward(plan, delta(4, 2))
    # delta at the nontrivial subgroup element: sign flips on the second character.
    assert np.allclose(z2.values, [[1.0, 0.0], [-1.0, 0.0]])
    z1 = zak_forward(plan, delta(4, 1))
    assert np.allclose(z1.values, [[0.0, 1.0], [0.0, 1.0]])


def test_zak_unitary_exhaustive_deltas():
    for name in PLANS:
        plan = builtin_plan(name)
        n = plan.group.order
        for g in range(n):
            f = delta(n, g)
            zf = zak_forward(plan, f)
            assert abs(zf.norm() - 1.0) <= 1e-12
            back = zak_inverse(plan, zf)
            assert np.abs(back - f).max() <= 1e-12


def test_zak_unitary_random_signals():
    rng = np.random.default_rng(103)
    for name in PLANS:
        plan = builtin_plan(name)
        n = plan.group.order
        for _ in range(25):
            f = complex_gaussian(rng, n)
            zf = zak_forward(plan, f)
            assert abs(zf.norm() - np.linalg.norm(f)) <= 1e-12 * max(1.0, np.linalg.norm(f))
            assert np.abs(zak_inverse(plan, zf) - f).max() <= 1e-12


def test_translate_examples():
    plan = builtin_plan("z4")
    assert np.allclose(translate(plan, delta(4, 0), 2), delta(4, 2))
    assert np.allclose(translate(plan, delta(4, 1), 2), delta(4, 3))
    with pytest.raises(ValueError):
        translate(plan, delta(4, 0), 1)  # 1 is not in the subgroup {0, 2}


def test_modulation_symbol_z4():
    plan = builtin_plan("z4")
    assert np.allclose(modulation_symbol(plan, 0), [1.0, 1.0])
    assert np.allclose(modulation_symbol(plan, 2), [1.0, -1.0])


def test_intertwine_exhaustive():
    # Z(L_gamma f) equals the symbol-modulated Z f for every delta signal and
    # every subgroup element, on all three built-in plans.
    for name in PLANS:
        plan = builtin_plan(name)
        n = plan.group.order
        for g in range(n):
            assert verify_intertwine(plan, delta(n, g)) <= 1e-12


def test_intertwine_random_signals():
    rng = np.random.default_rng(107)
    for name in PLANS:
        plan = builtin_plan(name)
        n = plan.group.order
        for _ in range(10):
            assert verify_intertwine(plan, complex_gaussian(rng, n)) <= 1e-12


def test_intertwine_matches_per_element_loop():
    # blocked transforms of the gathered translates against one Zak transform
    # per translate, as the identity is stated, on plans of every kind; the
    # last two take 2 and 4 blocks of subgroup elements
    rng = np.random.default_rng(173)
    table, gen = relabelled_product(np.random.default_rng(149), 4, 4)
    plans = [
        builtin_plan("d4"),
        build_plan(dihedral_group(32), 1),
        build_plan(explicit_group(table), gen),
        build_plan(cyclic_group(128), 1),
        build_plan(cyclic_group(256), 2),
    ]
    for plan in plans:
        f = complex_gaussian(rng, plan.group.order)
        zf = zak_forward(plan, f).values
        want = max(
            float(np.abs(zak_forward(plan, translate(plan, f, g)).values - modulation_symbol(plan, g)[:, None] * zf).max())
            for g in plan.powers
        )
        # both are rounding noise of q-term sums of entries of f
        bound = 16 * plan.q * np.finfo(float).eps * np.linalg.norm(f)
        got = verify_intertwine(plan, f)
        assert got <= bound and abs(got - want) <= bound


def test_tg_to_mg_examples():
    plan = builtin_plan("z4")
    s = tg_to_mg(plan, [delta(4, 0)])
    assert s.fiber_dim == 2 and s.count == 1
    assert np.allclose(s.fibers[0].matrix, [[1.0], [0.0]])
    assert np.allclose(s.fibers[1].matrix, [[1.0], [0.0]])

    ones = tg_to_mg(plan, [np.ones(4)])
    assert np.allclose(ones.fibers[0].matrix, [[2.0], [2.0]])
    assert np.allclose(ones.fibers[1].matrix, [[0.0], [0.0]])


def test_tg_frame_bounds_hand_case():
    plan = builtin_plan("z4")
    # Translates of delta_0 under {0, 2} are an orthonormal pair.
    lo, hi, ok = tg_frame_bounds(plan, [delta(4, 0)])
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert ok


def test_tg_vs_fiber_frame_bounds():
    # The group-side frame operator and the per-character Gramians see the
    # same spectrum; bounds must agree to high accuracy.
    rng = np.random.default_rng(109)
    table, gen = relabelled_product(np.random.default_rng(149), 4, 4)
    plans = [builtin_plan(name) for name in PLANS] + [
        build_plan(cyclic_group(64), 4),
        build_plan(dihedral_group(32), 1),
        build_plan(explicit_group(table), gen),
    ]
    for plan in plans:
        n = plan.group.order
        for _ in range(30):
            count = int(rng.integers(1, 4))
            gens = [complex_gaussian(rng, n) for _ in range(count)]
            direct = tg_frame_bounds(plan, gens)
            fibered = global_frame_bounds(tg_to_mg(plan, gens))
            assert abs(direct[0] - fibered[0]) <= 1e-12 * fibered[0]
            assert abs(direct[1] - fibered[1]) <= 1e-12 * fibered[1]
            assert direct[2] == fibered[2]
        zero = [np.zeros(n)]
        assert tg_frame_bounds(plan, zero) == global_frame_bounds(tg_to_mg(plan, zero)) == (1.0, 1.0, True)


def test_determining_table_is_parseval():
    for name in PLANS:
        plan = builtin_plan(name)
        dset = determining_table(plan)  # validation inside is exact Parseval
        assert dset.table.shape == (plan.q, plan.q)
        # Row m is the symbol of the m-th generator power.
        for m, gamma in enumerate(plan.powers):
            assert np.allclose(dset.table[m], modulation_symbol(plan, gamma))


def test_biorthogonality_transfers_to_group_side():
    # Build fiber biorthogonal duals inside the fiber spans, pull them back
    # through the inverse Zak transform, and check translate-biorthogonality
    # directly on the group.
    rng = np.random.default_rng(113)
    plan = builtin_plan("z12")
    r = 2
    gens = [complex_gaussian(rng, 12) for _ in range(r)]
    s = tg_to_mg(plan, gens)
    targets = [Subspace.span_of(f.matrix) for f in s.fibers]
    report = verify_biorthogonality(s, targets)
    assert report.holds
    duals = []
    for i in range(r):
        vals = np.stack([report.dual.fibers[k].matrix[:, i] for k in range(plan.q)])
        duals.append(zak_inverse(plan, FiberedFunction(plan.measure(), vals)))
    assert tg_biorthogonality_deviation(plan, gens, duals) <= 1e-8


def test_tg_biorthogonality_of_orthonormal_translates():
    plan = builtin_plan("z4")
    f = delta(4, 0)
    assert tg_biorthogonality_deviation(plan, [f], [f]) <= 1e-15


def test_signal_validation():
    plan = builtin_plan("z4")
    with pytest.raises(ValueError):
        zak_forward(plan, np.ones(3))
    with pytest.raises(ValueError):
        zak_forward(plan, [np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        zak_inverse(plan, FiberedFunction(plan.measure(), np.zeros((2, 3))))


def test_group_spec_shape_errors():
    with pytest.raises(ValueError):
        FiniteGroupSpec("cyclic", 2, np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        FiniteGroupSpec("weird", 2, cyclic_group(2).mul)
    with pytest.raises(ValueError):
        builtin_plan("z5")
    with pytest.raises(ValueError):
        build_plan(cyclic_group(4), 7)


# ---------------------------------------------------------------------------
# Associativity: Light's test against the brute-force check


def associative(m):
    """Brute force: (a b) c == a (b c) for all a, b, c, one left factor at a time."""
    return all(np.array_equal(m[m[a]], m[a][m]) for a in range(len(m)))


def has_two_sided_inverses(m):
    zeros = [np.flatnonzero(row == 0) for row in m]
    return all(z.size == 1 and m[z[0], g] == 0 for g, z in enumerate(zeros))


def assert_verdict_matches_oracle(m):
    if associative(m):
        explicit_group(m)
    else:
        with pytest.raises(ValueError, match="associative"):
            explicit_group(m)


def reduced_latin_squares(n):
    """Every n x n Latin square on 0..n-1 whose row and column 0 are 0..n-1."""
    sq = np.zeros((n, n), dtype=np.int64)
    sq[0] = sq[:, 0] = np.arange(n)

    def fill(cell):
        if cell == n * n:
            yield sq.copy()
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            yield from fill(cell + 1)
            return
        for v in range(n):
            if v not in sq[i, :j] and v not in sq[:i, j]:
                sq[i, j] = v
                yield from fill(cell + 1)

    yield from fill(0)


def relabelled_product(rng, m, c):
    """D_m x Z_c (order 2mc) with the non-identity elements relabelled by a
    seeded permutation, and the label of the element (r, 1)."""
    dm, cm = dihedral_group(m).mul, cyclic_group(c).mul
    x = np.arange(2 * m * c)
    xd, xc = x // c, x % c
    mul = dm[xd[:, None], xd[None, :]] * c + cm[xc[:, None], xc[None, :]]
    label = np.concatenate([[0], 1 + rng.permutation(len(x) - 1)])
    table = np.empty_like(mul)
    table[label[:, None], label[None, :]] = label[mul]
    return table, int(label[c + 1])


def swap_intercalate(m, rng):
    """m with one 2 x 2 Latin subsquare swapped, away from the identity's
    row, column and entries: still a Latin square with two-sided inverses."""
    n = len(m)
    row_of = np.argsort(m, axis=0)  # row_of[v, j]: the row l with m[l, j] == v
    while True:
        i, j = rng.integers(1, n, size=2)
        k = np.arange(1, n)
        a, b = m[i, j], m[i, k]
        l = row_of[b, j]
        ok = (k != j) & (l != 0) & (m[l, k] == a) & (a != 0) & (b != 0)
        if ok.any():
            k, l = k[ok][0], l[ok][0]
            out = m.copy()
            out[i, j] = out[l, k] = m[i, k]
            out[i, k] = out[l, j] = a
            return out


def test_light_test_matches_brute_force_on_small_latin_squares():
    counts = []
    for n in range(1, 6):
        squares = list(reduced_latin_squares(n))
        counts.append(len(squares))
        for sq in squares:
            if has_two_sided_inverses(sq):
                assert_verdict_matches_oracle(sq)
    assert counts == [1, 1, 1, 4, 56]


def test_light_test_matches_brute_force_on_random_magmas():
    # Tables with an identity and two-sided inverses but no Latin property.
    rng = np.random.default_rng(131)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        m = rng.integers(1, n, size=(n, n))
        m[0] = m[:, 0] = np.arange(n)
        inv = np.arange(n)
        perm = 1 + rng.permutation(n - 1)
        pairs = perm[: 2 * int(rng.integers(0, (n + 1) // 2))].reshape(-1, 2)
        inv[pairs[:, 0]], inv[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        m[np.arange(1, n), inv[1:]] = 0
        assert has_two_sided_inverses(m)
        assert_verdict_matches_oracle(m)


def test_light_test_matches_brute_force_on_groups_and_near_groups():
    rng = np.random.default_rng(137)
    tables = [cyclic_group(n).mul for n in (1, 2, 7, 16, 64)]
    tables += [dihedral_group(n).mul for n in (1, 2, 5, 16, 32)]
    tables += [relabelled_product(rng, m, c)[0] for m, c in ((2, 2), (3, 4), (4, 4), (4, 8))]
    for m in tables:
        assert associative(m)
        assert_verdict_matches_oracle(m)
        if len(m) >= 8:
            near = swap_intercalate(m, rng)
            assert has_two_sided_inverses(near)
            assert_verdict_matches_oracle(near)


# ---------------------------------------------------------------------------
# Group side on the translates matrix


def test_dihedral_table_matches_formula():
    for n in range(1, 17):
        want = np.empty((2 * n, 2 * n), dtype=np.int64)
        for a in range(n):
            for b in range(2):
                for c in range(n):
                    for d in range(2):
                        # (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b + d)
                        want[a + n * b, c + n * d] = (a + (-1) ** b * c) % n + n * ((b + d) % 2)
        assert np.array_equal(dihedral_group(n).mul, want)


def test_translates_columns_are_translates():
    rng = np.random.default_rng(139)
    for plan in (builtin_plan("d4"), build_plan(cyclic_group(12), 2)):
        n = plan.group.order
        gens = [complex_gaussian(rng, n) for _ in range(3)]
        t = _translates(plan, gens)
        assert t.shape == (n, 3 * plan.q)
        for j, f in enumerate(gens):
            for m, gamma in enumerate(plan.powers):
                assert np.array_equal(t[:, m * 3 + j], translate(plan, f, gamma))


def test_build_plan_cosets_match_loop():
    # Reference: walk the elements, labelling each new right coset; integers, so equal exactly.
    rng = np.random.default_rng(163)
    table, gen = relabelled_product(rng, 3, 4)
    for group, g0 in ((cyclic_group(30), 6), (dihedral_group(9), 3), (dihedral_group(8), 9),
                      (explicit_group(table), gen)):
        plan = build_plan(group, g0)
        coset_of, section = np.full(group.order, -1), []
        for x in range(group.order):
            if coset_of[x] < 0:
                coset_of[group.mul[list(plan.powers), x]] = len(section)
                section.append(x)
        assert plan.section == tuple(section)
        assert np.array_equal(plan.coset_of, coset_of)


def test_tg_biorthogonality_deviation_matches_loop():
    rng = np.random.default_rng(167)
    plan = build_plan(dihedral_group(6), 2)
    n = plan.group.order
    gens = [complex_gaussian(rng, n) for _ in range(2)]
    duals = [complex_gaussian(rng, n) for _ in range(2)]
    want = 0.0
    for i, g in enumerate(gens):
        for j, h in enumerate(duals):
            for a, gamma in enumerate(plan.powers):
                for b, eta in enumerate(plan.powers):
                    val = np.vdot(translate(plan, h, eta), translate(plan, g, gamma))
                    want = max(want, abs(val - float(i == j and a == b)))
    # Both sum n products in different orders; each inner product is off by at
    # most n eps |g| |h| (translates keep the norm).
    bound = 2 * n * np.finfo(float).eps * max(map(np.linalg.norm, gens)) * max(map(np.linalg.norm, duals))
    assert abs(tg_biorthogonality_deviation(plan, gens, duals) - want) <= bound


def test_tg_frame_bounds_make_one_svd_and_no_eigensolve(monkeypatch):
    plan = build_plan(dihedral_group(32), 1)
    gens = [complex_gaussian(np.random.default_rng(157), plan.group.order) for _ in range(2)]
    calls = {"svd": 0, "eigvalsh": 0}

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    tg_frame_bounds(plan, gens)
    assert calls == {"svd": 1, "eigvalsh": 0}


def test_tg_validation():
    plan = builtin_plan("z4")
    with pytest.raises(ValueError, match="at least one generator"):
        tg_frame_bounds(plan, [])
    with pytest.raises(ValueError, match="counts differ"):
        tg_biorthogonality_deviation(plan, [delta(4, 0)], [delta(4, 0), delta(4, 1)])
    with pytest.raises(ValueError):
        tg_frame_bounds(plan, [np.ones(3)])
