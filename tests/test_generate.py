"""The stacked instance generator.

The per-atom functions must draw exactly what the one-atom reference draws
of tests/oracles.py draw, bit for bit and with the generator left in the same
state.  duality_instance draws whole blocks of atoms at once, so its instances
are checked for the properties each family plants instead.
"""

import re

import numpy as np
import pytest

import oracles
from framekit import generate
from framekit.generate import (
    FAMILIES,
    _GEN_BLOCK,
    duality_instance,
    fiber_pair,
    random_unitary,
    rotated_span_pair,
    well_conditioned_coefficients,
)

# (d, k, r): k = 1, k = d, d < 2k, d > 2k, r = k and r > k
ONE_ATOM_SHAPES = [(1, 1, 1), (2, 1, 3), (3, 2, 2), (4, 4, 5), (5, 2, 4), (6, 3, 3), (8, 5, 6), (12, 4, 12)]


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x.view(np.uint8), y.view(np.uint8))


@pytest.mark.parametrize("d,k,r", ONE_ATOM_SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_one_atom_draws_match_the_per_atom_reference(d, k, r, seed):
    cosines = np.random.default_rng(1000 + seed).uniform(0.0, 1.0, k)
    calls = [
        (random_unitary, oracles.random_unitary, (d,)),
        (well_conditioned_coefficients, oracles.well_conditioned_coefficients, (k, r)),
        (rotated_span_pair, oracles.rotated_span_pair, (d, k, cosines)),
        (fiber_pair, oracles.fiber_pair, (d, r, k, cosines)),
    ]
    for new, ref, args in calls:
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = new(rng_new, *args), ref(rng_ref, *args)
        got = got if isinstance(got, tuple) else (got,)
        want = want if isinstance(want, tuple) else (want,)
        for g, w in zip(got, want, strict=True):
            g, w = getattr(g, "matrix", g), getattr(w, "matrix", w)
            assert _same_bits(np.asarray(g), np.asarray(w)), new.__name__
        # the same number of draws: the generators stay in step
        assert rng_new.integers(1 << 62) == rng_ref.integers(1 << 62), new.__name__


def test_one_atom_validation_is_unchanged():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="need 1 <= k <= d"):
        rotated_span_pair(rng, 3, 4, np.ones(4))
    with pytest.raises(ValueError, match="need 2 cosines"):
        fiber_pair(rng, 3, 2, 2, np.ones(3))
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        rotated_span_pair(rng, 3, 2, [0.5, 1.5])
    with pytest.raises(ValueError, match="need k <= r"):
        well_conditioned_coefficients(rng, 3, 2)
    with pytest.raises(ValueError, match="need k <= r"):
        fiber_pair(rng, 4, 2, 3, np.ones(3))


def _span_bases(m):
    """Orthonormal bases of the column spans of an (atoms, d, r) stack, one
    d x dim matrix per atom, and the singular values on each span."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    dims = (s > 1e-10 * s[:, :1]).sum(axis=1)
    return [u[i, :, :k] for i, k in enumerate(dims)], [s[i, :k] for i, k in enumerate(dims)]


def _min_cosines(inst):
    ba, _ = _span_bases(inst.sa.matrices)
    bb, _ = _span_bases(inst.sb.matrices)
    return np.array([np.linalg.svd(a.conj().T @ b, compute_uv=False).min() for a, b in zip(ba, bb)])


def _check_planted(inst, family, n_atoms, dim, count, seed, delta, eps):
    kmax = min(dim, count)
    assert inst.sa.matrices.shape == inst.sb.matrices.shape == (n_atoms, dim, count)
    assert inst.probe.values.shape == (n_atoms, dim)
    for system in (inst.sa, inst.sb):
        bases, sv = _span_bases(system.matrices)
        dims = np.array([b.shape[1] for b in bases])
        assert dims.min() >= 1 and dims.max() <= kmax
        assert max(s[0] / s[-1] for s in sv) <= generate.MAX_COND * (1 + 1e-12)
    bases, _ = _span_bases(inst.sa.matrices)
    for basis, f in zip(bases, inst.probe.values):
        assert np.linalg.norm(f - basis @ (basis.conj().T @ f)) <= 1e-12 * max(1.0, np.linalg.norm(f))

    meta = inst.meta
    assert meta == {
        "family": family, "seed": seed, "n_atoms": n_atoms, "dim": dim, "count": count,
        "delta": delta, "eps": eps, "special_atom": meta["special_atom"], "min_cosine": meta["min_cosine"],
    }
    cos = _min_cosines(inst)
    atoms = inst.sa.measure.atoms
    if family == "in-duality":
        assert meta["special_atom"] is None
        assert cos.min() >= delta - 1e-12
        assert delta <= meta["min_cosine"] <= 1.0
        return
    special = atoms.index(meta["special_atom"])
    if family == "orthogonal-failure":
        assert [atoms[i] for i in np.flatnonzero(cos < delta - 1e-12)] == [meta["special_atom"]]
        assert cos[special] <= 1e-12 and meta["min_cosine"] == 0.0
    else:
        assert meta["min_cosine"] == eps
        assert int(np.argmin(cos)) == special
        assert abs(cos[special] - eps) <= 1e-8 * eps
        assert np.delete(cos, special).min() >= delta - 1e-12


# (dim, count): spans of dimension 1 only, d < 2k possible, count < dim, count > dim
SHAPES = [(4, 1), (3, 3), (5, 2), (3, 5), (6, 4)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim,count", SHAPES)
def test_duality_instance_plants_its_angles(family, dim, count):
    for seed in (1, 2, 3):
        inst = duality_instance(family, 7, dim, count, seed=seed, eps=1e-6)
        _check_planted(inst, family, 7, dim, count, seed, 0.1, 1e-6)


@pytest.mark.parametrize("family", FAMILIES)
def test_duality_instance_across_a_block_edge(family):
    n_atoms = _GEN_BLOCK + 5
    inst = duality_instance(family, n_atoms, 4, 3, seed=5, delta=0.2, eps=1e-5)
    _check_planted(inst, family, n_atoms, 4, 3, 5, 0.2, 1e-5)


@pytest.mark.parametrize("family", FAMILIES)
def test_duality_instance_special_atom_in_any_block(family, monkeypatch):
    # blocks of 4 atoms put the special atom in the first, a middle or the last, short block
    monkeypatch.setattr(generate, "_GEN_BLOCK", 4)
    blocks = set()
    for seed in range(12):
        inst = duality_instance(family, 11, 5, 3, seed=seed, eps=1e-6)
        _check_planted(inst, family, 11, 5, 3, seed, 0.1, 1e-6)
        if inst.meta["special_atom"] is not None:
            blocks.add(int(inst.meta["special_atom"][1:]) // 4)
    assert family == "in-duality" or blocks == {0, 1, 2}


@pytest.mark.parametrize("family", FAMILIES)
def test_duality_instance_repeats_its_bits(family):
    one, two = (duality_instance(family, _GEN_BLOCK + 5, 5, 3, seed=9) for _ in range(2))
    for x, y in ((one.sa.matrices, two.sa.matrices), (one.sb.matrices, two.sb.matrices),
                 (one.probe.values, two.probe.values), (one.sa.measure.weights, two.sa.measure.weights)):
        assert _same_bits(x, y)
    assert one.meta == two.meta
    assert not _same_bits(one.sa.matrices, duality_instance(family, _GEN_BLOCK + 5, 5, 3, seed=10).sa.matrices)


def test_exhausted_draws_name_the_first_atom_that_ran_out(monkeypatch):
    # at MAX_COND = 1 only 1 x r blocks pass, so every atom with k >= 2 runs out
    monkeypatch.setattr(generate, "MAX_COND", 1.0)
    monkeypatch.setattr(generate, "MAX_COEFFICIENT_DRAWS", 3)
    rng = np.random.default_rng(0)
    for ks, named in (([1, 3, 2], 3), ([1, 1, 2, 3], 2), ([2], 2)):
        with pytest.raises(ValueError) as err:
            generate._fiber_pairs(rng, 4, 3, np.array(ks), np.full((len(ks), 3), 0.5))
        assert str(err.value) == f"no {named} x 3 coefficient block with condition number <= 1 in 3 draws"
    a, b, cos = generate._fiber_pairs(rng, 4, 3, np.array([1, 1]), np.full((2, 3), 0.5))
    assert a.shape == b.shape == (2, 4, 3) and cos.shape == (2, 1)



@pytest.mark.parametrize("out_a,out_b,named", [
    ([1, 3], [], 2),   # A runs out first; B is drawn only for atom 0
    ([3], [0, 2], 1),  # B of an earlier atom runs out
    ([], [4], 5),
])
def test_the_first_atom_in_order_names_the_error(out_a, out_b, named, monkeypatch):
    ks = np.array([1, 2, 3, 4, 5])
    drawn, outcomes = [], iter((out_a, out_b))

    def draws(rng, k, r):
        drawn.append(k.tolist())
        return np.zeros((len(k), k.max(), r)), np.array(next(outcomes), dtype=int)

    monkeypatch.setattr(generate, "_coefficient_blocks", draws)
    with pytest.raises(ValueError, match=f"^no {named} x 5 coefficient block"):
        generate._fiber_pairs(np.random.default_rng(0), 6, 5, ks, np.full((5, 5), 0.5))
    assert drawn == [ks.tolist(), ks[: out_a[0] if out_a else 5].tolist()]

def test_capped_draws_keep_the_message():
    # square 40-odd x 48 blocks never pass the condition test
    with pytest.raises(ValueError) as err:
        duality_instance("in-duality", 20, 48, 48, seed=1)
    assert re.fullmatch(
        r"no \d+ x 48 coefficient block with condition number <= 20 in 1000 draws", str(err.value)
    )
