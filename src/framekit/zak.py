"""Exact Zak transform on a finite group, fiberized over the right cosets of
a cyclic subgroup, normal or not.

Signals live on a finite group G of order N, written multiplicatively through
an explicit table.  Fixing a cyclic subgroup S = <g0> of order q, the Zak
transform sends a signal f to a function on q characters, with one value per
right coset of S:

    (Zf)(alpha)(Sx) = sum over gamma in S of f(gamma . rep(Sx)) alpha(gamma^{-1})

where rep picks the lexicographically least element of each coset; per coset
it is a DFT (np.fft.fft) along the powers g0^m of the generator.  With the
character atoms weighted 1/q this map is unitary onto the fibered function
space of dimension p = N/q per atom, it intertwines translation by gamma with
multiplication by the scalar function alpha -> conj(alpha(gamma)), and it
turns a translation-generated system into a fibered (multiplication-style)
system whose per-character fibers carry all frame information.

Group specs are parsed here only, by plan_from_spec, which caps the order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mispace import FiberedFunction, FiberedSystem, MeasureModel, global_frame_bounds


# Translated values per block in verify_intertwine (block size times group
# order): keeps each gathered block and its transform at 128 KB, where
# transforming all q translates at once held two q x order arrays (16 MB each
# at order 1024) and raised the zak benchmark's peak RSS by 0.5 MB.
_INTERTWINE_BLOCK = 1 << 13


@dataclass(frozen=True, eq=False)
class FiniteGroupSpec:
    """A finite group as an explicit multiplication table.

    Elements are the indices 0..order-1 with 0 the identity.  The table is
    validated on construction: identity row and column, a two-sided inverse
    for every element, and associativity by Light's test over a greedy
    generating set (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1961, sec. 1.2), O(order^2) time and memory per generator; the
    generating set is found by pointer doubling (_generating_set).  Built-in
    tables pass the same checks.  The tables are read-only, and specs
    compare and hash by identity.
    """

    kind: str
    order: int
    mul: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.kind not in ("cyclic", "dihedral", "explicit"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        n = int(self.order)
        if n < 1:
            raise ValueError("group order must be at least 1")
        m = np.asarray(self.mul, dtype=np.int64)
        if m.shape != (n, n):
            raise ValueError(f"multiplication table must be {n}x{n}, got {m.shape}")
        if m.min() < 0 or m.max() >= n:
            raise ValueError("table entries must be element indices")
        if not (np.array_equal(m[0], np.arange(n)) and np.array_equal(m[:, 0], np.arange(n))):
            raise ValueError("element 0 must be a two-sided identity")
        zeros = m == 0
        inv = zeros.argmax(axis=1)
        bad = np.flatnonzero((zeros.sum(axis=1) != 1) | (m[inv, np.arange(n)] != 0))
        if bad.size:
            raise ValueError(f"element {bad[0]} has no two-sided inverse")
        # Light's test: (x s) y == x (s y) for all x, y and each generator s
        if not all(np.array_equal(np.take(m, m[:, s], axis=0), np.take(m, m[s], axis=1)) for s in _generating_set(m)):
            raise ValueError("multiplication table is not associative")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "mul", m)
        object.__setattr__(self, "inverse", inv)
        m.flags.writeable = False
        inv.flags.writeable = False


def _generating_set(m: np.ndarray) -> list[int]:
    """Greedy generators of the table: the least element not yet reached,
    then the reached set closed under right multiplication by the generators
    so far.  Each generator s closes the set by pointer doubling: with the
    map x -> x s as the index array perm, a step adds the set's image under
    perm and squares perm, so after k steps the set holds R s^j for all
    j < 2^k, and a step that adds nothing leaves it closed under s.  The
    generators take turns until none adds anything, about log2(order)
    whole-array steps each; the argument needs no inverses, so it holds for
    any table.  Every reached element is a product of generators, and a
    group needs at most log2(order) of them."""
    reached = np.arange(m.shape[0]) == 0
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        grew = True
        while grew:
            grew = False
            for s in gens:
                perm = m[:, s]
                while not reached[image := perm[reached]].all():
                    reached[image] = True
                    perm = perm[perm]
                    grew = True
    return gens


def cyclic_group(n: int) -> FiniteGroupSpec:
    """The cyclic group Z_n with addition mod n: i + j, less n where the sum
    reaches n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    idx = np.arange(n)
    m = idx[:, None] + idx[None, :]
    np.subtract(m, n, out=m, where=m >= n)
    return FiniteGroupSpec("cyclic", n, m)


def dihedral_group(n: int) -> FiniteGroupSpec:
    """The dihedral group of order 2n; index a + n*b encodes r^a s^b.  The
    rotation part a +- c is brought into [0, n) by one add or subtract of n."""
    if n < 1:
        raise ValueError("rotation order must be at least 1")
    a = np.tile(np.arange(n), 2)
    # (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b + d)
    m = a[:, None] + np.repeat([1, -1], n)[:, None] * a[None, :]
    np.subtract(m, n, out=m, where=m >= n)
    np.add(m, n, out=m, where=m < 0)
    # s^(b + d) is s where exactly one of b, d is 1
    m[:n, n:] += n
    m[n:, :n] += n
    return FiniteGroupSpec("dihedral", 2 * n, m)


def explicit_group(mul) -> FiniteGroupSpec:
    m = np.asarray(mul, dtype=np.int64)
    return FiniteGroupSpec("explicit", m.shape[0] if m.ndim == 2 else 0, m)


def as_signal(group: FiniteGroupSpec, values) -> np.ndarray:
    f = np.asarray(values, dtype=np.complex128).reshape(-1)
    if f.shape != (group.order,):
        raise ValueError(f"signal must have length {group.order}, got {f.shape[0]}")
    if not np.all(np.isfinite(f)):
        raise ValueError("signal contains non-finite entries")
    return f


@dataclass(frozen=True, eq=False)
class ZakPlan:
    """Everything the transform needs for one (group, cyclic subgroup) choice.

    powers lists the subgroup as consecutive powers of the generator,
    subgroup is the same set sorted by element index, section holds the
    lexicographically least representative of each right coset in ascending
    order, cells[m, c] is the element (g0^m) . section[c], the (q, p) gather
    table of every transform, and measure holds the q character atoms
    alpha0..alpha{q-1}, weight 1/q each.  The arrays are read-only, and
    plans compare and hash by identity.
    """

    group: FiniteGroupSpec
    generator: int
    powers: tuple[int, ...]
    subgroup: tuple[int, ...]
    section: tuple[int, ...]
    cells: np.ndarray
    measure: MeasureModel

    @property
    def q(self) -> int:
        return len(self.powers)

    @property
    def p(self) -> int:
        return len(self.section)


def build_plan(group: FiniteGroupSpec, subgroup_generator: int) -> ZakPlan:
    g0 = int(subgroup_generator)
    if not 0 <= g0 < group.order:
        raise ValueError(f"generator {g0} out of range for order {group.order}")
    powers = [0]
    cur = g0
    while cur != 0:
        powers.append(cur)
        cur = int(group.mul[cur, g0])
    # column x of the subgroup's rows is the right coset S x, represented by
    # its least element
    reps = group.mul[powers].min(axis=0)
    section = np.unique(reps)
    q = len(powers)
    cells = group.mul[np.asarray(powers)[:, None], section[None, :]]
    cells.flags.writeable = False
    return ZakPlan(
        group=group,
        generator=g0,
        powers=tuple(powers),
        subgroup=tuple(sorted(powers)),
        section=tuple(section.tolist()),
        cells=cells,
        measure=MeasureModel(tuple(f"alpha{k}" for k in range(q)), np.full(q, 1.0 / q)),
    )


def _modulation(q: int, m) -> np.ndarray:
    """exp(-2 pi i k m / q) at the characters k = 0..q-1 (rows) and the powers
    m (columns): the symbols alpha -> conj(alpha(g0^m)) of the translations,
    gathered from the q roots exp(-2 pi i j / q) at j = k m mod q."""
    roots = np.exp(-2j * np.pi * np.arange(q) / q)
    return roots[np.arange(q)[:, None] * np.asarray(m)[None, :] % q]


def zak_forward(plan: ZakPlan, signal) -> FiberedFunction:
    """Zak transform: a signal on the group becomes a fibered function on the
    character atoms (weight 1/q each, fiber dimension p).  Unitary: the
    weighted norm of the output equals the plain norm of the input."""
    f = as_signal(plan.group, signal)
    return FiberedFunction(plan.measure, np.fft.fft(f[plan.cells], axis=0))


def zak_inverse(plan: ZakPlan, zf: FiberedFunction) -> np.ndarray:
    """Inverse transform: an inverse DFT over the characters per coset."""
    if zf.values.shape != (plan.q, plan.p):
        raise ValueError(
            f"fibered function has shape {zf.values.shape}, expected {(plan.q, plan.p)}"
        )
    f = np.empty(plan.group.order, dtype=np.complex128)
    f[plan.cells] = np.fft.ifft(zf.values, axis=0)
    return f


def _translates(plan: ZakPlan, signals) -> np.ndarray:
    """The translates matrix, C-contiguous of shape (order, q*J): column
    m*J + j is L_gamma f_j for the j-th signal and gamma = g0^m."""
    g = plan.group
    f = np.array([as_signal(g, s) for s in signals], dtype=np.complex128).reshape(-1, g.order)
    t = f.T[g.mul[g.inverse[list(plan.powers)]].T]  # t[x, m, j] = f_j(gamma_m^{-1} x)
    return t.reshape(g.order, plan.q * len(f))


def verify_intertwine(plan: ZakPlan, signal) -> float:
    """Max absolute deviation between Z(L_gamma f) and the modulated Z f over
    every subgroup element gamma.  The translates are gathered straight into
    the Zak layout, a block of subgroup elements at a time, and each block is
    transformed by one FFT along the powers axis."""
    g = plan.group
    f = as_signal(g, signal)
    zf = zak_forward(plan, f).values
    inverses = g.inverse[list(plan.powers)]
    step = max(1, _INTERTWINE_BLOCK // g.order)
    worst = 0.0
    for lo in range(0, plan.q, step):
        m = np.arange(lo, min(lo + step, plan.q))
        # t[j, i, c] = (L_gamma f)(g0^j rep_c) for gamma = g0^m[i]
        t = f[g.mul[inverses[None, m, None], plan.cells[:, None, :]]]
        z = np.fft.fft(t, axis=0)
        z -= _modulation(plan.q, m)[:, :, None] * zf[:, None, :]
        worst = max(worst, float(np.abs(z).max()))
    return worst


def tg_to_mg(plan: ZakPlan, generators) -> FiberedSystem:
    """Fiberize a translation-generated system: generator signals become, at
    each character atom, the fiber system of their Zak images, all J
    generators transformed in one FFT over a (q, p, J) gather."""
    f = np.array([as_signal(plan.group, g) for g in generators], dtype=np.complex128)
    if not len(f):
        raise ValueError("need at least one generator signal")
    return FiberedSystem(plan.measure, np.fft.fft(f.T[plan.cells], axis=0))


def tg_frame_bounds(plan: ZakPlan, generators) -> tuple[float, float, bool]:
    """Frame bounds of the translation-generated system, computed directly on
    the group side (no Zak transform): its frame operator is T T^H for the
    translates matrix T, whose nonzero eigenvalues are the squared singular
    values of T, so the bounds are those of T as a one-atom fibered system:
    the extreme s^2 on the span support, and the scale-free frame test
    lower > eq_tol * upper."""
    t = _translates(plan, generators)
    if not t.size:
        raise ValueError("need at least one generator signal")
    return global_frame_bounds(FiberedSystem(MeasureModel(("G",), np.ones(1)), t[None]))


# Largest group order a spec may name: a group is a dense order x order table
# (O(order^2) memory), and zak-demo factors the order x q translates matrix
# for the group-side frame bounds, O(order^3) time at q = order.
MAX_GROUP_ORDER = 1024

# name -> (group constructor, its argument, default subgroup generator)
BUILTIN_PLANS = {"z4": (cyclic_group, 4, 2), "z12": (cyclic_group, 12, 3), "d4": (dihedral_group, 4, 1)}


def plan_from_spec(spec: str, generator: int | None = None) -> ZakPlan:
    """The plan a group spec names, case and outer blanks ignored: a built-in
    name (BUILTIN_PLANS), with its default subgroup generator unless one is
    given, or cyclic:N (Z_N) or dihedral:N (order 2N), which need a generator
    and an order of at most MAX_GROUP_ORDER, checked before any table."""
    key = spec.strip().lower()
    if key in BUILTIN_PLANS:
        make, n, default = BUILTIN_PLANS[key]
        return build_plan(make(n), default if generator is None else generator)
    kind, colon, arg = key.partition(":")
    if not colon:
        raise ValueError(f"unknown group {spec!r} (use z4, z12, d4, cyclic:N, dihedral:N)")
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"bad group size in {spec!r}") from None
    if kind not in ("cyclic", "dihedral"):
        raise ValueError(f"unknown group kind {kind!r}")
    order = n if kind == "cyclic" else 2 * n
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order {order} exceeds the limit {MAX_GROUP_ORDER}")
    if generator is None:
        raise ValueError("custom groups need --subgroup-gen")
    return build_plan(cyclic_group(n) if kind == "cyclic" else dihedral_group(n), generator)


def builtin_plan(name: str) -> ZakPlan:
    """A built-in plan (z4, z12 or d4) with its default subgroup generator."""
    return plan_from_spec(name)
