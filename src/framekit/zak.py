"""Exact Zak transform on a finite group with a cyclic normal-ish fiberization.

Signals live on a finite group G of order N, written multiplicatively through
an explicit table.  Fixing a cyclic subgroup S = <g0> of order q, the Zak
transform sends a signal f to a function on q characters, with one value per
right coset of S:

    (Zf)(alpha)(Sx) = sum over gamma in S of f(gamma . rep(Sx)) alpha(gamma^{-1})

where rep picks the lexicographically least element of each coset.  With the
character atoms weighted 1/q this map is unitary onto the fibered function
space of dimension p = N/q per atom, it intertwines translation by gamma with
multiplication by the scalar function alpha -> conj(alpha(gamma)), and it
turns a translation-generated system into a fibered (multiplication-style)
system whose per-character fibers carry all frame information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mispace import DeterminingSet, FiberedFunction, FiberedSystem, MeasureModel, global_frame_bounds


# Translated values per block in verify_intertwine (block size times group
# order): keeps each gathered block and its transform at 128 KB, where
# transforming all q translates at once held two q x order arrays (16 MB each
# at order 1024) and raised the zak benchmark's peak RSS by 0.5 MB.
_INTERTWINE_BLOCK = 1 << 13


@dataclass(frozen=True)
class FiniteGroupSpec:
    """A finite group as an explicit multiplication table.

    Elements are the indices 0..order-1 with 0 the identity.  The table is
    validated on construction: identity row and column, a two-sided inverse
    for every element, and associativity by Light's test over a greedy
    generating set (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1961, sec. 1.2), O(order^2) time and memory per generator.
    """

    kind: str
    order: int
    mul: np.ndarray
    inverse: np.ndarray | None = None

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
        if not all(np.array_equal(m[m[:, s]], m[:, m[s]]) for s in _generating_set(m)):
            raise ValueError("multiplication table is not associative")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "mul", m)
        object.__setattr__(self, "inverse", inv)
        m.flags.writeable = False
        inv.flags.writeable = False

    def element_order(self, g: int) -> int:
        if not 0 <= g < self.order:
            raise ValueError(f"element {g} out of range")
        k, cur = 1, g
        while cur != 0:
            cur = int(self.mul[cur, g])
            k += 1
        return k


def _generating_set(m: np.ndarray) -> list[int]:
    """Greedy generators of the table: the least element not yet reached,
    then the reached set closed under products.  Every reached element is a
    product of generators, and a group needs at most log2(order) of them."""
    reached = np.arange(m.shape[0]) == 0
    gens = []
    while not reached.all():
        new = np.array([np.argmin(reached)])
        gens.append(int(new[0]))
        while new.size:
            reached[new] = True
            old = np.flatnonzero(reached)
            prods = np.concatenate([m[np.ix_(old, new)].ravel(), m[np.ix_(new, old)].ravel()])
            new = np.unique(prods[~reached[prods]])
    return gens


def cyclic_group(n: int) -> FiniteGroupSpec:
    """The cyclic group Z_n with addition mod n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    idx = np.arange(n)
    return FiniteGroupSpec("cyclic", n, (idx[:, None] + idx[None, :]) % n)


def dihedral_group(n: int) -> FiniteGroupSpec:
    """The dihedral group of order 2n; index a + n*b encodes r^a s^b."""
    if n < 1:
        raise ValueError("rotation order must be at least 1")
    idx = np.arange(2 * n)
    a, b = idx % n, idx // n
    # (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b + d)
    sign = np.where(b == 0, 1, -1)
    m = (a[:, None] + sign[:, None] * a[None, :]) % n + n * ((b[:, None] + b[None, :]) % 2)
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


@dataclass(frozen=True)
class ZakPlan:
    """Everything the transform needs for one (group, cyclic subgroup) choice.

    powers lists the subgroup as consecutive powers of the generator,
    subgroup is the same set sorted by element index, section holds the
    lexicographically least representative of each right coset in ascending
    order, and characters[k][m] = exp(2 pi i k m / q) pairs character k with
    the m-th generator power.
    """

    group: FiniteGroupSpec
    generator: int
    powers: tuple[int, ...]
    subgroup: tuple[int, ...]
    section: tuple[int, ...]
    characters: np.ndarray
    coset_of: np.ndarray

    @property
    def q(self) -> int:
        return len(self.powers)

    @property
    def p(self) -> int:
        return len(self.section)

    def measure(self) -> MeasureModel:
        return MeasureModel(
            tuple(f"alpha{k}" for k in range(self.q)),
            np.full(self.q, 1.0 / self.q),
        )

    def power_of(self, gamma: int) -> int:
        """Discrete log of a subgroup element with respect to the generator."""
        try:
            return self.powers.index(int(gamma))
        except ValueError:
            raise ValueError(f"element {gamma} is not in the subgroup") from None


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
    k = np.arange(len(powers))
    return ZakPlan(
        group=group,
        generator=g0,
        powers=tuple(powers),
        subgroup=tuple(sorted(powers)),
        section=tuple(section.tolist()),
        characters=np.exp(2j * np.pi * k[:, None] * k[None, :] / len(powers)),
        coset_of=np.searchsorted(section, reps),
    )


def _gather_indices(plan: ZakPlan) -> np.ndarray:
    """idx[m, c] = the group element (generator power m) . (coset rep c)."""
    powers = np.asarray(plan.powers, dtype=np.int64)
    section = np.asarray(plan.section, dtype=np.int64)
    return plan.group.mul[powers[:, None], section[None, :]]


def zak_forward(plan: ZakPlan, signal) -> FiberedFunction:
    """Zak transform: a signal on the group becomes a fibered function on the
    character atoms (weight 1/q each, fiber dimension p).  Unitary: the
    weighted norm of the output equals the plain norm of the input."""
    f = as_signal(plan.group, signal)
    vals = f[_gather_indices(plan)]  # (q_powers, p), rows indexed by m
    z = plan.characters.conj() @ vals
    return FiberedFunction(plan.measure(), z)


def zak_inverse(plan: ZakPlan, zf: FiberedFunction) -> np.ndarray:
    """Inverse transform: average the characters back per coset."""
    if zf.values.shape != (plan.q, plan.p):
        raise ValueError(
            f"fibered function has shape {zf.values.shape}, expected {(plan.q, plan.p)}"
        )
    vals = (plan.characters.T @ zf.values) / plan.q  # (m, c)
    f = np.empty(plan.group.order, dtype=np.complex128)
    f[_gather_indices(plan)] = vals
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
    transformed by one product with the characters."""
    g, conj = plan.group, plan.characters.conj()
    f = as_signal(g, signal)
    zf = zak_forward(plan, f).values
    inverses, cells = g.inverse[list(plan.powers)], _gather_indices(plan)
    step = max(1, _INTERTWINE_BLOCK // g.order)
    worst = 0.0
    for lo in range(0, plan.q, step):
        # t[j, m, c] = (L_gamma f)(g0^j rep_c) for gamma = g0^(lo + m)
        t = f[g.mul[inverses[None, lo : lo + step, None], cells[:, None, :]]]
        z = (conj @ t.reshape(plan.q, -1)).reshape(t.shape)
        z -= conj[:, lo : lo + step, None] * zf[:, None, :]
        worst = max(worst, float(np.abs(z).max()))
    return worst


def tg_to_mg(plan: ZakPlan, generators) -> FiberedSystem:
    """Fiberize a translation-generated system: generator signals become, at
    each character atom, the fiber system of their Zak images."""
    gens = [as_signal(plan.group, g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator signal")
    images = [zak_forward(plan, g).values for g in gens]
    return FiberedSystem(plan.measure(), np.stack(images, axis=-1))


def determining_table(plan: ZakPlan) -> DeterminingSet:
    """The subgroup's own symbol family as a determining set on the character
    atoms: row m holds gamma = g0^m acting as alpha -> conj(alpha(gamma)).
    Parseval holds exactly by character orthogonality."""
    return DeterminingSet(plan.measure(), plan.characters.conj().T)


def tg_frame_bounds(plan: ZakPlan, generators) -> tuple[float, float, bool]:
    """Frame bounds of the translation-generated system, computed directly on
    the group side (no Zak transform): its frame operator is T T^H for the
    translates matrix T, whose nonzero eigenvalues are the squared singular
    values of T, so the bounds are those of T as a one-atom fibered system."""
    t = _translates(plan, generators)
    if not t.size:
        raise ValueError("need at least one generator signal")
    return global_frame_bounds(FiberedSystem(MeasureModel(("G",), np.ones(1)), t[None]))


def builtin_plan(name: str) -> ZakPlan:
    """Three ready-made plans used across tests and the demo subcommand."""
    key = name.strip().lower()
    if key == "z4":
        return build_plan(cyclic_group(4), 2)
    if key == "z12":
        return build_plan(cyclic_group(12), 3)
    if key == "d4":
        return build_plan(dihedral_group(4), 1)
    raise ValueError(f"unknown builtin plan {name!r} (choose z4, z12, d4)")
