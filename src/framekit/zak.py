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

from .mispace import DeterminingSet, FiberedFunction, FiberedSystem, MeasureModel


@dataclass(frozen=True)
class FiniteGroupSpec:
    """A finite group as an explicit multiplication table.

    Elements are the indices 0..order-1 with 0 the identity.  The table is
    validated on construction: identity row and column, a two-sided inverse
    for every element, and full associativity, checked one left factor at a
    time so that memory stays O(order^2).
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
        inv = np.full(n, -1, dtype=np.int64)
        for g in range(n):
            hits = np.flatnonzero(m[g] == 0)
            if hits.size != 1 or m[hits[0], g] != 0:
                raise ValueError(f"element {g} has no two-sided inverse")
            inv[g] = hits[0]
        # (a b) c against a (b c) for all b, c: rows m[a b] of m against m[a] at m[b c]
        if not all(np.array_equal(m[m[a]], m[a][m]) for a in range(n)):
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
    order = 2 * n
    m = np.empty((order, order), dtype=np.int64)
    for a in range(n):
        for b in range(2):
            for c in range(n):
                for d in range(2):
                    # (r^a s^b)(r^c s^d) = r^{a + (-1)^b c} s^{b + d}
                    aa = (a + (c if b == 0 else -c)) % n
                    bb = (b + d) % 2
                    m[a + n * b, c + n * d] = aa + n * bb
    return FiniteGroupSpec("dihedral", order, m)


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
    q = len(powers)
    n = group.order
    coset_of = np.full(n, -1, dtype=np.int64)
    section = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(section)
        section.append(x)
        for gam in powers:
            coset_of[group.mul[gam, x]] = c
    k_idx, m_idx = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    characters = np.exp(2j * np.pi * k_idx * m_idx / q)
    return ZakPlan(
        group=group,
        generator=g0,
        powers=tuple(powers),
        subgroup=tuple(sorted(powers)),
        section=tuple(section),
        characters=characters,
        coset_of=coset_of,
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


def translate(plan: ZakPlan, signal, gamma: int) -> np.ndarray:
    """Left translation by a subgroup element: (L_gamma f)(g) = f(gamma^{-1} g)."""
    f = as_signal(plan.group, signal)
    plan.power_of(gamma)  # domain check: only subgroup translations fiberize
    inv = int(plan.group.inverse[int(gamma)])
    return f[plan.group.mul[inv]]


def modulation_symbol(plan: ZakPlan, gamma: int) -> np.ndarray:
    """The scalar function on character atoms that Zak intertwines with
    translation by gamma: value conj(alpha_k(gamma)) at atom k."""
    m = plan.power_of(gamma)
    return plan.characters[:, m].conj()


def verify_intertwine(plan: ZakPlan, signal, gamma: int) -> float:
    """Max absolute deviation between Z(L_gamma f) and the modulated Z f."""
    lhs = zak_forward(plan, translate(plan, signal, gamma)).values
    rhs = modulation_symbol(plan, gamma)[:, None] * zak_forward(plan, signal).values
    return float(np.abs(lhs - rhs).max())


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


def tg_frame_bounds(
    plan: ZakPlan, generators, rel_rank_tol: float = 1e-10
) -> tuple[float, float, bool]:
    """Frame bounds of the translation-generated system, computed directly on
    the group side (no Zak transform): spectral extremes of the synthesis
    frame operator over its range."""
    gens = [as_signal(plan.group, g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator signal")
    n = plan.group.order
    s = np.zeros((n, n), dtype=np.complex128)
    for g in gens:
        for gamma in plan.powers:
            v = translate(plan, g, gamma)
            s += np.outer(v, v.conj())
    s = (s + s.conj().T) / 2.0
    eig = np.linalg.eigvalsh(s)
    top = max(float(eig[-1]), 0.0)
    active = eig > rel_rank_tol * top if top > 0.0 else np.zeros(0, dtype=bool)
    if not np.any(active):
        return 1.0, 1.0, True
    lo = float(eig[active].min())
    return lo, top, bool(lo > 1e-8)


def tg_biorthogonality_deviation(plan: ZakPlan, generators, duals) -> float:
    """Max deviation of <L_gamma f_i, L_eta h_j> from delta_{gamma,eta} delta_{ij}
    across all subgroup translates, computed on the group side."""
    gens = [as_signal(plan.group, g) for g in generators]
    dls = [as_signal(plan.group, h) for h in duals]
    if len(gens) != len(dls):
        raise ValueError("generator and dual counts differ")
    worst = 0.0
    for i, g in enumerate(gens):
        for j, h in enumerate(dls):
            for a, gamma in enumerate(plan.powers):
                tg = translate(plan, g, gamma)
                for b, eta in enumerate(plan.powers):
                    th = translate(plan, h, eta)
                    val = complex(np.vdot(th, tg))  # <tg, th>
                    expect = 1.0 if (i == j and a == b) else 0.0
                    worst = max(worst, abs(val - expect))
    return worst


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
