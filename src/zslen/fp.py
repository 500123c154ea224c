"""Rank-one primary monoids presented by (unit class, value) generators.

The monoid H lives inside Z_q x N: multiplication adds values and unit
classes.  Every element is a product of generators, so the atoms are exactly
the generators with no factorization into two or more generators.  They come
from a coset table, the Apery-set or shortest-path method for numerical
semigroups (Nijenhuis 1979; Rosales and Garcia-Sanchez 2009): modulo a
generator ``g0 = (c0, m)`` of least value, Z_q x Z has ``q * m`` cosets, and
a shortest-path search along the generators gives the least value of H in
each.  An element is in H exactly when its value is at least the least
value of its coset, since adding ``g0`` never leaves H.  A generator ``g``
is an atom unless ``g - h`` is in H for another generator ``h``.

Length sets count atoms with the step loop of :mod:`zslen.lengths`, over the
cells ``v * q + c`` of every element up to the target, one bit per cell of
an int: bit k of the result is the target's cell after k steps.

The minimum distance accounts for the unit-class torsion: the relation
lattice is cut out by the value equation together with the class congruence,
realized by an auxiliary column of weight q.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import gcd

from .config import ResourceConfig, default_config
from .errors import BudgetExceededError, InputError
from .lengths import LengthSet, _count_atoms, _functional_gcd, _repeat, _set_bits
from .delta_rho import gcd_closure


@dataclass(frozen=True)
class FPMonoid:
    """Submonoid of Z_q x N generated by (unit class, value) pairs."""

    unit_modulus: int
    generators: tuple[tuple[int, int], ...]

    @staticmethod
    def of(unit_modulus: int, generators) -> "FPMonoid":
        if unit_modulus < 1:
            raise InputError("unit modulus must be >= 1")
        gens = []
        for cls, val in generators:
            if val < 1:
                raise InputError(f"generator values must be >= 1, got {val}")
            gens.append((cls % unit_modulus, int(val)))
        gens = sorted(set(gens))
        if not gens:
            raise InputError("need at least one generator")
        if gcd(*(v for _, v in gens)) != 1:
            raise InputError(
                "generator values must have gcd 1 (otherwise the value "
                "semigroup has no cofinite tail and the monoid is not "
                "finitely primary of rank one)"
            )
        return FPMonoid(unit_modulus, tuple(gens))


@dataclass(frozen=True)
class LocalProfile:
    rho: Fraction
    accepted: bool
    min_delta: int | None
    d: int  # gcd of consecutive atom-value differences (0 for one value)


def _membership(monoid: FPMonoid, max_states: int) -> Callable[[int, int], bool]:
    """The test ``(c, v) -> (c, v) in H`` from the coset table.

    With ``g0 = (c0, m)`` a generator of least value, the coset of ``(c, v)``
    modulo ``g0`` is ``((c - (v // m) * c0) mod q, v mod m)``, numbered as
    ``class * m + residue``; its representative is that pair itself.
    Dijkstra from the coset of 0 along the other generators gives the least
    value of H in each coset; a heap entry is the one int
    ``value * cosets + coset``.  The ``q * m`` cosets count against
    ``max_states``, checked before the table is built.
    """
    q = monoid.unit_modulus
    g0 = min(monoid.generators, key=lambda g: g[1])
    c0, m = g0
    cosets = q * m
    if cosets > max_states:
        raise BudgetExceededError("rank-one coset table entries", max_states)

    edges = [g for g in monoid.generators if g != g0]
    least: list[int | None] = [None] * cosets  # None: no element of H found
    least[0] = 0
    heap = [0]
    while heap:
        d, x = divmod(heappop(heap), cosets)
        if d > least[x]:
            continue
        r, s = divmod(x, m)
        for c, v in edges:
            t = s + v
            y = (r + c - t // m * c0) % q * m + t % m
            e, old = d + v, least[y]
            if old is None or e < old:
                least[y] = e
                heappush(heap, e * cosets + y)

    def member(c: int, v: int) -> bool:
        w = least[(c - v // m * c0) % q * m + v % m]
        return w is not None and w <= v

    return member


def fp_atoms(monoid: FPMonoid, *, config: ResourceConfig | None = None) -> list[tuple[int, int]]:
    """All atoms: the generators with no factorization into two or more
    generators, sorted by value and class.

    Raises :class:`InputError` when the generators and ``(q, 0)`` span a
    proper sublattice of Z^2 (2x2 minors with gcd above 1): some unit classes
    are then never reached and the monoid is not finitely primary.
    """
    cfg = config or default_config()
    q = monoid.unit_modulus
    pairs = combinations([*monoid.generators, (q, 0)], 2)
    index = gcd(*(c1 * v2 - c2 * v1 for (c1, v1), (c2, v2) in pairs))
    if index != 1:
        raise InputError(
            f"generators and ({q}, 0) span a sublattice of index {index} in Z^2: "
            f"some unit classes mod {q} are never reached"
        )
    member = _membership(monoid, cfg.max_states)
    gens = monoid.generators
    atoms = [g for g in gens if not any(h != g and member(g[0] - h[0], g[1] - h[1]) for h in gens)]
    return sorted(atoms, key=lambda t: (t[1], t[0]))


def fp_length_set(
    monoid: FPMonoid,
    x: tuple[int, int],
    *,
    config: ResourceConfig | None = None,
) -> LengthSet:
    """Exact set of factorization lengths of the element ``x``.

    Counts atoms with :func:`zslen.lengths._count_atoms` over the cells ``v
    * q + c`` of the elements ``(c, v)`` up to ``x``, whose cell ``T`` is
    the top one.  An atom ``(c, v)`` moves the cells of class ``r < q - c``
    up by ``v * q + c`` and the others, whose class wraps, up by ``v * q + c
    - q``; one mask per distinct class ``c > 0`` picks the first, and a
    class-0 atom needs none.  The ``T + 1`` cells count against
    ``max_states``, checked before any mask is built.
    """
    cfg = config or default_config()
    q = monoid.unit_modulus
    cls, val = x[0] % q, x[1]
    if val < 0:
        raise InputError("values are nonnegative")
    atoms = fp_atoms(monoid, config=cfg)
    top = val * q + cls
    if top + 1 > cfg.max_states:
        raise BudgetExceededError("rank-one length-set cells", cfg.max_states)
    offsets: dict[int, list[int]] = {}
    for c, v in atoms:
        offsets.setdefault(c, []).append(v * q + c)
    copies = top // q + 1
    every = (1 << q * copies) - 1
    terms = []
    for c, offs in offsets.items():
        if c == 0:
            terms.append(((), offs))
            continue
        low = _repeat((1 << q - c) - 1, q, copies)
        terms.append(((low,), offs))
        terms.append(((every ^ low,), [off - q for off in offs]))
    bits = _count_atoms(terms, top)
    if not bits:
        raise InputError(f"element {x} is not in the monoid")
    return LengthSet(_set_bits(bits))


def fp_min_delta(monoid: FPMonoid, atoms: list[tuple[int, int]]) -> int | None:
    """Minimum distance via the relation lattice with class congruence."""
    q = monoid.unit_modulus
    columns = [(val, cls, 1) for cls, val in atoms]
    columns.append((0, q, 0))  # class row is a congruence mod q
    return _functional_gcd(columns, 2) or None


def local_profile(monoid: FPMonoid, *, config: ResourceConfig | None = None) -> LocalProfile:
    """Elasticity, value-gap gcd, and exact minimum distance.

    Elasticity is the ratio of the extreme atom values and is always accepted
    here: the unit-class group is finite, hence torsion.
    """
    atoms = fp_atoms(monoid, config=config)
    values = sorted({v for _, v in atoms})
    rho = Fraction(values[-1], values[0])
    d = 0
    for a, b in zip(values, values[1:]):
        d = gcd(d, b - a)
    return LocalProfile(rho, True, fp_min_delta(monoid, atoms), d)


def delta_rho_star_product(d_list: list[int]) -> frozenset[int]:
    """Star set of a product of local factors of equal extreme elasticity:
    the gcd closure of their minimum distances."""
    if not d_list:
        raise InputError("need at least one local minimum distance")
    if any(d < 1 for d in d_list):
        raise InputError("minimum distances are positive")
    return gcd_closure(d_list)


@dataclass(frozen=True)
class ObstructionReport:
    """What the local distances rule out for any group with the same
    system of length sets."""

    d_list: tuple[int, ...]
    overall_gcd: int
    cyclic_4_6_10_only: bool
    excludes_rank_two: bool
    excludes_homocyclic: bool
    conditional_elementary2_ranks: tuple[int, ...]

    def messages(self) -> list[str]:
        out = []
        if self.cyclic_4_6_10_only:
            out.append(
                "any group with the same system of length sets is cyclic of order 4, 6, or 10"
            )
        if self.excludes_rank_two:
            out.append("no such group has rank two")
        if self.excludes_homocyclic:
            out.append("no such group is homocyclic of prime-power exponent >= 3")
        for r in self.conditional_elementary2_ranks:
            out.append(
                f"conditional (open conjecture): such a group is cyclic or an "
                f"elementary 2-group of rank {r}"
            )
        if not out:
            out.append("no obstruction")
        return out


def transfer_obstruction(d_list: list[int]) -> ObstructionReport:
    """Obstruction logic for products of local factors (distances as in
    :func:`delta_rho_star_product`, elasticities locally maximal and > 1)."""
    if not d_list:
        raise InputError("need at least one local minimum distance")
    if any(d < 1 for d in d_list):
        raise InputError("minimum distances are positive")
    overall = gcd(*d_list)
    nontrivial = tuple(sorted({d for d in d_list if d > 1}))
    return ObstructionReport(
        d_list=tuple(d_list),
        overall_gcd=overall,
        cyclic_4_6_10_only=overall > 1,
        excludes_rank_two=bool(nontrivial),
        excludes_homocyclic=bool(nontrivial),
        conditional_elementary2_ranks=tuple(1 + d for d in nontrivial),
    )
