"""Rank-one primary monoids presented by (unit class, value) generators.

The monoid lives inside Z_q x N: multiplication adds values and unit classes.
Completeness of an enumerated atom list is certified through the tail
exponent: once every unit class is reachable at all values of a window of
width min(generator values) starting at some alpha, induction covers
everything beyond, and any element of value >= 2*alpha splits into two
non-units.  Atoms therefore live below 2*alpha, and a cap at least that
large proves the list complete.

The minimum distance accounts for the unit-class torsion: the relation
lattice is cut out by the value equation together with the class congruence,
realized by an auxiliary column of weight q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .config import ResourceConfig, default_config
from .errors import BudgetExceededError, CompletenessError, InputError
from .lengths import LengthSet, _functional_gcd, _product_bits, _set_bits
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

    @property
    def max_value(self) -> int:
        return max(v for _, v in self.generators)

    @property
    def min_value(self) -> int:
        return min(v for _, v in self.generators)


@dataclass(frozen=True)
class LocalProfile:
    rho: Fraction
    accepted: bool
    min_delta: int | None
    d: int  # gcd of consecutive atom-value differences (0 for one value)


def _reachable_table(monoid: FPMonoid, cap: int) -> list[list[bool]]:
    q = monoid.unit_modulus
    table = [[False] * (cap + 1) for _ in range(q)]
    table[0][0] = True
    for val in range(1, cap + 1):
        for cls in range(q):
            for gc, gv in monoid.generators:
                if gv <= val and table[(cls - gc) % q][val - gv]:
                    table[cls][val] = True
                    break
    return table


def _tail_start(monoid: FPMonoid, table: list[list[bool]], cap: int) -> int | None:
    """Smallest alpha whose full-class window of width min_value fits below cap."""
    q = monoid.unit_modulus
    width = monoid.min_value
    all_classes = [all(table[c][v] for c in range(q)) for v in range(cap + 1)]
    run = 0
    for v in range(1, cap + 1):
        run = run + 1 if all_classes[v] else 0
        if run >= width:
            return v - width + 1
    return None


def fp_atoms(monoid: FPMonoid, value_cap: int) -> list[tuple[int, int]]:
    """All atoms, certified complete.

    Raises :class:`CompletenessError` when the cap cannot certify the tail
    (either too small, or the presentation never covers every unit class and
    is not finitely primary for the declared modulus).
    """
    if value_cap < monoid.max_value:
        raise InputError("value cap below the largest generator value")
    q = monoid.unit_modulus
    table = _reachable_table(monoid, value_cap)
    alpha = _tail_start(monoid, table, value_cap)
    if alpha is None:
        raise CompletenessError(
            f"no full unit-class window below cap {value_cap}; raise the cap "
            f"or check that the modulus {q} is really attained"
        )
    if value_cap < 2 * alpha - 1:
        raise CompletenessError(
            f"cap {value_cap} cannot certify completeness: atoms may reach "
            f"value {2 * alpha - 1}"
        )
    atoms = []
    for val in range(1, 2 * alpha):
        for cls in range(q):
            if not table[cls][val]:
                continue
            splits = False
            for v1 in range(1, val):
                for c1 in range(q):
                    if table[c1][v1] and table[(cls - c1) % q][val - v1]:
                        splits = True
                        break
                if splits:
                    break
            if not splits:
                atoms.append((cls, val))
    return sorted(atoms, key=lambda t: (t[1], t[0]))


def _certified_atoms(monoid: FPMonoid, cfg: ResourceConfig) -> list[tuple[int, int]]:
    """:func:`fp_atoms` under a cap doubled until it certifies.  Every unit
    class is reached at all large values exactly when the generators and
    ``(q, 0)`` span Z^2 (2x2 minors of gcd 1); otherwise no cap certifies."""
    q = monoid.unit_modulus
    pairs = combinations([*monoid.generators, (q, 0)], 2)
    index = gcd(*(c1 * v2 - c2 * v1 for (c1, v1), (c2, v2) in pairs))
    if index != 1:
        raise InputError(
            f"generators and ({q}, 0) span a sublattice of index {index} in Z^2: "
            f"some unit classes mod {q} are never reached"
        )
    cap = 8 * monoid.max_value * q
    while True:
        if cap * q > cfg.max_states:
            raise BudgetExceededError("fp reachability states", cfg.max_states)
        try:
            return fp_atoms(monoid, cap)
        except CompletenessError:
            cap *= 2


def fp_membership(monoid: FPMonoid, x: tuple[int, int]) -> bool:
    cls, val = x
    if val < 0:
        return False
    table = _reachable_table(monoid, val)
    return table[cls % monoid.unit_modulus][val]


def fp_length_set(
    monoid: FPMonoid,
    x: tuple[int, int],
    *,
    config: ResourceConfig | None = None,
) -> LengthSet:
    """Exact set of factorization lengths of the element ``x``."""
    cfg = config or default_config()
    atoms = _certified_atoms(monoid, cfg)
    q = monoid.unit_modulus
    cls, val = x[0] % q, x[1]
    if val < 0:
        raise InputError("values are nonnegative")

    def mul(p, a):
        return ((p[0] + a[0]) % q, p[1] + a[1])

    weighted = [(a, a[1]) for a in atoms]
    bits = _product_bits((0, 0), weighted, val, mul, cfg.max_states).get((cls, val), 0)
    if not bits:
        raise InputError(f"element {x} is not in the monoid")
    return LengthSet(_set_bits(bits))


def fp_min_delta(monoid: FPMonoid, atoms: list[tuple[int, int]]) -> int | None:
    """Minimum distance via the relation lattice with class congruence."""
    q = monoid.unit_modulus
    columns = [(val, cls, 1) for cls, val in atoms]
    columns.append((0, q, 0))  # class row is a congruence mod q
    g = _functional_gcd(columns, 2)
    return g if g else None


def local_profile(monoid: FPMonoid, *, config: ResourceConfig | None = None) -> LocalProfile:
    """Elasticity, value-gap gcd, and exact minimum distance.

    Elasticity is the ratio of the extreme atom values and is always accepted
    here: the unit-class group is finite, hence torsion.
    """
    cfg = config or default_config()
    atoms = _certified_atoms(monoid, cfg)
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
