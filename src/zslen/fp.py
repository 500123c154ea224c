"""Rank-one primary monoids presented by (unit class, value) generators.

The monoid lives inside Z_q x N: multiplication adds values and unit classes.
Every element is a product of generators, so the atoms are exactly the
generators with no factorization into two or more generators.  One pass of
the length engine :func:`zslen.lengths._product_bits` over the generators, up
to the largest generator value, finds them: an atom's length set is {1}.
Length sets run on the same engine, which yields elements in order of value
with final length sets, so it stops at its element.

The minimum distance accounts for the unit-class torsion: the relation
lattice is cut out by the value equation together with the class congruence,
realized by an auxiliary column of weight q.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .config import ResourceConfig, default_config
from .errors import InputError
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


@dataclass(frozen=True)
class LocalProfile:
    rho: Fraction
    accepted: bool
    min_delta: int | None
    d: int  # gcd of consecutive atom-value differences (0 for one value)


def _key(q: int, x: tuple[int, int]) -> int:
    """The element ``x = (cls, val)`` as one int: the value above a class
    field wide enough for the sum of two classes mod q."""
    return x[1] << (2 * q).bit_length() | x[0]


def _products(monoid: FPMonoid, gens, bound: int, max_states: float) -> Iterator[tuple[int, int]]:
    """Stream ``(key, bits)`` for the products of ``gens`` with value at most
    ``bound`` in order of value, keyed by :func:`_key`, as
    :func:`zslen.lengths._product_bits` yields them."""
    q = monoid.unit_modulus
    mask = (1 << (2 * q).bit_length()) - 1

    def mul(p, a):
        r = p + a
        return r - q if r & mask >= q else r

    return _product_bits([(_key(q, g), g[1]) for g in gens], bound, mul, max_states)


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
    gens = {_key(q, g): g for g in monoid.generators}
    products = _products(monoid, monoid.generators, monoid.max_value, cfg.max_states)
    atoms = [gens[p] for p, bits in products if bits == 0b10 and p in gens]
    return sorted(atoms, key=lambda t: (t[1], t[0]))


def fp_length_set(
    monoid: FPMonoid,
    x: tuple[int, int],
    *,
    config: ResourceConfig | None = None,
) -> LengthSet:
    """Exact set of factorization lengths of the element ``x``."""
    cfg = config or default_config()
    q = monoid.unit_modulus
    cls, val = x[0] % q, x[1]
    if val < 0:
        raise InputError("values are nonnegative")
    atoms = fp_atoms(monoid, config=cfg)
    key = _key(q, (cls, val))
    bits = next((b for p, b in _products(monoid, atoms, val, cfg.max_states) if p == key), 0)
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
