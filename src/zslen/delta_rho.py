"""The central invariant: exact star set, sandwich bounds, theorem dispatch.

The star set collects the minimum distance of every support realizable by an
element of extreme elasticity.  Such supports are exactly the unions of the
(negation-closed) supports of maximal-length atoms, so one walk visits
distinct unions of those support classes.  Three facts keep it small:

* enlarging a support divides its minimum distance, so a union is expanded
  only while some divisor of its value is missing from the star set, and its
  expansion stops as soon as none is;
* a union's value is :func:`lengths.min_delta` of its support, whose
  kernel reduction stops reading the union's atoms once the gcd it has
  found is 1; every union is negation-closed, so the reduction is also
  handed ``|U| - 2`` for every atom ``U`` as a lattice vector (pair off each
  element with its negative), and most unions settle to 1 from a prefix of
  their atoms;
* a group automorphism keeps the minimum distance, so the walk may visit one
  canonical union per orbit.

A source gives the walk its classes, the classes it starts from
(``roots``) and a union's canonical form.  For ``C_n`` nothing is enumerated up
front: the atoms of length ``n`` are exactly ``g^n`` with ``ord g = n``
(Geroldinger and Halter-Koch 2006), so the classes are the unit pairs
``{u, n - u}``, and a union's canonical form is its least unit multiple, so
the walk starts from ``{1, n - 1}``.  For other groups the elementary
automorphisms and their inverses (``AbelianGroup.automorphism_permutations``)
prune the atom DFS at every depth: it drops a node that one of them maps to
a lexicographically smaller sorted sequence.  The test reads additive
position codes, packed one field per map into one integer, so it costs one
integer add at each node; it is exact on groups of order at most 128 and
may drop fewer nodes on larger ones.  That keeps the least atom of every
orbit, so the classes of the maximal-length atoms it finds meet every orbit
of classes, and the walk starts from them.  A union's value divides the
value of every class inside it, and an automorphism keeps values, so when
every root is worth 1 no union is expanded and the walk needs no other
class: the classes are closed under the automorphisms only when a union is
expanded, and every union is its own canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd

from .config import ResourceConfig, default_config
from .errors import BudgetExceededError, InputError
from .groups import AbelianGroup, _factorint, cyclic, direct_sum_with_embeddings, make_group
from .lengths import _set_bits, min_delta
from .sequences import SupportSet, _atom_vectors, full_support


def gcd_closure(values) -> frozenset[int]:
    """All gcds of nonempty subsets (equivalently: pairwise-gcd closure)."""
    vals = {int(v) for v in values}
    if not vals:
        raise InputError("gcd closure of an empty set")
    if any(v < 1 for v in vals):
        raise InputError("gcd closure needs positive integers")
    while True:
        new = {gcd(a, b) for a in vals for b in vals} | vals
        if new == vals:
            return frozenset(vals)
        vals = new


def divisor_closure(values) -> frozenset[int]:
    """Every positive integer dividing some member."""
    vals = {int(v) for v in values}
    if any(v < 1 for v in vals):
        raise InputError("divisor closure needs positive integers")
    return frozenset(d for v in vals for d in range(1, v + 1) if v % d == 0)


@dataclass(frozen=True)
class DeltaRhoResult:
    star: frozenset[int]
    exact: frozenset[int] | None
    upper: frozenset[int]
    provenance: str
    conjectured: frozenset[int] | None = None


def _orbits(masks, maps, cap: int) -> set[int]:
    """``masks`` and every image of them under ``maps`` and their products;
    more than ``cap`` images raise :class:`BudgetExceededError`, as distinct
    supports."""
    bit_images = [[1 << image for image in perm] for perm in maps]
    closed = set(masks)
    queue = list(closed)
    for mask in queue:  # grows while it is read
        members = _set_bits(mask)
        for bits in bit_images:
            image = sum(map(bits.__getitem__, members))  # distinct bits: sum is OR
            if image not in closed:
                closed.add(image)
                queue.append(image)
                if len(closed) > cap:
                    raise BudgetExceededError("distinct support unions", cap)
    return closed


class _OrbitSource:
    """The walk's source for a non-cyclic group, from the orbits of the
    elementary automorphisms and their inverses, the ``maps`` of
    ``AbelianGroup.automorphism_permutations``.

    An automorphism maps atoms to atoms, so the atom DFS, pruned by the maps
    (``_atom_vectors``), still yields the least atom of every orbit: it finds
    the Davenport constant, and the classes of its maximal-length atoms meet
    every orbit of classes.  The roots are those classes, less each one that
    a map sends to a smaller class found: a chain of such steps descends to
    a root of the same orbit.  ``class_masks`` closes the roots under the
    maps on first use, which only the expansion of a union needs, and
    ``canonical`` leaves every union as it is.  Bit j of a mask stands for
    the element of index j.  The maps' entries count against ``max_nodes``
    and the closed classes against ``max_supports``."""

    def __init__(self, group: AbelianGroup, config: ResourceConfig):
        self.config = config
        n = group.order()
        maps = self.maps = []
        for perm in group.automorphism_permutations():
            maps.append(perm)
            if len(maps) * n > config.max_nodes:
                raise BudgetExceededError("automorphism permutation entries", config.max_nodes)
        # position j of the full support is the element of index j
        positions, neg = list(range(n)), [group.index_of(group.neg(e)) for e in group.elements()]
        # the classes of the longest atoms so far; those of length D(G) at the end
        longest, found = 0, set()
        for v in _atom_vectors(full_support(group), config, maps):
            length = sum(v)
            if length > longest:
                longest, found = length, set()
            if length == longest:
                mask = 0
                for j in compress(positions, v):
                    mask |= 1 << j | 1 << neg[j]
                found.add(mask)

        def lower(mask):  # some map sends the class to a smaller one found
            members = _set_bits(mask)
            return any((image := sum(1 << perm[m] for m in members)) < mask
                       and image in found for perm in maps)

        self.roots = sorted(mask for mask in found if not lower(mask))

    @cached_property
    def class_masks(self) -> list[int]:
        return sorted(_orbits(self.roots, self.maps, self.config.max_supports))

    def canonical(self, mask: int) -> int:
        return mask


class _UnitClassScan:
    """The walk's source for a cyclic group of order n >= 3: the unit pairs
    ``{u, n - u}`` are the classes, and nothing is enumerated up front; bit j
    of a mask stands for the residue j, whose index is j.  Only the units
    are stored: each read of ``class_masks`` builds the n-bit masks one at a
    time, so the set-up holds no mask per class before any budget applies."""

    def __init__(self, group: AbelianGroup):
        n = self.n = group.order()
        self.units = [u for u in range(1, (n + 1) // 2) if gcd(u, n) == 1]
        self.roots = [(1 << 1) | (1 << (n - 1))]  # every class is a unit multiple of {1, n - 1}

    @property
    def class_masks(self):
        n = self.n
        return ((1 << u) | (1 << (n - u)) for u in self.units)

    def canonical(self, mask: int) -> int:
        """The lexicographically least unit multiple of the union.  Every
        member is a unit, so the least one starts at 1 and comes from the
        inverse of a member."""
        n = self.n
        elems = _set_bits(mask)
        best = min(sorted(e * pow(u, -1, n) % n for e in elems) for u in elems)
        return sum(1 << e for e in best)


def delta_rho_star(group: AbelianGroup, *, config: ResourceConfig | None = None) -> frozenset[int]:
    """Exact star set by enumeration over qualifying supports.

    Walks distinct canonical unions of support classes breadth-first, and
    expands a union only while some divisor of its value is missing from the
    star set (every superset's value divides it), checked again after each
    union it adds.
    """
    cfg = config or default_config()
    if group.order() <= 2:
        return frozenset()
    source = _UnitClassScan(group) if group.is_cyclic else _OrbitSource(group, cfg)
    values: set[int] = set()
    seen: set[int] = set()
    frontier: list[tuple[int, int]] = []

    def visit(mask: int):
        seen.add(mask)
        if len(seen) > cfg.max_supports:
            raise BudgetExceededError("distinct support unions", cfg.max_supports)
        # bits in increasing order are elements in index order, which is sorted
        value = min_delta(SupportSet(group, tuple(map(group.element_at, _set_bits(mask)))), config=cfg)
        values.add(value)
        frontier.append((mask, value))

    for mask in source.roots:
        visit(mask)
    while frontier:
        current, frontier = frontier, []
        for u, value in current:
            divisors = divisor_closure([value])
            if divisors <= values:
                continue  # the values of u's supersets divide its own
            for s in source.class_masks:
                merged = source.canonical(u | s)  # u itself when s lies inside u
                if merged not in seen:
                    visit(merged)
                    if divisors <= values:
                        break
    return frozenset(values)


_EXCEPTIONAL_CYCLIC_ORDERS = (4, 6, 10)


def one_in_delta_rho(group: AbelianGroup) -> bool:
    """Whether 1 occurs; false exactly for the cyclic orders 4, 6, 10."""
    if group.order() < 3:
        raise InputError("defined for groups of order >= 3")
    return not (group.is_cyclic and group.order() in _EXCEPTIONAL_CYCLIC_ORDERS)


def delta_rho(group: AbelianGroup, *, config: ResourceConfig | None = None) -> DeltaRhoResult:
    """Star set, divisor-closure upper bound, and the exact set when a
    structure theorem settles it; otherwise sandwich bounds only."""
    cfg = config or default_config()
    if group.order() <= 2:
        empty: frozenset[int] = frozenset()
        return DeltaRhoResult(empty, empty, empty, "trivial")
    factors = group.invariant_factors
    r = group.rank()
    if group.is_cyclic:
        star = delta_rho_star(group, config=cfg)
        return DeltaRhoResult(star, star, divisor_closure(star), "theorem-cyclic")
    if group.is_elementary_2:
        exact = frozenset({1, r - 1})
        return DeltaRhoResult(exact, exact, divisor_closure(exact), "theorem-elem2")
    one = frozenset({1})
    if r == 2:
        return DeltaRhoResult(one, one, one, "theorem-rank2")
    if r == 3 and factors[0] == 2 and factors[1] == 2 and factors[2] >= 4:
        return DeltaRhoResult(one, one, one, "theorem-C2C2C2n")
    if r >= 2 and len(set(factors)) == 1 and len(_factorint(factors[0])) == 1 and factors[0] >= 3:
        return DeltaRhoResult(one, one, one, "theorem-ppower")
    star = delta_rho_star(group, config=cfg)
    return DeltaRhoResult(star, None, divisor_closure(star), "sandwich-only", one)


def realize_delta_set(d_list: list[int]) -> tuple[AbelianGroup, list[SupportSet]]:
    """A group and supports realizing the given distances blockwise.

    Each distance d gets its own block: d = 1 uses the order-8 cyclic group
    with support {g, 3g}; d >= 2 uses d-1 independent elements of order 2d
    plus the negated sum.  Blocks are assembled into the canonical direct sum
    and the supports mapped through the assembly embedding; the star set of
    the combined support monoid is the gcd closure of the input list.
    """
    if not d_list:
        raise InputError("need at least one distance")
    blocks: list[AbelianGroup] = []
    local: list[list[tuple[int, ...]]] = []
    for d in d_list:
        if d < 1:
            raise InputError(f"distances must be >= 1, got {d}")
        if d == 1:
            blocks.append(cyclic(8))
            local.append([(1,), (3,)])
        else:
            block = make_group([2 * d] * (d - 1))
            gens = []
            for i in range(d - 1):
                e = [0] * (d - 1)
                e[i] = 1
                gens.append(tuple(e))
            e0 = block.neg(block.element([1] * (d - 1)))
            local.append([e0, *gens])
            blocks.append(block)
    total, embed = direct_sum_with_embeddings(blocks)
    supports = [
        SupportSet.of(total, [embed[i](g) for g in gens]) for i, gens in enumerate(local)
    ]
    return total, supports
