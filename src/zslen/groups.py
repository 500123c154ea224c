"""Finite abelian groups in invariant-factor form.

A group is a product ``C_{n_1} x ... x C_{n_r}`` with ``n_1 | n_2 | ... | n_r``
and every ``n_i >= 2``; the empty product is the trivial group.  Elements are
tuples of residues, one per factor, always kept componentwise reduced.  The
lexicographic order on residue tuples (mixed radix, last coordinate fastest)
is the canonical element order used by every enumeration downstream, so it
must never change.  An element's index is its position in that order, zero
at 0; this module owns that layout, so code on indices, or on bitmasks with
bit ``i`` for index ``i``, takes them from :class:`AbelianGroup`.

All values here are immutable and all operations pure; concurrent use is
unrestricted.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .errors import InputError

Element = tuple[int, ...]


def _unit_generators(n: int) -> list[int]:
    """A generating set of the units mod ``n``: each unit, in increasing
    order, outside the subgroup that the smaller ones generate (none for
    ``n <= 2``)."""
    generated = {1}
    gens = []
    for u in range(2, n):
        if gcd(u, n) == 1 and u not in generated:
            gens.append(u)
            # the cosets u^k H are disjoint from H until they return to it
            coset = {h * u % n for h in generated}
            while coset.isdisjoint(generated):
                generated |= coset
                coset = {h * u % n for h in coset}
    return gens


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_prime(n: int) -> bool:
    return _factorint(n) == {n: 1}


def _prime_power_routes(factors: list[int]):
    """Route the prime-power parts of cyclic orders to invariant factors.

    Yields ``(p, e, i, slot)``: the ``slot``-th largest power ``p**e`` of
    each prime (ties by position) comes from ``factors[i]`` and lands in the
    ``slot``-th invariant factor counted from the largest.
    """
    by_prime: dict[int, list[tuple[int, int]]] = {}
    for i, n in enumerate(factors):
        for p, e in _factorint(n).items():
            by_prime.setdefault(p, []).append((e, i))
    for p, entries in by_prime.items():
        entries.sort(key=lambda t: (-t[0], t[1]))
        for slot, (e, i) in enumerate(entries):
            yield p, e, i, slot


def _invariant_factors(factors: list[int]) -> list[int]:
    """Normalize an arbitrary cyclic-product presentation to the unique
    divisor chain n_1 | ... | n_r."""
    routes = list(_prime_power_routes(factors))
    depth = max((slot + 1 for *_, slot in routes), default=0)
    chain = [1] * depth
    for p, e, _, slot in routes:
        chain[depth - 1 - slot] *= p**e
    return chain


class AbelianGroup:
    """A finite abelian group, canonicalized to invariant-factor form."""

    __slots__ = ("invariant_factors", "strides", "_elements")

    def __init__(self, invariant_factors: tuple[int, ...]):
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a:
                raise InputError(f"not a divisor chain: {invariant_factors}")
        if any(n < 2 for n in invariant_factors):
            raise InputError(f"invariant factors must be >= 2: {invariant_factors}")
        self.invariant_factors = tuple(invariant_factors)
        self.strides = tuple(prod(invariant_factors[j + 1:]) for j in range(len(invariant_factors)))
        self._elements: tuple[Element, ...] | None = None

    # -- structure ---------------------------------------------------------

    def order(self) -> int:
        return prod(self.invariant_factors)

    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1

    @property
    def is_elementary_2(self) -> bool:
        return bool(self.invariant_factors) and self.exponent() == 2

    # -- elements ----------------------------------------------------------

    def zero(self) -> Element:
        return (0,) * self.rank()

    def element(self, residues: tuple[int, ...] | list[int]) -> Element:
        if len(residues) != self.rank():
            raise InputError(
                f"element has {len(residues)} coordinates, group has rank {self.rank()}"
            )
        return tuple(r % n for r, n in zip(residues, self.invariant_factors))

    def elements(self) -> tuple[Element, ...]:
        """All elements in index order (lexicographic, last coordinate fastest)."""
        if self._elements is None:
            self._elements = tuple(product(*map(range, self.invariant_factors)))
        return self._elements

    def index_of(self, g: Element) -> int:
        """Position of the reduced element ``g`` in :meth:`elements`."""
        return sum(map(mul, g, self.strides))

    def element_at(self, index: int) -> Element:
        """The element of index ``index``, the inverse of :meth:`index_of`."""
        return tuple(index // width % n for n, width in zip(self.invariant_factors, self.strides))

    def mask_translation(self, g: Element) -> tuple[tuple[int, int, int, int], ...]:
        """Steps ``(keep, up, wrap, down)`` realizing ``s -> s + g`` on indices,
        one per nonzero coordinate (each rotates on its own).  On an index
        bitmask a step is ``mask = ((mask & keep) << up) | ((mask & wrap) >> down)``;
        on one index ``s`` it is ``s + up`` when ``s % (up + down) < down`` and
        ``s - down`` otherwise (``up + down`` is the coordinate's period, and
        ``down`` is where its digit wraps)."""
        n = self.order()
        full = (1 << n) - 1
        steps = []
        for r, nj, width in zip(g, self.invariant_factors, self.strides):
            if r == 0:
                continue
            period = nj * width
            low = (nj - r) * width
            pattern = (1 << low) - 1
            keep = 0
            for start in range(0, n, period):
                keep |= pattern << start
            steps.append((keep, r * width, full & ~keep, low))
        return tuple(steps)

    def add(self, g: Element, h: Element) -> Element:
        if len(g) != len(h) or len(g) != self.rank():
            raise InputError("rank mismatch in addition")
        return tuple((a + b) % n for a, b, n in zip(g, h, self.invariant_factors))

    def neg(self, g: Element) -> Element:
        if len(g) != self.rank():
            raise InputError("rank mismatch in negation")
        return tuple((-a) % n for a, n in zip(g, self.invariant_factors))

    def scalar_mul(self, k: int, g: Element) -> Element:
        if len(g) != self.rank():
            raise InputError("rank mismatch in scalar multiplication")
        return tuple((k * a) % n for a, n in zip(g, self.invariant_factors))

    def element_order(self, g: Element) -> int:
        """Least k >= 1 with k*g = 0."""
        return lcm(*(n // gcd(a, n) for a, n in zip(g, self.invariant_factors))) if g else 1

    def automorphism_permutations(self) -> Iterator[tuple[int, ...]]:
        """Index permutations of the elementary automorphisms and their
        inverses, built one at a time as they are taken: ``perm[i]`` is the
        index of the image of the element of index ``i``.  Each elementary
        automorphism is followed by its inverse unless it is an involution,
        so no permutation is listed twice.

        An automorphism is given by the images of the basis vectors ``e_i``:
        a unit ``u != 1`` times one of them, for ``u`` in a generating set of
        the units mod ``n_i`` (:func:`_unit_generators`), or a shear
        ``e_i -> e_i + (n_j / gcd(n_i, n_j)) e_j`` (well defined, since
        ``n_i`` times the added term vanishes, and inverted by the opposite
        shear).  They generate a subgroup of Aut(G) that contains negation
        and the swap of two equal factors: with ``n_i = n_j`` the shears
        ``e_i -> e_i + e_j``, ``e_j -> e_j - e_i``, ``e_i -> e_i + e_j`` in
        turn send ``e_i`` to ``e_j`` and ``e_j`` to ``-e_i``, and the unit
        ``-1`` on ``e_i`` finishes the swap.
        """
        factors = self.invariant_factors
        basis = [tuple(int(i == k) for k in range(len(factors))) for i in range(len(factors))]
        generators = []  # the images of the basis under each automorphism
        for i, n in enumerate(factors):
            for u in _unit_generators(n):
                generators.append(basis[:i] + [self.scalar_mul(u, basis[i])] + basis[i + 1:])
        for i, ni in enumerate(factors):
            for j, nj in enumerate(factors):
                if i != j:
                    shear = self.add(basis[i], self.scalar_mul(nj // gcd(ni, nj), basis[j]))
                    generators.append(basis[:i] + [shear] + basis[i + 1:])
        # coordinate k of the image of x is sum_i x_i * images[i][k] mod n_k
        for images in generators:
            perm = tuple(
                self.index_of([sum(map(mul, x, column)) % n for column, n in zip(zip(*images), factors)])
                for x in self.elements()
            )
            yield perm
            inverse = tuple(sorted(range(len(perm)), key=perm.__getitem__))
            if inverse != perm:
                yield inverse

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash(self.invariant_factors)

    def __repr__(self) -> str:
        return f"AbelianGroup({self.invariant_factors})"

    def __str__(self) -> str:
        if self.is_trivial:
            return "C1"
        return "x".join(f"C{n}" for n in self.invariant_factors)


def make_group(factors: list[int] | tuple[int, ...]) -> AbelianGroup:
    """Build a group from any list of cyclic orders.

    Non-chain products are normalized (``[2, 3]`` becomes ``C6``).  Factors
    equal to 1 are dropped; factors below 1 are rejected.  The empty product
    is the (flagged) trivial group.
    """
    cleaned = []
    for f in factors:
        if f < 1:
            raise InputError(f"cyclic factor must be >= 1, got {f}")
        if f > 1:
            cleaned.append(int(f))
    return AbelianGroup(tuple(_invariant_factors(cleaned)))


_GROUP_TOKEN = re.compile(r"^c?(\d+)$", re.IGNORECASE)


def parse_group(text: str) -> AbelianGroup:
    """Parse literals like ``C4`` or ``C2xC2xC6`` (case-insensitive)."""
    parts = text.strip().lower().split("x")
    factors = []
    for part in parts:
        m = _GROUP_TOKEN.match(part.strip())
        if not m:
            raise InputError(f"bad group literal {text!r} (expected e.g. C4 or C2xC2xC6)")
        factors.append(int(m.group(1)))
    return make_group(factors)


def cyclic(n: int) -> AbelianGroup:
    return make_group([n])


def direct_sum_with_embeddings(blocks: list[AbelianGroup]):
    """Direct sum of ``blocks`` in canonical form, with explicit embeddings.

    Returns ``(group, maps)`` where ``maps[i]`` sends an element of
    ``blocks[i]`` to its image in the normalized sum.  Normalization merges
    coprime cyclic parts, so each raw generator is re-expressed through its
    prime-power components: the j-th largest power of every prime is routed
    to the j-th largest invariant factor.
    """
    raw: list[int] = []
    origin: list[tuple[int, int]] = []  # raw index -> (block, coordinate)
    for bi, blk in enumerate(blocks):
        for ci, n in enumerate(blk.invariant_factors):
            raw.append(n)
            origin.append((bi, ci))

    total = make_group(raw)
    inv = total.invariant_factors
    k = len(inv)

    # gen_image[ri] = image of the ri-th raw generator in `total`; prime
    # parts accumulate (several primes of one generator may share a slot)
    gen_image = [list(total.zero()) for _ in raw]
    for p, e, ri, slot in _prime_power_routes(raw):
        col = k - 1 - slot  # largest invariant factor sits last
        gen_image[ri][col] = (gen_image[ri][col] + inv[col] // p**e) % inv[col]

    maps = []
    for bi, blk in enumerate(blocks):
        cols = [gi for gi, (b, _) in enumerate(origin) if b == bi]

        def embed(g: Element, _cols=tuple(cols)) -> Element:
            img = total.zero()
            for coord, gi in enumerate(_cols):
                img = total.add(img, total.scalar_mul(g[coord], tuple(gen_image[gi])))
            return img

        maps.append(embed)
    return total, maps
