"""Zero-sum sequences over a support set and the enumeration of atoms.

A sequence is a finite multiset over a fixed, sorted support; atoms are the
minimal zero-sum sequences.  ``_atom_vectors`` walks the tree of zero-sum-
free sequences in canonical element order, maintaining the negated
subsequence sums as a bitmask over group elements.  A sorted sequence ``S``
is an atom exactly when its sum vanishes and the prefix obtained by dropping
its last element is zero-sum free, so every atom is emitted exactly once,
from its own maximal proper prefix.

Zero-sum-free sequences acquire a fresh subsequence sum with every appended
element, which bounds the search depth by ``|G| - 1``.

A child ``S·g`` of a zero-sum-free node ``S`` is zero-sum free exactly when
``g ∉ -Σ₀(S)``, where ``Σ₀(S)`` holds the subsequence sums of ``S`` with the
empty sum 0 included: the nonempty subsequences of ``S·g`` sum to
``Σ(S) ∪ (Σ₀(S) + g)``, and ``Σ(S)`` misses 0.  So a node carries the bitmask
``-Σ₀(S)``, and its zero-sum-free children are the bits of the support
elements at or after its last position that lie outside it, one mask
operation for all of them.  Bits are element indices (``groups`` owns that
layout, in which a sorted support is in index order), so the walk takes them
lowest bit first, in canonical order, and visits the same nodes as one that
tests every child; only the child that is taken, and kept by the orderly
test when there is one, pays for the shifts to
``-Σ₀(S·g) = -Σ₀(S) ∪ (-Σ₀(S) - g)``.  The same steps of ``s -> s - g``
move the index of the negated sum, ``-Σ(S·g) = -Σ(S) - g``, one coordinate
at a time, so the walk builds no table of translated indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .config import ResourceConfig, default_config
from .errors import BudgetExceededError, InputError
from .groups import AbelianGroup, Element


@dataclass(frozen=True)
class SupportSet:
    """Sorted, duplicate-free subset of a group (zero permitted)."""

    group: AbelianGroup
    elements: tuple[Element, ...]

    @staticmethod
    def of(group: AbelianGroup, elements: Iterable[Element | tuple[int, ...] | list[int]]) -> "SupportSet":
        canon = sorted({group.element(tuple(e)) for e in elements})
        if not canon:
            raise InputError("support set must be nonempty")
        return SupportSet(group, tuple(canon))

    def __str__(self) -> str:
        return "{" + ",".join(format_element(g) for g in self.elements) + "}"


@dataclass(frozen=True)
class GSequence:
    """Multiset over a support set, stored as aligned multiplicities."""

    support: SupportSet
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.multiplicities) != len(self.support.elements):
            raise InputError("multiplicity vector does not match support size")
        if any(m < 0 for m in self.multiplicities):
            raise InputError("multiplicities must be nonnegative")

    @staticmethod
    def of(support: SupportSet, counts: dict[Element, int]) -> "GSequence":
        idx = {g: i for i, g in enumerate(support.elements)}
        mults = [0] * len(support.elements)
        for g, m in counts.items():
            g = support.group.element(g)
            if g not in idx:
                raise InputError(f"element {g} not in support")
            mults[idx[g]] += m
        return GSequence(support, tuple(mults))

    @property
    def length(self) -> int:
        return sum(self.multiplicities)

    def sigma(self) -> Element:
        """Sum of the sequence in the group."""
        G = self.support.group
        total = G.zero()
        for g, m in zip(self.support.elements, self.multiplicities):
            total = G.add(total, G.scalar_mul(m, g))
        return total

    def is_zero_sum(self) -> bool:
        return self.sigma() == self.support.group.zero()

    def mul(self, other: "GSequence") -> "GSequence":
        if other.support != self.support:
            raise InputError("sequences must share a support set")
        return GSequence(self.support, tuple(a + b for a, b in zip(self.multiplicities, other.multiplicities)))

    def __str__(self) -> str:
        parts = [
            f"{format_element(g)}^{m}" if m != 1 else format_element(g)
            for g, m in zip(self.support.elements, self.multiplicities)
            if m
        ]
        return " · ".join(parts) if parts else "(empty)"


class AtomSet:
    """A complete list of atoms over a support, with its Davenport constant.

    Stored once, as the flat views ``mult_vectors`` and ``lengths`` sorted by
    (length, vector); the ``GSequence`` objects of ``atoms`` and iteration
    are built on first use and cached.  ``vectors`` must hold the atoms of
    each length in descending order, as :func:`_atom_vectors` yields them
    (it visits prefixes in lexicographic order of their positions), so a
    stable sort of the reversed list by length alone gives that order."""

    def __init__(self, support: SupportSet, vectors: list[tuple[int, ...]]):
        self.support = support
        self.mult_vectors = tuple(sorted(reversed(vectors), key=sum))
        self.lengths = tuple(map(sum, self.mult_vectors))
        self.davenport = self.lengths[-1] if vectors else 0

    @cached_property
    def atoms(self) -> tuple[GSequence, ...]:
        return tuple(GSequence(self.support, v) for v in self.mult_vectors)

    def __len__(self) -> int:
        return len(self.mult_vectors)

    def __iter__(self):
        return iter(self.atoms)


def _achievable_sums(group: AbelianGroup, items: list[tuple[Element, int]]) -> set[Element]:
    """Sums of all nonempty sub-multisets of ``items``."""
    sums: set[Element] = set()
    for g, m in items:
        for _ in range(m):
            sums = sums | {group.add(s, g) for s in sums} | {g}
    return sums


def is_atom(seq: GSequence) -> bool:
    """True iff the sequence is a minimal nonempty zero-sum sequence."""
    if seq.length == 0 or not seq.is_zero_sum():
        return False
    if seq.length == 1:
        return True
    # drop one copy of the last present element; atom iff the rest is
    # zero-sum free (any proper zero-sum part could be chosen to avoid
    # a single fixed copy)
    G = seq.support.group
    items = [(g, m) for g, m in zip(seq.support.elements, seq.multiplicities) if m]
    g_last, m_last = items[-1]
    items[-1] = (g_last, m_last - 1)
    if items[-1][1] == 0:
        items.pop()
    return G.zero() not in _achievable_sums(G, items)


def enumerate_atoms(support: SupportSet, *, config: ResourceConfig | None = None) -> AtomSet:
    """Every atom supported in ``support``: a complete set, whose ``davenport``
    is D(support); the atom and node caps raise, never truncate it."""
    return AtomSet(support, list(_atom_vectors(support, config or default_config())))


def _atom_vectors(support: SupportSet, cfg: ResourceConfig, perms=()) -> Iterator[tuple[int, ...]]:
    """Yield the multiplicity vector of each atom over ``support`` as the DFS
    finds it, in the order that :class:`AtomSet` expects.

    Depth-first, on an explicit stack of one frame per node of the current
    path, over sorted zero-sum-free sequences.  A node carries ``nsig``, the
    index of its negated sum, and emits an atom when that completing element
    lies in the support at or after the node's last position; it also carries
    ``-Σ₀``, its negated subsequence sums with the empty sum, so its
    zero-sum-free children are the bits of the support elements at or after
    its last position outside that mask.  The walk takes them lowest bit
    first and keeps the rest in the node's frame.  Taking the child ``g``
    moves ``-Σ₀`` and ``nsig`` by the same steps of ``s -> s - g``
    (:meth:`AbelianGroup.mask_translation`), so besides the path the walk
    holds two |G|-bit masks per step of each support element and one
    |G|-entry list of support positions.  The caps on atoms yielded and on nodes raise
    :class:`BudgetExceededError`.

    ``perms``, permutations of the support positions that map atoms to
    atoms, prune the walk (orderly generation): a node and its subtree are
    dropped when some ``φ`` in ``perms`` maps the node's sorted positions
    ``P`` to a lexicographically smaller sorted tuple.  If ``φ(P) < P``, then
    ``φ(P·x) < P·x`` for every child ``x ≥ max P``, as the j-th least of
    ``φ(P·x)`` is at most the j-th of ``φ(P)``; so the least atom of every
    orbit is yielded, and D(support) with it.  A dropped node counts against
    the node cap.

    The test compares integer codes.  A multiset of positions is coded
    as ``Σ w[x]``, with ``w[x] = 2^(width·(top - 1 - x))``: each position
    owns a digit of ``width`` bits, the low positions the high digits, and
    a zero-sum-free path has fewer than |G| terms, so no digit carries and
    a code is below ``2^F``, ``F = width·top``.  Then ``φ(P) < P`` exactly
    when ``code(φ(P)) > code(P)``: at the least position where the two
    counts differ, ``φ(P)`` has more copies.  A node holds one packed
    integer with a field of ``F + 1`` bits per map (:func:`_orderly_codes`):
    field i is ``code(φ_i(P)) - code(P)`` plus the bias ``2^F - 1``, and
    ``|code(φ_i(P)) - code(P)| < 2^F``, so no field borrows or carries and
    the top bit of a field is set exactly when its difference is positive.
    A child at position x adds the column of x, ``Σ_i (w[φ_i(x)] - w[x])``
    in field i, to its parent's code, one integer add per node, and is
    dropped when the sum meets ``high``, the top bits of every field.  Only
    a node that passes the test moves ``-Σ₀`` and ``nsig`` to its own, so a
    dropped node costs that add and its count.  The digits cover the
    positions below ``top = min(k, 128)`` and the others weigh 0, so a code
    has at most 128 digits on any support.  On a larger support the
    windowed codes compare the counts below ``top`` alone: a test that
    fires still finds a true ``φ(P) < P``, so the walk drops no node that
    the exact test keeps, yields the least atom of every orbit and only
    visits more nodes.  Up to 128 positions the test is exact.
    """
    G = support.group
    n = G.order()
    sup_idx = [G.index_of(g) for g in support.elements]
    k = len(sup_idx)

    # the steps of s -> s - support[p], on the mask -Σ₀ and on the index nsig
    neg_shifts = [G.mask_translation(G.neg(g)) for g in support.elements]

    # position of each group element inside the support, -1 if absent
    pos_of = [-1] * n
    for p, gi in enumerate(sup_idx):
        pos_of[gi] = p
    # from_pos[p]: the support bits at or after position p, the lowest bit first
    from_pos = [0] * (k + 1)
    for p in range(k - 1, -1, -1):
        from_pos[p] = from_pos[p + 1] | 1 << sup_idx[p]

    counts = [0] * k
    if perms:
        cols, start, high = _orderly_codes(k, n, perms)
        # path[d]: the packed code of the parent of a node at depth d; the
        # root has no position, so path[0] is minus the column its visit adds
        path = [start - cols[0]] + [0] * n
    nodes = atoms = 0
    # the current path, one frame per node with a zero-sum-free child (a leaf
    # pushes none): (position of its last element, its mask -Σ₀, its nsig,
    # mask of the children not yet taken); a child's mask is built only when
    # the walk takes that child and it passes the orderly test, and a frame
    # keeps its own -Σ₀ (|G| bits) only while it has a child left, so a path
    # of single children, as the powers of one element, holds no |G|-bit
    # mask per node
    frames: list[tuple] = []
    # the node: its last position, and its parent's -Σ₀ and nsig with the
    # steps that move them to its own.  The root, the empty sequence, takes
    # its children from position 0 on, as a node ending there does, and has
    # no steps; zero has index 0.  Its count is never read: the walk ends
    # when it backs up past the root
    last_pos, negs, nsig, steps = 0, 1, 0, ()
    while True:
        nodes += 1
        if nodes > cfg.max_nodes:
            raise BudgetExceededError("enumeration nodes", cfg.max_nodes)
        if perms and (code := path[len(frames)] + cols[last_pos]) & high:
            free = 0  # some map sends the node's positions lower
        else:
            shifted = negs
            for keep, up, wrap, down in steps:
                shifted = ((shifted & keep) << up) | ((shifted & wrap) >> down)
                nsig = nsig + up if nsig % (up + down) < down else nsig - down
            negs |= shifted
            p = pos_of[nsig]
            if p >= last_pos:  # p is -1 outside the support
                atoms += 1
                if atoms > cfg.max_atoms:
                    raise BudgetExceededError("atom count", cfg.max_atoms)
                counts[p] += 1
                yield tuple(counts)
                counts[p] -= 1
            free = (from_pos[last_pos] | negs) ^ negs  # the children with no zero-sum subsequence
        if free:  # descend to the lowest one
            low = free & -free
            rest = free ^ low
            frames.append((last_pos, rest and negs, nsig, rest))
            if perms:
                path[len(frames)] = code
        else:  # a leaf: back up to the deepest frame with a child left
            counts[last_pos] -= 1
            while frames:
                last_pos, negs, nsig, free = frames[-1]
                if free:
                    low = free & -free
                    rest = free ^ low
                    frames[-1] = (last_pos, rest and negs, nsig, rest)
                    break
                frames.pop()
                counts[last_pos] -= 1
            else:
                break  # every frame is exhausted
        last_pos = pos_of[low.bit_length() - 1]
        steps = neg_shifts[last_pos]
        counts[last_pos] += 1


def _orderly_codes(k: int, n: int, perms) -> tuple[list[int], int, int]:
    """The packed orderly test of ``_atom_vectors`` over ``k`` support
    positions of a group of order ``n``: ``cols[x]``, what a position ``x``
    adds to a code, the code ``start`` of the empty multiset, and ``high``.
    A multiset ``P`` of positions codes as ``start + Σ cols[x]``, and some
    ``φ`` in ``perms`` maps it to a smaller sorted tuple exactly when
    ``code & high`` is nonzero, for fewer than ``n`` positions in ``P``;
    past 128 positions, only the counts of the first 128 are compared."""
    top, width = min(k, 128), n.bit_length()
    w = [1 << width * (top - 1 - x) for x in range(top)] + [0] * (k - top)
    field = width * top + 1  # F + 1 bits, F those of the largest code
    ones = sum(1 << field * i for i in range(len(perms)))
    cols = [sum(w[perm[x]] - w[x] << field * i for i, perm in enumerate(perms)) for x in range(k)]
    # each field holds its difference plus 2^F - 1, so its top bit is set
    # exactly when the difference is positive
    return cols, ((1 << field - 1) - 1) * ones, ones << field - 1


def full_support(group: AbelianGroup) -> SupportSet:
    return SupportSet.of(group, group.elements())


# -- literals ---------------------------------------------------------------

def format_element(g: Element) -> str:
    if len(g) == 1:
        return str(g[0])
    return "(" + ",".join(str(r) for r in g) + ")"


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise InputError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


_TUPLE = re.compile(r"^\(([-\d,\s]*)\)$")


def parse_element(group: AbelianGroup, text: str) -> Element:
    text = text.strip()
    m = _TUPLE.match(text)
    try:
        coords = [int(t) for t in m.group(1).split(",") if t.strip()] if m else [int(text)]
    except ValueError:  # a malformed coordinate or bare integer
        raise InputError(f"bad element literal {text!r}") from None
    if not m and group.rank() != 1:
        raise InputError(f"element {text!r} needs {group.rank()} coordinates, e.g. {format_element(group.zero())}")
    return group.element(coords)


def parse_support(group: AbelianGroup, text: str) -> SupportSet:
    """Parse e.g. ``1,3,7,9`` or ``(1,0),(0,1),(1,1)``."""
    return SupportSet.of(group, [parse_element(group, t) for t in _split_top_level(text)])


def parse_sequence(group: AbelianGroup, text: str) -> GSequence:
    """Parse e.g. ``1^10,9^10`` into a sequence over its own support."""
    counts: dict[Element, int] = {}
    for token in _split_top_level(text):
        if "^" in token:
            elem_text, _, mult_text = token.rpartition("^")
            try:
                mult = int(mult_text)
            except ValueError:
                raise InputError(f"bad multiplicity in {token!r}") from None
            if mult < 0:
                raise InputError(f"negative multiplicity in {token!r}")
        else:
            elem_text, mult = token, 1
        g = parse_element(group, elem_text)
        counts[g] = counts.get(g, 0) + mult
    if not counts:
        raise InputError("empty sequence literal")
    support = SupportSet.of(group, counts.keys())
    return GSequence.of(support, counts)
