"""Sets of lengths, distance sets, elasticity, and the exact minimum distance.

The minimum distance of a support is computed on the integer kernel of the
atom matrix: a kernel vector splits into the difference of two factorizations
of a common element, so the coordinate-sum functional ranges exactly over the
achievable length differences.  Its gcd over the kernel lattice therefore
equals the gcd of all distances, which is the minimum distance.  The gcd of a
linear functional over a lattice is reached on any generating set, so no
individual factorizations ever need to be expanded, and the reduction stops
reading generators once the gcd of the kernel vectors found so far is 1.

Sets of lengths count atoms in one step loop (:func:`_count_atoms`): every
cell of a finite set is one bit of an int, one step ORs the shifted, masked
copies of the reachable cells for every atom, and L(B) holds k when B's own
cell is reached after k steps.  A zero-sum length set, and each of the two
searches of the extreme-elasticity witness, runs it over the dense box of
sub-multisets of the target (:func:`_submultiset_bits`), numbered in mixed
radix; rank-one length sets in :mod:`zslen.fp` run it over value x class
cells.  Each caller checks its cells against ``max_states`` before any mask
is built.

Rational quantities use :class:`fractions.Fraction` throughout; no floating
point enters any invariant computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .config import ResourceConfig, default_config
from .errors import BudgetExceededError, InputError
from .sequences import AtomSet, GSequence, SupportSet, enumerate_atoms


@dataclass(frozen=True)
class LengthSet:
    """A finite, sorted set of factorization lengths.

    Nonempty by construction; units carry the conventional set {0}.
    """

    values: tuple[int, ...]

    @staticmethod
    def of(values) -> "LengthSet":
        vals = tuple(sorted(set(values)))
        if not vals:
            raise InputError("length sets are nonempty (units get {0})")
        if vals[0] < 0:
            raise InputError("lengths are nonnegative")
        return LengthSet(vals)

    @property
    def min(self) -> int:
        return self.values[0]

    @property
    def max(self) -> int:
        return self.values[-1]

    def rho(self) -> Fraction:
        """Elasticity max/min, with rho({0}) = 1."""
        if self.values == (0,):
            return Fraction(1)
        if self.min == 0:
            raise InputError("0 can only appear in the unit length set {0}")
        return Fraction(self.max, self.min)

    def delta(self) -> tuple[int, ...]:
        """Successive differences."""
        return tuple(b - a for a, b in zip(self.values, self.values[1:]))

    def __contains__(self, k: int) -> bool:
        return k in self.values

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.values)) + "}"


def sumset(a: LengthSet, b: LengthSet) -> LengthSet:
    return LengthSet.of(x + y for x in a.values for y in b.values)


# -- integer kernel of the atom matrix --------------------------------------

def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _vanishing_part(vectors, nrows: int):
    """Unimodular pivot reduction of ``vectors``: yields, once it is reduced,
    each vector that becomes no pivot.  These vanish on the first ``nrows``
    coordinates and span exactly the part of the lattice that does (a basis
    of it when ``vectors`` are linearly independent), since the pivots are
    independent there."""
    pivots: list[list[int] | None] = [None] * nrows
    for vec in vectors:
        v = list(vec)
        for i in range(nrows):
            if v[i] == 0:
                continue
            p = pivots[i]
            if p is None:
                pivots[i] = v
                break
            a, b = p[i], v[i]
            if b % a == 0:
                q = b // a
                for j in range(i, len(v)):
                    v[j] -= q * p[j]
            else:
                d, x, y = _extgcd(a, b)
                qa, qb = a // d, b // d
                pivots[i] = [x * pj + y * vj for pj, vj in zip(p, v)]
                v = [qa * vj - qb * pj for pj, vj in zip(p, v)]
        else:
            yield v


def _functional_gcd(columns, nrows: int) -> int:
    """gcd of the final coordinate over lattice vectors vanishing on the
    first ``nrows`` coordinates; the lattice is spanned by ``columns``
    (integer vectors of size nrows + 1).  Each vanishing vector lies in the
    lattice, so the gcd stops at 1 and reads no further column."""
    g = 0
    for v in _vanishing_part(columns, nrows):
        g = gcd(g, v[nrows])
        if g == 1:
            break
    return g


def kernel_basis_of(mult_vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Basis of the full integer kernel {x : sum_j x_j * vec_j = 0}.

    Reduces the vectors augmented with the identity; the identity part of
    each reduced vector whose vector part vanishes is a kernel vector, and
    together they form a basis of the kernel lattice.
    """
    t = len(mult_vectors)
    r = len(mult_vectors[0]) if t else 0
    rows = [tuple(v) + tuple(1 if j == i else 0 for j in range(t)) for i, v in enumerate(mult_vectors)]
    return [tuple(v[r:]) for v in _vanishing_part(rows, r)]


def min_delta_of_atoms(atoms: AtomSet) -> int | None:
    """Minimum distance of the monoid generated by the given atoms.

    gcd of the coordinate-sum functional over the kernel lattice; None when
    the functional vanishes there (the half-factorial case, empty distance
    set).
    """
    nrows = len(atoms.support.elements)
    return _functional_gcd((v + (1,) for v in atoms.mult_vectors), nrows) or None


def min_delta(support: SupportSet, *, config: ResourceConfig | None = None) -> int | None:
    """Exact min of the distance set of the support, or None when empty."""
    return min_delta_of_atoms(enumerate_atoms(support, config=config))


# -- length sets -------------------------------------------------------------

def _set_bits(bits: int) -> tuple[int, ...]:
    """The indices of the set bits of ``bits``, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _repeat(piece: int, width: int, count: int) -> int:
    """``count`` copies of the ``width``-bit ``piece`` side by side, by doubling."""
    out = 0
    while count:
        if count & 1:
            out = out << width | piece
        piece |= piece << width
        width *= 2
        count >>= 1
    return out


def _count_atoms(terms, top: int) -> int:
    """Length bitset of cell ``top``: bit k is set when ``top`` is reached
    from cell 0 in k steps.

    ``reach`` is an int with one bit per cell.  Each term ``(masks,
    offsets)`` of one step ANDs ``reach`` with every mask and ORs the result
    shifted by every offset into the next ``reach``, which is then cut to
    the cells ``0..top``.  Offsets are positive, so ``reach`` moves up and
    the loop ends when it is 0.
    """
    cells = (1 << top + 1) - 1
    bits, k, reach = 0, 0, 1
    while reach:
        bits |= (reach >> top & 1) << k
        step = 0
        for masks, offsets in terms:
            r = reach
            for mask in masks:
                r &= mask
            for off in offsets:
                step |= r << off
        reach = step & cells
        k += 1
    return bits


def _submultiset_bits(target: tuple[int, ...], vectors, cfg: ResourceConfig) -> int:
    """Length bitset of ``target`` as a sum of the given vectors.

    Counts vectors with :func:`_count_atoms` over the box of every ``x <=
    target``: cell ``x`` is bit ``sum_i x_i * stride_i`` of an int, numbered
    in mixed radix ``t_i + 1``, and the target's own cell is the top one.  A
    vector ``a`` is one term: ``reach & keep_a`` shifted by the cell number
    of ``a`` moves every ``x`` with ``x + a <= target`` to ``x + a``; no
    digit carries, so the shift is exact and the cut to the box removes
    nothing.  ``keep_a`` is one cached digit mask per coordinate that ``a``
    uses, the cells whose digit ``i`` is at most ``t_i - a_i``.

    The box's cells count against ``max_states``, checked before any mask is
    built.  The big ints held are one digit mask per distinct (coordinate,
    multiplicity) pair, the box's cells, ``reach`` and the next ``reach``,
    each of at most ``max_states`` bits, and the temporaries of one term.
    """
    strides = [1]
    for t in target:
        strides.append(strides[-1] * (t + 1))
    cells = strides[-1]
    if cells > cfg.max_states:
        raise BudgetExceededError("length-set box cells", cfg.max_states)
    digit_masks: dict[tuple[int, int], int] = {}
    terms = []
    for v in vectors:
        if any(a > t for a, t in zip(v, target)):
            continue
        keeps = []
        for i, a in enumerate(v):
            if a:
                mask = digit_masks.get((i, a))
                if mask is None:
                    piece = (1 << (target[i] - a + 1) * strides[i]) - 1
                    mask = _repeat(piece, strides[i + 1], cells // strides[i + 1])
                    digit_masks[i, a] = mask
                keeps.append(mask)
        terms.append((keeps, (sum(a * s for a, s in zip(v, strides)),)))
    return _count_atoms(terms, cells - 1)


def _check_same_support(seq: GSequence, atoms: AtomSet):
    if seq.support != atoms.support:
        raise InputError("sequence and atom set must share a support set")


def length_set(seq: GSequence, atoms: AtomSet, *, config: ResourceConfig | None = None) -> LengthSet:
    """Exact set of factorization lengths of a zero-sum sequence.

    Atoms are counted over the box of sub-multisets of the sequence, one bit
    per sub-multiset, so permuted factorizations reach the same bit.
    """
    cfg = config or default_config()
    _check_same_support(seq, atoms)
    if not seq.is_zero_sum():
        raise InputError("length sets are defined for zero-sum sequences only")
    bits = _submultiset_bits(seq.multiplicities, atoms.mult_vectors, cfg)
    if not bits:
        raise InputError("sequence admits no factorization over the given atoms")
    return LengthSet(_set_bits(bits))


def max_elasticity_witness(seq: GSequence, atoms: AtomSet, *, config: ResourceConfig | None = None) -> bool:
    """Whether the sequence realizes the extreme elasticity of its support.

    Equivalent to one factorization entirely into atoms of maximal length and
    one entirely into atoms of length 2.
    """
    cfg = config or default_config()
    _check_same_support(seq, atoms)
    if seq.length == 0:
        return False
    D = atoms.davenport
    v = seq.multiplicities
    longest = [a for a, n in zip(atoms.mult_vectors, atoms.lengths) if n == D]
    pairs = [a for a, n in zip(atoms.mult_vectors, atoms.lengths) if n == 2]
    return bool(_submultiset_bits(v, longest, cfg)) and bool(_submultiset_bits(v, pairs, cfg))
