"""Brute-force oracles, deliberately independent of the library's algorithms.

Everything here enumerates definitions directly (all sub-multisets, all
factorizations, all decompositions) and is only usable at toy sizes; tests
freeze oracle outputs or compare them live against the production paths.
"""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import product
from math import gcd

from zslen.cf import cf_regular
from zslen.errors import InputError
from zslen.groups import AbelianGroup
from zslen.lengths import min_delta_of_atoms
from zslen.sequences import AtomSet, GSequence, SupportSet, enumerate_atoms, full_support


def all_submultisets(counts: tuple[int, ...]):
    return product(*(range(c + 1) for c in counts))


def brute_is_atom(support: SupportSet, counts: tuple[int, ...]) -> bool:
    """Definitional atom check: zero sum, nonempty, no proper nonempty
    zero-sum sub-multiset."""
    G = support.group
    total = sum(counts)
    if total == 0:
        return False

    def sigma(vec):
        s = G.zero()
        for g, m in zip(support.elements, vec):
            s = G.add(s, G.scalar_mul(m, g))
        return s

    if sigma(counts) != G.zero():
        return False
    for sub in all_submultisets(counts):
        if sub == counts or not any(sub):
            continue
        if sigma(sub) == G.zero():
            return False
    return True


def brute_atoms(support: SupportSet, max_len: int) -> set[tuple[int, ...]]:
    """All atoms up to the length bound by exhaustive vector scan."""
    k = len(support.elements)
    out = set()

    def rec(i: int, counts: list[int], total: int):
        if i == k:
            if brute_is_atom(support, tuple(counts)):
                out.add(tuple(counts))
            return
        for c in range(max_len - total + 1):
            counts[i] = c
            rec(i + 1, counts, total + c)
            counts[i] = 0

    rec(0, [0] * k, 0)
    return out


def brute_length_set(seq: GSequence, atom_vectors: list[tuple[int, ...]]) -> set[int]:
    """Lengths of all factorizations, enumerated with non-increasing atom
    index (no memoization; independent of the production recursion)."""
    lengths: set[int] = set()
    target = seq.multiplicities

    def rec(v: tuple[int, ...], max_idx: int, used: int):
        if not any(v):
            lengths.add(used)
            return
        for j in range(max_idx, -1, -1):
            a = atom_vectors[j]
            w = tuple(x - y for x, y in zip(v, a))
            if all(x >= 0 for x in w):
                rec(w, j, used + 1)

    rec(target, len(atom_vectors) - 1, 0)
    return lengths


def brute_distance_gcd(support: SupportSet, atom_vectors: list[tuple[int, ...]], bound: int) -> int | None:
    """gcd of the gaps of the length sets of every zero-sum sequence over the
    support with at most ``bound`` terms (every vector of that size is tried;
    length sets by :func:`brute_length_set`), None when no set has a gap."""
    g = 0
    for vec in product(range(bound + 1), repeat=len(support.elements)):
        seq = GSequence(support, vec)
        if sum(vec) > bound or not seq.is_zero_sum():
            continue
        vals = sorted(brute_length_set(seq, atom_vectors))
        for a, b in zip(vals, vals[1:]):
            g = gcd(g, b - a)
    return g or None


def support_elements(seq: GSequence) -> frozenset:
    """The elements that occur in ``seq``."""
    return frozenset(g for g, m in zip(seq.support.elements, seq.multiplicities) if m)


def g_norm(seq: GSequence, g) -> int:
    """Sum of discrete logs base ``g`` divided by ord(g), for zero-sum input.

    Each element ``h`` of the sequence must lie in the cyclic subgroup
    generated by ``g``; its log is taken in ``[1, ord(g)]`` (the zero element
    counts as a full period).
    """
    G = seq.support.group
    g = G.element(g)
    order = G.element_order(g)
    logs = {}
    cur = g
    for e in range(1, order + 1):
        logs.setdefault(cur, e)
        cur = G.add(cur, g)
    total = 0
    for h, m in zip(seq.support.elements, seq.multiplicities):
        if not m:
            continue
        if h not in logs:
            raise InputError(f"element {h} outside the subgroup generated by {g}")
        total += m * logs[h]
    if total % order:
        raise InputError("norm is only defined for zero-sum sequences")
    return total // order


def brute_fp_length_set(atoms: list[tuple[int, int]], q: int, x: tuple[int, int]) -> set[int]:
    """Lengths of all factorizations of ``x = (class, value)`` over
    ``(class, value)`` atoms, enumerated with non-increasing atom index: a
    factorization counts when its values sum to the value of ``x`` and its
    classes to the class of ``x`` mod q (no memoization)."""
    lengths: set[int] = set()
    target_cls, target_val = x

    def rec(val: int, cls: int, max_idx: int, used: int):
        if val == target_val:
            if (cls - target_cls) % q == 0:
                lengths.add(used)
            return
        for j in range(max_idx, -1, -1):
            ac, av = atoms[j]
            if val + av <= target_val:
                rec(val + av, cls + ac, j, used + 1)

    rec(0, 0, len(atoms) - 1, 0)
    return lengths


def _fp_reachable(q: int, gens, cap: int) -> list[list[bool]]:
    """``reach[c][v]``: some product of the ``(class, value)`` generators has
    unit class c mod q and value v, filled value by value up to ``cap``."""
    reach = [[False] * (cap + 1) for _ in range(q)]
    reach[0][0] = True
    for v in range(1, cap + 1):
        for c in range(q):
            reach[c][v] = any(gv <= v and reach[(c - gc) % q][v - gv] for gc, gv in gens)
    return reach


def brute_fp_atoms(q: int, gens) -> list[tuple[int, int]]:
    """Atoms of the rank-one monoid generated by ``(class, value)`` pairs,
    searched among all its elements of value up to 3 * max generator value:
    the nonzero elements that are no sum of two nonzero elements, sorted by
    (value, class).  An atom above the generators would show up here."""
    gens = [(c % q, v) for c, v in gens]
    cap = 3 * max(v for _, v in gens)
    reach = _fp_reachable(q, gens, cap)
    atoms = []
    for v in range(1, cap + 1):
        for c in range(q):
            if reach[c][v] and not any(
                reach[c1][v1] and reach[(c - c1) % q][v - v1]
                for v1 in range(1, v) for c1 in range(q)
            ):
                atoms.append((c, v))
    return atoms


def brute_fp_tail_window(q: int, gens, cap: int) -> int | None:
    """Smallest alpha such that every unit class is reached at every value of
    the window [alpha, alpha + w), w the least generator value, inside
    [1, cap]; None when no such window fits.  From such a window on, adding
    generators covers every value, so the monoid reaches every class at all
    large values."""
    reach = _fp_reachable(q, gens, cap)
    width = min(v for _, v in gens)
    run = 0
    for v in range(1, cap + 1):
        run = run + 1 if all(reach[c][v] for c in range(q)) else 0
        if run >= width:
            return v - width + 1
    return None


def _maximal_atom_classes(G: AbelianGroup, atoms) -> set[frozenset]:
    elements = G.elements()
    return {
        frozenset(g for g, m in zip(elements, v) if m) | {G.neg(g) for g, m in zip(elements, v) if m}
        for v, length in zip(atoms.mult_vectors, atoms.lengths) if length == atoms.davenport
    }


def full_enumeration_classes(G: AbelianGroup) -> set[frozenset]:
    """The negation-closed supports of the atoms of maximal length, read off
    every atom of the whole group."""
    return _maximal_atom_classes(G, enumerate_atoms(full_support(G)))


def full_enumeration_star(G: AbelianGroup) -> frozenset[int]:
    """Star set from every atom of the whole group: the classes are the
    negation-closed supports of the atoms of maximal length, unions of classes
    grow one class at a time except from a union of value 1 (its supersets
    have value 1 too), and a union's value is the kernel ``min Δ`` of the
    full-group atoms inside it (no gcd shortcut, no orbits, no divisor
    pruning)."""
    atoms = enumerate_atoms(full_support(G))
    elements = G.elements()
    supports = [frozenset(g for g, m in zip(elements, v) if m) for v in atoms.mult_vectors]
    classes = _maximal_atom_classes(G, atoms)

    def value(union):
        inside = [v for v, s in zip(atoms.mult_vectors, supports) if s <= union]
        return min_delta_of_atoms(AtomSet(atoms.support, inside))

    values = set()
    level = classes
    while level:
        valued = {u: value(u) for u in level}
        values.update(valued.values())
        level = {u | c for u, v in valued.items() if v != 1 for c in classes if not c <= u}
    return frozenset(values)


def brute_force_automorphisms(G: AbelianGroup) -> list[dict]:
    """Every automorphism of G as a dict from element to image.  A
    homomorphism is fixed by any images ``h_i`` of the basis vectors with
    ``n_i h_i = 0``, and it is bijective exactly when it is injective.  The
    images are chosen one basis vector at a time, and a choice is dropped as
    soon as the map on the span of the basis vectors so far repeats an
    image."""
    elements = G.elements()
    where = {g: j for j, g in enumerate(elements)}
    plus = [[where[G.add(g, h)] for h in elements] for g in elements]
    factors = G.invariant_factors
    basis = [where[tuple(int(i == k) for k in range(len(factors)))] for i in range(len(factors))]
    choices = [[where[h] for h in elements if G.scalar_mul(n, h) == G.zero()] for n in factors]
    automorphisms = []

    def extend(i: int, pairs: list[tuple[int, int]]):
        # pairs: (x, image of x) for every x in the span of the first i basis vectors
        if i == len(factors):
            automorphisms.append({elements[x]: elements[y] for x, y in pairs})
            return
        for h in choices[i]:
            grown, hit = list(pairs), {y for _, y in pairs}
            step_x, step_y = basis[i], h  # a e_i and a h for a = 1, ..., n_i - 1
            for _ in range(factors[i] - 1):
                for x, y in pairs:
                    image = plus[y][step_y]
                    if image in hit:
                        break
                    hit.add(image)
                    grown.append((plus[x][step_x], image))
                else:
                    step_x, step_y = plus[step_x][basis[i]], plus[step_y][h]
                    continue
                break
            else:
                extend(i + 1, grown)

    extend(0, [(where[G.zero()], where[G.zero()])])
    return automorphisms


def orderly_atoms(support: SupportSet, perms) -> tuple[list[tuple[int, ...]], int]:
    """The atoms over ``support`` that an orderly walk keeps, in the order it
    finds them, and the number of nodes it visits.

    The walk goes depth first over sorted tuples ``P`` of support positions
    whose sequences are zero-sum free, the children of ``P`` in increasing
    order of the position ``x >= max P`` they append.  ``P·x`` is zero-sum
    free exactly when ``-g_x`` is not a sum of a subsequence of ``P``, the
    empty one included; those sums are kept as a set of elements and grown
    as ``Σ₀(P·x) = Σ₀(P) ∪ (Σ₀(P) + g_x)``.  A node other than the root is
    dropped, subtree and atom with it, when a map ``φ`` in ``perms`` with
    ``φ(x) < x`` for its last position ``x`` gives ``sorted(φ(P)) < P``.  A
    kept node ``P`` yields the atom ``P·q`` when ``-Σ(P)`` is the element of
    a position ``q >= max P``.  Every node, a dropped one too, is counted."""
    G, elements = support.group, support.elements
    where = {g: j for j, g in enumerate(elements)}
    atoms, nodes = [], 0

    def visit(path: tuple[int, ...], sums: frozenset):
        nonlocal nodes
        nodes += 1
        last = path[-1] if path else 0
        if path and any(sorted(perm[x] for x in path) < list(path) for perm in perms if perm[last] < last):
            return
        total = G.zero()
        for x in path:
            total = G.add(total, elements[x])
        q = where.get(G.neg(total), -1)
        if q >= last:
            atoms.append(tuple((path + (q,)).count(j) for j in range(len(elements))))
        for x in range(last, len(elements)):
            if G.neg(elements[x]) not in sums:
                visit(path + (x,), sums | {G.add(s, elements[x]) for s in sums})

    visit((), frozenset({G.zero()}))
    return atoms, nodes


def orbits_of_sets(sets, automorphisms) -> set[frozenset]:
    """The orbits of ``sets`` (frozensets of elements) under the given
    automorphisms, each a frozenset of frozensets; the automorphisms must
    form a group for these to be orbits."""
    left = set(sets)
    orbits = set()
    while left:
        s = min(left, key=sorted)
        orbit = frozenset(frozenset(phi[g] for g in s) for phi in automorphisms)
        left -= orbit
        orbits.add(orbit)
    return orbits


def qualifying_supports(G: AbelianGroup) -> list[tuple[SupportSet, tuple[GSequence, ...]]]:
    """Every support of an element of extreme elasticity: each union of the
    negation-closed supports of the atoms of maximal length, as a frozenset
    of elements (the unpruned walk: every union, no bitmasks, no shortcut),
    paired with the maximal-length atoms whose support lies inside it."""
    atoms = enumerate_atoms(full_support(G))
    longest = [
        GSequence(atoms.support, v)
        for v, length in zip(atoms.mult_vectors, atoms.lengths) if length == atoms.davenport
    ]
    classes = {support_elements(a) | {G.neg(g) for g in support_elements(a)} for a in longest}
    unions: set[frozenset] = set()
    for c in classes:
        unions |= {u | c for u in unions} | {c}
    return [
        (SupportSet.of(G, u), tuple(a for a in longest if support_elements(a) <= u))
        for u in sorted(unions, key=sorted)
    ]


def subgroup_generated(G: AbelianGroup, gens) -> set:
    """Closure under addition, written as plain fixed-point iteration."""
    elems = {G.zero()}
    changed = True
    while changed:
        changed = False
        for h in list(elems):
            for g in gens:
                s = G.add(h, G.element(g))
                if s not in elems:
                    elems.add(s)
                    changed = True
    return elems


def words(code: str, witnesses) -> bytes:
    """``witnesses`` packed by ``struct`` as little-endian words of ``code``."""
    return struct.pack(f"<{len(witnesses)}{code}", *witnesses)


def checkpoint_record(lo: int, hi: int, code: str, raw: bytes, length: int | None = None) -> bytes:
    """One scan checkpoint record under a valid seal: the header line
    ``scan lo hi code length seal``, the bytes ``raw`` and a newline.  The
    length is len(raw) unless given; the seal is the sha256 hex of the
    header up to the length, a newline and ``raw``."""
    head = f"scan {lo} {hi} {code} {len(raw) if length is None else length}".encode()
    return head + b" " + hashlib.sha256(head + b"\n" + raw).hexdigest().encode() + b"\n" + raw + b"\n"


def read_checkpoint(data: bytes) -> list[tuple[int, int, str, bytes]]:
    """(lo, hi, typecode, words) of each record of a checkpoint that holds
    whole records alone, each checked against its seal and its newline."""
    records = []
    while data:
        line, _, data = data.partition(b"\n")
        head, _, seal = line.rpartition(b" ")
        tag, lo, hi, code, length = head.decode().split(" ")
        raw, end, data = data[:int(length)], data[int(length):int(length) + 1], data[int(length) + 1:]
        assert (tag, end) == ("scan", b"\n")
        assert seal == hashlib.sha256(head + b"\n" + raw).hexdigest().encode()
        records.append((int(lo), int(hi), code, raw))
    return records


def sealed_checkpoint_line(payload) -> str:
    """One scan checkpoint line in the older JSON-line format, holding
    ``payload`` under a valid seal: the sha256 hex of the payload's JSON, a
    space, then that JSON."""
    text = json.dumps(payload)
    return f"{hashlib.sha256(text.encode()).hexdigest()} {text}\n"


def object_checkpoint_line(record: dict) -> str:
    """A checkpoint line in the older object format: ``record`` plus a
    ``sha256`` key, the sha256 of the record as canonical JSON (sorted keys)."""
    text = json.dumps(record, sort_keys=True)
    return json.dumps(dict(record, sha256=hashlib.sha256(text.encode()).hexdigest())) + "\n"


def smallest_witness(n: int) -> int:
    """Smallest a in [2, n // 2], coprime to n, with gcd(q0 - 1, q1, ...,
    q_{m-1}, q_m - 1) > 1 over the regular quotient list [q0; ..., q_m] of
    n/a, read from ``cf_regular``; 0 when there is none."""
    for a in range(2, n // 2 + 1):
        if gcd(a, n) == 1:
            qs = cf_regular(n, a).quotients
            if gcd(qs[0] - 1, *qs[1:-1], qs[-1] - 1) > 1:
                return a
    return 0
