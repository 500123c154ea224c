"""Brute-force oracles, deliberately independent of the library's algorithms.

Everything here enumerates definitions directly (all sub-multisets, all
factorizations, all decompositions) and is only usable at toy sizes; tests
freeze oracle outputs or compare them live against the production paths.
"""

from __future__ import annotations

from itertools import product

from zslen.groups import AbelianGroup
from zslen.sequences import GSequence, SupportSet


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


def brute_aap(values: tuple[int, ...], d: int):
    """Best AAP decomposition by exhaustive split search.

    Tries every way to cut the sorted set into head | core | tail with the
    core an exact d-progression; returns (ell, M, y) for the best witness
    under (max ell, min M, min y), or None if no decomposition exists.
    """
    vals = sorted(values)
    best = None
    n = len(vals)
    for start in range(n):
        for end in range(start, n):
            core = vals[start : end + 1]
            if any(b - a != d for a, b in zip(core, core[1:])):
                continue
            y = core[0]
            if any((v - y) % d for v in vals):
                continue
            ell = len(core) - 1
            head = [v - y for v in vals[:start]]
            tail = [v - y for v in vals[end + 1 :]]
            M = max([0] + [-t for t in head] + [t - ell * d for t in tail])
            key = (-ell, M, y)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return (-best[0], best[1], best[2])


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
