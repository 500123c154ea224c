import os
import random
import time
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen.config import ResourceConfig, default_config
from zslen.errors import BudgetExceededError, InputError
from zslen.groups import cyclic, make_group, parse_group
from zslen.sequences import (
    GSequence,
    SupportSet,
    _atom_vectors,
    _orderly_codes,
    enumerate_atoms,
    full_support,
    is_atom,
    parse_sequence,
    parse_support,
)

from oracles import brute_atoms, brute_force_automorphisms, brute_is_atom, orderly_atoms


def seq(group, pairs):
    support = SupportSet.of(group, [g for g, _ in pairs])
    return GSequence.of(support, dict(pairs))


def test_is_zero_sum():
    C5 = cyclic(5)
    sup = SupportSet.of(C5, [(1,)])
    assert GSequence(sup, (0,)).is_zero_sum()  # empty sequence
    assert GSequence(sup, (5,)).is_zero_sum()
    assert not GSequence(sup, (4,)).is_zero_sum()


def test_is_atom_examples():
    C5 = cyclic(5)
    assert is_atom(seq(C5, [((1,), 5)]))
    C4 = cyclic(4)
    assert not is_atom(seq(C4, [((1,), 2), ((3,), 2)]))
    assert is_atom(seq(C4, [((1,), 1), ((3,), 1)]))
    assert is_atom(seq(C4, [((0,), 1)]))
    assert not is_atom(seq(C4, [((0,), 2)]))


@pytest.mark.parametrize("factors,support", [
    ([4], [(1,), (3,)]),
    ([5], [(1,), (2,)]),
    ([6], [(1,), (4,), (3,)]),
    ([2, 2], [(0, 1), (1, 0), (1, 1)]),
    ([8], [(2,), (6,), (0,)]),
])
def test_is_atom_matches_brute_oracle(factors, support):
    G = make_group(factors)
    sup = SupportSet.of(G, support)
    k = len(sup.elements)
    rng = random.Random(99)
    for _ in range(150):
        counts = tuple(rng.randint(0, 4) for _ in range(k))
        got = is_atom(GSequence(sup, counts)) if sum(counts) else False
        assert got == brute_is_atom(sup, counts)


def test_enumerate_atoms_small_symmetric_pair():
    C4 = cyclic(4)
    sup = SupportSet.of(C4, [(1,), (3,)])
    atoms = enumerate_atoms(sup)
    got = {a.multiplicities for a in atoms}
    assert got == {(1, 1), (4, 0), (0, 4)}
    assert atoms.davenport == 4
    assert got == brute_atoms(sup, 4)


@pytest.mark.parametrize("factors,support_size", [
    ([5], 3), ([6], 3), ([7], 2), ([2, 4], 3), ([3, 3], 2), ([9], 2),
])
def test_enumeration_matches_brute_oracle(factors, support_size):
    rng = random.Random(4321)
    G = make_group(factors)
    elems = list(G.elements())
    for _ in range(4):
        sup = SupportSet.of(G, rng.sample(elems, support_size))
        atoms = enumerate_atoms(sup)
        assert {a.multiplicities for a in atoms} == brute_atoms(sup, G.order())


@pytest.mark.parametrize("factors,elems", [
    ([10], [(1,), (3,), (7,), (9,)]),
    ([2, 4], [(0, 1), (1, 0), (1, 1), (1, 3)]),
    ([6], [(0,), (2,), (3,), (5,)]),
])
def test_atom_set_views_agree(factors, elems):
    atoms = enumerate_atoms(SupportSet.of(make_group(factors), elems))
    seqs = atoms.atoms
    assert list(atoms) == list(seqs) and atoms.atoms is seqs
    assert len(atoms) == len(seqs) == len(atoms.mult_vectors) == len(atoms.lengths)
    assert atoms.mult_vectors == tuple(a.multiplicities for a in seqs)
    assert atoms.lengths == tuple(a.length for a in seqs)
    assert all(a.support == atoms.support and a.is_zero_sum() for a in seqs)
    keys = [(a.length, a.multiplicities) for a in seqs]
    assert keys == sorted(keys)
    assert atoms.davenport == max(atoms.lengths)


def test_enumeration_depth_is_not_limited_by_recursion():
    # the zero-sum-free sequences 1^k, k < 1500, make a path 1499 nodes deep
    sup = parse_support(cyclic(1500), "1,1499")
    atoms = enumerate_atoms(sup)
    assert atoms.mult_vectors == ((1, 1), (0, 1500), (1500, 0))
    assert atoms.davenport == 1500


def test_atom_budget_stops_a_large_group_early():
    # the sum table has |support| * |G| = 9 million entries; building it
    # before the first budget check took about 15 s; a search stack that held
    # one 3000-bit subsum mask per pending child peaked above 100 MB
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            enumerate_atoms(full_support(cyclic(3000)), config=ResourceConfig(max_atoms=100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 10 * 2**20


def _walk_visits_exactly(sup, nodes, atom_count):
    assert len(enumerate_atoms(sup, config=ResourceConfig(max_nodes=nodes))) == atom_count
    with pytest.raises(BudgetExceededError, match=f"enumeration nodes \\(limit {nodes - 1}\\)"):
        enumerate_atoms(sup, config=ResourceConfig(max_nodes=nodes - 1))


@pytest.mark.parametrize("factors,nodes,atom_count", [
    ([2, 2, 6], 57419, 12240),
    ([5, 5], 138865, 31029),
    ([3, 3, 3], 138425, 27912),
])
def test_full_group_walk_visits_an_exact_node_count(factors, nodes, atom_count):
    # the DFS visits exactly one node per zero-sum-free sequence in canonical
    # order; a change in which children are walked or counted moves the count
    _walk_visits_exactly(full_support(make_group(factors)), nodes, atom_count)


def _order_3_or_6(group):
    return [g for g in group.elements() if group.element_order(g) in (3, 6)]


def _units(n):
    return [(u,) for u in range(n) if gcd(u, n) == 1]


@pytest.mark.parametrize("factors,elements,nodes,atom_count", [
    ([2, 2, 6], _order_3_or_6(make_group([2, 2, 6])), 14677, 2446),
    ([30], _units(30), 2943, 286),
])
def test_sub_support_walk_visits_an_exact_node_count(factors, elements, nodes, atom_count):
    # supports whose positions are not the group indices: 16 of the 24
    # elements of C2xC2xC6, without 0, and the 8 units of C30 (the union of
    # all four unit classes that the cyclic walk enumerates over)
    _walk_visits_exactly(SupportSet.of(make_group(factors), elements), nodes, atom_count)


@st.composite
def supports_with_zero_and_involutions(draw):
    """A support with 0, an element of order 2 and up to three more elements,
    in a group of even order at most 8."""
    G = make_group(draw(st.sampled_from([[2], [4], [6], [8], [2, 2], [2, 4], [2, 2, 2]])))
    elems = G.elements()
    involutions = [g for g in elems if G.element_order(g) == 2]
    rest = draw(st.lists(st.sampled_from(elems), max_size=3))
    return SupportSet.of(G, [G.zero(), draw(st.sampled_from(involutions)), *rest])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(supports_with_zero_and_involutions())
def test_enumeration_matches_brute_oracle_with_zero_and_involutions(sup):
    # 0 is an atom on its own and never a child; an element of order 2 is its
    # own negative, so its bit of -Σ₀ is set by its own sum.  The atoms come
    # in (length, vector) order, which AtomSet gets from the DFS's emission
    # order without comparing vectors
    atoms = enumerate_atoms(sup)
    want = sorted(brute_atoms(sup, sup.group.order()), key=lambda v: (sum(v), v))
    assert list(atoms.mult_vectors) == want
    assert list(atoms.lengths) == [sum(v) for v in want]


def test_davenport_of_full_groups():
    assert enumerate_atoms(full_support(cyclic(10))).davenport == 10
    assert enumerate_atoms(full_support(make_group([2, 2]))).davenport == 3


def _is_prime_power(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return n > 1


def test_davenport_lower_bound_and_known_equality():
    # equality holds for rank <= 2 and for p-groups; within this pool that
    # covers every group, so the bound is tight throughout
    for factors in ([4], [7], [2, 4], [3, 3], [2, 2, 4], [2, 2, 2], [10]):
        G = make_group(factors)
        D = enumerate_atoms(full_support(G)).davenport
        dstar = 1 + sum(n - 1 for n in G.invariant_factors)
        assert D >= dstar
        if G.rank() <= 2 or _is_prime_power(G.order()):
            assert D == dstar


def _index_tuple(vector):
    return tuple(j for j, m in enumerate(vector) for _ in range(m))


@pytest.mark.parametrize("name", ["C4xC4", "C3xC6", "C2xC2xC6", "C2xC2xC2xC2", "C2xC8", "C2xC2xC2xC4",
                                  "C2xC4xC4"])
def test_pruned_walk_yields_the_least_atom_of_every_orbit(name):
    # orbits under all of Aut(G), from the brute-force oracle, which shares
    # no code with the walk; the atoms taken in increasing order, the first
    # one of each orbit is its least sorted index tuple, and the walk pruned
    # by the elementary automorphisms must yield it; all it yields are atoms
    G = parse_group(name)
    support = full_support(G)
    maps = list(G.automorphism_permutations())
    pruned = {_index_tuple(v) for v in _atom_vectors(support, default_config(), maps)}
    every = {_index_tuple(v) for v in enumerate_atoms(support).mult_vectors}
    assert pruned <= every and len(pruned) < len(every)
    where = {g: j for j, g in enumerate(support.elements)}
    automorphisms = [[where[phi[g]] for g in support.elements] for phi in brute_force_automorphisms(G)]
    seen = set()
    for atom in sorted(every):
        if atom not in seen:
            assert atom in pruned, atom
            seen.update(tuple(sorted(map(phi.__getitem__, atom))) for phi in automorphisms)


@pytest.mark.parametrize("name, nodes", [("C2xC2xC2xC2", 131), ("C4xC4", 440), ("C3xC6", 877),
                                         ("C2xC2xC6", 4297), ("C5xC5", 2335), ("C3xC3xC3", 684),
                                         ("C2xC4xC4", 5969), ("C2xC10", 3508), ("C3xC9", 8715)])
def test_pruned_walk_matches_the_orderly_oracle_node_for_node(name, nodes):
    # the oracle drops a node by sorting the images of its positions under
    # the maps that send its last position lower; the walk compares position
    # codes under every map, and must keep the same atoms in the same order
    # and visit the same nodes, so that it finishes on exactly that node cap
    G = parse_group(name)
    support, perms = full_support(G), list(G.automorphism_permutations())
    want, visited = orderly_atoms(support, perms)
    assert visited == nodes
    assert list(_atom_vectors(support, ResourceConfig(max_nodes=nodes), perms)) == want
    with pytest.raises(BudgetExceededError) as exc:
        list(_atom_vectors(support, ResourceConfig(max_nodes=nodes - 1), perms))
    assert exc.value.what == "enumeration nodes"


def _window_counts(path, top):
    counts = [0] * top
    for x in path:
        if x < top:
            counts[x] += 1
    return counts


def _windowed_lower(perm, path, top):
    # at the least position below top where the counts differ, the image
    # has more copies
    return _window_counts([perm[x] for x in path], top) > _window_counts(path, top)


def _check_packed_test(G, paths):
    # the automorphisms fix position 0, the zero element; the reversal, the
    # swap of the last coded position with the last one and a shuffle do
    # not, and reach the largest differences a field holds and a difference
    # of exactly 1, which the test takes for any maps of the positions
    k = G.order()
    top = min(k, 128)
    swap, shuffled = list(range(k)), list(range(k))
    swap[top - 1], swap[k - 1] = k - 1, top - 1
    random.Random(k).shuffle(shuffled)
    perms = list(G.automorphism_permutations()) + [tuple(range(k - 1, -1, -1)), tuple(swap), tuple(shuffled)]
    for maps in [perms] + [[perm] for perm in perms]:  # all in one code, and each alone
        cols, start, high = _orderly_codes(k, k, maps)
        for path in paths:
            assert len(path) < k
            fires = bool((start + sum(cols[x] for x in path)) & high)
            assert fires == any(_windowed_lower(perm, path, top) for perm in maps), path
            lower = any(sorted(perm[x] for x in path) < sorted(path) for perm in maps)
            # exact up to 128 positions; past them a test that fires is still right
            assert fires == lower if k <= 128 else lower or not fires, path


def _extreme_paths(G):
    # one position once, ord(g) - 1 times, as on a zero-sum-free path, and
    # |G| - 1 times, where a field comes closest to carrying
    n = G.order()
    return [[x] * reps for x, g in enumerate(full_support(G).elements)
            for reps in {1, G.element_order(g) - 1, n - 1}]


@pytest.mark.parametrize("name", ["C2xC2xC6", "C3xC9", "C4xC4", "C2xC2xC2xC2"])
def test_packed_orderly_test_matches_sorted_images(name):
    # the packed code against sorted(φ(P)) < P, on the extremes and on
    # random multisets of positions
    G = parse_group(name)
    n, rng = G.order(), random.Random(name)
    paths = _extreme_paths(G) + [sorted(rng.choices(range(n), k=rng.randrange(1, n))) for _ in range(400)]
    _check_packed_test(G, paths)


def test_packed_orderly_test_reads_only_the_first_128_positions():
    # 144 positions: only the counts below 128 are coded, so the test equals
    # the windowed comparison, and each node it drops has a smaller image
    G = parse_group("C12xC12")
    n, rng = G.order(), random.Random(144)
    paths = _extreme_paths(G) + [sorted(rng.choices(range(n), k=rng.randrange(1, n))) for _ in range(200)]
    paths += [sorted(rng.choices(range(120, n), k=rng.randrange(1, 20))) for _ in range(200)]
    _check_packed_test(G, paths)


def _longest_pruned_atom(G):
    maps = list(G.automorphism_permutations())
    return max(map(sum, _atom_vectors(full_support(G), default_config(), maps)))


@pytest.mark.parametrize("factors", [[4, 4], [3, 3, 3], [2, 4, 4], [2, 2, 4, 4]])
def test_pruned_walk_finds_the_davenport_constant(factors):
    # D(G) = D*(G) = 1 + sum(n_i - 1) for p-groups and rank at most 2
    # (Olson 1969), and the least atom of a longest orbit survives the prune
    assert _longest_pruned_atom(make_group(factors)) == 1 + sum(n - 1 for n in factors)


@pytest.mark.skipif(not os.environ.get("ZSLEN_STRETCH"),
                    reason="the pruned walk over C2xC4xC8 takes about 4 s; set ZSLEN_STRETCH=1")
def test_pruned_walk_finds_the_davenport_constant_of_c2_c4_c8():
    assert _longest_pruned_atom(make_group([2, 4, 8])) == 12


def test_negation_permutes_atoms_of_symmetric_support():
    C8 = cyclic(8)
    sup = SupportSet.of(C8, [(1,), (7,), (3,), (5,)])
    atoms = enumerate_atoms(sup)
    vectors = {a.multiplicities for a in atoms}
    # position i of a negated vector holds the multiplicity of -g_i
    position = {g: i for i, g in enumerate(sup.elements)}
    neg_at = [position[C8.neg(g)] for g in sup.elements]
    for a in atoms:
        assert tuple(a.multiplicities[j] for j in neg_at) in vectors


def test_budget_errors_are_distinct():
    G = cyclic(12)
    with pytest.raises(BudgetExceededError):
        enumerate_atoms(full_support(G), config=ResourceConfig(max_atoms=10))
    with pytest.raises(BudgetExceededError):
        enumerate_atoms(full_support(G), config=ResourceConfig(max_nodes=10))


def test_parse_support_and_sequence():
    C10 = cyclic(10)
    sup = parse_support(C10, "1,3,7,9")
    assert sup.elements == ((1,), (3,), (7,), (9,))
    assert {C10.neg(g) for g in sup.elements} == set(sup.elements)
    s = parse_sequence(C10, "1^10,9^10")
    assert s.length == 20 and s.is_zero_sum()
    V = make_group([2, 2])
    sup2 = parse_support(V, "(1,0),(0,1),(1,1)")
    assert len(sup2.elements) == 3
    with pytest.raises(InputError):
        parse_support(C10, "1,x")
    with pytest.raises(InputError):
        parse_sequence(V, "3^2")


def test_support_validation():
    C4 = cyclic(4)
    with pytest.raises(InputError):
        SupportSet.of(C4, [])
    sup = SupportSet.of(C4, [(5,), (1,)])  # canonicalized and deduplicated
    assert sup.elements == ((1,),)


def test_products_of_atoms_are_not_atoms():
    rng = random.Random(88)
    for factors in ([6], [2, 4], [3, 3]):
        G = make_group(factors)
        sup = SupportSet.of(G, G.elements())
        atoms = enumerate_atoms(sup)
        for _ in range(30):
            a = rng.choice(atoms.atoms)
            b = rng.choice(atoms.atoms)
            assert not is_atom(a.mul(b))
