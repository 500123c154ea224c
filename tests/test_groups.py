import random
from math import gcd

import pytest

from zslen.errors import InputError
from zslen.groups import (
    AbelianGroup,
    _unit_generators,
    cyclic,
    direct_sum_with_embeddings,
    make_group,
    parse_group,
)

from zslen.verify import small_groups

from oracles import subgroup_generated

LAYOUT_GROUPS = [AbelianGroup(())] + small_groups(32)


def test_make_group_normalizes_to_invariant_chain():
    assert make_group([4]).invariant_factors == (4,)
    assert make_group([2, 3]).invariant_factors == (6,)
    assert make_group([2, 2, 6]).invariant_factors == (2, 2, 6)
    assert make_group([12, 60]).invariant_factors == (12, 60)
    assert make_group([4, 6]).invariant_factors == (2, 12)


def test_make_group_drops_trivial_factors_and_rejects_nonpositive():
    assert make_group([1, 5, 1]).invariant_factors == (5,)
    assert make_group([]).is_trivial
    with pytest.raises(InputError):
        make_group([0])
    with pytest.raises(InputError):
        make_group([-3])


def test_structure_constants():
    G = make_group([2, 2, 6])
    assert G.order() == 24
    assert G.exponent() == 6
    assert G.rank() == 3
    assert cyclic(4).exponent() == 4 and cyclic(4).rank() == 1


def test_parse_group():
    assert parse_group("C4") == cyclic(4)
    assert parse_group("c2xc2xc6").invariant_factors == (2, 2, 6)
    assert parse_group("C2XC4") == parse_group("c2xc4") == make_group([2, 4])
    assert parse_group("2x3") == cyclic(6)
    with pytest.raises(InputError):
        parse_group("D4")
    with pytest.raises(InputError):
        parse_group("C4+C2")


def test_element_order():
    G = make_group([2, 4])
    assert G.element_order((1, 2)) == 2
    assert cyclic(10).element_order((1,)) == 10
    C8 = cyclic(8)
    assert C8.element_order(C8.scalar_mul(3, (1,))) == 8
    assert cyclic(5).element_order((0,)) == 1


def test_arithmetic_examples():
    C5 = cyclic(5)
    assert C5.neg((0,)) == (0,)
    assert C5.add(C5.scalar_mul(2, (1,)), C5.scalar_mul(3, (1,))) == (0,)
    V = make_group([2, 2])
    assert V.neg((1, 1)) == (1, 1)
    with pytest.raises(InputError):
        C5.add((1,), (1, 0))


@pytest.mark.parametrize("name", ["C9", "C2xC4", "C3xC6", "C4xC4", "C2xC2xC6", "C2xC4xC4"])
def test_automorphism_permutations_are_additive_bijections(name):
    G = parse_group(name)
    elems = G.elements()
    perms = list(G.automorphism_permutations())
    assert perms
    assert len(set(perms)) == len(perms)  # no permutation is listed twice
    identity = tuple(range(G.order()))
    for perm in perms:
        # some listed map undoes this one: the list holds every inverse
        assert any(tuple(map(other.__getitem__, perm)) == identity for other in perms)
        assert sorted(perm) == list(range(G.order()))
        assert perm[0] == 0
        for a, g in enumerate(elems):
            for b, h in enumerate(elems):
                assert elems[perm[G.index_of(G.add(g, h))]] == G.add(elems[perm[a]], elems[perm[b]])


@pytest.mark.parametrize("n, want", [(2, []), (4, [3]), (5, [2]), (8, [3, 5]), (9, [2]),
                                     (12, [5, 7]), (1000, [3, 7, 11])])
def test_unit_generators_generate_the_units(n, want):
    # the automorphism permutations scale a coordinate only by these units;
    # their products must still reach every unit
    gens = _unit_generators(n)
    assert gens == want
    reached = {1}
    frontier = [1]
    for h in frontier:
        for u in gens:
            if h * u % n not in reached:
                reached.add(h * u % n)
                frontier.append(h * u % n)
    assert reached == {u for u in range(1, n) if gcd(u, n) == 1}


@pytest.mark.parametrize("factors", [[5], [2, 4], [2, 2, 2], [3, 9], [12]])
def test_random_element_properties(factors):
    rng = random.Random(1234)
    G = make_group(factors)
    elems = G.elements()
    for _ in range(60):
        g = rng.choice(elems)
        h = rng.choice(elems)
        k = rng.choice(elems)
        assert G.exponent() % G.element_order(g) == 0
        assert G.neg(G.neg(g)) == g
        assert G.add(g, h) == G.add(h, g)
        assert G.add(G.add(g, h), k) == G.add(g, G.add(h, k))


def test_element_enumeration_is_lexicographic():
    G = make_group([2, 3])
    # C6 normalized: single factor, residues 0..5
    assert G.elements() == tuple((r,) for r in range(6))
    H = AbelianGroup((2, 2))
    assert H.elements() == ((0, 0), (0, 1), (1, 0), (1, 1))


def _positions(G):
    """Each element's position in ``elements()``, independent of ``index_of``."""
    return {e: i for i, e in enumerate(G.elements())}


@pytest.mark.parametrize("G", LAYOUT_GROUPS, ids=str)
def test_index_of_is_the_position_in_elements(G):
    elems = G.elements()
    assert len(elems) == G.order() and list(elems) == sorted(elems)
    assert [G.index_of(e) for e in elems] == list(range(G.order()))
    assert [G.element_at(i) for i in range(G.order())] == list(elems)


@pytest.mark.parametrize("G", LAYOUT_GROUPS, ids=str)
def test_translation_row_holds_the_index_of_each_sum(G):
    # the row of every index stepped by the mask steps of g, by the index
    # rule that the atom DFS applies to the index of its negated sum
    for g in G.elements():
        row = list(range(G.order()))
        for keep, up, wrap, down in G.mask_translation(g):
            row = [s + up if s % (up + down) < down else s - down for s in row]
        assert row == [G.index_of(G.add(G.element_at(s), g)) for s in range(G.order())]


@pytest.mark.parametrize("G", LAYOUT_GROUPS, ids=str)
def test_mask_translation_moves_every_set_bit_by_g(G):
    rng = random.Random(G.order())
    elems, pos = G.elements(), _positions(G)
    n = G.order()
    masks = [rng.getrandbits(n) for _ in range(4)] + [1 << i for i in range(n)]
    for g in elems:
        steps = G.mask_translation(g)
        for mask in masks:
            moved = mask
            for keep, up, wrap, down in steps:
                moved = ((moved & keep) << up) | ((moved & wrap) >> down)
            want = sum(1 << pos[G.add(elems[i], g)] for i in range(n) if mask >> i & 1)
            assert moved == want


def test_direct_sum_embeddings_are_isomorphic_images():
    blocks = [cyclic(8), make_group([4])]
    total, maps = direct_sum_with_embeddings(blocks)
    assert total.invariant_factors == (4, 8)
    images = []
    for blk, embed in zip(blocks, maps):
        for i in range(blk.rank()):
            e = tuple(1 if j == i else 0 for j in range(blk.rank()))
            img = embed(e)
            assert total.element_order(img) == blk.invariant_factors[i]
            images.append(img)
    assert len(subgroup_generated(total, images)) == total.order()


def test_direct_sum_embedding_merges_primes_in_shared_slot():
    # both prime parts of a C6 generator land in the same invariant factor
    total, maps = direct_sum_with_embeddings([make_group([6, 6])])
    g0 = maps[0]((1, 0))
    g1 = maps[0]((0, 1))
    assert total.invariant_factors == (6, 6)
    assert total.element_order(g0) == 6
    assert total.element_order(g1) == 6
    assert len(subgroup_generated(total, [g0, g1])) == 36


def test_trivial_group_is_flagged_and_safe():
    G = parse_group("C1")
    assert G.is_trivial and G.order() == 1
    assert G.exponent() == 1 and G.rank() == 0
    from zslen.delta_rho import delta_rho

    r = delta_rho(G)
    assert r.exact == frozenset() and r.provenance == "trivial"
