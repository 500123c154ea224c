import random
import time
from fractions import Fraction
from math import gcd

import pytest

from zslen.config import ResourceConfig
from zslen.errors import BudgetExceededError, InputError
from zslen.fp import (
    FPMonoid,
    ObstructionReport,
    delta_rho_star_product,
    fp_atoms,
    fp_length_set,
    local_profile,
    transfer_obstruction,
)

from oracles import _fp_reachable, brute_fp_atoms, brute_fp_length_set, brute_fp_tail_window

TEST_MONOIDS = [
    FPMonoid.of(1, [(0, 3), (0, 5)]),
    FPMonoid.of(2, [(1, 3), (0, 5)]),
    FPMonoid.of(1, [(0, 2), (0, 3)]),
    FPMonoid.of(3, [(1, 4), (2, 7), (0, 9)]),
    FPMonoid.of(2, [(0, 4), (1, 6), (1, 9)]),
]


def test_construction_validation():
    with pytest.raises(InputError):
        FPMonoid.of(0, [(0, 3)])
    with pytest.raises(InputError):
        FPMonoid.of(1, [(0, 0)])
    with pytest.raises(InputError):
        FPMonoid.of(1, [])
    with pytest.raises(InputError):
        FPMonoid.of(2, [(0, 2), (0, 4)])  # gcd of values is 2: no tail
    m = FPMonoid.of(2, [(3, 3), (0, 5)])
    assert m.generators == ((0, 5), (1, 3))  # classes reduced, sorted


def test_fp_atoms_numerical():
    m = FPMonoid.of(1, [(0, 3), (0, 5)])
    assert fp_atoms(m) == [(0, 3), (0, 5)]
    m = FPMonoid.of(1, [(0, 2), (0, 4), (0, 3)])
    assert fp_atoms(m) == [(0, 2), (0, 3)]  # 4 = 2 + 2 is not an atom


def test_fp_atoms_twisted():
    m = FPMonoid.of(2, [(1, 3), (0, 5)])
    assert fp_atoms(m) == [(1, 3), (0, 5)]


def test_fp_atoms_rejects_unreached_unit_classes():
    # modulus never attained: class 1 unreachable
    with pytest.raises(InputError):
        fp_atoms(FPMonoid.of(2, [(0, 2), (0, 3)]))
    # classes only reached in step with the values: (1, 1) and (2, 0) span index 2
    with pytest.raises(InputError):
        fp_atoms(FPMonoid.of(2, [(1, 1), (0, 2)]))


def test_fp_atoms_matches_brute_force():
    rng = random.Random(1706)
    checked = 0
    while checked < 200:
        q = rng.randint(1, 5)
        gens = [(rng.randrange(q), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        if gcd(*(v for _, v in gens)) != 1:
            continue
        m = FPMonoid.of(q, gens)
        try:
            atoms = fp_atoms(m)
        except InputError:
            continue  # not finitely primary; see the criterion test below
        assert atoms == brute_fp_atoms(q, gens), (q, gens)
        checked += 1


def test_fp_length_set_examples():
    numeric = FPMonoid.of(1, [(0, 3), (0, 5)])
    assert fp_length_set(numeric, (0, 15)).values == (3, 5)
    assert fp_length_set(numeric, (0, 3)).values == (1,)
    twisted = FPMonoid.of(2, [(1, 3), (0, 5)])
    assert fp_length_set(twisted, (0, 30)).values == (6, 10)
    assert fp_length_set(twisted, (0, 0)).values == (0,)
    with pytest.raises(InputError):
        fp_length_set(numeric, (0, 4))  # not representable


def test_fp_length_set_matches_brute_force():
    for mono in TEST_MONOIDS:
        q = mono.unit_modulus
        atoms = brute_fp_atoms(q, mono.generators)
        for val in range(0, 31):
            for cls in range(q):
                want = brute_fp_length_set(atoms, q, (cls, val))
                if want:
                    assert set(fp_length_set(mono, (cls, val)).values) == want
                else:
                    with pytest.raises(InputError):
                        fp_length_set(mono, (cls, val))


def test_fp_length_set_matches_brute_force_up_to_value_120():
    # random accepted monoids with q <= 6 and least atom value at least 3,
    # so that the unmemoized oracle stays small, on sampled elements of
    # value up to 120, every unit class of each
    rng = random.Random(2910)
    checked = 0
    while checked < 20:
        q = rng.randint(1, 6)
        gens = [(rng.randrange(q), rng.randint(3, 14)) for _ in range(rng.randint(2, 3))]
        if gcd(*(v for _, v in gens)) != 1:
            continue
        mono = FPMonoid.of(q, gens)
        try:
            atoms = fp_atoms(mono)
        except InputError:
            continue
        assert atoms == brute_fp_atoms(q, gens), (q, gens)
        checked += 1
        for val in rng.sample(range(31, 121), 12):
            for cls in range(q):
                want = brute_fp_length_set(atoms, q, (cls, val))
                if want:
                    assert set(fp_length_set(mono, (cls, val)).values) == want, (q, gens, cls, val)
                else:
                    with pytest.raises(InputError):
                        fp_length_set(mono, (cls, val))


def test_fp_atoms_matches_brute_force_up_to_value_1000():
    # one small generator and the rest up to 10^3: the coset table has
    # q * (least value) entries, the oracle's table 3 * (largest value)
    rng = random.Random(2911)
    checked = 0
    while checked < 30:
        q = rng.randint(1, 4)
        gens = [(rng.randrange(q), rng.randint(2, 12))]
        gens += [(rng.randrange(q), rng.randint(13, 1000)) for _ in range(rng.randint(1, 4))]
        if gcd(*(v for _, v in gens)) != 1:
            continue
        try:
            atoms = fp_atoms(FPMonoid.of(q, gens))
        except InputError:
            continue
        assert atoms == brute_fp_atoms(q, gens), (q, gens)
        checked += 1


def test_fp_length_set_budget():
    numeric = FPMonoid.of(1, [(0, 3), (0, 5)])
    # 50 states cover the atoms' coset table (3 cosets) and the 16 cells of
    # the small element, so only the large element's 301 cells exceed it
    tight = ResourceConfig(max_states=50)
    assert fp_length_set(numeric, (0, 15), config=tight).values == (3, 5)
    with pytest.raises(BudgetExceededError):
        fp_length_set(numeric, (0, 300), config=tight)


def test_fp_length_set_of_a_huge_value_exceeds_the_budget_at_once():
    # the 10**9 + 1 cells are counted before any mask is built
    numeric = FPMonoid.of(1, [(0, 3), (0, 5)])
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        fp_length_set(numeric, (0, 10**9))
    assert time.perf_counter() - start < 0.5


def test_local_profiles():
    p = local_profile(FPMonoid.of(1, [(0, 3), (0, 5)]))
    assert (p.rho, p.d, p.min_delta, p.accepted) == (Fraction(5, 3), 2, 2, True)
    p = local_profile(FPMonoid.of(2, [(1, 3), (0, 5)]))
    assert (p.rho, p.d, p.min_delta) == (Fraction(5, 3), 2, 4)
    p = local_profile(FPMonoid.of(1, [(0, 2), (0, 3)]))
    assert (p.rho, p.d, p.min_delta) == (Fraction(3, 2), 1, 1)


def test_profile_of_factorial_monoid():
    p = local_profile(FPMonoid.of(1, [(0, 1)]))
    assert p.rho == 1 and p.min_delta is None and p.d == 0


def test_gap_gcd_divides_min_delta_and_untwisted_equality():
    rng = random.Random(2024)
    for _ in range(25):
        q = rng.choice([1, 1, 2, 3])
        k = rng.randint(1, 3)
        for _ in range(50):
            gens = {(rng.randrange(q), rng.randint(1, 7)) for _ in range(k + 1)}
            if gcd(*(v for _, v in gens)) == 1:
                break
        else:
            gens = {(0, 1)}
        p = local_profile(FPMonoid.of(q, gens))
        if p.min_delta is not None and p.d:
            assert p.min_delta % p.d == 0
        if q == 1:
            # no unit twisting: the gap gcd is the whole story
            if p.d == 0:
                assert p.min_delta is None
            else:
                assert p.min_delta == p.d


def test_elasticity_is_bound_and_attained():
    for mono, witness in [
        (FPMonoid.of(1, [(0, 3), (0, 5)]), (0, 15)),
        (FPMonoid.of(2, [(1, 3), (0, 5)]), (0, 30)),
    ]:
        profile = local_profile(mono)
        lengths = fp_length_set(mono, witness)
        assert lengths.rho() == profile.rho
        reach = _fp_reachable(mono.unit_modulus, mono.generators, 40)
        rng = random.Random(5)
        for _ in range(20):
            v = rng.randint(1, 40)
            c = rng.randrange(mono.unit_modulus)
            if reach[c][v]:
                assert fp_length_set(mono, (c, v)).rho() <= profile.rho


def test_delta_rho_star_product():
    assert delta_rho_star_product([2]) == frozenset({2})
    assert delta_rho_star_product([2, 3]) == frozenset({1, 2, 3})
    assert delta_rho_star_product([4, 6]) == frozenset({2, 4, 6})
    closed = delta_rho_star_product([4, 6, 9])
    assert max(closed) == 9 and min(closed) == gcd(4, 6, 9)
    with pytest.raises(InputError):
        delta_rho_star_product([])


def test_transfer_obstruction():
    r = transfer_obstruction([4, 6])
    assert r.cyclic_4_6_10_only and r.excludes_rank_two
    assert any("cyclic of order 4, 6, or 10" in m for m in r.messages())
    r = transfer_obstruction([1, 1])
    assert not r.cyclic_4_6_10_only and not r.excludes_rank_two
    assert r.messages() == ["no obstruction"]
    r = transfer_obstruction([3, 1])
    assert not r.cyclic_4_6_10_only
    assert r.excludes_rank_two and r.excludes_homocyclic
    assert r.conditional_elementary2_ranks == (4,)


def test_obstruction_messages_follow_their_own_flags():
    rank_two = "no such group has rank two"
    homocyclic = "no such group is homocyclic of prime-power exponent >= 3"
    for rank, homo in ((True, False), (False, True)):
        r = ObstructionReport((3,), 3, False, rank, homo, ())
        assert (rank_two in r.messages(), homocyclic in r.messages()) == (rank, homo)


def test_product_elasticity_is_max_of_factors():
    # assemble a two-factor product by hand and compare length sets; the
    # elasticity of the product is the larger factor elasticity
    h1 = FPMonoid.of(1, [(0, 3), (0, 5)])
    h2 = FPMonoid.of(1, [(0, 2), (0, 3)])
    rho1 = local_profile(h1).rho
    rho2 = local_profile(h2).rho
    want = max(rho1, rho2)
    reach1 = _fp_reachable(1, h1.generators, 30)[0]
    reach2 = _fp_reachable(1, h2.generators, 12)[0]
    best = Fraction(0)
    for v1 in range(0, 31):
        if not reach1[v1]:
            continue
        for v2 in range(0, 13):
            if not reach2[v2]:
                continue
            if v1 == v2 == 0:
                continue
            l1 = fp_length_set(h1, (0, v1)).values
            l2 = fp_length_set(h2, (0, v2)).values
            combined = sorted({a + b for a in l1 for b in l2})
            if combined[0] > 0:
                best = max(best, Fraction(combined[-1], combined[0]))
            assert Fraction(combined[-1], max(combined[0], 1)) <= want
    assert best == want


def test_certification_criterion_matches_fp_atoms():
    # fp_atoms rejects a presentation exactly when no window of values that
    # reaches every unit class exists (the oracle's tail window, searched up
    # to a cap far above where an accepted presentation's window starts)
    rng = random.Random(2024)
    rejected = accepted = 0
    while rejected < 40 or accepted < 40:
        q = rng.randint(1, 4)
        gens = [(rng.randrange(q), rng.randint(1, 7)) for _ in range(rng.randint(1, 3))]
        if gcd(*(v for _, v in gens)) != 1:
            continue
        m = FPMonoid.of(q, gens)
        top = max(v for _, v in gens)
        window = brute_fp_tail_window(q, gens, 64 * top * q)
        try:
            atoms = fp_atoms(m)
        except InputError:
            rejected += 1
            assert window is None, (q, gens)
        else:
            accepted += 1
            assert window is not None, (q, gens)
            reach = _fp_reachable(q, m.generators, top)
            assert atoms and all(reach[c][v] for c, v in atoms)
