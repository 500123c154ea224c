import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen.config import ResourceConfig
from zslen.errors import BudgetExceededError, InputError
from zslen import verify
from zslen.groups import cyclic, make_group
from zslen.lengths import (
    LengthSet,
    _set_bits,
    kernel_basis_of,
    length_set,
    max_elasticity_witness,
    min_delta,
    min_delta_of_atoms,
    sumset,
)
from zslen.sequences import GSequence, SupportSet, enumerate_atoms
from zslen.verify import _pack, _product_bits, observed_min_delta

from oracles import brute_distance_gcd, brute_length_set, g_norm


def make(group, elements, counts):
    sup = SupportSet.of(group, elements)
    return sup, GSequence.of(sup, dict(zip(sup.elements, counts)))


def test_length_set_examples():
    C4 = cyclic(4)
    sup, b = make(C4, [(1,), (3,)], [4, 4])
    atoms = enumerate_atoms(sup)
    assert length_set(b, atoms).values == (2, 4)
    # any atom has length set {1}
    for a in atoms:
        assert length_set(a, atoms).values == (1,)
    C10 = cyclic(10)
    sup, b = make(C10, [(1,), (9,)], [10, 10])
    atoms = enumerate_atoms(sup)
    assert length_set(b, atoms).values == (2, 10)


def test_length_set_matches_brute_force():
    rng = random.Random(515)
    for factors, size in [([5], 2), ([6], 3), ([2, 4], 3), ([8], 2)]:
        G = make_group(factors)
        elems = list(G.elements())
        for _ in range(3):
            sup = SupportSet.of(G, rng.sample(elems, size))
            atoms = enumerate_atoms(sup)
            if not atoms.atoms:
                continue
            total = [0] * len(sup.elements)
            for _ in range(rng.randint(1, 3)):
                total = [x + y for x, y in zip(total, rng.choice(atoms.mult_vectors))]
            b = GSequence(sup, tuple(total))
            got = set(length_set(b, atoms).values)
            want = brute_length_set(b, list(atoms.mult_vectors))
            assert got == want


def test_length_set_preconditions():
    C4 = cyclic(4)
    sup, b = make(C4, [(1,), (3,)], [1, 2])
    atoms = enumerate_atoms(sup)
    with pytest.raises(InputError):
        length_set(b, atoms)  # not zero-sum
    tiny = ResourceConfig(max_states=2)
    sup2, big = make(C4, [(1,), (3,)], [8, 8])
    with pytest.raises(BudgetExceededError):
        length_set(big, enumerate_atoms(sup2), config=tiny)


def test_min_delta_examples():
    C10 = cyclic(10)
    assert min_delta(SupportSet.of(C10, [(1,), (9,)])) == 8
    assert min_delta(SupportSet.of(C10, [(1,), (3,), (7,), (9,)])) == 2
    C2 = cyclic(2)
    assert min_delta(SupportSet.of(C2, [(1,)])) is None


def _rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _det(square) -> int:
    """Integer determinant by cofactor expansion (small matrices only)."""
    if not square:
        return 1
    return sum((-1) ** j * square[0][j] * _det([row[:j] + row[j + 1:] for row in square[1:]])
               for j in range(len(square)) if square[0][j])


def test_kernel_basis_spans_the_full_kernel():
    rng = random.Random(7)
    cases = [
        [(2,), (3,)],
        [(1, 1), (1, 1), (2, 2)],
        [(2, 0), (0, 3), (4, 6), (6, 6)],
        [(0, 0), (1, 2), (3, 4)],
        [(6,), (10,), (15,)],
    ]
    cases += [[tuple(rng.randint(-3, 4) for _ in range(2)) for _ in range(5)] for _ in range(20)]
    for vectors in cases:
        t = len(vectors)
        basis = kernel_basis_of(vectors)
        assert len(basis) == t - _rank(vectors), vectors
        for x in basis:
            assert len(x) == t
            assert all(sum(xj * v[i] for xj, v in zip(x, vectors)) == 0 for i in range(len(vectors[0])))
        # the gcd of the maximal minors is 1 exactly when the basis spans a
        # saturated lattice, so it is the whole kernel and not a sublattice
        if basis:
            minors = [_det([[x[j] for j in cols] for x in basis]) for cols in combinations(range(t), len(basis))]
            assert gcd(*minors) == 1, (vectors, basis)


def test_max_elasticity_witness():
    C10 = cyclic(10)
    sup, b = make(C10, [(1,), (9,)], [10, 10])
    atoms = enumerate_atoms(sup)
    assert max_elasticity_witness(b, atoms)
    sup, b = make(cyclic(4), [(1,), (3,)], [1, 1])
    assert not max_elasticity_witness(b, enumerate_atoms(sup))
    V = make_group([2, 2])
    sup, b = make(V, [(0, 1), (1, 0), (1, 1)], [2, 2, 2])
    assert max_elasticity_witness(b, enumerate_atoms(sup))


def test_max_elasticity_witness_matches_brute_force():
    rng = random.Random(2017)
    checked = 0
    for factors, size in [([4], 2), ([6], 2), ([5], 3), ([2, 2], 3), ([2, 4], 2), ([8], 2)]:
        G = make_group(factors)
        elems = list(G.elements())
        for _ in range(4):
            sup = SupportSet.of(G, rng.sample(elems, size))
            atoms = enumerate_atoms(sup)
            if not atoms.atoms:
                continue
            longest = [a.multiplicities for a in atoms if a.length == atoms.davenport]
            pairs = [a.multiplicities for a in atoms if a.length == 2]
            for _ in range(3):
                total = [0] * len(sup.elements)
                for _ in range(rng.randint(1, 4)):
                    total = [x + y for x, y in zip(total, rng.choice(longest + pairs + list(atoms.mult_vectors)))]
                b = GSequence(sup, tuple(total))
                want = bool(brute_length_set(b, longest)) and bool(brute_length_set(b, pairs))
                assert max_elasticity_witness(b, atoms) == want
                checked += 1
    assert checked >= 30


def test_max_elasticity_witness_budget():
    sup, b = make(cyclic(10), [(1,), (9,)], [10, 10])
    atoms = enumerate_atoms(sup)
    # both searches run over the box of the 11 * 11 sub-multisets of 1^10 9^10
    assert max_elasticity_witness(b, atoms, config=ResourceConfig(max_states=121))
    with pytest.raises(BudgetExceededError) as err:
        max_elasticity_witness(b, atoms, config=ResourceConfig(max_states=120))
    assert (err.value.what, err.value.limit) == ("length-set box cells", 120)


def test_length_set_conventions():
    assert LengthSet.of([0]).rho() == 1
    assert LengthSet.of([2, 4, 8]).delta() == (2, 4)
    with pytest.raises(InputError):
        LengthSet.of([])
    with pytest.raises(InputError):
        LengthSet.of([0, 2]).rho()


def test_sumset():
    a = LengthSet.of([2, 4])
    assert sumset(a, a).values == (4, 6, 8)
    assert sumset(LengthSet.of([0]), LengthSet.of([3])).values == (3,)
    b = LengthSet.of([2, 10])
    assert sumset(b, b).values == (4, 12, 20)


def test_peak_elasticity_is_multiplicative_on_explicit_witnesses():
    # products of two elements at peak elasticity stay at peak elasticity
    for n in (4, 6, 8):
        G = cyclic(n)
        sup = SupportSet.of(G, [(1,), (n - 1,)])
        atoms = enumerate_atoms(sup)
        peak = Fraction(atoms.davenport, 2)
        a = GSequence(sup, (n, n))
        assert length_set(a, atoms).rho() == peak
        assert length_set(a.mul(a), atoms).rho() == peak
        assert length_set(GSequence(sup, (3 * n, 3 * n)), atoms).rho() == peak


def test_min_delta_equals_gnorm_characterization_for_cyclic_supports():
    # for supports generating the same cyclic group as one of their members,
    # the kernel value equals gcd of (norm - 1) over all atoms
    rng = random.Random(422)
    checked = 0
    while checked < 25:
        n = rng.randint(4, 14)
        G = cyclic(n)
        size = rng.randint(1, 3)
        others = rng.sample([(r,) for r in range(1, n)], size)
        sup = SupportSet.of(G, [(1,)] + others)
        atoms = enumerate_atoms(sup)
        kernel = min_delta_of_atoms(atoms)
        norm_gcd = 0
        for a in atoms:
            norm_gcd = gcd(norm_gcd, g_norm(a, (1,)) - 1)
        if kernel is None:
            assert norm_gcd == 0
        else:
            assert norm_gcd == kernel
        checked += 1


# -- packed product keys ------------------------------------------------------

PROPERTY = settings(max_examples=80, derandomize=True, database=None, deadline=None)


@st.composite
def atoms_and_target(draw):
    """A support of one to three elements of a small group and a zero-sum
    target that is a sum of up to three atoms.  Half the time the atoms avoid
    one support element, so the target is 0 there while other atoms are not."""
    G = make_group(draw(st.sampled_from([[4], [5], [6], [8], [2, 4], [3, 3]])))
    sup = SupportSet.of(G, draw(st.lists(st.sampled_from(G.elements()), min_size=1, max_size=3, unique=True)))
    atoms = enumerate_atoms(sup)
    pool = list(atoms.mult_vectors)
    if draw(st.booleans()):
        j = draw(st.integers(0, len(sup.elements) - 1))
        pool = [a for a in pool if a[j] == 0]
    picks = draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
    total = tuple(map(sum, zip(*picks))) if picks else (0,) * len(sup.elements)
    return atoms, GSequence(sup, total)


@PROPERTY
@given(atoms_and_target())
def test_length_set_matches_brute_force_on_random_targets(case):
    atoms, b = case
    assert set(length_set(b, atoms).values) == brute_length_set(b, list(atoms.mult_vectors))


# (group, support, target, length set): the budget counts the box of every
# sub-multiset of the target, prod(t_i + 1) cells, and the keep masks decide
# which products stay inside it, so a wrong mask shows in the length set
BOUND_CASES = [
    # a coordinate of the target is 0 and atoms of size <= 4 use it
    (cyclic(4), [(1,), (2,), (3,)], [2, 0, 2], (2,)),
    # the atoms 1^6 and 5^6 overshoot one coordinate at the total 6
    (cyclic(6), [(1,), (5,)], [3, 3], (3,)),
    # max(target) = 8 = 2^3, so a product reaches 2 * max(target) = 16
    (cyclic(8), [(1,), (3,), (7,)], [8, 0, 8], (2, 8)),
    (cyclic(4), [(1,), (3,)], [8, 8], (4, 6, 8)),
    (cyclic(10), [(1,), (9,)], [10, 10], (2, 10)),
    (cyclic(6), [(1,), (2,), (3,)], [6, 3, 2], (3,)),
    (make_group([2, 4]), [(0, 1), (1, 1), (1, 2)], [4, 4, 2], (3,)),
    (make_group([2, 2]), [(0, 1), (1, 0), (1, 1)], [1, 1, 1], (1,)),
]


@pytest.mark.parametrize("group, elements, counts, lengths", BOUND_CASES)
def test_bound_check_sets_the_budget_count(group, elements, counts, lengths):
    sup, b = make(group, elements, counts)
    atoms = enumerate_atoms(sup)
    assert set(lengths) == brute_length_set(b, list(atoms.mult_vectors))
    need = prod(c + 1 for c in counts)
    for run in (length_set, max_elasticity_witness):
        run(b, atoms, config=ResourceConfig(max_states=need))
        with pytest.raises(BudgetExceededError) as err:
            run(b, atoms, config=ResourceConfig(max_states=need - 1))
        assert (err.value.what, err.value.limit) == ("length-set box cells", need - 1)
    assert length_set(b, atoms).values == lengths


def test_box_counts_nothing_when_the_box_exceeds_the_budget():
    # 13^15, about 5 * 10^16 cells: only a check made before any mask is
    # built can raise in time
    G = make_group([2, 2, 2, 2])
    sup = SupportSet.of(G, [g for g in G.elements() if any(g)])
    b = GSequence(sup, (12,) * 15)
    atoms = enumerate_atoms(sup)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        length_set(b, atoms, config=ResourceConfig())
    assert time.perf_counter() - start < 0.5
    assert err.value.what == "length-set box cells"


@pytest.mark.parametrize("factors, elements", [
    ([3], [(1,), (2,)]),
    ([4], [(1,), (3,)]),
    ([4], [(1,), (2,), (3,)]),
    ([5], [(1,), (2,)]),
    ([6], [(1,), (5,)]),
    ([6], [(2,), (3,), (5,)]),
    ([2, 2], [(0, 1), (1, 0), (1, 1)]),
    ([8], [(1,), (3,)]),
    ([8], [(1,), (7,)]),
    # half-factorial: no gaps, both sides None
    ([5], [(1,)]),
    ([2, 2], [(0, 1), (1, 0)]),
])
def test_observed_min_delta_matches_gaps_of_brute_length_sets(factors, elements):
    sup = SupportSet.of(make_group(factors), elements)
    atoms = enumerate_atoms(sup)
    bound = 4 * atoms.davenport  # the bound of the kernel-brute suite
    assert observed_min_delta(atoms, bound) == brute_distance_gcd(sup, list(atoms.mult_vectors), bound)


# -- the product stream -------------------------------------------------------

def _stream_keys_and_grades(stream, decode):
    """The stream's decoded products and grades, checking that no key repeats
    and that grades never decrease."""
    seen, out, last = set(), [], 0
    for key, bits in stream:
        assert key not in seen
        seen.add(key)
        element, grade = decode(key)
        assert grade >= last
        last = grade
        out.append((element, bits))
    return out


def test_product_stream_yields_each_zero_sum_sequence_once_with_its_final_length_set():
    rng = random.Random(2106)
    for _ in range(25):
        G = make_group(rng.choice([[3], [4], [5], [6], [2, 2], [2, 4]]))
        sup = SupportSet.of(G, rng.sample(G.elements(), rng.randint(1, min(3, G.order()))))
        atoms = enumerate_atoms(sup)
        vectors = list(atoms.mult_vectors)
        bound = 2 * atoms.davenport
        width = bound.bit_length()
        mask = (1 << width) - 1
        shifts = range(0, width * len(sup.elements), width)

        def decode(key):
            vec = tuple(key >> s & mask for s in shifts)
            return vec, sum(vec)

        weighted = [(_pack(v, width), sum(v)) for v in vectors]
        streamed = _stream_keys_and_grades(_product_bits(weighted, bound), decode)
        for vec, bits in streamed:
            assert set(_set_bits(bits)) == brute_length_set(GSequence(sup, vec), vectors), (sup, vec)
        zero_sums = {vec for vec in product(range(bound + 1), repeat=len(sup.elements))
                     if sum(vec) <= bound and GSequence(sup, vec).is_zero_sum()}
        assert {vec for vec, _ in streamed} == zero_sums


def test_length_set_matches_the_exhaustive_stream_on_every_product():
    # the stream shares no code with the box: every product up to the bound
    # has the same length set from both engines
    rng = random.Random(2201)
    pool = verify.small_groups(12)
    checked = 0
    for _ in range(30):
        G = rng.choice(pool)
        sup = SupportSet.of(G, rng.sample(G.elements(), rng.randint(1, min(4, G.order()))))
        atoms = enumerate_atoms(sup)
        bound = 2 * atoms.davenport
        for vec, lengths in verify._exhaustive_lengths(atoms, bound).items():
            assert set(length_set(GSequence(sup, vec), atoms).values) == lengths, (sup, vec)
            checked += 1
    assert checked >= 3000


def test_observed_min_delta_stops_the_stream_once_its_gcd_is_one(monkeypatch):
    sup = SupportSet.of(cyclic(5), [(1,), (2,)])
    atoms = enumerate_atoms(sup)
    bound = 4 * atoms.davenport
    full = sum(1 for _ in verify._packed_lengths(atoms, bound)[1])
    taken = []

    def counting(*args):
        for item in _product_bits(*args):
            taken.append(item)
            yield item

    monkeypatch.setattr(verify, "_product_bits", counting)
    assert min_delta_of_atoms(atoms) == 1
    assert observed_min_delta(atoms, bound) == 1
    assert 0 < len(taken) < full
