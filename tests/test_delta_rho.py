import importlib
import json
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from math import gcd

import pytest

from oracles import (
    brute_force_automorphisms,
    full_enumeration_classes,
    full_enumeration_star,
    orbits_of_sets,
    qualifying_supports,
    subgroup_generated,
    support_elements,
)
from zslen import sequences
from zslen.cf import exceptional_witness
from zslen.cli import main
from zslen.config import ResourceConfig, default_config
from zslen.delta_rho import (
    _OrbitSource,
    _UnitClassScan,
    delta_rho,
    delta_rho_star,
    divisor_closure,
    gcd_closure,
    one_in_delta_rho,
    realize_delta_set,
)
from zslen.errors import BudgetExceededError, InputError
from zslen.groups import cyclic, make_group, parse_group
from zslen.lengths import _set_bits, min_delta, min_delta_of_atoms
from zslen.sequences import SupportSet, enumerate_atoms


def test_gcd_closure():
    assert gcd_closure([6, 10, 15]) == frozenset({1, 2, 3, 5, 6, 10, 15})
    assert gcd_closure([4]) == frozenset({4})
    assert gcd_closure([2, 3]) == frozenset({1, 2, 3})
    with pytest.raises(InputError):
        gcd_closure([])
    with pytest.raises(InputError):
        gcd_closure([0, 2])


def test_gcd_closure_idempotent_and_contains_total_gcd():
    closed = gcd_closure([12, 18, 30])
    assert gcd_closure(closed) == closed
    assert 6 in closed  # gcd of the whole set


def test_divisor_closure():
    assert divisor_closure({6}) == frozenset({1, 2, 3, 6})
    assert divisor_closure({2, 8}) == frozenset({1, 2, 4, 8})


def test_qualifying_supports_c10():
    sups = qualifying_supports(cyclic(10))
    as_sets = {support.elements for support, _ in sups}
    assert as_sets == {
        ((1,), (9,)),
        ((3,), (7,)),
        ((1,), (3,), (7,), (9,)),
    }
    for support, generating_atoms in sups:
        G = support.group
        assert {G.neg(g) for g in support.elements} == set(support.elements)
        for atom in generating_atoms:
            assert atom.length == 10
            assert support_elements(atom) <= set(support.elements)
        # every support element divides a maximal-length atom inside the
        # support (possibly the negation of a listed one)
        covered = set()
        for atom in generating_atoms:
            covered.update(support_elements(atom))
            covered.update(G.neg(g) for g in support_elements(atom))
        assert covered == set(support.elements)


def test_qualifying_supports_small():
    assert len(qualifying_supports(cyclic(3))) == 1
    sups = qualifying_supports(make_group([2, 2]))
    assert len(sups) == 1
    assert sups[0][0].elements == ((0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("name", ["C4", "C5", "C6", "C7", "C8", "C9", "C10",
                                  "C2xC2", "C2xC2xC2", "C2xC4", "C3xC3"])
def test_star_scan_agrees_with_unpruned_enumeration(name):
    # the pruned union walk must match min deltas over the oracle's list of
    # every union, each valued from atoms enumerated over that union alone
    G = parse_group(name)
    star = delta_rho_star(G)
    unpruned = {min_delta(support) for support, _ in qualifying_supports(G)}
    unpruned.discard(None)
    assert star == frozenset(unpruned)


def _record_reductions(monkeypatch):
    """The columns that reach the walk's kernel reduction, one list per call,
    with the number of rows it was given."""
    module = importlib.import_module("zslen.delta_rho")
    reduce = module._functional_gcd
    calls = []

    def recorded(columns, nrows):
        read = []
        calls.append((nrows, read))
        return reduce((read.append(c) or c for c in columns), nrows)

    monkeypatch.setattr(module, "_functional_gcd", recorded)
    return calls


def _reads_a_prefix(group, union, calls, value) -> bool:
    """Whether the one reduction of ``union`` stopped before the end of its
    columns, after checking what it read: a prefix of the atoms of
    ``enumerate_atoms``'s stream in DFS order, each as ``v + (1,)``, and
    right before each atom of length >= 3 the vector (0, ..., 0, length -
    2); a union whose reduction stops early is worth 1."""
    support = SupportSet.of(group, union)
    stream = list(sequences._atom_vectors(support, default_config()))  # what enumerate_atoms reads
    assert sorted(stream) == sorted(enumerate_atoms(support).mult_vectors)
    nrows = len(union)
    columns = []
    for v in stream:
        if sum(v) >= 3:
            columns.append((0,) * nrows + (sum(v) - 2,))
        columns.append(v + (1,))
    [(rows, read)] = calls
    assert rows == nrows and read == columns[:len(read)], union
    assert len(read) == len(columns) or value == 1, union
    return len(read) < len(columns)


# unions whose reduction stops before the end of their stream, per group
_STOPPED_EARLY = {"C9": 3, "C2xC4": 5, "C2xC2xC2": 7, "C3xC6": 196, "C2xC2xC2xC2": 145}


@pytest.mark.parametrize("name", list(_STOPPED_EARLY))
def test_min_delta_of_mask_matches_min_delta_of_its_support(name, monkeypatch):
    # the walk's valuation against the kernel alone on atoms enumerated
    # afresh over the union, on every class and on the unions of two classes
    # (a fixed sample of them for C2^4, whose 168 classes make 8,001); the
    # C2^4 classes have value 3, so their reduction reads every column
    G = parse_group(name)
    source = _OrbitSource(G, default_config())
    elems = G.elements()
    calls = _record_reductions(monkeypatch)
    pairs = sorted({a | b for a in source.class_masks for b in source.class_masks})
    if name == "C2xC2xC2xC2":
        pairs = random.Random(1606).sample(pairs, 150)
    settled = 0
    for m in source.class_masks + pairs:
        union = tuple(elems[j] for j in _set_bits(m))
        calls.clear()
        value = source.min_delta_of_mask(m)
        assert value == min_delta(SupportSet.of(G, union)), m
        settled += _reads_a_prefix(G, union, calls, value)
    assert settled == _STOPPED_EARLY[name]
    if name == "C2xC2xC2xC2":
        assert source.min_delta_of_mask(source.class_masks[0]) == 3


@pytest.mark.parametrize("n, want, stopped", [
    (15, {1, 13}, 10), (16, {1, 2, 14}, 6), (21, {1, 19}, 35), (26, {1, 4, 24}, 32),
])
def test_cyclic_min_delta_of_mask_matches_min_delta_of_its_support(n, want, stopped, monkeypatch):
    # the cyclic source's valuation against the kernel alone, on every class
    # and every union of two or three of its classes (4 for C15 and C16, 6
    # for C21 and C26).  For even n every unit is odd, so every atom over
    # units has even length and the vectors (0, ..., 0, length - 2) alone
    # never give 1, but with the atoms reduced so far they settle unions
    # before the end of their stream all the same
    G = cyclic(n)
    source = _UnitClassScan(G, default_config())
    classes = list(source.class_masks)
    calls = _record_reductions(monkeypatch)
    values, settled = set(), 0
    for m in (sum(c) for k in (1, 2, 3) for c in combinations(classes, k)):
        union = [(j,) for j in _set_bits(m)]
        calls.clear()
        value = source.min_delta_of_mask(m)
        assert value == min_delta(SupportSet.of(G, union)), m
        settled += _reads_a_prefix(G, union, calls, value)
        values.add(value)
    assert (values, settled) == (want, stopped)


@pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
def test_every_atom_over_the_units_of_an_even_cyclic_group_has_even_length(n):
    # a sum of k odd residues is 0 mod n, hence even, only for even k
    G = cyclic(n)
    units = SupportSet.of(G, [(u,) for u in range(1, n) if gcd(u, n) == 1])
    lengths = enumerate_atoms(units).lengths
    assert lengths and all(length % 2 == 0 for length in lengths)


def _as_sets(group, masks):
    elems = group.elements()
    return [frozenset(elems[j] for j in _set_bits(m)) for m in masks]


@pytest.mark.parametrize("name", ["C3xC6", "C2xC2xC2xC2", "C2xC2xC6", "C5xC5", "C3xC3xC3",
                                  "C2xC4xC4"])
def test_orbit_source_classes_equal_full_enumeration_classes(name):
    # the maximal-length atoms of the pruned DFS, their classes
    # closed under the automorphism permutations, against the classes of
    # every atom of the whole group
    group = parse_group(name)
    source = _OrbitSource(group, default_config())
    assert source.class_masks == sorted(set(source.class_masks))
    assert set(_as_sets(group, source.class_masks)) == full_enumeration_classes(group)


@pytest.mark.parametrize("name, count, orbits", [("C4xC4", 96, 2), ("C3xC6", 48, 4),
                                                 ("C2xC2xC6", 336, 7), ("C2xC4xC4", 1536, 14)])
def test_generator_orbits_on_classes_equal_brute_force_aut_orbits(name, count, orbits):
    # the classes sharing a canonical form are the orbits of all of Aut(G)
    group = parse_group(name)
    source = _OrbitSource(group, default_config())
    by_rep = {}
    for mask in source.class_masks:
        by_rep.setdefault(source.canonical(mask), []).append(mask)
    ours = {frozenset(_as_sets(group, masks)) for masks in by_rep.values()}
    automorphisms = brute_force_automorphisms(group)
    assert len(automorphisms) == count
    assert ours == orbits_of_sets(_as_sets(group, source.class_masks), automorphisms)
    assert len(ours) == orbits
    assert all(source.canonical(rep) == rep for rep in by_rep)


def test_budgets_stop_the_noncyclic_walk(monkeypatch):
    # every cap still stops the orbit source's enumeration or the walk, in
    # process and through the CLI
    # (C2xC4xC4 has 8 permutations of 32 entries, 512 with their inverses,
    # so 1,000 nodes pass the set-up and stop the pruned enumeration, which
    # visits 5,969 nodes)
    group = parse_group("C2xC4xC4")
    caps = [("max_atoms", 10, "atom count"), ("max_nodes", 1000, "enumeration nodes"),
            ("max_nodes", 100, "automorphism permutation entries"),
            ("max_supports", 10, "distinct support unions")]
    for field, cap, what in caps:
        with pytest.raises(BudgetExceededError) as exc:
            delta_rho_star(group, config=ResourceConfig(**{field: cap}))
        assert exc.value.what == what
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    assert main(["--budget-atoms", "100", "delta-rho", "--group", "C2xC4xC4"]) == 3  # 631 atoms


def test_a_union_of_value_one_answers_once_its_gcd_settles(monkeypatch, capsys):
    # a union's atoms are read only until the gcd of their length - 2 is 1,
    # so the atom cap counts what is read before the value settles: C3^3
    # answers within 100 atoms (70 suffice; a full enumeration of each union
    # needed 302), and C2xC4xC4 within 700 (the set-up DFS reads 631, the
    # full enumerations needed 743)
    assert delta_rho_star(parse_group("C3xC3xC3"), config=ResourceConfig(max_atoms=100)) == {1}
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    code = main(["--budget-atoms", "700", "--format", "json", "delta-rho", "--group", "C2xC4xC4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["star"] == [1]


def test_budgets_stop_the_setup_of_a_large_noncyclic_group(monkeypatch, capsys):
    # C2xC4xC1000 (order 8,000): the set-up builds 10 permutations of 8,000
    # entries, far below the default node cap, and no table quadratic in the
    # order, so the atom cap is reached as it is without the orbit source;
    # a node cap below the permutations' entries stops the set-up itself
    group = parse_group("C2xC4xC1000")
    with pytest.raises(BudgetExceededError) as exc:
        delta_rho_star(group, config=ResourceConfig(max_nodes=50_000))
    assert exc.value.what == "automorphism permutation entries"
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    assert main(["--budget-atoms", "1000", "delta-rho", "--group", "C2xC4xC1000"]) == 3
    assert "atom count" in capsys.readouterr().err


def test_atom_cap_stops_a_large_noncyclic_set_up_in_bounded_memory():
    # C2xC4xC1000 has 8,000 positions: the pruned DFS codes only the first
    # 128 of them, so the codes on its path hold at most 128 digits; coding
    # all 8,000 took the peak of this run to about 390 MB.  About 60 MB of
    # the peak are the set-up's tables at the group's order (translation
    # steps, support masks, permutations), which no prune test changes
    group = parse_group("C2xC4xC1000")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as exc:
            delta_rho_star(group, config=ResourceConfig(max_atoms=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.what == "atom count"
    assert peak < 80_000_000


def test_star_values():
    assert delta_rho_star(cyclic(10)) == frozenset({2, 8})
    assert delta_rho_star(make_group([2, 2, 2])) == frozenset({1, 2})
    assert delta_rho_star(cyclic(8)) == frozenset({1, 6})
    assert delta_rho_star(cyclic(2)) == frozenset()


def test_delta_rho_dispatch():
    r = delta_rho(cyclic(6))
    assert (r.exact, r.provenance) == (frozenset({4}), "theorem-cyclic")
    r = delta_rho(make_group([3, 3]))
    assert (r.exact, r.provenance) == (frozenset({1}), "theorem-rank2")
    r = delta_rho(make_group([2, 2, 4]))
    assert (r.exact, r.provenance) == (frozenset({1}), "theorem-C2C2C2n")
    r = delta_rho(make_group([3, 3, 3]))
    assert (r.exact, r.provenance) == (frozenset({1}), "theorem-ppower")
    r = delta_rho(make_group([2] * 5))
    assert (r.exact, r.provenance) == (frozenset({1, 4}), "theorem-elem2")
    r = delta_rho(cyclic(2))
    assert r.exact == frozenset() and r.provenance == "trivial"
    # outside every settled class; its exact set is left open here
    r = delta_rho(make_group([2, 2, 2, 4]))
    assert r.provenance == "sandwich-only"
    assert r.star == r.upper == r.conjectured == frozenset({1})


def test_delta_rho_invariants():
    for name in ("C4", "C5", "C10", "C12", "C2xC2", "C2xC4", "C2xC6"):
        r = delta_rho(parse_group(name))
        assert r.star <= r.exact <= r.upper
        assert max(r.star) == max(r.upper)
        assert r.conjectured is None  # all are settled by a theorem


def test_one_in_delta_rho():
    assert not one_in_delta_rho(cyclic(4))
    assert not one_in_delta_rho(cyclic(10))
    assert one_in_delta_rho(make_group([2, 4]))
    assert one_in_delta_rho(cyclic(5))
    with pytest.raises(InputError):
        one_in_delta_rho(cyclic(2))


def test_realize_single_distances():
    G, sups = realize_delta_set([1])
    assert str(G) == "C8"
    assert sups[0].elements == ((1,), (3,))
    G, sups = realize_delta_set([2])
    assert str(G) == "C4"
    assert min_delta(sups[0]) == 2
    atoms = enumerate_atoms(sups[0])
    assert atoms.davenport == 4


def test_realize_list_assembles_blocks():
    G, sups = realize_delta_set([2, 3])
    assert G.order() == 4 * 36
    assert [min_delta(s) for s in sups] == [2, 3]
    assert gcd_closure([2, 3]) == frozenset({1, 2, 3})
    with pytest.raises(InputError):
        realize_delta_set([])
    with pytest.raises(InputError):
        realize_delta_set([0])


def test_star_budget_error_propagates():
    # C12 needs 23 nodes (next test)
    with pytest.raises(BudgetExceededError):
        delta_rho_star(cyclic(12), config=ResourceConfig(max_nodes=20))


@pytest.mark.parametrize("n, field, cap, star", [
    (12, "max_nodes", 23, {1, 10}), (26, "max_atoms", 37, {1, 4, 24}),
])
def test_an_even_order_walk_answers_from_a_prefix_of_each_union(n, field, cap, star):
    # the reduction stops each union's DFS once its gcd is 1, also on even
    # orders, where every atom length is even: C12 answers within 23 nodes
    # (91 when each union read its whole stream) and C26 within 37 atoms
    # (115); one less raises
    assert delta_rho_star(cyclic(n), config=ResourceConfig(**{field: cap})) == star
    with pytest.raises(BudgetExceededError):
        delta_rho_star(cyclic(n), config=ResourceConfig(**{field: cap - 1}))


def test_node_budget_stops_a_large_cyclic_walk_in_little_memory():
    # C100000 has 20,000 unit classes of 100,000-bit masks, and the first
    # union {1, -1} has a DFS path of powers of 1 as deep as the node cap; a
    # mask per class, or per node of that path, would take over 100 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            delta_rho_star(cyclic(100_000), config=ResourceConfig(max_nodes=10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000_000


def test_node_budget_stops_a_huge_cyclic_walk_without_the_element_table():
    # a union names its elements from their indices; a table of the group's
    # 200,000 element tuples would take the peak past 25 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            delta_rho_star(cyclic(200_000), config=ResourceConfig(max_nodes=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25_000_000


def test_node_budget_stops_a_huge_cyclic_walk_without_translation_rows():
    # the DFS moves the index of a node's negated sum by the mask steps; a
    # |G|-entry row of indices per support element would take the peak of
    # C500000 to about 49 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="enumeration nodes"):
            delta_rho_star(cyclic(500_000), config=ResourceConfig(max_nodes=5_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15_000_000


def test_orbit_source_keeps_the_classes_of_the_longest_atoms_not_an_atom_set(monkeypatch):
    # the pruned DFS of C3^3 yields 70 atoms; the source reads them as a
    # stream and builds no AtomSet of them
    received = []
    init = sequences.AtomSet.__init__

    def counted(self, support, vectors):
        received.append(len(vectors))
        init(self, support, vectors)

    monkeypatch.setattr(sequences.AtomSet, "__init__", counted)
    _OrbitSource(make_group([3, 3, 3]), default_config())
    assert sum(received) == 0


def test_support_union_budget_admits_exactly_the_walk(monkeypatch):
    # k unions visited, one value each: a budget of k completes the walk,
    # one less stops it at the last visit
    module = importlib.import_module("zslen.delta_rho")
    value_of = module._UnitClassScan.min_delta_of_mask
    visits = []

    def counted(self, mask):
        visits.append(mask)
        return value_of(self, mask)

    monkeypatch.setattr(module._UnitClassScan, "min_delta_of_mask", counted)
    star = delta_rho_star(cyclic(12))
    k = len(visits)
    assert k == len(set(visits)) >= 2
    assert delta_rho_star(cyclic(12), config=ResourceConfig(max_supports=k)) == star
    with pytest.raises(BudgetExceededError) as exc:
        delta_rho_star(cyclic(12), config=ResourceConfig(max_supports=k - 1))
    assert exc.value.what == "distinct support unions"


class _TableSource:
    """A stub walk source: four classes as bits 1, 2, 4, 8, identity
    canonical form, and a fixed value per union.  Each union's value divides
    the values of its parts, as ``min Δ`` does.  The value 2 sits only at
    the union of classes 4 and 8; the walk reaches it only by expanding one
    of them, after the value 1 is known, and their value 6 was already seen
    at class 2."""

    class_masks = roots = [1, 2, 4, 8]
    values = {1: 1, 2: 6, 4: 6, 8: 6, 4 | 8: 2}  # every other union: 1

    def __init__(self, group, config):
        pass

    @staticmethod
    def canonical(mask):
        return mask

    def min_delta_of_mask(self, mask):
        return self.values.get(mask, 1)


def test_star_walk_expands_past_one_and_past_repeated_values(monkeypatch):
    # a walk that stops once 1 is known, or that skips a union whose value
    # it has already seen, ends at {1, 6}; the module comes from
    # import_module because the package exports the function delta_rho
    module = importlib.import_module("zslen.delta_rho")
    monkeypatch.setattr(module, "_OrbitSource", _TableSource)
    assert delta_rho_star(make_group([2, 2])) == frozenset({1, 2, 6})


def test_star_walk_stops_expanding_a_union_once_its_divisors_are_known(monkeypatch):
    # the 168 classes of C2^4 form one orbit of value 3, and the first union
    # of two classes has value 1: with {1, 3} known, neither that union nor
    # the class needs expanding further (the walk used to value all 168
    # classes and then the 167 unions with the first one)
    module = importlib.import_module("zslen.delta_rho")
    value_of = module._OrbitSource.min_delta_of_mask
    visits = []

    def counted(self, mask):
        visits.append(mask)
        return value_of(self, mask)

    monkeypatch.setattr(module._OrbitSource, "min_delta_of_mask", counted)
    assert delta_rho_star(make_group([2, 2, 2, 2])) == frozenset({1, 3})
    assert len(visits) == 2


def test_singleton_distance_groups_collapse():
    # when the whole distance set of the group is a singleton, star and
    # exact agree with it
    for factors, want in [([3], {1}), ([2, 2], {1}), ([4], {2})]:
        G = make_group(factors)
        r = delta_rho(G)
        assert delta_rho_star(G) == frozenset(want)
        assert r.exact == frozenset(want)


import os


@pytest.mark.skipif(not os.environ.get("ZSLEN_STRETCH"),
                    reason="C3xC3xC6 takes about 6 s; set ZSLEN_STRETCH=1")
def test_star_set_of_c3_c3_c6_on_default_budgets():
    # on the default budgets (1M atoms, 10M nodes): the pruned DFS visits
    # 140,169 nodes, and the orbit source holds only the classes of the
    # longest atoms; the child's own max RSS comes from wait4
    code = ("from zslen.config import ResourceConfig; from zslen.delta_rho import delta_rho_star; "
            "from zslen.groups import make_group; "
            "print(sorted(delta_rho_star(make_group([3, 3, 6]), config=ResourceConfig())))")
    src = os.path.dirname(os.path.dirname(sequences.__file__))
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    assert (os.waitstatus_to_exitcode(status), out) == (0, b"[1]\n")
    assert usage.ru_maxrss < 100_000  # KiB


@pytest.mark.skipif(not os.environ.get("ZSLEN_STRETCH"),
                    reason="sandwich-only enumeration is slow; set ZSLEN_STRETCH=1")
def test_sandwich_only_dispatch():
    # smallest group outside every settled class
    G = make_group([2, 4, 4])
    r = delta_rho(G)
    assert r.provenance == "sandwich-only"
    assert r.exact is None
    assert r.star == frozenset({1})
    assert r.conjectured == frozenset({1})
    assert r.upper == frozenset({1})


def test_star_set_matches_raw_definition_on_tiny_groups():
    """Independent of every shortcut: enumerate all supports, search directly
    for a full-support element at peak elasticity, and collect brute-force
    distance gcds."""
    from fractions import Fraction
    from itertools import combinations
    from math import gcd

    from zslen.sequences import full_support
    from zslen.verify import _exhaustive_lengths

    def star_brute(G):
        D = enumerate_atoms(full_support(G)).davenport
        peak = Fraction(D, 2)
        nonzero = [g for g in G.elements() if g != G.zero()]
        values = set()
        for size in range(1, len(nonzero) + 1):
            for combo in combinations(nonzero, size):
                from zslen.sequences import SupportSet

                sup = SupportSet.of(G, combo)
                atoms = enumerate_atoms(sup)
                if not atoms.atoms:
                    continue
                table = _exhaustive_lengths(atoms, 4 * D)
                qualifies = False
                for vec, lengths in table.items():
                    if sum(vec) == 0 or any(v == 0 for v in vec):
                        continue
                    vals = sorted(lengths)
                    if Fraction(vals[-1], vals[0]) == peak:
                        qualifies = True
                        break
                if not qualifies:
                    continue
                g0 = 0
                for lengths in table.values():
                    vals = sorted(lengths)
                    for a, b in zip(vals, vals[1:]):
                        g0 = gcd(g0, b - a)
                if g0:
                    values.add(g0)
        return frozenset(values)

    for factors in ([3], [4], [5], [2, 2], [6]):
        G = make_group(factors)
        assert star_brute(G) == delta_rho_star(G), factors


def test_qualifying_supports_generate_the_group():
    # supports of maximal-length atoms always generate; so do their unions
    for name in ("C10", "C12", "C2xC2", "C2xC4"):
        G = parse_group(name)
        for support, _ in qualifying_supports(G):
            assert len(subgroup_generated(G, support.elements)) == G.order()


STRETCH = bool(os.environ.get("ZSLEN_STRETCH"))


@pytest.mark.parametrize("n", range(3, (28 if STRETCH else 24) + 1))
def test_cyclic_route_agrees_with_full_enumeration_walk(n):
    # unit classes, unit orbits, per-union atoms and divisor pruning against
    # the unpruned walk over every atom of the whole group
    assert delta_rho_star(cyclic(n)) == full_enumeration_star(cyclic(n))


@pytest.mark.parametrize("name", ["C2xC2", "C2xC4", "C3xC3", "C2xC2xC2", "C2xC6", "C2xC2xC4",
                                  "C4xC4", "C2xC8", "C3xC6", "C2xC2xC2xC2", "C2xC2xC6"])
def test_noncyclic_walk_agrees_with_full_enumeration_walk(name):
    # the walk over _OrbitSource (the DFS pruned by automorphisms, class orbits,
    # per-union atoms, gcd shortcut, divisor pruning and early exit) against
    # the oracle's own frozenset classes and unions of every atom of the
    # whole group, valued by the kernel alone
    group = parse_group(name)
    assert delta_rho_star(group) == full_enumeration_star(group)


def test_star_scan_matches_exceptional_witness():
    # the kernel lattice, with no continued fractions, reproduces the scan's
    # exceptional orders (including 272 under ZSLEN_STRETCH)
    for n in range(8, (300 if STRETCH else 120) + 1, 2):
        star = delta_rho_star(cyclic(n))
        assert (star <= {1, n - 2}) == (exceptional_witness(n) is None), (n, sorted(star))
