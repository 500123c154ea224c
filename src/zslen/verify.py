"""Verification suites: every table and small theorem instance in scope,
with exact expected values (integers, rationals, finite sets; no tolerances).

The pytest acceptance module runs two of them, ``kernel-brute`` and
``props``, through :func:`run_suite` and asserts every check; its other
criteria recompute their tables directly.  Every check is recorded by
:func:`_add`, which runs the check's work: a check whose work exceeds a
budget (``--budget-atoms`` or ``ZSLEN_BUDGET``) is skipped with the budget
message, which is reported distinctly from pass/fail so an audit can tell
"unverified" from "passed", and the other checks still run.  ``zslen
verify`` then exits 3, or 1 if any check fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator

from .cf import min_delta_pair, min_delta_sym_quad, scan_exceptional, sufficient_filters
from .config import ResourceConfig, default_config
from .delta_rho import delta_rho, delta_rho_star, divisor_closure, gcd_closure, one_in_delta_rho, realize_delta_set
from .errors import BudgetExceededError, EngineMismatchError, InputError
from .fp import FPMonoid, delta_rho_star_product, fp_length_set, local_profile
from .groups import AbelianGroup, cyclic, make_group, parse_group
from .lengths import _set_bits, length_set, min_delta, min_delta_of_atoms, sumset
from .sequences import GSequence, SupportSet, enumerate_atoms


@dataclass(frozen=True)
class Check:
    description: str
    expected: str
    computed: str
    passed: bool
    skipped: bool = False
    reason: str = ""


@dataclass
class VerifySuite:
    name: str
    checks: list[Check] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.skipped and not c.passed)

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.checks if c.skipped)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _fmt(value) -> str:
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(map(str, sorted(value))) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(str, value)) + "]"
    return str(value)


def _add(suite: VerifySuite, description: str | Callable[[], str], expected,
         compute: Callable[[], object]):
    """Record one check: run its work ``compute`` and compare the result with
    ``expected``, or skip the check when the work exceeds a budget.  A
    callable ``description`` is read after the work, so it can report counts
    the work found."""
    try:
        computed = compute()
    except BudgetExceededError as exc:
        computed, reason = "-", str(exc)
    else:
        reason = ""
    text = description() if callable(description) else description
    suite.checks.append(Check(text, _fmt(expected), _fmt(computed),
                              not reason and computed == expected, bool(reason), reason))


def _once(compute: Callable[[], object]) -> Callable[[], object]:
    """``compute`` for checks that report on one piece of work: it runs at
    the first call, and every call returns its result or raises its budget
    error again, so a budget stop skips each of those checks."""
    outcome = []

    def shared():
        if not outcome:
            try:
                outcome.append(compute())
            except BudgetExceededError as exc:
                outcome.append(exc)
        if isinstance(outcome[0], BudgetExceededError):
            raise outcome[0]
        return outcome[0]

    return shared


# -- individual suites -------------------------------------------------------

CYCLIC_TABLE = {
    4: frozenset({2}),
    5: frozenset({1, 3}),
    6: frozenset({4}),
    7: frozenset({1, 5}),
    8: frozenset({1, 6}),
    9: frozenset({1, 7}),
    10: frozenset({2, 8}),
    11: frozenset({1, 9}),
    12: frozenset({1, 10}),
}

PUBLISHED_EXCEPTIONAL = (
    8, 12, 14, 18, 20, 30, 32, 44, 48, 54, 62, 72, 74, 84, 90, 102,
    138, 182, 230, 252, 270, 450, 462, 2844,
)


def suite_cyclic_table(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("cyclic-table")
    for n, want in CYCLIC_TABLE.items():
        _add(suite, f"exact distance set for C{n}", want,
             lambda n=n: frozenset(delta_rho(cyclic(n), config=cfg).exact))
    return suite


def suite_cf_scan(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("cf-scan")
    report = _once(lambda: scan_exceptional(8, 3000, engine="both"))

    def agreement():
        try:
            report()
        except EngineMismatchError as exc:
            return str(exc)
        return "agree"

    _add(suite, "engines E1 and E2 agree on [8,3000]", "agree", agreement)
    if suite.checks[-1].passed:  # the other checks read the agreed report
        _add(suite, "exceptional n in [8,3000] match the published table",
             tuple(PUBLISHED_EXCEPTIONAL), lambda: report().exceptional)
        _add(suite, "every witnessed n has a coprime witness below n/2", True,
             lambda: all(gcd(a, n) == 1 and 2 <= a <= n // 2 for n, a in report().witnesses.items()))
    return suite


def suite_elem2(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("elem2")
    for r in (2, 3, 4):
        want = frozenset({1, r - 1})
        _add(suite, f"star set of C2^{r}", want,
             lambda r=r: delta_rho_star(make_group([2] * r), config=cfg))
    return suite


ONE_IN_STAR = ("C5", "C7", "C8", "C9", "C12", "C2xC2", "C2xC4", "C3xC3")
ONE_NOT_MIN = ("C4", "C6", "C10")


def suite_one_dichotomy(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("one-dichotomy")
    stars = {name: _once(lambda name=name: delta_rho_star(parse_group(name), config=cfg))
             for name in ONE_IN_STAR + ONE_NOT_MIN}
    for name in ONE_IN_STAR:
        _add(suite, f"1 in star set of {name} (by enumeration)", True,
             lambda star=stars[name]: 1 in star())
    for name in ONE_NOT_MIN:
        _add(suite, f"min of star set of {name} exceeds 1", True,
             lambda star=stars[name]: min(star()) > 1)
    for name in ONE_IN_STAR + ONE_NOT_MIN:
        _add(suite, f"dichotomy predicate matches enumeration for {name}", True,
             lambda name=name: one_in_delta_rho(parse_group(name)) == (1 in stars[name]()))
    return suite


RANK_TWO_LIKE = ("C3xC3", "C2xC4", "C2xC6", "C2xC2xC4")


def suite_rank_two_often(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("rank-two-often")
    for name in RANK_TWO_LIKE:
        _add(suite, f"star set of {name} is exactly {{1}}", frozenset({1}),
             lambda name=name: delta_rho_star(parse_group(name), config=cfg))
    return suite


def suite_cf_cross(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("cf-cross")
    groups = {n: cyclic(n) for n in range(5, 61)}
    pairs = [(n, a) for n in groups for a in range(2, n) if gcd(a, n) == 1]
    quads = [(n, a) for n, a in pairs if 2 * a < n]

    def mismatches(cases, residues, formula):
        return [(n, a) for n, a in cases
                if min_delta(SupportSet.of(groups[n], residues(n, a)), config=cfg) != formula(n, a)]

    _add(suite, f"pair formula equals kernel oracle on {len(pairs)} cases (n in [5,60])", [],
         lambda: mismatches(pairs, lambda n, a: [(1,), (a,)], min_delta_pair))
    _add(suite, f"symmetric-quadruple formula equals kernel oracle on {len(quads)} cases", [],
         lambda: mismatches(quads, lambda n, a: [(1,), (a,), (n - a,), (n - 1,)], min_delta_sym_quad))
    return suite


def suite_locals(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("locals")
    numeric = FPMonoid.of(1, [(0, 3), (0, 5)])
    _add(suite, "numerical monoid <3,5>: (rho, d, min delta)",
         (Fraction(5, 3), 2, 2),
         lambda: (lambda p: (p.rho, p.d, p.min_delta))(local_profile(numeric, config=cfg)))
    twisted = FPMonoid.of(2, [(1, 3), (0, 5)])
    _add(suite, "unit-twisted monoid <(1,3),(0,5)> mod 2: (rho, d, min delta)",
         (Fraction(5, 3), 2, 4),
         lambda: (lambda p: (p.rho, p.d, p.min_delta))(local_profile(twisted, config=cfg)))
    _add(suite, "twisted monoid: lengths of value-30 unit-class-0 element",
         (6, 10),
         lambda: fp_length_set(twisted, (0, 30), config=cfg).values)
    small = FPMonoid.of(1, [(0, 2), (0, 3)])
    _add(suite, "numerical monoid <2,3>: (rho, d, min delta)",
         (Fraction(3, 2), 1, 1),
         lambda: (lambda p: (p.rho, p.d, p.min_delta))(local_profile(small, config=cfg)))
    _add(suite, "product star set for local distances [2,3]",
         frozenset({1, 2, 3}), lambda: delta_rho_star_product([2, 3]))
    return suite


def small_groups(max_order: int) -> list[AbelianGroup]:
    """All abelian groups of order in [3, max_order], one per isomorphism class."""
    out = []
    for order in range(3, max_order + 1):
        chains: list[tuple[int, ...]] = []

        def extend(chain: tuple[int, ...], remaining: int):
            if remaining == 1:
                chains.append(chain)
                return
            start = chain[-1] if chain else 2
            for d in range(start, remaining + 1):
                if remaining % d == 0 and (not chain or d % chain[-1] == 0):
                    extend(chain + (d,), remaining // d)

        extend((), order)
        out.extend(AbelianGroup(c) for c in chains)
    return out


def _random_atom_sets(rng: random.Random, pool, cfg: ResourceConfig, count: int, max_size: int,
                      keep=lambda support, atoms: True, symmetric: bool = False):
    """Yield ``count`` pairs ``(support, atoms)`` over random supports.

    Each draw takes a group from ``pool``, a size in [1, max_size] and that
    many distinct elements, closed under negation when ``symmetric``.  Draws
    that have no atoms or that ``keep`` rejects are drawn again.  A draw whose
    enumeration exceeds a budget raises, so the check that draws is skipped;
    from a given ``rng`` state a budget cuts the draws short, never changes them.
    """
    while count:
        G = rng.choice(pool)
        elems = rng.sample(G.elements(), rng.randint(1, min(max_size, G.order())))
        if symmetric:
            elems += [G.neg(g) for g in elems]
        support = SupportSet.of(G, elems)
        atoms = enumerate_atoms(support, config=cfg)
        if atoms and keep(support, atoms):
            count -= 1
            yield support, atoms


def _pack(vec, width: int) -> int:
    """The vector as one int: coordinate i in the ``width``-bit field at ``i * width``."""
    return sum(c << i * width for i, c in enumerate(vec))


def _product_bits(weighted, bound: int) -> Iterator[tuple[int, int]]:
    """Yield ``(p, bits)`` for every product ``p`` of atoms whose grade is at
    most ``bound``, in order of grade, each product once.

    ``weighted`` holds one ``(a, w)`` pair per atom: its packed multiplicity
    vector ``a`` and a positive weight ``w``.  A product is the sum of its
    atoms' keys, the empty product 0, and its grade is the sum of their
    weights.  Bit k of ``bits`` is set when ``p`` has a factorization into k
    atoms, so ``bits(p + a) |= bits(p) << 1`` over all atoms.  The grades are
    walked upwards, and a product is yielded when its grade is reached:
    weights are positive integers, so every contribution to its bitset came
    from a product of lower grade and the bitset is final.  A caller may
    stop iterating as soon as it has what it needs.  This stream shares no
    code with the length sets it checks.
    """
    atoms = sorted(weighted, key=lambda aw: aw[1])
    bits = {0: 1}
    layers = {0: [0]}
    for grade in range(bound + 1):
        for p in layers.pop(grade, ()):
            b = bits[p]
            yield p, b
            shifted = b << 1
            for a, w in atoms:
                g = grade + w
                if g > bound:
                    break
                q = p + a
                old = bits.get(q)
                if old is not None:
                    bits[q] = old | shifted
                    continue
                bits[q] = shifted
                layer = layers.get(g)
                if layer is None:
                    layers[g] = [q]
                else:
                    layer.append(q)


def _packed_lengths(atoms, bound: int) -> tuple[int, Iterator[tuple[int, int]]]:
    """The stream of ``(key, bits)`` over every product of atoms with
    |B| <= bound, keyed by multiplicity vectors packed ``width`` bits per
    coordinate; no coordinate exceeds |B| <= bound, so no field overflows.
    No budget applies: a caller stops the stream only when its answer is
    final."""
    width = bound.bit_length() or 1
    weighted = [(_pack(v, width), n) for v, n in zip(atoms.mult_vectors, atoms.lengths)]
    return width, _product_bits(weighted, bound)


def _exhaustive_lengths(atoms, bound: int) -> dict[tuple[int, ...], frozenset[int]]:
    """L(B) for every product of atoms with |B| <= bound."""
    width, products = _packed_lengths(atoms, bound)
    mask = (1 << width) - 1
    shifts = range(0, width * len(atoms.support.elements), width)
    return {tuple(k >> s & mask for s in shifts): frozenset(_set_bits(b)) for k, b in products}


def observed_min_delta(atoms, bound: int) -> int | None:
    """gcd of all distances over exhaustively generated products: the gcd
    of the gaps of a length set is the gcd of its lengths less its least.
    The products stream in, and the gcd stops once it is 1, which no further
    product can change."""
    g = 0
    for _, b in _packed_lengths(atoms, bound)[1]:
        g = gcd(g, *_set_bits(b >> (b & -b).bit_length() - 1))
        if g == 1:
            break
    return g if g else None


KERNEL_BRUTE_SAMPLES = 200
KERNEL_BRUTE_SEED = 7042
PROPS_SEED = 90521


def suite_kernel_brute(cfg: ResourceConfig) -> VerifySuite:
    """Kernel-lattice min delta vs gcd of exhaustively observed distances."""
    suite = VerifySuite("kernel-brute")
    tally = []  # " (n with distances, m empty)", known once every sample has run

    def keep(support, atoms):
        # resample pathologically large searches; never truncate one
        bound = 4 * atoms.davenport
        return len(atoms) <= 40 and len(atoms) * bound ** min(len(support.elements), 2) <= 600_000

    def disagreements():
        rng = random.Random(KERNEL_BRUTE_SEED)
        agree = both_empty = 0
        bad = []
        for support, atoms in _random_atom_sets(rng, small_groups(16), cfg, KERNEL_BRUTE_SAMPLES, 4, keep):
            kernel = min_delta_of_atoms(atoms)
            brute = observed_min_delta(atoms, 4 * atoms.davenport)
            if kernel != brute:
                bad.append((str(support.group), str(support), kernel, brute))
            elif kernel is None:
                both_empty += 1
            else:
                agree += 1
        tally.append(f" ({agree} with distances, {both_empty} empty)")
        return bad

    _add(suite, lambda: f"kernel min delta equals brute-force gcd on {KERNEL_BRUTE_SAMPLES} "
                        f"sampled supports{''.join(tally)}", [], disagreements)
    return suite


def suite_realize(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("realize")

    def distance_one():
        group, sups = realize_delta_set([1])
        return str(group), str(sups[0])

    _add(suite, "distance 1 realization group and support", ("C8", "{1,3}"), distance_one)
    for d in (2, 3, 4):
        def facts(d=d):
            atoms = enumerate_atoms(realize_delta_set([d])[1][0], config=cfg)
            # the distance witness needs d maximal-length atoms: size 2*d*d
            observed = _exhaustive_lengths(atoms, max(3 * atoms.davenport, 2 * d * d))
            distances = set()
            max_rho = Fraction(0)
            for lengths in observed.values():
                vals = sorted(lengths)
                distances.update(b - a for a, b in zip(vals, vals[1:]))
                if vals[0] > 0:
                    max_rho = max(max_rho, Fraction(vals[-1], vals[0]))
            return (min_delta_of_atoms(atoms), distances, max_rho)

        _add(suite, f"distance {d} realization: min delta, observed distances, peak elasticity",
             (d, {d}, Fraction(2)), facts)
    local = _once(lambda: [min_delta(s, config=cfg) for s in realize_delta_set([2, 3])[1]])
    _add(suite, "composite realization [2,3]: local min deltas", (2, 3), lambda: tuple(local()))
    _add(suite, "composite realization [2,3]: product star set", frozenset({1, 2, 3}),
         lambda: gcd_closure(local()))
    return suite


def suite_char_separation(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("char-separation")
    r10 = _once(lambda: delta_rho(cyclic(10), config=cfg))
    r29 = _once(lambda: delta_rho(make_group([2] * 9), config=cfg))
    _add(suite, "exact set for C10", frozenset({2, 8}), lambda: frozenset(r10().exact))
    _add(suite, "exact set for C2^9 via formula (no enumeration)",
         frozenset({1, 8}), lambda: frozenset(r29().exact))
    _add(suite, "formula provenance for C2^9", "theorem-elem2", lambda: r29().provenance)
    _add(suite, "C10 set not contained in C2^9 set", True,
         lambda: not set(r10().exact) <= set(r29().exact))
    return suite


def _random_zero_sum(rng: random.Random, atoms, max_factors: int) -> GSequence:
    k = len(atoms.support.elements)
    total = [0] * k
    for _ in range(rng.randint(1, max_factors)):
        vec = rng.choice(atoms.mult_vectors)
        total = [x + y for x, y in zip(total, vec)]
    return GSequence(atoms.support, tuple(total))


def suite_props(cfg: ResourceConfig) -> VerifySuite:
    suite = VerifySuite("props")
    rng = random.Random(PROPS_SEED)
    pool = small_groups(12)

    def at_most_30(support, atoms):
        return len(atoms) <= 30

    @_once
    def products():
        # sumset containment and elasticity multiplicativity on the same random products
        containment_bad, rho_bad = [], []
        for support, atoms in _random_atom_sets(rng, pool, cfg, 30, 3, at_most_30):
            a = _random_zero_sum(rng, atoms, 3)
            b = _random_zero_sum(rng, atoms, 3)
            la = length_set(a, atoms, config=cfg)
            lb = length_set(b, atoms, config=cfg)
            lab = length_set(a.mul(b), atoms, config=cfg)
            if not set(sumset(la, lb).values) <= set(lab.values):
                containment_bad.append((str(support), str(a), str(b)))
            peak = Fraction(atoms.davenport, 2)
            if la.rho() == peak and lb.rho() == peak and lab.rho() != peak:
                rho_bad.append((str(support), str(a), str(b)))
        return containment_bad, rho_bad

    _add(suite, "sumset containment L(a)+L(b) within L(ab) on 30 random products", [],
         lambda: products()[0])
    _add(suite, "peak elasticity is multiplicative on the same samples", [], lambda: products()[1])

    def divisibility():
        # distance divisibility against the kernel value
        bad = []
        for support, atoms in _random_atom_sets(rng, pool, cfg, 40, 3, at_most_30):
            md = min_delta_of_atoms(atoms)
            b = _random_zero_sum(rng, atoms, 4)
            lengths = length_set(b, atoms, config=cfg)
            for d in lengths.delta():
                if md is None or d % md:
                    bad.append((str(support), str(b), md, d))
        return bad

    _add(suite, "kernel min delta divides every observed distance on 40 random products", [],
         divisibility)

    def symmetric():
        # symmetric supports: min delta divides gcd of atom lengths minus two
        bad = []
        for support, atoms in _random_atom_sets(rng, pool, cfg, 100, 3, symmetric=True):
            md = min_delta_of_atoms(atoms)
            g = gcd(*(length - 2 for length in atoms.lengths if length >= 3))
            if md is None and g or md is not None and g % md:
                bad.append((str(support), md, g))
        return bad

    _add(suite, "min delta divides gcd(|U|-2) on 100 random symmetric supports", [], symmetric)

    def sandwich():
        # sandwich with max equality on every dispatchable group with enumerable star
        bad = []
        for name in ("C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
                     "C2xC2", "C2xC2xC2", "C2xC2xC2xC2", "C2xC4", "C3xC3",
                     "C2xC6", "C2xC2xC4"):
            G = parse_group(name)
            result = delta_rho(G, config=cfg)
            star = delta_rho_star(G, config=cfg)
            exact = result.exact if result.exact is not None else star
            closure = divisor_closure(star)
            if not (star <= exact <= closure and max(star) == max(closure) == max(exact)):
                bad.append((name, sorted(star), sorted(exact)))
            if frozenset(star) != frozenset(result.star):
                bad.append((name, "star-vs-dispatch", sorted(star), sorted(result.star)))
        return bad

    _add(suite, "star within exact within divisor closure, with equal maxima, on 16 groups", [],
         sandwich)

    def unwitnessed_filter_hits():
        # closed-form filters are sound: every filter hit has a witness
        report = scan_exceptional(8, 3000, engine="e1")
        return [
            n for n in range(8, 3001, 2)
            if sufficient_filters(n) & {"cond1", "cond2", "cond3", "cond4"}
            and n not in report.witnesses
        ]

    _add(suite, "every even n in [8,3000] hit by a closed-form filter has a witness", [],
         unwitnessed_filter_hits)
    return suite


SUITES: dict[str, Callable[[ResourceConfig], VerifySuite]] = {
    "cyclic-table": suite_cyclic_table,
    "cf-scan": suite_cf_scan,
    "elem2": suite_elem2,
    "one-dichotomy": suite_one_dichotomy,
    "rank-two-often": suite_rank_two_often,
    "cf-cross": suite_cf_cross,
    "locals": suite_locals,
    "kernel-brute": suite_kernel_brute,
    "realize": suite_realize,
    "char-separation": suite_char_separation,
    "props": suite_props,
}


def run_suite(name: str, config: ResourceConfig | None = None) -> VerifySuite:
    return run_suites([name], config)[0]


def run_suites(names: list[str], config: ResourceConfig | None = None) -> list[VerifySuite]:
    """Run the named suites in order; every name is checked before any runs."""
    cfg = config or default_config()
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return [SUITES[name](cfg) for name in names]
