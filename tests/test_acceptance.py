"""Acceptance criteria, one test per criterion, exact expected values.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
then asserts.  All comparisons are exact: integers, rationals, finite sets.

Criterion 2 carries a known discrepancy: the bundled reference table for the
exceptional scan omits 272, which both scan engines and the kernel-lattice
oracle independently certify as exceptional (no coprime witness exists; every
symmetric two-generator-class support of the order-272 cyclic group has
minimum distance 1, single classes give 270).  The comparison is asserted as
stated and is expected to fail until the reference table is corrected; see
README "Known discrepancy".
"""

import os
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from zslen.cf import exceptional_witness, min_delta_pair, min_delta_sym_quad, scan_exceptional
from zslen.delta_rho import delta_rho, delta_rho_star, divisor_closure
from zslen.fp import FPMonoid, delta_rho_star_product, local_profile
from zslen.groups import cyclic, make_group, parse_group
from zslen.lengths import min_delta
from zslen.sequences import SupportSet
from zslen.verify import (
    CYCLIC_TABLE,
    PUBLISHED_EXCEPTIONAL,
    run_suite,
)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_cyclic_table():
    start = time.monotonic()
    computed = {n: frozenset(delta_rho(cyclic(n)).exact) for n in range(4, 13)}
    elapsed = time.monotonic() - start
    ok = computed == CYCLIC_TABLE and elapsed < 300
    assert report(1, ok, f"exact sets for C4..C12 in {elapsed:.1f}s"), computed


def test_criterion_02_exceptional_scan_desk_scale():
    start = time.monotonic()
    rep = scan_exceptional(8, 3000, engine="both")
    elapsed = time.monotonic() - start
    agree_and_fast = elapsed < 10  # engine="both" raises on disagreement
    assert report(2, agree_and_fast, f"engines agree on [8,3000] in {elapsed:.2f}s")
    matches = rep.exceptional == PUBLISHED_EXCEPTIONAL
    report(2, matches, "exceptional set equals the bundled reference table")
    assert matches, (
        "computed exceptional set has "
        f"{len(rep.exceptional)} elements; the bundled reference table omits 272, "
        "which both engines and the kernel-lattice oracle certify as exceptional "
        "(see README, 'Known discrepancy')"
    )


@pytest.mark.skipif(not os.environ.get("ZSLEN_STRETCH"),
                    reason="stretch scan to 10^6 is opt-in (set ZSLEN_STRETCH=1)")
def test_criterion_02_stretch_scan_to_one_million():
    rep = scan_exceptional(8, 1_000_000, engine="e2")
    known = set(PUBLISHED_EXCEPTIONAL) | {272}
    assert set(rep.exceptional) == known
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(8, 1_000_000, 2)
        direct = exceptional_witness(n)
        assert (direct is None) == (n in rep.exceptional)
        if direct is not None:
            assert rep.witnesses[n] == direct
    report(2, True, "stretch: E2 to 10^6 with 100 E1 spot checks")


def test_criterion_03_elementary_two_groups():
    computed = {r: delta_rho_star(make_group([2] * r)) for r in (2, 3, 4)}
    want = {r: frozenset({1, r - 1}) for r in (2, 3, 4)}
    ok = computed == want
    assert report(3, ok, "star sets of C2^r for r in {2,3,4}"), computed


ONE_MEMBERS = ("C5", "C7", "C8", "C9", "C12", "C2xC2", "C2xC4", "C3xC3")
ONE_EXCLUDED = ("C4", "C6", "C10")


def test_criterion_04_dichotomy_for_one():
    bad = []
    for name in ONE_MEMBERS:
        star = delta_rho_star(parse_group(name))
        if 1 not in star:
            bad.append((name, sorted(star)))
    for name in ONE_EXCLUDED:
        star = delta_rho_star(parse_group(name))
        if min(star) == 1:
            bad.append((name, sorted(star)))
    for name in ONE_MEMBERS + ONE_EXCLUDED:
        G = parse_group(name)
        if (1 in delta_rho_star(G)) != (not (G.is_cyclic and G.order() in (4, 6, 10))):
            bad.append((name, "dichotomy"))
    ok = not bad
    assert report(4, ok, "membership of 1 matches the cyclic-order dichotomy"), bad


def test_criterion_05_rank_two_like_groups():
    bad = []
    for name in ("C3xC3", "C2xC4", "C2xC6", "C2xC2xC4"):
        start = time.monotonic()
        star = delta_rho_star(parse_group(name))
        elapsed = time.monotonic() - start
        if star != frozenset({1}) or elapsed >= 120:
            bad.append((name, sorted(star), f"{elapsed:.1f}s"))
    ok = not bad
    assert report(5, ok, "star sets are {1}, each under two minutes"), bad


def test_criterion_06_cf_cross_oracle():
    start = time.monotonic()
    bad = []
    for n in range(5, 61):
        G = cyclic(n)
        for a in range(2, n):
            if gcd(a, n) != 1:
                continue
            if min_delta(SupportSet.of(G, [(1,), (a,)])) != min_delta_pair(n, a):
                bad.append(("pair", n, a))
            if 2 * a < n:
                quad = SupportSet.of(G, [(1,), (a,), (n - a,), (n - 1,)])
                if min_delta(quad) != min_delta_sym_quad(n, a):
                    bad.append(("quad", n, a))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60
    assert report(6, ok, f"formulas match the kernel oracle for n in [5,60] in {elapsed:.1f}s"), bad


def test_criterion_07_kernel_vs_brute_force():
    suite = run_suite("kernel-brute")
    ok = suite.ok and suite.skipped == 0
    detail = "; ".join(c.description for c in suite.checks)
    assert report(7, ok, detail), [c for c in suite.checks if not c.passed]


def test_criterion_08_local_profiles():
    p1 = local_profile(FPMonoid.of(1, [(0, 3), (0, 5)]))
    p2 = local_profile(FPMonoid.of(2, [(1, 3), (0, 5)]))
    product = delta_rho_star_product([2, 3])
    ok = (
        (p1.rho, p1.d, p1.min_delta) == (Fraction(5, 3), 2, 2)
        and (p2.rho, p2.d, p2.min_delta) == (Fraction(5, 3), 2, 4)
        and product == frozenset({1, 2, 3})
    )
    assert report(8, ok, "local profiles and the product star formula"), (p1, p2, product)


def test_criterion_09_property_suites():
    suite = run_suite("props")
    ok = suite.ok and suite.skipped == 0
    failing = [c.description for c in suite.checks if not c.passed]
    assert report(9, ok, f"{len(suite.checks)} property checks"), failing


def test_criterion_10_characterization_separation():
    r10 = delta_rho(cyclic(10))
    r29 = delta_rho(make_group([2] * 9))
    ok = (
        frozenset(r10.exact) == frozenset({2, 8})
        and frozenset(r29.exact) == frozenset({1, 8})
        and r29.provenance == "theorem-elem2"
        and not set(r10.exact) <= set(r29.exact)
    )
    assert report(10, ok, "exact set of C10 is not contained in that of C2^9"), (r10, r29)


def test_sandwich_consistency_where_exact_is_known():
    # companion to criterion 9: star within exact within divisor closure
    bad = []
    for name in ("C4", "C6", "C10", "C12", "C2xC2xC2", "C2xC4"):
        G = parse_group(name)
        result = delta_rho(G)
        star = delta_rho_star(G)
        if not (star <= result.exact <= divisor_closure(star)):
            bad.append(name)
        if max(star) != max(result.exact):
            bad.append((name, "max"))
    assert not bad, bad
