"""Job lists, timed job bodies and answer checks for the four workloads.

A workload is a list of jobs, fixed before any timing from ``--seed``.  A job
is ``(job_id, kind, spec)``: ``spec`` is plain JSON data, and the timed body
for ``kind`` builds every zslen object from it, so repeated passes over one
job list do identical work.  The seed changes the concrete inputs but not the
amount of work, so run-to-run spread measures the machine, not the sample:

* ``star-cyclic`` / ``star-noncyclic``: the seed only orders the groups;
* ``lengths``: the supports and products of ``golden.json`` are pushed through
  a seeded automorphism of their group (unit scaling and a permutation of
  equal cyclic factors), which preserves atoms, length sets and ``min Δ``;
  each rank-one monoid gets one of four recorded elements;
* ``scan``: the seed places the window of the sharded, checkpointed run.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd
from pathlib import Path

WORKLOADS = ("star-cyclic", "star-noncyclic", "lengths", "scan")

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# C25 and C27 are left out so that three passes fit in one run
STAR_CYCLIC = tuple(f"C{n}" for n in (*range(13, 25), 26, 28))
STAR_NONCYCLIC = ("C2xC2xC2xC2", "C4xC4", "C3xC6", "C2xC2xC6", "C5xC5", "C3xC3xC3")
SMOKE_STAR_CYCLIC = ("C13", "C14", "C15")
SMOKE_STAR_NONCYCLIC = ("C2xC2xC2xC2", "C4xC4", "C3xC6")

# (lo, hi) of the E1 run, the E2 run, and the width of the sharded window
SCAN_FULL = {"e1": (8, 10**6), "e2": (8, 10**5), "window": 10**5, "shards": 8}
SCAN_SMOKE = {"e1": (8, 3000), "e2": (8, 2000), "window": 1000, "shards": 8}
SMOKE_SUPPORTS = 4
SMOKE_MONOIDS = 2


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def job_digest(jobs) -> str:
    payload = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def values_digest(values) -> str:
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()[:16]


def random_automorphism(factors: tuple[int, ...], rng: random.Random):
    """x -> u * x[perm]: scaling by a unit mod the exponent, composed with a
    permutation of coordinates whose cyclic factors are equal."""
    exponent = factors[-1]
    u = rng.choice([u for u in range(1, exponent) if gcd(u, exponent) == 1] or [1])
    perm = list(range(len(factors)))
    for f in set(factors):
        slots = [i for i, g in enumerate(factors) if g == f]
        shuffled = slots[:]
        rng.shuffle(shuffled)
        for i, j in zip(slots, shuffled):
            perm[i] = j
    return lambda x: [(u * x[perm[i]]) % f for i, f in enumerate(factors)]


def build_jobs(workload: str, seed: int, smoke: bool, golden: dict) -> list:
    """The workload's job list: a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("star-cyclic", "star-noncyclic"):
        if workload == "star-cyclic":
            groups = list(SMOKE_STAR_CYCLIC if smoke else STAR_CYCLIC)
        else:
            groups = list(SMOKE_STAR_NONCYCLIC if smoke else STAR_NONCYCLIC)
        rng.shuffle(groups)
        return [[g, "star", {"group": g}] for g in groups]
    if workload == "lengths":
        from zslen.groups import parse_group

        supports = golden["lengths"]["supports"]
        monoids = golden["lengths"]["fp"]
        if smoke:
            supports, monoids = supports[:SMOKE_SUPPORTS], monoids[:SMOKE_MONOIDS]
        jobs = []
        for key, item in enumerate(supports):
            phi = random_automorphism(parse_group(item["group"]).invariant_factors, rng)
            elems = [phi(g) for g in item["support"]]
            products = [[[e, m] for e, m in zip(elems, mults) if m] for mults in item["products"]]
            rng.shuffle(elems)
            jobs.append([f"support/{key}", "support",
                         {"group": item["group"], "support": elems, "products": products, "key": key}])
        for key, item in enumerate(monoids):
            choice = rng.randrange(len(item["candidates"]))
            jobs.append([f"fp/{key}", "fp", {"q": item["q"], "gens": item["gens"],
                                              "x": item["candidates"][choice], "key": key,
                                              "choice": choice}])
        rng.shuffle(jobs)
        return jobs
    if workload == "scan":
        params = SCAN_SMOKE if smoke else SCAN_FULL
        lo1, hi1 = params["e1"]
        width = params["window"]
        lo = lo1 + 2 * rng.randrange((hi1 - lo1 - width) // 2)
        window = {"lo": lo, "hi": lo + width - 1, "shards": params["shards"], "checkpoint": "window"}
        # the resume reads the checkpoint the sharded run wrote, so order is fixed
        return [
            ["e1", "scan", {"lo": lo1, "hi": hi1, "engine": "e1"}],
            ["e2", "scan", {"lo": params["e2"][0], "hi": params["e2"][1], "engine": "e2"}],
            ["sharded", "scan", dict(window, engine="e1")],
            ["resume", "scan", dict(window, engine="e1")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- timed job bodies ---------------------------------------------------------
#
# Every call goes through the defining module's namespace, so the traced run
# sees it once its wrapper is bound there.

def run_star(mods, spec, ctx):
    group = mods["groups"].parse_group(spec["group"])
    return mods["delta_rho"].delta_rho_star(group)


def run_support(mods, spec, ctx):
    seqs, lengths = mods["sequences"], mods["lengths"]
    group = mods["groups"].parse_group(spec["group"])
    support = seqs.SupportSet.of(group, [tuple(e) for e in spec["support"]])
    atoms = seqs.enumerate_atoms(support)
    kernel = lengths.min_delta_of_atoms(atoms)
    oracle = mods["verify"].observed_min_delta(atoms, 4 * atoms.davenport)
    length_sets, witnesses = [], []
    for product in spec["products"]:
        seq = seqs.GSequence.of(support, {tuple(e): m for e, m in product})
        length_sets.append(list(lengths.length_set(seq, atoms).values))
        witnesses.append(lengths.max_elasticity_witness(seq, atoms))
    return {"atoms": len(atoms), "davenport": atoms.davenport, "kernel": kernel,
            "oracle": oracle, "L": length_sets, "witness": witnesses}


def run_fp(mods, spec, ctx):
    fp = mods["fp"]
    monoid = fp.FPMonoid.of(spec["q"], [tuple(g) for g in spec["gens"]])
    profile = fp.local_profile(monoid)
    values = list(fp.fp_length_set(monoid, tuple(spec["x"])).values)
    return {"rho": str(profile.rho), "d": profile.d, "min_delta": profile.min_delta,
            "L": values_digest(values), "L_min": values[0], "L_max": values[-1],
            "L_count": len(values), "distance_gcd": _distance_gcd(values)}


def run_scan(mods, spec, ctx):
    kwargs = {"engine": spec["engine"]}
    if "shards" in spec:
        kwargs.update(shards=spec["shards"], workers=1,
                      checkpoint=ctx["tmp"] / f"{spec['checkpoint']}.ckpt")
    report = mods["cf"].scan_exceptional(spec["lo"], spec["hi"], **kwargs)
    return report.exceptional, report.witnesses


RUNNERS = {"star": run_star, "support": run_support, "fp": run_fp, "scan": run_scan}


# -- answer checks (untimed) --------------------------------------------------

def _distance_gcd(values) -> int:
    g = 0
    for a, b in zip(values, values[1:]):
        g = gcd(g, b - a)
    return g


def scan_summary(exceptional, witnesses) -> dict:
    return {"exceptional": len(exceptional), "digest": values_digest(list(exceptional)),
            "witnesses": values_digest(sorted(witnesses.items()))}


def _check_star(spec, star, golden, mods) -> list[str]:
    problems = []
    group = mods["groups"].parse_group(spec["group"])
    if group.is_cyclic:
        n = group.order()
        need = {1, n - 2} | {mods["cf"].min_delta_sym_quad(n, a)
                             for a in range(2, (n + 1) // 2) if gcd(a, n) == 1}
        if not need <= star:
            problems.append(f"missing {sorted(need - star)} (1, n-2, quad formula values)")
    else:
        rank = len(group.invariant_factors)
        theorem = {1, rank - 1} if group.is_elementary_2 else {1}
        if star != theorem:
            problems.append(f"structure theorem gives {sorted(theorem)}")
    expected = golden["star"].get(spec["group"])
    if expected is None or sorted(star) != expected:
        problems.append(f"golden {expected}")
    return problems


def _check_support(spec, ans, golden) -> list[str]:
    problems = []
    if ans["kernel"] != ans["oracle"]:
        problems.append(f"kernel {ans['kernel']} != observed {ans['oracle']}")
    k = ans["kernel"]
    for values in ans["L"]:
        g = _distance_gcd(values)
        if g % k if k else g:
            problems.append(f"kernel min delta {k} does not divide the distances of {values}")
    if ans != golden["lengths"]["supports"][spec["key"]]["answer"]:
        problems.append("differs from golden")
    return problems


def _check_fp(spec, ans, golden) -> list[str]:
    problems = []
    if ans["min_delta"] and ans["distance_gcd"] % ans["min_delta"]:
        problems.append(f"min delta {ans['min_delta']} does not divide the distances")
    if ans != golden["lengths"]["fp"][spec["key"]]["answers"][spec["choice"]]:
        problems.append("differs from golden")
    return problems


def check_answers(jobs, answers: dict, golden: dict, mods) -> dict[str, list[str]]:
    """Problems per job id; a job that raised has no entry in ``answers``."""
    problems: dict[str, list[str]] = {}
    for job_id, kind, spec in jobs:
        if job_id not in answers:
            continue
        ans = answers[job_id]
        if kind == "star":
            problems[job_id] = _check_star(spec, ans, golden, mods)
        elif kind == "support":
            problems[job_id] = _check_support(spec, ans, golden)
        elif kind == "fp":
            problems[job_id] = _check_fp(spec, ans, golden)
        else:
            problems[job_id] = []
            key = f"{spec['lo']}-{spec['hi']}-{spec['engine']}"
            # the checkpoint runs are held to the E1 run by _check_scan_cross
            if job_id in ("e1", "e2") and golden["scan"].get(key) != scan_summary(*ans):
                problems[job_id].append(f"golden {key}: {golden['scan'].get(key)}")
    if "e1" in answers:
        _check_scan_cross(jobs, answers, problems)
    return problems


def _restrict(answer, lo, hi):
    exceptional, witnesses = answer
    return ([n for n in exceptional if lo <= n <= hi],
            {n: a for n, a in witnesses.items() if lo <= n <= hi})


def _check_scan_cross(jobs, answers, problems):
    """E2 and both checkpoint runs agree exactly with the unsharded E1 run."""
    specs = {job_id: spec for job_id, _, spec in jobs}
    full = answers["e1"]
    for job_id in ("e2", "sharded", "resume"):
        if job_id not in answers:
            continue
        spec = specs[job_id]
        exceptional, witnesses = answers[job_id]
        if _restrict(full, spec["lo"], spec["hi"]) != (list(exceptional), witnesses):
            problems[job_id].append(f"disagrees with unsharded E1 on [{spec['lo']}, {spec['hi']}]")
