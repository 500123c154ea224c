"""Record golden.json: the answers every benchmark job is checked against.

    python3 perfbench/record.py

Run it only at a commit whose answers are trusted (it records what the zslen
in ``src/`` computes), and commit the result with the benchmark change that
needs it.  It also fixes the lengths workload's inputs: supports sampled from
every group of order at most 16 (the pool of the ``kernel-brute`` verify
suite, with a tighter size filter so no single job dominates), two random
products of 2 to 12 atoms per support, and rank-one monoids with four
elements each around value 10^3.
"""

from __future__ import annotations

import json
import random

import run
import workloads

POOL_SEED = 1706
POOL_SIZE = 60
POOL_PROXY_CAP = 25_000  # atoms x (4 D)^min(size, 2), the kernel-brute cost proxy
PRODUCTS_PER_SUPPORT = 2

# (unit modulus, generators, base value); candidates are (j mod q, base + j)
MONOIDS = (
    (1, [(0, 3), (0, 5)], 3000),
    (2, [(1, 3), (0, 5)], 2600),
    (1, [(0, 7), (0, 11), (0, 13)], 3400),
    (3, [(1, 4), (2, 7), (0, 9)], 1600),
    (1, [(0, 2), (0, 3)], 3000),
    (4, [(1, 5), (3, 6), (2, 7)], 1400),
    (2, [(0, 4), (1, 6), (1, 9)], 2000),
    (1, [(0, 5), (0, 8), (0, 9), (0, 12)], 2200),
)
CANDIDATES = 4


def sample_supports(mods) -> list[dict]:
    seqs = mods["sequences"]
    rng = random.Random(POOL_SEED)
    pool = mods["verify"].small_groups(16)
    out, seen = [], set()
    while len(out) < POOL_SIZE:
        group = rng.choice(pool)
        size = rng.randint(2, min(4, group.order()))
        support = seqs.SupportSet.of(group, rng.sample(group.elements(), size))
        atoms = seqs.enumerate_atoms(support)
        key = (str(group), support.elements)
        if key in seen or not 2 <= len(atoms) <= 40:
            continue
        if len(atoms) * (4 * atoms.davenport) ** min(size, 2) > POOL_PROXY_CAP:
            continue
        seen.add(key)
        products = []
        for _ in range(PRODUCTS_PER_SUPPORT):
            total = [0] * size
            for _ in range(rng.randint(2, 12)):
                total = [x + y for x, y in zip(total, rng.choice(atoms.mult_vectors))]
            products.append(total)
        out.append({"group": str(group), "support": [list(g) for g in support.elements],
                    "products": products})
    return out


def main():
    mods = run.import_zslen()
    golden = {"star": {}, "lengths": {"supports": [], "fp": []}, "scan": {}}
    for name in workloads.STAR_CYCLIC + workloads.STAR_NONCYCLIC:
        golden["star"][name] = sorted(workloads.run_star(mods, {"group": name}, None))
    for item in sample_supports(mods):
        products = [[[g, m] for g, m in zip(item["support"], mults) if m] for mults in item["products"]]
        spec = {"group": item["group"], "support": item["support"], "products": products}
        item["answer"] = workloads.run_support(mods, spec, None)
        golden["lengths"]["supports"].append(item)
    for q, gens, base in MONOIDS:
        candidates = [[j % q, base + j] for j in range(CANDIDATES)]
        answers = [workloads.run_fp(mods, {"q": q, "gens": gens, "x": x}, None) for x in candidates]
        golden["lengths"]["fp"].append({"q": q, "gens": gens, "candidates": candidates, "answers": answers})
    for params in (workloads.SCAN_FULL, workloads.SCAN_SMOKE):
        for engine in ("e1", "e2"):
            lo, hi = params[engine]
            spec = {"lo": lo, "hi": hi, "engine": engine}
            golden["scan"][f"{lo}-{hi}-{engine}"] = workloads.scan_summary(*workloads.run_scan(mods, spec, None))
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH.name}: {len(golden['star'])} groups, "
          f"{len(golden['lengths']['supports'])} supports, {len(golden['lengths']['fp'])} monoids, "
          f"{len(golden['scan'])} scans")


if __name__ == "__main__":
    main()
