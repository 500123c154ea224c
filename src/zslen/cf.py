"""Continued-fraction formulas for cyclic supports and the exceptional scan.

For a cyclic group of order n and a coprime a, the minimum distances of the
supports {g, ag} and {g, ag, -ag, -g} are gcds of partial quotients of n/a.
The scan looks for even n where no a certifies an extra distance value; it
runs two independent engines:

* E1 walks each n and tries every candidate a directly;
* E2 inverts the criterion: it enumerates all quotient lists matching the
  divisibility pattern for a prime t (first and last quotient = 1 mod t,
  interior quotients = 0 mod t) whose continuant stays below the bound, and
  marks the continuants as witnessed.  A list and its reversal have the same
  continuant, so it walks each list once up to reversal (last quotient at
  least the first), and it drops a branch as soon as no list below it can
  close under the bound.  Continuants grow at least as fast as Fibonacci
  numbers, so the enumeration depth is logarithmic in the bound.

Both engines must agree before a report is produced.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

from .errors import EngineMismatchError, InputError
from .groups import _is_prime


@dataclass(frozen=True)
class CFExpansion:
    """Partial quotients of n/a; reconstructs the fraction exactly."""

    n: int
    a: int
    quotients: tuple[int, ...]

    def __post_init__(self):
        if any(q < 1 for q in self.quotients[1:]) or not self.quotients:
            raise InputError(f"bad quotient list {self.quotients}")
        if self.value() != Fraction(self.n, self.a):
            raise InputError(f"{self.quotients} does not reconstruct {self.n}/{self.a}")

    def value(self) -> Fraction:
        num, den = 1, 0
        for q in reversed(self.quotients):
            num, den = q * num + den, num
        return Fraction(num, den)

    @property
    def is_regular(self) -> bool:
        qs = self.quotients
        return len(qs) == 1 or qs[-1] >= 2

    @property
    def has_odd_length(self) -> bool:
        return len(self.quotients) % 2 == 1


def cf_regular(n: int, a: int) -> CFExpansion:
    """Euclidean expansion of n/a with final quotient >= 2 (single-term for a=1)."""
    if not (n > a >= 1):
        raise InputError(f"need n > a >= 1, got n={n}, a={a}")
    if gcd(n, a) != 1:
        raise InputError(f"need gcd(n, a) = 1, got n={n}, a={a}")
    qs = []
    x, y = n, a
    while y:
        q, r = divmod(x, y)
        qs.append(q)
        x, y = y, r
    return CFExpansion(n, a, tuple(qs))


def cf_odd_length(n: int, a: int) -> CFExpansion:
    """Expansion of n/a with an odd number of quotients.

    From the regular form: keep it if already odd; else split the last
    quotient (q >= 2 becomes q-1, 1), or merge a trailing 1 into its
    predecessor.
    """
    reg = cf_regular(n, a)
    qs = list(reg.quotients)
    if len(qs) % 2 == 0:
        if qs[-1] >= 2:
            qs[-1] -= 1
            qs.append(1)
        else:
            qs.pop()
            qs[-1] += 1
    return CFExpansion(n, a, tuple(qs))


def min_delta_pair(n: int, a: int) -> int:
    """Minimum distance of {g, ag} in a cyclic group of order n.

    gcd of the odd-indexed quotients of the odd-length expansion of n/a;
    always strictly below n - 2.
    """
    if n <= 3:
        raise InputError("need n > 3")
    if not (2 <= a <= n - 1):
        raise InputError(f"need a in [2, n-1], got {a}")
    qs = cf_odd_length(n, a).quotients
    value = 0
    for i in range(1, len(qs), 2):
        value = gcd(value, qs[i])
    # strictly below n-2 except at a = n-1, where the support degenerates to
    # {g, -g} and the value is exactly n-2
    assert 0 < value <= n - 2 and (value < n - 2 or a == n - 1)
    return value


def min_delta_sym_quad(n: int, a: int) -> int:
    """Minimum distance of {g, ag, -ag, -g} for a < n/2.

    gcd(q0 - 1, q1, ..., q_{m-1}, q_m - 1) over the regular expansion of n/a.
    Callers with a >= n/2 should substitute n - a first.
    """
    if n <= 3:
        raise InputError("need n > 3")
    if not 2 <= a or not 2 * a < n:
        raise InputError(f"need 2 <= a < n/2, got a={a}, n={n}")
    if gcd(n, a) != 1:
        raise InputError(f"need gcd(n, a) = 1, got n={n}, a={a}")
    return _quad_criterion(n, a)


def _quad_criterion(n: int, a: int) -> int:
    """The quotient gcd of :func:`min_delta_sym_quad`, computed along the
    Euclidean algorithm with an early exit at 1; no input checks."""
    q, r = divmod(n, a)
    g = q - 1
    x, y = a, r
    while True:
        q, r = divmod(x, y)
        if r == 0:
            return gcd(g, q - 1)
        g = gcd(g, q)
        if g == 1:
            return 1
        x, y = y, r


def exceptional_witness(n: int) -> int | None:
    """Smallest a in [2, n//2], coprime to n, whose quotient-gcd criterion
    exceeds 1; None when no such a exists (and the star set of the cyclic
    group of order n is then contained in {1, n-2})."""
    if n < 3:
        raise InputError("need n >= 3")
    for a in range(2, n // 2 + 1):
        if gcd(a, n) == 1 and _quad_criterion(n, a) > 1:
            return a
    return None


@dataclass(frozen=True)
class ScanReport:
    lo: int
    hi: int
    engine: str
    exceptional: tuple[int, ...]
    witnesses: dict[int, int]

    def __post_init__(self):
        if set(self.exceptional) & self.witnesses.keys():
            raise InputError("exceptional orders cannot carry witnesses")
        if any(n % 2 or n < 8 for n in self.exceptional):
            raise InputError("exceptional orders are even and at least 8")

    def digest(self) -> str:
        return _digest(",".join(map(str, self.exceptional)))


def _digest(text: str) -> str:
    """sha256 of ``text``: the comma-joined exceptional orders of a report,
    or the canonical JSON of a checkpoint record without its ``sha256``."""
    return hashlib.sha256(text.encode()).hexdigest()


def _evens(lo: int, hi: int) -> range:
    return range(lo + lo % 2, hi + 1, 2)


def _scan_direct_range(lo: int, hi: int) -> tuple[list[int], dict[int, int]]:
    """E1: trial over a for every even n in [lo, hi]."""
    exceptional: list[int] = []
    witnesses: dict[int, int] = {}
    for n in _evens(lo, hi):
        w = exceptional_witness(n)
        if w is None:
            exceptional.append(n)
        else:
            witnesses[n] = w
    return exceptional, witnesses


def _scan_inverted(hi: int) -> dict[int, int]:
    """E2: every even n <= hi admitting a witness, with the smallest one.

    Quotient lists are generated per prime t; the criterion gcd of any
    witnessed pair is divisible by some prime, so prime patterns cover all.
    A list and its reversal have the same continuant n, and the reversal's
    a is the list's own continuant without its last quotient, so only lists
    whose last quotient is at least the first are walked, each marking the
    smaller of the two.
    """
    best = [hi] * (hi // 2 + 1)  # best[n // 2] for even n; hi stands for unmarked
    # minimal pattern continuant is (t+1)^2 + 1, so t + 1 <= isqrt(hi - 1)
    for t in filter(_is_prime, range(2, isqrt(hi - 1))):
        first = t + 1
        while first * first + 1 <= hi:
            # the last two convergents p1/d1, p0/d0 of a list [first, ...]
            stack = [(1, first, 0, 1)]
            while stack:
                p1, p0, d1, d0 = stack.pop()
                # close with a last quotient = 1 mod t and >= first, even n only
                n, a = first * p0 + p1, first * d0 + d1
                n_step, a_step = t * p0, t * d0
                if n_step & 1:  # n alternates in parity
                    if n & 1:
                        n, a = n + n_step, a + a_step
                    n_step, a_step = 2 * n_step, 2 * a_step
                elif n & 1:  # every n is odd
                    n = hi + 1
                while n <= hi:
                    w = a if a < p0 else p0
                    if w < best[n >> 1]:
                        best[n >> 1] = w
                    n, a = n + n_step, a + a_step
                # extend with an interior quotient = 0 mod t; a child that
                # cannot close has no descendant that can, as continuants grow
                c, e = t * p0 + p1, t * d0 + d1
                while first * c + p0 <= hi:
                    stack.append((p0, c, d0, e))
                    c, e = c + t * p0, e + t * d0
            first += t
    return {2 * i: w for i, w in enumerate(best) if w < hi}


def _shard_ranges(lo: int, hi: int, shards: int) -> list[tuple[int, int]]:
    size = -(-(hi - lo + 1) // shards)
    return [(start, min(start + size - 1, hi)) for start in range(lo, hi + 1, size)]


def _load_checkpoint(path: Path) -> dict[tuple[int, int], tuple[list[int], dict[int, int]]]:
    """Completed shards of a JSON-lines checkpoint, one record per shard.

    A line that does not parse (a torn write, bytes that are not UTF-8, or
    the old index format) or whose ``sha256`` does not match the rest of the
    record is skipped, so its shard is recomputed.  The file is created
    first, so a path that cannot be written is an :class:`InputError` before
    any shard runs."""
    try:
        path.open("a").close()
    except OSError as exc:
        raise InputError(f"cannot write checkpoint {path}: {exc.strerror}") from None
    done: dict[tuple[int, int], tuple[list[int], dict[int, int]]] = {}
    for line in path.read_bytes().splitlines():
        try:
            rec = json.loads(line)
            if rec.pop("sha256") == _digest(json.dumps(rec, sort_keys=True)):
                done[(rec["lo"], rec["hi"])] = (
                    rec["exceptional"], {int(k): v for k, v in rec["witnesses"].items()}
                )
        except (ValueError, TypeError, KeyError, AttributeError):
            continue  # torn, foreign or corrupt: recompute this shard
    return done


def _append_checkpoint(path: Path, lo: int, hi: int, exceptional: list[int], witnesses: dict[int, int]):
    """Append one shard record, first ending a torn last line of the file."""
    record = {"lo": lo, "hi": hi, "exceptional": exceptional,
              "witnesses": {str(n): w for n, w in witnesses.items()}}
    record["sha256"] = _digest(json.dumps(record, sort_keys=True))
    line = json.dumps(record).encode() + b"\n"
    with path.open("a+b") as fh:
        end = fh.seek(0, 2)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)


def _scan_e1(
    lo: int, hi: int, shards: int, workers: int, ck_path: Path | None
) -> tuple[list[int], dict[int, int]]:
    """E1 over the shards of [lo, hi].  A shard the checkpoint holds is
    reused; a fresh one is appended to it as soon as its result is taken, in
    range order, so an interrupted run keeps the shards before the one that
    stopped it."""
    done = _load_checkpoint(ck_path) if ck_path else {}
    ranges = _shard_ranges(lo, hi, shards)
    fresh = [r for r in ranges if r not in done]
    pool, mapper = nullcontext(), map
    if workers > 1 and len(fresh) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        mapper = pool.map
    with pool:
        results = mapper(_scan_direct_range, [r[0] for r in fresh], [r[1] for r in fresh])
        for r, (exc, wit) in zip(fresh, results):
            if ck_path:
                _append_checkpoint(ck_path, *r, exc, wit)
            done[r] = exc, wit
    exceptional = sorted(n for r in ranges for n in done[r][0])
    return exceptional, {n: w for r in ranges for n, w in done[r][1].items()}


def scan_exceptional(
    lo: int,
    hi: int,
    *,
    engine: str = "both",
    shards: int = 1,
    workers: int = 1,
    checkpoint: str | Path | None = None,
) -> ScanReport:
    """Even n in [lo, hi] with no witness, plus the witness map for the rest.

    With ``engine="both"`` the direct and inverted engines are both run and
    must agree exactly.  Sharding splits the range for E1; shards may run in
    worker processes, and each shard is checkpointed as soon as it finishes.
    The merged report is independent of shard count and worker count.  E2
    takes none of these options, so ``engine="e2"`` with any of them is an
    input error.
    """
    if not 8 <= lo <= hi:
        raise InputError(f"need 8 <= lo <= hi, got [{lo}, {hi}]")
    if engine not in ("e1", "e2", "both"):
        raise InputError(f"unknown engine {engine!r}")
    if shards < 1 or workers < 1:
        raise InputError(f"shards and workers must be >= 1, got {shards} and {workers}")
    if engine == "e2" and (checkpoint or shards > 1 or workers > 1):
        raise InputError("shards, workers and checkpoint apply to E1 only, not to engine 'e2'")
    if engine != "e2":
        exc, wit = _scan_e1(lo, hi, shards, workers, Path(checkpoint) if checkpoint else None)
    if engine != "e1":
        marked = _scan_inverted(hi)
        exc2 = [n for n in _evens(lo, hi) if n not in marked]
        wit2 = {n: marked[n] for n in _evens(lo, hi) if n in marked}
        if engine == "both" and (exc, wit) != (exc2, wit2):
            raise EngineMismatchError(
                f"scan engines disagree on [{lo}, {hi}]: "
                f"E1 found {len(exc)} exceptional, E2 found {len(exc2)}"
            )
        exc, wit = exc2, wit2
    return ScanReport(lo, hi, engine, tuple(exc), wit)


def sufficient_filters(n: int) -> frozenset[str]:
    """Which of the five closed-form sufficient conditions hold for n.

    Each condition guarantees a witness (an extra distance value besides 1
    and n-2): cond1-cond4 for even n, cond6 for odd n.
    """
    if n < 5:
        raise InputError("need n >= 5")
    tags = set()
    even = n % 2 == 0
    if even and not _is_prime(n - 1):
        tags.add("cond1")
    if even and n % 3 != 0 and not _is_prime(n - 3):
        tags.add("cond2")
    if even:
        q = 3
        while q * q + 2 * q <= n:
            if _is_prime(q) and n % (q * q) == 2 * q:
                tags.add("cond3")
                break
            q += 2
        q = 3
        while 5 * q + 2 <= n:
            if n % (2 * q + 1) == q:
                tags.add("cond4")
                break
            q += 2
    if not even and n > 5:
        root = isqrt(n - 1)
        if root * root == n - 1:
            tags.add("cond6")
    return frozenset(tags)
