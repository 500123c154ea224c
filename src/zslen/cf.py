"""Continued-fraction formulas for cyclic supports and the exceptional scan.

For a cyclic group of order n and a coprime a, the minimum distances of the
supports {g, ag} and {g, ag, -ag, -g} are gcds of partial quotients of n/a.
A witness for an even n is an a whose quad gcd exceeds 1; an n with none is
exceptional.  A scan of [lo, hi] has one result: the smallest witness of each
even n in order, 0 for an exceptional n.  Two independent engines compute it:

* E1 sieves, shard by shard.  The expansion of n/a is [n // a; expansion
  of a/r] with r = n mod a, so the quad gcd is gcd(n // a - 1, T(a, r)),
  where T(a, r) is the tail gcd of a/r.  Every small a therefore witnesses
  the n of the progressions n = a + r (mod a·p), n >= a(1 + p) + r, one per
  r and prime p of T(a, r); each is marked by a slice, and only the n left
  unmarked are tried a by a;
* E2 inverts the criterion: it enumerates the quotient lists matching the
  divisibility pattern for a prime t (first and last quotient = 1 mod t,
  interior quotients = 0 mod t) whose continuant stays below the bound, each
  once up to reversal.  Without its last quotient such a list has a
  continuant p0 that witnesses each n the list closes to.  Continuants only
  grow down a branch, so the walk keeps to p0 up to a fixed cap and marks
  the n of each p0 by one slice, largest p0 first; the n left unmarked are
  tried over the a above the cap, each by the gcd over the quotient list of
  n/a.

With both engines the two sequences must be equal before a report is made.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
from array import array
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from math import gcd, isqrt
from operator import le
from pathlib import Path

from .errors import EngineMismatchError, InputError
from .groups import _factorint, _is_prime


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
    quotient q into q-1, 1 (an even-length regular form ends in q >= 2, as
    each divisor after the first exceeds its remainder).
    """
    reg = cf_regular(n, a)
    qs = list(reg.quotients)
    if len(qs) % 2 == 0:
        qs[-1] -= 1
        qs.append(1)
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
    """The quotient gcd of :func:`min_delta_sym_quad`; no input checks.

    n/a expands as [n // a; expansion of a/r] with r = n mod a, so the gcd
    is :func:`_tail_gcd` of a/r seeded with n // a - 1."""
    q, r = divmod(n, a)
    return _tail_gcd(a, r, q - 1)


def _tail_gcd(x: int, y: int, g: int = 0) -> int:
    """gcd(g, q1, ..., q_{m-1}, q_m - 1) over the regular expansion
    [q1; ..., q_m] of x/y, computed along the Euclidean algorithm with an
    early exit at 1.  With g = 0 it is T(x, y), the tail gcd of x/y."""
    while True:
        q, r = divmod(x, y)
        if r == 0:
            return gcd(g, q - 1)
        g = gcd(g, q)
        if g == 1:
            return 1
        x, y = y, r


def _trial_witness(n: int, start: int) -> int:
    """Smallest a in [start, n // 2], coprime to n, whose quad gcd exceeds
    1; 0 when there is none.  An even n has no even unit, so for it only
    the odd a are tried."""
    even = 1 - n % 2
    for a in range(start | even, n // 2 + 1, 1 + even):
        if gcd(a, n) == 1 and _quad_criterion(n, a) > 1:
            return a
    return 0


def exceptional_witness(n: int) -> int | None:
    """Smallest a in [2, n//2], coprime to n, whose quotient-gcd criterion
    exceeds 1; None when no such a exists (and the star set of the cyclic
    group of order n is then contained in {1, n-2})."""
    if n < 3:
        raise InputError("need n >= 3")
    return _trial_witness(n, 2) or None


@dataclass(frozen=True)
class ScanReport:
    """The smallest witness of each even n in [lo, hi], in order; 0 if n is exceptional.

    ``smallest`` is one machine-word array, ``array('I')`` while hi // 2 <
    2**32 and ``array('Q')`` above; its views read it in place."""

    lo: int
    hi: int
    engine: str
    smallest: array

    @cached_property
    def exceptional(self) -> tuple[int, ...]:
        evens = _evens(self.lo, self.hi)
        return tuple(evens[i] for i in _zeros(self.smallest))

    @cached_property
    def witnesses(self) -> Mapping[int, int]:
        """The smallest witness of each witnessed n, a read-only mapping."""
        return _Witnesses(_evens(self.lo, self.hi), self.smallest,
                          len(self.smallest) - len(self.exceptional))

    def digest(self) -> str:
        return hashlib.sha256(",".join(map(str, self.exceptional)).encode()).hexdigest()


class _Witnesses(Mapping):
    """n -> smallest witness over the nonzero entries of ``smallest``, the
    witnesses of ``evens``: a key is looked up by index arithmetic, and the
    keys are iterated by ``compress``.  Keys match as in a dict of int keys,
    so 10.0 finds 10."""

    def __init__(self, evens: range, smallest, size: int):
        self._evens, self._smallest, self._size = evens, smallest, size

    def __getitem__(self, key):
        try:
            n = int(key)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(key) from None
        if n == key and n in self._evens and (w := self._smallest[(n - self._evens.start) >> 1]):
            return w
        raise KeyError(key)

    def __iter__(self):
        return compress(self._evens, self._smallest)

    def __len__(self):
        return self._size

    def items(self):
        return _WitnessItems(self)


class _WitnessItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, filter(None, self._mapping._smallest))


def _evens(lo: int, hi: int) -> range:
    return range(lo + lo % 2, hi + 1, 2)


def _typecode(hi: int) -> str:
    """The array type of a scan to hi: a witness never exceeds n // 2."""
    return "I" if hi // 2 < 2**32 else "Q"


def _zeros(seq: array) -> list[int]:
    """The indices of the zero words of ``seq``.  A zero word is all zero
    bytes in either byte order, so ``bytes.find`` looks for them in the raw
    bytes, 2^16 words at a time, and keeps the hits that start a word."""
    size, block = seq.itemsize, 1 << 16
    zero, out = bytes(size), []
    with memoryview(seq) as view:
        for start in range(0, len(seq), block):
            raw = view[start:start + block].tobytes()
            i = raw.find(zero)
            while i >= 0:
                if i % size:  # zero bytes that straddle two words: go on from the next word
                    i = raw.find(zero, i + size - i % size)
                else:
                    out.append(start + i // size)
                    i = raw.find(zero, i + size)
    return out


def _sieve(cutoff: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """E1's sieve table up to ``cutoff``: the triples (a, r, p) of the odd
    a in [3, cutoff], largest a first, each r in [1, a) coprime to a and
    each prime p of T(a, r), the tail gcd of a/r.  Past a/2 the first
    quotient of a/r is 1, so T(a, r) = 1 and only r <= a // 2 are tried.
    Each triple is one progression of the n that a witnesses; none depends
    on a range, so one table serves every shard of a scan."""
    table = []
    for a in reversed(range(3, cutoff + 1, 2)):
        for r in range(1, a // 2 + 1):
            if gcd(a, r) == 1 and (t := _tail_gcd(a, r)) > 1:
                table.extend((a, r, p) for p in _factorint(t))
    return cutoff, tuple(table)


def _icbrt(x: int) -> int:
    """The integer cube root of x >= 0, by Newton's method from above."""
    y = 1 << -(-x.bit_length() // 3)
    while y ** 3 > x:
        y = (2 * y + x // (y * y)) // 3
    return y


def _cutoff(total: int, width: int) -> int:
    """E1's sieve cutoff for one table that serves ``total`` even n in
    ranges of at most ``width`` even n: max(16, min(isqrt(total) // 2,
    10·∛width)).  The table is built once, so the cutoff grows with all the
    n it serves; its triples are sliced in every range, so it grows no
    further than one range can use (at 10^8 in 64 shards, 10·∛width beat
    5· and 20·∛width, and no cap took twice as long).  For a single range
    of m even n it is isqrt(m) // 2 up to about 6.4·10^7 of them."""
    return max(16, min(isqrt(total) // 2, _icbrt(1000 * width)))


def _scan_direct_range(lo: int, hi: int, typecode: str, sieve: tuple) -> array:
    """E1: the smallest witness of every even n in [lo, hi], 0 where there is none.

    With q = n // a and r = n mod a, the quad gcd of n/a is
    gcd(q - 1, T(a, r)), T the tail gcd of a/r.  So a witnesses n exactly
    when some prime p of T(a, r) divides q - 1, and those n form the
    progressions n = a + r + k·a·p with k = (q - 1) / p >= 1, the bound
    k >= 1 being a <= n // 2.  A sieve walks the odd a (an even n has no
    even unit) from a cutoff A down to 3 and assigns a to the even n of
    each such progression with one slice assignment; as a descends, the
    smallest witness is the one that stays.  An n left unmarked has no
    witness up to A and gets the trial from A + 1.  The progressions come
    from ``sieve``, the :func:`_sieve` table that a scan builds once and
    hands to each of its fresh shards, to the cutoff :func:`_cutoff` of the
    run as a whole.  The 8 shards of 6,250 even n of a 10^5-wide window then
    sieve to 111 and leave 828 of their 50,000 even n to the trial.  The
    witnesses fill an array of ``typecode``, the run's.
    """
    evens = _evens(lo, hi)
    first, size = evens.start, len(evens)
    best = array(typecode, [0]) * size
    cutoff, table = sieve
    fill = array(best.typecode, [0])
    for a, r, p in table:
        fill[0] = a
        # for p = 2 every n is even: all quotients of a/r but the last are
        # even, so every continuant, r among them, is odd
        start, step = a * (1 + p) + r, a * p
        if step & 1:  # n alternates in parity: keep the even ones
            start, step = start + (start & 1) * step, 2 * step
        start = max(start, first + (start - first) % step)
        i, j = (start - first) // 2, step // 2
        best[i::j] = fill * len(range(i, size, j))
    for i in _zeros(best):
        best[i] = _trial_witness(first + 2 * i, cutoff + 1)
    return best


# E2's walk marks every witness up to this cap, and each order that it leaves
# unmarked is tried above the cap.  With the cap fixed, the marking and the
# trials both grow linearly in the bound, so the best cap does not grow with
# it: timed at 10^5, 10^6 and 10^7, caps from 401 to 1001 were within 20 % of
# each other, 601 among the fastest, and isqrt(hi // 2) took 1.4x as long
# at 10^7.  It is odd, so that a witness can equal it.
_E2_CAP = 601


def _scan_inverted(hi: int) -> array:
    """E2: the smallest witness of every even n <= hi at index n // 2, or 0.

    Quotient lists are generated per prime t; the criterion gcd of any
    witnessed pair is divisible by some prime, so prime patterns cover all.
    A pattern list [q0; ..., q_m] with continuant n is the expansion of
    n/a, and its reversal that of n/p0, p0 = K(q0, ..., q_{m-1}) the
    continuant without the last quotient; so p0 witnesses n.  A walked node
    is a list [first, ...] with continuant p0, and its closes with a last
    quotient L = 1 mod t, L >= first, give the n = L * p0 + p1 of one run,
    all witnessed by p0.  Every smallest witness is the p0 of a run: when
    it is the a of a list whose last quotient exceeds the first (by t at
    least), that list's own p0 is smaller.  Continuants grow down a branch,
    so the walk keeps to the nodes with p0 at most the cap C.  Their runs,
    applied largest p0 first, each by one slice, leave the smallest witness
    of each n that has one up to C, and an n still at 0 gets a trial over
    the odd a above C.
    """
    cap = _E2_CAP
    top = min(cap, isqrt(hi - 1))  # minimal pattern continuant is first^2 + 1
    runs = []
    for t in range(2, top):
        if any(t % p == 0 for p in range(2, isqrt(t) + 1)):
            continue  # a composite t repeats the lists of its prime factors
        for first in range(t + 1, top + 1, t):
            # the continuants p1, p0 of a list [first, ...] without and with
            # its last quotient
            stack = [(1, first)]
            while stack:
                p1, p0 = stack.pop()
                # close with a last quotient = 1 mod t and >= first, even n only
                n, step = first * p0 + p1, t * p0
                if step & 1:  # n alternates in parity: keep the even ones
                    n, step = n + (n & 1) * step, 2 * step
                if n <= hi and not n & 1:
                    runs.append((p0, n >> 1, step >> 1))
                # extend with an interior quotient = 0 mod t while the child's
                # p0 is at most the cap and its first close is at most hi
                c = t * p0 + p1
                while c <= cap and first * c + p0 <= hi:
                    stack.append((p0, c))
                    c += t * p0
    size = hi // 2 + 1
    best = array(_typecode(hi), [0]) * size
    for p0, i, step in sorted(runs, reverse=True):
        best[i::step] = array(best.typecode, [p0]) * len(range(i, size, step))
    i = cap  # an n = 2i with i <= cap has no a above the cap to try
    while True:
        try:
            i = best.index(0, i + 1)
        except ValueError:  # no 0 past i
            return best
        n = 2 * i
        best[i] = next((a for a in range(cap + 1 | 1, i + 1, 2)
                        if gcd(a, n) == 1 and _quotient_list_gcd(n, a) > 1), 0)


def _quotient_list_gcd(n: int, a: int) -> int:
    """gcd(q0 - 1, q1, ..., q_{m-1}, q_m - 1) over the regular quotient list
    [q0; q1, ..., q_m] of n/a, for coprime 2 <= a < n/2 (so m >= 1)."""
    qs = []
    while a:
        qs.append(n // a)
        n, a = a, n % a
    qs[0] -= 1
    qs[-1] -= 1
    return gcd(*qs)


def _shard_ranges(lo: int, hi: int, shards: int) -> list[tuple[int, int]]:
    size = -(-(hi - lo + 1) // shards)
    return [(start, min(start + size - 1, hi)) for start in range(lo, hi + 1, size)]


def _load_checkpoint(path: Path, typecode: str) -> dict[tuple[int, int], array]:
    """Completed shards of a checkpoint, in words of ``typecode``.  A record
    is the header line ``scan <lo> <hi> <typecode> <length> <seal>``, then
    ``length`` bytes, the witnesses of the even n in [lo, hi] as
    little-endian words of the typecode, 'I' or 'Q', then a newline.  The
    seal is the sha256 hex of the header up to the length, a newline and the
    words.

    A record is reused when its typecode is ``typecode``, its seal matches,
    its length is one word per even n of its range, and each witness is 0 or
    in [2, n // 2], the range that :func:`exceptional_witness` searches; a
    witness in range is trusted without re-checking its criterion.  Any
    other line, a record of the other typecode too, is skipped, so its shard
    is recomputed; after a header whose seal fails, reading goes on with the
    next line.  A line or record that the file ends inside of, as an
    interrupted write leaves it, is cut off, so that the next record starts
    on its own line.  Opening the file to append first makes an unwritable
    path an :class:`InputError` before any shard runs."""
    done: dict[tuple[int, int], array] = {}
    try:
        with path.open("a+b") as fh:
            total = fh.seek(0, os.SEEK_END)
            fh.seek(0)
            while (line := fh.readline()).endswith(b"\n"):
                head, _, seal = line[:-1].rpartition(b" ")
                try:
                    tag, lo, hi, code, size = head.split(b" ")
                    lo, hi, size, ws = int(lo), int(hi), int(size), array(typecode)
                    if (tag, code) != (b"scan", typecode.encode()) or size != len(_evens(lo, hi)) * ws.itemsize:
                        continue
                except (ValueError, OverflowError):
                    continue  # not a header
                if fh.tell() + size >= total:
                    break  # torn
                start = fh.tell()
                raw = fh.read(size)
                if fh.read(1) != b"\n" or seal != _seal(head, raw):
                    fh.seek(start)
                    continue
                ws.frombytes(raw)
                if sys.byteorder == "big":
                    ws.byteswap()
                if _witnesses_in_range(raw, ws, lo + lo % 2):
                    done[(lo, hi)] = ws
            if line:
                fh.truncate(fh.tell() - len(line))
    except OSError as exc:
        raise InputError(f"cannot write checkpoint {path}: {exc.strerror}") from None
    return done


def _witnesses_in_range(raw: bytes, ws: array, first: int) -> bool:
    """Whether each witness of ``ws``, of the even n = first, first + 2,
    ..., and ``raw`` in little-endian words, is 0 or in [2, n // 2].  A 1
    is looked for where a low byte is 1.  When every word is 0 from byte
    ``top`` up, each is below 256**top <= first // 2 + 1, so the bound
    holds; otherwise each witness is held to its own n."""
    size, low, at = ws.itemsize, raw[::ws.itemsize], -1
    while (at := low.find(1, at + 1)) >= 0:
        if ws[at] == 1:
            return False
    top = min(size, ((first // 2 + 1).bit_length() - 1) // 8)
    return (all(raw[j::size].count(0) == len(ws) for j in range(top, size))
            or all(map(le, ws, count(first // 2))))


def _seal(head: bytes, raw: bytes) -> bytes:
    digest = hashlib.sha256(head + b"\n")
    digest.update(raw)
    return digest.hexdigest().encode()


def _append_checkpoint(path: Path, lo: int, hi: int, witnesses: array):
    """Append one shard record: its header line, its words and a newline."""
    if sys.byteorder == "big":
        witnesses = array(witnesses.typecode, witnesses)
        witnesses.byteswap()
    raw = witnesses.tobytes()
    head = b"scan %d %d %s %d" % (lo, hi, witnesses.typecode.encode(), len(raw))
    with path.open("ab") as fh:
        fh.write(b"%s %s\n%s\n" % (head, _seal(head, raw), raw))


def _scan_e1(lo: int, hi: int, shards: int, workers: int, ck_path: Path | None) -> array:
    """E1 over the shards of [lo, hi] as one array of the run's typecode,
    extended shard by shard in range order, reusing the shards that the
    checkpoint holds in that typecode.  Fresh shards are appended to the
    checkpoint in range order as their results are taken.  The pool has at
    most one worker per fresh shard and per CPU, as it may start them all at
    once.  Worker shards all run, so each one that succeeds is recorded, also
    after a failed one, before the first failure is raised.  Workers ignore
    SIGINT: a Ctrl-C of the process group interrupts this loop alone, which
    then drops the shards not yet started and waits for the running ones, so
    no worker is left behind.  The fresh shards share one sieve table
    (:func:`_scan_direct_range`); a run that reuses every record builds
    none."""
    typecode = _typecode(hi)
    done = _load_checkpoint(ck_path, typecode) if ck_path else {}
    ranges = _shard_ranges(lo, hi, shards)
    fresh = [r for r in ranges if r not in done]
    sieve = pool = None
    if fresh:
        sieve = _sieve(_cutoff(len(_evens(lo, hi)), max(len(_evens(*r)) for r in fresh)))
    if workers > 1 and len(fresh) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(workers, len(fresh), os.cpu_count() or 1),
                                   initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    smallest, failure = array(typecode), None
    try:
        jobs = ({r: pool.submit(_scan_direct_range, *r, typecode, sieve) for r in fresh}
                if pool else {})
        for r in ranges:
            shard = done.pop(r, None)
            if shard is None:
                try:
                    shard = (jobs.pop(r).result() if pool
                             else _scan_direct_range(*r, typecode, sieve))
                except Exception as exc:
                    if not pool:
                        raise  # no later shard has run
                    failure = failure or exc
                    continue
                if ck_path:
                    _append_checkpoint(ck_path, *r, shard)
            if not failure:
                smallest.extend(shard)  # no shard is held once copied
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    if failure:
        raise failure
    return smallest


def _memory_bytes() -> int:
    """The host's physical memory, or sys.maxsize where it does not say."""
    try:
        return max(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), 0) or sys.maxsize
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def scan_exceptional(
    lo: int,
    hi: int,
    *,
    engine: str = "both",
    shards: int = 1,
    workers: int = 1,
    checkpoint: str | Path | None = None,
) -> ScanReport:
    """The smallest witness of every even n in [lo, hi], 0 where n is exceptional.

    With ``engine="both"`` the direct and inverted engines are both run and
    must agree exactly.  Sharding splits the range for E1; shards may run in
    worker processes, and each shard is checkpointed as soon as it finishes.
    The report is independent of shard count and worker count.  E2 takes
    none of these options, so ``engine="e2"`` with any of them is an input
    error.  A range whose witness slots alone exceed the host's physical
    memory raises :class:`MemoryError` before anything is allocated.
    """
    if not 8 <= lo <= hi:
        raise InputError(f"need 8 <= lo <= hi, got [{lo}, {hi}]")
    if engine not in ("e1", "e2", "both"):
        raise InputError(f"unknown engine {engine!r}")
    if shards < 1 or workers < 1:
        raise InputError(f"shards and workers must be >= 1, got {shards} and {workers}")
    if engine == "e2" and (checkpoint or shards > 1 or workers > 1):
        raise InputError("shards, workers and checkpoint apply to E1 only, not to engine 'e2'")
    # E1's report holds a word per even n in [lo, hi], E2's array a word per
    # n // 2 <= hi // 2
    itemsize = array(_typecode(hi)).itemsize
    need = ((hi // 2 - (lo - 1) // 2) + (engine != "e1") * (hi // 2 + 1)) * itemsize
    if need > _memory_bytes():
        raise MemoryError(f"a scan of [{lo}, {hi}] needs {need} bytes, more than this host has")
    if engine != "e2":
        smallest = _scan_e1(lo, hi, shards, workers, Path(checkpoint) if checkpoint else None)
    if engine != "e1":
        inverted = _scan_inverted(hi)
        del inverted[:(lo + 1) // 2]
        if engine == "both" and smallest != inverted:
            raise EngineMismatchError(
                f"scan engines disagree on [{lo}, {hi}]: E1 found {smallest.count(0)} "
                f"exceptional, E2 found {inverted.count(0)}")
        smallest = inverted
    return ScanReport(lo, hi, engine, smallest)


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
