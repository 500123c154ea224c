import faulthandler
import json
import os
import random
import signal
import struct
import time
from array import array
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt
from operator import not_

import pytest
from oracles import (
    checkpoint_record,
    object_checkpoint_line,
    read_checkpoint,
    sealed_checkpoint_line,
    smallest_witness,
    words,
)

from zslen.cf import (
    _cutoff,
    _icbrt,
    _load_checkpoint,
    _scan_direct_range,
    _scan_inverted,
    _shard_ranges,
    _sieve,
    _zeros,
    cf_odd_length,
    cf_regular,
    exceptional_witness,
    min_delta_pair,
    min_delta_sym_quad,
    ScanReport,
    scan_exceptional,
    sufficient_filters,
)
from zslen.delta_rho import delta_rho_star
from zslen.errors import EngineMismatchError, InputError
from zslen.groups import cyclic
from zslen.lengths import min_delta
from zslen.sequences import SupportSet


def test_cf_regular_examples():
    assert cf_regular(10, 3).quotients == (3, 3)
    assert cf_regular(8, 3).quotients == (2, 1, 2)
    assert cf_regular(17, 4).quotients == (4, 4)
    assert cf_regular(7, 1).quotients == (7,)
    with pytest.raises(InputError):
        cf_regular(10, 4)
    with pytest.raises(InputError):
        cf_regular(3, 5)


def test_cf_odd_length_examples():
    assert cf_odd_length(10, 3).quotients == (3, 2, 1)
    assert cf_odd_length(8, 3).quotients == (2, 1, 2)
    assert cf_odd_length(5, 2).quotients == (2, 1, 1)


def test_cf_reconstruction():
    # dense small range plus a seeded sample up to 10^4
    cases = [(n, a) for n in range(2, 151) for a in range(1, n) if gcd(a, n) == 1]
    rng = random.Random(60)
    for _ in range(3000):
        n = rng.randint(2, 10_000)
        a = rng.randint(1, n - 1)
        if gcd(a, n) == 1:
            cases.append((n, a))
    for n, a in cases:
        reg = cf_regular(n, a)
        odd = cf_odd_length(n, a)
        assert reg.value() == Fraction(n, a)
        assert odd.value() == Fraction(n, a)
        assert len(reg.quotients) == 1 or reg.quotients[-1] >= 2
        assert len(odd.quotients) % 2 == 1
        assert all(q >= 1 for q in reg.quotients[1:])


def test_min_delta_pair_examples_match_kernel():
    for n, a, want in [(10, 3, 2), (8, 3, 1), (13, 5, 1)]:
        assert min_delta_pair(n, a) == want
        support = SupportSet.of(cyclic(n), [(1,), (a,)])
        assert min_delta(support) == want


def test_min_delta_pair_bound():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(5, 200)
        a = rng.randint(2, n - 1)
        if gcd(a, n) != 1:
            continue
        value = min_delta_pair(n, a)
        if a == n - 1:
            assert value == n - 2  # support degenerates to {g, -g}
        else:
            assert value < n - 2


def test_min_delta_sym_quad_examples():
    assert min_delta_sym_quad(10, 3) == 2
    assert min_delta_sym_quad(17, 4) == 3
    assert min_delta_sym_quad(8, 3) == 1
    with pytest.raises(InputError):
        min_delta_sym_quad(10, 5)  # a >= n/2 rejected; caller substitutes n-a


def test_exceptional_witness():
    assert exceptional_witness(8) is None
    assert exceptional_witness(17) == 4
    assert exceptional_witness(10) == 3
    assert exceptional_witness(18) is None
    # an even n is tried at odd a alone, an odd n at every a
    orders = range(8, 300)
    assert [exceptional_witness(n) or 0 for n in orders] == [smallest_witness(n) for n in orders]


def test_witness_matches_star_set_for_small_orders():
    # no witness <=> the star set is exactly {1, n-2}; n = 10 has both a
    # witness and a star set missing 1, which still satisfies the equivalence
    for n in range(8, 27):
        star = delta_rho_star(cyclic(n))
        no_witness = exceptional_witness(n) is None
        assert no_witness == (star == frozenset({1, n - 2})), (n, sorted(star))
        # a witness value always shows up as an extra star member
        a = exceptional_witness(n)
        if a is not None and n % 2 == 0:
            assert min_delta_sym_quad(n, a) in star


def test_scan_small_ranges():
    assert scan_exceptional(8, 9).exceptional == (8,)
    report = scan_exceptional(10, 11)
    assert report.exceptional == ()
    assert report.witnesses == {10: 3}
    with pytest.raises(InputError):
        scan_exceptional(4, 9)


def _random_smallest(rng, size):
    """Witness tuples of one size: all 0, none 0, and eight mixed, half of
    them with 0 at both ends."""
    tuples = [(0,) * size, tuple(rng.randrange(1, 9) for _ in range(size))]
    for _ in range(8):
        t = [rng.choice((0, 0, 3, 5, 7)) for _ in range(size)]
        if size and rng.random() < 0.5:
            t[0] = t[-1] = 0
        tuples.append(tuple(t))
    return tuples


def test_zeros_finds_every_zero_word_and_no_zero_byte():
    # the search looks for zero bytes: words such as 256 and 65536 hold some
    # without being 0, and runs of them straddle word boundaries; zeros sit
    # on both sides of each 2^16-word block edge
    rng = random.Random(3216)
    edge = 1 << 16
    for code in "IQ":
        for size in (0, 1, 2, 5, edge - 1, edge, edge + 1, 2 * edge + 3):
            for density in (0.0, 0.01, 0.5, 1.0):
                a = array(code, (0 if rng.random() < density else rng.choice((1, 256, 65536, 2**24, 7, 257))
                                 for _ in range(size)))
                for i in (edge - 1, edge, 2 * edge - 1, 2 * edge):
                    if i < size and rng.random() < 0.5:
                        a[i] = 0
                assert _zeros(a) == [i for i, w in enumerate(a) if w == 0]


def test_report_exceptional_matches_the_compress_form():
    rng = random.Random(1518)
    for size in (0, 1, 2, 3, 40, 1000):
        for smallest in _random_smallest(rng, size):
            lo = rng.choice((8, 9, 1000))
            hi = lo + lo % 2 + 2 * size - 1
            want = tuple(compress(range(lo + lo % 2, hi + 1, 2), map(not_, smallest)))
            for form in (array("I", smallest), array("Q", smallest)):
                assert ScanReport(lo, hi, "e1", form).exceptional == want


def test_report_witnesses_answer_as_the_dict_they_replace():
    rng = random.Random(1519)
    for size in (0, 1, 2, 3, 40, 1000):
        for smallest in _random_smallest(rng, size):
            lo = rng.choice((8, 9, 1000))
            hi = lo + lo % 2 + 2 * size - 1
            evens = range(lo + lo % 2, hi + 1, 2)
            old = {n: w for n, w in zip(evens, smallest) if w}
            view = ScanReport(lo, hi, "e1", array("I", smallest)).witnesses
            assert view == old and old == view and not view != old
            assert len(view) == len(old) and list(view) == list(old)
            assert list(view.items()) == list(old.items()) and view.items() == old.items()
            assert list(view.values()) == list(old.values()) and view.keys() == old.keys()
            exceptional = [n for n in evens if n not in old]
            # keys the dict took: its own, also as floats; keys it refused:
            # odd n, n outside [lo, hi], exceptional n, other types
            keys = [*old, *map(float, old), lo - 2, lo - 1, hi + 1, hi + 2, 10.5, 3 * lo + 1,
                    *exceptional[:3], float("nan"), float("inf"), "10", str(lo), None, (lo,)]
            for key in keys:
                assert (key in view) == (key in old), key
                assert view.get(key, "absent") == old.get(key, "absent"), key
                if key in old:
                    assert view[key] == old[key]
                else:
                    with pytest.raises(KeyError):
                        view[key]


def test_scan_engines_agree_and_shard_invariance():
    base = scan_exceptional(8, 600, engine="both")
    solo = scan_exceptional(8, 600, engine="e1", shards=7)
    inverted = scan_exceptional(8, 600, engine="e2")
    assert base.exceptional == solo.exceptional == inverted.exceptional
    assert base.witnesses == solo.witnesses == inverted.witnesses
    assert base.digest() == solo.digest()
    assert base.smallest == solo.smallest == inverted.smallest
    assert base.smallest.typecode == "I"


def test_reports_from_any_shard_count_are_equal():
    one, three, seven = (scan_exceptional(9, 3001, engine="e1", shards=s) for s in (1, 3, 7))
    assert one == three == seven
    assert one.smallest.tolist() == _oracle_range(9, 3001)


def test_a_scan_past_two_to_the_thirty_third_holds_eight_byte_words():
    # hi // 2 >= 2**32 needs 'Q'; one typecode for the whole run, every shard
    lo = 2**33 - 40
    report = scan_exceptional(lo, lo + 80, engine="e1", shards=3)
    assert report.smallest.typecode == "Q"
    assert report.smallest.tolist() == _oracle_range(lo, lo + 80)
    assert scan_exceptional(lo - 100, lo - 20, engine="e1").smallest.typecode == "I"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lo, hi, shards", [
    # 4,000 even n in shards of 500: one table to 31, where a shard's own
    # sieves to 16
    (10**6, 10**6 + 7999, 8),
    (10**9 + 1, 10**9 + 8000, 8),
    (10**12, 10**12 + 7999, 8),
    # shards of 100 even n: 10·∛100 = 46 caps isqrt(10,000) // 2 = 50
    (10**9, 10**9 + 19999, 100),
])
def test_sharded_scans_sharing_one_sieve_table_match_the_quotient_list_oracle(lo, hi, shards, workers):
    report = scan_exceptional(lo, hi, engine="e1", shards=shards, workers=workers)
    assert report.smallest.tolist() == _oracle_range(lo, hi)


def test_the_sieve_table_equals_the_loop_over_every_r_below_a():
    # T(a, r) from the quotient list of a/r, for every r in [1, a): the
    # table tries only r <= a // 2, where the first quotient exceeds 1
    full = []
    for a in reversed(range(3, 401, 2)):
        for r in range(1, a):
            if gcd(a, r) == 1:
                *head, last = cf_regular(a, r).quotients
                t = gcd(*head, last - 1)
                full.extend((a, r, p) for p in range(2, t + 1)
                            if t % p == 0 and all(p % d for d in range(2, isqrt(p) + 1)))
    for cutoff in range(1, 401):
        assert _sieve(cutoff) == (cutoff, tuple(row for row in full if row[0] <= cutoff))


def test_a_scan_builds_one_sieve_table_for_all_its_fresh_shards(tmp_path, monkeypatch):
    import zslen.cf as cf_module

    cutoffs = []

    def counted(cutoff):
        cutoffs.append(cutoff)
        return _sieve(cutoff)

    monkeypatch.setattr(cf_module, "_sieve", counted)
    ck = tmp_path / "scan.ck"
    lo, hi = 207480, 307479  # 50,000 even n in 8 shards of 6,250
    fresh = scan_exceptional(lo, hi, engine="e1", shards=8, checkpoint=ck)
    # isqrt(50,000) // 2 = 111, below 10·∛6,250 = 184; each shard alone
    # would sieve to 39
    assert cutoffs == [111]
    assert scan_exceptional(lo, hi, engine="e1", shards=8, checkpoint=ck) == fresh
    assert cutoffs == [111]  # every record reused: no table
    # one fresh shard left: the run's table all the same, where its own
    # would sieve to isqrt(6,250) // 2 = 39
    ck.write_bytes(b"".join(_raw_records(ck.read_bytes())[:7]))
    assert scan_exceptional(lo, hi, engine="e1", shards=8, checkpoint=ck) == fresh
    assert cutoffs == [111, 111]
    scan_exceptional(8, 10**6, engine="e1")
    assert cutoffs == [111, 111, 353]  # one shard: isqrt(499,997) // 2


def test_the_cutoff_of_a_shared_sieve_table_grows_with_the_run_and_is_capped_by_its_widest_shard(
        tmp_path, monkeypatch):
    import zslen.cf as cf_module

    class Built(Exception):
        pass

    def refuse(cutoff):
        raise Built(cutoff)

    # [9, 11] in shards of one n, the checkpoint holding n = 10 alone: two
    # fresh shards with no even n
    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(9, 11, engine="e1", shards=3, checkpoint=ck)
    ck.write_bytes(_raw_records(ck.read_bytes())[1])
    monkeypatch.setattr(cf_module, "_sieve", refuse)
    for (lo, hi, shards, path), want in {
        # 49,999,997 even n: isqrt // 2 = 3,535, capped at 10·∛781,250 = 921
        (8, 10**8, 64, None): 921,
        (8, 10**8, 2, None): 2924,  # 10·∛25,000,000
        # 147 even n in 293 shards of one n: the floor of 16
        (8, 300, 1000, None): 16,
        (9, 11, 3, ck): 16,  # a widest fresh shard of width 0
    }.items():
        with pytest.raises(Built) as built:
            scan_exceptional(lo, hi, engine="e1", shards=shards, checkpoint=path)
        assert built.value.args == (want,)
    monkeypatch.undo()
    assert scan_exceptional(9, 11, engine="e1", shards=3, checkpoint=ck) == fresh


def test_icbrt_is_the_floor_of_the_cube_root():
    for x in [*range(2000), *(k**3 + d for k in (10**3, 10**6, 3**40) for d in (-1, 0, 1))]:
        y = _icbrt(x)
        assert y**3 <= x < (y + 1) ** 3, x


def test_the_cutoff_of_one_range_is_isqrt_of_its_size_over_two_until_the_cube_root_cap():
    for m in [*range(20000), *range(20000, 64_032_004, 9973), 64_032_003]:
        assert _cutoff(m, m) == max(16, isqrt(m) // 2), m
    assert _cutoff(64_032_004, 64_032_004) == 4000 < isqrt(64_032_004) // 2


def _records(ck):
    return read_checkpoint(ck.read_bytes())


def _raw_records(data: bytes) -> list[bytes]:
    """The byte strings of the whole records of a checkpoint, in order."""
    out = []
    while data:
        end = data.index(b"\n") + 1
        end += int(data[:end].split(b" ")[4]) + 1
        out.append(data[:end])
        data = data[end:]
    return out


def test_scan_checkpoint_resume(tmp_path):
    ck = tmp_path / "scan.ck"
    first = scan_exceptional(8, 400, engine="e1", shards=4, checkpoint=ck)
    # one record per shard: a sealed header line, the raw little-endian
    # words of the run's typecode, a newline
    records = _records(ck)
    assert [(lo, hi, code) for lo, hi, code, _ in records] == [(*r, "I") for r in _shard_ranges(8, 400, 4)]
    assert b"".join(raw for *_, raw in records) == words("I", first.smallest)
    assert [p.name for p in tmp_path.iterdir()] == ["scan.ck"]  # one file, no sidecar
    # resume: completed shards are reused, results identical
    assert {r: ws.tolist() for r, ws in _load_checkpoint(ck, "I").items()} == {
        (lo, hi): list(struct.unpack(f"<{len(raw) // 4}I", raw)) for lo, hi, _, raw in records}
    second = scan_exceptional(8, 400, engine="e1", shards=4, checkpoint=ck)
    assert second == first and second.witnesses == first.witnesses
    # a corrupt record forces recomputation, not wrong reuse: n = 8 is
    # exceptional, and the edit gives it the witness 3 under the old seal
    data = ck.read_bytes()
    start = data.index(b"\n") + 1
    assert data.startswith(b"scan 8 106 I 200 ") and data[start:start + 4] == words("I", [0])
    ck.write_bytes(data[:start] + words("I", [3]) + data[start + 4:])
    assert sorted(_load_checkpoint(ck, "I")) == _shard_ranges(8, 400, 4)[1:]
    third = scan_exceptional(8, 400, engine="e1", shards=4, checkpoint=ck)
    assert third == first


@pytest.mark.parametrize("workers", [1, 2])
def test_a_rerun_with_every_shard_recorded_computes_none(tmp_path, monkeypatch, workers):
    import zslen.cf as cf_module

    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 4000, engine="e1", shards=4)
    scan_exceptional(8, 4000, engine="e1", shards=4, checkpoint=ck)
    written = ck.read_bytes()
    assert [r[:3] for r in read_checkpoint(written)] == [(*r, "I") for r in _shard_ranges(8, 4000, 4)]
    calls = []
    monkeypatch.setattr(cf_module, "_scan_direct_range", lambda *r: calls.append(r))
    resumed = scan_exceptional(8, 4000, engine="e1", shards=4, workers=workers, checkpoint=ck)
    assert resumed == fresh and resumed.smallest.typecode == "I"
    assert calls == []
    assert ck.read_bytes() == written


def test_a_record_in_the_other_word_type_is_neither_reused_nor_hides_the_runs_own(tmp_path, monkeypatch):
    import zslen.cf as cf_module

    # a 'Q' run in two shards and an 'I' run over the first of them alone
    runs = {"Q": (2**33 - 1000, 2**33 + 999, 2), "I": (2**33 - 1000, 2**33 - 1, 1)}
    fresh = {code: scan_exceptional(lo, hi, engine="e1", shards=shards)
             for code, (lo, hi, shards) in runs.items()}
    assert [report.smallest.typecode for report in fresh.values()] == ["Q", "I"]
    ck = tmp_path / "scan.ck"
    for lo, hi, shards in runs.values():
        scan_exceptional(lo, hi, engine="e1", shards=shards, checkpoint=ck)
    written = ck.read_bytes()
    assert [r[:3] for r in read_checkpoint(written)] == [
        *((*r, "Q") for r in _shard_ranges(*runs["Q"])), (*runs["I"][:2], "I")]
    calls = []

    def counted(lo, hi, typecode, sieve):
        calls.append((lo, hi, typecode))
        return _scan_direct_range(lo, hi, typecode, sieve)

    monkeypatch.setattr(cf_module, "_scan_direct_range", counted)
    for code in "QIQI":  # each rerun reuses its own records
        lo, hi, shards = runs[code]
        assert scan_exceptional(lo, hi, engine="e1", shards=shards, checkpoint=ck) == fresh[code]
    assert calls == []
    assert ck.read_bytes() == written
    # a range whose only record is in the other word type is recomputed
    q_first, q_second, i_only = _raw_records(written)
    for code, records in (("Q", (i_only, q_second)), ("I", (q_first, q_second))):
        ck.write_bytes(b"".join(records))
        lo, hi, shards = runs[code]
        assert scan_exceptional(lo, hi, engine="e1", shards=shards, checkpoint=ck) == fresh[code]
        assert calls.pop() == (*_shard_ranges(lo, hi, shards)[0], code) and calls == []
        assert ck.read_bytes() == b"".join(records) + (q_first if code == "Q" else i_only)


def test_scan_resumes_after_torn_checkpoint_record(tmp_path):
    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 3000, engine="e1", shards=4)
    scan_exceptional(8, 3000, engine="e1", shards=4, checkpoint=ck)
    whole = _raw_records(ck.read_bytes())
    assert whole[-1].startswith(b"scan 2255 3000 I 1492 ") and len(whole[-1]) == 87 + 1492 + 1
    # an interrupted final write: the last record, an 86-byte header line
    # and the 1492 bytes of the 373 even n in [2255, 3000], loses its
    # newline, part of its words, all of them, or part of its header line
    for cut in (1, 40, 1000, 1493, 1560):
        ck.write_bytes(b"".join(whole)[:-cut])
        # loading cuts the torn tail off, so the next record starts on its own line
        assert sorted(_load_checkpoint(ck, "I")) == _shard_ranges(8, 3000, 4)[:3]
        assert ck.read_bytes() == b"".join(whole[:3])
        resumed = scan_exceptional(8, 3000, engine="e1", shards=4, checkpoint=ck)
        assert resumed == fresh
        assert ck.read_bytes() == b"".join(whole)
        assert len(_load_checkpoint(ck, "I")) == 4
        third = scan_exceptional(8, 3000, engine="e1", shards=4, checkpoint=ck)
        assert third == fresh


def test_interrupted_scan_keeps_its_finished_shards(tmp_path, monkeypatch):
    import zslen.cf as cf_module

    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 4000, engine="e1", shards=4)
    calls = []

    def interrupted(lo, hi, typecode, sieve):
        calls.append((lo, hi))
        if len(calls) == 3:
            raise RuntimeError("interrupted at shard 3 of 4")
        return _scan_direct_range(lo, hi, typecode, sieve)

    monkeypatch.setattr(cf_module, "_scan_direct_range", interrupted)
    with pytest.raises(RuntimeError, match="shard 3"):
        scan_exceptional(8, 4000, engine="e1", shards=4, checkpoint=ck)
    monkeypatch.undo()
    # each shard is recorded when it finishes, not when the whole run ends
    assert sorted(_load_checkpoint(ck, "I")) == calls[:2]
    assert [(lo, hi) for lo, hi, *_ in _records(ck)] == calls[:2]
    assert scan_exceptional(8, 4000, engine="e1", shards=4, checkpoint=ck) == fresh
    assert len(_load_checkpoint(ck, "I")) == 4


def test_scan_recomputes_a_record_with_a_forged_witness(tmp_path):
    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 400, engine="e1", shards=2)
    scan_exceptional(8, 400, engine="e1", shards=2, checkpoint=ck)
    assert fresh.witnesses[10] == 3
    # the words start at n = 8, 10; 9 is no witness for n = 10, and the
    # record's seal must catch the edit
    data = ck.read_bytes()
    start = data.index(b"\n") + 1
    assert data[start:start + 8] == words("I", [0, 3])
    ck.write_bytes(data[:start] + words("I", [0, 9]) + data[start + 8:])
    assert sorted(_load_checkpoint(ck, "I")) == _shard_ranges(8, 400, 2)[1:]
    assert scan_exceptional(8, 400, engine="e1", shards=2, checkpoint=ck) == fresh
    # resealed, the edit passes the seal, and the range check refuses it:
    # 9 exceeds 10 // 2
    [(lo, hi, code, raw)] = read_checkpoint(_raw_records(ck.read_bytes())[-1])
    assert (lo, hi, code) == (8, 204, "I")
    ck.write_bytes(checkpoint_record(lo, hi, code, raw))
    assert sorted(_load_checkpoint(ck, "I")) == [(8, 204)]
    ck.write_bytes(checkpoint_record(lo, hi, code, words("I", [0, 9]) + raw[8:]))
    assert _load_checkpoint(ck, "I") == {}


def test_scan_recomputes_a_record_in_the_exceptional_and_witness_map_format(tmp_path):
    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 400, engine="e1", shards=2)
    old = scan_exceptional(8, 204, engine="e1")
    # the record format before the witness list: exceptional orders plus a
    # map with string keys, its checksum valid for that format
    line = object_checkpoint_line({
        "lo": 8, "hi": 204, "exceptional": list(old.exceptional),
        "witnesses": {str(n): w for n, w in old.witnesses.items()}}).encode()
    ck.write_bytes(line)
    assert _load_checkpoint(ck, "I") == {}
    assert scan_exceptional(8, 400, engine="e1", shards=2, checkpoint=ck) == fresh
    # the old line stays, skipped, and the new records after it are read
    assert ck.read_bytes().startswith(line)
    assert sorted(_load_checkpoint(ck, "I")) == _shard_ranges(8, 400, 2)


def test_scan_recomputes_a_record_in_the_object_format(tmp_path, monkeypatch):
    import zslen.cf as cf_module

    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 400, engine="e1", shards=2)
    ranges = _shard_ranges(8, 400, 2)
    # the record format before the sealed line: an object whose sha256 key
    # covers the other three keys as canonical JSON, its checksum valid
    ck.write_text("".join(object_checkpoint_line(
        {"lo": lo, "hi": hi, "witnesses": scan_exceptional(lo, hi, engine="e1").smallest.tolist()})
        for lo, hi in ranges))
    assert _load_checkpoint(ck, "I") == {}
    calls = []

    def counted(lo, hi, typecode, sieve):
        calls.append((lo, hi))
        return _scan_direct_range(lo, hi, typecode, sieve)

    monkeypatch.setattr(cf_module, "_scan_direct_range", counted)
    assert scan_exceptional(8, 400, engine="e1", shards=2, checkpoint=ck) == fresh
    assert calls == ranges
    assert len(_load_checkpoint(ck, "I")) == 2


def test_scan_recomputes_a_record_in_the_sealed_json_line_format(tmp_path, monkeypatch):
    import zslen.cf as cf_module

    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 400, engine="e1", shards=2)
    ranges = _shard_ranges(8, 400, 2)
    # the record format before the binary one: the sha256 hex of the JSON
    # [lo, hi, witnesses], a space and that JSON, its seal valid
    lines = "".join(sealed_checkpoint_line([lo, hi, scan_exceptional(lo, hi, engine="e1").smallest.tolist()])
                    for lo, hi in ranges).encode()
    ck.write_bytes(lines)
    assert _load_checkpoint(ck, "I") == {}
    calls = []
    monkeypatch.setattr(cf_module, "_scan_direct_range", lambda *r: calls.append(r[:2]) or _scan_direct_range(*r))
    assert scan_exceptional(8, 400, engine="e1", shards=2, checkpoint=ck) == fresh
    assert calls == ranges
    assert ck.read_bytes().startswith(lines)
    assert sorted(_load_checkpoint(ck, "I")) == ranges


def _fails_on_third_shard(lo, hi, typecode, sieve):
    """E1 on one shard of [8, 4000] in four, failing on the third; at module
    level, so that worker processes can unpickle it."""
    if lo == _shard_ranges(8, 4000, 4)[2][0]:
        raise RuntimeError("shard 3 failed")
    return _scan_direct_range(lo, hi, typecode, sieve)


def test_worker_shards_finished_around_a_failed_one_are_recorded(tmp_path, monkeypatch):
    import zslen.cf as cf_module

    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 4000, engine="e1", shards=4)
    monkeypatch.setattr(cf_module, "_scan_direct_range", _fails_on_third_shard)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers, also on one CPU
    faulthandler.dump_traceback_later(120, exit=True)  # a hung pool ends the run
    try:
        with pytest.raises(RuntimeError, match="shard 3"):
            scan_exceptional(8, 4000, engine="e1", shards=4, workers=2, checkpoint=ck)
    finally:
        faulthandler.cancel_dump_traceback_later()
    monkeypatch.undo()
    ranges = _shard_ranges(8, 4000, 4)
    assert sorted(_load_checkpoint(ck, "I")) == ranges[:2] + ranges[3:]
    assert scan_exceptional(8, 4000, engine="e1", shards=4, checkpoint=ck) == fresh
    assert len(_load_checkpoint(ck, "I")) == 4


@pytest.mark.parametrize("shards, workers, kept, cpus, size", [
    (2, 64, 0, 64, 2),  # never more workers than shards
    (4, 2, 0, 64, 2),  # never more than asked for
    (4, 64, 1, 64, 3),  # only the shards the checkpoint lacks run
    (8, 64, 0, 2, 2),  # never more than there are CPUs
], ids=["2-64-0-2", "4-2-0-2", "4-64-1-3", "8-64-0-2"])  # shards-workers-kept-size
def test_worker_pool_is_sized_by_the_shards_it_runs(tmp_path, monkeypatch, shards, workers, kept, cpus, size):
    # ProcessPoolExecutor may fork all its max_workers at the first submit, so
    # the pool asks for no more than there are fresh shards and CPUs; this
    # stand-in records that number and runs each shard here, starting no
    # process
    import concurrent.futures
    from concurrent.futures import Future

    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 3000, engine="e1", shards=shards, checkpoint=ck)
    ck.write_bytes(b"".join(_raw_records(ck.read_bytes())[:kept]))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert scan_exceptional(8, 3000, engine="e1", shards=shards, workers=workers, checkpoint=ck) == fresh
    assert sizes == [size]


_MARKS = None  # a directory, set before the pool forks its workers


def _slow_shard_that_ignores_sigint(lo, hi, typecode, sieve):
    """E1 on one shard after 0.2 s, leaving a mark; fails in a worker that
    would take SIGINT itself, where a Ctrl-C of the process group reaches
    workers and parent alike."""
    if signal.getsignal(signal.SIGINT) != signal.SIG_IGN:
        raise RuntimeError("a worker handles SIGINT")
    (_MARKS / str(lo)).touch()
    time.sleep(0.2)
    return _scan_direct_range(lo, hi, typecode, sieve)


def test_an_interrupted_worker_scan_drops_the_shards_not_yet_started(tmp_path, monkeypatch):
    import zslen.cf as cf_module

    def interrupt(*record):
        raise KeyboardInterrupt

    monkeypatch.setitem(globals(), "_MARKS", tmp_path)
    monkeypatch.setattr(cf_module, "_scan_direct_range", _slow_shard_that_ignores_sigint)
    monkeypatch.setattr(cf_module, "_append_checkpoint", interrupt)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers, also on one CPU
    faulthandler.dump_traceback_later(120, exit=True)  # a hung pool ends the run
    try:
        with pytest.raises(KeyboardInterrupt):
            scan_exceptional(8, 4000, engine="e1", shards=16, workers=2,
                             checkpoint=tmp_path / "scan.ck")
    finally:
        faulthandler.cancel_dump_traceback_later()
    # interrupted after the first shard: the running and already queued
    # shards finish, the others never start
    assert 1 <= len([p for p in tmp_path.iterdir() if p.name != "scan.ck"]) < 16


def test_scan_recomputes_past_a_checkpoint_line_that_is_not_utf8(tmp_path):
    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 400, engine="e1", shards=2)
    ck.write_bytes(b"\xff\xfe\x00 not utf-8")
    assert _load_checkpoint(ck, "I") == {}
    assert scan_exceptional(8, 400, engine="e1", shards=2, checkpoint=ck) == fresh
    assert len(_load_checkpoint(ck, "I")) == 2


def test_scan_recomputes_a_checkpoint_in_the_old_two_file_layout(tmp_path):
    ck = tmp_path / "scan.ck"
    fresh = scan_exceptional(8, 400, engine="e1", shards=2)
    # index lines "lo hi digest" plus a .data sidecar of JSON records
    ck.write_text(f"8 204 {fresh.digest()}\n205 400 {fresh.digest()}\n")
    ck.with_suffix(".ck.data").write_text(json.dumps(
        {"lo": 8, "hi": 204, "exceptional": [], "witnesses": {}}) + "\n")
    assert _load_checkpoint(ck, "I") == {}
    assert scan_exceptional(8, 400, engine="e1", shards=2, checkpoint=ck) == fresh
    assert len(_load_checkpoint(ck, "I")) == 2


def test_filters():
    assert "cond1" in sufficient_filters(16)  # 15 composite
    assert sufficient_filters(26) == frozenset({"cond1"})  # 25 composite; 23 prime
    assert sufficient_filters(17) == frozenset({"cond6"})  # 16 is a square
    assert sufficient_filters(14) == frozenset()  # 13 and 11 prime, no pattern
    with pytest.raises(InputError):
        sufficient_filters(4)


def test_filters_imply_witness():
    report = scan_exceptional(8, 800, engine="e1")
    for n in range(8, 801, 2):
        if sufficient_filters(n) & {"cond1", "cond2", "cond3", "cond4"}:
            assert n in report.witnesses, n


def test_inverted_engine_matches_direct_witnesses_to_30000():
    # every minimal witness, including those only a reversed list reaches;
    # E2 lists n // 2 from n = 0, so n = 8 is at index 4
    direct = scan_exceptional(8, 30000, engine="e1").smallest
    assert _scan_inverted(30000)[4:] == direct
    assert direct.count(0) == 25  # the exceptional orders, all below 3000


def test_inverted_engine_equals_direct_engine_to_one_million():
    inverted = _scan_inverted(10**6)
    assert inverted[4:] == scan_exceptional(8, 10**6, engine="e1").smallest
    assert inverted.typecode == "I"


# cap, hi and n -> smallest witness for an n whose smallest witness is the
# last odd value the walk marks (the cap itself when it is odd) and an n
# whose smallest witness is the first odd value above the cap, where the
# trial starts; 603 is the first witness of an n only past 1.4 * 10^6
@pytest.mark.parametrize("cap, hi, pinned", [
    (5, 400, {26: 5, 24: 7}),
    (6, 400, {26: 5, 24: 7}),
    (41, 3000, {140: 41, 132: 43}),
    (42, 3000, {140: 41, 132: 43}),
    (123, 15000, {12452: 123, 684: 125}),
    (124, 15000, {12452: 123, 684: 125}),
    (601, 300000, {226602: 601, 15132: 605}),
])
def test_inverted_engine_at_the_edge_of_its_walk(monkeypatch, cap, hi, pinned):
    import zslen.cf as cf_module

    monkeypatch.setattr(cf_module, "_E2_CAP", cap)
    inverted = _scan_inverted(hi)
    assert {n: inverted[n // 2] for n in pinned} == pinned
    assert inverted[4:] == scan_exceptional(8, hi, engine="e1").smallest


def test_inverted_engine_calls_no_part_of_the_direct_engine(monkeypatch):
    import zslen.cf as cf_module

    def refuse(*args, **kwargs):
        raise AssertionError("E2 called a helper of E1")

    for name in ("_tail_gcd", "_quad_criterion", "_trial_witness", "_factorint", "_scan_direct_range"):
        monkeypatch.setattr(cf_module, name, refuse)
    # the 25 exceptional orders of every range [8, hi] with hi >= 2844
    assert scan_exceptional(8, 3000, engine="e2").digest() == (
        "776cc5fa0de736c4e6df863e2a165705881bc498ae471fb4fc2d99807ff8d0d7")


def _oracle_range(lo, hi):
    return [smallest_witness(n) for n in range(lo + lo % 2, hi + 1, 2)]


def test_direct_engine_matches_the_quotient_list_oracle():
    assert scan_exceptional(8, 20000, engine="e1").smallest.tolist() == _oracle_range(8, 20000)
    # windows up to 300 wide sieve with a cutoff of 16: some lie below or
    # straddle 32, some above 10^6; lo takes both parities
    rng = random.Random(29)
    for k in range(240):
        base = rng.choice([rng.randint(8, 40), rng.randint(8, 10**6), rng.randint(10**6, 10**12)])
        lo = max(8, base - base % 2 + k % 2)
        hi = lo + rng.randint(0, 300)
        assert scan_exceptional(lo, hi, engine="e1").smallest.tolist() == _oracle_range(lo, hi), (lo, hi)


def test_engine_mismatch_is_detectable(monkeypatch):
    import zslen.cf as cf_module

    def broken(hi):
        return array("I", [0]) * (hi // 2 + 1)  # no witness anywhere

    monkeypatch.setattr(cf_module, "_scan_inverted", broken)
    with pytest.raises(EngineMismatchError):
        scan_exceptional(8, 40, engine="both")


def test_scan_odd_lower_bound_and_random_subranges():
    rng = random.Random(3)
    report = scan_exceptional(9, 33)
    assert report.exceptional == (12, 14, 18, 20, 30, 32)
    for _ in range(5):
        lo = rng.randint(8, 900)
        hi = lo + rng.randint(0, 300)
        a = scan_exceptional(lo, hi, engine="e1")
        b = scan_exceptional(lo, hi, engine="e2")
        assert a.exceptional == b.exceptional and a.witnesses == b.witnesses
