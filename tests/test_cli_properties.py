"""Property tests of the CLI contract: every input, valid or not, ends in
exit 0 (an answer), 2 (usage error) or 3 (budget), never in a traceback.

Inputs are drawn literals: groups of order at most 16 and C2xC2xC2xC4,
supports and sequences over them (multiplicities at most 12, coordinates
sometimes malformed), rank-one ``--gens`` lists,
scan ranges, ``--checkpoint`` files and ``ZSLEN_BUDGET`` strings, including
non-positive values, malformed tokens, torn or foreign checkpoint lines,
torn records, records whose header misstates their length, records of
older formats with a valid checksum, and unknown fields.  Examples are derandomized, so every run replays the same
inputs.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import checkpoint_record, object_checkpoint_line, sealed_checkpoint_line, words

from zslen.cli import main
from zslen.groups import make_group

EXAMPLES = settings(max_examples=60, derandomize=True, database=None, deadline=None)

BUDGET_FIELDS = ("max_atoms", "max_nodes", "max_states", "max_supports")


def run(argv: list[str], budget: str | None) -> int:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("ZSLEN_BUDGET", None)
        if budget is not None:
            os.environ["ZSLEN_BUDGET"] = budget
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3), (argv, budget, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def mostly(good, bad):
    """``good`` four times in five, else ``bad``."""
    return st.integers(0, 4).flatmap(lambda coin: bad if coin == 0 else good)


budget_entries = mostly(
    st.builds("{}={}".format, st.sampled_from(BUDGET_FIELDS), st.integers(1, 10**7)),
    st.one_of(
        st.builds("{}={}".format, st.sampled_from(BUDGET_FIELDS + ("max_length", "foo")),
                  st.one_of(st.integers(-3, 0).map(str), st.sampled_from(["", "x", "1e3", " 7"]))),
        st.sampled_from(["max_atoms", "=", " ", "max_nodes=="]),
    ),
)
budgets = mostly(st.none(), st.lists(budget_entries, max_size=3).map(",".join))
budget_flags = mostly(st.none(), st.integers(-2, 10**6))


@st.composite
def groups(draw):
    """(literal, invariant factors): a group of order <= 16, or a malformed
    literal with no factors."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["C0", "D4", "", "C2x", "x", "c-3", "C2xC17"])), ()
    factors = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4)
                   .filter(lambda fs: prod(fs) <= 16))
    text = draw(st.sampled_from("xX")).join(f"{draw(st.sampled_from('Cc'))}{n}" for n in factors)
    return text, make_group(factors).invariant_factors


# coordinates that the tuple pattern admits but that are no integers
BAD_COORDINATES = ["1-2", "--1", "1 2", "-", "3-"]


def residues(rank: int, valid: bool):
    """Residue tuples of the group's rank, or of any length up to rank + 1
    whose coordinates are integers or malformed tokens."""
    if valid:
        return st.lists(st.integers(-3, 17), min_size=rank, max_size=rank)
    return st.lists(st.integers(-3, 17) | st.sampled_from(BAD_COORDINATES), max_size=rank + 1)


def element_text(rs: list[int | str]) -> str:
    """A lone integer bare, anything else as a tuple literal, ``(1-2)`` too."""
    return str(rs[0]) if len(rs) == 1 and isinstance(rs[0], int) else "(" + ",".join(map(str, rs)) + ")"


@st.composite
def group_and_support(draw):
    group, inv = draw(groups())
    valid = draw(mostly(st.just(True), st.just(False)))
    elems = draw(st.lists(residues(len(inv), valid), min_size=valid, max_size=4))
    return group, ",".join(map(element_text, elems))


@st.composite
def group_and_sequence(draw):
    group, inv = draw(groups())
    valid = draw(mostly(st.just(True), st.just(False)))
    mults = st.integers(0 if valid else -1, 12)
    tokens = draw(st.lists(st.tuples(residues(len(inv), valid), mults), min_size=valid, max_size=4))
    if valid and inv:
        # close the sequence with its negated sum, so it is zero-sum
        total = [0] * len(inv)
        for rs, m in tokens:
            total = [t + m * r for t, r in zip(total, rs)]
        tokens.append(([-t % n for t, n in zip(total, inv)], 1))
    return group, ",".join(f"{element_text(rs)}^{m}" for rs, m in tokens)


def with_flag(argv: list[str], budget_atoms: int | None) -> list[str]:
    return argv if budget_atoms is None else [f"--budget-atoms={budget_atoms}", *argv]


@EXAMPLES
@given(group_and_support(), st.sampled_from(["atoms", "min-delta"]), budget_flags, budgets)
def test_support_commands_never_trace(gs, command, budget_atoms, budget):
    group, support = gs
    run(with_flag([command, "--group", group, f"--support={support}"], budget_atoms), budget)


@EXAMPLES
@given(group_and_sequence(), budget_flags, budgets)
def test_lengths_never_traces(gs, budget_atoms, budget):
    group, sequence = gs
    run(with_flag(["lengths", "--group", group, f"--sequence={sequence}"], budget_atoms), budget)


@EXAMPLES
@given(groups(), budget_flags, budgets)
def test_delta_rho_never_traces(group, budget_atoms, budget):
    # a well-formed literal, whatever the case of its letters, is no usage error
    code = run(with_flag(["delta-rho", "--group", group[0]], budget_atoms), budget)
    if group[1] and not malformed_budget(budget_atoms, budget):
        assert code in (0, 3)


def malformed_budget(budget_atoms: int | None, budget: str | None) -> bool:
    """Whether the flag or a ``ZSLEN_BUDGET`` entry is a usage error: below 1,
    or not ``field=integer`` with a known field."""
    if budget_atoms is not None and budget_atoms < 1:
        return True
    for entry in filter(str.strip, (budget or "").split(",")):
        key, eq, value = entry.partition("=")
        if not eq or key.strip() not in BUDGET_FIELDS or not value.strip().isdigit() or int(value) < 1:
            return True
    return False


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(budget_flags, budgets)
def test_delta_rho_through_the_orbit_source_never_traces(budget_atoms, budget):
    # the groups above, of order <= 16, are cyclic or settled by a theorem;
    # C2xC2xC2xC4, of order 32, is the smallest that only the orbit source
    # answers, so this runs its enumeration and its budget stops
    code = run(with_flag(["delta-rho", "--group", "C2xC2xC2xC4"], budget_atoms), budget)
    assert code == 2 if malformed_budget(budget_atoms, budget) else code in (0, 3)


# generator values up to 10**9, small ones four times in five; a monoid
# whose values are all large has more cosets (q * m) than any budget drawn
# here, so it must exit 3 before its coset table is built
gen_values = mostly(st.integers(1, 12), st.integers(10**8, 10**9))
good_gens = st.builds("{}:{}".format, st.integers(0, 8), gen_values) | gen_values.map(str)
bad_gens = (st.builds("{}:{}".format, st.integers(-3, 8), st.integers(-1, 0))
            | st.sampled_from(["x:1", "1:", ":", "1:2:3"]))


@EXAMPLES
@given(mostly(st.tuples(st.integers(1, 6), st.lists(good_gens, min_size=1, max_size=4)),
              st.tuples(st.integers(-1, 6), st.lists(good_gens | bad_gens, max_size=4))),
       budget_flags, budgets)
def test_fp_profile_never_traces(q_gens, budget_atoms, budget):
    q, gens = q_gens
    run(with_flag(["fp", f"--q={q}", f"--gens={','.join(gens)}", "profile"], budget_atoms), budget)


def torn_record(lo: int, width: int, cut: int) -> bytes:
    """A sealed shard line in the older JSON-line format (longer than 60
    bytes) without its newline and its last ``cut`` bytes."""
    line = sealed_checkpoint_line([lo, lo + width, [0] * (width // 2 + 1)]).encode()
    return line[:-1 - cut]


def torn_binary_record(lo: int, width: int, cut: int) -> bytes:
    """A sealed shard record without its last ``cut`` bytes, at most all
    but one of its header line: an interrupted write."""
    record = checkpoint_record(lo, lo + width, "I", words("I", [0] * len(range(lo + lo % 2, lo + width + 1, 2))))
    return record[:-min(cut, len(record) - 1)]


def misstated_record(lo: int, width: int, error: int) -> bytes:
    """A sealed shard record whose header misstates the length of its words
    by ``error`` bytes, followed by a whole record of [8, 30]."""
    raw = words("I", [0] * len(range(lo + lo % 2, lo + width + 1, 2)))
    return (checkpoint_record(lo, lo + width, "I", raw, len(raw) + error)
            + checkpoint_record(8, 30, "I", words("I", [0] * 12)))


# a checkpoint file's contents; None passes no --checkpoint, "fresh" a path
# that does not exist yet
checkpoints = st.one_of(
    st.none(),
    st.just("fresh"),
    st.builds(torn_record, st.integers(8, 60), st.integers(0, 60), st.integers(1, 60)),
    st.builds(torn_binary_record, st.integers(8, 60), st.integers(0, 60), st.integers(1, 400)),
    st.builds(misstated_record, st.integers(8, 60), st.integers(0, 60), st.integers(-40, 200).filter(bool)),
    st.sampled_from([b"8 204 " + b"0" * 64 + b"\n", b"[1, 2]\n", b'{"lo": 8, "hi": 30}\n',
                     b"\xff\xfe\x00 not utf-8\n", b"sha256\n\n",
                     sealed_checkpoint_line([8, 30, 5]).encode(),
                     sealed_checkpoint_line([8, 30, [0] * 12]).encode(),
                     object_checkpoint_line({"lo": 8, "hi": 30, "witnesses": [0] * 12}).encode()]),
)


@EXAMPLES
@given(mostly(st.integers(8, 60), st.integers(-5, 7)), st.integers(-5, 300) | st.just(10**30),
       st.sampled_from(["e1", "e2", "both"]),
       # up to 400 shards, more than the even orders of any hi <= 300: shards with none
       mostly(st.integers(1, 5) | st.integers(6, 400), st.integers(-1, 0)), mostly(st.just(1), st.integers(-1, 0)),
       budgets, checkpoints)
def test_cf_scan_never_traces(lo, hi, engine, shards, workers, budget, checkpoint):
    argv = ["cf-scan", f"--lo={lo}", f"--hi={hi}", "--engine", engine,
            f"--shards={shards}", f"--workers={workers}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.ck"
        if isinstance(checkpoint, bytes):
            path.write_bytes(checkpoint)
        if checkpoint is not None:
            argv.append(f"--checkpoint={path}")
        run(argv, budget)


@EXAMPLES
@given(budgets)
def test_nonpositive_budget_entries_are_usage_errors(budget):
    fields = dict(entry.partition("=")[::2] for entry in (budget or "").split(","))
    code = run(["atoms", "--group", "C10", "--support", "1,9"], budget)
    if any(k in BUDGET_FIELDS and v.strip().lstrip("-").isdigit() and int(v) < 1
           for k, v in fields.items()):
        assert code == 2
