import json
import os
import re
import subprocess
import sys
import time

import pytest
from oracles import sealed_checkpoint_line

import zslen
from zslen import verify
from zslen.cf import scan_exceptional
from zslen.cli import main
from zslen.config import ResourceConfig
from zslen.errors import EngineMismatchError, InputError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_rho_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "delta-rho", "--group", "C10")
    assert code == 0
    payload = json.loads(out)
    assert payload["star"] == [2, 8]
    assert payload["exact"] == [2, 8]
    assert payload["provenance"] == "theorem-cyclic"


def test_delta_rho_c272_settles_without_full_enumeration(capsys):
    # enumerating every atom of C272 ran out of budget (exit 3)
    start = time.perf_counter()
    code, out, _ = run(capsys, "delta-rho", "--group", "C272")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert json.loads(out)["star"] == [1, 270]


def test_delta_rho_sandwich_only_prints_the_conjectured_set(capsys):
    code, out, _ = run(capsys, "--format", "json", "delta-rho", "--group", "C2xC2xC2xC4")
    assert code == 0
    assert json.loads(out)["provenance"] == "sandwich-only"
    assert '"conjectured": [1]' in out


def test_delta_rho_reads_an_uppercase_separator(capsys):
    # group literals are case-insensitive, the separator x included
    code, out, _ = run(capsys, "--format", "json", "delta-rho", "--group", "C2XC4")
    assert code == 0
    assert json.loads(out)["star"] == [1]


def test_delta_rho_empty_sentinel(capsys):
    code, out, _ = run(capsys, "--format", "json", "delta-rho", "--group", "C2")
    assert code == 0
    payload = json.loads(out)
    assert payload["star"] == "empty"
    assert payload["exact"] == "empty"


def test_atoms_lines_and_summary(capsys):
    code, out, _ = run(capsys, "atoms", "--group", "C10", "--support", "1,3,7,9")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary == {"count": 18, "davenport": 10}
    assert "1^10" in lines[:-1]
    assert len(lines) - 1 == 18


def test_atoms_tsv_sorted_by_length(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "atoms", "--group", "C10",
                       "--support", "1,9")
    assert code == 0
    rows = [line for line in out.splitlines() if "\t" in line and not line.startswith(("count", "davenport"))]
    lengths = [int(r.split("\t")[0]) for r in rows]
    assert lengths == sorted(lengths)


def test_lengths_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "lengths", "--group", "C10",
                       "--sequence", "1^10,9^10")
    assert code == 0
    assert json.loads(out) == {"L": [2, 10], "delta": [8], "rho": "5"}


def test_lengths_of_a_sequence_without_multiplicities(capsys):
    # a token without ``^`` counts once: 1·9 in C10 is an atom
    code, out, _ = run(capsys, "lengths", "--group", "C10", "--sequence", "1,9")
    assert (code, out) == (0, '{"L": [1], "delta": "empty", "rho": "1"}\n')


@pytest.mark.parametrize("sequence, message", [
    ("(1", "unbalanced parentheses"),
    ("1)", "unbalanced parentheses"),
    ("1^x", "bad multiplicity"),
    ("1^-1", "negative multiplicity"),
])
def test_malformed_sequence_literals_exit_2(capsys, sequence, message):
    code, out, err = run(capsys, "lengths", "--group", "C10", "--sequence", sequence)
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("group, support", [
    ("C3xC3", "(1-2,0),(0,1)"),
    ("C3xC3", "(--1,0),(0,1)"),
    ("C3xC3", "(1 2,0),(0,1)"),
    ("C3xC3", "(1,-),(0,1)"),
    ("C10", "(1-2)"),
])
def test_malformed_tuple_coordinates_exit_2(capsys, group, support):
    code, out, err = run(capsys, "atoms", "--group", group, "--support", support)
    assert (code, out) == (2, "") and "bad element literal" in err and "Traceback" not in err


@pytest.mark.parametrize("group, support, hint", [
    ("C1", "0", "needs 0 coordinates, e.g. ()"),
    ("C2xC2xC2", "1", "needs 3 coordinates, e.g. (0,0,0)"),
])
def test_a_bare_integer_outside_rank_one_exits_2_with_a_literal_of_the_rank(capsys, group, support, hint):
    code, out, err = run(capsys, "atoms", "--group", group, "--support", support)
    assert (code, out) == (2, "") and hint in err and "Traceback" not in err


def test_min_delta_text_and_empty(capsys):
    code, out, _ = run(capsys, "min-delta", "--group", "C10", "--support", "1,3,7,9")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, "min-delta", "--group", "C2", "--support", "1")
    assert (code, out.strip()) == (0, "empty")


def test_fp_profile_matches_documented_shape(capsys):
    code, out, _ = run(capsys, "--format", "json", "fp", "--q", "2",
                       "--gens", "1:3,0:5", "profile")
    assert code == 0
    assert json.loads(out) == {"rho": "5/3", "d": 2, "minDelta": 4, "accepted": True}


def test_fp_obstruction(capsys):
    code, out, _ = run(capsys, "--format", "json", "fp", "obstruction", "--d", "4,6")
    assert code == 0
    payload = json.loads(out)
    assert payload["gcd"] == 2
    assert any("cyclic of order 4, 6, or 10" in m for m in payload["messages"])


def test_fp_obstruction_bad_token_exits_2(capsys):
    code, out, err = run(capsys, "fp", "obstruction", "--d", "4,x")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_removed_flags_are_usage_errors(capsys):
    for argv in (["min-delta", "--group", "C10", "--support", "1,9", "--budget-length", "2"],
                 ["--workers", "2", "verify", "elem2"],
                 ["delta-rho", "--group", "C5", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("before, flag, value, after", [
    (["atoms", "--group", "C9"], "--support", "-2,3,6", []),
    (["lengths", "--group", "C10"], "--sequence", "-1^10,1^10", []),
    (["fp", "--q", "2"], "--gens", "-1:3,0:5", ["profile"]),
])
def test_values_starting_with_a_minus_sign(capsys, before, flag, value, after):
    code, out, err = run(capsys, *before, flag, value, *after)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *before, f"{flag}={value}", *after)


def test_cf_scan_workers_do_not_change_output(capsys):
    args = ("cf-scan", "--lo", "8", "--hi", "3000", "--shards", "4")
    assert run(capsys, *args, "--workers", "2") == run(capsys, *args, "--workers", "1")


@pytest.mark.parametrize("command, argv", [
    ("cmd_cf_scan", ["cf-scan", "--hi", "300"]),
    ("cmd_delta_rho", ["delta-rho", "--group", "C10"]),
])
def test_ctrl_c_exits_130_without_a_traceback(capsys, monkeypatch, command, argv):
    import zslen.cli as cli_module

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, command, interrupted)
    try:
        result = run(capsys, *argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    assert result == (130, "", "interrupted\n")


def test_a_reader_that_closes_early_gets_exit_141_without_a_traceback():
    # every atom of C5xC5 prints about 1.2 MB, far more than a pipe buffers,
    # so the writer is still printing when the reader goes away
    support = ",".join(f"({a},{b})" for a in range(5) for b in range(5))
    src = os.path.dirname(os.path.dirname(zslen.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from zslen.cli import main; sys.exit(main())",
         "atoms", "--group", "C5xC5", "--support", support],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"(0,0)\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Exception ignored" not in err


def test_a_length_set_past_the_box_budget_exits_3_without_a_traceback():
    # every nonzero element of C2^4 to the power 12: 13^15 sub-multisets
    sequence = ",".join(f"({a},{b},{c},{d})^12" for a in range(2) for b in range(2)
                        for c in range(2) for d in range(2) if a or b or c or d)
    src = os.path.dirname(os.path.dirname(zslen.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from zslen.cli import main; sys.exit(main())",
         "lengths", "--group", "C2xC2xC2xC2", "--sequence", sequence],
        capture_output=True, text=True, timeout=60,
        env={k: v for k, v in {**os.environ, "PYTHONPATH": src}.items() if k != "ZSLEN_BUDGET"},
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "budget: budget exceeded: length-set box cells (limit 2000000)\n"


@pytest.mark.parametrize("where", ["missing/ck", "."])
def test_cf_scan_unwritable_checkpoint_exits_2(capsys, tmp_path, where):
    # a path inside a missing directory, and a path that is a directory
    code, out, err = run(capsys, "cf-scan", "--lo", "8", "--hi", "300", "--shards", "2",
                         "--checkpoint", str(tmp_path / where))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("record", [
    [8, 100, {"exceptional": 5}],  # type: a map, not a list
    [8, 100, 5],  # type
    [8, 100, ["3"] * 47],  # type
    [8, 100, [True] * 47],  # type
    [8, 100, [0] * 3],  # length
    [8.0, 100, [0] * 47],  # type
    [8, 10**30, []],  # length
    # range: witnesses outside {0} and [2, n // 2], where a witness is searched
    [8, 100, [-1] + [0] * 46],
    [8, 100, [1] + [0] * 46],
    [8, 100, [5] + [0] * 46],
    [8, 100, [0] * 46 + [51]],
    [8, 100, [0.0] * 47],  # type: floats that pass every other check
])
def test_cf_scan_recomputes_a_sealed_record_of_the_wrong_shape(capsys, tmp_path, record):
    # the line's seal is valid, so only the types, the length and the range
    # of its [lo, hi, witnesses] payload can reject it; [8, 100] holds 47 even n
    ck = tmp_path / "scan.ck"
    ck.write_text(sealed_checkpoint_line(record))
    args = ("cf-scan", "--lo", "8", "--hi", "100", "--engine", "e1")
    fresh = run(capsys, *args)
    assert fresh[0] == 0
    summary = json.loads(fresh[1].splitlines()[-1])
    assert (summary["exceptionalCount"], summary["witnessedCount"]) == (15, 32)
    assert run(capsys, *args, "--checkpoint", str(ck)) == fresh


EXCEPTIONAL_SHA256 = "776cc5fa0de736c4e6df863e2a165705881bc498ae471fb4fc2d99807ff8d0d7"


def test_cf_scan_to_ten_million_on_two_workers(capsys):
    code, out, err = run(capsys, "cf-scan", "--lo", "8", "--hi", "10000000", "--engine", "e1",
                         "--shards", "8", "--workers", "2")
    assert (code, err) == (0, "")
    summary = json.loads(out.splitlines()[-1])
    assert summary["exceptionalCount"] == 25
    assert summary["witnessedCount"] == 4999972
    assert summary["sha256"] == EXCEPTIONAL_SHA256


@pytest.mark.skipif(not os.environ.get("ZSLEN_STRETCH"),
                    reason="E1 to 10^8 takes about 12 s on two workers; set ZSLEN_STRETCH=1")
def test_cf_scan_to_one_hundred_million_on_two_workers(capsys):
    code, out, err = run(capsys, "cf-scan", "--lo", "8", "--hi", "100000000", "--engine", "e1",
                         "--shards", "64", "--workers", "2")
    assert (code, err) == (0, "")
    summary = json.loads(out.splitlines()[-1])
    assert summary["exceptionalCount"] == 25
    assert summary["witnessedCount"] == 49999972
    assert summary["sha256"] == EXCEPTIONAL_SHA256


@pytest.mark.parametrize("engine", ["e1", "e2"])
def test_cf_scan_out_of_memory_exits_3(capsys, engine):
    # one witness slot per even n up to 10^15 takes 4 PB, far beyond any machine's memory
    code, out, err = run(capsys, "cf-scan", "--lo", "8", "--hi", str(10**15), "--engine", engine)
    assert (code, out) == (3, "")
    assert err == "budget: out of memory\n"


def test_min_delta_of_a_deep_support(capsys):
    assert run(capsys, "min-delta", "--group", "C1500", "--support", "1,1499") == (0, "1498\n", "")


def test_cf_scan_lines(capsys):
    code, out, _ = run(capsys, "cf-scan", "--lo", "8", "--hi", "40")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert [int(x) for x in lines[:-1]] == [8, 12, 14, 18, 20, 30, 32]
    assert summary["exceptionalCount"] == 7


def _disagreeing_engines(monkeypatch):
    import zslen.cf as cf_module

    monkeypatch.setattr(cf_module, "_scan_inverted", lambda hi: [0] * (hi // 2 + 1))


def test_cf_scan_engine_mismatch_exits_1(capsys, monkeypatch):
    _disagreeing_engines(monkeypatch)
    code, out, err = run(capsys, "cf-scan", "--lo", "8", "--hi", "40")
    assert (code, out) == (1, "")
    assert err.startswith("mismatch: scan engines disagree on [8, 40]")


def test_verify_cf_scan_reports_an_engine_mismatch_as_its_only_check(capsys, monkeypatch):
    # the table and witness checks read the agreed report, so they are not run
    _disagreeing_engines(monkeypatch)
    with pytest.raises(EngineMismatchError) as exc:
        scan_exceptional(8, 3000, engine="both")
    code, out, _ = run(capsys, "verify", "cf-scan")
    assert code == 1
    assert out.splitlines() == [
        f"[FAIL] cf-scan :: engines E1 and E2 agree on [8,3000] (expected agree, computed {exc.value})",
        "0/1 passed, 1 failed, 0 skipped",
    ]


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "delta-rho", "--group", "D4")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "min-delta", "--group", "C10", "--support", "")
    assert code == 2
    code, out, err = run(capsys, "fp", "profile")
    assert (code, out) == (2, "") and "--gens is required" in err
    code, out, err = run(capsys, "fp", "--gens", "x:1", "profile")
    assert (code, out) == (2, "") and err.startswith("error: bad generator")


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "--budget-atoms", "3", "atoms", "--group", "C10",
                       "--support", "1,2,3,4,5")
    assert code == 3
    assert "budget" in err


def test_verify_list_and_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert "cyclic-table" in out.split()
    code, out, _ = run(capsys, "verify", "elem2")
    assert code == 0
    assert "[PASS]" in out and "FAIL" not in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("ZSLEN_BUDGET", "max_atoms=3")
    code, _, err = run(capsys, "atoms", "--group", "C10", "--support", "1,2,3,4,5")
    assert code == 3


def test_verify_budget_skips_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("ZSLEN_BUDGET", "max_nodes=5")
    code, out, _ = run(capsys, "verify", "cyclic-table")
    assert code == 3
    assert "[SKIP]" in out and "FAIL" not in out


def test_verify_all_under_a_budget_reports_every_check(capsys, monkeypatch):
    # a budget stop inside any check is a SKIP of that check alone: every
    # check still prints, and the 272 row of the published table still fails
    # (the three C2xC4 star-set checks pass within 20 atoms: the DFS pruned
    # by automorphisms yields 13; so do the star sets of C2^4 and C3xC3,
    # whose unions are valued from the atom stream, which stops at gcd 1)
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    code, out, _ = run(capsys, "--budget-atoms", "20", "verify", "--all")
    *lines, summary = out.splitlines()
    assert (len(lines), summary) == (65, "57/65 passed, 1 failed, 7 skipped")
    assert {
        "[PASS] elem2 :: star set of C2^4",
        "[PASS] one-dichotomy :: 1 in star set of C3xC3 (by enumeration)",
        "[PASS] one-dichotomy :: dichotomy predicate matches enumeration for C3xC3",
        "[PASS] rank-two-often :: star set of C3xC3 is exactly {1}",
    } <= set(lines)
    fails = [line for line in lines if line.startswith("[FAIL]")]
    assert len(fails) == 1
    assert fails[0].startswith("[FAIL] cf-scan :: exceptional n in [8,3000] match the published table")
    budget = " (budget exceeded: atom count (limit 20))"
    skips = [line for line in lines if line.startswith("[SKIP]")]
    assert all(line.endswith(budget) for line in skips)
    assert [line.removesuffix(budget) for line in skips if " cf-cross :: " in line or " props :: " in line] == [
        "[SKIP] cf-cross :: pair formula equals kernel oracle on 1040 cases (n in [5,60])",
        "[SKIP] cf-cross :: symmetric-quadruple formula equals kernel oracle on 492 cases",
        "[SKIP] props :: min delta divides gcd(|U|-2) on 100 random symmetric supports",
        "[SKIP] props :: star within exact within divisor closure, with equal maxima, on 16 groups",
    ]
    assert code == 1  # a FAIL outranks a SKIP


def test_verify_budget_stops_are_skips_not_aborts(capsys, monkeypatch):
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    code, out, _ = run(capsys, "--budget-atoms", "20", "verify", "cf-cross", "props")
    assert code == 3
    assert "[SKIP] cf-cross :: " in out and "[SKIP] props :: " in out and "[FAIL]" not in out
    assert out.splitlines()[-1] == "4/8 passed, 0 failed, 4 skipped"


@pytest.mark.parametrize("budget", ["5", "12"])
def test_verify_checks_on_one_sample_loop_share_its_outcome(capsys, monkeypatch, budget):
    # containment and elasticity report on one loop: a budget stop in it skips
    # both, and a loop that finishes is not run again for the second check
    # (a rerun draws other samples, which at 12 atoms exceed the budget)
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    code, out, _ = run(capsys, "--budget-atoms", budget, "verify", "props")
    statuses = [line.split()[0] for line in out.splitlines()[:2]]
    assert statuses in (["[PASS]", "[PASS]"], ["[SKIP]", "[SKIP]"])
    assert code == 3


@pytest.mark.parametrize("budget", ["5", "1000000"])
def test_verify_one_dichotomy_computes_each_star_set_once(capsys, monkeypatch, budget):
    # two checks read each group's star set, which is computed once; a
    # budget stop in it skips both checks, and the others of that group pass
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    star_set = verify.delta_rho_star
    calls = []

    def counted(group, **kwargs):
        calls.append(str(group))
        return star_set(group, **kwargs)

    monkeypatch.setattr(verify, "delta_rho_star", counted)
    code, out, _ = run(capsys, "--budget-atoms", budget, "verify", "one-dichotomy")
    assert sorted(calls) == sorted(verify.ONE_IN_STAR + verify.ONE_NOT_MIN)
    statuses = {}
    for line in out.splitlines()[:-1]:
        name = re.search(r"(?:of|for) (C\S+)", line).group(1)
        statuses.setdefault(name, set()).add(line.split()[0])
    assert len(statuses) == len(calls)
    assert all(s in ({"[PASS]"}, {"[SKIP]"}) for s in statuses.values())
    assert code == (3 if budget == "5" else 0)


def test_verify_kernel_brute_under_a_budget_is_a_skip(capsys, monkeypatch):
    # a sampler that redraws past every budget stop reports a PASS on 200
    # supports that all came out empty; a stopped sample leaves its counts out
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    code, out, _ = run(capsys, "--budget-atoms", "1", "verify", "kernel-brute")
    assert out == (
        "[SKIP] kernel-brute :: kernel min delta equals brute-force gcd on 200 sampled supports"
        " (budget exceeded: atom count (limit 1))\n0/1 passed, 0 failed, 1 skipped\n"
    )
    assert code == 3


def test_zero_element_sequences(capsys):
    code, out, _ = run(capsys, "--format", "json", "lengths", "--group", "C6",
                       "--sequence", "0^3")
    assert code == 0
    assert json.loads(out) == {"L": [3], "delta": "empty", "rho": "1"}
    code, out, _ = run(capsys, "atoms", "--group", "C6", "--support", "0,2,4")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["count"] > 0


def test_atoms_json_includes_atom_list(capsys):
    code, out, _ = run(capsys, "--format", "json", "atoms", "--group", "C4",
                       "--support", "1,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3 and payload["davenport"] == 4
    assert set(payload["atoms"]) == {"1 · 3", "1^4", "3^4"}


def test_output_is_reproducible(capsys):
    args = ("verify", "elem2", "locals", "char-separation")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)
    a = run(capsys, "cf-scan", "--lo", "8", "--hi", "500", "--shards", "3")
    b = run(capsys, "cf-scan", "--lo", "8", "--hi", "500")
    assert a == b


@pytest.mark.parametrize("value", ["-5", "0"])
def test_budgets_below_one_are_usage_errors(capsys, monkeypatch, value):
    argv = ("atoms", "--group", "C10", "--support", "1,9")
    code, out, err = run(capsys, "--budget-atoms", value, *argv)
    assert (code, out) == (2, "") and err.startswith("error:")
    for field in ("max_atoms", "max_nodes", "max_states", "max_supports"):
        monkeypatch.setenv("ZSLEN_BUDGET", f"{field}={value}")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and field in err
        with pytest.raises(InputError):
            ResourceConfig(**{field: int(value)})


@pytest.mark.parametrize("options", [["--checkpoint", "P", "--shards", "3"],
                                     ["--checkpoint", "P"], ["--shards", "3"], ["--workers", "2"]])
def test_cf_scan_e2_rejects_e1_only_options(capsys, tmp_path, monkeypatch, options):
    # E2 runs unsharded in one process and writes no checkpoint
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "cf-scan", "--lo", "8", "--hi", "300", "--engine", "e2", *options)
    assert (code, out) == (2, "") and err.startswith("error:")
    assert not (tmp_path / "P").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cf_scan_nonpositive_workers_exit_2(capsys, workers):
    code, out, err = run(capsys, "cf-scan", "--lo", "8", "--hi", "100", "--workers", workers)
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("q,gens", [("2", "1:1,0:2"), ("3", "0:2,0:3")])
def test_uncertifiable_fp_presentation_exits_2_at_once(capsys, q, gens):
    # the generators and (q, 0) span a proper sublattice of Z^2
    start = time.perf_counter()
    code, out, err = run(capsys, "fp", "--q", q, "--gens", gens, "profile")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and err.startswith("error:")
