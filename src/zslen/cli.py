"""Command-line surface.

Exit codes: 0 all checks pass / computation done, 1 verification failure,
2 usage error, 3 budget exhaustion without failures, 130 interrupted by
Ctrl-C (128 + SIGINT; nothing is printed to stdout), 141 stdout closed by
its reader (128 + SIGPIPE; the rest of the output is dropped).  Output field
order is fixed and sets are emitted ascending, so runs are byte-reproducible;
empty distance sets print as the sentinel "empty", never as a bare null.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cf import scan_exceptional
from .config import default_config
from .delta_rho import delta_rho
from .errors import BudgetExceededError, EngineMismatchError, InputError
from .fp import FPMonoid, local_profile, transfer_obstruction
from .groups import parse_group
from .lengths import length_set, min_delta
from .sequences import enumerate_atoms, parse_sequence, parse_support
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPT = 130
EXIT_PIPE = 141


def _set_or_empty(values) -> list[int] | str:
    vals = sorted(values)
    return vals if vals else "empty"


def _emit(args, payload: dict, lines: list[str] | None = None):
    if args.format == "json":
        print(json.dumps(payload))
        return
    if args.format == "tsv":
        for line in lines or []:
            print(line)
        for key, value in payload.items():
            if isinstance(value, list):
                value = ",".join(map(str, value))
            print(f"{key}\t{value}")
        return
    for line in lines or []:
        print(line)
    print(json.dumps(payload))


def _config_from(args):
    return default_config().with_overrides(max_atoms=args.budget_atoms)


def cmd_atoms(args) -> int:
    group = parse_group(args.group)
    support = parse_support(group, args.support)
    atoms = enumerate_atoms(support, config=_config_from(args))
    if args.format == "json":
        payload = {
            "atoms": [str(a) for a in atoms],
            "count": len(atoms),
            "davenport": atoms.davenport,
        }
        _emit(args, payload)
        return EXIT_OK
    if args.format == "tsv":
        lines = [f"{a.length}\t{a}" for a in atoms]
    else:
        lines = [str(a) for a in atoms]
    _emit(args, {"count": len(atoms), "davenport": atoms.davenport}, lines)
    return EXIT_OK


def cmd_lengths(args) -> int:
    group = parse_group(args.group)
    seq = parse_sequence(group, args.sequence)
    atoms = enumerate_atoms(seq.support, config=_config_from(args))
    lengths = length_set(seq, atoms, config=_config_from(args))
    payload = {
        "L": list(lengths.values),
        "delta": _set_or_empty(lengths.delta()),
        "rho": str(lengths.rho()),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_min_delta(args) -> int:
    group = parse_group(args.group)
    support = parse_support(group, args.support)
    value = min_delta(support, config=_config_from(args))
    if args.format == "json":
        print(json.dumps({"minDelta": value if value is not None else "empty"}))
    else:
        print(value if value is not None else "empty")
    return EXIT_OK


def cmd_delta_rho(args) -> int:
    group = parse_group(args.group)
    result = delta_rho(group, config=_config_from(args))
    payload = {
        "star": _set_or_empty(result.star),
        "exact": _set_or_empty(result.exact) if result.exact is not None else None,
        "provenance": result.provenance,
        "upper": _set_or_empty(result.upper),
    }
    if result.conjectured is not None:
        payload["conjectured"] = sorted(result.conjectured)
    _emit(args, payload)
    return EXIT_OK


def cmd_cf_scan(args) -> int:
    report = scan_exceptional(
        args.lo, args.hi, engine=args.engine, shards=args.shards,
        workers=args.workers, checkpoint=args.checkpoint,
    )
    lines = [str(n) for n in report.exceptional]
    payload = {
        "lo": report.lo,
        "hi": report.hi,
        "engine": report.engine,
        "exceptionalCount": len(report.exceptional),
        "witnessedCount": len(report.witnesses),
        "sha256": report.digest(),
    }
    if args.format == "json":
        payload["exceptional"] = list(report.exceptional)
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
        print(json.dumps(payload))
    return EXIT_OK


def _parse_gens(text: str) -> list[tuple[int, int]]:
    gens = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            cls_text, _, val_text = token.partition(":")
        else:
            cls_text, val_text = "0", token
        try:
            gens.append((int(cls_text), int(val_text)))
        except ValueError:
            raise InputError(f"bad generator {token!r}: expected class:value") from None
    return gens


def cmd_fp(args) -> int:
    if args.fp_cmd == "profile":
        if args.gens is None:
            raise InputError("--gens is required for fp profile")
        monoid = FPMonoid.of(args.q, _parse_gens(args.gens))
        profile = local_profile(monoid, config=_config_from(args))
        payload = {
            "rho": str(profile.rho),
            "d": profile.d,
            "minDelta": profile.min_delta if profile.min_delta is not None else "empty",
            "accepted": profile.accepted,
        }
        _emit(args, payload)
        return EXIT_OK
    try:  # obstruction, the other subcommand
        d_list = [int(t) for t in args.d.split(",") if t.strip()]
    except ValueError:
        raise InputError(f"bad integer list {args.d!r}") from None
    report = transfer_obstruction(d_list)
    payload = {
        "d": list(report.d_list),
        "gcd": report.overall_gcd,
        "messages": report.messages(),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.list:
        for name in SUITES:
            print(name)
        return EXIT_OK
    names = list(SUITES) if args.all or not args.suites else args.suites
    cfg = _config_from(args)
    suites = run_suites(names, cfg)
    for suite in suites:
        for check in suite.checks:
            line = f"{suite.name} :: {check.description}"
            if check.skipped:
                print(f"[SKIP] {line} ({check.reason})")
            elif check.passed:
                print(f"[PASS] {line}")
            else:
                print(f"[FAIL] {line} (expected {check.expected}, computed {check.computed})")
    failed, skipped = sum(s.failed for s in suites), sum(s.skipped for s in suites)
    total = sum(len(s.checks) for s in suites)
    print(f"{total - failed - skipped}/{total} passed, {failed} failed, {skipped} skipped")
    return EXIT_FAIL if failed else EXIT_BUDGET if skipped else EXIT_OK  # a FAIL outranks a SKIP


def _add_common(parser: argparse.ArgumentParser, *, suppress: bool):
    # the same options live on the main parser and on every subparser so
    # they may be given on either side of the subcommand; subparser copies
    # suppress their defaults so they never clobber main-level values
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=("text", "json", "tsv"),
                        default=default("text"))
    parser.add_argument("--budget-atoms", type=int, default=default(None),
                        help="cap on enumerated atoms per support")


class _Parser(argparse.ArgumentParser):
    # no option starts with "-<digit>": -2,3,6 or -1:3,0:5 is a value, not an option
    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zslen",
        description="Factorization-length invariants of zero-sum monoids",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atoms", help="enumerate atoms over a support")
    p.add_argument("--group", required=True)
    p.add_argument("--support", required=True)
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("lengths", help="length set of a zero-sum sequence")
    p.add_argument("--group", required=True)
    p.add_argument("--sequence", required=True)
    p.set_defaults(func=cmd_lengths)

    p = sub.add_parser("min-delta", help="minimum distance of a support")
    p.add_argument("--group", required=True)
    p.add_argument("--support", required=True)
    p.set_defaults(func=cmd_min_delta)

    p = sub.add_parser("delta-rho", help="distance set at maximal elasticity")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_delta_rho)

    p = sub.add_parser("cf-scan", help="scan even orders with no extra distance value")
    p.add_argument("--lo", type=int, default=8)
    p.add_argument("--hi", type=int, default=100_000)
    p.add_argument("--engine", choices=("e1", "e2", "both"), default="both")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the E1 shards")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_cf_scan)

    p = sub.add_parser("fp", help="rank-one primary monoid invariants")
    p.add_argument("--q", type=int, default=1, help="unit-class modulus")
    p.add_argument("--gens", default=None, help="generators as class:value,...")
    fp_sub = p.add_subparsers(dest="fp_cmd", required=True)
    fp_sub.add_parser("profile", help="elasticity, gap gcd, min distance")
    ob = fp_sub.add_parser("obstruction", help="what local distances rule out")
    ob.add_argument("--d", required=True, help="local min distances, comma separated")
    p.set_defaults(func=cmd_fp)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*", help="suite names (default: all)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_verify)

    for sp in sub.choices.values():
        _add_common(sp, suppress=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except EngineMismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except BrokenPipeError:  # so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
