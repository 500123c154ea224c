"""zslen benchmark: times fixed job lists through zslen's public functions.

    python3 perfbench/run.py --workload star-cyclic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload lengths --seed 1 --seconds 2 --trace 0 --smoke

Run from any directory; zslen is imported from ``src/`` next to this
directory, never from an installed copy.  One process runs one workload,
single-threaded; ``--workload all`` runs each workload in its own process.
Passes over the job list repeat until ``--seconds`` is used up; every answer
is checked after its pass.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and it reports the
per-layer metrics of ``tracing.py``, the tracing overhead, and the traced time
no span covers.  Spans are written to ``.perfbench_out/`` at the end.  The
exit code is 0 only when every job of every pass ran and passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("groups", "sequences", "lengths", "delta_rho", "cf", "fp", "verify")
SETUP_SAMPLES = 9
END_TO_END = {"wall_s": "s", "job_s_p50": "s", "job_s_max": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_zslen() -> dict:
    """zslen's modules by short name (``zslen.delta_rho`` as a package
    attribute is the function, so modules come from ``import_module``)."""
    if not (SRC / "zslen" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zslen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"zslen.{name}") for name in MODULES}
    origin = Path(mods["groups"].__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: zslen was imported from {origin}, not from {SRC}")
    return mods


def child_command(args, workload: str, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--smoke"] if args.smoke else []) + list(extra)


def measure_setup(args, digest: str) -> tuple[list[float], list[str]]:
    """Reference seconds from spawning a fresh interpreter to its job list
    being ready (``--setup-only``), scaled by the probe time the child
    measures right after, on its own core; and any problems seen."""
    samples, problems = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(child_command(args, args.workload, "--setup-only"),
                                stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            probe = proc.stdout.readline().split()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or ready.split() != ["ready", digest] or probe[:1] != ["probe"]:
            problems.append(f"setup child exited {proc.returncode} with {ready.strip()!r}, "
                            f"expected digest {digest}")
            continue
        samples.append(elapsed * clock.REFERENCE_S / float(probe[1]))
    return samples, problems


def run_pass(jobs, mods, ctx, recorder=None):
    """Run every job once; returns the pass interval, job intervals, answers, errors."""
    shutil.rmtree(ctx["tmp"], ignore_errors=True)
    ctx["tmp"].mkdir(parents=True)
    intervals, answers, errors = {}, {}, {}
    begin = time.perf_counter()
    for job_id, kind, spec in jobs:
        if recorder is not None:
            recorder.job = job_id
        start = time.perf_counter()
        try:
            answers[job_id] = workloads.RUNNERS[kind](mods, spec, ctx)
        except Exception:  # noqa: BLE001 - a failed job is counted; the pass goes on
            errors[job_id] = traceback.format_exc(limit=3)
        gc.collect()  # the job's cyclic garbage is its own: not left to the next job
        intervals[job_id] = (start, time.perf_counter())
    return (begin, time.perf_counter()), intervals, answers, errors


def measure(args, jobs, mods, golden, digest) -> dict:
    """Set-up samples, then untraced (and, with tracing, alternating traced)
    passes until the time is used; all times in reference seconds."""
    ctx = {"tmp": ROOT / ".perfbench_tmp" / str(os.getpid())}
    untraced, traced_passes = [], []
    attempted = 0
    failures: dict[str, str] = {}
    setup, setup_problems = measure_setup(args, digest)
    with clock.SpeedClock() as speed:
        begin = time.perf_counter()
        try:
            while True:
                recorder = tracing.Recorder() if args.trace and len(untraced) > len(traced_passes) else None
                if recorder is None:
                    wall, intervals, answers, errors = run_pass(jobs, mods, ctx)
                    untraced.append((wall, intervals))
                else:
                    with tracing.traced(mods, recorder):
                        wall, intervals, answers, errors = run_pass(jobs, mods, ctx, recorder)
                    traced_passes.append((wall, recorder.spans))
                problems = workloads.check_answers(jobs, answers, golden, mods)
                attempted += len(jobs)
                for job_id, _, _ in jobs:
                    bad = errors.get(job_id) or "; ".join(problems.get(job_id, []))
                    if bad:
                        failures[f"{job_id} (pass {len(untraced) + len(traced_passes)})"] = bad
                del answers
                used = time.perf_counter() - begin
                enough = untraced and (traced_passes or not args.trace)
                if enough and used + wall[1] - wall[0] > args.seconds:
                    break
        finally:
            shutil.rmtree(ctx["tmp"], ignore_errors=True)
            try:
                ctx["tmp"].parent.rmdir()
            except OSError:
                pass  # another run is using it
    seconds = speed.seconds
    return {
        "setup": setup,
        "setup_problems": setup_problems,
        "untraced": [(seconds(*wall), {j: seconds(*i) for j, i in intervals.items()})
                     for wall, intervals in untraced],
        "traced": [(seconds(*wall), wall, spans) for wall, spans in traced_passes],
        "raw_wall": statistics.median(b - a for (a, b), _ in untraced),
        "probe_s": statistics.median(e - s for s, e in zip(speed.starts, speed.ends)),
        "seconds": seconds,
        "attempted": attempted,
        "failures": failures,
    }


def end_to_end_metrics(result) -> tuple[dict, int]:
    walls = [wall for wall, _ in result["untraced"]]
    per_job = {job_id: statistics.median(times[job_id] for _, times in result["untraced"])
               for job_id in result["untraced"][0][1]}
    values = {
        "wall_s": statistics.median(walls),
        "job_s_p50": statistics.median(per_job.values()),
        "job_s_max": max(per_job.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(result["setup"] or [0.0]),
    }
    samples = len(per_job) * len(walls)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, samples


def per_layer_metrics(result, spans_path: Path) -> dict:
    per_pass = [tracing.layer_metrics(spans, result["seconds"]) for _, _, spans in result["traced"]]
    values = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    values["trace.wall_s"] = statistics.median(wall for wall, _, _ in result["traced"])
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(w for w, _ in result["untraced"])
    # the uncovered share is taken from unscaled times, so it cannot go negative
    values["trace.uncovered_s"] = statistics.median(
        wall * (1 - tracing.covered_seconds(spans) / (b - a)) for wall, (a, b), spans in result["traced"])
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps([
        {"pass": i, "name": name, "start": start, "end": end, "parent": parent, "job": job,
         "counters": counters}
        for i, (_, _, spans) in enumerate(result["traced"])
        for name, start, end, parent, job, counters in spans]))
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in tracing.PER_LAYER.items()}


def run_one(args) -> int:
    mods = import_zslen()
    golden = workloads.load_golden()
    jobs = workloads.build_jobs(args.workload, args.seed, args.smoke, golden)
    digest = workloads.job_digest(jobs)
    if args.setup_only:
        print("ready", digest, flush=True)
        print("probe", clock.probe_seconds())
        return 0
    gc.collect()
    gc.freeze()  # collections in the timed jobs scan only what the jobs allocate
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, digest {digest}", flush=True)
    result = measure(args, jobs, mods, golden, digest)
    failed = len(result["failures"])
    for where, why in sorted(result["failures"].items()):
        print(f"FAILED {where}: {why.strip()}", file=sys.stderr)
    setup_problems = result["setup_problems"]
    for problem in setup_problems:
        print(f"FAILED setup: {problem}", file=sys.stderr)
    if args.trace:
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        metrics = per_layer_metrics(result, spans_path)
        print(f"passes: {len(result['untraced'])} untraced, {len(result['traced'])} traced; "
              f"spans in {spans_path.relative_to(ROOT)}")
    else:
        metrics, samples = end_to_end_metrics(result)
        print(f"passes: {len(result['untraced'])}; job times over {samples} samples; "
              f"untraced wall {result['raw_wall']:.6g} s unscaled, probe {result['probe_s'] * 1e3:.4g} ms")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac {failed / result['attempted']:.6g} ({failed}/{result['attempted']})")
    correct = failed == 0 and not setup_problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(child_command(args, workload), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {workload} exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job lists, for checking the harness")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
