#!/usr/bin/env python3
"""Benchmark of rps-forge.

Run from the root of a checkout, which must hold the library in ``src/``:

    python3 perfbench/run.py --workload certify-deep --seed 1 --seconds 40 --trace 0

The run builds nothing; it imports ``rps_forge`` from ``src/`` of the same
checkout and refuses to run without it.  It repeats passes of the workload's
seeded operations until ``--seconds`` is used up, timing each operation and
checking each pass's outputs, and times ``setup_s`` in fresh interpreters
between passes.  With ``--trace 0`` the last line reports the end-to-end
metrics, a pass's time being the sum of its operations' fastest repeats (see
``metrics.fastest_pass``); with ``--trace 1`` the first
half of the time runs untraced passes and the second half traced ones, and
the last line reports the per-layer metrics.  Lines above it name every
metric with its unit, plus the run's metadata and certificates.  A record of
the run, and the spans of the first traced pass, go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import metrics
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 11  # at least
SETUP_PROBES_FIRST = 3  # before the first pass; the rest after passes


class LibraryMissing(RuntimeError):
    pass


def use_checkout_library() -> None:
    """Import rps_forge from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "rps_forge" / "__init__.py").is_file():
        raise LibraryMissing(f"no rps_forge package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import rps_forge

    if Path(rps_forge.__file__).resolve().parent != (src / "rps_forge").resolve():
        raise LibraryMissing(f"rps_forge imported from {rps_forge.__file__}, not from {src}")


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# Interpreter start, import rps_forge, seeded input generation: what a user's
# process pays before its first operation, and nothing of the harness.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.make_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1'); print('ready', flush=True)"
)


def setup_probe_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Interpreter start to inputs ready, in a fresh interpreter."""
    command = [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(HERE), workload, str(seed), str(int(tiny))]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    failing: list[str]
    op_wall_s: list[float]  # per operation, in operation order
    op_cpu_s: list[float]
    ops: list | None = None  # kept for the first pass of a phase only
    outputs: list | None = None
    layers: dict | None = None  # span summary of a traced pass
    recorder: spans.Recorder | None = None  # kept for the first traced pass only


def run_pass(ops, recorder=None) -> Pass:
    """Run every operation once, timing each, then check the outputs untimed.
    An operation or check that raises counts as failed."""
    outputs, op_wall, op_cpu = [], [], []
    start, start_cpu = time.perf_counter(), time.process_time()
    with recorder.installed() if recorder is not None else nullcontext():
        for op in ops:
            before, before_cpu = time.perf_counter(), time.process_time()
            try:
                outputs.append(op.call())
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                outputs.append(exc)
            op_wall.append(time.perf_counter() - before)
            op_cpu.append(time.process_time() - before_cpu)
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu

    attempted = failed = 0
    failing = []
    for op, out in zip(ops, outputs):
        verdicts = [False]
        if not isinstance(out, Exception):
            try:
                verdicts = op.check(out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        attempted += max(1, len(verdicts))
        if verdicts.count(False):
            failed += verdicts.count(False)
            failing.append(op.label)
    result = Pass(wall, cpu, attempted, failed, failing, op_wall, op_cpu, ops, outputs)
    if recorder is not None:
        result.layers, result.recorder = recorder.summary(), recorder
    return result


def cpus() -> list[int]:
    """The CPUs this process may run on; empty where that cannot be set."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def run_phase(ops_for, deadline: float, traced: bool, between=None) -> list[Pass]:
    """Passes until the next one would end after ``deadline``; at least one.
    ``between`` runs after each pass and counts toward the time.

    Pass i runs on the i-th allowed CPU in turn.  On a shared host one CPU can
    run half again as slow as another for seconds or longer, while the
    scheduler tends to keep a process on the CPU it started on; turning
    through them lets ``metrics.fastest_pass`` find each operation's time on
    the faster one."""
    allowed = cpus()
    passes = []
    try:
        while True:
            if len(allowed) > 1:
                os.sched_setaffinity(0, {allowed[len(passes) % len(allowed)]})
            started = time.perf_counter()
            recorder = spans.Recorder() if traced else None
            result = run_pass(ops_for(recorder.rule if recorder is not None else lambda rule: rule), recorder)
            if passes:
                result.ops = result.outputs = result.recorder = None
            passes.append(result)
            if between is not None:
                between()
            typical = statistics.median(p.wall_s for p in passes) + (time.perf_counter() - started - result.wall_s)
            if time.perf_counter() + typical > deadline:
                return passes
    finally:
        if len(allowed) > 1:
            os.sched_setaffinity(0, allowed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    args = parser.parse_args(argv)

    try:
        use_checkout_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    # Setup probes are spread over the untraced passes, one after each, so
    # that their median does not hang on the host's speed at one moment.
    setup = [setup_probe_seconds(args.workload, args.seed, args.tiny) for _ in range(SETUP_PROBES_FIRST)]

    def probe():
        setup.append(setup_probe_seconds(args.workload, args.seed, args.tiny))

    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    workload = workloads.WORKLOADS[args.workload]

    def ops_for(rule_hook):
        return workload.ops(inputs, rule_hook)

    start = time.perf_counter()
    plain = run_phase(ops_for, start + args.seconds * (0.5 if args.trace else 1.0), traced=False, between=probe)
    while len(setup) < SETUP_PROBES:
        probe()
    traced = run_phase(ops_for, start + args.seconds, traced=True) if args.trace else []
    attempted = sum(p.attempted for p in plain + traced)
    failed = sum(p.failed for p in plain + traced)
    failing = sorted({label for p in plain + traced for label in p.failing})

    first = plain[0]
    certs = workloads.certificates(first.outputs)
    found = workloads.equilibria_found(first.outputs)
    if args.trace:
        values = metrics.per_layer(traced, plain, certs, found)
        names = [m.name for m in metrics.PER_LAYER]
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": metrics.fastest_pass(plain, "op_wall_s"),
            "cpu_s": metrics.fastest_pass(plain, "op_cpu_s"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        names = [m.name for m in metrics.END_TO_END]

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "pass_wall_s": [p.wall_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "setup_probe_s": setup,
    }
    cert_rows = [
        {"k": c.k, "t": c.t, "verdict": c.verdict.value, "boxes": c.boxes, "depth": c.deepest} for c in certs
    ]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]} for n in names},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "certificates": cert_rows, "failing_operations": failing, **result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        traced[0].recorder.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv.gz")

    print(" ".join(f"{k}={v}" for k, v in meta.items() if not isinstance(v, list)))
    for row in cert_rows:
        print("certificate " + " ".join(f"{k}={v}" for k, v in row.items()))
    for label in failing:
        print(f"FAILED {label}")
    if args.workload == "search" and not args.trace:
        print(f"equilibria_found {found} count")
    print(f"failed_ratio {failed / attempted} {metrics.UNITS['failed_ratio']} ({failed}/{attempted})")
    for n in names:
        print(f"{n} {values[n]!r} {metrics.UNITS[n]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
