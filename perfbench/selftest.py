#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a tiny pass of every workload, untraced and traced, and requires
every output check to pass; feeds the checks tampered outputs (a flipped
verdict, a perturbed equilibrium, a changed table line, unequal formula
routes) and requires each to be caught; checks how a pass time is taken from
repeated passes; checks that BENCHMARK.json matches the metric catalogue; and
runs the command line once per mode, and once in a directory without the
library, where it must fail.
Exits 0 when every test passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

import run

run.use_checkout_library()

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rps_forge import certify, construct, core, equilibrium, gamefile  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def failed_after(ops, outputs) -> int:
    total = 0
    for op, out in zip(ops, outputs):
        total += op.check(out).count(False)
    return total


def tamper_certify_deep(ops, outputs):
    outputs[0] = dataclasses.replace(outputs[0], verdict=certify.Verdict.UNDECIDED)
    return "flipped certificate verdict"


def tamper_search(ops, outputs):
    i = next(i for i, op in enumerate(ops) if "imbalanced3" in op.label)
    results = list(outputs[i])
    j = next(j for j, (p, _) in enumerate(results) if p.symmetric)
    profile, report = results[j]
    v = list(profile.vectors[0])
    v[0], v[1] = v[0] + 1e-3, v[1] - 1e-3
    results[j] = (equilibrium.symmetric_profile(v, profile.m), report)
    outputs[i] = results
    return "perturbed symmetric equilibrium"


def tamper_exact(ops, outputs):
    i = next(i for i, op in enumerate(ops) if op.label.endswith(": dump_game"))
    lines = outputs[i].splitlines()
    header = next(n for n, line in enumerate(lines) if line.startswith("rps "))
    labels = lines[header].split("objects=")[1].split(",")
    for n, line in enumerate(lines):
        if not line.startswith("counts="):
            continue
        counts = [int(c) for c in line.split()[0][len("counts="):].split(",")]
        support = [labels[o] for o, c in enumerate(counts) if c]
        winner = line.split("winner=")[1]
        others = [lab for lab in support if lab != winner]
        if len(support) > 1 and others:
            lines[n] = line.replace(f"winner={winner}", f"winner={others[0]}")
            break
    changed = gamefile.parse_game("\n".join(lines) + "\n")
    outputs[i + 1] = core.uniform_expected_payoffs(changed)
    j = next(j for j, op in enumerate(ops) if op.label.startswith("ev "))
    raw, simplified = outputs[j]
    outputs[j] = (raw + 1, simplified)
    return "changed table line and unequal formula routes"


TAMPER = {
    "certify-deep": tamper_certify_deep,
    "search": tamper_search,
    "exact": tamper_exact,
}


def test_workloads() -> None:
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.make_inputs(name, 7, tiny=True)
        plain = run.run_pass(workload.ops(inputs))
        expect(plain.attempted > 0 and plain.failed == 0,
               f"{name}: tiny pass, failed_ratio {plain.failed}/{plain.attempted} == 0")

        ops, outputs = plain.ops, list(plain.outputs)
        what = TAMPER[name](ops, outputs)
        expect(failed_after(ops, outputs) > 0, f"{name}: {what} is caught")

        recorder = spans.Recorder()
        traced = run.run_pass(workload.ops(inputs, recorder.rule), recorder)
        expect(traced.failed == 0, f"{name}: traced tiny pass passes its checks")
        layers = traced.layers
        certs = workloads.certificates(traced.outputs)
        if name == "certify-deep":
            implied = sum(metrics.enclosures(c) for c in certs)
            expect(layers["intervals.eval_box"].calls == implied,
                   f"{name}: eval_box spans {layers['intervals.eval_box'].calls} == enclosures implied by certificates {implied}")
        values = metrics.per_layer([traced], [plain], certs, workloads.equilibria_found(traced.outputs))
        expect(sorted(values) == sorted(m.name for m in metrics.PER_LAYER), f"{name}: every per-layer metric reported")
        self_total = sum(layer.self_s for layer in layers.values())
        top_total = sum(
            recorder.end[i] - recorder.start[i] for i in range(len(recorder.start)) if recorder.parent[i] < 0
        )
        expect(abs(self_total - top_total) <= 1e-6 * max(1.0, top_total),
               f"{name}: self times add up to the top-level span time")


def test_tracer_sees_bound_copies() -> None:
    def current():
        out = []
        for module, path, _ in spans.TARGETS:
            owner = sys.modules[f"rps_forge.{module}"]
            for part in path.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out

    before = current()
    recorder = spans.Recorder()
    rule = recorder.rule(construct.imbalanced_rps3(3))
    with recorder.installed():
        gamefile.dump_game(rule)  # calls eval_outcome through gamefile's own binding
    layers = recorder.summary()
    expect(layers["core.eval_outcome"].calls == 10 and layers["construct.winner_fn"].calls == 7,
           "tracer counts eval_outcome through gamefile's copy and winner_fn through the rule")
    expect(all(a is b for a, b in zip(before, current())), "tracer restores every patched attribute")


def test_fastest_pass() -> None:
    passes = [
        run.Pass(3.0, 3.0, 2, 0, [], op_wall_s=[1.0, 2.0], op_cpu_s=[1.0, 2.0]),
        run.Pass(3.5, 3.5, 2, 0, [], op_wall_s=[2.0, 1.5], op_cpu_s=[2.0, 1.5]),
    ]
    expect(metrics.fastest_pass(passes, "op_wall_s") == 2.5, "fastest_pass sums each operation's fastest repeat")


def test_spec() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect(spec == metrics.benchmark_spec(workloads.WORKLOADS), "BENCHMARK.json matches the metric catalogue")


def last_json(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def test_command_line() -> None:
    script = str(run.HERE / "run.py")
    for trace, catalogue in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, script, "--workload", "certify-deep", "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, cwd=run.ROOT, timeout=170,
        )
        result = last_json(proc.stdout)
        expect(
            proc.returncode == 0 and result is not None
            and sorted(result) == ["attempted", "correct", "failed", "metrics"]
            and result["correct"] is True and result["failed"] == 0
            and list(result["metrics"]) == [m.name for m in catalogue],
            f"command line --trace {trace}: exit 0 and one result line with every metric",
        )

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )
        expect(proc.returncode != 0 and last_json(proc.stdout) is None,
               "without the library: nonzero exit and no result line")


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    test_spec()
    test_fastest_pass()
    test_tracer_sees_bound_copies()
    test_workloads()
    test_command_line()
    print(f"selftest: {len(FAILURES)} failed" if FAILURES else "selftest: ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
