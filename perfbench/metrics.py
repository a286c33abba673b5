"""Metric catalogue, the per-layer to end-to-end prediction map, and the
derivation of per-layer metrics from a traced run.

End-to-end metrics come from untraced passes only.  Per-layer metrics come
from the spans of traced passes, from the certificates the library returned,
and from resource usage seen from outside.  A per-layer ``about`` says which
end-to-end metric a layer metric should move, and on which workload; a change
that claims a gain on a layer cites these names.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

RUN_SECONDS = 40


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    about: str = ""  # what an end-to-end metric measures; for a per-layer one, what it should move


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25,
           "wall time of one pass, tracing off, summed over its operations from each one's fastest repeat in the run"),
    Metric("cpu_s", "s", "lower", 0.25,
           "user+system CPU of one pass, summed like wall_s"),
    Metric("setup_s", "s", "lower", 0.25,
           "median time from interpreter start to inputs ready (import rps_forge plus seeded input generation), over fresh interpreters"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "peak resident memory of the benchmark process"),
)

# Reported by name in every run's report, but not in BENCHMARK.json, whose
# end-to-end metrics must never read 0 and must apply to every workload.
# failed_ratio travels as the result line's "failed"/"attempted";
# equilibria_found is a per-layer count.
REPORTED_ONLY = (Metric("failed_ratio", "ratio", "lower"),)

_KERNEL = "wall_s and cpu_s on certify-deep (dominant); no change on search or exact"
_CERT_SEARCH = "wall_s on certify-deep; read beside wall time so a smarter box search is not taken for a faster kernel"
_CERT_LOOP = "wall_s on certify-deep, where it is small beside the kernel"
_SEARCH = "wall_s and equilibria_found on search; near zero on exact"
_EXACT = "wall_s on exact"
_ENUM = "wall_s on exact; small on search (one payoff cache per game); absent on certify-deep"

CONSTRAINTS = (
    "mixer_indifferent_R_P",
    "candidate_indifferent_S_P",
    "mixer_prefers_P_over_S",
    "committed_prefers_P_over_R",
    "committed_prefers_P_over_S",
)

PER_LAYER = (
    Metric("intervals.eval_box.calls", "count", "lower", about=_KERNEL),
    Metric("intervals.eval_box.self_s", "s", "lower", about=_KERNEL),
    Metric("intervals.eval_box.us_per_call", "us", "lower", about=_KERNEL),
    Metric("intervals.eval_box.coeff_ops", "count", "lower",
           about=_KERNEL + "; computed from each call's r-degree, not measured"),
    Metric("certify.boxes", "count", "lower", about=_CERT_SEARCH),
    Metric("certify.depth_max", "count", "lower", about=_CERT_SEARCH),
    *(Metric(f"certify.pruned.{c}", "count", "lower", about=_CERT_SEARCH) for c in CONSTRAINTS),
    Metric("certify.enclosures_per_box", "ratio", "lower", about=_CERT_SEARCH),
    Metric("certify.prune_yield", "ratio", "higher", about=_CERT_SEARCH),
    Metric("certify.constraint_system.calls", "count", "lower", about=_CERT_LOOP),
    Metric("certify.constraint_system.self_s", "s", "lower", about=_CERT_LOOP),
    Metric("certify.infeasibility_certificate.self_s", "s", "lower", about=_CERT_LOOP),
    Metric("equilibrium.search_equilibria.self_s", "s", "lower", about=_SEARCH),
    Metric("equilibrium.choice_count_distribution.calls", "count", "lower", about=_SEARCH),
    Metric("equilibrium.choice_count_distribution.self_s", "s", "lower", about=_SEARCH),
    Metric("equilibrium.nash_gap.calls", "count", "lower", about=_SEARCH),
    Metric("equilibrium.nash_gap.self_s", "s", "lower", about=_SEARCH),
    Metric("equilibrium.search.verify_yield", "ratio", "higher", about=_SEARCH),
    Metric("equilibria_found", "count", "higher",
           about="search only; repeats exactly for a seed, so a faster search that finds less shows"),
    Metric("equilibrium.solve_symmetric_rps3.self_s", "s", "lower", about=_EXACT),
    Metric("equilibrium.expected_winner_count.self_s", "s", "lower", about=_EXACT),
    Metric("core.eval_outcome.calls", "count", "lower", about=_ENUM),
    Metric("core.eval_outcome.self_s", "s", "lower", about=_ENUM),
    Metric("core.uniform_expected_payoffs.calls", "count", "lower", about=_ENUM),
    Metric("core.uniform_expected_payoffs.self_s", "s", "lower", about=_ENUM),
    Metric("construct.winner_fn.calls", "count", "lower", about=_ENUM),
    Metric("construct.winner_fn.self_s", "s", "lower", about=_ENUM),
    Metric("gamefile.dump_game.self_s", "s", "lower", about="wall_s and peak_rss_mb on exact"),
    Metric("gamefile.parse_game.self_s", "s", "lower", about="wall_s and peak_rss_mb on exact"),
    Metric("gamefile.bytes", "B", "lower", about="wall_s and peak_rss_mb on exact"),
    Metric("imbalance.schur_compare.self_s", "s", "lower", about=_EXACT),
    Metric("formulas.ev_raw.calls", "count", "lower", about=_EXACT),
    Metric("formulas.ev_raw.self_s", "s", "lower", about=_EXACT),
    Metric("formulas.ev_simplified.self_s", "s", "lower", about=_EXACT),
    Metric("formulas.identity_check.self_s", "s", "lower", about=_EXACT),
    Metric("formulas.corner_value.self_s", "s", "lower", about=_EXACT),
    Metric("trace.overhead_s", "s", "lower",
           about="traced minus untraced pass time, both taken like wall_s, per workload; moves with the number of spans"),
)

UNITS = {m.name: m.unit for m in END_TO_END + REPORTED_ONLY + PER_LAYER}


def benchmark_spec(workloads) -> dict:
    """The content of BENCHMARK.json, from this catalogue and the workloads."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def enclosures(cert) -> int:
    """``Poly2.eval_box`` calls a certificate implies: constraints are tried
    in order until one prunes, and a box no constraint prunes tried them all.
    (A stop at the box budget counts one box it never tried.)"""
    order = list(cert.pruned)
    pruned = sum(cert.pruned.values())
    return sum(n * (order.index(c) + 1) for c, n in cert.pruned.items()) + (cert.boxes - pruned) * len(order)


def fastest_pass(passes: list, field: str) -> float:
    """One pass's time with every operation at its fastest repeat; ``field``
    names the per-operation times of a pass.

    On a shared host every instruction can run up to twice as slow for
    seconds at a time, in CPU time as well as wall time.  The fastest of an
    operation's repeats over a run is its cost when its CPU was least
    disturbed, so a slow stretch shorter than the run moves this sum little
    while it moves the median pass time a lot.  A host that is slow for the
    whole run still shows."""
    per_op = zip(*(getattr(p, field) for p in passes))
    return sum(min(times) for times in per_op)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(traced: list, untraced: list, certs: list, found: int) -> dict[str, float]:
    """Per-layer metrics of one run from its traced and untraced passes and
    the certificates of one pass.  Span counts repeat exactly from pass to
    pass, so they come from the first traced pass; times are medians."""
    first, recorder = traced[0].layers, traced[0].recorder

    def calls(name):
        return first[name].calls if name in first else 0

    def self_s(name):
        return _median([p.layers[name].self_s for p in traced if name in p.layers])

    out: dict[str, float] = {}
    eval_calls = calls("intervals.eval_box")
    out["intervals.eval_box.calls"] = eval_calls
    out["intervals.eval_box.self_s"] = self_s("intervals.eval_box")
    out["intervals.eval_box.us_per_call"] = out["intervals.eval_box.self_s"] / eval_calls * 1e6 if eval_calls else 0.0
    out["intervals.eval_box.coeff_ops"] = recorder.counters["intervals.eval_box.coeff_ops"]

    boxes = sum(c.boxes for c in certs)
    implied = sum(enclosures(c) for c in certs)
    out["certify.boxes"] = boxes
    out["certify.depth_max"] = max((c.deepest for c in certs), default=0)
    for c in CONSTRAINTS:
        out[f"certify.pruned.{c}"] = sum(cert.pruned.get(c, 0) for cert in certs)
    out["certify.enclosures_per_box"] = implied / boxes if boxes else 0.0
    out["certify.prune_yield"] = sum(sum(c.pruned.values()) for c in certs) / implied if implied else 0.0
    out["certify.constraint_system.calls"] = calls("certify.constraint_system")
    out["certify.constraint_system.self_s"] = self_s("certify.constraint_system")
    out["certify.infeasibility_certificate.self_s"] = self_s("certify.infeasibility_certificate")


    in_search = recorder.calls_under("equilibrium.nash_gap", "equilibrium.search_equilibria")
    out["equilibrium.search_equilibria.self_s"] = self_s("equilibrium.search_equilibria")
    out["equilibrium.choice_count_distribution.calls"] = calls("equilibrium.choice_count_distribution")
    out["equilibrium.choice_count_distribution.self_s"] = self_s("equilibrium.choice_count_distribution")
    out["equilibrium.nash_gap.calls"] = calls("equilibrium.nash_gap")
    out["equilibrium.nash_gap.self_s"] = self_s("equilibrium.nash_gap")
    out["equilibrium.search.verify_yield"] = found / in_search if in_search else 0.0
    out["equilibria_found"] = found
    out["equilibrium.solve_symmetric_rps3.self_s"] = self_s("equilibrium.solve_symmetric_rps3")
    out["equilibrium.expected_winner_count.self_s"] = self_s("equilibrium.expected_winner_count")

    for name in ("core.eval_outcome", "core.uniform_expected_payoffs", "construct.winner_fn"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["gamefile.dump_game.self_s"] = self_s("gamefile.dump_game")
    out["gamefile.parse_game.self_s"] = self_s("gamefile.parse_game")
    out["gamefile.bytes"] = recorder.counters["gamefile.bytes"]
    out["imbalance.schur_compare.self_s"] = self_s("imbalance.schur_compare")
    out["formulas.ev_raw.calls"] = calls("formulas.ev_raw")
    for name in ("ev_raw", "ev_simplified", "identity_check", "corner_value"):
        out[f"formulas.{name}.self_s"] = self_s(f"formulas.{name}")
    out["trace.overhead_s"] = fastest_pass(traced, "op_wall_s") - fastest_pass(untraced, "op_wall_s")
    return out
