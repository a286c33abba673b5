"""Command-line interface with reproducible, machine-readable reports.

Every command emits a report envelope: the command name, package
version, a config echo sufficient to rerun it bit-identically, a
timestamp, and the payload.  Payloads are deterministic given the same
config (stochastic commands require an explicit seed).  Exit codes:
0 all checks passed, 1 a check failed or was undecided, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .certify import (
    decimal_string,
    infeasibility_certificate,
    ptype_to_s_ratio_check,
    sweep,
)
from .construct import imbalanced_rps, imbalanced_rps3, iterated_blowup, maximal_rps3, odd_one_out
from .core import GameError, GameRule, uniform_expected_payoffs
from .equilibrium import (
    MixedProfile,
    SearchConfig,
    SolverError,
    nash_gap,
    search_equilibria,
    solve_symmetric_rps3,
    symmetric_profile,
)
from .formulas import (
    COMMITTED_ROLES,
    Role,
    Scenario,
    ScenarioError,
    corner_value,
    ev_raw,
    ev_simplified,
    identity_check,
)
from .gamefile import GameFileError, load_game, save_game
from .imbalance import (
    nash_entropy_imbalance,
    nash_ties_imbalance,
    schur_compare,
    theil_alpha,
    ui_entropy,
    ui_variance,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

FAMILIES = ("imbalanced3", "maximal3", "imbalanced", "blowup", "odd-one-out")


def _p6(x: float) -> str:
    return f"{float(x):.6f}"


def build_family(family: str, m: int, k: int) -> GameRule:
    if family == "imbalanced3":
        return imbalanced_rps3(m)
    if family == "maximal3":
        return maximal_rps3(m)
    if family == "imbalanced":
        return imbalanced_rps(m, k)
    if family == "blowup":
        return iterated_blowup(m, k)
    if family == "odd-one-out":
        return odd_one_out(m)
    raise GameError(f"unknown family {family!r}")


def _envelope(command: str, config: dict, payload: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "payload": payload,
    }


def _render_table(envelope: dict) -> str:
    lines = [f"# {envelope['command']} (v{envelope['version']})"]
    cfg = " ".join(f"{k}={v}" for k, v in sorted(envelope["config"].items()))
    if cfg:
        lines.append(f"# config: {cfg}")
    payload = envelope["payload"]
    records = payload.get("records")
    for key, value in payload.items():
        if key == "records":
            continue
        lines.append(f"{key}: {value}")
    if records:
        cols = list(records[0].keys())
        widths = [
            max(len(str(c)), *(len(str(r.get(c, ""))) for r in records)) for c in cols
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in records:
            lines.append("  ".join(str(r.get(c, "")).ljust(w) for c, w in zip(cols, widths)))
    return "\n".join(lines) + "\n"


def _render_csv(envelope: dict) -> str:
    records = envelope["payload"].get("records") or [
        {k: v for k, v in envelope["payload"].items() if not isinstance(v, (dict, list))}
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()), lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow(r)
    return buf.getvalue()


def _emit(envelope: dict, fmt: str | None, out: str | None) -> int:
    if fmt is None:
        fmt = "table" if sys.stdout.isatty() else "json"
    if fmt == "json":
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = _render_csv(envelope)
    else:
        text = _render_table(envelope)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_rule(args) -> GameRule:
    if getattr(args, "game", None):
        return load_game(args.game)
    if getattr(args, "family", None):
        return build_family(args.family, args.m, args.k)
    raise GameError("need --game PATH or --family NAME with --m")


def cmd_build(args) -> tuple[dict, bool]:
    rule = build_family(args.family, args.m, args.k)
    save_game(rule, args.out_path)
    with open(args.out_path) as fh:
        entries = sum(1 for line in fh if line.startswith("counts="))
    payload = {
        "family": args.family,
        "m": rule.m,
        "k": args.k,
        "objects": list(rule.labels),
        "multisets": entries,
        "path": args.out_path,
    }
    config = {"family": args.family, "m": args.m, "k": args.k, "out": args.out_path}
    return _envelope("build", config, payload), True


def cmd_nash(args) -> tuple[dict, bool]:
    config = {
        "mode": args.mode,
        "game": args.game,
        "family": args.family,
        "m": args.m,
        "k": args.k,
        "seed": args.seed,
        "tol": args.tol,
    }
    if args.mode == "symmetric":
        family = args.family
        rule = _load_rule(args)
        tag = rule.construction or ""
        if family != "imbalanced3" and not tag.startswith("imbalanced3"):
            raise GameError(
                "symmetric mode solves the imbalanced three-object family; "
                "use --family imbalanced3 or a game built from it"
            )
        config["tol"] = 1e-12 if args.tol is None else args.tol  # the solver's default
        eq = solve_symmetric_rps3(rule.m, tol=config["tol"])
        profile = symmetric_profile(eq.as_vector(), rule.m)
        gap = nash_gap(rule, profile).gap
        payload = {
            "m": rule.m,
            "r": _p6(eq.r),
            "p": _p6(eq.p),
            "s": _p6(eq.s),
            "residuals": [f"{x:.3e}" for x in eq.residuals],
            "nash_gap": f"{gap:.3e}",
            "records": [
                {"m": rule.m, "r": _p6(eq.r), "p": _p6(eq.p), "s": _p6(eq.s)}
            ],
        }
        return _envelope("nash", config, payload), True

    if args.seed is None:
        raise GameError("search mode is stochastic: --seed is required")
    rule = _load_rule(args)
    eps = {} if args.tol is None else {"eps": args.tol}
    search = SearchConfig(seed=args.seed, **eps)
    config["tol"] = search.eps
    found = search_equilibria(rule, search)
    records = []
    for idx, (profile, report) in enumerate(found):
        records.append(
            {
                "equilibrium": idx,
                "symmetric": profile.symmetric,
                "gap": f"{report.gap:.3e}",
                "profile": " | ".join(
                    ",".join(_p6(p) for p in v) for v in profile.vectors
                ),
            }
        )
    payload = {
        "objects": list(rule.labels),
        "equilibria_found": len(found),
        "exhaustive": False,
        "records": records,
    }
    return _envelope("nash", config, payload), True


def _imbalance_stats(rule: GameRule, payoffs, alphas, seed) -> dict:
    """Statistics of one game whose uniform expected payoffs are ``payoffs``."""
    stats = {
        "payoffs": [str(x) for x in payoffs],
        "ui_variance": str(ui_variance(payoffs)),
        "ui_variance_float": float(ui_variance(payoffs)),
        "ui_entropy": ui_entropy(payoffs),
    }
    for a in alphas:
        stats[f"theil_{a:g}"] = theil_alpha(payoffs, a)
    equilibria: list[MixedProfile] = []
    note = []
    tag = rule.construction or ""
    if tag.startswith("imbalanced3"):
        eq = solve_symmetric_rps3(rule.m)
        equilibria.append(symmetric_profile(eq.as_vector(), rule.m))
        note.append("symmetric solver")
    if seed is None:
        skipped = "pass --seed for search"
    elif rule.m <= 4 and rule.n <= 5:
        found = search_equilibria(rule, SearchConfig(seed=seed))
        equilibria.extend(p for p, _ in found)
        note.append(f"seeded search ({len(found)} found)")
        skipped = "seeded search found none"
    else:
        skipped = "search is desk-scale only: m <= 4, n <= 5"
    if equilibria:
        stats["nash_entropy"] = nash_entropy_imbalance(equilibria)
        sym_vectors = [p.vectors[0] for p in equilibria if p.symmetric]
        if sym_vectors:
            stats["nash_ties"] = float(nash_ties_imbalance(sym_vectors, rule.m))
        stats["equilibrium_basis"] = "list-relative: " + ", ".join(note)
    else:
        stats["equilibrium_basis"] = f"not computed ({skipped})"
    return stats


def cmd_imbalance(args) -> tuple[dict, bool]:
    config = {
        "games": args.games,
        "alpha": args.alpha,
        "seed": args.seed,
    }
    if len(args.games) > 2:
        raise GameError(f"imbalance takes one game file, or two to compare; got {len(args.games)}")
    rules = [load_game(p) for p in args.games]
    if len(rules) == 1:
        payload = _imbalance_stats(
            rules[0], uniform_expected_payoffs(rules[0]), args.alpha, args.seed
        )
        return _envelope("imbalance", config, payload), True
    g1, g2 = rules
    comparison = schur_compare(g1, g2, alphas=args.alpha)
    payload = {
        "relation": comparison.relation.value,
        "game1": _imbalance_stats(g1, comparison.payoffs[0], args.alpha, args.seed),
        "game2": _imbalance_stats(g2, comparison.payoffs[1], args.alpha, args.seed),
        "records": [
            {
                "statistic": name,
                "game1": v1,
                "game2": v2,
                "consistent_with_majorization": comparison.consistent[name],
            }
            for name, (v1, v2) in comparison.statistics.items()
        ],
    }
    # a reporting command: agreement per statistic is information, not a gate
    return _envelope("imbalance", config, payload), True


def _verify_identities(args) -> tuple[dict, bool]:
    if args.kmax < 1:
        raise GameError(f"--kmax must be >= 1, got {args.kmax}")
    if args.tmax < 0:
        raise GameError(f"--tmax must be >= 0, got {args.tmax}")
    failures = []
    checked = 0
    for k in range(1, args.kmax + 1):
        for t in range(0, args.tmax + 1):
            for b in range(0, k):
                ok1, ok2 = identity_check(k, t, b)
                checked += 1
                if not (ok1 and ok2):
                    failures.append({"k": k, "t": t, "b": b, "first": ok1, "second": ok2})
    payload = {"checked": checked, "failures": len(failures), "records": failures}
    return payload, not failures


def _verify_corners(args) -> tuple[dict, bool]:
    if args.kmax < 2:
        raise GameError(f"--kmax must be >= 2, got {args.kmax}")
    if args.tmax < 0:
        raise GameError(f"--tmax must be >= 0, got {args.tmax}")
    failures = []
    checked = 0
    for k in range(2, args.kmax + 1):
        for t in range(0, args.tmax + 1):
            for l in range(0, k - 1):
                for corner in (0, 1):
                    checked += 1
                    try:
                        value = corner_value(k, t, l, corner)
                        if value >= 0:
                            failures.append(
                                {"k": k, "t": t, "l": l, "s": corner, "value": str(value)}
                            )
                    except ScenarioError as exc:
                        failures.append(
                            {"k": k, "t": t, "l": l, "s": corner, "error": str(exc)}
                        )
    payload = {"checked": checked, "failures": len(failures), "records": failures}
    return payload, not failures


def _verify_formulas(args) -> tuple[dict, bool]:
    import random

    if args.seed is None:
        raise GameError("formula verification is randomized: --seed is required")
    if args.count < 1:
        raise GameError(f"--count must be >= 1, got {args.count}")
    if args.kmax < 1:
        raise GameError(f"--kmax must be >= 1, got {args.kmax}")
    if args.tmax < 0:
        raise GameError(f"--tmax must be >= 0, got {args.tmax}")
    rng = random.Random(args.seed)
    failures = []
    checked = 0
    per_role = args.count
    for role in Role:
        if role in COMMITTED_ROLES and args.tmax < 1:
            continue  # committed roles need at least one committed player
        for _ in range(per_role):
            k = rng.randint(1, args.kmax)
            t = rng.randint(1 if role in COMMITTED_ROLES else 0, args.tmax)
            r = Fraction(rng.randint(0, 1000), 1000)
            s = Fraction(rng.randint(0, 1000), 1000)
            lhs = ev_simplified(role, Scenario(k=k, t=t, r=r, s=s))
            rhs = ev_raw(role, k, t, [r] * k, s)
            checked += 1
            if lhs != rhs:
                failures.append(
                    {"role": role.value, "k": k, "t": t, "r": str(r), "s": str(s)}
                )
    payload = {"checked": checked, "failures": len(failures), "records": failures}
    return payload, not failures


def _verify_infeasibility(args) -> tuple[dict, bool]:
    cert = infeasibility_certificate(
        args.k, args.t, delta=Fraction(args.delta), max_depth=args.depth
    )
    payload = dict(cert.to_record())
    payload["pruned"] = cert.pruned
    payload["undecided"] = cert.undecided_count
    return payload, cert.proved_empty


def _verify_sweep(args) -> tuple[dict, bool]:
    report = sweep(
        args.kmax,
        args.tmax,
        delta=Fraction(args.delta),
        max_depth=args.depth,
        budget_seconds=args.budget,
        jobs=args.jobs,
        stream=args.stream,
    )
    payload = {
        "pairs": len(report.records),
        "all_proved_empty": report.all_proved,
        "incomplete": report.incomplete,
        "skipped": [list(p) for p in report.skipped],
        "delta": decimal_string(report.delta),
        "records": list(report.records),
    }
    return payload, report.all_proved


def _verify_conjecture2(args) -> tuple[dict, bool]:
    rule = imbalanced_rps(args.m, args.k)
    profiles: list[MixedProfile] = []
    basis = []
    if args.k == 1:
        eq = solve_symmetric_rps3(args.m)
        profiles.append(symmetric_profile(eq.as_vector(), args.m))
        basis.append("symmetric solver")
    elif args.m <= 4:
        if args.seed is None:
            raise GameError("search for k > 1 is stochastic: --seed is required")
        found = search_equilibria(rule, SearchConfig(seed=args.seed))
        profiles.extend(p for p, _ in found)
        basis.append(f"seeded search ({len(found)} equilibria)")
    else:
        raise GameError("k > 1 with m > 4 is beyond desk scale; no profile source")
    records = []
    ok = True
    for pi, profile in enumerate(profiles):
        for rep in ptype_to_s_ratio_check(rule, profile):
            row = asdict(rep)
            row["profile"] = pi
            row["bound"] = args.m - 1
            records.append(row)
            if rep.satisfied is False:
                ok = False
    payload = {
        "m": args.m,
        "k": args.k,
        "bound": args.m - 1,
        "profiles_examined": len(profiles),
        "basis": ", ".join(basis),
        "records": records,
    }
    return payload, ok


def cmd_verify(args) -> tuple[dict, bool]:
    handlers = {
        "identities": _verify_identities,
        "corners": _verify_corners,
        "formulas": _verify_formulas,
        "infeasibility": _verify_infeasibility,
        "sweep": _verify_sweep,
        "conjecture2": _verify_conjecture2,
    }
    payload, ok = handlers[args.check](args)
    payload["passed"] = ok
    echoed = (
        "check", "kmax", "tmax", "k", "t", "m", "delta",
        "seed", "jobs", "count", "depth", "budget", "stream",
    )
    config = {key: getattr(args, key) for key in echoed if hasattr(args, key)}
    return _envelope("verify", config, payload), ok


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("RPS_FORGE_JOBS", "1")))
    except ValueError:
        return 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rps-forge",
        description="Construct multiplayer generalized rock-paper-scissors games, "
        "solve their equilibria, measure imbalance, and emit verification "
        "certificates.",
    )
    # report flags are accepted both before and after the subcommand; the
    # per-subcommand copies default to SUPPRESS so they never clobber a
    # value parsed at the top level
    parser.add_argument("--format", choices=("json", "table", "csv"), default=None)
    parser.add_argument("--out", default=None, help="write the report to a file")
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument(
        "--format", choices=("json", "table", "csv"), default=argparse.SUPPRESS
    )
    report_parent = argparse.ArgumentParser(add_help=False, parents=[fmt_parent])
    report_parent.add_argument(
        "--out", default=argparse.SUPPRESS, help="write the report to a file"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # build's own --out names the game file, so it inherits only --format
    b = sub.add_parser("build", help="write a table-backed game file", parents=[fmt_parent])
    b.add_argument("--family", choices=FAMILIES, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--k", type=int, default=1)
    b.add_argument("--out", dest="out_path", required=True, help="game file path")
    b.set_defaults(fn=cmd_build)

    n = sub.add_parser("nash", help="solve or search for equilibria", parents=[report_parent])
    n.add_argument("--game", default=None)
    n.add_argument("--family", choices=FAMILIES, default=None)
    n.add_argument("--m", type=int, default=None)
    n.add_argument("--k", type=int, default=1)
    n.add_argument("--mode", choices=("symmetric", "search"), default="symmetric")
    n.add_argument("--seed", type=int, default=None)
    n.add_argument("--tol", type=float, default=None, help="default 1e-12 symmetric, 1e-9 search")
    n.set_defaults(fn=cmd_nash)

    i = sub.add_parser(
        "imbalance",
        help="imbalance statistics, optionally comparative",
        parents=[report_parent],
    )
    i.add_argument("games", nargs="+", metavar="GAME")
    i.add_argument("--alpha", type=float, nargs="+", default=[0.25, 0.5, 0.75])
    i.add_argument("--seed", type=int, default=None)
    i.set_defaults(fn=cmd_imbalance)

    v = sub.add_parser("verify", help="run verification checks", parents=[report_parent])
    v.add_argument(
        "check",
        choices=("identities", "corners", "formulas", "infeasibility", "sweep", "conjecture2"),
    )
    v.add_argument("--kmax", type=int, default=12)
    v.add_argument("--tmax", type=int, default=12)
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--t", type=int, default=0)
    v.add_argument("--m", type=int, default=3)
    v.add_argument("--delta", type=str, default="1e-6")
    v.add_argument("--depth", type=int, default=40)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--count", type=int, default=200)
    v.add_argument("--budget", type=float, default=600.0)
    v.add_argument("--jobs", type=int, default=_default_jobs())
    v.add_argument(
        "--stream", default=None, metavar="FILE",
        help="sweep: append each record to FILE as a JSON line; an existing FILE resumes",
    )
    v.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "nash" and args.game is None:
        if args.family is None or args.m is None:
            parser.error("nash needs --game PATH or --family NAME with --m")
    try:
        envelope, ok = args.fn(args)
        code = _emit(envelope, args.format, args.out)
    except GameFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if "cannot read" in str(exc) else EXIT_USAGE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)  # includes the residuals
        return EXIT_CHECK_FAILED
    except (GameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if code != EXIT_OK:
        return code
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
