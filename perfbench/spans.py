"""Span recorder for the traced run.

The recorder replaces the library's public functions, as module attributes,
with wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Copies bound by ``from .core import ...``
are replaced too, so a call is seen whichever module makes it.  Spans stay in
flat arrays in memory; ``summary`` derives each layer's call count and self
time (span time minus the time its child spans cover) afterwards.

Winner rules are closures on a ``GameRule``, not module attributes; ``rule``
returns a copy whose ``winner_fn`` is wrapped.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name).  Repeated span names are the copies
# that other modules bound at import.
TARGETS = (
    ("intervals", "Poly2.eval_box", "intervals.eval_box"),
    ("certify", "constraint_system", "certify.constraint_system"),
    ("certify", "infeasibility_certificate", "certify.infeasibility_certificate"),
    ("equilibrium", "search_equilibria", "equilibrium.search_equilibria"),
    ("equilibrium", "choice_count_distribution", "equilibrium.choice_count_distribution"),
    ("certify", "choice_count_distribution", "equilibrium.choice_count_distribution"),
    ("equilibrium", "nash_gap", "equilibrium.nash_gap"),
    ("equilibrium", "solve_symmetric_rps3", "equilibrium.solve_symmetric_rps3"),
    ("equilibrium", "expected_winner_count", "equilibrium.expected_winner_count"),
    ("core", "eval_outcome", "core.eval_outcome"),
    ("construct", "eval_outcome", "core.eval_outcome"),
    ("equilibrium", "eval_outcome", "core.eval_outcome"),
    ("gamefile", "eval_outcome", "core.eval_outcome"),
    ("certify", "eval_outcome", "core.eval_outcome"),
    ("core", "uniform_expected_payoffs", "core.uniform_expected_payoffs"),
    ("imbalance", "uniform_expected_payoffs", "core.uniform_expected_payoffs"),
    ("gamefile", "dump_game", "gamefile.dump_game"),
    ("gamefile", "parse_game", "gamefile.parse_game"),
    ("imbalance", "schur_compare", "imbalance.schur_compare"),
    ("formulas", "ev_raw", "formulas.ev_raw"),
    ("formulas", "ev_simplified", "formulas.ev_simplified"),
    ("formulas", "identity_check", "formulas.identity_check"),
    ("formulas", "corner_value", "formulas.corner_value"),
)


def eval_box_coeff_ops(poly, r, s, *_rest) -> int:
    """Computed, not measured: the multiply-adds of the Taylor shifts plus
    the monomial terms bounded, for one ``Poly2.eval_box`` call."""
    n0, n1 = len(poly.p0), len(poly.p1)
    shift = (n0 * (n0 - 1) + n1 * (n1 - 1)) // 2 if r.lo != 0 else 0
    corners = 1 if (not n1 or s.lo == s.hi) else 2
    return shift + corners * (max(n0, n1) - 1)


# Span name -> (counter, amount from the call's positional arguments and result).
COUNTERS = {
    "intervals.eval_box": ("intervals.eval_box.coeff_ops", lambda args, _: eval_box_coeff_ops(*args)),
    "gamefile.dump_game": ("gamefile.bytes", lambda _, text: len(text.encode())),
    "gamefile.parse_game": ("gamefile.bytes", lambda args, _: len(args[0].encode())),
}


@dataclasses.dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0


class Recorder:
    """The spans of one traced pass, in memory until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._open = [-1]

    def wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, open_ = self.name, self.parent, self.start, self.end, self._open
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def rule(self, rule):
        """A copy of ``rule`` whose winner function records spans."""
        return dataclasses.replace(rule, winner_fn=self.wrap(rule.winner_fn, "construct.winner_fn"))

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, name in TARGETS:
                owner = importlib.import_module(f"rps_forge.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, Layer]:
        """Calls and self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, Layer] = {}
        for i in range(n):
            layer = out.setdefault(self.names[self.name[i]], Layer())
            layer.calls += 1
            layer.self_s += self.end[i] - self.start[i] - child[i]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        ids = self._ids
        if name not in ids or ancestor not in ids:
            return 0
        nid, aid = ids[name], ids[ancestor]
        inside = array("b", bytes(len(self.start)))
        count = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            inside[i] = p >= 0 and (inside[p] or self.name[p] == aid)
            if inside[i] and self.name[i] == nid:
                count += 1
        return count

    def write(self, path) -> None:
        """Spans as gzip TSV: id, parent id (-1 at top level), name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n")
