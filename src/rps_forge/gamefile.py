"""Line-oriented on-disk format for table-backed games.

Layout::

    # construction: imbalanced3 m=3        (optional comment lines)
    rps m=3 objects=R,P,S
    counts=3,0,0 winner=TIE
    counts=2,1,0 winner=P
    ...

One line per full-size choice multiset, and at most one: a second line
for the same multiset is an error.  ``winner`` names an object label or
``TIE``.  Labels are nonempty, not ``TIE``, and hold no whitespace or ``,``.
Monoset lines may be omitted: unspecified monosets default to an all-way
tie.  Lines starting with ``#`` are comments; a ``# construction:``
comment round-trips the builder tag, which must be one line with no
leading or trailing whitespace.
"""

from __future__ import annotations

from math import comb
from pathlib import Path

from .core import (
    GameError, GameRule, TableRule, _shown, all_tie, enumerate_multisets, eval_outcome, win,
)


class GameFileError(GameError):
    """Malformed game file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def dump_game(rule: GameRule) -> str:
    """Serialize the full-size multiset table of a rule.

    Each multiset is scored by ``eval_outcome``; counts are written from a
    table of digit strings and winners from a table of names."""
    for label in rule.labels:
        if label == "TIE" or "," in label or label.split() != [label]:
            raise GameFileError(f"object label {label!r} cannot be written: labels must be "
                                "nonempty, not TIE, and hold no whitespace or ','")
    tag = rule.construction
    if tag and (tag.splitlines() != [tag] or tag.strip() != tag):
        raise GameFileError(f"construction tag {tag!r} cannot be written: it must be one "
                            "line with no leading or trailing whitespace")
    lines = []
    if tag:
        lines.append(f"# construction: {tag}")
    lines.append(f"rps m={rule.m} objects={','.join(rule.labels)}")
    digits = [str(c) for c in range(rule.m + 1)]
    names = dict(enumerate(rule.labels))
    names[None] = "TIE"
    for counts, _ in enumerate_multisets(rule.n, rule.m):
        lines.append(f"counts={','.join([digits[c] for c in counts])} "
                     f"winner={names[eval_outcome(rule, counts).winner]}")
    return "\n".join(lines) + "\n"


def save_game(rule: GameRule, path: str | Path) -> None:
    Path(path).write_text(dump_game(rule))


def parse_game(text: str) -> GameRule:
    """The table-backed rule a game file describes.

    A multiset line of exactly two fields, ``counts=...`` then
    ``winner=...``, is split directly; any other takes the general path,
    a field dict in which a repeated field's last value wins.  Both give
    the same two values, and every check after them is shared.  Errors
    name their line."""
    m = None
    labels: tuple[str, ...] | None = None
    construction = None
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("construction:"):
                construction = body[len("construction:") :].strip()
            continue
        if line.startswith("rps "):
            if labels is not None:
                raise GameFileError("duplicate header", lineno)
            fields = dict(
                part.split("=", 1) for part in line[4:].split() if "=" in part
            )
            if "m" not in fields or "objects" not in fields:
                raise GameFileError("header needs m=<int> objects=<labels>", lineno)
            try:
                m = int(fields["m"])
            except ValueError:
                raise GameFileError(f"bad player count {fields['m']!r}", lineno) from None
            labels = tuple(fields["objects"].split(","))
            if m < 1:
                raise GameFileError(f"bad player count {m}", lineno)
            if len(set(labels)) != len(labels) or any(not x for x in labels):
                raise GameFileError(f"bad object labels {fields['objects']!r}", lineno)
            if "TIE" in labels:
                raise GameFileError("object label 'TIE' is reserved for ties", lineno)
            index = {label: i for i, label in enumerate(labels)}
            continue
        if labels is None:
            raise GameFileError("multiset line before header", lineno)
        if not line.startswith("counts="):
            raise GameFileError(f"unrecognized line {line!r}", lineno)
        parts = line.split()
        if len(parts) == 2 and parts[1].startswith("winner="):
            counts_text, winner_name = parts[0][7:], parts[1][7:]
        else:
            fields = dict(part.split("=", 1) for part in parts if "=" in part)
            if "counts" not in fields or "winner" not in fields:
                raise GameFileError("need counts=<c0,c1,...> winner=<label|TIE>", lineno)
            counts_text, winner_name = fields["counts"], fields["winner"]
        try:
            counts = tuple(map(int, counts_text.split(",")))
        except ValueError:
            raise GameFileError(f"bad counts {counts_text!r}", lineno) from None
        if len(counts) != len(labels):
            raise GameFileError(
                f"{len(counts)} counts for {len(labels)} objects", lineno
            )
        if min(counts) < 0:
            raise GameFileError(f"negative count in {counts}", lineno)
        if (total := sum(counts)) != m:
            raise GameFileError(f"counts sum to {_shown(total)}, expected {m}", lineno)
        if counts in table:
            raise GameFileError(f"duplicate line for multiset {counts}", lineno)
        if winner_name == "TIE":
            table[counts] = all_tie(m)
        else:
            idx = index.get(winner_name)
            if idx is None:
                raise GameFileError(f"unknown winner {winner_name!r}", lineno)
            if counts[idx] < 1:
                raise GameFileError(
                    f"winner {winner_name!r} absent from multiset {counts}", lineno
                )
            table[counts] = win(idx, counts[idx])
    if labels is None or m is None:
        raise GameFileError("missing header")
    n = len(labels)
    for i in range(n):  # unspecified monosets default to TIE
        table.setdefault((0,) * i + (m,) + (0,) * (n - 1 - i), all_tie(m))
    if len(table) < comb(n + m - 1, m):  # every key is a distinct multiset of size m
        missing = next(counts for counts, _ in enumerate_multisets(n, m) if counts not in table)
        raise GameFileError(f"no line for multiset {missing}")
    return GameRule(
        m=m,
        labels=labels,
        winner_fn=TableRule(table),
        construction=construction,
        table_sizes=frozenset({m}),
    )


def load_game(path: str | Path) -> GameRule:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    return parse_game(text)
