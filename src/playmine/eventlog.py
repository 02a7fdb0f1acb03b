"""Event log construction, the canonical transition-label codec and I/O.

A transition label packs one decision as
``((last_id,last_move),(piece_id,move),reward)``, written with bare direction
words and no whitespace, e.g. ``((-1,()),(2,(left,down)),0)``; the parsers
also allow whitespace between tokens and refuse anything else.  Episode
tables use the six Table-style columns with Python-literal cells; event
logs ship as a two-column CSV (task_id, transition) or as XES.

The XES writer emits one fixed shape as text: a ``<log>`` of ``<trace>``
elements, each holding its case id and then one ``<event>`` per label, every
value in a ``<string key="concept:name" ... />``.  A label holding a
character XML 1.0 cannot carry is a ValueError naming the file and the
label, raised before the file is opened.  The reader parses with
ElementTree and accepts any XES whose traces and events carry one
``concept:name`` string each, with or without the XES namespace.  A
malformed log of either format (bad XML, a wrong CSV header or row width, a
case id that is not an integer, a trace or event with no name or with more
than one, a name without a value, a duplicate case id) is one ValueError
that names the file.
"""

from __future__ import annotations

import csv
import math
import re
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .episodes import Movement, StepRecord

EPISODE_COLUMNS = ("last_turn_id", "last_turn_movement", "piece_id",
                   "move", "captured", "reward")

XES_NS = "http://www.xes-standard.org/"


@dataclass
class EventLog:
    """Maps each case id (an episode id) to its transition labels in turn order."""

    cases: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def traces(self) -> list[tuple[int, tuple[str, ...]]]:
        return sorted(self.cases.items())

    def __len__(self):
        return len(self.cases)


def format_movement(move: Movement) -> str:
    """A label token.  A distance delta is never -inf: both sides hold pieces
    when a turn starts, and only a move taking the last piece makes it inf."""
    if isinstance(move, tuple):
        return "(" + ",".join(move) + ")"
    if move == math.inf:
        return "inf"
    return str(int(move))


# The grammar format_label writes: a movement is (words), an integer or inf,
# a pair (int,movement), a label (pair,pair,int); whitespace may part tokens.
_WORD = r"[^\s(),]+"
_INT = r"-?[0-9]+"
_MOVEMENT = rf"\(\s*(?:{_WORD}(?:\s*,\s*{_WORD})*)?\s*\)|{_INT}|inf"
_PAIR = rf"\(\s*({_INT})\s*,\s*({_MOVEMENT})\s*\)"
_MOVEMENT_RE = re.compile(rf"\s*({_MOVEMENT})\s*")
_PAIR_RE = re.compile(rf"\s*{_PAIR}\s*")
_LABEL_RE = re.compile(rf"\s*\(\s*{_PAIR}\s*,\s*{_PAIR}\s*,\s*({_INT})\s*\)\s*")
_WORD_RE = re.compile(_WORD)


def _movement(token: str) -> Movement:
    """A movement token the grammar matched."""
    if token[0] == "(":
        # interned, so parsed views share one copy of each direction word
        return tuple(map(sys.intern, _WORD_RE.findall(token)))
    return math.inf if token == "inf" else int(token)


def parse_movement(token: str) -> Movement:
    """Inverse of format_movement; anything else is a ValueError quoting it."""
    match = _MOVEMENT_RE.fullmatch(token)
    if match is None:
        raise ValueError(f"malformed movement: {token!r}")
    return _movement(match[1])


def format_label(last_id: int, last_move: Movement, piece_id: int,
                 move: Movement, reward: int) -> str:
    return (f"(({last_id},{format_movement(last_move)}),"
            f"({piece_id},{format_movement(move)}),{reward})")


def label_for(record: StepRecord) -> str:
    return format_label(record.last_turn_enemy_piece_id,
                        record.last_turn_enemy_movement,
                        record.piece_id, record.move, record.reward)


def parse_pair(text: str, what: str = "pair") -> tuple[int, Movement]:
    """Parses one ``(id,movement)`` pair of a label, e.g. ``(3,(left,down))``;
    anything else is a ValueError ``malformed {what}: ...`` quoting ``text``."""
    match = _PAIR_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed {what}: {text!r}")
    return int(match[1]), _movement(match[2])


def parse_label(label: str) -> tuple[tuple[int, Movement], tuple[int, Movement], int]:
    """Inverse of format_label; anything else is a ValueError quoting it."""
    match = _LABEL_RE.fullmatch(label)
    if match is None:
        raise ValueError(f"malformed label: {label!r}")
    ctx_id, ctx_move, act_id, act_move, reward = match.groups()
    return ((int(ctx_id), _movement(ctx_move)), (int(act_id), _movement(act_move)),
            int(reward))


def build_event_log(traces: Iterable[tuple[int, Sequence[StepRecord]]]) -> EventLog:
    """One case per episode id, one event per step, in turn order."""
    log = EventLog()
    for case_id, steps in traces:
        if case_id in log.cases:
            raise ValueError(f"duplicate case id {case_id}")
        log.cases[case_id] = tuple(label_for(s) for s in steps)
    return log


def _movement_cell(move: Movement) -> str:
    """A movement as an episode-table cell: a direction tuple as its repr."""
    return repr(move) if isinstance(move, tuple) else format_movement(move)


def export_episode_table(trace: Sequence[StepRecord], path) -> None:
    """Six-column CSV, one row per agent decision.

    Column names are the short table forms; ``last_turn_id`` and
    ``last_turn_movement`` alias the record fields
    ``last_turn_enemy_piece_id`` / ``last_turn_enemy_movement``.
    """
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EPISODE_COLUMNS)
            writer.writerows([
                rec.last_turn_enemy_piece_id,
                _movement_cell(rec.last_turn_enemy_movement),
                rec.piece_id,
                _movement_cell(rec.move),
                repr(list(rec.captured)),
                rec.reward,
            ] for rec in trace)
    except OSError as exc:
        raise OSError(f"cannot write episode table {path}: {exc}") from exc


def _rows(reader, width: int, path: Path):
    """The reader's rows; one without ``width`` fields (a blank one has 0)
    is a ValueError."""
    for row in reader:
        if len(row) != width:
            raise ValueError(f"{path} line {reader.line_num}: expected {width} fields, "
                             f"got {len(row)}")
        yield row


def _export_log_csv(log: EventLog, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "transition"])
        writer.writerows((cid, label) for cid, labels in log.traces() for label in labels)


def _case_id(text: str, path: Path, line: int | None = None) -> int:
    """``text`` as a case id; one that is not an integer is a ValueError
    naming ``path`` and, for a CSV row, its ``line``."""
    try:
        return int(text)
    except ValueError:
        where = path if line is None else f"{path} line {line}"
        raise ValueError(f"case id {text!r} is not an integer in {where}") from None


def _import_log_csv(path: Path) -> EventLog:
    cases: dict[int, list[str]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no header
        if [h.strip() for h in header] != ["task_id", "transition"]:
            raise ValueError(f"unexpected event log header in {path}: {header}")
        labels: dict[str, str] = {}  # one shared str per distinct label
        for row in _rows(reader, 2, path):
            cid = _case_id(row[0], path, reader.line_num)
            cases.setdefault(cid, []).append(labels.setdefault(row[1], row[1]))
    return EventLog({cid: tuple(trace) for cid, trace in cases.items()})


# ElementTree's attribute escapes, "&" first.  (xml.sax.saxutils.escape
# would do, but importing it pulls in urllib.request, ssl and email.)
_XES_ATTR_ENTITIES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
                      ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"))


# What XML 1.0 cannot carry, not even as a character reference: C0 controls
# other than tab, LF and CR, lone surrogates, U+FFFE and U+FFFF.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xes_name(value: str, indent: str) -> str:
    for char, entity in _XES_ATTR_ENTITIES:
        value = value.replace(char, entity)
    return f'{indent}<string key="concept:name" value="{value}" />'


def _export_log_xes(log: EventLog, path: Path) -> None:
    """Writes the fixed XES shape as text, the bytes ElementTree's ``indent``
    and ``write`` give for the same elements: two-space indents, no final
    newline, and ``<log ... />`` for an empty log."""
    lines = ["<?xml version='1.0' encoding='utf-8'?>"]
    root = f'<log xes.version="1.0" xmlns="{XES_NS}"'
    traces = log.traces()
    if not traces:
        lines.append(root + " />")
    else:
        lines.append(root + ">")
        for cid, labels in traces:
            lines += ("  <trace>", _xes_name(str(cid), "    "))
            for label in labels:
                lines += ("    <event>", _xes_name(label, "      "), "    </event>")
            lines.append("  </trace>")
        lines.append("</log>")
    text = "\n".join(lines)
    if _XML_FORBIDDEN.search(text):  # only a label can hold one
        label = next(label for _, labels in traces for label in labels
                     if _XML_FORBIDDEN.search(label))
        raise ValueError(f"cannot write {path}: label {label!r} holds a character "
                         f"XML 1.0 forbids")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(text)


def _name_value(attr: ET.Element, path: Path) -> str:
    """The ``value`` of a ``concept:name`` attribute; one without it is a
    ValueError naming ``path``."""
    value = attr.get("value")
    if value is None:
        raise ValueError(f"concept:name without a value in {path}")
    return value


def _one_name(attrs: list, what: str, path: Path) -> str:
    """The value of a trace's or event's only ``concept:name``; none, or
    more than one, is a ValueError naming ``path``."""
    if len(attrs) != 1:
        count = "without" if not attrs else "with more than one"
        raise ValueError(f"{what} {count} concept:name in {path}")
    return _name_value(attrs[0], path)


def _import_log_xes(path: Path) -> EventLog:
    log = EventLog()
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise ValueError(f"malformed XES in {path}: {exc}") from exc
    labels: dict[str, str] = {}  # one shared str per distinct label
    for trace_el in root:
        if not trace_el.tag.endswith("trace"):
            continue
        names = []
        events = []
        for child in trace_el:
            if child.tag.endswith("string") and child.get("key") == "concept:name":
                names.append(child)
            elif child.tag.endswith("event"):
                label = _one_name([attr for attr in child
                                   if attr.get("key") == "concept:name"], "event", path)
                events.append(labels.setdefault(label, label))
        cid = _case_id(_one_name(names, "trace", path), path)
        if cid in log.cases:
            raise ValueError(f"duplicate case id {cid} in {path}")
        log.cases[cid] = tuple(events)
    return log


def export_log(log: EventLog, path, format: str = "csv") -> None:
    """Writes the log as csv (task_id/transition) or xes."""
    path = Path(path)
    try:
        if format == "csv":
            _export_log_csv(log, path)
        elif format == "xes":
            _export_log_xes(log, path)
        else:
            raise ValueError(f"unknown log format: {format}")
    except OSError as exc:
        raise OSError(f"cannot write event log {path}: {exc}") from exc


def import_log(path, format: str | None = None) -> EventLog:
    path = Path(path)
    if format is None:
        format = "xes" if path.suffix.lower() == ".xes" else "csv"
    if format == "csv":
        return _import_log_csv(path)
    if format == "xes":
        return _import_log_xes(path)
    raise ValueError(f"unknown log format: {format}")
