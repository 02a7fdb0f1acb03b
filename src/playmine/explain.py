"""Post-hoc explanations read from a layered view of the event log.

Layer k collects the decisions observed at turn k of any case.  The three
query kinds: recommend an action for a context (backed by immediate reward,
or by a chaining future reward when every observed reward is zero), the same
query aimed at a future layer, and the rejection rationale for an observed
alternative.  Queries are only meaningful on a log whose mined model is
fitting; the Explainer front end enforces that gate.

A view indexes its layers once, in the pass that builds them: per layer,
each context's entries in layer order and each context's first
positive-reward entry.  Queries find their matches by lookup, and a view
ranks each (layer, context, lookahead) once, handing the same
Recommendation to every later recommend or why_not on that key.  The view
and the three result types are frozen, so neither the index nor a cached
answer can drift from the layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .conformance import FITTING, FitnessReport, classify_fitting, fitness_metrics
from .discovery import inductive_miner, tree_to_net
from .eventlog import EventLog, parse_label, parse_pair
from .petri import PetriNet

LOOKAHEAD_DEFAULT = 2


class NoObservationError(LookupError):
    """The queried context or alternative was never observed at that layer."""


class NotFittingError(RuntimeError):
    """Explanations require a model whose three fitness values are 1."""


@dataclass(frozen=True)
class LayerEntry:
    context: tuple  # (last enemy piece id, last enemy movement)
    action: tuple   # (piece id, movement)
    reward: int


@dataclass(frozen=True)
class LayeredView:
    """Built by ``layered_view``, which fills the index beside the layers."""

    layers: tuple
    # per layer: context -> its entries in layer order
    _contexts: tuple = field(repr=False, compare=False)
    # per layer: context -> its first entry with a positive reward
    _scoring: tuple = field(repr=False, compare=False)
    # (layer, context, lookahead) -> its Recommendation
    _ranked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def layer(self, number: int) -> tuple:
        """Layers are 1-based, matching 'first layer', 'second layer' usage."""
        if not 1 <= number <= len(self.layers):
            raise IndexError(f"layer {number} out of range 1..{len(self.layers)}")
        return self.layers[number - 1]

    def _matches(self, number: int, context: tuple):
        """The entries with ``context`` at layer ``number``, in layer order;
        IndexError as in ``layer``."""
        self.layer(number)
        return self._contexts[number - 1].get(context, ())

    def __len__(self):
        return len(self.layers)


@dataclass(frozen=True)
class Recommendation:
    context: tuple
    action: tuple
    reward: int
    kind: str  # "immediate-reward" | "future-reward"
    supporting: Optional[LayerEntry]
    ranked: tuple  # ((action, reward), ...) best first

    def render(self) -> str:
        pid, move = self.action
        what = f"select piece {pid} and move it {_fmt_move(move)}"
        if self.kind == "immediate-reward" and self.reward > 0:
            return (f"Recommendation: {what}, because it earns {self.reward} "
                    f"points right away by capturing or crowning.")
        if self.kind == "future-reward":
            spid, smove = self.supporting.action
            return (f"Recommendation: {what}; no observed action scores now, "
                    f"but it chains into piece {spid} moving "
                    f"{_fmt_move(smove)} worth {self.supporting.reward} points "
                    f"in a later turn.")
        return (f"Recommendation: {what}; no observed action from this "
                f"context scores any points within the lookahead window.")


@dataclass(frozen=True)
class WhyNotReport:
    context: tuple
    recommended: tuple
    recommended_reward: int
    alternative: tuple
    alternative_reward: int
    gap: int
    alternative_future: Optional[LayerEntry]

    def render(self) -> str:
        pid, move = self.alternative
        if self.gap == 0:
            return (f"Piece {pid} moving {_fmt_move(move)} is not rejected: "
                    f"it matches the recommended reward.")
        text = (f"Not recommended: piece {pid} moving {_fmt_move(move)} earns "
                f"{self.alternative_reward} points versus {self.recommended_reward} "
                f"for the recommended action.")
        if self.alternative_future is None:
            text += " It also chains into no scoring transition nearby."
        return text


def _fmt_move(move) -> str:
    if isinstance(move, tuple):
        return "(" + ", ".join(move) + ")"
    return str(move)


def layered_view(log: EventLog) -> LayeredView:
    """Groups events by their turn index within their case, first-seen order,
    duplicates collapsed, and indexes each layer in the same pass.  Each
    distinct label is parsed once."""
    if not log.cases:
        raise ValueError("layered_view requires a non-empty log")
    entries: dict = {}  # label -> its LayerEntry
    layers: list[dict] = []  # per layer: its entries as keys, first-seen order
    contexts: list[dict] = []
    scoring: list[dict] = []
    for _, labels in log.traces():
        for k, label in enumerate(labels):
            entry = entries.get(label)
            if entry is None:
                entry = entries[label] = LayerEntry(*parse_label(label))
            if k == len(layers):
                layers.append({})
                contexts.append({})
                scoring.append({})
            if entry not in layers[k]:
                layers[k][entry] = None
                contexts[k].setdefault(entry.context, []).append(entry)
                if entry.reward > 0:
                    scoring[k].setdefault(entry.context, entry)
    return LayeredView(tuple(tuple(layer) for layer in layers), tuple(contexts),
                       tuple(scoring))


def _future_distance(view: LayeredView, layer: int, action: tuple,
                     lookahead: int) -> tuple[float, Optional[LayerEntry]]:
    """Earliest layer offset (<= lookahead) holding a positive-reward
    transition whose context equals ``action``; inf when none chains."""
    for offset, scoring in enumerate(view._scoring[layer:layer + lookahead], 1):
        entry = scoring.get(action)
        if entry is not None:
            return offset, entry
    return math.inf, None


def _check_lookahead(lookahead: int) -> None:
    if lookahead < 0:
        raise ValueError(f"lookahead must be >= 0, got {lookahead}")


def recommend(view: LayeredView, layer: int, context: tuple,
              lookahead: int = LOOKAHEAD_DEFAULT) -> Recommendation:
    """Best observed action for ``context`` at ``layer`` (1-based).

    Picks the maximal immediate reward; when every matching reward is zero,
    falls back to the action with the earliest chaining positive-reward
    transition within ``lookahead`` layers (>= 0, else ValueError).  Among
    entries tied on both, the one the layer recorded first wins.  The
    view ranks each (layer, context, lookahead) once and returns that same
    Recommendation on every later query.
    """
    _check_lookahead(lookahead)
    key = (layer, context, lookahead)
    rec = view._ranked.get(key)
    if rec is None:
        rec = view._ranked[key] = _rank(view, layer, context, lookahead)
    return rec


def _rank(view: LayeredView, layer: int, context: tuple,
          lookahead: int) -> Recommendation:
    matches = view._matches(layer, context)
    if not matches:
        raise NoObservationError(
            f"no transition with context {context} observed at layer {layer}")

    futures = {e.action: _future_distance(view, layer, e.action, lookahead)
               for e in matches}
    # stable: a tie goes to the tied entry recorded first in the layer
    ranked_entries = sorted(matches, key=lambda e: (-e.reward, futures[e.action][0]))
    best = ranked_entries[0]
    ranked = tuple((e.action, e.reward) for e in ranked_entries)

    supporting = None if best.reward > 0 else futures[best.action][1]
    kind = "immediate-reward" if supporting is None else "future-reward"
    return Recommendation(context, best.action, best.reward, kind, supporting, ranked)


def why_not(view: LayeredView, layer: int, context: tuple, alternative: tuple,
            lookahead: int = LOOKAHEAD_DEFAULT) -> WhyNotReport:
    """Rejection rationale for an observed alternative action; ``lookahead``
    as in ``recommend``, whose cached ranking of the context it reuses."""
    _check_lookahead(lookahead)
    for alt in view._matches(layer, context):
        if alt.action == alternative:
            break
    else:
        raise NoObservationError(
            f"alternative {alternative} not observed at layer {layer} "
            f"with context {context}")
    rec = recommend(view, layer, context, lookahead)
    _, future = _future_distance(view, layer, alternative, lookahead)
    return WhyNotReport(context, rec.action, rec.reward, alternative, alt.reward,
                        rec.reward - alt.reward, future)


def parse_context_string(text: str) -> tuple:
    """Parses "(3,(left,down))" style context/action strings."""
    return parse_pair(text, "context")


class Explainer:
    """Front end tying a log to a fitting mined model before answering."""

    def __init__(self, log: EventLog, net: PetriNet, report: FitnessReport,
                 lookahead: int = LOOKAHEAD_DEFAULT):
        _check_lookahead(lookahead)
        self.log = log
        self.net = net
        self.report = report
        self.lookahead = lookahead
        self.view = layered_view(log)

    @classmethod
    def from_log(cls, log: EventLog, lookahead: int = LOOKAHEAD_DEFAULT) -> "Explainer":
        net = tree_to_net(inductive_miner(log))
        report = fitness_metrics(log, net)
        return cls(log, net, report, lookahead)

    def _require_fitting(self):
        if classify_fitting(self.report) != FITTING:
            raise NotFittingError(
                "model is non-fitting; explanations would not cover the log")

    def recommend(self, layer: int, context: tuple) -> Recommendation:
        self._require_fitting()
        return recommend(self.view, layer, context, self.lookahead)

    def why_not(self, layer: int, context: tuple, alternative: tuple) -> WhyNotReport:
        self._require_fitting()
        return why_not(self.view, layer, context, alternative, self.lookahead)
