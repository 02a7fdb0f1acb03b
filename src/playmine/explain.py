"""Post-hoc explanations read from a layered view of the event log.

Layer k collects the decisions observed at turn k of any case.  The three
query kinds: recommend an action for a context (backed by immediate reward,
or by a chaining future reward when every observed reward is zero), the same
query aimed at a future layer, and the rejection rationale for an observed
alternative.  Queries are only meaningful on a log whose mined model is
fitting; the Explainer front end enforces that gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass
class LayeredView:
    layers: tuple

    def layer(self, number: int) -> tuple:
        """Layers are 1-based, matching 'first layer', 'second layer' usage."""
        if not 1 <= number <= len(self.layers):
            raise IndexError(f"layer {number} out of range 1..{len(self.layers)}")
        return self.layers[number - 1]

    def __len__(self):
        return len(self.layers)


@dataclass
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


@dataclass
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
    duplicates collapsed.  Each distinct label is parsed once."""
    if not log.cases:
        raise ValueError("layered_view requires a non-empty log")
    entries: dict = {}  # label -> its LayerEntry
    layers: list[list[LayerEntry]] = []
    seen: list[set] = []
    for _, labels in log.traces():
        for k, label in enumerate(labels):
            entry = entries.get(label)
            if entry is None:
                entry = entries[label] = LayerEntry(*parse_label(label))
            if k == len(layers):
                layers.append([])
                seen.append(set())
            if entry not in seen[k]:
                seen[k].add(entry)
                layers[k].append(entry)
    return LayeredView(tuple(tuple(layer) for layer in layers))


def _future_distance(view: LayeredView, layer: int, action: tuple,
                     lookahead: int) -> tuple[float, Optional[LayerEntry]]:
    """Earliest layer offset (<= lookahead) holding a positive-reward
    transition whose context equals ``action``; inf when none chains."""
    for offset in range(1, lookahead + 1):
        number = layer + offset
        if number > len(view):
            break
        for entry in view.layer(number):
            if entry.reward > 0 and entry.context == action:
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
    transition within ``lookahead`` layers (>= 0, else ValueError).
    """
    _check_lookahead(lookahead)
    matches = [e for e in view.layer(layer) if e.context == context]
    if not matches:
        raise NoObservationError(
            f"no transition with context {context} observed at layer {layer}")

    futures = {e.action: _future_distance(view, layer, e.action, lookahead)
               for e in matches}
    order = {e.action: i for i, e in enumerate(matches)}
    ranked_entries = sorted(
        matches, key=lambda e: (-e.reward, futures[e.action][0], order[e.action]))
    best = ranked_entries[0]
    ranked = tuple((e.action, e.reward) for e in ranked_entries)

    if best.reward > 0:
        return Recommendation(context, best.action, best.reward,
                              "immediate-reward", None, ranked)
    dist, supporting = futures[best.action]
    if supporting is not None:
        return Recommendation(context, best.action, best.reward,
                              "future-reward", supporting, ranked)
    return Recommendation(context, best.action, best.reward,
                          "immediate-reward", None, ranked)


def why_not(view: LayeredView, layer: int, context: tuple, alternative: tuple,
            lookahead: int = LOOKAHEAD_DEFAULT) -> WhyNotReport:
    """Rejection rationale for an observed alternative action; ``lookahead``
    as in ``recommend``."""
    _check_lookahead(lookahead)
    matches = [e for e in view.layer(layer) if e.context == context]
    alt = next((e for e in matches if e.action == alternative), None)
    if alt is None:
        raise NoObservationError(
            f"alternative {alternative} not observed at layer {layer} "
            f"with context {context}")
    rec = recommend(view, layer, context, lookahead)
    _, future = _future_distance(view, layer, alternative, lookahead)
    return WhyNotReport(
        context=context,
        recommended=rec.action,
        recommended_reward=rec.reward,
        alternative=alternative,
        alternative_reward=alt.reward,
        gap=rec.reward - alt.reward,
        alternative_future=future,
    )


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
