"""Alignment-based conformance checking and the replay fitness metrics.

Alignments are found with uniform-cost search over the synchronous product
of trace and net: synchronous and silent-model moves cost 0, log-only and
visible-model-only moves cost 1, so the first goal state popped carries the
optimal (minimal) cost.

The search never calls the ``Counter`` API of ``PetriNet``.  It runs on a
marking graph of the net at one token cap: each transition compiled to its
preset and postset place indices, each distinct marking (a tuple of token
counts indexed like ``net.places``) stored once and numbered, and each
marking's successors computed when the search first reaches it.
``fitness_metrics`` builds one such graph and shares it across all of its
alignments, the empty trace's and each variant's, so a successor list is
computed once per ``fitness_metrics`` call, not once per alignment.  A
search state is the single int ``marking number * (trace length + 1) +
trace position``.

The order in which states are explored is fixed: ties in cost are broken by
push order, which is, for each transition in ``net.transitions`` order, the
synchronous move and then the model (or silent) move, with the log move
last.  Every move costs 0 or 1, so the search keeps two FIFO lists (Dial,
"Shortest-path forest with topological ordering", CACM 12(11), 1969) in
place of a heap keyed ``(cost, push order)``, and pops in that key's order:
the first list holds the states pushed at the cost being expanded, the
second those pushed one higher, each in push order.  A state of cost c
pushes only at c (a 0-cost move, appended to the first list, behind the
state being read) or at c + 1 (appended to the second).  So when the first
list is read to its end no state of cost c is left, and the second list
takes its place.  Marking numbers take no part in the order, so a graph
grown by earlier alignments leaves each alignment as a fresh graph would.
Among several optimal alignments, this order picks the one that is
returned.  It also
fixes ``states_explored``, which ``global_statistics.csv`` reports as
``Num. States`` and ``Approx. mem. used``, so a change to the order
changes trial outputs even when every cost stays the same.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .eventlog import EventLog
from .petri import PetriNet


class ModelUnsoundError(RuntimeError):
    """The net cannot reach its final marking by model moves alone;
    ``states_explored`` counts the states the exhausted search expanded.
    It is not an argument, so ``repr`` shows the message only."""

    def __init__(self, message: str, states_explored: int = 0):
        super().__init__(message)
        self.states_explored = states_explored


SYNC = "sync"
LOG = "log"
MODEL = "model"
TAU = "tau"


@dataclass(frozen=True)
class AlignmentMove:
    kind: str  # sync | log | model | tau
    label: Optional[str] = None
    transition: Optional[str] = None


@dataclass
class AlignmentResult:
    moves: tuple
    raw_cost: int
    states_explored: int
    calc_time: float

    @property
    def log_projection(self) -> tuple:
        return tuple(m.label for m in self.moves if m.kind in (SYNC, LOG))

    def count(self, kind: str) -> int:
        return sum(1 for m in self.moves if m.kind == kind)


def _default_token_cap(net: PetriNet, trace_len: int) -> int:
    base = sum(net.initial_marking.values()) + sum(net.final_marking.values())
    return base + len(net.places) + trace_len + 4


class _MarkingGraph:
    """The markings of one net that respect one token cap, grown on demand.

    Each marking is stored once and numbered in the order it is first met.
    ``successors[mid]`` is None until ``expand(mid)`` fires every
    transition of ``net.transitions`` at that marking, in that order.
    """

    def __init__(self, net: PetriNet, cap: int):
        self.cap = cap
        index = {p: k for k, p in enumerate(net.places)}
        # per transition: preset and postset indices (arcs form a set, so no
        # place repeats), token delta, visible label, synchronous move, model
        # or silent move and its cost
        self.steps = []
        for t in net.transitions:
            pre = tuple(index[p] for p in net.preset[t.name])
            post = tuple(index[p] for p in net.postset[t.name])
            if t.silent:
                self.steps.append((pre, post, len(post) - len(pre), None, None,
                                   AlignmentMove(TAU, None, t.name), 0))
            else:
                self.steps.append((pre, post, len(post) - len(pre), t.label,
                                   AlignmentMove(SYNC, t.label, t.name),
                                   AlignmentMove(MODEL, t.label, t.name), 1))
        self.markings: list = []
        self.ids: dict = {}
        self.successors: list = []
        self.initial = self.intern(tuple(net.initial_marking[p] for p in net.places))
        self.final = self.intern(tuple(net.final_marking[p] for p in net.places))

    def intern(self, marking: tuple) -> int:
        mid = self.ids.get(marking)
        if mid is None:
            mid = self.ids[marking] = len(self.markings)
            self.markings.append(marking)
            self.successors.append(None)
        return mid

    def expand(self, mid: int) -> list:
        """``(marking id, label, sync move, model move, model cost)`` of
        each transition enabled at ``mid`` whose firing keeps the cap."""
        marking = self.markings[mid]
        room = self.cap - sum(marking)
        out = []
        for pre, post, delta, label, sync, model, model_cost in self.steps:
            if delta > room:
                continue
            for p in pre:
                if not marking[p]:
                    break
            else:
                nm = list(marking)
                for p in pre:
                    nm[p] -= 1
                for p in post:
                    nm[p] += 1
                out.append((self.intern(tuple(nm)), label, sync, model, model_cost))
        self.successors[mid] = out
        return out


def optimal_alignment(trace: Sequence[str], net: PetriNet, *,
                      _graph: Optional[_MarkingGraph] = None) -> AlignmentResult:
    """Minimal-cost alignment of ``trace`` against ``net``.

    Every marking searched holds at most a token cap of tokens, derived
    from the net and the trace: the initial and final tokens, plus the
    places, plus the trace length, plus 4.  ``_graph`` is the marking graph
    of ``net`` that ``fitness_metrics`` shares across its alignments, and
    its cap is the one used.

    Raises ModelUnsoundError when no goal state exists (the final marking is
    unreachable), detected once the bounded search space is exhausted; its
    ``states_explored`` counts the states expanded on the way.
    """
    t0 = time.perf_counter()
    trace = tuple(trace)
    n = len(trace)
    graph = _graph or _MarkingGraph(net, _default_token_cap(net, n))
    successors = graph.successors
    log_moves = [AlignmentMove(LOG, a, None) for a in trace]

    # a state is ``marking id * width + trace position``
    width = n + 1
    goal = graph.final * width + n
    start = graph.initial * width
    dist = {start: 0}
    parent: dict = {start: None}
    cost = 0
    level, above = [start], []  # the states pushed at cost and at cost + 1
    explored = 0

    while level:
        # the loop also reads what the 0-cost moves below append to level
        for state in level:
            if dist[state] < cost:
                continue  # a cheaper push of this state was expanded already
            explored += 1
            if state == goal:
                moves = []
                cur = state
                while parent[cur] is not None:
                    cur, move = parent[cur]
                    moves.append(move)
                moves.reverse()
                return AlignmentResult(tuple(moves), cost, explored,
                                       time.perf_counter() - t0)
            mid, i = divmod(state, width)
            succ = successors[mid]
            if succ is None:
                succ = graph.expand(mid)
            # push order breaks cost ties: per transition the synchronous
            # move, then the model or silent move; the log move last
            event = trace[i] if i < n else None
            for nid, label, sync, model, model_cost in succ:
                nstate = nid * width + i
                if label is not None and label == event:
                    old = dist.get(nstate + 1)
                    if old is None or cost < old:
                        dist[nstate + 1] = cost
                        parent[nstate + 1] = (state, sync)
                        level.append(nstate + 1)
                ncost = cost + model_cost
                old = dist.get(nstate)
                if old is None or ncost < old:
                    dist[nstate] = ncost
                    parent[nstate] = (state, model)
                    (above if model_cost else level).append(nstate)
            if i < n:
                ncost = cost + 1
                old = dist.get(state + 1)
                if old is None or ncost < old:
                    dist[state + 1] = ncost
                    parent[state + 1] = (state, log_moves[i])
                    above.append(state + 1)
        level, above = above, []
        cost += 1

    raise ModelUnsoundError("final marking unreachable; cannot align", explored)


@dataclass
class FitnessReport:
    trace_fitness: float
    move_model_fitness: float
    move_log_fitness: float
    raw_fitness_cost: float
    trace_length: float
    num_states: float
    calc_time_ms: float
    preprocess_time_ms: float
    approx_memory_kb: float
    num_traces: int


def _trace_metrics(trace, net, empty_cost, graph):
    res = optimal_alignment(trace, net, _graph=graph)
    n = len(trace)
    denom = n + empty_cost
    trace_fit = 1.0 if denom == 0 else 1.0 - res.raw_cost / denom
    logs = res.count(LOG)
    move_log = 1.0 if n == 0 else 1.0 - logs / n
    sync = res.count(SYNC)
    visible_model = res.count(MODEL)
    move_model = 1.0 if sync + visible_model == 0 else 1.0 - visible_model / (sync + visible_model)
    return res, trace_fit, move_model, move_log


def fitness_metrics(log: EventLog, net: PetriNet) -> FitnessReport:
    """Per-trace alignment metrics averaged over every case of the log.

    One token cap serves every alignment: ``optimal_alignment``'s cap for
    the longest trace.  All alignments, the empty trace's first, share one
    marking graph of ``net`` at that cap.
    """
    if not log.cases:
        raise ValueError("fitness_metrics requires a non-empty log")
    t0 = time.perf_counter()
    longest = max(len(labels) for _, labels in log.traces())
    graph = _MarkingGraph(net, _default_token_cap(net, longest))
    # the cheapest all-model-move run (visible transitions cost 1, silent 0)
    empty_cost = optimal_alignment((), net, _graph=graph).raw_cost
    preprocess_ms = (time.perf_counter() - t0) * 1000.0

    tf = mm = ml = cost = length = states = ms = 0.0
    count = 0
    variants: dict = {}
    for _, labels in log.traces():
        if labels not in variants:
            variants[labels] = _trace_metrics(labels, net, empty_cost, graph)
        res, trace_fit, move_model, move_log = variants[labels]
        tf += trace_fit
        mm += move_model
        ml += move_log
        cost += res.raw_cost
        length += len(labels)
        states += res.states_explored
        ms += res.calc_time * 1000.0
        count += 1
    # rough footprint of the search structures, reported for orientation only
    approx_kb = (states / count) * 200 / 1024.0
    return FitnessReport(
        trace_fitness=tf / count,
        move_model_fitness=mm / count,
        move_log_fitness=ml / count,
        raw_fitness_cost=cost / count,
        trace_length=length / count,
        num_states=states / count,
        calc_time_ms=ms / count,
        preprocess_time_ms=preprocess_ms,
        approx_memory_kb=approx_kb,
        num_traces=count,
    )


FITTING_TOLERANCE = 1e-12

FITTING = "fitting"
NON_FITTING = "non-fitting"


def classify_fitting(report: FitnessReport) -> str:
    """Fitting iff all three fitness values are within ``FITTING_TOLERANCE`` of 1."""
    perfect = all(abs(v - 1.0) <= FITTING_TOLERANCE for v in (
        report.trace_fitness, report.move_model_fitness, report.move_log_fitness))
    return FITTING if perfect else NON_FITTING


REPORT_ROWS = (
    ("Calc. Time (ms)", "calc_time_ms"),
    ("Num. States", "num_states"),
    ("Trace Fitness", "trace_fitness"),
    ("Raw Fitness Cost", "raw_fitness_cost"),
    ("Move-Model Fitness", "move_model_fitness"),
    ("Pre-process time (ms)", "preprocess_time_ms"),
    ("Move-Log Fitness", "move_log_fitness"),
    ("Trace Length", "trace_length"),
    ("Approx. mem. used (kb)", "approx_memory_kb"),
)


def write_report_csv(reports: dict, path) -> None:
    """Global-statistics table: one column per model, one row per metric."""
    path = Path(path)
    names = list(reports)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Metric"] + names)
        for row_name, attr in REPORT_ROWS:
            writer.writerow([row_name] + [f"{getattr(reports[n], attr):.2f}"
                                          for n in names])
