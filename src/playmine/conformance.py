"""Alignment-based conformance checking and the replay fitness metrics.

Alignments are found with uniform-cost search over the synchronous product
of trace and net: synchronous and silent-model moves cost 0, log-only and
visible-model-only moves cost 1, so the first goal state popped carries the
optimal (minimal) cost.

The search runs in the kernel twins (``kernel.new_marking_graph`` and
``kernel.align``; ``_pykernel.align``'s docstring states its order), and
this module holds none of it.  It runs on a marking graph of the net at one
token cap: each transition compiled to its preset and postset place
indices and a label code, each distinct marking stored once and numbered,
and each marking's successors computed when the search first reaches it.
``fitness_metrics`` builds one such graph and shares it across all of its
alignments, the empty trace's and each variant's, so a successor list is
computed once per ``fitness_metrics`` call, not once per alignment.
``kernel.align`` returns the path as codes, and ``_MarkingGraph.moves``
turns them into ``AlignmentMove``s, building a transition's moves the first
time an alignment of the graph holds them.

The order in which states are explored is fixed: ties in cost are broken by
push order, which is, for each transition in ``net.transitions`` order, the
synchronous move and then the model (or silent) move, with the log move
last, and marking numbers take no part in it.  Among several optimal
alignments, this order picks the one that is returned.  It also fixes
``states_explored``, which ``global_statistics.csv`` reports as ``Num.
States`` and, as an estimate of 200 bytes a state, ``Approx. mem. used``,
so a change to the order changes trial outputs even when every cost stays
the same.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import kernel
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
    """A kernel marking graph of ``net`` at one token cap, and the alignment
    moves of its transitions, each built the first time an alignment
    returns it."""

    def __init__(self, net: PetriNet, cap: int):
        self.cap = cap
        self.transitions = net.transitions
        index = {p: k for k, p in enumerate(net.places)}
        steps = tuple((tuple(index[p] for p in net.preset[t.name]),
                       tuple(index[p] for p in net.postset[t.name]),
                       None if t.silent else t.label) for t in net.transitions)
        self.handle = kernel.new_marking_graph(
            steps, tuple(net.initial_marking[p] for p in net.places),
            tuple(net.final_marking[p] for p in net.places), cap)
        self.built = [None] * (2 * len(net.transitions))

    def moves(self, path: tuple, trace: tuple) -> tuple:
        """The alignment moves of ``kernel.align``'s path codes."""
        built = self.built
        out = []
        for code in path:
            if code < 0:
                out.append(AlignmentMove(LOG, trace[~code], None))
                continue
            move = built[code]
            if move is None:
                t = self.transitions[code >> 1]
                if not code & 1:
                    move = AlignmentMove(SYNC, t.label, t.name)
                elif t.silent:
                    move = AlignmentMove(TAU, None, t.name)
                else:
                    move = AlignmentMove(MODEL, t.label, t.name)
                built[code] = move
            out.append(move)
        return tuple(out)


def optimal_alignment(trace: Sequence[str], net: PetriNet, *,
                      _graph: Optional[_MarkingGraph] = None) -> AlignmentResult:
    """Minimal-cost alignment of ``trace`` against ``net``.

    Every marking searched holds at most a token cap of tokens, derived
    from the net and the trace: the initial and final tokens, plus the
    places, plus the trace length, plus 4.  ``_graph`` is the marking graph
    of ``net`` that ``fitness_metrics`` shares across its alignments, and
    its cap is the one used.  A cap above ``kernel.TOKENS_MAX`` is a
    ValueError.

    Raises ModelUnsoundError when no goal state exists (the final marking is
    unreachable), detected once the bounded search space is exhausted; its
    ``states_explored`` counts the states expanded on the way.
    """
    t0 = time.perf_counter()
    trace = tuple(trace)
    graph = _graph or _MarkingGraph(net, _default_token_cap(net, len(trace)))
    cost, explored, path = kernel.align(graph.handle, trace)
    if path is None:
        raise ModelUnsoundError("final marking unreachable; cannot align", explored)
    return AlignmentResult(graph.moves(path, trace), cost, explored,
                           time.perf_counter() - t0)


@dataclass
class FitnessReport:
    """The per-trace alignment metrics of ``fitness_metrics``, averaged over
    the log's cases.  ``approx_memory_kb`` is an estimate, not a
    measurement: the states explored per case times 200 bytes, in KB
    (``num_states * 200 / 1024``)."""

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
    # an estimate of the search's footprint, 200 bytes per state explored,
    # not a measurement
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
