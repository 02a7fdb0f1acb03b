"""Alignment-based conformance checking and the replay fitness metrics.

Alignments are found with uniform-cost search over the synchronous product
of trace and net: synchronous and silent-model moves cost 0, log-only and
visible-model-only moves cost 1, so the first goal state popped carries the
optimal (minimal) cost.

The search compiles the net once per call and never calls the ``Counter``
API of ``PetriNet``.  A marking is a tuple of token counts indexed like
``net.places``.  Each distinct marking is stored once per call and numbered,
and a state is ``(trace position, marking number)``.  Each transition
becomes its preset and postset place indices, and each marking's successors
are computed once per call.

The order in which states are explored is fixed: ties in cost are broken by
push order, which is, for each transition in ``net.transitions`` order, the
synchronous move and then the model (or silent) move, with the log move
last.  Among several optimal alignments, this order picks the one that is
returned.  It also fixes ``states_explored``, which ``global_statistics.csv``
reports as ``Num. States`` and ``Approx. mem. used``, so a change to the
order changes trial outputs even when every cost stays the same.
"""

from __future__ import annotations

import csv
import heapq
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .eventlog import EventLog
from .petri import PetriNet


class ModelUnsoundError(RuntimeError):
    """The net cannot reach its final marking by model moves alone."""


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


def optimal_alignment(trace: Sequence[str], net: PetriNet,
                      token_cap: Optional[int] = None) -> AlignmentResult:
    """Minimal-cost alignment of ``trace`` against ``net``.

    Raises ModelUnsoundError when no goal state exists (the final marking is
    unreachable), detected once the bounded search space is exhausted.
    """
    t0 = time.perf_counter()
    trace = tuple(trace)
    n = len(trace)
    cap = token_cap or _default_token_cap(net, n)
    index = {p: k for k, p in enumerate(net.places)}

    # per transition: preset and postset indices (arcs form a set, so no
    # place repeats), token delta, visible label, synchronous move, model or
    # silent move and its cost
    steps = []
    for t in net.transitions:
        pre = tuple(index[p] for p in net.preset[t.name])
        post = tuple(index[p] for p in net.postset[t.name])
        if t.silent:
            steps.append((pre, post, len(post) - len(pre), None, None,
                          AlignmentMove(TAU, None, t.name), 0))
        else:
            steps.append((pre, post, len(post) - len(pre), t.label,
                          AlignmentMove(SYNC, t.label, t.name),
                          AlignmentMove(MODEL, t.label, t.name), 1))
    log_moves = [AlignmentMove(LOG, a, None) for a in trace]

    # each distinct marking is stored once; a state holds its index here
    markings: list = []
    ids: dict = {}
    successors: dict = {}

    def intern(marking: tuple) -> int:
        mid = ids.get(marking)
        if mid is None:
            mid = ids[marking] = len(markings)
            markings.append(marking)
        return mid

    def fire_all(mid: int) -> list:
        marking = markings[mid]
        tokens = sum(marking)
        out = []
        for pre, post, delta, label, sync, model, model_cost in steps:
            if tokens + delta > cap:
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
                out.append((intern(tuple(nm)), label, sync, model, model_cost))
        successors[mid] = out
        return out

    final = intern(tuple(net.final_marking[p] for p in net.places))
    start = (0, intern(tuple(net.initial_marking[p] for p in net.places)))
    dist = {start: 0}
    parent: dict = {start: None}
    heappop, heappush = heapq.heappop, heapq.heappush
    heap = [(0, 0, start)]
    tick = 0
    explored = 0
    closed = set()

    def push(nstate, ncost, move):  # ``state`` is the state being expanded
        nonlocal tick
        if nstate in closed:
            return
        old = dist.get(nstate)
        if old is None or ncost < old:
            dist[nstate] = ncost
            parent[nstate] = (state, move)
            tick += 1
            heappush(heap, (ncost, tick, nstate))

    while heap:
        cost, _, state = heappop(heap)
        if state in closed:
            continue
        closed.add(state)
        explored += 1
        i, mid = state
        if i == n and mid == final:
            moves = []
            cur = state
            while parent[cur] is not None:
                cur, move = parent[cur]
                moves.append(move)
            moves.reverse()
            return AlignmentResult(tuple(moves), cost, explored,
                                   time.perf_counter() - t0)
        succ = successors.get(mid)
        if succ is None:
            succ = fire_all(mid)
        event = trace[i] if i < n else None
        for nid, label, sync, model, model_cost in succ:
            if label is not None and label == event:
                push((i + 1, nid), cost, sync)
            push((i, nid), cost + model_cost, model)
        if i < n:
            push((i + 1, mid), cost + 1, log_moves[i])

    raise ModelUnsoundError("final marking unreachable; cannot align")


def shortest_model_path_cost(net: PetriNet, token_cap: Optional[int] = None) -> int:
    """Cheapest all-model-move run from initial to final marking (visible
    transitions cost 1, silent ones 0)."""
    return optimal_alignment((), net, token_cap).raw_cost


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


def _trace_metrics(trace, net, empty_cost, cap):
    res = optimal_alignment(trace, net, cap)
    n = len(trace)
    denom = n + empty_cost
    trace_fit = 1.0 if denom == 0 else 1.0 - res.raw_cost / denom
    logs = res.count(LOG)
    move_log = 1.0 if n == 0 else 1.0 - logs / n
    sync = res.count(SYNC)
    visible_model = res.count(MODEL)
    move_model = 1.0 if sync + visible_model == 0 else 1.0 - visible_model / (sync + visible_model)
    return res, trace_fit, move_model, move_log


def fitness_metrics(log: EventLog, net: PetriNet,
                    token_cap: Optional[int] = None) -> FitnessReport:
    """Per-trace alignment metrics averaged over every case of the log."""
    if not log.cases:
        raise ValueError("fitness_metrics requires a non-empty log")
    t0 = time.perf_counter()
    longest = max(len(labels) for _, labels in log.traces())
    cap = token_cap or _default_token_cap(net, longest)
    empty_cost = shortest_model_path_cost(net, cap)
    preprocess_ms = (time.perf_counter() - t0) * 1000.0

    tf = mm = ml = cost = length = states = ms = 0.0
    count = 0
    variants: dict = {}
    for _, labels in log.traces():
        if labels not in variants:
            variants[labels] = _trace_metrics(labels, net, empty_cost, cap)
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
    """A model is fitting iff all three fitness values equal 1 exactly."""
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
