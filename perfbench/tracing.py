"""Probes and spans recorded around calls into playmine's layers.

Everything here works by replacing module attributes of the imported
package (``playmine.kernel.rollout``, ``playmine.episodes.mcts_search``,
``playmine.trial.MINERS["alpha"]`` ...) for the duration of a ``with``
block and restoring them afterwards.  No file of the package is edited.

Two kinds of wrapper exist:

* ``Probes`` are installed for the whole run, traced or not.  They reach
  boundaries the public API does not expose: the latency of each decision
  inside a trial cell (which also closes a ``Timebase`` segment) and each
  alignment's log projection, which must equal the aligned trace.
* ``Tracer`` spans are installed only around traced batches.  A span is
  (name, start, end, parent); self time is a span's duration minus the
  durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

clock = time.perf_counter


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


@contextmanager
def patched(replacements):
    """Applies ``(owner, key, make_wrapper)`` replacements, restores on exit.

    ``owner`` is a module, a class or a dict; ``make_wrapper`` receives the
    current value and returns its replacement.
    """
    saved = []
    try:
        for owner, key, make in replacements:
            old = _get(owner, key)
            saved.append((owner, key, old))
            _set(owner, key, make(old))
        yield
    finally:
        for owner, key, old in reversed(saved):
            _set(owner, key, old)


class Probes:
    """Always-on checks: decision latency in trial cells, alignment output."""

    def __init__(self, pm):
        self.pm = pm
        self.timebase = None
        self.reset()

    def reset(self):
        self.decisions_done = 0
        self.alignments = 0
        self.projection_mismatches = 0

    def _timed_search(self, search):
        def mcts_search(*args, **kwargs):
            t0 = clock()
            result = search(*args, **kwargs)
            self.timebase.sample((clock() - t0) * 1000.0)
            self.timebase.mark()
            if result is not None:
                self.decisions_done += 1
            return result
        return mcts_search

    def _checked_alignment(self, align):
        def optimal_alignment(trace, *args, **kwargs):
            result = align(trace, *args, **kwargs)
            self.alignments += 1
            if result.log_projection != tuple(trace):
                self.projection_mismatches += 1
            return result
        return optimal_alignment

    def installed(self):
        pm = self.pm
        return patched([
            (pm.episodes, "mcts_search", self._timed_search),
            (pm.conformance, "optimal_alignment", self._checked_alignment),
        ])


KERNEL_OPS = ("gen_moves", "side_has_moves", "piece_counts", "evaluate",
              "winner", "minimax", "rollout")


class Tracer:
    """Records spans and counts for the batches run through ``batch()``."""

    def __init__(self, pm):
        self.pm = pm
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.batches = 0
        self.rollout_distinct: list[float] = []
        self._stack: list[int] = []
        self._rollout_keys: set = set()
        self._rollout_calls = 0

    # -- wrappers -------------------------------------------------------

    def span(self, name, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        raised = f"{name}.raised_s"

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                rec = [name, clock(), 0.0, stack[-1] if stack else -1]
                spans.append(rec)
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts[raised] += clock() - rec[1]
                    raise
                finally:
                    rec[2] = clock()
                    stack.pop()
                if after is not None:
                    after(counts, args, kwargs, result)
                return result
            return wrapper
        return make

    def counter(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- count hooks ----------------------------------------------------

    def _after_rollout(self, counts, args, kwargs, result):
        self._rollout_calls += 1
        self._rollout_keys.add(args)

    @staticmethod
    def _after_episode(counts, args, kwargs, result):
        counts["episodes.play_episode.turns"] += result.turns
        max_turns = kwargs.get("max_turns")
        if result.winner is None and max_turns is not None and result.turns >= max_turns:
            counts["episodes.play_episode.draws_at_cap"] += 1

    @staticmethod
    def _after_export(counts, args, kwargs, result):
        counts["eventlog.export_log.bytes"] += os.path.getsize(args[1])

    @staticmethod
    def _after_alpha(counts, args, kwargs, result):
        counts["discovery.alpha_miner.places"] += len(result.places)

    @staticmethod
    def _after_alignment(counts, args, kwargs, result):
        counts["conformance.optimal_alignment.states"] += result.states_explored

    @staticmethod
    def _after_fitness(counts, args, kwargs, result):
        traces = [labels for _, labels in args[0].traces()]
        counts["conformance.cases_aligned"] += len(traces)
        counts["conformance.variants_aligned"] += len(set(traces))

    def _replacements(self):
        pm = self.pm
        s = self.span
        reps = [(pm.kernel, op, s(f"kernel.{op}")) for op in KERNEL_OPS if op != "rollout"]
        reps.append((pm.kernel, "rollout", s("kernel.rollout", self._after_rollout)))
        reps += [
            (pm.board, "moves_with_boards", s("board.moves_with_boards")),
            (pm.search, "moves_with_boards", s("board.moves_with_boards")),
            (pm.search, "winner", s("board.winner")),
            (pm.episodes, "winner", s("board.winner")),
            (pm.search, "mcts_search", s("search.mcts_search")),
            (pm.episodes, "mcts_search", s("search.mcts_search")),
            (pm.trial, "play_episode", s("episodes.play_episode", self._after_episode)),
            (pm.trial, "build_event_log", s("eventlog.build_event_log")),
            (pm.trial, "export_episode_table", s("eventlog.export_episode_table")),
            (pm.trial, "export_log", s("eventlog.export_log", self._after_export)),
            (pm.eventlog, "export_log", s("eventlog.export_log", self._after_export)),
            (pm.eventlog, "import_log", s("eventlog.import_log")),
            (pm.trial.MINERS, "alpha", s("discovery.alpha_miner", self._after_alpha)),
            (pm.discovery, "alpha_miner", s("discovery.alpha_miner", self._after_alpha)),
            (pm.trial, "inductive_miner", s("discovery.inductive_miner")),
            (pm.discovery, "inductive_miner", s("discovery.inductive_miner")),
            (pm.trial, "tree_to_net", s("discovery.tree_to_net")),
            (pm.discovery, "tree_to_net", s("discovery.tree_to_net")),
            (pm.trial, "fitness_metrics", s("conformance.fitness_metrics", self._after_fitness)),
            (pm.conformance, "fitness_metrics",
             s("conformance.fitness_metrics", self._after_fitness)),
            (pm.conformance, "optimal_alignment",
             s("conformance.optimal_alignment", self._after_alignment)),
            (pm.petri.PetriNet, "is_enabled", self.counter("petri.is_enabled.calls")),
            (pm.petri.PetriNet, "fire", self.counter("petri.fire.calls")),
            (pm.explain, "layered_view", s("explain.layered_view")),
            (pm.explain, "recommend", s("explain.recommend")),
            (pm.explain, "why_not", s("explain.why_not")),
            (pm.trial, "run_cell", s("trial.run_cell")),
        ]
        return reps

    def batch(self, run):
        """Runs one batch with tracing on; returns its result."""
        self._rollout_keys = set()
        self._rollout_calls = 0
        with patched(self._replacements()):
            result = run()
        self.batches += 1
        if self._rollout_calls:
            self.rollout_distinct.append(len(self._rollout_keys) / self._rollout_calls)
        return result

    # -- derived numbers ------------------------------------------------

    def self_times(self):
        """Per span name: calls, and self seconds (duration minus the
        durations of direct children)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
        return calls, own

    def write(self, path, meta):
        """Spans as gzip'd CSV (index,name,start,end,parent) plus a JSON of
        counts and metadata next to it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t_base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t_base:.9f},{end - t_base:.9f},{parent}\n")
        counts_path = path.with_name(path.name.replace(".csv.gz", ".counts.json"))
        counts_path.write_text(json.dumps({**meta, "batches": self.batches,
                                           "counts": dict(self.counts)}, indent=2))
        return counts_path
