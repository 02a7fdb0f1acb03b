"""The three workloads: inputs from a seed, one timed batch, output checks.

Every workload builds its inputs before any timing starts, runs a batch of
fixed work per timed sample, and checks that batch's outputs after the
clock has stopped.  A batch is split into ``Timebase`` segments (one
decision, one position, one log), and latencies are sampled inside them.
Each batch of a run does the same work, so its outputs must hash to the
same digest every time; a differing digest counts as a failed operation.
Operations are counted per workload:

* trial-smoke: one ``run_cell`` call;
* search-deep: one ``mcts_search`` call, plus one per parity spot-check;
* log-mine-align: one log taken through the whole pipeline.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

clock = time.perf_counter


@dataclass
class Batch:
    """What one timed batch produced, before its checks ran."""

    outputs: list
    decisions: int = 0
    cases: int = 0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    unsound: int = 0
    notes: list = field(default_factory=list)
    digest_parts: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.notes.append(message)
        return ok

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(repr(part).encode())
            h.update(b"\0")
        return h.hexdigest()[:16]


def _report_error(where: str) -> str:
    text = traceback.format_exc()
    print(f"{where} raised:\n{text}", file=sys.stderr)
    return text.strip().splitlines()[-1]


def _fitness_values(report):
    return (report.trace_fitness, report.move_model_fitness, report.move_log_fitness,
            report.raw_fitness_cost, report.trace_length, report.num_states,
            report.num_traces)


class Workload:
    name = ""

    def __init__(self, pm, probes, seed: int, workdir: Path):
        self.pm = pm
        self.probes = probes
        self.seed = seed
        self.workdir = workdir
        self.first_digest = None

    def describe(self) -> str:
        raise NotImplementedError

    def run_batch(self, timebase) -> Batch:
        raise NotImplementedError

    def check(self, batch: Batch) -> Verdict:
        raise NotImplementedError

    def final_checks(self, verdict: Verdict) -> None:
        """Checks run once after all batches, outside every timed region."""

    def check_repeat(self, verdict: Verdict) -> None:
        """Every batch does the same work, so every digest must match."""
        digest = verdict.digest()
        if self.first_digest is None:
            self.first_digest = digest
        elif not verdict.check(digest == self.first_digest,
                               f"batch digest {digest} != first batch {self.first_digest}"):
            verdict.failed += 1


# ---------------------------------------------------------------------------
# trial-smoke


class TrialSmoke(Workload):
    """One smoke cell of trial 1 at iterations=100, written to a temp dir."""

    name = "trial-smoke"
    EPISODES = 2
    VALUE = 100

    def __init__(self, pm, probes, seed, workdir):
        super().__init__(pm, probes, seed, workdir)
        self.spec = pm.TrialSpec.smoke(1, episodes=self.EPISODES, seed=seed, workers=1)
        self.batch_index = 0

    def describe(self):
        s = self.spec
        return (f"run_cell(TrialSpec.smoke(1, episodes={s.episodes}, seed={s.seed}), "
                f"{self.VALUE}): sim depth {s.simulation_depth}, minimax depth "
                f"{s.minimax_depth}, {s.pieces_per_side} pieces per side")

    def run_batch(self, timebase):
        self.batch_index += 1
        out_dir = self.workdir / f"cell{self.batch_index}"
        self.probes.reset()
        try:
            cell = self.pm.trial.run_cell(self.spec, self.VALUE, out_dir)
            error = None
        except Exception:
            cell, error = None, _report_error("run_cell")
        probes = self.probes
        return Batch(outputs=[(cell, error, out_dir, probes.projection_mismatches,
                               probes.alignments)],
                     decisions=probes.decisions_done,
                     cases=2 * self.EPISODES)

    def check(self, batch):
        pm = self.pm
        v = Verdict()
        (cell, error, out_dir, mismatches, alignments), = batch.outputs
        v.attempted = 1
        try:
            ok = v.check(error is None, f"run_cell failed: {error}")
            if ok:
                ok &= v.check(sum(cell.winners.values()) + cell.draws == cell.episodes
                              == self.EPISODES,
                              f"winners {cell.winners} + draws {cell.draws} != "
                              f"{self.EPISODES} episodes")
                for err in cell.errors:
                    if "ModelUnsoundError" in err:
                        v.unsound += 1
                    else:
                        ok &= v.check(False, f"cell error: {err}")
                for key, verdict in sorted(cell.classifications.items()):
                    if key.endswith("-inductive"):
                        ok &= v.check(verdict == pm.conformance.FITTING,
                                      f"{key} classified {verdict}, expected fitting")
                ok &= v.check(mismatches == 0 and alignments > 0,
                              f"{mismatches} of {alignments} alignments do not "
                              f"project onto their trace")
                for color in ("red", "white"):
                    csv_log = pm.import_log(out_dir / f"{color}_eventlog.csv")
                    xes_log = pm.import_log(out_dir / f"{color}_eventlog.xes")
                    ok &= v.check(csv_log == xes_log and len(csv_log) == self.EPISODES,
                                  f"{color} CSV and XES exports disagree")
                    v.digest_parts.append((color, csv_log.traces()))
                v.digest_parts += [cell.winners, cell.draws,
                                   sorted(cell.classifications.items()),
                                   sorted((k, _fitness_values(r))
                                          for k, r in cell.reports.items())]
            v.failed = 0 if ok else 1
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.check_repeat(v)
        return v


# ---------------------------------------------------------------------------
# search-deep


@dataclass(frozen=True)
class Position:
    board: object
    side: object
    legal: tuple


class SearchDeep(Workload):
    """mcts_search at paper depths from a seeded bag of midgame positions."""

    name = "search-deep"
    DISTINCT = 196
    REPEATS = 4
    ITERATIONS = 2
    SIM_DEPTH = 30
    MINIMAX_DEPTH = 3
    PARITY_POSITIONS = 4

    def __init__(self, pm, probes, seed, workdir):
        super().__init__(pm, probes, seed, workdir)
        self.cfg = pm.SearchConfig(iterations=self.ITERATIONS,
                                   simulation_depth=self.SIM_DEPTH,
                                   minimax_depth=self.MINIMAX_DEPTH)
        rng = random.Random(seed)
        bag, seen = [], set()
        i = 0
        while len(bag) < self.DISTINCT:
            # every third position is a 12-a-side board after 6-18 plies, the
            # rest 3-a-side after 6-9 plies; the counts cycle so that every
            # seed draws the same mix.  Later 3-a-side positions vary more in
            # cost (games end inside rollouts), which made the median swing
            if i % 3 == 0:
                pos = self._random_position(rng, 12, 6 + (i * 5) % 13)
            else:
                pos = self._random_position(rng, 3, 6 + i % 4)
            i += 1
            key = (pos.board.state, pos.side)
            if key not in seen:
                seen.add(key)
                bag.append(pos)
        for _ in range(self.REPEATS):
            bag.insert(rng.randrange(len(bag) + 1), bag[rng.randrange(len(bag))])
        self.bag = bag
        self.first_moves: dict = {}

    def _random_position(self, rng, pieces, plies):
        pm = self.pm
        while True:
            board, side = pm.initial_board(pieces), pm.Color.RED
            for _ in range(plies):
                if pm.winner(board, side) is not None:
                    break
                moves = pm.legal_moves(board, side)
                board = pm.apply_move(board, moves[rng.randrange(len(moves))])
                side = side.opponent
            else:
                legal = pm.legal_moves(board, side)
                if pm.winner(board, side) is None and len(legal) >= 2:
                    return Position(board, side, tuple(legal))

    def describe(self):
        twelve = sum(1 for p in self.bag if p.board.pieces_per_side == 12)
        return (f"{len(self.bag)} positions ({self.REPEATS} repeated, {twelve} with 12 "
                f"pieces per side, the rest with 3); iterations {self.ITERATIONS}, "
                f"sim depth {self.SIM_DEPTH}, minimax depth {self.MINIMAX_DEPTH}")

    def run_batch(self, timebase):
        search = self.pm.search
        cfg = self.cfg
        outputs = []
        for pos in self.bag:
            t0 = clock()
            try:
                result = search.mcts_search(pos.board, pos.side, cfg)
                error = None
            except Exception:
                result, error = None, _report_error("mcts_search")
            timebase.sample((clock() - t0) * 1000.0)
            timebase.mark()
            outputs.append((pos, result, error))
        return Batch(outputs=outputs, decisions=len(outputs), cases=len(outputs))

    def check(self, batch):
        v = Verdict()
        for pos, result, error in batch.outputs:
            v.attempted += 1
            ok = v.check(error is None, f"mcts_search raised {error}")
            if ok:
                ok = v.check(result is not None and result[0] in pos.legal,
                             f"returned move {result and result[0]} is not legal")
            if ok:
                move = result[0]
                key = (pos.board.state, pos.side)
                first = self.first_moves.setdefault(key, move)
                ok = v.check(first == move, f"repeated position gave {move}, first {first}")
                v.digest_parts.append((move.piece_id, move.from_pos, move.to_pos,
                                       move.captured_ids))
            if not ok:
                v.failed += 1
        self.check_repeat(v)
        return v

    def final_checks(self, verdict):
        """Spot-checks the compiled kernel against the pure twin."""
        pm = self.pm
        if pm.kernel_backend != "compiled":
            print("parity spot-check: skipped, the pure kernel is the only backend "
                  "built here, so there is nothing to compare against")
            return
        pure = pm.kernel._pykernel
        rw = self.cfg.reward
        for pos in self.bag[:self.PARITY_POSITIONS]:
            state, side = pos.board.state, pos.side.value
            for op, args in (
                    ("minimax", (state, side, side, self.MINIMAX_DEPTH, rw.forced_capture,
                                 rw.capture_points, rw.crown_points, self.cfg.king_weight)),
                    ("rollout", (state, side, self.SIM_DEPTH, self.MINIMAX_DEPTH,
                                 rw.forced_capture, rw.capture_points, rw.crown_points,
                                 self.cfg.king_weight))):
                verdict.attempted += 1
                compiled = getattr(pm.kernel, op)(*args)
                reference = getattr(pure, op)(*args)
                if not verdict.check(compiled == reference,
                                     f"{op} parity: compiled {compiled!r} != pure {reference!r}"):
                    verdict.failed += 1
        print(f"parity spot-check: compiled vs pure minimax and rollout on "
              f"{self.PARITY_POSITIONS} positions")


# ---------------------------------------------------------------------------
# log-mine-align


class LogMineAlign(Workload):
    """Varied event logs through export, import, mining, alignment, queries.

    ``fitness_metrics`` runs on the inductive net only.  Nearly every alpha
    net of these logs is unsound, and ``fitness_metrics`` detects that only
    by exhausting its bounded alignment search.  That usually takes
    milliseconds, but on the development host it took 1-11 s for a few logs
    in a hundred, and for one log more than 4 minutes and 1.1 GB before it
    was stopped.  A run must end in bounded time, so alpha-net conformance
    is measured on trial-smoke, where it is bounded.
    """

    name = "log-mine-align"
    LOGS = 80
    VARIANTS = 8
    REPEATS = 4
    EVENTS = 10
    PIECES = 3

    def __init__(self, pm, probes, seed, workdir):
        super().__init__(pm, probes, seed, workdir)
        rng = random.Random(seed)
        self.logs = [self._random_log(rng, pm.Color.RED if i % 2 else pm.Color.WHITE)
                     for i in range(self.LOGS)]

    def _random_trace(self, rng, color):
        """``EVENTS`` decisions of ``color`` in one game of random legal play."""
        pm = self.pm
        while True:
            board, side = pm.initial_board(self.PIECES), pm.Color.RED
            steps, last_id, last_move = [], -1, ()
            while len(steps) < self.EVENTS and pm.winner(board, side) is None:
                moves = pm.legal_moves(board, side)
                move = moves[rng.randrange(len(moves))]
                movement = pm.abstract_move(move.from_pos, move.to_pos)
                if side is color:
                    steps.append(pm.StepRecord(last_id, last_move, move.piece_id,
                                               movement, move.captured_ids, move.reward))
                last_id, last_move = move.piece_id, movement
                board = pm.apply_move(board, move)
                side = side.opponent
            if len(steps) == self.EVENTS:
                return steps

    def _random_log(self, rng, color):
        label_for = self.pm.eventlog.label_for
        variants, seen = [], set()
        while len(variants) < self.VARIANTS:
            steps = self._random_trace(rng, color)
            key = tuple(label_for(s) for s in steps)
            if key not in seen:
                seen.add(key)
                variants.append(steps)
        cases = variants + [variants[rng.randrange(len(variants))]
                            for _ in range(self.REPEATS)]
        rng.shuffle(cases)
        return self.pm.build_event_log(enumerate(cases, start=1))

    def describe(self):
        return (f"{self.LOGS} logs of {self.VARIANTS + self.REPEATS} cases "
                f"({self.VARIANTS} distinct variants, {self.REPEATS} repeats), "
                f"{self.EVENTS} events per case, random legal play with "
                f"{self.PIECES} pieces per side")

    def _explain(self, view, timebase):
        """recommend for every observed context, why_not for every observed
        alternative; returns the answers as plain tuples."""
        explain = self.pm.explain
        answers = []
        for layer in range(1, len(view) + 1):
            # context -> {action: reward of its first entry}, as why_not reads it
            by_context: dict = {}
            best: dict = {}
            for entry in view.layer(layer):
                by_context.setdefault(entry.context, {}).setdefault(entry.action,
                                                                    entry.reward)
                best[entry.context] = max(best.get(entry.context, entry.reward),
                                          entry.reward)
            for context, actions in by_context.items():
                t0 = clock()
                rec = explain.recommend(view, layer, context)
                timebase.sample((clock() - t0) * 1000.0)
                answers.append(("rec", layer, context, rec.action, rec.reward, rec.kind,
                                best[context]))
                for action, reward in actions.items():
                    t0 = clock()
                    report = explain.why_not(view, layer, context, action)
                    timebase.sample((clock() - t0) * 1000.0)
                    answers.append(("why", layer, context, action, report.gap,
                                    rec.reward - reward))
        return answers

    def _pipeline(self, index, log, timebase):
        pm = self.pm
        eventlog, discovery, conformance = pm.eventlog, pm.discovery, pm.conformance
        base = self.workdir / f"log{index}"
        eventlog.export_log(log, base.with_suffix(".csv"), "csv")
        eventlog.export_log(log, base.with_suffix(".xes"), "xes")
        from_csv = eventlog.import_log(base.with_suffix(".csv"))
        from_xes = eventlog.import_log(base.with_suffix(".xes"))
        alpha_net = discovery.alpha_miner(from_xes)
        inductive_net = discovery.tree_to_net(discovery.inductive_miner(from_xes))
        before = self.probes.projection_mismatches
        inductive = conformance.fitness_metrics(from_xes, inductive_net)
        mismatches = self.probes.projection_mismatches - before
        view = pm.explain.layered_view(from_xes)
        answers = self._explain(view, timebase)
        return from_csv, from_xes, alpha_net, inductive_net, inductive, mismatches, answers

    def run_batch(self, timebase):
        outputs = []
        for index, log in enumerate(self.logs):
            try:
                result, error = self._pipeline(index, log, timebase), None
            except Exception:
                result, error = None, _report_error(f"log {index}")
            timebase.mark()
            outputs.append((log, result, error))
        cases = sum(len(log) for log in self.logs)
        events = sum(len(labels) for log in self.logs for _, labels in log.traces())
        return Batch(outputs=outputs, decisions=events, cases=cases)

    def check(self, batch):
        pm = self.pm
        net_to_json = pm.petri.net_to_json
        classify = pm.conformance.classify_fitting
        v = Verdict()
        for index, (log, result, error) in enumerate(batch.outputs):
            v.attempted += 1
            ok = v.check(error is None, f"log {index}: {error}")
            if ok:
                (from_csv, from_xes, alpha_net, inductive_net, inductive,
                 mismatches, answers) = result
                ok &= v.check(from_csv == log, f"log {index}: CSV round trip differs")
                ok &= v.check(from_xes == log, f"log {index}: XES round trip differs")
                ok &= v.check(classify(inductive) == pm.conformance.FITTING,
                              f"log {index}: inductive net is {classify(inductive)}")
                ok &= v.check(mismatches == 0,
                              f"log {index}: {mismatches} alignments do not project "
                              f"onto their trace")
                for answer in answers:
                    if answer[0] == "rec":
                        ok &= v.check(answer[4] == answer[6],
                                      f"log {index}: recommend {answer} misses the "
                                      f"best observed reward")
                    else:
                        ok &= v.check(answer[4] == answer[5] >= 0,
                                      f"log {index}: why_not {answer} has a wrong gap")
                v.digest_parts += [net_to_json(alpha_net), net_to_json(inductive_net),
                                   _fitness_values(inductive), answers]
            if not ok:
                v.failed += 1
        self.check_repeat(v)
        return v


WORKLOADS = {w.name: w for w in (TrialSmoke, SearchDeep, LogMineAlign)}
