#!/usr/bin/env python3
"""playmine benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trial-smoke --seed 1 --seconds 30 --trace 0

Workloads: trial-smoke, search-deep, log-mine-align (see perfbench/README.md);
``--workload all`` runs each of them in its own process, one after another.
The program is imported from ``src/`` of the checkout this file sits in.
Batches of fixed work repeat until the next one would end after
``--seconds``; each batch's outputs are checked after its clock stops.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches, writes the traced spans and counts under
``.perfbench-out/``, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

from timebase import Timebase  # noqa: E402
from tracing import Probes, Tracer  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

clock = time.perf_counter

SETUP_RUNS = 9
# the host's memory is shared: a runaway search fails with MemoryError
# instead of growing without bound
ADDRESS_SPACE_LIMIT = 2 << 30
TAIL_PERCENTILE = 90
SETUP_SNIPPET = (
    "import playmine, playmine.kernel as k; "
    "k.gen_moves(playmine.initial_board(3).state, 0, True, 7, 7)"
)


def import_playmine():
    """Imports the package from this checkout's src/, or exits non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import playmine
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import playmine from {SRC}: {exc}")
    origin = Path(playmine.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: playmine imported from {origin}, not from {SRC}")
    return playmine


def measure_setup() -> tuple[list[float], list[float]]:
    """Scaled and raw wall times of fresh interpreters that import playmine
    and make one kernel call; one discarded warm-up run fills any on-disk
    caches first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    scaled, raw = [], []
    tb = Timebase()
    tb.start()
    for i in range(SETUP_RUNS + 1):
        before_scaled, before_raw = tb.scaled, tb.raw
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        tb.mark()
        if i:
            scaled.append(tb.scaled - before_scaled)
            raw.append(tb.raw - before_raw)
    return scaled, raw


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "playmine").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def percentile(samples, pct):
    return statistics.quantiles(samples, n=100)[pct - 1]


class Totals:
    """Outcome of every batch in the run, checked outside the clock."""

    def __init__(self):
        self.walls, self.raw_walls, self.decision_ms = [], [], []
        self.decisions = self.cases = 0
        self.attempted = self.failed = self.unsound = 0
        self.notes, self.digests = [], []

    def add(self, timebase, batch, verdict):
        self.walls.append(timebase.scaled)
        self.raw_walls.append(timebase.raw)
        self.decision_ms += timebase.samples
        self.decisions += batch.decisions
        self.cases += batch.cases
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.unsound += verdict.unsound
        self.notes += verdict.notes
        self.digests.append(verdict.digest())


def run_batches(step, seconds):
    """Calls ``step`` (one batch, or one untraced/traced pair) at least once,
    and again while the next call is expected to end no later than half a
    call after ``seconds``."""
    start = clock()
    lengths = []
    while True:
        t0 = clock()
        step()
        lengths.append(clock() - t0)
        if clock() - start + statistics.median(lengths) / 2 > seconds:
            return


def timed_batch(workload, totals, scaled=True, tracer=None):
    """One batch, timed in ``Timebase`` segments (raw when not ``scaled``),
    then checked."""
    timebase = Timebase(enabled=scaled)
    workload.probes.timebase = timebase
    timebase.start()
    if tracer is None:
        batch = workload.run_batch(timebase)
    else:
        batch = tracer.batch(lambda: workload.run_batch(timebase))
    timebase.mark()
    verdict = workload.check(batch)
    totals.add(timebase, batch, verdict)
    return verdict


def end_to_end(totals, setup):
    lat = totals.decision_ms
    busy = sum(totals.walls)
    return {
        "setup_s": (statistics.median(setup[0]), "s"),
        "wall_s": (statistics.median(totals.walls), "s"),
        "turns_per_s": (totals.decisions / busy, "1/s"),
        "cases_per_s": (totals.cases / busy, "1/s"),
        "decision_ms_p50": (statistics.median(lat), "ms"),
        "decision_ms_tail": (percentile(lat, TAIL_PERCENTILE), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced_walls, plain_walls, traced_unsound):
    calls, own = tracer.self_times()
    nb = tracer.batches
    counts = tracer.counts
    m = {}

    def n(name):
        return calls[name] / nb

    def self_s(name):
        return own[name] / nb

    def us_per_call(name):
        return own[name] / calls[name] * 1e6 if calls[name] else 0.0

    m["kernel.calls"] = (sum(c for k, c in calls.items() if k.startswith("kernel.")) / nb,
                         "count")
    for name in ("kernel.rollout", "kernel.gen_moves", "kernel.winner",
                 "board.moves_with_boards", "search.mcts_search",
                 "episodes.play_episode"):
        m[f"{name}.calls"] = (n(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["kernel.rollout.us_per_call"] = (us_per_call("kernel.rollout"), "us")
    m["kernel.rollout.distinct_ratio"] = (
        statistics.mean(tracer.rollout_distinct) if tracer.rollout_distinct else 0.0, "ratio")
    m["board.winner.self_s"] = (self_s("board.winner"), "s")
    m["episodes.play_episode.turns"] = (counts["episodes.play_episode.turns"] / nb, "count")
    m["episodes.play_episode.draws_at_cap"] = (
        counts["episodes.play_episode.draws_at_cap"] / nb, "count")
    for name in ("eventlog.build_event_log", "eventlog.export_log", "eventlog.import_log",
                 "eventlog.export_episode_table", "discovery.alpha_miner",
                 "discovery.inductive_miner", "discovery.tree_to_net",
                 "conformance.fitness_metrics", "trial.run_cell"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["eventlog.export_log.bytes"] = (counts["eventlog.export_log.bytes"] / nb, "B")
    m["discovery.alpha_miner.places"] = (counts["discovery.alpha_miner.places"] / nb, "count")
    align = "conformance.optimal_alignment"
    states = counts[f"{align}.states"]
    m[f"{align}.calls"] = (n(align), "count")
    m[f"{align}.self_s"] = (self_s(align), "s")
    m[f"{align}.states"] = (states / nb, "count")
    m[f"{align}.states_per_s"] = (states / own[align] if own[align] else 0.0, "1/s")
    aligned = counts["conformance.cases_aligned"]
    m["conformance.variant_reuse"] = (
        1.0 - counts["conformance.variants_aligned"] / aligned if aligned else 0.0, "ratio")
    m["conformance.unsound"] = (traced_unsound / nb, "count")
    m["conformance.unsound_s"] = (counts["conformance.fitness_metrics.raised_s"] / nb, "s")
    m["petri.is_enabled.calls"] = (counts["petri.is_enabled.calls"] / nb, "count")
    m["petri.fire.calls"] = (counts["petri.fire.calls"] / nb, "count")
    for name in ("explain.layered_view", "explain.recommend", "explain.why_not"):
        m[f"{name}.calls"] = (n(name), "count")
        m[f"{name}.us_per_call"] = (us_per_call(name), "us")
    traced_wall = statistics.median(traced_walls)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead"] = (traced_wall / statistics.median(plain_walls) - 1.0, "ratio")
    m["trace.spans"] = (len(tracer.spans) / nb, "count")
    return m


def run_all(args):
    """Runs every workload in its own process and prints each report in
    turn; the last line merges the results, metric names prefixed with the
    workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if not lines:
            sys.exit(f"perfbench: {name} printed no result (exit code {proc.returncode})")
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT
    if soft != resource.RLIM_INFINITY:
        limit = min(soft, limit)
    if hard == resource.RLIM_INFINITY or limit <= hard:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    pm = import_playmine()
    setup = measure_setup() if args.trace == 0 else None

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"kernel_backend {pm.kernel_backend}  nproc {os.cpu_count()}  python "
          f"{platform.python_version()}  commit {commit()}  source {source_digest()}")

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probes = Probes(pm)
    totals = Totals()
    plain = Totals()  # the untraced batches of a traced run
    tracer = Tracer(pm)
    extra = Verdict()
    try:
        with probes.installed():
            workload = WORKLOADS[args.workload](pm, probes, args.seed, workdir)
            print(f"inputs: {workload.describe()}")
            if args.trace == 0:
                run_batches(lambda: timed_batch(workload, totals), args.seconds)
            else:
                # tracing reports raw time, so its overhead is raw vs raw
                def pair():
                    timed_batch(workload, plain, scaled=False)
                    timed_batch(workload, totals, scaled=False, tracer=tracer)
                run_batches(pair, args.seconds)
            workload.final_checks(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = totals.attempted + plain.attempted + extra.attempted
    failed = totals.failed + plain.failed + extra.failed
    for note in totals.notes + plain.notes + extra.notes:
        print(f"CHECK FAILED: {note}")
    digests = sorted(set(totals.digests + plain.digests))
    print(f"output digest {' '.join(digests)}  ({len(totals.walls) + len(plain.walls)} "
          f"batches; one digest means every batch gave the same outputs)")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)  "
          f"unsound verdicts per batch {totals.unsound / len(totals.walls):g}")

    if args.trace == 0:
        metrics = end_to_end(totals, setup)
        print(f"decision latency samples {len(totals.decision_ms)}; tail is "
              f"p{TAIL_PERCENTILE} ({len(totals.decision_ms) * (100 - TAIL_PERCENTILE) // 100}"
              f" samples beyond it)")
        print(f"times are scaled by a reference loop (perfbench/timebase.py); raw: "
              f"wall_s median {statistics.median(totals.raw_walls):.6g} s, setup_s median "
              f"{statistics.median(setup[1]):.6g} s")
    else:
        metrics = per_layer(tracer, totals.walls, plain.walls, totals.unsound)
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.csv.gz"
        counts_path = tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "kernel_backend": pm.kernel_backend,
            "untraced_wall_s": plain.walls, "traced_wall_s": totals.walls})
        print(f"spans written to {trace_path.relative_to(ROOT)}, counts to "
              f"{counts_path.relative_to(ROOT)}; per-layer values are per traced batch")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
