"""Parameter-sweep trials: batches of episodes, mining and conformance.

One cell per swept parameter value.  Episodes are independently seeded from
(seed, trial, parameter, value, episode), so results are byte-identical
regardless of worker count or scheduling, and removing one sweep value
leaves every other cell's outputs untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

from .board import PIECES_PER_SIDE_DEFAULT, RewardConfig, check_counts, check_pieces_per_side
from .conformance import classify_fitting, fitness_metrics, write_report_csv
from .discovery import alpha_miner, inductive_miner, tree_to_net
from .episodes import MAX_TURNS_DEFAULT, EpisodeResult, derive_seed, play_episode
from .eventlog import build_event_log, export_episode_table, export_log
from .petri import save_dot, save_net
from .search import SearchConfig

SWEPT_PARAMS = {1: "iterations", 2: "simulation_depth", 3: "minimax_depth"}

PAPER_SWEEPS = {1: (1000, 2000, 3000), 2: (10, 20, 30), 3: (1, 2, 3)}
PAPER_FIXED = {"iterations": 3000, "simulation_depth": 30, "minimax_depth": 3}

SMOKE_SWEEPS = {1: (50, 100), 2: (5, 10), 3: (1, 2)}
SMOKE_FIXED = {"iterations": 100, "simulation_depth": 10, "minimax_depth": 1}


@dataclass(frozen=True)
class TrialSpec:
    trial: int
    sweep_values: tuple
    iterations: int
    simulation_depth: int
    minimax_depth: int
    episodes: int = 100
    workers: int = 1
    seed: int = 0
    pieces_per_side: int = PIECES_PER_SIDE_DEFAULT
    reward: RewardConfig = field(default_factory=RewardConfig)
    pruning_enabled: bool = False
    bfs_feature: bool = False
    max_turns: int = MAX_TURNS_DEFAULT

    def __post_init__(self):
        if self.trial not in SWEPT_PARAMS:
            raise ValueError("trial must be 1, 2 or 3")
        check_batch_settings(self.episodes, self.workers, self.pieces_per_side,
                             self.max_turns)
        # a bad sweep value fails here, not after the cells before it ran
        for value in self.sweep_values:
            self.cell_config(value)

    @property
    def sweep_param(self) -> str:
        return SWEPT_PARAMS[self.trial]

    def cell_config(self, value) -> SearchConfig:
        params = {name: getattr(self, name) for name in SWEPT_PARAMS.values()}
        params[self.sweep_param] = value
        return SearchConfig(reward=self.reward, pruning_enabled=self.pruning_enabled,
                            **params)

    @classmethod
    def paper(cls, trial: int, **overrides) -> "TrialSpec":
        return cls(trial=trial, sweep_values=PAPER_SWEEPS[trial], **PAPER_FIXED, **overrides)

    @classmethod
    def smoke(cls, trial: int, **overrides) -> "TrialSpec":
        overrides.setdefault("episodes", 10)
        return cls(trial=trial, sweep_values=SMOKE_SWEEPS[trial], **SMOKE_FIXED, **overrides)


@dataclass
class CellResult:
    value: object
    episodes: int
    winners: dict
    draws: int
    classifications: dict  # "{color}-{miner}" -> fitting/non-fitting
    reports: dict  # same keys -> FitnessReport
    errors: list
    out_dir: Path


def check_batch_settings(episodes: int, workers: int, pieces_per_side: int,
                         max_turns: int) -> None:
    """Raises ValueError unless a batch can run: ``episodes`` games on
    ``workers`` processes (both at least 1), each starting with
    ``pieces_per_side`` pieces a side (``check_pieces_per_side``) and
    capped at ``max_turns`` turns (at least 1); TypeError unless each is
    an int."""
    check_counts(episodes=episodes, workers=workers, pieces_per_side=pieces_per_side,
                 max_turns=max_turns)
    if episodes < 1 or workers < 1:
        raise ValueError("episodes and workers must be >= 1")
    check_pieces_per_side(pieces_per_side)
    if max_turns < 1:
        raise ValueError("max_turns must be >= 1")


def run_episodes(base_cfg: SearchConfig, seed_key: tuple, episodes: int,
                 pieces: int, max_turns: int, bfs_feature: bool,
                 workers: int) -> list[EpisodeResult]:
    """Plays episodes 1..``episodes`` in order on ``workers`` processes;
    episode i is seeded with ``derive_seed(*seed_key, i)``, so the results
    do not depend on ``workers``."""
    play = partial(play_episode, pieces_per_side=pieces, max_turns=max_turns,
                   bfs_feature=bfs_feature)
    ids = range(1, episodes + 1)
    cfgs = [replace(base_cfg, rng_seed=derive_seed(*seed_key, i)) for i in ids]
    if workers == 1:
        return list(map(play, cfgs, ids))
    # imported here: only a batch on several processes needs the pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(play, cfgs, ids))


def episode_logs(episodes: Sequence[EpisodeResult], out_dir: Path,
                 formats: Sequence[str]) -> dict:
    """The red and white event logs of ``episodes``; also writes each
    episode's two tables and each log in every one of ``formats`` to
    ``out_dir``."""
    traces = {"red": [(ep.episode_id, ep.red_trace) for ep in episodes],
              "white": [(ep.episode_id, ep.white_trace) for ep in episodes]}
    logs = {color: build_event_log(pairs) for color, pairs in traces.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    for color, pairs in traces.items():
        for episode_id, trace in pairs:
            export_episode_table(trace, out_dir / f"{color}_episode{episode_id}.csv")
        for fmt in formats:
            export_log(logs[color], out_dir / f"{color}_eventlog.{fmt}", fmt)
    return logs


MINERS = {
    "alpha": alpha_miner,
    "inductive": lambda log: tree_to_net(inductive_miner(log)),
}


def run_cell(spec: TrialSpec, value, out_dir: Path) -> CellResult:
    """Runs one sweep cell: episodes, exports, both miners, both colors;
    writes its files to ``out_dir``."""
    episodes = run_episodes(spec.cell_config(value),
                            (spec.seed, spec.trial, spec.sweep_param, value),
                            spec.episodes, spec.pieces_per_side, spec.max_turns,
                            spec.bfs_feature, spec.workers)
    winners = {"white": 0, "red": 0}
    draws = 0
    for ep in episodes:
        if ep.winner is None:
            draws += 1
        else:
            winners[ep.winner.name.lower()] += 1
    logs = episode_logs(episodes, out_dir, ("csv", "xes"))

    classifications = {}
    reports = {}
    errors = []
    for color, log in logs.items():
        for miner_name, miner in MINERS.items():
            key = f"{color}-{miner_name}"
            try:
                net = miner(log)
                report = fitness_metrics(log, net)
                reports[key] = report
                classifications[key] = classify_fitting(report)
                save_net(net, out_dir / f"{key}.json")
                save_dot(net, out_dir / f"{key}.dot")
            except Exception as exc:  # partial failures recorded, run continues
                errors.append(f"{key}: {exc!r}")

    if reports:
        write_report_csv(reports, out_dir / "global_statistics.csv")

    return CellResult(value=value, episodes=len(episodes), winners=winners,
                      draws=draws, classifications=classifications,
                      reports=reports, errors=errors, out_dir=out_dir)


def run_trial(spec: TrialSpec, out_dir) -> list[CellResult]:
    """Runs the sweep's cells under ``out_dir``, writes summary.json and
    returns the cells in sweep order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [run_cell(spec, value, out_dir / f"{spec.sweep_param}={value}")
             for value in spec.sweep_values]
    payload = {
        "trial": spec.trial,
        "sweep_param": spec.sweep_param,
        "episodes": spec.episodes,
        "seed": spec.seed,
        "cells": [
            {
                "value": c.value,
                "episodes": c.episodes,
                "winners": c.winners,
                "draws": c.draws,
                "classifications": c.classifications,
                "errors": c.errors,
            }
            for c in cells
        ],
    }
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2))
    return cells
