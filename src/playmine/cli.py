"""Command line front end for the whole pipeline.

Subcommands: play (self-play batches), mine (discover a net from a log),
check (conformance of a log against a net), explain (post-hoc queries),
trial (parameter sweeps) and render (net to dot).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .board import PIECES_PER_SIDE_DEFAULT, RewardConfig
from .conformance import (
    ModelUnsoundError,
    classify_fitting,
    fitness_metrics,
    write_report_csv,
)
from .episodes import MAX_TURNS_DEFAULT
from .eventlog import import_log
from .explain import LOOKAHEAD_DEFAULT, Explainer, NotFittingError, parse_context_string
from .petri import load_net, save_dot, save_net
from .search import SearchConfig
from .trial import (
    MINERS,
    TrialSpec,
    check_batch_settings,
    episode_logs,
    run_episodes,
    run_trial,
)


# What mine, check, explain and render raise for a missing, empty or
# malformed log or net, an unsound or non-fitting net, or a query the log
# cannot answer; main reports it in one stderr line with exit code 1.
INPUT_ERRORS = (OSError, ValueError, LookupError, ModelUnsoundError, NotFittingError)


def _add_game_flags(p: argparse.ArgumentParser, episodes) -> None:
    """play's and trial's flags; all defaults but ``episodes`` are the library's."""
    reward = RewardConfig()
    p.add_argument("--episodes", type=int, default=episodes)
    p.add_argument("--pieces", type=int, default=PIECES_PER_SIDE_DEFAULT)
    p.add_argument("--seed", type=int, default=TrialSpec.seed)
    p.add_argument("--workers", type=int, default=TrialSpec.workers)
    p.add_argument("--forced-capture", action=argparse.BooleanOptionalAction,
                   default=reward.forced_capture)
    p.add_argument("--reward-capture", type=int, default=reward.capture_points)
    p.add_argument("--reward-crown", type=int, default=reward.crown_points)
    p.add_argument("--pruning", action="store_true")
    p.add_argument("--bfs-feature", action="store_true")
    p.add_argument("--max-turns", type=int, default=MAX_TURNS_DEFAULT)


def _reward_config(args) -> RewardConfig:
    return RewardConfig(capture_points=args.reward_capture,
                        crown_points=args.reward_crown,
                        forced_capture=args.forced_capture)


def _out_dir(path) -> Path:
    """Creates the ``--out`` directory of play or trial; a path that cannot
    be one (an existing file, say) is a ValueError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use --out {path}: {exc.strerror}") from exc
    return out


def _cmd_play(args) -> int:
    try:
        cfg = SearchConfig(iterations=args.iterations,
                           simulation_depth=args.sim_depth,
                           minimax_depth=args.minimax_depth,
                           pruning_enabled=args.pruning,
                           reward=_reward_config(args))
        check_batch_settings(args.episodes, args.workers, args.pieces, args.max_turns)
        out = _out_dir(args.out)
    except ValueError as exc:  # before any episode runs
        print(f"playmine play: {exc}", file=sys.stderr)
        return 2
    episodes = run_episodes(cfg, (args.seed, "play"), args.episodes, args.pieces,
                            args.max_turns, args.bfs_feature, args.workers)
    for ep in episodes:
        outcome = "draw" if ep.winner is None else f"{ep.winner.name.lower()} won"
        # the episode's own share of its chunk's memo
        steps, hits, _, _ = ep.memo_counts
        share = hits / steps if steps else 0.0
        print(f"episode {ep.episode_id} finished after {ep.turns} turns: {outcome}; "
              f"memo answered {share:.1%} of its {steps} rollout steps")
    episode_logs(episodes, out, (args.format,))
    print(f"wrote episode tables and event logs to {out}")
    return 0


def _cmd_mine(args) -> int:
    net = MINERS[args.miner](import_log(args.log))
    save_net(net, args.out)
    print(f"{args.miner} miner: {net!r} -> {args.out}")
    if args.dot:
        save_dot(net, args.dot)
        print(f"rendered to {args.dot}")
    return 0


def _cmd_check(args) -> int:
    report = fitness_metrics(import_log(args.log), load_net(args.net))
    verdict = classify_fitting(report)
    print(f"trace fitness:      {report.trace_fitness:.4f}")
    print(f"move-model fitness: {report.move_model_fitness:.4f}")
    print(f"move-log fitness:   {report.move_log_fitness:.4f}")
    print(f"raw fitness cost:   {report.raw_fitness_cost:.2f}")
    print(f"classification:     {verdict}")
    if args.out:
        write_report_csv({Path(args.net).stem: report}, args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_explain(args) -> int:
    explainer = Explainer.from_log(import_log(args.log), lookahead=args.lookahead)
    context = parse_context_string(args.context)
    rec = explainer.recommend(args.layer, context)
    if args.alternative:
        alt = parse_context_string(args.alternative)
        report = explainer.why_not(args.layer, context, alt)
    payload = {
        "layer": args.layer,
        "context": list(context),
        "recommendation": {
            "action": list(rec.action), "reward": rec.reward, "kind": rec.kind,
            "ranked": [[list(a), r] for a, r in rec.ranked],
        },
    }
    print(rec.render())
    if args.alternative:
        print(report.render())
        payload["why_not"] = {
            "alternative": list(alt), "reward": report.alternative_reward,
            "gap": report.gap,
        }
    if args.json:
        print(json.dumps(payload, default=str))
    return 0


def _cmd_trial(args) -> int:
    builder = TrialSpec.smoke if args.profile == "smoke" else TrialSpec.paper
    overrides = {"workers": args.workers, "seed": args.seed,
                 "pieces_per_side": args.pieces,
                 "pruning_enabled": args.pruning,
                 "bfs_feature": args.bfs_feature,
                 "max_turns": args.max_turns}
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    try:
        spec = builder(args.trial, reward=_reward_config(args), **overrides)
        _out_dir(args.out)
    except ValueError as exc:  # before any episode runs
        print(f"playmine trial: {exc}", file=sys.stderr)
        return 2
    for cell in run_trial(spec, args.out):
        status = ", ".join(f"{k}={v}" for k, v in sorted(cell.classifications.items()))
        print(f"{spec.sweep_param}={cell.value}: winners {cell.winners}, "
              f"draws {cell.draws} | {status}")
        for err in cell.errors:
            print(f"  error in {spec.sweep_param}={cell.value}: {err}", file=sys.stderr)
    print(f"trial outputs in {args.out}")
    return 0


def _cmd_render(args) -> int:
    net = load_net(args.net)
    save_dot(net, args.out)
    print(f"rendered {args.net} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="playmine",
        description="Self-play checkers agents, event-log mining and "
                    "model-based explanations.")
    sub = parser.add_subparsers(dest="command", required=True)

    search = SearchConfig()
    p = sub.add_parser("play", help="run self-play episodes and export logs")
    p.add_argument("--iterations", type=int, default=search.iterations)
    p.add_argument("--sim-depth", type=int, default=search.simulation_depth)
    p.add_argument("--minimax-depth", type=int, default=search.minimax_depth)
    _add_game_flags(p, episodes=10)
    p.add_argument("--format", choices=("csv", "xes"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("mine", help="discover a net from an event log")
    p.add_argument("--log", required=True)
    p.add_argument("--miner", choices=tuple(MINERS), default="inductive")
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_mine, failure="cannot mine")

    p = sub.add_parser("check", help="alignment-based conformance of log vs net")
    p.add_argument("--log", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check, failure="cannot replay")

    p = sub.add_parser("explain", help="post-hoc queries on a mined model")
    p.add_argument("--log", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--context", required=True,
                   help="e.g. \"(3,(left,down))\" or \"(-1,())\"")
    p.add_argument("--alternative", help="action to ask 'why not' about")
    p.add_argument("--lookahead", type=int, default=LOOKAHEAD_DEFAULT)
    p.add_argument("--json", action="store_true",
                   help="also print the machine-readable form")
    p.set_defaults(func=_cmd_explain, failure="cannot explain")

    p = sub.add_parser("trial", help="run a parameter-sweep trial at a profile's depths")
    _add_game_flags(p, episodes=None)  # None: the profile's episode count
    p.add_argument("--trial", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--profile", choices=("smoke", "paper"), default="smoke")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trial)

    p = sub.add_parser("render", help="export a saved net as dot")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render, failure="cannot render")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    failure = getattr(args, "failure", None)
    if failure is None:  # play and trial refuse bad settings themselves, with code 2
        return args.func(args)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"{failure}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
