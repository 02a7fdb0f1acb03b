"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight shared
computation (the smoke trial: 10 episodes per cell at desk-scale search
settings) runs once in a session fixture.
"""

import random

import pytest

from playmine import kernel, prune_by_reward
from playmine.board import (
    Color,
    GameBoard,
    GamePiece,
    RewardConfig,
    legal_moves,
    winner,
)
from playmine.conformance import (
    FITTING,
    classify_fitting,
    fitness_metrics,
    optimal_alignment,
)
from playmine.discovery import (
    act,
    alpha_miner,
    inductive_miner,
    loop,
    par,
    seq,
    tau,
    tree_to_net,
)
from playmine.episodes import abstract_move
from playmine.eventlog import export_log, import_log
from playmine.petri import load_net
from playmine.search import SearchConfig, mcts_search
from playmine.trial import TrialSpec, run_trial
from helpers import mklog, random_endgame
from oracles import oracle_alignment_cost, oracle_minimax
from test_eventlog import random_log

TOL = 1e-12


def report_pass(name):
    print(f"PASS: {name}")


@pytest.fixture(scope="session")
def smoke_trial(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_trial")
    spec = TrialSpec.smoke(1)  # iterations in {50, 100}, sim 10, mm 1, 10 episodes
    return out, run_trial(spec, out)


def test_inductive_miner_perfect_fitness(smoke_trial):
    """Both 10-episode logs at iterations=100, sim=10, mm=1 mine to models
    with all three fitness values exactly 1."""
    out, summary = smoke_trial
    cell = next(c for c in summary.cells if c.value == 100)
    for color in ("red", "white"):
        log = import_log(cell.out_dir / f"{color}_eventlog.xes")
        assert len(log) == 10
        report = cell.reports[f"{color}-inductive"]
        assert abs(report.trace_fitness - 1.0) <= TOL
        assert abs(report.move_model_fitness - 1.0) <= TOL
        assert abs(report.move_log_fitness - 1.0) <= TOL
        assert classify_fitting(report) == FITTING
    report_pass("inductive-miner perfect fitness on desk-scale red and white logs")


def test_alpha_vs_inductive_loop_contrast():
    """On a repeated-activity loop log the alpha net under-fits while the
    inductive net replays perfectly."""
    log = mklog([("A", "B", "A", "B"), ("A", "B", "A", "B", "A", "B")])
    alpha_report = fitness_metrics(log, alpha_miner(log))
    inductive_report = fitness_metrics(log, tree_to_net(inductive_miner(log)))
    assert alpha_report.trace_fitness < 1.0
    assert abs(inductive_report.trace_fitness - 1.0) <= TOL
    assert abs(inductive_report.move_model_fitness - 1.0) <= TOL
    assert abs(inductive_report.move_log_fitness - 1.0) <= TOL
    report_pass("alpha vs inductive qualitative contrast on a looping log")


def test_alignment_optimality_against_oracle():
    """Every alignment cost across the structural net suite times the trace
    suite equals the independent relaxation oracle."""
    trees = [
        act("A"),
        seq(act("A"), act("B")),
        seq(act("A"), act("B"), act("C")),
        par(act("A"), act("B")),
        seq(act("A"), par(act("B"), act("C")), act("D")),
        loop(act("A"), act("B")),
        loop(seq(act("A"), act("B")), act("C")),
        seq(act("A"), loop(act("B"), tau()), act("C")),
        par(act("A"), seq(act("B"), act("C"))),
        loop(act("A"), act("B"), act("C")),
        seq(act("A"), act("A")),
    ]
    nets = [tree_to_net(t) for t in trees]
    nets.append(alpha_miner(mklog([("A", "B", "C", "D"), ("A", "C", "B", "D"),
                                   ("A", "E", "D")])))
    nets.append(alpha_miner(mklog([("A", "B", "A", "B")])))
    assert all(sum(1 for t in n.transitions if not t.silent) <= 6 for n in nets)

    traces = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [t + (a,) for t in frontier for a in ("A", "B")]
        traces.extend(frontier)
    traces += [
        ("A", "B", "C", "D"), ("A", "C", "B", "D"), ("A", "E", "D"),
        ("A", "B", "A", "B", "A", "B"), ("C", "B", "A"), ("D", "C", "B", "A"),
        ("A", "B", "C", "A", "B", "C", "A", "B"), ("B",) * 8, ("A", "X", "B"),
    ]
    assert all(len(t) <= 8 for t in traces)

    total = mismatches = 0
    for net in nets:
        for trace in traces:
            got = optimal_alignment(trace, net).raw_cost
            want = oracle_alignment_cost(trace, net)
            total += 1
            if got != want:
                mismatches += 1
    assert mismatches == 0
    assert total == len(nets) * len(traces)
    report_pass(f"alignment optimality matches the brute-force oracle on "
                f"{total}/{total} cases")


def test_minimax_matches_exhaustive_recursion():
    """Depth 1..3 minimax equals plain exhaustive recursion on 100 random
    4-piece endgames, exactly."""
    rng = random.Random(20240808)
    cfg = SearchConfig()
    rw = cfg.reward
    for i in range(100):
        board = random_endgame(rng, 4)
        color = Color.WHITE if i % 2 == 0 else Color.RED
        for depth in (1, 2, 3):
            got, _ = kernel.minimax(board.state, color.value, color.value, depth,
                                    rw.forced_capture, rw.capture_points,
                                    rw.crown_points, cfg.king_weight)
            want = oracle_minimax(board, color, color, depth, cfg.reward)
            assert got == want, (board, color, depth)
    report_pass("minimax equals exhaustive recursion on 100 random 4-piece "
                "endgames at depths 1-3")


def _one_move_win_positions():
    """20 hand-built positions with an immediately winning capture.

    Each entry: (agent, pieces, forced_capture).  With forced_capture off the
    winning jump competes against quiet moves; with it on, against decoy
    captures that do not finish the game.
    """
    W, R = Color.WHITE, Color.RED

    def pos(agent, forced, *pieces):
        return agent, GameBoard.from_pieces(pieces), forced

    return [
        # single jump takes the lone enemy piece; quiet moves compete
        pos(W, False, GamePiece(W, 1, 2, 2), GamePiece(R, 1, 3, 3), GamePiece(W, 2, 0, 0)),
        pos(W, False, GamePiece(W, 1, 3, 1), GamePiece(R, 1, 4, 2), GamePiece(W, 2, 1, 1)),
        pos(W, False, GamePiece(W, 1, 4, 4), GamePiece(R, 1, 5, 5), GamePiece(W, 2, 0, 2)),
        pos(W, False, GamePiece(W, 1, 5, 3), GamePiece(R, 1, 6, 4), GamePiece(W, 2, 1, 3)),
        pos(R, False, GamePiece(R, 1, 5, 5), GamePiece(W, 1, 4, 4), GamePiece(R, 2, 7, 7)),
        pos(R, False, GamePiece(R, 1, 4, 2), GamePiece(W, 1, 3, 1), GamePiece(R, 2, 6, 6)),
        pos(R, False, GamePiece(R, 1, 3, 3), GamePiece(W, 1, 2, 2), GamePiece(R, 2, 7, 5)),
        pos(R, False, GamePiece(R, 1, 2, 4), GamePiece(W, 1, 1, 3), GamePiece(R, 2, 6, 4)),
        # double (or longer) chain wins; a decoy capture does not
        pos(W, True, GamePiece(W, 1, 1, 1), GamePiece(R, 1, 2, 2), GamePiece(R, 2, 4, 4),
            GamePiece(W, 2, 1, 3)),
        pos(W, True, GamePiece(W, 1, 0, 2), GamePiece(R, 1, 1, 3), GamePiece(R, 2, 3, 5),
            GamePiece(W, 2, 0, 4)),
        pos(R, True, GamePiece(R, 1, 6, 6), GamePiece(W, 1, 5, 5), GamePiece(W, 2, 3, 3),
            GamePiece(R, 2, 6, 4)),
        pos(R, True, GamePiece(R, 1, 7, 3), GamePiece(W, 1, 6, 4), GamePiece(W, 2, 4, 4),
            GamePiece(R, 2, 7, 5)),
        pos(W, True, GamePiece(W, 1, 1, 5), GamePiece(R, 1, 2, 6), GamePiece(R, 2, 4, 6),
            GamePiece(W, 2, 3, 5)),
        pos(W, True, GamePiece(W, 1, 1, 1), GamePiece(R, 1, 2, 2), GamePiece(R, 2, 4, 4),
            GamePiece(R, 3, 6, 6), GamePiece(W, 2, 5, 7)),
        # kings deliver the winning jump
        pos(W, False, GamePiece(W, 1, 4, 4, king=True), GamePiece(R, 1, 3, 3),
            GamePiece(W, 2, 0, 0)),
        pos(R, False, GamePiece(R, 1, 3, 5, king=True), GamePiece(W, 1, 4, 6),
            GamePiece(R, 2, 7, 1)),
        pos(W, False, GamePiece(W, 1, 2, 0), GamePiece(R, 1, 3, 1),
            GamePiece(W, 2, 4, 4, king=True)),
        pos(R, False, GamePiece(R, 1, 5, 1), GamePiece(W, 1, 4, 2),
            GamePiece(R, 2, 1, 7, king=True)),
        pos(W, True, GamePiece(W, 1, 2, 2, king=True), GamePiece(R, 1, 3, 3),
            GamePiece(R, 2, 3, 5), GamePiece(W, 2, 2, 4)),
        pos(R, True, GamePiece(R, 1, 5, 5), GamePiece(W, 1, 4, 4), GamePiece(W, 2, 2, 2),
            GamePiece(R, 2, 5, 3)),
    ]


def test_mcts_minimax_hybrid_tactical_soundness():
    """The hybrid (mm >= 1, 200 iterations) finds the one-move win in all 20
    hand-built positions; random rollouts (mm = 0) are allowed to miss."""
    positions = _one_move_win_positions()
    assert len(positions) == 20
    solved = 0
    for agent, board, forced in positions:
        reward_cfg = RewardConfig(forced_capture=forced)
        enemy_total = len(board.pieces(agent.opponent))
        moves = legal_moves(board, agent, reward_cfg)
        winning = [m for m in moves if len(m.captured_ids) == enemy_total]
        assert winning, "position is not a one-move win"
        assert len(moves) > 1, "position must offer a real choice"
        cfg = SearchConfig(iterations=200, simulation_depth=10, minimax_depth=1,
                           reward=reward_cfg, rng_seed=13)
        move, _, after = mcts_search(board, agent, cfg)
        assert move in winning, f"missed win on\n{board!r}"
        assert winner(after, agent.opponent) is agent
        solved += 1
    assert solved == 20
    report_pass("hybrid selects the winning move on 20/20 one-move-win positions")


def test_abstract_move_fidelity():
    """Direction abstraction matches the worked example and every
    displacement sign pattern."""
    assert abstract_move((2, 4), (1, 6)) == ("left", "up")
    for dx in range(-3, 4):
        for dy in range(-3, 4):
            if dx == 0 and dy == 0:
                continue
            labels = abstract_move((3, 3), (3 + dx, 3 + dy))
            expect = tuple(
                [x for x in (("right" if dx > 0 else "left" if dx < 0 else None),)
                 if x] +
                [y for y in (("up" if dy > 0 else "down" if dy < 0 else None),)
                 if y])
            assert labels == expect
    report_pass("movement abstraction matches the worked example and all "
                "sign patterns")


def test_event_log_round_trip():
    """Export then import reproduces an equal log for 100 fuzzed logs in
    each format."""
    rng = random.Random(77)
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(100):
            log = random_log(rng)
            fmt = "xes" if i % 2 == 0 else "csv"
            path = Path(tmp) / f"log{i}.{fmt}"
            export_log(log, path, fmt)
            assert import_log(path, fmt) == log
    report_pass("event log export/import round-trips 100 fuzzed logs")


def test_workflow_net_shape_in_smoke_trial(smoke_trial):
    """Every inductive-miner net produced by the smoke trial has exactly one
    source and one sink place."""
    out, summary = smoke_trial
    checked = 0
    for cell in summary.cells:
        for color in ("red", "white"):
            net = load_net(cell.out_dir / f"{color}-inductive.json")
            assert len(net.source_places()) == 1
            assert len(net.sink_places()) == 1
            checked += 1
    assert checked == 4
    report_pass("every smoke-trial inductive net has one source and one sink")


def test_reward_keyed_pruning():
    """Grouping by reward keeps exactly the maximal-reward action group."""

    def move(name_idx, reward):
        # a kernel move tuple (from, to, captured_ids, crowned, reward, state)
        return (name_idx, name_idx + 9, (), False, reward, bytes(64))

    table = [(10, 3), (6, 2), (4, 3), (0, 4)]
    moves = []
    idx = 0
    for reward, count in table:
        for _ in range(count):
            idx += 1
            moves.append(move(idx, reward))
    kept = prune_by_reward(moves)
    assert kept == moves[:3]
    assert all(m[4] == 10 for m in kept)
    report_pass("reward-keyed pruning returns exactly the top-reward group")
