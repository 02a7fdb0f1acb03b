"""Cross-module behaviour on real self-play data and odd configurations."""

import random
from dataclasses import replace

import pytest

from playmine.board import Color, RewardConfig, initial_board, legal_moves
from playmine.conformance import FITTING, classify_fitting, fitness_metrics, optimal_alignment
from playmine.discovery import inductive_miner, tree_to_net
from playmine.episodes import play_episode
from playmine.eventlog import build_event_log, label_for, parse_label
from playmine.explain import Explainer
from playmine.kernel import _pykernel as pk
from playmine.search import SearchConfig, mcts_search
from helpers import random_board

try:
    from playmine.kernel import _ckernel as ck
except ImportError:
    ck = None

FAST = SearchConfig(iterations=10, simulation_depth=4, minimax_depth=1)


class TestFullBoard:
    def test_standard_opening_has_seven_moves_per_side(self):
        board = initial_board(12)
        assert len(legal_moves(board, Color.RED)) == 7
        assert len(legal_moves(board, Color.WHITE)) == 7

    def test_twelve_piece_episode_runs(self):
        ep = play_episode(FAST, episode_id=1, pieces_per_side=12, max_turns=20)
        assert ep.turns == 20 or ep.winner is not None
        assert ep.red_trace and ep.white_trace


class TestNonDefaultRewards:
    def test_custom_points_flow_into_labels(self):
        cfg = replace(FAST, reward=RewardConfig(capture_points=5, crown_points=3,
                                                forced_capture=False))
        ep = play_episode(cfg, episode_id=2, max_turns=60)
        for rec in ep.red_trace + ep.white_trace:
            expected = 5 * len(rec.captured)
            assert rec.reward in (expected, expected + 3)
            (_, _), (pid, _), reward = parse_label(label_for(rec))
            assert reward == rec.reward and pid == rec.piece_id

    @pytest.mark.skipif(ck is None, reason="compiled kernel not built")
    def test_kernel_parity_with_custom_points(self):
        rng = random.Random(31)
        for _ in range(150):
            state = random_board(rng).state
            for color in (0, 1):
                for forced in (True, False):
                    assert (pk.gen_moves(state, color, forced, 5, 3)
                            == ck.gen_moves(state, color, forced, 5, 3))
                assert (pk.minimax(state, color, color, 2, False, 5, 3, 0.25)
                        == ck.minimax(state, color, color, 2, False, 5, 3, 0.25))
                assert (pk.rollout(state, color, 9, 1, False, 5, 3, 0.25)
                        == ck.rollout(state, color, 9, 1, False, 5, 3, 0.25))


class TestPruningMode:
    def test_pruned_episode_is_deterministic(self):
        cfg = SearchConfig(iterations=10, simulation_depth=4, minimax_depth=1,
                           pruning_enabled=True)
        a = play_episode(cfg, episode_id=3, max_turns=20)
        b = play_episode(cfg, episode_id=3, max_turns=20)
        assert a.red_trace == b.red_trace
        assert a.white_trace == b.white_trace

    def test_pruned_search_still_finds_the_win(self):
        from playmine.board import GameBoard, GamePiece
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.RED, 1, 3, 3),
            GamePiece(Color.WHITE, 2, 0, 0),
        ])
        cfg = SearchConfig(iterations=40, simulation_depth=4, minimax_depth=1,
                           pruning_enabled=True,
                           reward=RewardConfig(forced_capture=False))
        move, _ = mcts_search(board, Color.WHITE, cfg)
        assert move.captured_ids == (1,)
        assert move.reward == 7


@pytest.fixture(scope="module")
def red_explainer():
    episodes = [play_episode(FAST, episode_id=i, max_turns=40)
                for i in range(1, 4)]
    log = build_event_log((ep.episode_id, ep.red_trace) for ep in episodes)
    return Explainer.from_log(log)


class TestExplainOnRealLogs:
    def test_model_is_fitting(self, red_explainer):
        assert classify_fitting(red_explainer.report) == FITTING

    def test_first_layer_context_is_game_start(self, red_explainer):
        rec = red_explainer.recommend(1, (-1, ()))
        assert rec.action[0] in (1, 2, 3)

    def test_recommendation_dominates_layer(self, red_explainer):
        view = red_explainer.view
        entries = view.layer(1)
        rec = red_explainer.recommend(1, (-1, ()))
        assert rec.reward == max(e.reward for e in entries if e.context == (-1, ()))


class TestMixedModeSearch:
    def test_random_rollout_agent_completes_episodes(self):
        cfg = SearchConfig(iterations=25, simulation_depth=8, minimax_depth=0,
                           rng_seed=5)
        ep = play_episode(cfg, episode_id=4, max_turns=40)
        assert ep.turns > 0

    def test_mm0_differs_by_seed_but_not_by_run(self):
        """At minimax depth 0 the seed reaches the kernel's random moves: one
        seed replays the same game, another plays a different one."""
        cfg = SearchConfig(iterations=30, simulation_depth=8, minimax_depth=0,
                           rng_seed=1)

        def traces(cfg):
            ep = play_episode(cfg, episode_id=1, max_turns=40)
            return [label_for(s) for s in ep.red_trace + ep.white_trace]

        first = traces(cfg)
        assert traces(cfg) == first
        assert traces(replace(cfg, rng_seed=2)) != first


class TestPipelinePurity:
    def test_mining_does_not_mutate_the_log(self):
        ep = play_episode(FAST, episode_id=5, max_turns=30)
        log = build_event_log([(5, ep.red_trace)])
        snapshot = {cid: list(evs) for cid, evs in log.cases.items()}
        net = tree_to_net(inductive_miner(log))
        fitness_metrics(log, net)
        for _, labels in log.traces():
            optimal_alignment(labels, net)
        assert {cid: list(evs) for cid, evs in log.cases.items()} == snapshot
