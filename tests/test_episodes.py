import math
import random

import pytest

from playmine.board import (Color, GameBoard, GamePiece, RewardConfig, legal_moves,
                            winner as board_winner)
from playmine import episodes
from playmine.episodes import (
    abstract_move,
    bfs_min_distance,
    derive_seed,
    play_episode,
    red_white_distance,
)
from playmine.board import apply_move, initial_board
from playmine.eventlog import format_label, parse_label
from playmine.search import SearchConfig
from playmine.trial import run_episodes
from oracles import oracle_grid_distance

FAST = SearchConfig(iterations=12, simulation_depth=4, minimax_depth=1, rng_seed=0)


class TestAbstractMove:
    def test_paper_worked_example(self):
        assert abstract_move((2, 4), (1, 6)) == ("left", "up")

    def test_both_positive(self):
        assert abstract_move((0, 0), (2, 2)) == ("right", "up")

    def test_axis_pure_vertical(self):
        # zig-zag double jump nets dx = 0
        assert abstract_move((3, 1), (3, 5)) == ("up",)

    def test_exhaustive_sign_patterns(self):
        for dx in range(-2, 3):
            for dy in range(-2, 3):
                if dx == 0 and dy == 0:
                    continue
                labels = abstract_move((4, 4), (4 + dx, 4 + dy))
                expect = []
                if dx > 0:
                    expect.append("right")
                if dx < 0:
                    expect.append("left")
                if dy > 0:
                    expect.append("up")
                if dy < 0:
                    expect.append("down")
                assert labels == tuple(expect)
                assert 1 <= len(labels) <= 2

    def test_null_move_is_empty(self):
        """A king's capture loop ends on its own square: every component is
        zero, so every word drops."""
        assert abstract_move((3, 3), (3, 3)) == ()

    def test_capture_loop_is_legal_and_its_label_round_trips(self):
        """A white king on (2, 2) takes the four red men around it and lands
        back on (2, 2), either way round; the move abstracts to ``()`` and
        its label parses back to what was written."""
        board = GameBoard.from_pieces(
            [GamePiece(Color.WHITE, 1, 2, 2, king=True)]
            + [GamePiece(Color.RED, i, x, y) for i, (x, y)
               in enumerate([(3, 3), (5, 3), (5, 1), (3, 1)], start=1)],
            pieces_per_side=4)
        loops = [m for m in legal_moves(board, Color.WHITE) if m.from_pos == m.to_pos]
        assert len(loops) == 2
        for move in loops:
            assert move.to_pos == (2, 2) and sorted(move.captured_ids) == [1, 2, 3, 4]
            assert move.reward == 28
            movement = abstract_move(move.from_pos, move.to_pos)
            assert movement == ()
            label = format_label(4, ("right", "up"), move.piece_id, movement, move.reward)
            assert parse_label(label) == ((4, ("right", "up")), (1, ()), 28)


class TestBfsDistance:
    def test_adjacent(self):
        assert bfs_min_distance([(0, 0)], [(0, 1)]) == 1

    def test_source_equals_target(self):
        assert bfs_min_distance([(4, 4)], [(4, 4)]) == 0

    def test_unreachable_without_targets(self):
        assert bfs_min_distance([(0, 0)], []) == math.inf

    def test_unreachable_without_sources(self):
        assert bfs_min_distance([], [(0, 0)]) == math.inf

    def test_matches_independent_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            sources = [(rng.randrange(8), rng.randrange(8))
                       for _ in range(rng.randrange(1, 4))]
            targets = [(rng.randrange(8), rng.randrange(8))
                       for _ in range(rng.randrange(1, 4))]
            assert bfs_min_distance(sources, targets) == \
                oracle_grid_distance(sources, targets)


class TestPlayEpisode:
    def test_first_red_record_has_empty_context(self):
        ep = play_episode(FAST, episode_id=1)
        first = ep.red_trace[0]
        assert first.last_turn_enemy_piece_id == -1
        assert first.last_turn_enemy_movement == ()

    def test_capture_rewards_at_least_seven(self):
        ep = play_episode(FAST, episode_id=2)
        for rec in ep.red_trace + ep.white_trace:
            if rec.captured:
                assert rec.reward >= 7

    def test_winner_matches_final_board_replay(self):
        ep = play_episode(FAST, episode_id=3, max_turns=120)
        board = initial_board(3)
        color = Color.RED
        traces = {Color.RED: list(ep.red_trace), Color.WHITE: list(ep.white_trace)}
        cfg = RewardConfig()
        for _ in range(ep.turns):
            rec = traces[color].pop(0)
            move = next(m for m in legal_moves(board, color, cfg)
                        if m.piece_id == rec.piece_id
                        and m.reward == rec.reward
                        and tuple(m.captured_ids) == tuple(rec.captured)
                        and abstract_move(m.from_pos, m.to_pos) == rec.move)
            board = apply_move(board, move, cfg)
            color = color.opponent
        if ep.winner is not None:
            assert board_winner(board, color) is ep.winner

    def test_turn_cap_gives_distinct_draw(self):
        ep = play_episode(FAST, episode_id=4, max_turns=3)
        assert ep.draw
        assert ep.winner is None
        assert ep.turns == 3

    def test_win_on_the_capping_move_is_a_win(self):
        """FAST's episode 0 is won by white's move on turn 42: with the cap
        at 42 that move still wins, as the final board is tested once, and
        with the cap at 41 the game is a draw."""
        ep = play_episode(FAST, episode_id=0, max_turns=200)
        assert (ep.winner, ep.turns) == (Color.WHITE, 42)
        capped = play_episode(FAST, episode_id=0, max_turns=42)
        assert (capped.winner, capped.turns) == (Color.WHITE, 42)
        assert capped.red_trace == ep.red_trace and capped.white_trace == ep.white_trace
        short = play_episode(FAST, episode_id=0, max_turns=41)
        assert (short.winner, short.turns) == (None, 41)

    @pytest.mark.parametrize("max_turns", [3, 42, 200])
    def test_at_most_one_winner_call(self, monkeypatch, max_turns):
        """A side with no move is found by its search returning None, so
        ``winner`` runs only when the turn cap ends the game."""
        calls = []

        def counted(*args):
            calls.append(args)
            return board_winner(*args)

        monkeypatch.setattr(episodes, "winner", counted)
        ep = play_episode(FAST, episode_id=0, max_turns=max_turns)
        assert len(calls) == (1 if ep.turns == max_turns else 0)

    def test_context_chains_between_traces(self):
        ep = play_episode(FAST, episode_id=5, max_turns=60)
        merged = []
        red = list(ep.red_trace)
        white = list(ep.white_trace)
        color = Color.RED
        while red or white:
            merged.append((red if color is Color.RED else white).pop(0))
            color = color.opponent
        for prev, cur in zip(merged, merged[1:]):
            assert cur.last_turn_enemy_piece_id == prev.piece_id
            assert cur.last_turn_enemy_movement == prev.move

    def test_bfs_feature_mode_records_distance_change(self):
        ep = play_episode(FAST, episode_id=6, max_turns=30, bfs_feature=True)
        for rec in ep.red_trace + ep.white_trace:
            assert isinstance(rec.move, (int, float))
        # distance recomputed on the post-move board is always >= 0
        board = initial_board(3)
        assert red_white_distance(board) >= 0


class TestBatchMemo:
    """``run_episodes`` plays its episodes as ``workers`` contiguous chunks,
    each through one rollout memo."""

    SEED_KEY = (4, "batch")

    @staticmethod
    def games(eps):
        return [(ep.red_trace, ep.white_trace, ep.winner, ep.turns) for ep in eps]

    def test_chunks_share_a_memo_and_count_their_own_share(self):
        """The games do not depend on the worker count, and neither do the
        rollout steps each game looks up.  The first game of a chunk
        counts what a memo of its own counts.  At minimax depth 1 the seeds
        reach no rollout, so the games of a batch are one game, and a later
        game of a chunk finds every step in the memo: it hits at each
        lookup, adds no entry and reports the entries held at its end."""
        cfg = SearchConfig(iterations=20, simulation_depth=6, minimax_depth=1)
        alone = [play_episode(SearchConfig(20, 6, 1, rng_seed=derive_seed(*self.SEED_KEY, i)),
                              i, pieces_per_side=3, max_turns=12) for i in (1, 2, 3)]
        one = run_episodes(cfg, self.SEED_KEY, 3, 3, 12, False, 1)
        two = run_episodes(cfg, self.SEED_KEY, 3, 3, 12, False, 2)
        assert self.games(one) == self.games(two) == self.games(alone)
        # one worker: chunk 1-3; two workers: chunks 1 and 2-3
        assert one[0].memo_counts == two[0].memo_counts == alone[0].memo_counts
        assert two[1].memo_counts == alone[1].memo_counts
        steps, hits, entries, clears = alone[0].memo_counts
        assert hits < steps and clears == 0
        for shared in (one[1], one[2], two[2]):
            assert shared.memo_counts == (steps, steps, entries, 0)

    def test_more_workers_than_episodes(self):
        """Workers past the episode count get empty chunks."""
        cfg = SearchConfig(iterations=5, simulation_depth=2, minimax_depth=1)
        eps = run_episodes(cfg, self.SEED_KEY, 1, 3, 4, False, 3)
        assert [ep.episode_id for ep in eps] == [1]


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_parts(self):
        seeds = {derive_seed(1, part, 2) for part in ("a", "b", "c")}
        assert len(seeds) == 3
