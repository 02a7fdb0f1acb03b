import json
import math
import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from playmine import kernel
from playmine.board import (
    Color,
    GameBoard,
    GamePiece,
    RewardConfig,
    _to_concrete,
    apply_move,
    evaluate,
    initial_board,
    legal_moves,
    winner,
)
from playmine.episodes import play_episode
from playmine.eventlog import label_for
from playmine.kernel import _pykernel, prune_by_reward
from playmine.search import SearchConfig, mcts_search
from playmine.trial import run_episodes
from helpers import memo_searches, random_board, random_endgame
from oracles import (
    as_oracle_shape,
    oracle_best_move,
    oracle_minimax,
    reference_search,
    reference_tree,
)

CFG = SearchConfig(iterations=50, simulation_depth=8, minimax_depth=1, rng_seed=1)


def mv(reward):
    """A kernel move tuple (from, to, captured_ids, crowned, reward, state)."""
    return (0, 9, (), False, reward, bytes(64))


def rules(cfg):
    """The pure twin's rules record of a search under ``cfg``."""
    rw = cfg.reward
    return (rw.forced_capture, rw.capture_points, rw.crown_points, cfg.king_weight,
            cfg.minimax_depth)


def tree(board, color, cfg=CFG):
    """The pure twin's search tree with ``board`` at its root (node 0) and
    ``color`` to move."""
    return _pykernel._Tree(board.state, color.value, rules(cfg), cfg.pruning_enabled)


def fully_expanded(t, i):
    """The test the search descends by: every action of node i is a child."""
    return t.nkids[i] > 0 and t.nkids[i] == t.nact[i]


def playout(state, turn, cfg, stream=None):
    """The pure twin's rollout for the search, [white, red] rewards; random
    moves come from ``stream``, by default a fresh one seeded with
    ``cfg.rng_seed``."""
    stream = stream or _pykernel._Stream(cfg.rng_seed)
    return _pykernel._playout(state, turn, cfg.simulation_depth, rules(cfg), stream,
                              _pykernel.Memo())


def search_args(board, color, cfg):
    """``kernel.search``'s arguments for ``color`` to move on ``board``."""
    rw = cfg.reward
    return (board.state, color.value, cfg.iterations, cfg.simulation_depth,
            cfg.minimax_depth, rw.forced_capture, rw.capture_points, rw.crown_points,
            cfg.king_weight, cfg.exploration, cfg.discount, cfg.pruning_enabled,
            cfg.rng_seed)


def minimax(board, color, depth, cfg):
    """``kernel.minimax`` for ``color`` to move and maximizing."""
    rw = cfg.reward
    return kernel.minimax(board.state, color.value, color.value, depth,
                          rw.forced_capture, rw.capture_points,
                          rw.crown_points, cfg.king_weight)


class TestSearchConfig:
    @pytest.mark.parametrize("kwargs", [
        {"iterations": 0},
        {"simulation_depth": -1},
        {"minimax_depth": -1},
        {"minimax_depth": 65},  # past the kernel's MAX_DEPTH
        {"discount": 0.0},
        {"discount": 1.5},
        {"exploration": -0.1},
        {"exploration": math.inf},
        {"king_weight": math.nan},  # would never match a game memo's rules
        {"king_weight": -math.inf},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("iterations", 2.5), ("simulation_depth", math.inf), ("minimax_depth", 1.0),
        ("rng_seed", 0.5),
    ])
    def test_non_integer_count_is_refused_by_name(self, field, value):
        """Accepted, these failed only in the kernel, with operator.index's
        TypeError naming no field."""
        with pytest.raises(TypeError, match=f"^{field} must be an int, not float$"):
            SearchConfig(**{field: value})

    def test_true_is_a_count(self):
        """The kernel takes True as 1, so the config does too."""
        assert SearchConfig(iterations=True, minimax_depth=True).iterations == 1

    @pytest.mark.parametrize("field", ["capture_points", "crown_points"])
    def test_non_integer_points_are_refused_by_name(self, field):
        with pytest.raises(TypeError, match=f"^{field} must be an int, not float$"):
            RewardConfig(**{field: 1.5})


class TestMinimax:
    def test_depth_zero_returns_static_eval(self):
        board = initial_board(3)
        score, move = minimax(board, Color.RED, 0, CFG)
        assert move is None
        assert score == evaluate(board, Color.RED)

    def test_depth_one_takes_the_capture(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.RED, 1, 3, 3),
            GamePiece(Color.RED, 2, 6, 6),
        ])
        free = SearchConfig(reward=RewardConfig(forced_capture=False))
        score, move = minimax(board, Color.WHITE, 1, free)
        # exhaustive one-ply enumeration is what the oracle does at depth 1
        assert score == oracle_minimax(board, Color.WHITE, Color.WHITE, 1, free.reward)
        assert move[2] == (1,)

    def test_matches_exhaustive_recursion_on_endgames(self):
        rng = random.Random(5)
        for _ in range(25):
            board = random_endgame(rng, 4)
            for color in (Color.WHITE, Color.RED):
                for depth in (1, 2, 3):
                    got, _ = minimax(board, color, depth, CFG)
                    want = oracle_minimax(board, color, color, depth, CFG.reward)
                    assert got == want

    @pytest.mark.parametrize("backend", [_pykernel, kernel], ids=["python", "kernel"])
    def test_move_is_first_co_optimal_one(self, backend):
        """The chosen move, not only the score, is full-width minimax's:
        the first co-optimal move in gen order, with the root maximizing
        and minimizing and forced capture on and off."""
        rng = random.Random(11)
        for _ in range(12):
            board = random_endgame(rng, 5)
            for color in (Color.WHITE, Color.RED):
                for agent in (color, color.opponent):
                    for forced in (True, False):
                        rw = RewardConfig(forced_capture=forced)
                        for depth in (1, 2, 3):
                            score, move = backend.minimax(
                                board.state, color.value, agent.value, depth, forced,
                                rw.capture_points, rw.crown_points, CFG.king_weight)
                            got = move and as_oracle_shape(_to_concrete(move, board.state))
                            case = (board, color, agent, forced, depth)
                            assert got == oracle_best_move(board, color, agent, depth,
                                                           rw, CFG.king_weight), case
                            assert score == oracle_minimax(board, color, agent, depth,
                                                           rw, CFG.king_weight), case


class TestUct:
    def _parent_with_children(self, stats):
        t = tree(initial_board(3), Color.WHITE)
        for q, n in stats:
            child = t.expand(0)
            t.reward[child] = [q, 0.0]
            t.visits[child] = n
        t.visits[0] = sum(n for _, n in stats)
        return t

    def test_pure_exploitation_picks_higher_mean(self):
        t = self._parent_with_children([(2.0, 10), (9.0, 10)])
        best = t.uct_child(0, 0.0)
        assert t.reward[best][0] == 9.0

    def test_exploration_prefers_less_visited(self):
        t = self._parent_with_children([(5.0, 10), (1.0, 2)])
        best = t.uct_child(0, 1 / math.sqrt(2))
        mean_a = 5.0 / 10
        mean_b = 1.0 / 2
        c = 1 / math.sqrt(2)
        ucb_a = mean_a + c * math.sqrt(math.log(12) / 10)
        ucb_b = mean_b + c * math.sqrt(math.log(12) / 2)
        assert ucb_b > ucb_a
        assert t.visits[best] == 2

    def test_matches_hand_computed_argmax(self):
        stats = [(4.0, 8), (3.0, 3), (6.0, 14)]
        t = self._parent_with_children(stats)
        c = 0.4
        scores = [q / n + c * math.sqrt(math.log(25) / n) for q, n in stats]
        want = max(range(3), key=lambda i: scores[i])
        best = t.uct_child(0, c)
        assert best - t.first[0] == want

    def test_unvisited_child_rejected(self):
        t = self._parent_with_children([(1.0, 0), (2.0, 3)])
        t.visits[0] = 3
        with pytest.raises(ValueError):
            t.uct_child(0, 0.5)

    def test_scaling_invariance_at_c_zero(self):
        stats = [(4.0, 8), (3.0, 3), (6.0, 14)]
        t = self._parent_with_children(stats)
        best = t.uct_child(0, 0.0)
        for child in range(t.first[0], t.first[0] + t.nkids[0]):
            t.reward[child] = [t.reward[child][0] * 37.0, t.reward[child][1] * 37.0]
        assert t.uct_child(0, 0.0) == best


class TestExpand:
    def test_expands_every_move_once(self):
        t = tree(initial_board(3), Color.RED)
        k = len(legal_moves(initial_board(3), Color.RED))
        children = [t.expand(0) for _ in range(k)]
        assert fully_expanded(t, 0)
        assert t.nkids[0] == k
        assert len(set(children)) == k
        with pytest.raises(ValueError):
            t.expand(0)

    def test_single_move_immediately_fully_expanded(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.RED, 1, 3, 3),
        ])
        t = tree(board, Color.WHITE)
        t.expand(0)
        assert fully_expanded(t, 0)

    def test_child_board_is_move_application(self):
        board = initial_board(3)
        t = tree(board, Color.RED)
        child = t.expand(0)
        move = _to_concrete(t.move[child], board.state)
        assert t.state[child] == apply_move(board, move).state
        assert t.turn[child] == Color.WHITE.value

    def test_terminal_node_rejected(self):
        board = GameBoard.from_pieces([GamePiece(Color.WHITE, 1, 2, 2)])
        t = tree(board, Color.RED)
        assert t.actions(0) == 0
        with pytest.raises(ValueError):
            t.expand(0)


class TestSimulate:
    def test_terminal_node_yields_zero(self):
        board = GameBoard.from_pieces([GamePiece(Color.WHITE, 1, 2, 2)])
        for depth in (0, 1):  # random and minimax rollouts
            cfg = SearchConfig(simulation_depth=8, minimax_depth=depth)
            assert playout(board.state, Color.RED.value, cfg) == [0, 0]

    def test_zero_depth_rollout(self):
        cfg = SearchConfig(simulation_depth=0)
        assert playout(initial_board(3).state, Color.RED.value, cfg) == [0, 0]

    def test_immediate_white_capture_single_step(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.RED, 1, 3, 3),
            GamePiece(Color.RED, 2, 7, 7),
        ])
        cfg = SearchConfig(simulation_depth=1, minimax_depth=1)
        assert playout(board.state, Color.WHITE.value, cfg) == [7, 0]

    def test_random_rollout_mode_is_seeded(self):
        state = initial_board(3).state
        cfg = SearchConfig(simulation_depth=6, minimax_depth=0, rng_seed=3)
        first = playout(state, Color.RED.value, cfg, _pykernel._Stream(3))
        second = playout(state, Color.RED.value, cfg, _pykernel._Stream(3))
        assert first == second


class TestBackpropagate:
    def _path(self, length):
        t = tree(initial_board(3), Color.RED)
        path = [0]
        for _ in range(length - 1):
            path.append(t.expand(path[-1]))
        return t, path

    def test_undiscounted(self):
        t, path = self._path(3)
        t.backup(path[-1], [7, 0], 1.0)
        for i in path:
            assert t.reward[i] == [7.0, 0.0]
            assert t.visits[i] == 1

    def test_geometric_discount_by_distance(self):
        t, path = self._path(2)
        t.backup(path[-1], [10, 0], 0.8)
        assert t.reward[path[-1]] == [10.0, 0.0]
        assert t.reward[path[0]] == [8.0, 0.0]

    def test_zero_delta_still_counts_visits(self):
        t, path = self._path(4)
        t.backup(path[-1], [0, 0], 0.8)
        assert all(t.visits[i] == 1 for i in path)
        assert all(t.reward[i] == [0.0, 0.0] for i in path)


class TestMctsSearch:
    def test_single_legal_move_is_returned(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.RED, 1, 3, 3),
        ])
        move, after = mcts_search(board, Color.WHITE, CFG)
        assert move.captured_ids == (1,)
        assert move.reward == 7
        assert not after.pieces(Color.RED)

    def test_returns_the_move_and_its_board(self, search_twin):
        # the reward is the kernel move's own, carried on the move
        cfg = SearchConfig(iterations=40, simulation_depth=4, minimax_depth=1)
        capture = GameBoard.from_pieces([GamePiece(Color.WHITE, 1, 2, 2),
                                         GamePiece(Color.RED, 1, 3, 3)])
        for board, color in ((initial_board(3), Color.RED), (capture, Color.WHITE)):
            result = mcts_search(board, color, cfg)
            kmove = kernel.search(*search_args(board, color, cfg))[0]
            assert len(result) == 2
            move, after = result
            assert move.reward == kmove[4]
            assert after == GameBoard(kmove[5], board.pieces_per_side)
        assert move.reward == 7

    def test_no_legal_moves_returns_none(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.RED, 1, 1, 1),
            GamePiece(Color.WHITE, 1, 0, 0),
            GamePiece(Color.WHITE, 2, 0, 2),
        ])
        assert mcts_search(board, Color.RED, CFG) is None

    # white's jump takes red's last piece, which ends the game
    WINNING_CAPTURE = GameBoard.from_pieces([
        GamePiece(Color.WHITE, 1, 2, 2),
        GamePiece(Color.WHITE, 2, 4, 0),
        GamePiece(Color.RED, 1, 3, 3),
    ])

    def test_selects_immediate_winning_capture(self):
        # quiet alternatives exist, yet the game-ending jump must win out
        board = self.WINNING_CAPTURE
        cfg = SearchConfig(iterations=200, simulation_depth=10, minimax_depth=1,
                           reward=RewardConfig(forced_capture=False), rng_seed=9)
        move, after = mcts_search(board, Color.WHITE, cfg)
        assert move.captured_ids == (1,)
        assert not after.pieces(Color.RED)

    @pytest.mark.parametrize("depth", [0, 1])
    @pytest.mark.parametrize("pruning", [False, True])
    def test_terminal_leaves_need_no_winner_call(self, monkeypatch, depth, pruning):
        """A node with no legal move is terminal by its empty move list
        alone: the search reaches such leaves here (the capture ends the
        game) and the pure twin picks the same move with its ``winner`` and
        ``side_has_moves`` unavailable."""
        board = self.WINNING_CAPTURE
        cfg = SearchConfig(iterations=200, simulation_depth=10, minimax_depth=depth,
                           pruning_enabled=pruning,
                           reward=RewardConfig(forced_capture=False), rng_seed=9)
        want = mcts_search(board, Color.WHITE, cfg)

        def no_winner(*args):
            raise AssertionError("the search must not ask who won")

        monkeypatch.setattr(kernel, "search", _pykernel.search)
        monkeypatch.setattr(_pykernel, "winner", no_winner)
        monkeypatch.setattr(_pykernel, "side_has_moves", no_winner)
        got = mcts_search(board, Color.WHITE, cfg)
        assert got[0] == want[0]
        assert got[0].captured_ids == (1,)

    def test_visit_accounting(self):
        """Mirrored through the memo-free oracle, every iteration visits the
        root and each expands one node; the kernel's search returns the
        oracle's move and node count."""
        cfg = SearchConfig(iterations=37, simulation_depth=4, minimax_depth=1)
        args = search_args(initial_board(3), Color.RED, cfg)
        t, nodes = reference_tree(*args)
        assert t.visits[0] == cfg.iterations
        assert nodes == sum(t.nkids)
        assert kernel.search(*args) == reference_search(*args)

    def test_deterministic_for_fixed_config(self):
        rng = random.Random(11)
        for _ in range(5):
            board = random_endgame(rng, 5)
            cfg = SearchConfig(iterations=60, simulation_depth=6, minimax_depth=1,
                               rng_seed=rng.randrange(1000))
            for color in (Color.WHITE, Color.RED):
                first = mcts_search(board, color, cfg)
                second = mcts_search(board, color, cfg)
                if first is None:
                    assert second is None
                else:
                    assert first[0] == second[0]


def reuse_cases():
    """``(case id, board, colour, config)`` whose rollouts replay the same
    (state, side) steps many times within one search, so the rollout memo
    answers most of them: two king-only endgames, where the rollouts cycle,
    and a 3-a-side midgame 9 plies from the opening, at simulation depth 30
    and 300 iterations.  Each colour plays minimax depths 1 and 3, one with
    pruning and one without, so every pair of depth and pruning occurs."""
    rng = random.Random(8)
    boards = []
    for k in range(2):
        board = random_endgame(rng, 4)
        boards.append((f"kings{k}", GameBoard.from_pieces(
            [GamePiece(p.color, p.id, p.x, p.y, True) for p in board.pieces()])))
    board, side = initial_board(3), Color.RED
    for _ in range(9):
        moves = legal_moves(board, side)
        board = apply_move(board, moves[rng.randrange(len(moves))])
        side = side.opponent
    boards.append(("3x9", board))
    for name, board in boards:
        for color in (Color.WHITE, Color.RED):
            for depth in (1, 3):
                pruning = (depth == 3) != (color is Color.RED)
                cfg = SearchConfig(iterations=300, simulation_depth=30,
                                   minimax_depth=depth, pruning_enabled=pruning)
                yield (f"{name}/{color.name.lower()}/d{depth}/"
                       f"{'prune' if pruning else 'all'}", board, color, cfg)


def twin_module(twin):
    """The kernel twin named ``twin``: ``_pykernel`` or the compiled one."""
    if twin == "python":
        return _pykernel
    return pytest.importorskip("playmine.kernel._ckernel", reason="compiled kernel not built")


class TestRolloutMemo:
    @pytest.fixture(scope="class")
    def references(self):
        """The memo-free oracle's ``(move, nodes)`` for every reuse case."""
        return {cid: reference_search(*search_args(board, color, cfg))
                for cid, board, color, cfg in reuse_cases()}

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_search_matches_memo_free_oracle(self, twin, references):
        """The memo only skips minimax calls whose answer it holds, so each
        twin's search returns exactly the oracle's move and node count."""
        impl = twin_module(twin)
        for cid, board, color, cfg in reuse_cases():
            assert impl.search(*search_args(board, color, cfg)) == references[cid], cid


class TestGameMemo:
    """One ``new_memo()`` handle held across the turns of a game."""

    CFG = SearchConfig(iterations=120, simulation_depth=12, minimax_depth=1)
    TURNS = 10

    @pytest.fixture(scope="class")
    def game(self):
        """The turns of a game from the 3-a-side opening, red first, each
        turn's seed its number: ``(arguments, memo-free oracle's (move,
        nodes))`` per turn, each turn played on the oracle's move."""
        board, color, turns = initial_board(3), Color.RED, []
        for k in range(self.TURNS):
            args = search_args(board, color, replace(self.CFG, rng_seed=k))
            want = reference_search(*args)
            turns.append((args, want))
            board, color = GameBoard(want[0][5], 3), color.opponent
        return turns

    def test_game_through_one_memo_matches_oracle(self, game):
        """On each twin, every turn of a game whose searches share one memo
        returns the memo-free oracle's move and node count, and the shared
        memo answers more rollout steps than a fresh memo per turn would.
        Both twins look up, hit and insert at the same steps."""
        counts = []
        for impl in (_pykernel, twin_module("compiled")):
            memo = impl.new_memo()
            fresh_hits = 0
            for k, (args, want) in enumerate(game):
                assert impl.search(*args, memo=memo) == want, (impl.__name__, k)
                fresh = impl.new_memo()
                impl.search(*args, memo=fresh)
                fresh_hits += fresh.counts()[1]
            steps, hits, entries, clears = memo.counts()
            assert 0 < entries <= steps and hits > fresh_hits and clears == 0
            counts.append(memo.counts())
        assert counts[0] == counts[1]

    # After each depth-1 search of memo_searches() through one compiled
    # handle, and one more from the 12-a-side opening after the memo was
    # emptied: the move's (from, to, captured ids), the node count and the
    # memo's counts().  Recorded from the compiled twin that looked every
    # rollout step up by hash; the pure twin counts alike.
    LINKED = [((4, 13, (), 300), (2975, 1730, 1245, 0)),
              ((59, 50, (), 300), (5950, 3477, 2473, 0)),
              ((22, 31, (), 300), (8950, 4560, 4390, 0)),
              ((45, 38, (), 300), (11950, 5823, 6127, 0)),
              ((43, 36, (), 3000), (101920, 52397, 32768, 0)),
              ((4, 13, (), 300), (104895, 54127, 1245, 1)),
              ((22, 31, (), 300), (107895, 55210, 3162, 1))]

    def test_linked_walk_through_growth_fill_and_empty(self):
        """The compiled rollout follows each memo entry's link to the next
        step's entry.  Through a memo whose slot table grows, that fills to
        MEMO_MAX and goes on unrecorded, and that is emptied and refilled,
        it chooses the recorded moves and counts the recorded steps, hits
        and entries: a followed link is one step and one hit, a full memo
        links nothing, and a refilled entry carries no stale link."""
        impl = twin_module("compiled")
        searches = [args for args in memo_searches() if args[4] == 1]
        searches.append((initial_board(12).state, 0, *searches[-1][2:]))
        memo, got = impl.new_memo(), []
        for args in searches:
            move, nodes = impl.search(*args, memo=memo)
            got.append(((*move[:3], nodes), memo.counts()))
        assert got == self.LINKED

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_depth_zero_searches_never_touch_the_memo(self, twin):
        """Random rollouts (minimax depth 0) draw from the stream and never
        look up or insert a step: a game's depth-0 searches through one
        handle choose the moves they choose without one and leave its
        counts at zero."""
        impl = twin_module(twin)
        memo = impl.new_memo()
        board, color = initial_board(3), Color.RED
        for k in range(self.TURNS):
            args = search_args(board, color, replace(self.CFG, minimax_depth=0, rng_seed=k))
            found = impl.search(*args, memo=memo)
            assert found == impl.search(*args), k
            board, color = GameBoard(found[0][5], 3), color.opponent
        assert memo.counts() == (0, 0, 0, 0)

    def test_play_episode_reports_its_memo(self, search_twin, monkeypatch):
        """``play_episode`` passes one memo to all turns and reports its
        counts, the same on both twins."""
        ep = play_episode(self.CFG, episode_id=1, max_turns=8)
        steps, hits, entries, clears = ep.memo_counts
        assert ep.turns == 8 and hits + entries == steps and clears == 0
        monkeypatch.setattr(kernel, "search", _pykernel.search)
        monkeypatch.setattr(kernel, "new_memo", _pykernel.new_memo)
        assert play_episode(self.CFG, episode_id=1, max_turns=8).memo_counts == ep.memo_counts


class TestRolloutResults:
    """The memo entry of a rollout's first step keeps that whole rollout:
    its ``[white, red]`` rewards, simulation depth and memo lookups.  A
    later rollout from there at the same depth returns the rewards and
    counts the lookups as hits, exactly as its walk would.  Each case runs
    searches through one handle per twin and compares, after every search,
    the twins' ``(move, nodes)`` and ``counts()``."""

    @staticmethod
    def through_one_memo(impl, searches, own_memo=True):
        """``((move, nodes), counts())`` after each search through one
        handle; with ``own_memo`` each search must also choose what it
        chooses through a memo of its own."""
        memo, got = impl.new_memo(), []
        for args in searches:
            found = impl.search(*args, memo=memo)
            if own_memo:
                assert found == impl.search(*args), (impl.__name__, args[1:5])
            got.append((found, memo.counts()))
        return got

    def twins_agree(self, searches, own_memo=True):
        """The pure twin's ``through_one_memo``, which the compiled twin
        must give too."""
        want = self.through_one_memo(_pykernel, searches, own_memo)
        got = self.through_one_memo(twin_module("compiled"), searches, own_memo)
        assert got == want
        return want

    def test_simulation_depths_share_one_memo(self):
        """Searches at simulation depths 10 and 30 through one memo, each
        run again with one iteration more, so that each repeated rollout
        meets a result of the other depth as well as of its own; a search
        with one iteration more is not a kept one, so it walks its rollouts.
        Last, the final search once more, which replays the kept search."""
        cfg = SearchConfig(iterations=200, simulation_depth=10, minimax_depth=1)
        board = initial_board(3)
        searches = [search_args(board, color, replace(cfg, iterations=n, simulation_depth=depth))
                    for n, depth in ((200, 10), (200, 30), (201, 10), (201, 30))
                    for color in (Color.RED, Color.WHITE)]
        counts = [(0, 0, 0, 0)] + [c for _, c in self.twins_agree(searches + searches[-1:])]
        # each search's (steps, hits, entries) added
        added = [tuple(b - a for a, b in zip(before[:3], after[:3]))
                 for before, after in zip(counts, counts[1:])]
        # the first 200 iterations of a repeat walk only stored steps, each a
        # hit, and the replay counts its kept search's lookups as hits
        assert all(added[4 + k][1] >= added[k][0] for k in range(4))
        assert added[-1] == (added[-2][0], added[-2][0], 0)

    # a 3-against-1 ending of men only, white to move, in which every
    # rollout at minimax depth 1 stops within a few dozen steps where a side
    # has no move, so a search at simulation depth 2**32 + 10 finishes
    ENDING = GameBoard.from_pieces([GamePiece(Color.WHITE, 1, 6, 6, False),
                                    GamePiece(Color.WHITE, 2, 2, 2, False),
                                    GamePiece(Color.WHITE, 3, 5, 3, False),
                                    GamePiece(Color.RED, 1, 6, 0, False)], 3)

    def test_depth_past_32_bits_is_another_depth(self):
        """Depths 10 and 2**32 + 10 agree in their low 32 bits, so a depth
        kept or compared in 32 bits would answer the deep rollouts with the
        shallow ones' results, or a kept search of one depth replay for the
        other; they walk further, so their counts differ.  Each depth is run
        again with one iteration more, then the last search once more."""
        args = search_args(self.ENDING, Color.WHITE,
                           SearchConfig(iterations=40, simulation_depth=10, minimax_depth=1))
        deep = 2**32 + 10
        searches = [args[:2] + (n, depth) + args[4:]
                    for n, depth in ((40, 10), (40, deep), (41, 10), (41, deep), (41, deep))]
        got = self.twins_agree(searches)
        shallow_steps, deep_steps = got[0][1][0], got[1][1][0] - got[0][1][0]
        assert deep_steps > shallow_steps + 100

    def test_walk_past_a_full_memo_is_not_stored(self):
        """Once a search fills the memo, its walks go on through steps the
        memo no longer stores, and none of those walks may be kept: a replay
        would count such a step as a hit where its walk misses.  In the pure
        twin, every kept result replays through the table hitting at each
        lookup, with its rewards; the twins count alike through the fill,
        the search that empties the memo and the one after it."""
        searches = [args for args in memo_searches() if args[4] == 1]
        searches.append((initial_board(12).state, 0, *searches[-1][2:]))
        memo = _pykernel.new_memo()
        for args in searches[:5]:
            _pykernel.search(*args, memo=memo)
        assert memo.counts()[2] == _pykernel.MEMO_MAX and memo.results
        for (state, turn), (depth, white, red, lookups) in memo.results.items():
            delta, walked = [0, 0], 0
            for _ in range(depth):
                walked += 1
                step = memo.table[state, turn]
                if step is None:
                    break
                delta[turn] += step[0]
                state, turn = step[1], 1 - turn
            assert (walked, delta) == (lookups, [white, red])
        self.twins_agree(searches, own_memo=False)

    def test_twelve_a_side_batch_fills_and_clears(self, monkeypatch):
        """A batch of two 12-a-side games through one memo, a 3000-iteration
        turn each: the first fills the memo and the second's empties and
        refills it.  Both twins play the same games and report the same
        share of the memo for each game."""
        cfg = SearchConfig(iterations=3000, simulation_depth=30, minimax_depth=1)
        got = []
        for impl in (_pykernel, twin_module("compiled")):
            monkeypatch.setattr(kernel, "search", impl.search)
            monkeypatch.setattr(kernel, "new_memo", impl.new_memo)
            got.append([(ep.red_trace, ep.memo_counts)
                        for ep in run_episodes(cfg, (1, "twelve"), 2, 12, 1, False, 1)])
        assert got[0] == got[1]
        (_, first), (_, second) = got[0]
        assert first[2:] == (_pykernel.MEMO_MAX, 0) and second[2:] == (_pykernel.MEMO_MAX, 1)


class TestSearchReplay:
    """At minimax depth >= 1 a handle keeps each search made through it,
    and a later search with the same root and settings, since the handle
    was last emptied, returns the kept ``(move, nodes)`` and counts the
    kept search's memo lookups as steps and hits, as searching again
    would.  Where a case pins ``counts()`` after every search, the counts
    were recorded from a kernel that kept no searches."""

    CFG = SearchConfig(iterations=60, simulation_depth=8, minimax_depth=1)
    TURNS = 6

    @pytest.fixture(scope="class")
    def game(self):
        """The searches of a game from the 3-a-side opening, red first, each
        turn's seed its number and each turn played on the memo-free
        oracle's move: ``(arguments, oracle's (move, nodes))`` per turn."""
        board, color, turns = initial_board(3), Color.RED, []
        for k in range(self.TURNS):
            args = search_args(board, color, replace(self.CFG, rng_seed=k))
            want = reference_search(*args)
            turns.append((args, want))
            board, color = GameBoard(want[0][5], 3), color.opponent
        return turns

    # counts() after each search of the game and of its replay
    GAME_TWICE = [(480, 290, 190, 0), (960, 629, 331, 0), (1440, 1046, 394, 0),
                  (1913, 1365, 548, 0), (2386, 1774, 612, 0), (2855, 2191, 664, 0),
                  (3335, 2671, 664, 0), (3815, 3151, 664, 0), (4295, 3631, 664, 0),
                  (4768, 4104, 664, 0), (5241, 4577, 664, 0), (5710, 5046, 664, 0)]

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_second_game_replays_the_first(self, twin, game):
        """Two games of one chunk through one handle, the second with other
        seeds, which minimax-depth-1 rollouts never read: each of the second
        game's searches returns the very result its twin in the first
        returned, each is the memo-free oracle's, and the counts are those
        of searching again."""
        impl = twin_module(twin)
        memo, first, got = impl.new_memo(), [], []
        for args, want in game:
            first.append(impl.search(*args, memo=memo))
            got.append(memo.counts())
            assert first[-1] == want, len(first)
        for k, (args, _) in enumerate(game):
            assert impl.search(*args[:-1], 100 + k, memo=memo) is first[k], k
            got.append(memo.counts())
        assert got == self.GAME_TWICE

    # argument position and another value of each setting in a search's
    # key, on a position where each changes the search's (move, nodes)
    KEY = {"side": (1, 1), "iterations": (2, 41), "sim_depth": (3, 3),
           "exploration": (9, 2.0), "discount": (10, 0.3), "pruning": (11, True)}

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_each_key_field_parts_searches(self, twin):
        """Through one handle, a search that differs from a kept one in one
        setting of its key returns what it returns through a memo of its
        own, not the kept search's result."""
        impl = twin_module(twin)
        board = random_board(random.Random(8), n_pieces=8, kings=False)
        base = search_args(board, Color.WHITE, SearchConfig(
            iterations=40, simulation_depth=6, minimax_depth=1,
            reward=RewardConfig(forced_capture=False)))
        for name, (at, value) in self.KEY.items():
            other = base[:at] + (value,) + base[at + 1:]
            fresh = impl.search(*base), impl.search(*other)
            assert fresh[0] != fresh[1], name
            memo = impl.new_memo()
            assert (impl.search(*base, memo=memo), impl.search(*other, memo=memo)) == fresh, name

    # counts() after each search: memo_searches()'s four 300-iteration
    # depth-1 searches, its 3000-iteration one, which fills the memo, then
    # that one again and the first again, each finding the memo full and
    # emptying it first
    EMPTIED = [(2975, 1730, 1245, 0), (5950, 3477, 2473, 0), (8950, 4560, 4390, 0),
               (11950, 5823, 6127, 0), (101920, 52397, 32768, 0), (191890, 99225, 32768, 1),
               (194865, 100955, 1245, 2)]

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_emptied_memo_replays_nothing(self, twin):
        """A search that fills the memo meets steps it no longer stores, so
        searching again would miss them; the memo it leaves is more than
        half full, so the next search empties it, with the kept searches,
        before looking one up.  Repeats after that search again and count
        what a kernel without kept searches counts."""
        impl = twin_module(twin)
        searches = [args for args in memo_searches() if args[4] == 1][:5]
        memo, got = impl.new_memo(), []
        for args in searches + [searches[4], searches[0]]:
            impl.search(*args, memo=memo)
            got.append(memo.counts())
        assert got == self.EMPTIED

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_depth_zero_searches_are_not_kept(self, twin):
        """Minimax-depth-0 rollouts draw their moves from the seed, which is
        not in the key: searches with two seeds through one handle each
        return the memo-free oracle's result, and the two differ."""
        impl = twin_module(twin)
        cfg = replace(self.CFG, minimax_depth=0)
        searches = [search_args(initial_board(3), Color.RED, replace(cfg, rng_seed=seed))
                    for seed in (1, 3)]
        want = [reference_search(*args) for args in searches]
        assert want[0] != want[1]
        memo = impl.new_memo()
        assert [impl.search(*args, memo=memo) for args in searches] == want

    # 1-iteration searches from one root, each with its own exploration,
    # which one iteration never reads: the first stores its rollout's 4
    # steps and the rest only look them up, so the memo is never emptied
    ONE_ROOT = search_args(initial_board(3), Color.RED,
                           SearchConfig(iterations=1, simulation_depth=4, minimax_depth=1))

    def explored(self, impl, memo, first, stop):
        """Searches ``ONE_ROOT`` at explorations ``k / 1024`` for ``k`` in
        ``range(first, stop)`` through ``memo``."""
        for k in range(first, stop):
            impl.search(*self.ONE_ROOT[:9], k / 1024, *self.ONE_ROOT[10:], memo=memo)

    def test_pure_twin_keeps_at_most_memo_max_searches(self, monkeypatch):
        """Past ``MEMO_MAX`` kept searches a handle keeps no more, and the
        searches it no longer keeps count what searching counts."""
        monkeypatch.setattr(_pykernel, "MEMO_MAX", 8)
        memo = _pykernel.new_memo()
        self.explored(_pykernel, memo, 0, 12)
        assert sorted(key[4] for key in memo.searches) == [k / 1024 for k in range(8)]
        assert memo.counts() == (48, 44, 4, 0)

    def test_compiled_twin_keeps_at_most_memo_max_searches(self):
        """The compiled twin's kept searches are out of reach of Python, so
        this reads what they allocate: a thousand new searches just short of
        ``MEMO_MAX`` kept ones grow the traced memory, and a thousand past
        it do not."""
        impl = twin_module("compiled")
        memo = impl.new_memo()
        n = _pykernel.MEMO_MAX
        self.explored(impl, memo, 0, n - 1000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            self.explored(impl, memo, n - 1000, n)
            kept = tracemalloc.get_traced_memory()[0]
            self.explored(impl, memo, n, n + 1000)
            past = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept - start > 100_000 and past - kept < 10_000
        assert memo.counts() == (4 * (n + 1000), 4 * (n + 1000) - 4, 4, 0)

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_negative_zero_exploration_is_zero(self, twin):
        """Exploration -0.0 equals 0.0, so a search at one replays the kept
        search at the other and returns its very result."""
        impl = twin_module(twin)
        memo = impl.new_memo()
        zero = impl.search(*self.ONE_ROOT[:9], 0.0, *self.ONE_ROOT[10:], memo=memo)
        assert impl.search(*self.ONE_ROOT[:9], -0.0, *self.ONE_ROOT[10:], memo=memo) is zero


class TestMemoRefusals:
    ARGS = search_args(initial_board(3), Color.WHITE,
                       SearchConfig(iterations=30, simulation_depth=6, minimax_depth=1))
    # argument positions of forced, capture points, crown points, king
    # weight and minimax depth, each with another value
    RULES = {"forced": (5, False), "capture": (6, 8), "crown": (7, 6),
             "king_weight": (8, 0.25), "depth": (4, 2)}
    # what a search may change between the searches that share a memo
    FREE = {"side": (1, 1), "iterations": (2, 40), "sim_depth": (3, 9),
            "exploration": (9, 1.5), "discount": (10, 0.5), "pruning": (11, True),
            "seed": (12, 5)}

    @staticmethod
    def changed(args, at, value):
        return args[:at] + (value,) + args[at + 1:]

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_other_rules_are_refused_before_any_work(self, twin):
        """A memo is bound to the rules, points, king weight and depth of
        its first search; a later search with any other value raises the
        same ValueError on both twins and leaves the memo as it was."""
        impl = twin_module(twin)
        memo = impl.new_memo()
        impl.search(*self.ARGS, memo=memo)
        before = memo.counts()
        for name, (at, value) in self.RULES.items():
            with pytest.raises(ValueError, match=re.escape(_pykernel.MEMO_RULES_MSG)):
                impl.search(*self.changed(self.ARGS, at, value), memo=memo)
            assert memo.counts() == before, name
        for name, (at, value) in self.FREE.items():
            impl.search(*self.changed(self.ARGS, at, value), memo=memo)
        assert memo.counts()[0] > before[0]

    @pytest.mark.parametrize("twin", ["python", "compiled"])
    def test_foreign_handle_is_a_type_error(self, twin):
        impl = twin_module(twin)
        other = twin_module("compiled" if twin == "python" else "python")
        for handle in ({}, object(), other.new_memo()):
            with pytest.raises(TypeError, match=re.escape(
                    "memo must be None or this kernel's new_memo()")):
                impl.search(*self.ARGS, memo=handle)


class TestPruneByReward:
    def test_paper_style_grouping(self):
        moves = ([mv(10)] * 3) + ([mv(6)] * 2) + ([mv(4)] * 3) + ([mv(0)] * 4)
        kept = prune_by_reward(moves)
        assert kept == [mv(10)] * 3

    def test_all_equal_returns_input(self):
        moves = [mv(5), mv(5), mv(5)]
        assert prune_by_reward(moves) == moves

    def test_single_move(self):
        assert prune_by_reward([mv(3)]) == [mv(3)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prune_by_reward([])

    def test_pruning_safety_property(self):
        rng = random.Random(2)
        for _ in range(100):
            moves = [mv(rng.choice([0, 4, 6, 10])) for _ in range(rng.randrange(1, 12))]
            kept = prune_by_reward(moves)
            top = max(m[4] for m in moves)
            assert all(m[4] == top for m in kept)
            assert all(m in moves for m in kept)

    def test_pruned_search_only_expands_top_reward_moves(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.WHITE, 2, 4, 0),
            GamePiece(Color.RED, 1, 3, 3),
            GamePiece(Color.RED, 2, 7, 7),
        ])
        cfg = SearchConfig(iterations=30, simulation_depth=4, minimax_depth=1,
                           pruning_enabled=True,
                           reward=RewardConfig(forced_capture=False))
        t = tree(board, Color.WHITE, cfg)
        n = t.actions(0)
        actions = t.move[t.first[0]:t.first[0] + n]
        top = max(m.reward for m in legal_moves(board, Color.WHITE, cfg.reward))
        assert actions
        assert all(m[4] == top for m in actions)


GOLDEN_PATH = Path(__file__).parent / "data" / "search_golden.json"
GOLDEN_ITERATIONS = 24
GOLDEN_SIM_DEPTH = 5


def golden_positions():
    """``(name, board)``: three seeded positions per size, reached from the
    opening by 6-23 plies (3 a side) or 4-17 plies (12 a side) of random
    legal play, and one hand-set position where crowning moves exist."""
    rng = random.Random(4)
    for pieces, plies in ((3, (6, 14, 22)), (12, (4, 10, 16))):
        for k, base in enumerate(plies):
            while True:
                board, side = initial_board(pieces), Color.RED
                for _ in range(base + rng.randrange(2)):
                    moves = legal_moves(board, side)
                    if winner(board, side) is not None:
                        break
                    board = apply_move(board, moves[rng.randrange(len(moves))])
                    side = side.opponent
                else:
                    break
            yield f"{pieces}x{k}", board
    # both sides have a man one step from crowning and a capture on offer
    yield "3xcrown", GameBoard.from_pieces([
        GamePiece(Color.WHITE, 1, 6, 2), GamePiece(Color.WHITE, 2, 3, 3),
        GamePiece(Color.WHITE, 3, 0, 6),
        GamePiece(Color.RED, 1, 1, 5), GamePiece(Color.RED, 2, 4, 4),
        GamePiece(Color.RED, 3, 7, 7),
    ], pieces_per_side=3)


def golden_search_cases():
    """``(case id, board, colour, config)`` over both colours, minimax depth
    0-2, pruning on/off and forced capture on/off; every case has its own
    rng seed, which the depth-0 random rollouts read."""
    seed = 0
    for name, board in golden_positions():
        for color in (Color.WHITE, Color.RED):
            for depth in (0, 1, 2):
                for pruning in (False, True):
                    for forced in (True, False):
                        seed += 1
                        cfg = SearchConfig(
                            iterations=GOLDEN_ITERATIONS,
                            simulation_depth=GOLDEN_SIM_DEPTH,
                            minimax_depth=depth, pruning_enabled=pruning,
                            rng_seed=seed,
                            reward=RewardConfig(forced_capture=forced))
                        cid = (f"{name}/{color.name.lower()}/d{depth}/"
                               f"{'prune' if pruning else 'all'}/"
                               f"{'forced' if forced else 'free'}")
                        yield cid, board, color, cfg
    # 500 iterations grow a tree deep enough for the exploration constant
    # and the discount to steer selection and the backup
    wide = {"3x1", "12x1", "3xcrown"}
    for name, board in golden_positions():
        if name not in wide:
            continue
        for color in (Color.WHITE, Color.RED):
            for depth in (0, 1):
                for c, discount in ((0.0, 0.5), (2.0, 1.0), (1.3, 0.9)):
                    seed += 1
                    cfg = SearchConfig(iterations=500,
                                       simulation_depth=GOLDEN_SIM_DEPTH,
                                       minimax_depth=depth, exploration=c,
                                       discount=discount, rng_seed=seed)
                    yield (f"{name}/{color.name.lower()}/d{depth}/c{c}/g{discount}/i500",
                           board, color, cfg)
    # positions where a UCT score regrouped as (reward + c * sqrt(log_n *
    # visits)) / visits (cases 0 and 1), or a backup factor multiplied up
    # instead of discount ** dist (cases 2, 3 and 4), chooses another move:
    # they pin the float operations and their order.  The positions were
    # found by running both variants on random positions; the seeds of the
    # depth-0 cases by running them over seeds on the same positions once
    # the random moves came from the kernel's splitmix64 stream
    for k, (state, pieces, color, iterations, depth, c, discount, rng_seed) in enumerate((
            ("0100000000000000000000000000000000000200030000000000000000000000"
             "0000430000000000000000000000000000000000000042000000000000000041",
             3, Color.RED, 500, 0, 2.0, 0.95, 165),
            ("0100020003000400000500060007000809000a0000000c0000000000000b0000"
             "4c004b000000000000000000004a004948004700460045000044004300420041",
             12, Color.WHITE, 500, 0, 1.3, 0.9, 114),
            ("010002000300040000000000000700080900000000000c000000000000060000"
             "4c000000000000000000004b0000004948004700000000000044004300420041",
             12, Color.WHITE, 500, 0, 1.3, 0.8, 86),
            ("0100000000000000000000000000000000000000000000000000000200000000"
             "0000000000000300000000430000000000000000420000000000000000000000",
             3, Color.WHITE, 500, 0, 2.0, 0.9, 1650),
            ("0000000063000000000000000000000000000000000003000000000000000000"
             "0000000000000000000000000000000000000000420041000000000000000000",
             3, Color.RED, 500, 1, 2.0, 0.9, 516))):
        cfg = SearchConfig(iterations=iterations, simulation_depth=GOLDEN_SIM_DEPTH,
                           minimax_depth=depth, exploration=c, discount=discount,
                           rng_seed=rng_seed)
        yield (f"rounding{k}/{color.name.lower()}/d{depth}/c{c}/g{discount}/i{iterations}",
               GameBoard(bytes.fromhex(state), pieces), color, cfg)


def golden_search_record(board, color, cfg):
    """``[piece_id, from, to, captured_ids, crowned, reward, next state hex]``
    of the chosen move, or None when ``color`` has no move."""
    result = mcts_search(board, color, cfg)
    if result is None:
        return None
    move, after = result
    return [move.piece_id, list(move.from_pos), list(move.to_pos),
            list(move.captured_ids), move.crowned, move.reward, after.state.hex()]


def golden_episode_records():
    """Trace labels of two smoke-setting episodes (100 iterations, sim depth
    10), one with minimax depth 1 rollouts and one with seeded random ones."""
    out = {}
    for episode_id, depth in ((1, 1), (2, 0)):
        cfg = SearchConfig(iterations=100, simulation_depth=10,
                           minimax_depth=depth, rng_seed=episode_id)
        ep = play_episode(cfg, episode_id=episode_id)
        out[f"episode/{episode_id}"] = {
            "red": [label_for(s) for s in ep.red_trace],
            "white": [label_for(s) for s in ep.white_trace],
            "winner": None if ep.winner is None else ep.winner.name.lower(),
            "turns": ep.turns,
        }
    return out


def golden_records():
    records = {cid: golden_search_record(board, color, cfg)
               for cid, board, color, cfg in golden_search_cases()}
    records.update(golden_episode_records())
    return records


@pytest.fixture(params=["python", "compiled"])
def search_twin(request, monkeypatch):
    """Routes ``kernel.search`` and ``kernel.new_memo``, and so ``mcts_search``
    and ``play_episode``, to one kernel twin."""
    impl = twin_module(request.param)
    monkeypatch.setattr(kernel, "search", impl.search)
    monkeypatch.setattr(kernel, "new_memo", impl.new_memo)


class TestGolden:
    """The chosen move, reward and next state of ``mcts_search`` and two
    episodes' traces, on both kernel twins.  Recorded before the search
    tree moved to kernel tuples; the 500-iteration cases before the search
    moved into the kernel; the minimax-depth-0 cases and episode 2 again
    when their random moves came from the kernel's splitmix64 stream.
    Tie-breaking (first child wins), the UCT and backup arithmetic, the
    entry-move reward in the backup and the seeded depth-0 rollouts all show
    in these.  Regenerate only when the search is
    meant to change: ``PYTHONPATH=src python tests/test_search.py``."""

    def test_matches_golden(self, search_twin):
        golden = json.loads(GOLDEN_PATH.read_text())
        got = golden_records()
        assert list(got) == list(golden)
        for cid, want in golden.items():
            assert got[cid] == want, cid


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    records = golden_records()
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(cid)}: {json.dumps(rec)}" for cid, rec in records.items()) + "\n}\n")
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
