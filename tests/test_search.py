import json
import math
import random
import re
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
from helpers import memo_searches, random_endgame
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
