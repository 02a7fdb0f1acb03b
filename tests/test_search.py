import json
import math
import random
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
from helpers import random_endgame
from oracles import as_oracle_shape, oracle_best_move, oracle_minimax

CFG = SearchConfig(iterations=50, simulation_depth=8, minimax_depth=1, rng_seed=1)


def mv(reward):
    """A kernel move tuple (from, to, captured_ids, crowned, reward, state)."""
    return (0, 9, (), False, reward, bytes(64))


def tree(board, color, cfg=CFG):
    """The pure twin's search tree with ``board`` at its root (node 0) and
    ``color`` to move."""
    rw = cfg.reward
    return _pykernel._Tree(board.state, color.value, rw.forced_capture,
                           rw.capture_points, rw.crown_points, cfg.pruning_enabled)


def fully_expanded(t, i):
    """The test the search descends by: every action of node i is a child."""
    return t.nkids[i] > 0 and t.nkids[i] == t.nact[i]


def playout(state, turn, cfg, rng=None):
    """The pure twin's rollout for the search, [white, red] rewards."""
    rw = cfg.reward
    rng = rng or random.Random(cfg.rng_seed)
    return _pykernel._playout(state, turn, cfg.simulation_depth, cfg.minimax_depth,
                              rw.forced_capture, rw.capture_points, rw.crown_points,
                              cfg.king_weight, rng.randrange)


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
        {"discount": 0.0},
        {"discount": 1.5},
        {"exploration": -0.1},
        {"exploration": math.inf},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


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
        first = playout(state, Color.RED.value, cfg, random.Random(3))
        second = playout(state, Color.RED.value, cfg, random.Random(3))
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
        move, reward, after = mcts_search(board, Color.WHITE, CFG)
        assert move.captured_ids == (1,)
        assert reward == 7
        assert not after.pieces(Color.RED)

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
        move, reward, after = mcts_search(board, Color.WHITE, cfg)
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
        root_board = initial_board(3)
        cfg = SearchConfig(iterations=37, simulation_depth=4, minimax_depth=1)
        t = tree(root_board, Color.RED, cfg)
        # run through the public entry and mirror the count on a fresh tree
        assert mcts_search(root_board, Color.RED, cfg) is not None
        rng = random.Random(cfg.rng_seed)
        for _ in range(cfg.iterations):
            leaf = 0
            while fully_expanded(t, leaf):
                leaf = t.uct_child(leaf, cfg.exploration)
            if t.actions(leaf):
                leaf = t.expand(leaf)
            delta = playout(t.state[leaf], t.turn[leaf], cfg, rng)
            delta[1 - t.turn[leaf]] += t.move[leaf][4]
            t.backup(leaf, delta, cfg.discount)
        assert t.visits[0] == cfg.iterations
        rw = cfg.reward
        _, nodes = kernel.search(root_board.state, Color.RED.value, cfg.iterations,
                                 cfg.simulation_depth, cfg.minimax_depth,
                                 rw.forced_capture, rw.capture_points, rw.crown_points,
                                 cfg.king_weight, cfg.exploration, cfg.discount,
                                 cfg.pruning_enabled, random.Random(cfg.rng_seed).randrange)
        assert nodes == sum(t.nkids)

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
    # visits)) / visits, or a backup factor multiplied up instead of
    # discount ** dist, chooses another move: they pin the float operations
    # and their order, found by running both variants on random positions
    for k, (state, pieces, color, iterations, depth, c, discount, rng_seed) in enumerate((
            ("0100000000000000000000000000000000000200030000000000000000000000"
             "0000430000000000000000000000000000000000000042000000000000000041",
             3, Color.RED, 500, 0, 2.0, 0.95, 504),
            ("0100020003000400000500060007000809000a0000000c0000000000000b0000"
             "4c004b000000000000000000004a004948004700460045000044004300420041",
             12, Color.WHITE, 500, 0, 1.3, 0.9, 710),
            ("010002000300040000000000000700080900000000000c000000000000060000"
             "4c000000000000000000004b0000004948004700000000000044004300420041",
             12, Color.WHITE, 500, 0, 1.3, 0.8, 350),
            ("0100000000000000000000000000000000000000000000000000000200000000"
             "0000000000000300000000430000000000000000420000000000000000000000",
             3, Color.WHITE, 500, 0, 2.0, 0.9, 243),
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
    move, reward, after = result
    assert reward == move.reward
    return [move.piece_id, list(move.from_pos), list(move.to_pos),
            list(move.captured_ids), move.crowned, reward, after.state.hex()]


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
    """Routes ``kernel.search``, and so ``mcts_search``, to one kernel twin."""
    if request.param == "python":
        impl = _pykernel
    else:
        impl = pytest.importorskip("playmine.kernel._ckernel",
                                   reason="compiled kernel not built")
    monkeypatch.setattr(kernel, "search", impl.search)


class TestGolden:
    """The chosen move, reward and next state of ``mcts_search`` and two
    episodes' traces, on both kernel twins.  Recorded before the search
    tree moved to kernel tuples; the 500-iteration cases before the search
    moved into the kernel.  Tie-breaking (first child wins), the UCT and
    backup arithmetic, the entry-move reward in the backup and the seeded
    depth-0 rollouts all show in these.  Regenerate only when the search is
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
