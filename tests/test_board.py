import operator
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playmine import kernel
from playmine.board import (
    Color,
    ConcreteMove,
    GameBoard,
    GamePiece,
    RewardConfig,
    RuleViolationError,
    apply_move,
    evaluate,
    initial_board,
    legal_moves,
    winner,
)
from helpers import random_board
from oracles import as_oracle_shape, oracle_moves

CFG = RewardConfig()
FREE = RewardConfig(forced_capture=False)


# initial_board(n).state.hex() for n = 1..12
OPENINGS = {
    1: "0100000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000041",
    2: "0100020000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000420041",
    3: "0100020003000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000004300420041",
    4: "0100020003000400000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000044004300420041",
    5: "0100020003000400000500000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000045000044004300420041",
    6: "0100020003000400000500060000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000460045000044004300420041",
    7: "0100020003000400000500060007000000000000000000000000000000000000"
       "0000000000000000000000000000000000004700460045000044004300420041",
    8: "0100020003000400000500060007000800000000000000000000000000000000"
       "0000000000000000000000000000000048004700460045000044004300420041",
    9: "0100020003000400000500060007000809000000000000000000000000000000"
       "0000000000000000000000000000004948004700460045000044004300420041",
    10: "0100020003000400000500060007000809000a00000000000000000000000000"
        "000000000000000000000000004a004948004700460045000044004300420041",
    11: "0100020003000400000500060007000809000a000b0000000000000000000000"
        "00000000000000000000004b004a004948004700460045000044004300420041",
    12: "0100020003000400000500060007000809000a000b000c000000000000000000"
        "0000000000000000004c004b004a004948004700460045000044004300420041",
}


class TestInitialBoard:
    def test_standard_opening(self):
        board = initial_board(12)
        for color, rows in ((Color.WHITE, {0, 1, 2}), (Color.RED, {5, 6, 7})):
            pieces = board.pieces(color)
            assert len(pieces) == 12
            assert {p.x for p in pieces} == rows
            assert not any(p.king for p in pieces)

    def test_three_per_side(self):
        board = initial_board(3)
        assert len(board.pieces(Color.RED)) == 3
        assert len(board.pieces(Color.WHITE)) == 3
        assert not any(p.king for p in board.pieces())
        assert {p.x for p in board.pieces(Color.WHITE)} == {0}
        assert {p.x for p in board.pieces(Color.RED)} == {7}

    def test_ids_assigned_in_fill_order(self):
        board = initial_board(3)
        assert [p.id for p in board.pieces(Color.WHITE)] == [1, 2, 3]

    def test_mirrored_placement(self):
        board = initial_board(3)
        white = {(p.x, p.y) for p in board.pieces(Color.WHITE)}
        red = {(p.x, p.y) for p in board.pieces(Color.RED)}
        assert red == {(7 - x, 7 - y) for x, y in white}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_recorded_openings(self, n):
        """Every opening state, byte for byte, as recorded before the fill
        became one loop: white ids from the lowest index, red from the
        highest."""
        assert initial_board(n).state.hex() == OPENINGS[n]

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_out_of_range_count(self, n):
        with pytest.raises(ValueError):
            initial_board(n)


class TestGameBoardInvariants:
    def test_light_square_rejected(self):
        with pytest.raises(ValueError):
            GameBoard.from_pieces([GamePiece(Color.RED, 1, 0, 1)])

    def test_shared_cell_rejected(self):
        with pytest.raises(ValueError):
            GameBoard.from_pieces([GamePiece(Color.RED, 1, 0, 2),
                                   GamePiece(Color.WHITE, 1, 0, 2)])

    def test_duplicate_identity_rejected(self):
        with pytest.raises(ValueError):
            GameBoard.from_pieces([GamePiece(Color.RED, 1, 0, 2),
                                   GamePiece(Color.RED, 1, 2, 2)])

    @pytest.mark.parametrize("bad_id", [0, 13, -1])
    def test_piece_id_range(self, bad_id):
        with pytest.raises(ValueError):
            GameBoard.from_pieces([GamePiece(Color.RED, bad_id, 0, 2)])

    def test_count_cap(self):
        pieces = [GamePiece(Color.RED, i, 1, 2 * i - 1) for i in (1, 2, 3)]
        pieces.append(GamePiece(Color.RED, 4, 3, 1))
        with pytest.raises(ValueError):
            GameBoard.from_pieces(pieces, pieces_per_side=3)

    @pytest.mark.parametrize("n", [0, 13, 40])
    def test_out_of_range_count(self, n):
        """An explicit count is held to initial_board's range and message."""
        with pytest.raises(ValueError) as want:
            initial_board(n)
        with pytest.raises(ValueError) as got:
            GameBoard.from_pieces([GamePiece(Color.RED, 1, 0, 2)], pieces_per_side=n)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("field, value", [("state", bytes(64)),
                                              ("pieces_per_side", 12)],
                             ids=["state", "pieces_per_side"])
    def test_fields_are_read_only(self, field, value):
        board = initial_board(3)
        with pytest.raises(FrozenInstanceError):
            setattr(board, field, value)
        assert board == initial_board(3)

    def test_equality_and_hash_cover_state_and_size(self):
        a, b = initial_board(3), GameBoard(initial_board(3).state, 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        other_size = GameBoard(a.state, 12)
        assert a != other_size
        assert a != initial_board(4)


class TestLegalMoves:
    def test_opening_is_quiet(self):
        board = initial_board(3)
        moves = legal_moves(board, Color.RED, CFG)
        assert moves
        assert all(m.reward == 0 and not m.captured_ids for m in moves)

    def test_single_jump(self):
        # white man jumps a red man and lands behind it
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.RED, 1, 3, 3),
        ])
        moves = legal_moves(board, Color.WHITE, CFG)
        assert len(moves) == 1
        jump = moves[0]
        assert jump.to_pos == (4, 4)
        assert jump.captured_ids == (1,)
        assert jump.reward == 7

    def test_single_jump_mirrored_for_red(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.RED, 1, 5, 5),
            GamePiece(Color.WHITE, 1, 4, 4),
        ])
        moves = legal_moves(board, Color.RED, CFG)
        assert [m.to_pos for m in moves] == [(3, 3)]
        assert moves[0].captured_ids == (1,)

    def test_forced_capture_hides_quiet_moves(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.WHITE, 2, 0, 0),
            GamePiece(Color.RED, 1, 3, 3),
        ])
        forced = legal_moves(board, Color.WHITE, CFG)
        assert all(m.captured_ids for m in forced)
        free = legal_moves(board, Color.WHITE, FREE)
        assert any(m.captured_ids for m in free)
        assert any(not m.captured_ids for m in free)

    def test_double_jump_chain(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 1, 1),
            GamePiece(Color.RED, 1, 2, 2),
            GamePiece(Color.RED, 2, 4, 4),
        ])
        moves = legal_moves(board, Color.WHITE, CFG)
        chain = max(moves, key=lambda m: len(m.captured_ids))
        assert chain.captured_ids == (1, 2)
        assert chain.to_pos == (5, 5)
        assert chain.reward == 14

    def test_men_do_not_move_backwards(self):
        board = GameBoard.from_pieces([GamePiece(Color.WHITE, 1, 4, 4)])
        assert all(m.to_pos[0] > 4 for m in legal_moves(board, Color.WHITE, CFG))
        board = GameBoard.from_pieces([GamePiece(Color.RED, 1, 4, 4)])
        assert all(m.to_pos[0] < 4 for m in legal_moves(board, Color.RED, CFG))

    def test_kings_move_both_directions(self):
        board = GameBoard.from_pieces([GamePiece(Color.WHITE, 1, 4, 4, king=True)])
        targets = {m.to_pos for m in legal_moves(board, Color.WHITE, CFG)}
        assert targets == {(5, 5), (5, 3), (3, 5), (3, 3)}

    def test_oracle_equivalence_on_random_positions(self):
        rng = random.Random(20240811)
        for _ in range(1000):
            board = random_board(rng)
            color = Color.WHITE if rng.random() < 0.5 else Color.RED
            cfg = CFG if rng.random() < 0.5 else FREE
            ours = sorted(as_oracle_shape(m) for m in legal_moves(board, color, cfg))
            expected = sorted(oracle_moves(board, color, cfg))
            assert ours == expected, f"\n{board!r}\n{color} {cfg}"


class TestApplyMove:
    def test_quiet_step(self):
        board = initial_board(3)
        move = legal_moves(board, Color.RED, CFG)[0]
        after = apply_move(board, move, CFG)
        assert after is not board
        assert len(after.pieces(Color.RED)) == 3
        assert len(after.pieces(Color.WHITE)) == 3
        assert after.piece_at(*move.to_pos).id == move.piece_id
        assert board.piece_at(*move.to_pos) is None  # input unmodified

    def test_capture_removes_victims(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 2, 2),
            GamePiece(Color.RED, 1, 3, 3),
            GamePiece(Color.RED, 2, 7, 7),
        ])
        jump = next(m for m in legal_moves(board, Color.WHITE, CFG) if m.captured_ids)
        after = apply_move(board, jump, CFG)
        assert len(after.pieces(Color.RED)) == 2 - len(jump.captured_ids)

    def test_crowning(self):
        board = GameBoard.from_pieces([GamePiece(Color.WHITE, 1, 6, 2)])
        move = next(m for m in legal_moves(board, Color.WHITE, CFG) if m.crowned)
        assert move.reward == 7
        after = apply_move(board, move, CFG)
        assert after.piece_at(*move.to_pos).king

    def test_illegal_move_raises(self):
        board = initial_board(3)
        bogus = ConcreteMove(piece_id=1, from_pos=(0, 1), to_pos=(4, 5))
        with pytest.raises(RuleViolationError):
            apply_move(board, bogus, CFG)


class TestWinner:
    def test_no_pieces_loses(self):
        board = GameBoard.from_pieces([GamePiece(Color.WHITE, 1, 2, 2)])
        assert winner(board, Color.RED) is Color.WHITE

    def test_opening_undecided(self):
        assert winner(initial_board(3), Color.RED) is None
        assert winner(initial_board(3), Color.WHITE) is None

    def test_blocked_side_loses(self):
        # red man at (1,1) has both destinations blocked and no jump room
        board = GameBoard.from_pieces([
            GamePiece(Color.RED, 1, 1, 1),
            GamePiece(Color.WHITE, 1, 0, 0),
            GamePiece(Color.WHITE, 2, 0, 2),
        ])
        assert not legal_moves(board, Color.RED, CFG)
        assert winner(board, Color.RED) is Color.WHITE


class TestEvaluate:
    def test_opening_symmetric(self):
        board = initial_board(3)
        assert evaluate(board, Color.RED) == 0
        assert evaluate(board, Color.WHITE) == 0

    def test_material_difference(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 0, 0), GamePiece(Color.WHITE, 2, 0, 2),
            GamePiece(Color.WHITE, 3, 0, 4),
            GamePiece(Color.RED, 1, 7, 7), GamePiece(Color.RED, 2, 7, 5),
        ])
        assert evaluate(board, Color.WHITE) == 1

    def test_king_weight(self):
        board = GameBoard.from_pieces([
            GamePiece(Color.WHITE, 1, 3, 3, king=True),
            GamePiece(Color.RED, 1, 5, 5),
        ])
        assert evaluate(board, Color.WHITE) == 0.5

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, seed):
        board = random_board(random.Random(seed))
        assert evaluate(board, Color.RED) + evaluate(board, Color.WHITE) == 0


# the 32 light cells (x + y odd) of the state, indexed x * 8 + y
LIGHT_CELLS = operator.itemgetter(*(i for i in range(64) if ((i >> 3) + (i & 7)) % 2))


def side_counts(state):
    """Pieces per side as [white, red], read from the state's cells."""
    wm, wk, rm, rk = kernel.piece_counts(state)
    return [wm + wk, rm + rk]


class TestGameProperties:
    def _random_game(self, rng):
        """Up to 120 random legal moves from the 3-a-side opening, on the
        kernel's move tuples."""
        state = initial_board(3).state
        color = kernel.RED
        counts = side_counts(state)
        for _ in range(120):
            moves = kernel.gen_moves(state, color, CFG.forced_capture, CFG.capture_points,
                                     CFG.crown_points)
            if not moves:
                break
            _, _, captured, crowned, reward, state = moves[rng.randrange(len(moves))]
            own, opp = color, 1 - color
            before_own, before_opp = counts[own], counts[opp]
            counts = side_counts(state)
            # piece conservation under every applied move
            assert counts[own] == before_own
            assert counts[opp] == before_opp - len(captured)
            # reward consistency under the default config
            assert reward == 7 * len(captured) + 7 * crowned
            # parity: every piece stays on a dark square, so light cells stay empty
            assert not any(LIGHT_CELLS(state))
            color = opp

    def test_random_game_fuzz(self):
        games = 10_000 if kernel.BACKEND == "compiled" else 500
        rng = random.Random(7)
        for _ in range(games):
            self._random_game(rng)
