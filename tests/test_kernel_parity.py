"""The compiled and pure-Python kernels must agree move for move."""

import random

import pytest

from playmine import kernel
from playmine.kernel import _pykernel as pk
from helpers import random_board

compiled = pytest.importorskip("playmine.kernel._ckernel",
                               reason="compiled kernel not built")


def _positions(n, seed=99, **kwargs):
    rng = random.Random(seed)
    return [random_board(rng, **kwargs).state for _ in range(n)]


def _all_kings(state):
    return bytes(v | pk.KING_FLAG if v else 0 for v in state)


STATES = _positions(400)
# 24 pieces: 12 a side, the most a legal position holds
FULL = _positions(60, seed=7, n_pieces=24)
KINGS = [_all_kings(s) for s in _positions(60, seed=8, n_pieces=24)]


def _board(white, red, king=True):
    """State with white and red kings (or men) on the given squares."""
    cells = bytearray(64)
    for color, squares in ((pk.WHITE, white), (pk.RED, red)):
        for i, (x, y) in enumerate(squares, start=1):
            cells[(x << 3) | y] = pk.encode_cell(color, i, king)
    return bytes(cells)


LATTICE = [(x, y) for x in (1, 3, 5) for y in (1, 3, 5)]
# one white king that can take all nine lattice kings in one chain, the most
# any chain can take
LONGEST_CHAIN = _board([(0, 0)], LATTICE)
# 45 white moves, the most a hill-climb over legal positions found
CROWDED = _board([(1, 7), (3, 7), (5, 7), (7, 1), (7, 3), (7, 5), (7, 7), (4, 2), (4, 4)],
                 LATTICE)


def test_gen_moves_identical():
    for state in STATES + FULL + KINGS:
        for color in (0, 1):
            for forced in (True, False):
                assert (pk.gen_moves(state, color, forced, 7, 7)
                        == compiled.gen_moves(state, color, forced, 7, 7))


def test_static_functions_identical():
    for state in STATES + FULL + KINGS:
        assert pk.piece_counts(state) == compiled.piece_counts(state)
        for color in (0, 1):
            assert pk.winner(state, color) == compiled.winner(state, color)
            assert pk.side_has_moves(state, color) == compiled.side_has_moves(state, color)
            assert pk.evaluate(state, color, 0.5) == compiled.evaluate(state, color, 0.5)


def test_minimax_identical():
    for state in STATES[:150]:
        for color in (0, 1):
            for depth in (1, 2, 3):
                assert (pk.minimax(state, color, color, depth, True, 7, 7, 0.5)
                        == compiled.minimax(state, color, color, depth, True, 7, 7, 0.5))


def test_minimax_identical_on_full_and_king_heavy_boards():
    for state in FULL[:12] + KINGS[:12]:
        for color in (0, 1):
            for forced in (True, False):
                assert (pk.minimax(state, color, 1 - color, 2, forced, 7, 7, 0.5)
                        == compiled.minimax(state, color, 1 - color, 2, forced, 7, 7, 0.5))


def test_rollout_identical():
    for state in STATES[:150]:
        for color in (0, 1):
            assert (pk.rollout(state, color, 12, 2, True, 7, 7, 0.5)
                    == compiled.rollout(state, color, 12, 2, True, 7, 7, 0.5))


def test_rollout_identical_on_full_and_king_heavy_boards():
    for state in FULL[:20] + KINGS[:20]:
        for color in (0, 1):
            for forced in (True, False):
                assert (pk.rollout(state, color, 8, 1, forced, 7, 7, 0.5)
                        == compiled.rollout(state, color, 8, 1, forced, 7, 7, 0.5))


def test_capture_lattices_identical():
    for state in (LONGEST_CHAIN, CROWDED):
        for forced in (True, False):
            for color in (0, 1):
                assert (pk.gen_moves(state, color, forced, 7, 7)
                        == compiled.gen_moves(state, color, forced, 7, 7))
            assert (pk.minimax(state, 0, 0, 3, forced, 7, 7, 0.5)
                    == compiled.minimax(state, 0, 0, 3, forced, 7, 7, 0.5))
            assert (pk.rollout(state, 0, 10, 2, forced, 7, 7, 0.5)
                    == compiled.rollout(state, 0, 10, 2, forced, 7, 7, 0.5))
    assert max(len(m[2]) for m in compiled.gen_moves(LONGEST_CHAIN, 0, True, 7, 7)) == 9
    assert len(compiled.gen_moves(CROWDED, 0, False, 7, 7)) == 45


def _one_side_only(state, color):
    return bytes(v if v and pk.cell_color(v) == color else 0 for v in state)


# men: white (0, 0)'s only move is to take (1, 1); with (2, 2) taken too,
# white has a piece and no move
ONLY_JUMP = _board([(0, 0)], [(1, 1)], king=False)
BLOCKED = _board([(0, 0)], [(1, 1), (2, 2)], king=False)


@pytest.mark.parametrize("backend", [pk, compiled], ids=["python", "compiled"])
def test_winner_decided_iff_no_legal_move(backend):
    """minimax and rollout stop on "no legal move" instead of calling winner:
    winner(s, c) != -1 exactly when gen_moves(s, c) is empty, forced or not."""
    no_pieces = [_one_side_only(s, c) for s in STATES[:60] + FULL[:20] for c in (0, 1)]
    boards = STATES + FULL + KINGS + no_pieces + [ONLY_JUMP, BLOCKED, LONGEST_CHAIN, CROWDED]
    decided = only_jumps = 0
    for state in boards:
        for color in (0, 1):
            for forced in (True, False):
                moves = backend.gen_moves(state, color, forced, 7, 7)
                assert (backend.winner(state, color) != -1) == (not moves), (state, color)
                decided += not moves
                only_jumps += bool(moves) and not forced and all(m[2] for m in moves)
    assert decided >= 2 * len(no_pieces) and only_jumps >= 1
    assert backend.winner(BLOCKED, pk.WHITE) == pk.RED
    assert [m[:2] for m in backend.gen_moves(ONLY_JUMP, pk.WHITE, False, 7, 7)] == [(0, 18)]


@pytest.mark.parametrize("backend", [pk, compiled], ids=["python", "compiled"])
@pytest.mark.parametrize("length", [0, 63, 65])
def test_state_of_wrong_length_is_rejected(backend, length):
    state = bytes(length)
    calls = [
        lambda: backend.gen_moves(state, 0, True, 7, 7),
        lambda: backend.side_has_moves(state, 0),
        lambda: backend.piece_counts(state),
        lambda: backend.evaluate(state, 0, 0.5),
        lambda: backend.winner(state, 0),
        lambda: backend.minimax(state, 0, 0, 0, True, 7, 7, 0.5),
        lambda: backend.minimax(state, 0, 0, 2, True, 7, 7, 0.5),
        lambda: backend.rollout(state, 0, 0, 1, True, 7, 7, 0.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="64 bytes"):
            call()


def test_selected_backend_matches_environment():
    assert kernel.BACKEND in ("compiled", "python")
