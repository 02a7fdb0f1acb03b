"""The compiled and pure-Python kernels must agree move for move."""

import math
import random
from itertools import product

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
        lambda: backend.search(state, 0, 1, 0, 1, True, 7, 7, 0.5, 0.5, 0.8, False, None),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="64 bytes"):
            call()


def test_selected_backend_matches_environment():
    assert kernel.BACKEND in ("compiled", "python")


def _jump_only(n, seed=13):
    """``(state, side)`` pairs whose side to move can only capture, even with
    capture not forced."""
    rng = random.Random(seed)
    out = [(ONLY_JUMP, pk.WHITE), (LONGEST_CHAIN, pk.WHITE)]
    while len(out) < n:
        state = random_board(rng, n_pieces=rng.randrange(6, 20)).state
        for color in (0, 1):
            moves = pk.gen_moves(state, color, False, 7, 7)
            if moves and all(m[2] for m in moves):
                out.append((state, color))
    return out[:n]


def _movable(states, n):
    """The first ``n`` (state, side) pairs, sides alternating, whose side to
    move has a legal move."""
    pairs = [(s, k % 2) for k, s in enumerate(states)]
    return [(s, side) for s, side in pairs if pk.side_has_moves(s, side)][:n]


# (state, side to move): random, 12 a side, all kings, jump-only
SEARCH_POSITIONS = (_movable(STATES, 2) + _movable(FULL, 2) + _movable(KINGS, 2)
                    + _jump_only(3))
EXPLORATION = (0.0, 1 / math.sqrt(2), 2.0)
DISCOUNT = (0.5, 0.8, 1.0)


def _search(backend, state, side, iterations, depth, pruning, c, discount, seed=0,
            sim_depth=3):
    return backend.search(state, side, iterations, sim_depth, depth, True, 7, 7, 0.5,
                          c, discount, pruning, random.Random(seed).randrange)


def test_search_identical():
    """(move, nodes) of both twins' search over minimax depth 0-2 (0 being
    seeded random rollouts), pruning on and off, every exploration and
    discount at 1 and 2 iterations, and at 300 iterations with the
    (exploration, discount) pairs rotating over positions; on one position
    of each kind the 300-iteration searches cover every depth and pruning."""
    pairs = list(product(EXPLORATION, DISCOUNT))
    searched = 0
    for n, (state, side) in enumerate(SEARCH_POSITIONS):
        for depth, pruning in product((0, 1, 2), (False, True)):
            grid = [(it, c, g) for it in (1, 2) for c, g in pairs]
            if n % 2 == 0 or depth < 2:
                grid.append((300, *pairs[(n + depth + 3 * pruning) % len(pairs)]))
            for iterations, c, discount in grid:
                case = (n, depth, pruning, iterations, c, discount)
                want = _search(pk, state, side, iterations, depth, pruning, c, discount, n)
                got = _search(compiled, state, side, iterations, depth, pruning, c, discount, n)
                assert got == want, case
                assert got is not None and 1 <= got[1] <= iterations, case
                searched += 1
    assert searched > 1000


@pytest.mark.parametrize("backend", [pk, compiled], ids=["python", "compiled"])
def test_search_rejects_bad_input(backend):
    state = STATES[0]
    with pytest.raises(ValueError, match="64 bytes"):
        _search(backend, state[:63], 0, 10, 1, False, 0.5, 0.8)
    for iterations, c, discount in ((0, 0.5, 0.8), (-1, 0.5, 0.8), (10, -0.5, 0.8),
                                    (10, math.inf, 0.8), (10, math.nan, 0.8),
                                    (10, 0.5, 0.0), (10, 0.5, 1.5), (10, 0.5, math.nan)):
        with pytest.raises(ValueError):
            _search(backend, state, 0, iterations, 1, False, c, discount)


class _Boom(Exception):
    pass


def _boom(n):
    raise _Boom(n)


@pytest.mark.parametrize("backend", [pk, compiled], ids=["python", "compiled"])
def test_search_randrange_errors(backend):
    """Depth-0 rollouts call ``randrange``: its exception propagates and an
    index outside the move list is a ValueError; at depth >= 1 it is never
    called."""
    state, side = SEARCH_POSITIONS[0]
    with pytest.raises(_Boom):
        backend.search(state, side, 5, 3, 0, True, 7, 7, 0.5, 0.5, 0.8, False, _boom)
    for bad in (lambda n: n, lambda n: -1):
        with pytest.raises(ValueError, match="out of range"):
            backend.search(state, side, 5, 3, 0, True, 7, 7, 0.5, 0.5, 0.8, False, bad)
    assert backend.search(state, side, 5, 3, 1, True, 7, 7, 0.5, 0.5, 0.8, False, _boom)


def test_search_randrange_calls_identical():
    """Both twins call ``randrange`` once per random step, with the same
    move-list lengths in the same order."""
    calls = {}
    for backend in (pk, compiled):
        calls[backend] = lengths = []
        for state, side in SEARCH_POSITIONS:
            backend.search(state, side, 20, 4, 0, True, 7, 7, 0.5, 0.5, 0.8, False,
                           lambda n: lengths.append(n) or (len(lengths) * 7919) % n)
    assert calls[pk] == calls[compiled]
    assert len(calls[pk]) > 100


def test_search_with_no_legal_move_is_none():
    for backend in (pk, compiled):
        assert _search(backend, BLOCKED, pk.WHITE, 10, 1, False, 0.5, 0.8) is None
        assert _search(backend, _one_side_only(STATES[0], 1), pk.WHITE, 10, 0, True,
                       0.5, 0.8) is None
