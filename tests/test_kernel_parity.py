"""The compiled and pure-Python kernels must agree move for move."""

import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from playmine import kernel
from playmine.kernel import _pykernel as pk
from helpers import random_board, random_bytes_state

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


def _pieces(pieces):
    """State with a piece per (color, x, y, king), ids 1, 2, ... per side."""
    cells = bytearray(64)
    ids = {pk.WHITE: 0, pk.RED: 0}
    for color, x, y, king in pieces:
        ids[color] += 1
        cells[(x << 3) | y] = pk.encode_cell(color, ids[color], king)
    return bytes(cells)


def _board(white, red, king=True):
    """State with white and red kings (or men) on the given squares."""
    return _pieces([(pk.WHITE, x, y, king) for x, y in white]
                   + [(pk.RED, x, y, king) for x, y in red])


LATTICE = [(x, y) for x in (1, 3, 5) for y in (1, 3, 5)]
# one white king that can take all nine lattice kings in one chain, the most
# any chain can take
LONGEST_CHAIN = _board([(0, 0)], LATTICE)
# 45 white moves, the most a hill-climb over legal positions found
CROWDED = _board([(1, 7), (3, 7), (5, 7), (7, 1), (7, 3), (7, 5), (7, 7), (4, 2), (4, 4)],
                 LATTICE)
# men of both sides one chain or step from crowning: white (3, 1) takes the
# red king on (4, 2) and the red man on (6, 4) and crowns on (7, 5), white
# (5, 1) takes the king on (6, 2) and crowns on (7, 3), white (6, 6) crowns
# by a step; red (4, 6) takes the man on (3, 5) and the king on (1, 3) and
# crowns on (0, 2), red (2, 2) takes the king on (1, 1) and crowns on (0, 0)
CROWNING = _pieces([(pk.WHITE, 3, 1, False), (pk.WHITE, 5, 1, False), (pk.WHITE, 6, 6, False),
                    (pk.WHITE, 3, 5, False), (pk.WHITE, 1, 1, True), (pk.WHITE, 1, 3, True),
                    (pk.RED, 4, 2, True), (pk.RED, 6, 2, True), (pk.RED, 6, 4, False),
                    (pk.RED, 2, 2, False), (pk.RED, 1, 5, False), (pk.RED, 4, 6, False)])


def test_gen_moves_identical():
    for state in STATES + FULL + KINGS:
        for color in (0, 1):
            for forced in (True, False):
                assert (pk.gen_moves(state, color, forced, 7, 7)
                        == compiled.gen_moves(state, color, forced, 7, 7))


def test_static_functions_identical():
    """A depth-0 minimax scores the state from its counted material, in
    _pykernel.evaluate's float operations."""
    for state in STATES + FULL + KINGS:
        for agent in (0, 1):
            for king_weight in (0.0, 0.5, 1.5):
                want = (pk.evaluate(state, agent, king_weight), None)
                assert pk.minimax(state, 1 - agent, agent, 0, True, 7, 7, king_weight) == want
                assert compiled.minimax(state, 1 - agent, agent, 0, True, 7, 7,
                                        king_weight) == want


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


def _mirrored(pieces):
    """The same position with the colours swapped and the board turned."""
    return [(1 - color, 7 - x, 7 - y, king) for color, x, y, king in pieces]


# a white king on (2, 2) takes the red men on (3, 3), (5, 3), (5, 1) and
# (3, 1), either way round, and lands back on (2, 2); with red kings on
# (1, 3) and (0, 4) the loop ends there too, and red's king on (1, 3) can
# then take white's on the square it left and came back to.  Each also with
# the colours swapped, red's king looping.
LOOP_MEN = [(pk.RED, x, y, False) for x, y in ((3, 3), (5, 3), (5, 1), (3, 1))]
LOOPS = [_pieces(p) for pieces in ([(pk.WHITE, 2, 2, True)] + LOOP_MEN,
                                   [(pk.WHITE, 2, 2, True), (pk.RED, 1, 3, True),
                                    (pk.RED, 0, 4, True)] + LOOP_MEN)
         for p in (pieces, _mirrored(pieces))]

# boards whose lines of play capture kings and crown men, many mid-chain,
# and whose kings' capture loops land on the square they left
MATERIAL_BOARDS = KINGS[:4] + FULL[:4] + [LONGEST_CHAIN, CROWDED, CROWNING] + LOOPS


def test_crowning_board_crowns_by_capturing_kings():
    for color in (0, 1):
        moves = pk.gen_moves(CROWNING, color, False, 7, 7)
        assert any(m[3] and len(m[2]) == 2 for m in moves), color
        assert any(m[3] and not m[2] for m in moves), color


def test_capture_loops_land_on_their_own_square():
    """The compiled minimax derives a child's masks from its parent's and
    the move: the mover leaves its square, then lands.  On LOOPS the side
    whose king loops has two 4-capture moves that land where they started,
    the best at depth 1; MATERIAL_BOARDS plays them deeper."""
    for state, side in zip(LOOPS, (0, 1, 0, 1)):
        for forced in (True, False):
            moves = compiled.gen_moves(state, side, forced, 7, 7)
            assert moves == pk.gen_moves(state, side, forced, 7, 7)
            loops = [m for m in moves if m[0] == m[1]]
            assert len(loops) == 2 and all(len(m[2]) == 4 and m[4] == 28 for m in loops)
        best = compiled.minimax(state, side, side, 1, True, 7, 7, 0.5)[1]
        assert best[0] == best[1]


def test_minimax_leaf_scores_identical():
    """The compiled twin scores leaves from material carried down the
    search, less each move's captured men and kings, with crowned men
    turned kings; the pure twin counts each leaf's board.  Scores and moves
    agree at every depth 1-4 and king weight, forced capture on and off."""
    for state in MATERIAL_BOARDS:
        for to_move, agent in ((0, 0), (1, 1), (0, 1)):
            for depth, king_weight, forced in product((1, 2, 3, 4), (0.0, 0.5, 1.5),
                                                      (True, False)):
                args = (state, to_move, agent, depth, forced, 7, 7, king_weight)
                assert pk.minimax(*args) == compiled.minimax(*args), args


# 12 a side: white on x = 4-6 and red on x = 1-3, every dark square of those
# rows; no piece can jump, and the men on x = 6 and x = 1 can crown
DENSE = ([(pk.WHITE, x, y, False) for x in (4, 5, 6) for y in range(x % 2, 8, 2)]
         + [(pk.RED, x, y, False) for x in (1, 2, 3) for y in range(x % 2, 8, 2)])
# one side's position, given for white to move and, mirrored, for red
QUIET_OR_CROWNING = {
    # a man one row short of crowning with its crown squares open
    "crown_open": [(pk.WHITE, 6, 2, False), (pk.WHITE, 2, 2, False), (pk.RED, 2, 6, False)],
    # the same man with both crown squares taken by its own kings
    "crown_blocked": [(pk.WHITE, 6, 2, False), (pk.WHITE, 7, 1, True),
                      (pk.WHITE, 7, 3, True), (pk.RED, 2, 6, False)],
    # a king on that row, which steps onto the far row without crowning
    "king_on_last_step": [(pk.WHITE, 6, 2, True), (pk.WHITE, 2, 2, False),
                          (pk.RED, 2, 6, False)],
    # only the king can take the man behind it; the man beside it cannot
    "king_only_jump": [(pk.WHITE, 4, 4, True), (pk.WHITE, 4, 2, False),
                       (pk.RED, 3, 3, False), (pk.RED, 1, 7, False)],
    "dense_men": DENSE,
    # the same with white's x = 6 men made kings
    "dense_kings_on_last_step": [(color, x, y, color == pk.WHITE and x == 6)
                                 for color, x, y, _ in DENSE],
}
PREMISE_STATES = ([_pieces(p) for pieces in QUIET_OR_CROWNING.values()
                   for p in (pieces, _mirrored(pieces))] + FULL[:4])


def test_premise_of_the_depth1_shortcut():
    """The compiled minimax scores a depth-1 node below the root from its
    material when its side can neither capture nor crown.  On hand-built
    boards of both colours (a man one step from crowning, open and blocked,
    a king on that row, a jump only a king can start, 12 a side) both twins
    agree at depths 1-4, forced capture on and off; and whenever gen_moves
    lists no capture and no crowning, a depth-1 minimax scores the board's
    own material on both twins.  A crowning-only node scores more for its
    mover, so the crowning men must be excluded."""
    quiet = crowning_only = 0
    for state, to_move, forced in product(PREMISE_STATES, (0, 1), (True, False)):
        for agent, depth, king_weight in product((0, 1), (1, 2, 3, 4), (0.5, 1.5)):
            args = (state, to_move, agent, depth, forced, 7, 7, king_weight)
            assert pk.minimax(*args) == compiled.minimax(*args), args
        moves = pk.gen_moves(state, to_move, forced, 7, 7)
        if any(m[2] for m in moves):
            continue
        for agent, king_weight, twin in product((0, 1), (0.5, 1.5), (pk, compiled)):
            score = twin.minimax(state, to_move, agent, 1, forced, 7, 7, king_weight)[0]
            material = pk.evaluate(state, agent, king_weight)
            if not any(m[3] for m in moves):
                assert score == material, (state, to_move, agent)
            elif agent == to_move:
                assert score == material + king_weight, (state, to_move)
        if any(m[3] for m in moves):
            crowning_only += 1
        else:
            quiet += 1
    assert quiet >= 16 and crowning_only >= 8, (quiet, crowning_only)
    pieces = QUIET_OR_CROWNING["king_only_jump"]
    for side, state in enumerate((_pieces(pieces), _pieces(_mirrored(pieces)))):
        jumps = [m for m in pk.gen_moves(state, side, False, 7, 7) if m[2]]
        assert jumps and all(state[m[0]] & pk.KING_FLAG for m in jumps)


def _same_score(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_depth1_shortcut_with_non_finite_king_weight():
    """An infinite king weight with equal kings, or a NaN one, scores the
    material NaN.  A NaN never compares better than the starting -inf or
    +inf, so a node whose children all score NaN returns that infinity, not
    the NaN of its material, and the shortcut must leave it to the loop."""
    for state, to_move, agent in product(PREMISE_STATES, (0, 1), (0, 1)):
        for depth, king_weight in product((1, 2, 3), (math.inf, -math.inf, math.nan)):
            args = (state, to_move, agent, depth, True, 7, 7, king_weight)
            (want, want_move), (got, got_move) = pk.minimax(*args), compiled.minimax(*args)
            assert _same_score(want, got) and want_move == got_move, args


def test_rollout_identical_at_minimax_depths_1_and_3():
    for state in MATERIAL_BOARDS:
        for color, mm_depth, king_weight, forced in product((0, 1), (1, 3), (0.5, 1.5),
                                                            (True, False)):
            args = (state, color, 10, mm_depth, forced, 7, 7, king_weight)
            assert pk.rollout(*args) == compiled.rollout(*args), args


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


def _arbitrary(n, seed=17):
    rng = random.Random(seed)
    return [random_bytes_state(rng) for _ in range(n)]


# any 64 bytes: pieces on light squares too, with bit 7 set, id 0 or a man
# on its crowning row
ARBITRARY = _arbitrary(3000)


def _row_wraps():
    """A king or man of either side alone on each square, and then with an
    opponent's king on each square that its index +-7 or +-9 names, whether
    or not that is its diagonal neighbour.  From an edge column the index
    step names the other end of the next row (+7 from (0, 0) is (1, 7)),
    and a jump from the column next to it lands there, over a neighbour
    that is on the board."""
    out = []
    for idx, color, king in product(range(64), (0, 1), (True, False)):
        piece = bytearray(64)
        piece[idx] = pk.encode_cell(color, 1, king)
        out.append((bytes(piece), color))
        for delta in (9, 7, -7, -9):
            if 0 <= idx + delta < 64:
                state = bytearray(piece)
                state[idx + delta] = pk.encode_cell(1 - color, 1, True)
                out.append((bytes(state), color))
    return out


ROW_WRAPS = _row_wraps()


def test_gen_moves_identical_on_arbitrary_bytes():
    """Both twins read any 64 bytes alike: a piece is any nonzero byte,
    whatever its bits 0-4 and 7, and its side and king flag are bits 6
    and 5."""
    tops = ids_0 = crowning_men = 0
    for state in ARBITRARY:
        tops += any(v & 0x80 for v in state)
        ids_0 += any(v and not v & pk.ID_MASK for v in state)
        # a white man on x = 7 (squares 56-63) or a red man on x = 0 (0-7)
        crowning_men += any(v and not v & pk.KING_FLAG and pk.cell_color(v) == (idx < 8)
                            for idx, v in enumerate(state) if idx < 8 or idx >= 56)
        for color, forced in product((0, 1), (True, False)):
            args = (state, color, forced, 7, 7)
            assert pk.gen_moves(*args) == compiled.gen_moves(*args), args
    assert min(tops, ids_0, crowning_men) > len(ARBITRARY) // 2


def test_minimax_and_rollout_identical_on_arbitrary_bytes():
    for state in ARBITRARY[:500]:
        for color, depth in product((0, 1), (1, 2, 3)):
            args = (state, color, 1 - color, depth, True, 7, 7, 0.5)
            assert pk.minimax(*args) == compiled.minimax(*args), args
    # three plies below the root, on masks derived move by move
    for state, color in product(ARBITRARY[:100], (0, 1)):
        args = (state, color, 1 - color, 4, True, 7, 7, 0.5)
        assert pk.minimax(*args) == compiled.minimax(*args), args
    for state in ARBITRARY[:100]:
        for color, forced in product((0, 1), (True, False)):
            args = (state, color, 10, 2, forced, 7, 7, 0.5)
            assert pk.rollout(*args) == compiled.rollout(*args), args


def test_moves_never_wrap_a_row():
    """The compiled twin finds steps and jumps from 64-bit board masks,
    shifted by the index steps; no move of either twin wraps from one end
    of a row to the other end of the next."""
    for state, color in ROW_WRAPS:
        for forced in (True, False):
            moves = compiled.gen_moves(state, color, forced, 7, 7)
            assert moves == pk.gen_moves(state, color, forced, 7, 7), (state, color)
            # one step or one jump (a board here holds one opponent piece)
            for frm, to, *_ in moves:
                assert abs((frm & 7) - (to & 7)) == abs((frm >> 3) - (to >> 3)) in (1, 2)
        for depth in (1, 2, 3):
            args = (state, color, color, depth, True, 7, 7, 0.5)
            assert pk.minimax(*args) == compiled.minimax(*args), args
        args = (state, color, 6, 1, True, 7, 7, 0.5)
        assert pk.rollout(*args) == compiled.rollout(*args), args


def _one_side_only(state, color):
    return bytes(v if v and pk.cell_color(v) == color else 0 for v in state)


# men: white (0, 0)'s only move is to take (1, 1); with (2, 2) taken too,
# white has a piece and no move
ONLY_JUMP = _board([(0, 0)], [(1, 1)], king=False)
BLOCKED = _board([(0, 0)], [(1, 1), (2, 2)], king=False)


@pytest.mark.parametrize("backend", [pk, compiled], ids=["python", "compiled"])
def test_winner_decided_iff_no_legal_move(backend):
    """minimax and rollout stop on "no legal move" instead of calling winner,
    which every backend takes from _pykernel: winner(s, c) != -1 exactly
    when the backend's gen_moves(s, c) is empty, forced or not."""
    no_pieces = [_one_side_only(s, c) for s in STATES[:60] + FULL[:20] for c in (0, 1)]
    boards = STATES + FULL + KINGS + no_pieces + [ONLY_JUMP, BLOCKED, LONGEST_CHAIN, CROWDED]
    decided = only_jumps = 0
    for state in boards:
        for color in (0, 1):
            for forced in (True, False):
                moves = backend.gen_moves(state, color, forced, 7, 7)
                assert (pk.winner(state, color) != -1) == (not moves), (state, color)
                decided += not moves
                only_jumps += bool(moves) and not forced and all(m[2] for m in moves)
    assert decided >= 2 * len(no_pieces) and only_jumps >= 1
    assert pk.winner(BLOCKED, pk.WHITE) == pk.RED
    assert [m[:2] for m in backend.gen_moves(ONLY_JUMP, pk.WHITE, False, 7, 7)] == [(0, 18)]


def _public(module):
    return sorted(name for name in vars(module) if not name.startswith("_"))


@pytest.mark.parametrize("backend", [pk, compiled], ids=["python", "compiled"])
@pytest.mark.parametrize("length", [0, 63, 65])
def test_state_of_wrong_length_is_rejected(backend, length):
    """Every op that takes a state, on each backend that has it, search
    also with a memo handle; the compiled module exports no op that this
    leaves out but ``new_memo`` and the alignment ops ``new_marking_graph``
    and ``align``, which take no state."""
    state = bytes(length)
    calls = {
        "gen_moves": [lambda: backend.gen_moves(state, 0, True, 7, 7)],
        "side_has_moves": [lambda: backend.side_has_moves(state, 0)],
        "piece_counts": [lambda: backend.piece_counts(state)],
        "evaluate": [lambda: backend.evaluate(state, 0, 0.5)],
        "winner": [lambda: backend.winner(state, 0)],
        "minimax": [lambda: backend.minimax(state, 0, 0, 0, True, 7, 7, 0.5),
                    lambda: backend.minimax(state, 0, 0, 2, True, 7, 7, 0.5)],
        "rollout": [lambda: backend.rollout(state, 0, 0, 1, True, 7, 7, 0.5)],
        "search": [lambda: backend.search(state, 0, 1, 0, 1, True, 7, 7, 0.5, 0.5, 0.8,
                                          False, 0),
                   lambda: backend.search(state, 0, 1, 0, 1, True, 7, 7, 0.5, 0.5, 0.8,
                                          False, 0, backend.new_memo())],
    }
    state_ops = [op for op in _public(compiled)
                 if op not in ("new_memo", "new_marking_graph", "align")]
    assert set(state_ops) <= set(calls)
    for op in calls if backend is pk else state_ops:
        for call in calls[op]:
            with pytest.raises(ValueError, match="64 bytes"):
                call()


def test_compiled_module_has_only_the_hot_ops():
    """The compiled twin exports gen_moves, minimax, rollout, search,
    new_memo, new_marking_graph and align; the other ops and the constants
    are _pykernel's on every backend."""
    assert _public(compiled) == ["align", "gen_moves", "minimax", "new_marking_graph",
                                 "new_memo", "rollout", "search"]
    for op in ("side_has_moves", "piece_counts", "evaluate", "winner"):
        assert getattr(kernel, op) is getattr(pk, op)
    for op in _public(compiled):
        assert getattr(kernel, op) is getattr(compiled, op)


def _calls(backend, state=STATES[0], side=0, agent=0, capture_points=7, crown_points=7):
    """One call of each compiled op with the given sides and points."""
    rules = (True, capture_points, crown_points)
    return [lambda: backend.gen_moves(state, side, *rules),
            lambda: backend.minimax(state, side, agent, 2, *rules, 0.5),
            lambda: backend.rollout(state, side, 4, 1, *rules, 0.5),
            lambda: backend.search(state, side, 5, 3, 1, *rules, 0.5, 0.5, 0.8, False,
                                   0)]


@pytest.mark.parametrize("backend", [pk, compiled], ids=["python", "compiled"])
def test_side_and_points_out_of_range_are_rejected(backend):
    """Both twins raise the same ValueError for a side outside {0, 1}, and
    for points outside 0..MAX_POINTS, past a C long too."""
    for bad in (2, -1, 2**32, 2**64, -2**64):
        for call in _calls(backend, side=bad) + _calls(backend, agent=bad)[1:2]:
            with pytest.raises(ValueError, match=r"^side must be 0 \(white\) or 1 \(red\)$"):
                call()
    for bad in (-1, pk.MAX_POINTS + 1, 2**62, 2**64):
        for call in _calls(backend, capture_points=bad) + _calls(backend, crown_points=bad):
            with pytest.raises(ValueError, match=r"^capture_points and crown_points must be "
                                                 r"in 0\.\.2147483647$"):
                call()
    assert pk.MAX_POINTS == 2**31 - 1


# two lone kings, who can shuffle forever
LONE_KINGS = bytes([1 | pk.KING_FLAG] + [0] * 62 + [1 | pk.KING_FLAG | pk.RED_FLAG])
# each compiled op's arguments, and the position of each one that must be an int
INT_ARGS = {
    "gen_moves": ((LONE_KINGS, 1, True, 7, 7),
                  {"color": 1, "capture_points": 3, "crown_points": 4}),
    "minimax": ((LONE_KINGS, 1, 1, 2, True, 7, 7, 0.5),
                {"to_move": 1, "agent": 2, "depth": 3, "capture_points": 5,
                 "crown_points": 6}),
    "rollout": ((LONE_KINGS, 1, 3, 1, True, 7, 7, 0.5),
                {"to_move": 1, "sim_depth": 2, "mm_depth": 3, "capture_points": 5,
                 "crown_points": 6}),
    "search": ((LONE_KINGS, 1, 5, 3, 1, True, 7, 7, 0.5, 0.5, 0.8, False, 0),
               {"side": 1, "iterations": 2, "sim_depth": 3, "mm_depth": 4,
                "capture_points": 6, "crown_points": 7, "seed": 12}),
}


@pytest.mark.parametrize("op,name", [(op, name) for op, (_, names) in INT_ARGS.items()
                                     for name in names])
def test_non_int_argument_is_a_type_error(op, name):
    """Both twins refuse a float where an int is parsed, with C's TypeError
    (the pure twin took some, or recursed without end on depth 2.5), and
    take True as 1."""
    args, positions = INT_ARGS[op]
    for value in (2.5, 1.0):
        bad = list(args)
        bad[positions[name]] = value
        for twin in (pk, compiled):
            with pytest.raises(TypeError,
                               match="^'float' object cannot be interpreted as an integer$"):
                getattr(twin, op)(*bad)
    as_bool, as_int = list(args), list(args)
    as_bool[positions[name]], as_int[positions[name]] = True, 1
    want = getattr(pk, op)(*as_int)
    assert getattr(pk, op)(*as_bool) == want
    assert getattr(compiled, op)(*as_bool) == want


NEGATIVE_DEPTH = """
import importlib, sys
import playmine.kernel
from playmine.board import initial_board
twin = importlib.import_module(sys.argv[1])
try:
    twin.minimax(initial_board(3).state, 0, 0, -1, True, 7, 7, 0.5)
except Exception as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("twin", [pk, compiled], ids=["python", "compiled"])
def test_negative_minimax_depth_is_a_value_error(twin):
    """Run in a child, so that a crash fails this test instead of the run."""
    src = str(Path(kernel.__file__).parents[2])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NEGATIVE_DEPTH, twin.__name__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert proc.stdout.strip() == "ValueError minimax requires depth >= 0"


TOO_DEEP = """
import importlib, sys
import playmine.kernel
from playmine.kernel._pykernel import KING_FLAG, RED_FLAG
twin = importlib.import_module(sys.argv[1])
# two lone kings, who can shuffle forever
state = bytes([1 | KING_FLAG] + [0] * 62 + [1 | KING_FLAG | RED_FLAG])
for depth in (100000, 2**64, 65):
    for call in (lambda: twin.minimax(state, 0, 0, depth, True, 7, 7, 0.5),
                 lambda: twin.rollout(state, 0, 0, depth, True, 7, 7, 0.5),
                 lambda: twin.search(state, 0, 1, 0, depth, True, 7, 7, 0.5, 0.5, 0.8,
                                     False, 0)):
        try:
            call()
        except ValueError as exc:  # anything else fails the child at once
            print(exc)
print(twin.minimax(state, 0, 0, 0, True, 7, 7, 0.5)[0],
      twin.rollout(state, 0, 0, 64, True, 7, 7, 0.5),
      twin.search(state, 0, 1, 0, 64, True, 7, 7, 0.5, 0.5, 0.8, False, 0)[1])
"""


@pytest.mark.parametrize("twin", [pk, compiled], ids=["python", "compiled"])
def test_minimax_depth_past_the_bound_is_a_value_error(twin):
    """Every op that takes a minimax depth refuses one past MAX_DEPTH with
    the same ValueError, and accepts MAX_DEPTH itself; run in a child, so
    that a crash fails this test instead of the run."""
    src = str(Path(kernel.__file__).parents[2])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", TOO_DEEP, twin.__name__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert proc.stdout.splitlines() == ["minimax depth must be <= 64"] * 9 + [
        "0.0 (0, 0) 1"]
    assert pk.MAX_DEPTH == 64


def test_points_at_the_bound_identical():
    """At MAX_POINTS every reward sum still fits: the 9-capture chain's
    reward, rollouts and searches agree with the pure twin's ints."""
    top = pk.MAX_POINTS
    moves = compiled.gen_moves(LONGEST_CHAIN, 0, True, top, top)
    assert moves == pk.gen_moves(LONGEST_CHAIN, 0, True, top, top)
    assert max(m[4] for m in moves) == 9 * top
    for state in (LONGEST_CHAIN, CROWDED, *FULL[:4], *KINGS[:4]):
        for side in (0, 1):
            want = _calls(pk, state, side, side, top, top)
            got = _calls(compiled, state, side, side, top, top)
            assert [call() for call in got] == [call() for call in want]


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


# depth-0 searches of one grid run on these seeds in turn: any int is a
# seed, taken mod 2**64
SEEDS = (0, 1, 12345, 2**63 + 1, 2**64 - 1, 2**70 + 3, -7)


def _search(backend, state, side, iterations, depth, pruning, c, discount, seed=0,
            sim_depth=3):
    return backend.search(state, side, iterations, sim_depth, depth, True, 7, 7, 0.5,
                          c, discount, pruning, seed)


def test_search_identical():
    """(move, nodes) of both twins' search over minimax depth 0-2 (0 being
    random rollouts from the seeded stream), pruning on and off, every
    exploration and discount at 1 and 2 iterations, and at 300 iterations
    with the (exploration, discount) pairs rotating over positions; on one
    position of each kind the 300-iteration searches cover every depth and
    pruning.  The seeds rotate over ``SEEDS``."""
    pairs = list(product(EXPLORATION, DISCOUNT))
    searched = 0
    for n, (state, side) in enumerate(SEARCH_POSITIONS):
        for depth, pruning in product((0, 1, 2), (False, True)):
            grid = [(it, c, g) for it in (1, 2) for c, g in pairs]
            if n % 2 == 0 or depth < 2:
                grid.append((300, *pairs[(n + depth + 3 * pruning) % len(pairs)]))
            for k, (iterations, c, discount) in enumerate(grid):
                seed = SEEDS[(n + k) % len(SEEDS)]
                case = (n, depth, pruning, iterations, c, discount, seed)
                want = _search(pk, state, side, iterations, depth, pruning, c, discount, seed)
                got = _search(compiled, state, side, iterations, depth, pruning, c, discount,
                              seed)
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


def test_stream_is_splitmix64():
    """The pure twin's stream gives the published splitmix64 outputs; the
    compiled twin's is held to it by ``test_search_identical``."""
    draws = pk._Stream(1234567)
    assert [draws.below(2**64) for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert pk._Stream(0).below(2**64) == 0xE220A8397B1DCDAF
    assert pk._Stream(-1).state == pk._Stream(2**64 - 1).state == 2**64 - 1
    assert pk._Stream(2**64 + 5).state == 5


@pytest.mark.parametrize("backend", [pk, compiled], ids=["python", "compiled"])
def test_search_seed_reaches_only_random_rollouts(backend):
    """At minimax depth >= 1 the stream is never read, so the seed changes
    nothing; at depth 0 seeds choose different moves."""
    for state, side in SEARCH_POSITIONS[:4]:
        for depth in (1, 2):
            outs = {_search(backend, state, side, 30, depth, False, 0.7, 0.8, seed)
                    for seed in SEEDS}
            assert len(outs) == 1, (state, depth)
    state, side = SEARCH_POSITIONS[3]  # 12 a side, 10 legal moves
    moves = {_search(backend, state, side, 40, 0, False, 0.7, 0.8, seed, sim_depth=8)[0][5]
             for seed in range(12)}
    assert len(moves) > 1


def test_search_with_no_legal_move_is_none():
    for backend in (pk, compiled):
        assert _search(backend, BLOCKED, pk.WHITE, 10, 1, False, 0.5, 0.8) is None
        assert _search(backend, _one_side_only(STATES[0], 1), pk.WHITE, 10, 0, True,
                       0.5, 0.8) is None
