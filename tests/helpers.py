"""Shared test utilities: random positions, memo-filling searches and quick
log construction."""

import math
import random

from playmine.board import Color, GameBoard, GamePiece, initial_board
from playmine.eventlog import EventLog


def random_board(rng: random.Random, n_pieces=None, kings=True) -> GameBoard:
    """Random valid position; men are kept off their crowning rows."""
    if n_pieces is None:
        n_pieces = rng.randrange(2, 9)
    darks = [(x, y) for x in range(8) for y in range(8) if (x + y) % 2 == 0]
    rng.shuffle(darks)
    pieces = []
    next_id = {Color.WHITE: 1, Color.RED: 1}
    for x, y in darks:
        if len(pieces) == n_pieces:
            break
        color = Color.WHITE if rng.random() < 0.5 else Color.RED
        if next_id[color] > 12:
            color = color.opponent
            if next_id[color] > 12:
                break
        king = kings and rng.random() < 0.3
        if not king and ((color is Color.WHITE and x == 7)
                         or (color is Color.RED and x == 0)):
            king = True
        pieces.append(GamePiece(color, next_id[color], x, y, king))
        next_id[color] += 1
    return GameBoard.from_pieces(pieces, pieces_per_side=12)


def random_endgame(rng: random.Random, total_pieces=4) -> GameBoard:
    """Small endgame with at least one piece per side."""
    while True:
        board = random_board(rng, n_pieces=total_pieces)
        if board.pieces(Color.WHITE) and board.pieces(Color.RED):
            return board


def mklog(traces) -> EventLog:
    """EventLog from plain label sequences, case ids 1..n."""
    return EventLog({i: tuple(trace) for i, trace in enumerate(traces, start=1)})


def random_bytes_state(rng: random.Random) -> bytes:
    """An arbitrary 64-byte state: from 0 to 64 squares, light ones
    included, each holding any nonzero byte, so pieces with bit 7 set, with
    id 0 and men on their crowning rows; the other squares empty."""
    cells = bytearray(64)
    for idx in rng.sample(range(64), rng.randrange(65)):
        cells[idx] = rng.randrange(1, 256)
    return bytes(cells)


def memo_searches():
    """``search`` arguments at minimax depth >= 1 whose rollout memo grows,
    fills and is emptied; ``test_kernel_sanitized.fuzz`` passes all searches
    of one minimax depth the same memo, as a game passes its turns.

    The memo's slot table starts at 256 slots and doubles when an insert
    would fill half of it.  Counted with the handles' ``counts()`` (both
    twins agree): the four depth-2 searches, 300 iterations each from the 3-
    and 12-a-side openings, leave 5,423 entries in their memo, and the four
    depth-1 ones 6,127, six growths each.  The 3,000-iteration depth-1
    search from the 12-a-side opening then misses its memo at 43,396 of
    89,970 steps: it inserts 26,641 entries up to ``MEMO_MAX`` (32,768, two
    more growths, 65,536 slots) and runs the other 16,755 steps that the
    full memo no longer records.  The last search finds the memo more than
    half full, empties it and inserts 1,245 entries."""
    explore = 1 / math.sqrt(2)
    for pieces in (3, 12):
        for side in (0, 1):
            for depth in (1, 2):
                yield (initial_board(pieces).state, side, 300, 10, depth, True, 7, 7, 0.5,
                       explore, 0.8, depth == 2, 0)
    yield (initial_board(12).state, 1, 3000, 30, 1, True, 7, 7, 0.5, explore, 0.8, False, 0)
    yield (initial_board(3).state, 0, 300, 10, 1, True, 7, 7, 0.5, explore, 0.8, False, 0)
