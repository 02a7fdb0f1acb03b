"""Shared test utilities: random positions and quick log construction."""

import random

from playmine.board import Color, GameBoard, GamePiece
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
