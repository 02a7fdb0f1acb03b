"""Board representation and rules for N-vs-N checkers.

Coordinates: ``x`` is the left/right axis (white men advance toward x = 7,
red men toward x = 0) and ``y`` is the up/down axis.  Pieces live on dark
squares, where x + y is even.  All types are immutable value objects and the
rule functions are pure, so boards can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import index
from typing import Iterable, Optional

from . import kernel

KING_WEIGHT_DEFAULT = 0.5
PIECES_PER_SIDE_DEFAULT = 3  # the paper's 3-a-side game
MAX_PIECES_PER_SIDE = 12  # a full back field, and the largest piece id


def check_counts(**counts) -> None:
    """TypeError naming the first of ``counts`` that is not an int as
    ``operator.index`` decides (``True`` is 1, as the kernel takes it), so a
    config refuses a count of 2.5 when it is built, not when a kernel call or
    a ``range`` meets it."""
    for name, value in counts.items():
        try:
            index(value)
        except TypeError:
            raise TypeError(f"{name} must be an int, not {type(value).__name__}") from None


def check_pieces_per_side(pieces_per_side: int) -> None:
    """ValueError unless a side may start with 1..MAX_PIECES_PER_SIDE pieces."""
    if not 1 <= pieces_per_side <= MAX_PIECES_PER_SIDE:
        raise ValueError(f"pieces_per_side must be between 1 and {MAX_PIECES_PER_SIDE}")


class RuleViolationError(ValueError):
    """Raised when a move that is not legal on the given board is applied."""


class Color(Enum):
    WHITE = 0
    RED = 1

    @property
    def opponent(self) -> "Color":
        return Color.RED if self is Color.WHITE else Color.WHITE


@dataclass(frozen=True)
class GamePiece:
    color: Color
    id: int
    x: int
    y: int
    king: bool = False


@dataclass(frozen=True)
class RewardConfig:
    capture_points: int = 7
    crown_points: int = 7
    forced_capture: bool = True

    def __post_init__(self):
        check_counts(capture_points=self.capture_points, crown_points=self.crown_points)
        if self.capture_points < 0 or self.crown_points < 0:
            raise ValueError("reward points must be non-negative")
        if max(self.capture_points, self.crown_points) > kernel.MAX_POINTS:
            raise ValueError(f"reward points must be <= {kernel.MAX_POINTS}")


@dataclass(frozen=True)
class ConcreteMove:
    piece_id: int
    from_pos: tuple[int, int]
    to_pos: tuple[int, int]
    captured_ids: tuple[int, ...] = ()
    crowned: bool = False
    reward: int = 0


@dataclass(frozen=True, slots=True)
class GameBoard:
    """8x8 dark-square board; wraps the kernel's 64-byte state, which must
    be ``bytes``.  Equality and hash are over (state, pieces_per_side)."""

    state: bytes
    pieces_per_side: int = PIECES_PER_SIDE_DEFAULT

    @classmethod
    def from_pieces(cls, pieces: Iterable[GamePiece],
                    pieces_per_side: Optional[int] = None) -> "GameBoard":
        cells = bytearray(64)
        seen_ids = set()
        counts = {Color.WHITE: 0, Color.RED: 0}
        for p in pieces:
            if not (0 <= p.x <= 7 and 0 <= p.y <= 7):
                raise ValueError(f"piece off board: {p}")
            if not 1 <= p.id <= MAX_PIECES_PER_SIDE:
                raise ValueError(f"piece id must be in 1..{MAX_PIECES_PER_SIDE}: {p}")
            if (p.x + p.y) % 2 != 0:
                raise ValueError(f"piece on a light square: {p}")
            idx = (p.x << 3) | p.y
            if cells[idx]:
                raise ValueError(f"two pieces share cell ({p.x},{p.y})")
            if (p.color, p.id) in seen_ids:
                raise ValueError(f"duplicate piece identity {(p.color, p.id)}")
            seen_ids.add((p.color, p.id))
            counts[p.color] += 1
            cells[idx] = kernel.encode_cell(p.color.value, p.id, p.king)
        if pieces_per_side is None:
            pieces_per_side = max(PIECES_PER_SIDE_DEFAULT, *counts.values())
        else:
            check_pieces_per_side(pieces_per_side)
        if max(counts.values()) > pieces_per_side:
            raise ValueError("piece count exceeds pieces_per_side")
        return cls(bytes(cells), pieces_per_side)

    def piece_at(self, x: int, y: int) -> Optional[GamePiece]:
        v = self.state[(x << 3) | y]
        if v == 0:
            return None
        return GamePiece(Color(kernel.cell_color(v)), kernel.cell_id(v), x, y,
                         kernel.cell_is_king(v))

    def pieces(self, color: Optional[Color] = None) -> tuple[GamePiece, ...]:
        out = []
        for idx in range(64):
            v = self.state[idx]
            if v == 0:
                continue
            c = Color(kernel.cell_color(v))
            if color is not None and c is not color:
                continue
            out.append(GamePiece(c, kernel.cell_id(v), idx >> 3, idx & 7,
                                 kernel.cell_is_king(v)))
        return tuple(out)

    def __repr__(self):
        rows = []
        for y in range(7, -1, -1):
            row = []
            for x in range(8):
                p = self.piece_at(x, y)
                if p is None:
                    row.append("." if (x + y) % 2 == 0 else " ")
                else:
                    ch = "w" if p.color is Color.WHITE else "r"
                    row.append(ch.upper() if p.king else ch)
            rows.append(f"{y} " + " ".join(row))
        rows.append("  " + " ".join(str(x) for x in range(8)))
        return "\n".join(rows)


def initial_board(pieces_per_side: int = PIECES_PER_SIDE_DEFAULT) -> GameBoard:
    """Mirrored back-row placement: white on the first N dark cells in
    index order, ids 1..N from the lowest index, and red on their mirror
    images (index 63 - i), ids 1..N from the highest."""
    check_pieces_per_side(pieces_per_side)
    cells = bytearray(64)
    darks = (idx for idx in range(64) if ((idx >> 3) + (idx & 7)) % 2 == 0)
    for piece_id, idx in zip(range(1, pieces_per_side + 1), darks):
        cells[idx] = kernel.encode_cell(kernel.WHITE, piece_id, False)
        cells[63 - idx] = kernel.encode_cell(kernel.RED, piece_id, False)
    return GameBoard(bytes(cells), pieces_per_side)


def _to_concrete(kmove, state: bytes) -> ConcreteMove:
    frm, to, caps, crowned, reward, _new = kmove
    # positional: this runs once per legal move, and keywords cost it more
    return ConcreteMove(kernel.cell_id(state[frm]), (frm >> 3, frm & 7), (to >> 3, to & 7),
                        caps, crowned, reward)


def _kernel_moves(board: GameBoard, color: Color, cfg: Optional[RewardConfig]):
    cfg = cfg or RewardConfig()
    return kernel.gen_moves(board.state, color.value, cfg.forced_capture,
                            cfg.capture_points, cfg.crown_points)


def moves_with_boards(board: GameBoard, color: Color,
                      cfg: Optional[RewardConfig] = None
                      ) -> list[tuple[ConcreteMove, GameBoard]]:
    """Legal moves paired with their resulting boards."""
    pps = board.pieces_per_side
    return [(_to_concrete(m, board.state), GameBoard(m[5], pps))
            for m in _kernel_moves(board, color, cfg)]


def legal_moves(board: GameBoard, color: Color,
                cfg: Optional[RewardConfig] = None) -> list[ConcreteMove]:
    return [_to_concrete(m, board.state) for m in _kernel_moves(board, color, cfg)]


def apply_move(board: GameBoard, move: ConcreteMove,
               cfg: Optional[RewardConfig] = None) -> GameBoard:
    """Returns the board after ``move``; the input board is unmodified."""
    frm = (move.from_pos[0] << 3) | move.from_pos[1]
    cell = board.state[frm]
    if cell == 0:
        raise RuleViolationError(f"no piece at {move.from_pos}")
    to = (move.to_pos[0] << 3) | move.to_pos[1]
    for kmove in _kernel_moves(board, Color(kernel.cell_color(cell)), cfg):
        # only a move between the same squares can be equal
        if kmove[0] == frm and kmove[1] == to and _to_concrete(kmove, board.state) == move:
            return GameBoard(kmove[5], board.pieces_per_side)
    raise RuleViolationError(f"illegal move: {move}")


def winner(board: GameBoard, to_move: Color) -> Optional[Color]:
    """Opponent of ``to_move`` if that side has no legal move (which
    includes having no pieces), else None: the side to move loses.  The
    backend's ``gen_moves`` decides, the same test the search ends on."""
    return None if _kernel_moves(board, to_move, None) else to_move.opponent


def evaluate(board: GameBoard, perspective: Color,
             king_weight: float = KING_WEIGHT_DEFAULT) -> float:
    """Material difference plus weighted king difference, antisymmetric."""
    return kernel.evaluate(board.state, perspective.value, king_weight)
