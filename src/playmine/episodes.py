"""Self-play episode runner and the movement feature engineering.

Each turn the side to move gets a fresh hybrid search, whose rollout steps
go through one memo that the game's turns share (and the caller's later
games, when it passes one); its chosen move is
abstracted from exact coordinates into direction words (or, in the optional
distance feature mode, into the change of the shortest red-white distance)
and recorded together with the opponent's previous move.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import kernel
from .board import PIECES_PER_SIDE_DEFAULT, Color, GameBoard, initial_board, winner
from .search import SearchConfig, mcts_search

# A movement feature: direction-word tuple, or a distance delta in bfs mode.
Movement = Union[tuple, int, float]

MAX_TURNS_DEFAULT = 200


@dataclass(frozen=True)
class StepRecord:
    last_turn_enemy_piece_id: int
    last_turn_enemy_movement: Movement
    piece_id: int
    move: Movement
    captured: tuple[int, ...]
    reward: int


@dataclass
class EpisodeResult:
    episode_id: int
    red_trace: list
    white_trace: list
    winner: Optional[Color]
    turns: int
    # the game's share of its rollout memo: the steps, hits and clears
    # during its turns, and the entries held at its end
    memo_counts: tuple = (0, 0, 0, 0)

    @property
    def draw(self) -> bool:
        return self.winner is None


def abstract_move(frm: tuple[int, int], to: tuple[int, int]) -> tuple:
    """Signs of the displacement as direction words; zero components drop,
    so a king's capture loop back to its own square is ``()``."""
    dx = to[0] - frm[0]
    dy = to[1] - frm[1]
    labels = []
    if dx > 0:
        labels.append("right")
    elif dx < 0:
        labels.append("left")
    if dy > 0:
        labels.append("up")
    elif dy < 0:
        labels.append("down")
    return tuple(labels)


def bfs_min_distance(sources: Sequence[tuple[int, int]],
                     targets: Sequence[tuple[int, int]]) -> Union[int, float]:
    """Multi-source 4-neighbour BFS distance to the nearest target, or inf if
    there is none; on the 8x8 grid, which has no obstacles, it equals the
    least Manhattan distance, computed directly."""
    return min((abs(sx - tx) + abs(sy - ty) for sx, sy in sources for tx, ty in targets),
               default=math.inf)


def red_white_distance(board: GameBoard) -> Union[int, float]:
    whites = [(p.x, p.y) for p in board.pieces(Color.WHITE)]
    reds = [(p.x, p.y) for p in board.pieces(Color.RED)]
    return bfs_min_distance(whites, reds)


def derive_seed(base: int, *parts) -> int:
    """Stable per-episode / per-turn seed derivation."""
    text = ":".join([str(base)] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def play_episode(cfg: SearchConfig, episode_id: int = 0,
                 pieces_per_side: int = PIECES_PER_SIDE_DEFAULT,
                 max_turns: int = MAX_TURNS_DEFAULT,
                 bfs_feature: bool = False, memo=None) -> EpisodeResult:
    """Plays one self-play game, red first; returns both traces.

    The side to move loses when its search finds no legal move.  When the
    game reaches ``max_turns`` the final board is tested once with
    ``winner``, so a move that wins on the capping turn still wins; any
    other game stopped by the cap is recorded as a draw (winner None), kept
    distinct from decided games.  Each move is recorded as its direction
    words, or with ``bfs_feature`` as the change of the least red-white
    distance it makes.  All turns of both colours share one rollout memo,
    whose key holds the side to move: ``memo``, a ``kernel.new_memo()``
    handle that the caller may pass to the games of one chunk in one
    process, or with None a memo of the game's own.  The result carries the
    game's share of its counts, so the first game through a handle counts
    what a memo of its own would.  The turn seed is derived only at
    minimax depth 0, the one depth whose rollouts read it: there turn ``t``
    searches with the seed ``derive_seed(cfg.rng_seed, episode_id, t)``,
    passed to ``mcts_search`` as its ``seed``.  At depth >= 1 no seed is
    passed, and the search, which reads none, is the same.
    """
    board = initial_board(pieces_per_side)
    if memo is None:
        memo = kernel.new_memo()
    before = memo.counts()
    traces = {Color.RED: [], Color.WHITE: []}
    last_id = -1
    last_movement: Movement = ()
    turn_color = Color.RED
    turns = 0
    seeded = cfg.minimax_depth == 0

    while turns < max_turns:
        seed = derive_seed(cfg.rng_seed, episode_id, turns) if seeded else None
        result = mcts_search(board, turn_color, cfg, memo, seed)
        if result is None:
            game_winner = turn_color.opponent
            break
        move, next_board = result
        if bfs_feature:
            movement: Movement = red_white_distance(next_board) - red_white_distance(board)
        else:
            movement = abstract_move(move.from_pos, move.to_pos)
        traces[turn_color].append(StepRecord(
            last_turn_enemy_piece_id=last_id,
            last_turn_enemy_movement=last_movement,
            piece_id=move.piece_id,
            move=movement,
            captured=move.captured_ids,
            reward=move.reward,
        ))
        last_id = move.piece_id
        last_movement = movement
        board = next_board
        turns += 1
        turn_color = turn_color.opponent
    else:  # the cap ended the game, maybe on a winning move
        game_winner = winner(board, turn_color)

    steps, hits, entries, clears = memo.counts()
    return EpisodeResult(episode_id, traces[Color.RED], traces[Color.WHITE],
                         game_winner, turns,
                         (steps - before[0], hits - before[1], entries, clears - before[3]))
