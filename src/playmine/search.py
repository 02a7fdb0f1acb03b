"""The MCTS agent with minimax-guided rollouts: its config, and the
conversion around the kernel's search.

The whole search (UCT selection, expansion, minimax or seeded random
rollouts and the discounted backup) runs in one ``kernel.search`` call per
turn, in the kernel's encoding.  ``kernel/_pykernel.py``'s module docstring
states what both kernel twins keep: the tie rule, the float operations and
their order, the rollout loop and its memo, and the final pick.  So a given
(board, config) pair always yields the same move, and at minimax depth 1 or
more ``cfg.rng_seed`` does not change it.  ``mcts_search`` is the one place
that converts, building a ``ConcreteMove`` and a ``GameBoard`` for the
chosen root child; the move carries that child's reward.  It passes the
caller's ``kernel.new_memo()`` handle through, so a game's turns share one
memo (``trial.run_episodes`` passes one to each chunk of games); with none,
the call makes its own.  At minimax depth 1 or more the handle also keeps
each search, so a search repeated through it (a root a game reaches again,
or a chunk's later games, which at that depth are the first game again)
costs one lookup and counts what searching again would, and the handle's
``converted`` dict keeps the conversion of each move, so the repeat builds
nothing either: it returns the very ``(move, board)`` pair the first
search returned.  The kernel empties that dict in the same clear as the
kept searches; without a handle, or at minimax depth 0, nothing is kept,
and this module holds no state of its own.  A handle serves one chunk of
games in one process; independent searches may run in parallel processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import kernel
from .board import (
    KING_WEIGHT_DEFAULT,
    Color,
    ConcreteMove,
    GameBoard,
    RewardConfig,
    _to_concrete,
    check_counts,
)
# unused here; perfbench/tracing.py patches both names on this module
from .board import moves_with_boards, winner  # noqa: F401


@dataclass(frozen=True)
class SearchConfig:
    iterations: int = 100
    simulation_depth: int = 10
    minimax_depth: int = 1
    exploration: float = 1 / math.sqrt(2)
    discount: float = 0.8
    pruning_enabled: bool = False
    rng_seed: int = 0
    reward: RewardConfig = field(default_factory=RewardConfig)
    king_weight: float = KING_WEIGHT_DEFAULT

    def __post_init__(self):
        check_counts(iterations=self.iterations, simulation_depth=self.simulation_depth,
                     minimax_depth=self.minimax_depth, rng_seed=self.rng_seed)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.simulation_depth < 0 or not 0 <= self.minimax_depth <= kernel.MAX_DEPTH:
            raise ValueError(f"depths must be >= 0, the minimax depth <= {kernel.MAX_DEPTH}")
        if not 0 < self.discount <= 1:
            raise ValueError("discount must be in (0, 1]")
        if not 0 <= self.exploration < math.inf:
            raise ValueError("exploration constant must be finite and >= 0")
        if not math.isfinite(self.king_weight):
            raise ValueError("king_weight must be finite")


def mcts_search(board: GameBoard, agent: Color, cfg: SearchConfig, memo=None,
                seed: Optional[int] = None) -> Optional[tuple[ConcreteMove, GameBoard]]:
    """Runs ``cfg.iterations`` MCTS iterations for ``agent`` in one
    ``kernel.search`` call, its rollout steps through ``memo`` (a
    ``kernel.new_memo()`` handle, or None for a memo of the call's own).
    ``seed`` (any int, taken mod 2**64 by the kernel) starts the random
    moves of minimax-depth-0 rollouts in place of ``cfg.rng_seed``, so a
    caller that draws a seed per turn passes it without building a config.

    Returns (move, next_board) for the root child with the highest mean
    reward on the agent's index, or None when the agent has no move; the
    move's own reward is ``move.reward``.  Through a handle at minimax
    depth >= 1 the pair is built once per kernel move and kept in
    ``memo.converted`` (at most ``kernel.MEMO_MAX`` pairs, emptied with the
    handle's kept searches), so a replayed search returns the same pair.
    The reward of the move that enters each iteration's leaf is added to the
    backup delta, so immediately winning moves keep their value even though
    the rollout from a terminal child is empty.
    """
    rw = cfg.reward
    found = kernel.search(board.state, agent.value, cfg.iterations,
                          cfg.simulation_depth, cfg.minimax_depth,
                          rw.forced_capture, rw.capture_points, rw.crown_points,
                          cfg.king_weight, cfg.exploration, cfg.discount,
                          cfg.pruning_enabled, cfg.rng_seed if seed is None else seed,
                          memo)
    if found is None:
        return None
    move = found[0]
    converted = memo.converted if memo is not None and cfg.minimax_depth else None
    if converted is not None:
        kept = converted.get(move)
        # the kept board carries a declared size, which the move does not
        if kept is not None and kept[1].pieces_per_side == board.pieces_per_side:
            return kept
    result = _to_concrete(move, board.state), GameBoard(move[5], board.pieces_per_side)
    if converted is not None and len(converted) < kernel.MEMO_MAX:
        converted[move] = result
    return result
