"""The MCTS agent with minimax-guided rollouts: its config, and the
conversion around the kernel's search.

The whole search (UCT selection, expansion, minimax or seeded random
rollouts and the discounted backup) runs in one ``kernel.search`` call per
turn, in the kernel's encoding; ``kernel/_pykernel.py`` documents the
algorithm and the float-operation order both kernel twins keep.
``mcts_search`` is the one place that converts, building a ``ConcreteMove``
and a ``GameBoard`` for the chosen root child.

A node is terminal iff its side to move has no legal move, the same test
the kernel's minimax and rollout use.  Depth-0 rollouts draw from
``random.Random(cfg.rng_seed)``, and all tie-breaking is
first-in-enumeration-order, so a given (board, config) pair always yields
the same move.  Independent searches may run in parallel processes.
"""

from __future__ import annotations

import math
import random
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
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.simulation_depth < 0 or self.minimax_depth < 0:
            raise ValueError("depths must be >= 0")
        if not 0 < self.discount <= 1:
            raise ValueError("discount must be in (0, 1]")
        if not 0 <= self.exploration < math.inf:
            raise ValueError("exploration constant must be finite and >= 0")


def mcts_search(board: GameBoard, agent: Color, cfg: SearchConfig
                ) -> Optional[tuple[ConcreteMove, int, GameBoard]]:
    """Runs ``cfg.iterations`` MCTS iterations for ``agent`` in one
    ``kernel.search`` call.

    Returns (move, reward, next_board) for the root child with the highest
    mean reward on the agent's index, or None when the agent has no move.
    The reward of the move that enters each iteration's leaf is added to the
    backup delta, so immediately winning moves keep their value even though
    the rollout from a terminal child is empty.
    """
    rw = cfg.reward
    found = kernel.search(board.state, agent.value, cfg.iterations,
                          cfg.simulation_depth, cfg.minimax_depth,
                          rw.forced_capture, rw.capture_points, rw.crown_points,
                          cfg.king_weight, cfg.exploration, cfg.discount,
                          cfg.pruning_enabled, random.Random(cfg.rng_seed).randrange)
    if found is None:
        return None
    move = found[0]
    return (_to_concrete(move, board.state), move[4],
            GameBoard(move[5], board.pieces_per_side))
