"""The MCTS agent with minimax-guided rollouts.

The tree works in the kernel's encoding only: a node holds the 64-byte
state, the side to move as 0 (white) or 1 (red) and the kernel move tuple
that entered it.  ``mcts_search`` is the one place that converts, building
a ``ConcreteMove`` and a ``GameBoard`` for the chosen root child.

A node is terminal iff its side to move has no legal move, the same test
the kernel's minimax and rollout use.  Its move list is generated only when
selection stops at the node, and expansion needs that list anyway.

One search tree belongs to one worker; independent searches may run in
parallel processes.  All tie-breaking is first-in-enumeration-order so a
given (board, config) pair always yields the same move.
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
        if self.exploration < 0:
            raise ValueError("exploration constant must be >= 0")


class SearchNode:
    """MCTS tree node: visit count plus a [white, red] reward vector.

    ``children`` are kept in expansion order, which is the order of
    ``actions``; ``move`` is the kernel move tuple that entered the node.
    """

    __slots__ = ("state", "turn", "parent", "move", "children", "visits",
                 "reward", "_actions")

    def __init__(self, state: bytes, turn: int,
                 parent: Optional["SearchNode"] = None, move: Optional[tuple] = None):
        self.state = state
        self.turn = turn
        self.parent = parent
        self.move = move
        self.children: list[SearchNode] = []
        self.visits = 0
        self.reward = [0.0, 0.0]
        self._actions = None

    def actions(self, cfg: SearchConfig) -> list[tuple]:
        if self._actions is None:
            rw = cfg.reward
            moves = kernel.gen_moves(self.state, self.turn, rw.forced_capture,
                                     rw.capture_points, rw.crown_points)
            if cfg.pruning_enabled and moves:
                moves = prune_by_reward(moves)
            self._actions = moves
        return self._actions

    @property
    def fully_expanded(self) -> bool:
        return bool(self.children) and len(self.children) == len(self._actions)


def uct_best_child(node: SearchNode, c: float) -> SearchNode:
    """Argmax of mean reward for the mover plus the exploration bonus."""
    if not node.children:
        raise ValueError("uct_best_child on a node without children")
    idx = node.turn
    log_n = math.log(node.visits) if node.visits > 0 else 0.0
    best = None
    best_score = -math.inf
    for child in node.children:
        if child.visits == 0:
            raise ValueError("uct_best_child requires every child visited")
        score = child.reward[idx] / child.visits + c * math.sqrt(log_n / child.visits)
        if score > best_score:
            best_score = score
            best = child
    return best


def expand(node: SearchNode, cfg: SearchConfig) -> SearchNode:
    """Adds exactly one child for the next untried move and returns it."""
    moves = node.actions(cfg)
    if len(node.children) >= len(moves):
        raise ValueError("no untried move to expand")
    move = moves[len(node.children)]
    child = SearchNode(move[5], 1 - node.turn, parent=node, move=move)
    node.children.append(child)
    return child


def simulate(node: SearchNode, cfg: SearchConfig,
             rng: Optional[random.Random] = None) -> list:
    """Rollout from ``node``: each side plays its own shallow minimax move.

    With minimax_depth = 0 the rollout picks uniformly random moves instead.
    Returns the accumulated [white, red] reward vector; the entry move into
    ``node`` itself is not included; from a node with no legal move it is
    [0, 0].
    """
    rw = cfg.reward
    if cfg.minimax_depth >= 1:
        w, r = kernel.rollout(node.state, node.turn,
                              cfg.simulation_depth, cfg.minimax_depth,
                              rw.forced_capture, rw.capture_points,
                              rw.crown_points, cfg.king_weight)
        return [w, r]
    rng = rng or random.Random(cfg.rng_seed)
    delta = [0, 0]
    state = node.state
    turn = node.turn
    for _ in range(cfg.simulation_depth):
        moves = kernel.gen_moves(state, turn, rw.forced_capture,
                                 rw.capture_points, rw.crown_points)
        if not moves:
            break
        mv = moves[rng.randrange(len(moves))]
        delta[turn] += mv[4]
        state = mv[5]
        turn = 1 - turn
    return delta


def backpropagate(leaf: SearchNode, delta, discount: float) -> None:
    """Walks leaf to root adding discount**distance * delta and one visit."""
    node = leaf
    dist = 0
    while node is not None:
        factor = discount ** dist
        node.visits += 1
        node.reward[0] += factor * delta[0]
        node.reward[1] += factor * delta[1]
        node = node.parent
        dist += 1


def mcts_search(board: GameBoard, agent: Color, cfg: SearchConfig
                ) -> Optional[tuple[ConcreteMove, int, GameBoard]]:
    """Runs the full select/expand/simulate/backpropagate loop.

    Returns (move, reward, next_board) for the root child with the highest
    mean reward on the agent's index, or None when the agent has no move.
    The reward of the move that enters each iteration's leaf is added to the
    backup delta, so immediately winning moves keep their value even though
    the rollout from a terminal child is empty.
    """
    root = SearchNode(board.state, agent.value)
    if not root.actions(cfg):
        return None
    rng = random.Random(cfg.rng_seed)
    for _ in range(cfg.iterations):
        node = root
        while node.fully_expanded:
            node = uct_best_child(node, cfg.exploration)
        if node.actions(cfg):
            node = expand(node, cfg)
        # the leaf is never the root, so it always has an entry move
        delta = simulate(node, cfg, rng)
        delta[node.parent.turn] += node.move[4]
        backpropagate(node, delta, cfg.discount)

    idx = agent.value
    best = None
    best_mean = -math.inf
    for child in root.children:
        mean = child.reward[idx] / child.visits
        if mean > best_mean:
            best_mean = mean
            best = child
    move = best.move
    return (_to_concrete(move, board.state), move[4],
            GameBoard(move[5], board.pieces_per_side))


def prune_by_reward(moves: list[tuple]) -> list[tuple]:
    """Keeps only the kernel moves sharing the maximal reward (index 4), in
    input order."""
    if not moves:
        raise ValueError("prune_by_reward requires a non-empty move list")
    best = max(m[4] for m in moves)
    return [m for m in moves if m[4] == best]
