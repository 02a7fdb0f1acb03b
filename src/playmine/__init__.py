"""Self-play checkers agents whose decisions are mined into process models.

The pipeline: a minimax-rollout MCTS agent plays N-vs-N checkers against
itself, each decision is feature-engineered into an event log, process
discovery turns the logs into Petri nets, alignment-based conformance
scores them, and a layered log view answers what/why/why-not queries about
the agent's moves.
"""

from .board import (
    Color,
    ConcreteMove,
    GameBoard,
    GamePiece,
    RewardConfig,
    RuleViolationError,
    apply_move,
    evaluate,
    initial_board,
    legal_moves,
    winner,
)
from .conformance import (
    AlignmentResult,
    FitnessReport,
    ModelUnsoundError,
    classify_fitting,
    fitness_metrics,
    optimal_alignment,
)
from .discovery import (
    DirectlyFollowsGraph,
    ProcessTree,
    alpha_miner,
    directly_follows,
    inductive_miner,
    tree_to_net,
)
from .episodes import EpisodeResult, StepRecord, abstract_move, bfs_min_distance, play_episode
from .eventlog import EventLog, TransitionEvent, build_event_log, export_log, import_log
from .explain import Explainer, LayeredView, NoObservationError, layered_view, recommend, why_not
from .kernel import BACKEND as kernel_backend
from .kernel import prune_by_reward
from .petri import PetriNet, Transition
from .search import SearchConfig, mcts_search
from .trial import TrialSpec, run_trial

__version__ = "0.1.0"

__all__ = [
    "Color", "ConcreteMove", "GameBoard", "GamePiece", "RewardConfig",
    "RuleViolationError", "apply_move", "evaluate", "initial_board",
    "legal_moves", "winner",
    "SearchConfig", "mcts_search", "prune_by_reward",
    "EpisodeResult", "StepRecord", "abstract_move", "bfs_min_distance",
    "play_episode",
    "EventLog", "TransitionEvent", "build_event_log", "export_log", "import_log",
    "DirectlyFollowsGraph", "ProcessTree", "alpha_miner", "directly_follows",
    "inductive_miner", "tree_to_net",
    "PetriNet", "Transition",
    "AlignmentResult", "FitnessReport", "ModelUnsoundError", "classify_fitting",
    "fitness_metrics", "optimal_alignment",
    "Explainer", "LayeredView", "NoObservationError", "layered_view",
    "recommend", "why_not",
    "TrialSpec", "run_trial",
    "kernel_backend",
]
