"""Regret-guided curricula over procedurally generated mazes.

The package trains a PPO student on a stream of maze levels chosen by a
teacher that estimates learning potential from value errors and transition
prediction errors, and prioritizes tasks whose replay historically helped
the rest of the buffer.
"""

from .agent import PolicyArch, PolicyNetwork, Trajectory, collect_rollout, compute_gae, ppo_update
from .config import MODES, RunConfig, dump_config, load_config, load_preset, parse_config, validate_config
from .curriculum import CurriculumState, Predictor, Student, TaskRecord, task_priority_distribution, ued_step
from .dynamics import DynamicsArch, DynamicsModel, train_dynamics, transition_loss
from .env import MazeEnv, NUM_ACTIONS, OBS_DIM, Observation
from .errors import ConfigError
from .harness import emit_report, evaluate_policy, load_checkpoint, load_suite, make_components, run_experiment, save_checkpoint
from .levels import Level, generate_random_level, load_level, mutate_level, parse_ascii, render_ascii, save_level, shortest_path_length
from .oracle import verification_report
from .scoring import RegretScore, approx_regret

__version__ = "0.1.0"

__all__ = [
    "CurriculumState",
    "ConfigError",
    "DynamicsArch",
    "DynamicsModel",
    "Level",
    "MODES",
    "MazeEnv",
    "NUM_ACTIONS",
    "OBS_DIM",
    "Observation",
    "PolicyArch",
    "PolicyNetwork",
    "Predictor",
    "RegretScore",
    "RunConfig",
    "Student",
    "TaskRecord",
    "Trajectory",
    "approx_regret",
    "collect_rollout",
    "compute_gae",
    "dump_config",
    "emit_report",
    "evaluate_policy",
    "generate_random_level",
    "load_checkpoint",
    "load_config",
    "load_level",
    "load_preset",
    "load_suite",
    "make_components",
    "mutate_level",
    "parse_ascii",
    "parse_config",
    "ppo_update",
    "render_ascii",
    "run_experiment",
    "save_checkpoint",
    "save_level",
    "shortest_path_length",
    "task_priority_distribution",
    "train_dynamics",
    "transition_loss",
    "ued_step",
    "validate_config",
    "verification_report",
]
