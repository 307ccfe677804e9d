"""Run configuration: one INI file, sections mirroring the hyperparameter table.

parse_config and dump_config round-trip exactly (floats via repr), so a config
can be archived with its run and re-parsed bit-identically. Validation reports
the section.key of the first offending field.

RunConfig is the one configuration object the loop reads: ppo_update,
train_dynamics and the teacher take it whole and read its fields by name.

Some choices are fixed rather than configured: the value loss is always
clipped, each PPO epoch takes one step on the whole shuffled batch, and replay
always ranks tasks (Robust PLR's rank prioritisation), so temperature must be
finite and > 0. Gradients are always clipped, so max_grad_norm must be > 0.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields
from importlib import resources

from .agent import PolicyArch
from .dynamics import DynamicsArch
from .errors import ConfigError

MODES = ("traced", "accel", "plr", "dr", "traced-no-atpl", "traced-no-cl")


@dataclass
class RunConfig:
    # run
    mode: str = "traced"
    seed: int = 0
    total_updates: int = 300
    eval_every: int = 0  # 0 = evaluate only at the end
    eval_episodes: int = 10
    checkpoint_every: int = 0  # 0 = checkpoint only at the end
    eval_suite: str = "desk11"
    # env
    grid_width: int = 15
    grid_height: int = 15
    max_episode_steps: int = 250
    min_blocks: int = 0
    max_blocks: int = 60
    # model
    dir_embed_dim: int = 5
    trunk_hidden: tuple = (64, 64)
    head_hidden: tuple = (32, 32)
    dynamics_hidden: tuple = (64, 64)
    dynamics_learning_rate: float = 1e-3
    # ppo
    gamma: float = 0.995
    gae_lambda: float = 0.95
    rollout_length: int = 256
    ppo_epochs: int = 5
    clip_range: float = 0.2
    num_workers: int = 16
    adam_learning_rate: float = 1e-4
    adam_eps: float = 1e-5
    max_grad_norm: float = 0.5
    value_loss_coef: float = 0.5
    entropy_coef: float = 0.0
    # teacher
    alpha: float = 1.0
    beta: float = 1.0
    replay_rate: float = 0.8
    buffer_size: int = 4000
    num_edits: int = 5
    batch_size: int = 4
    num_mutations: int = 4
    temperature: float = 0.3
    staleness_coef: float = 0.3

    def policy_arch(self) -> PolicyArch:
        return PolicyArch(
            dir_embed_dim=self.dir_embed_dim,
            trunk_hidden=self.trunk_hidden,
            head_hidden=self.head_hidden,
        )

    def dynamics_arch(self) -> DynamicsArch:
        return DynamicsArch(hidden=self.dynamics_hidden)


SECTIONS = {
    "run": ("mode", "seed", "total_updates", "eval_every", "eval_episodes", "checkpoint_every", "eval_suite"),
    "env": ("grid_width", "grid_height", "max_episode_steps", "min_blocks", "max_blocks"),
    "model": ("dir_embed_dim", "trunk_hidden", "head_hidden", "dynamics_hidden", "dynamics_learning_rate"),
    "ppo": (
        "gamma",
        "gae_lambda",
        "rollout_length",
        "ppo_epochs",
        "clip_range",
        "num_workers",
        "adam_learning_rate",
        "adam_eps",
        "max_grad_norm",
        "value_loss_coef",
        "entropy_coef",
    ),
    "teacher": (
        "alpha",
        "beta",
        "replay_rate",
        "buffer_size",
        "num_edits",
        "batch_size",
        "num_mutations",
        "temperature",
        "staleness_coef",
    ),
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_FIELD_SECTION = {key: section for section, keys in SECTIONS.items() for key in keys}


def _parse_value(section, key, raw):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc


def _format_value(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text) -> RunConfig:
    """Parse INI text (or a file object) into a validated RunConfig."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SECTIONS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            values[key] = _parse_value(section, key, raw)
    return validate_config(RunConfig(**values))


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def load_preset(name) -> RunConfig:
    ref = resources.files("uedmaze").joinpath("configs", f"{name}.ini")
    if not ref.is_file():
        raise ConfigError(f"no such config preset: {name!r}")
    return parse_config(ref.read_text())


def dump_config(cfg: RunConfig) -> str:
    """Canonical INI text; parse_config(dump_config(cfg)) == cfg."""
    out = io.StringIO()
    for section, keys in SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_format_value(getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()


def validate_config(cfg: RunConfig) -> RunConfig:
    def fail(key, message):
        raise ConfigError(f"{_FIELD_SECTION[key]}.{key}: {message}")

    if cfg.mode not in MODES:
        fail("mode", f"must be one of {MODES}, got {cfg.mode!r}")
    for key in ("total_updates", "eval_episodes", "max_episode_steps", "rollout_length",
                "ppo_epochs", "num_workers", "buffer_size", "num_edits",
                "batch_size", "dir_embed_dim"):
        if getattr(cfg, key) < 1:
            fail(key, f"must be >= 1, got {getattr(cfg, key)}")
    for key in ("seed", "eval_every", "checkpoint_every", "min_blocks", "max_blocks", "num_mutations"):
        if getattr(cfg, key) < 0:
            fail(key, f"must be >= 0, got {getattr(cfg, key)}")
    if cfg.min_blocks > cfg.max_blocks:
        fail("min_blocks", f"must be <= max_blocks ({cfg.max_blocks}), got {cfg.min_blocks}")
    for key in ("grid_width", "grid_height"):
        v = getattr(cfg, key)
        if v < 5 or v % 2 == 0:
            fail(key, f"must be odd and >= 5, got {v}")
    if not 0.0 < cfg.gamma <= 1.0:
        fail("gamma", f"must be in (0, 1], got {cfg.gamma}")
    if not 0.0 <= cfg.gae_lambda <= 1.0:
        fail("gae_lambda", f"must be in [0, 1], got {cfg.gae_lambda}")
    for key in ("clip_range", "adam_learning_rate", "adam_eps", "dynamics_learning_rate", "max_grad_norm"):
        if not getattr(cfg, key) > 0:
            fail(key, f"must be > 0, got {getattr(cfg, key)}")
    for key in ("value_loss_coef", "entropy_coef", "alpha", "beta"):
        if getattr(cfg, key) < 0:
            fail(key, f"must be >= 0, got {getattr(cfg, key)}")
    for key in ("replay_rate", "staleness_coef"):
        if not 0.0 <= getattr(cfg, key) <= 1.0:
            fail(key, f"must be in [0, 1], got {getattr(cfg, key)}")
    if cfg.num_mutations > cfg.batch_size:
        fail("num_mutations", f"must be <= batch_size ({cfg.batch_size}), got {cfg.num_mutations}")
    if not (0 < cfg.temperature < math.inf):
        fail("temperature", f"must be finite and > 0, got {cfg.temperature}")
    for key in ("trunk_hidden", "head_hidden", "dynamics_hidden"):
        sizes = getattr(cfg, key)
        if not sizes or any(int(s) < 1 for s in sizes):
            fail(key, f"need positive layer sizes, got {sizes}")
    if cfg.batch_size > cfg.buffer_size:
        fail("batch_size", f"must be <= buffer_size ({cfg.buffer_size}), got {cfg.batch_size}")
    return cfg
