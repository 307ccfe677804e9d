"""Run configuration: one INI file, sections mirroring the hyperparameter table.

Each RunConfig field is declared once, by setting(): its INI section, its
default and the rule its value obeys sit together. SECTIONS follows field
order, a value is parsed by its default's type, and validation checks each
field's rule, that every float setting is finite, then the rules that span
fields. The network sizes take their defaults from PolicyArch and DynamicsArch.

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

import configparser
import io
import math
from dataclasses import dataclass, field, fields
from importlib import resources

from .agent import PolicyArch
from .dynamics import DynamicsArch
from .errors import ConfigError

MODES = ("traced", "accel", "plr", "dr", "traced-no-atpl", "traced-no-cl")

# The rules a single setting obeys, keyed by the words of their error message.
_RULES = {
    "must be >= 0": lambda v: v >= 0,
    "must be >= 1": lambda v: v >= 1,
    "must be > 0": lambda v: v > 0,
    "must be finite and > 0": lambda v: 0 < v < math.inf,
    "must be in [0, 1]": lambda v: 0 <= v <= 1,
    "must be in (0, 1]": lambda v: 0 < v <= 1,
    "must be odd and >= 5": lambda v: v >= 5 and v % 2 == 1,
    "need positive layer sizes": lambda v: len(v) > 0 and all(int(s) >= 1 for s in v),
}


def setting(section, default, rule=None):
    """A RunConfig field: its INI section, its default and its rule (a key of _RULES, or None)."""
    return field(default=default, metadata={"section": section, "rule": rule})


@dataclass
class RunConfig:
    mode: str = setting("run", "traced")
    seed: int = setting("run", 0, "must be >= 0")
    total_updates: int = setting("run", 300, "must be >= 1")
    eval_every: int = setting("run", 0, "must be >= 0")  # 0 = evaluate only at the end
    eval_episodes: int = setting("run", 10, "must be >= 1")
    checkpoint_every: int = setting("run", 0, "must be >= 0")  # 0 = checkpoint only at the end
    eval_suite: str = setting("run", "desk11")
    grid_width: int = setting("env", 15, "must be odd and >= 5")
    grid_height: int = setting("env", 15, "must be odd and >= 5")
    max_episode_steps: int = setting("env", 250, "must be >= 1")
    min_blocks: int = setting("env", 0, "must be >= 0")
    max_blocks: int = setting("env", 60, "must be >= 0")
    dir_embed_dim: int = setting("model", PolicyArch.dir_embed_dim, "must be >= 1")
    trunk_hidden: tuple = setting("model", PolicyArch.trunk_hidden, "need positive layer sizes")
    head_hidden: tuple = setting("model", PolicyArch.head_hidden, "need positive layer sizes")
    dynamics_hidden: tuple = setting("model", DynamicsArch.hidden, "need positive layer sizes")
    dynamics_learning_rate: float = setting("model", 1e-3, "must be > 0")
    gamma: float = setting("ppo", 0.995, "must be in (0, 1]")
    gae_lambda: float = setting("ppo", 0.95, "must be in [0, 1]")
    rollout_length: int = setting("ppo", 256, "must be >= 1")
    ppo_epochs: int = setting("ppo", 5, "must be >= 1")
    clip_range: float = setting("ppo", 0.2, "must be > 0")
    num_workers: int = setting("ppo", 16, "must be >= 1")
    adam_learning_rate: float = setting("ppo", 1e-4, "must be > 0")
    adam_eps: float = setting("ppo", 1e-5, "must be > 0")
    max_grad_norm: float = setting("ppo", 0.5, "must be > 0")
    value_loss_coef: float = setting("ppo", 0.5, "must be >= 0")
    entropy_coef: float = setting("ppo", 0.0, "must be >= 0")
    alpha: float = setting("teacher", 1.0, "must be >= 0")
    beta: float = setting("teacher", 1.0, "must be >= 0")
    replay_rate: float = setting("teacher", 0.8, "must be in [0, 1]")
    buffer_size: int = setting("teacher", 4000, "must be >= 1")
    num_edits: int = setting("teacher", 5, "must be >= 1")
    batch_size: int = setting("teacher", 4, "must be >= 1")
    num_mutations: int = setting("teacher", 4, "must be >= 0")
    temperature: float = setting("teacher", 0.3, "must be finite and > 0")
    staleness_coef: float = setting("teacher", 0.3, "must be in [0, 1]")

    def policy_arch(self) -> PolicyArch:
        return PolicyArch(
            dir_embed_dim=self.dir_embed_dim,
            trunk_hidden=self.trunk_hidden,
            head_hidden=self.head_hidden,
        )

    def dynamics_arch(self) -> DynamicsArch:
        return DynamicsArch(hidden=self.dynamics_hidden)


_FIELDS = {f.name: f for f in fields(RunConfig)}
# {section: its keys}, both in field order
SECTIONS = {
    section: tuple(name for name, f in _FIELDS.items() if f.metadata["section"] == section)
    for section in dict.fromkeys(f.metadata["section"] for f in _FIELDS.values())
}


def _parse_value(f, raw):
    """raw as the type of f's default; a tuple setting is comma-separated ints."""
    raw = raw.strip()
    try:
        if isinstance(f.default, tuple):
            return tuple(int(p) for p in raw.split(",") if p.strip())
        return type(f.default)(raw)
    except ValueError as exc:
        raise ConfigError(f"{f.metadata['section']}.{f.name}: {exc}") from exc


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
            values[key] = _parse_value(_FIELDS[key], raw)
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
        raise ConfigError(f"{_FIELDS[key].metadata['section']}.{key}: {message}")

    if cfg.mode not in MODES:
        fail("mode", f"must be one of {MODES}, got {cfg.mode!r}")
    for f in _FIELDS.values():
        value, rule = getattr(cfg, f.name), f.metadata["rule"]
        if rule is not None and not _RULES[rule](value):
            fail(f.name, f"{rule}, got {value}")
        if isinstance(value, float) and not math.isfinite(value):
            fail(f.name, f"must be finite, got {value}")
    if cfg.min_blocks > cfg.max_blocks:
        fail("min_blocks", f"must be <= max_blocks ({cfg.max_blocks}), got {cfg.min_blocks}")
    if cfg.num_mutations > cfg.batch_size:
        fail("num_mutations", f"must be <= batch_size ({cfg.batch_size}), got {cfg.num_mutations}")
    if cfg.batch_size > cfg.buffer_size:
        fail("batch_size", f"must be <= buffer_size ({cfg.buffer_size}), got {cfg.batch_size}")
    return cfg
