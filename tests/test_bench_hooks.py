"""The benchmark's tracer still finds, and sees called, every name it patches.

bench/tracing.py times the program by replacing module attributes (for
example curriculum.collect_rollout) for the length of a block. A refactor
that renames one of them, or calls the function some other way than through
that attribute, would leave a span silently empty. This test loads the file
as it is and runs a tiny traced experiment under it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from uedmaze import harness
from uedmaze.config import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

TINY = RunConfig(
    grid_width=5,
    grid_height=5,
    max_episode_steps=10,
    max_blocks=2,
    dir_embed_dim=2,
    trunk_hidden=(12,),
    head_hidden=(8,),
    dynamics_hidden=(12,),
    rollout_length=10,
    ppo_epochs=1,
    num_workers=2,
    buffer_size=8,
    batch_size=2,
    num_mutations=1,
    replay_rate=1.0,
    total_updates=4,
    eval_episodes=1,
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_patched_attribute_resolves(tracing):
    for owner, attr, *_ in tracing.TARGETS + tracing.COUNTED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_a_traced_run_calls_every_span(tracing, tmp_path):
    # replay_rate 1: two explore steps fill a batch, then two replays with a mutation each
    with tracing.traced(tracing.Tracer()) as tracer:
        harness.run_experiment(TINY, tmp_path)
    phases = [line.split(",")[1] for line in (tmp_path / "logs.csv").read_text().splitlines()[1:]]
    assert {"explore", "replay", "mutate"} <= set(phases)

    names = {target[2] for target in tracing.TARGETS} | {target[2] for target in tracing.COUNTED}
    assert {name for name in names if tracer.calls[name] == 0} == set()
    per_rollout = TINY.num_workers * TINY.rollout_length
    assert tracer.calls_under["env.step"]["agent.collect_rollout"] == len(phases) * per_rollout

