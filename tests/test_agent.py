import numpy as np
import pytest

from uedmaze.agent import (
    PolicyArch,
    PolicyNetwork,
    PolicyTable,
    Trajectory,
    build_batch,
    collect_rollout,
    compute_gae,
    log_softmax,
    ppo_loss_and_grad,
    ppo_update,
)
from uedmaze.config import RunConfig
from uedmaze.env import NUM_ACTIONS, OBS_DIM, MazeEnv, observation_table
from uedmaze.levels import Level, generate_random_level
from uedmaze.nn import FlatParams
from uedmaze.oracle import check_policy_gradient, naive_gae

from test_policy_table import sample_categorical

TINY = PolicyArch(dir_embed_dim=3, trunk_hidden=(16,), head_hidden=(8,))


def make_traj(rewards, values, gamma=1.0, lam=1.0):
    n = len(rewards)
    traj = Trajectory(
        observations=np.zeros((n + 1, OBS_DIM)),
        actions=np.zeros(n, dtype=np.int64),
        log_probs=np.full(n, -np.log(NUM_ACTIONS)),
        rewards=np.asarray(rewards, dtype=np.float64),
        values=np.asarray(values, dtype=np.float64),
        terminal=True,
    )
    return compute_gae(traj, gamma, lam)


def test_initial_policy_is_exactly_uniform():
    policy = PolicyNetwork()
    params = policy.init_params(np.random.default_rng(0))
    obs = np.random.default_rng(1).random((6, OBS_DIM))
    logits, values, _ = policy.forward(params.theta, obs)
    assert np.all(logits == 0.0)
    probs = np.exp(log_softmax(logits))
    assert np.allclose(probs, 1.0 / NUM_ACTIONS)
    assert np.all(np.isfinite(values))


def test_gae_hand_case():
    traj = make_traj([1.0, -2.0, 0.5], [0.0, 0.0, 0.0, 0.0])
    assert np.allclose(traj.td_errors, [1.0, -2.0, 0.5])
    assert np.allclose(traj.advantages, [-0.5, -1.5, 0.5])
    assert np.allclose(traj.returns, traj.advantages)


def test_gae_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        rewards = rng.normal(size=n)
        values = rng.normal(size=n + 1)
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        traj = make_traj(rewards, values, gamma, lam)
        assert np.max(np.abs(traj.advantages - naive_gae(traj.td_errors, gamma, lam))) < 1e-10


def per_element_gae(rewards, values, gamma, lam):
    """The reverse recursion on numpy scalars, one array element at a time: compute_gae's earlier form."""
    deltas = rewards + gamma * values[1:] - values[:-1]
    adv = np.empty_like(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        adv[t] = acc
    return deltas, adv, adv + values[:-1]


def test_gae_over_python_floats_keeps_the_per_element_bits():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 260))
        rewards = np.where(rng.random(n) < 0.1, rng.random(n), 0.0)
        values = rng.normal(size=n + 1)
        gamma, lam = (0.995, 0.95) if rng.random() < 0.5 else (float(rng.uniform(0.5, 1.0)), float(rng.random()))
        traj = make_traj(rewards, values, gamma, lam)
        for got, want in zip((traj.td_errors, traj.advantages, traj.returns),
                             per_element_gae(rewards, values, gamma, lam)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def test_sample_categorical_inverse_cdf():
    probs = np.array([[0.2, 0.5, 0.3]])
    assert sample_categorical(probs, np.array([0.1]))[0] == 0
    assert sample_categorical(probs, np.array([0.55])) == 1
    assert sample_categorical(probs, np.array([0.95]))[0] == 2
    assert sample_categorical(probs, np.array([1.0]))[0] == 2  # clamp at the top


class FixedPolicy:
    """The same action probabilities in every state."""

    def __init__(self, probs):
        self.logits = np.log(probs)

    def forward(self, theta, obs):
        return np.tile(self.logits, (len(obs), 1)), np.zeros(len(obs)), None


def test_policy_table_samples_by_inverse_cdf():
    probs = np.array([0.2, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1])
    level = generate_random_level(5, 5, 0, np.random.default_rng(0))
    table = PolicyTable(FixedPolicy(probs), FlatParams(np.zeros(1)), level)
    softmax = np.exp(log_softmax(np.log(probs)[None]))
    cdf = np.cumsum(softmax, axis=1)[0, :-1].tolist()
    assert table.cdf == [cdf] * (5 * 5 * 4)
    for u in (0.1, cdf[0], 0.45, 0.95, np.nextafter(1.0, 0.0)):
        assert table.act(0, u) == sample_categorical(softmax, np.array([u]))[0]  # the rollouts' sampler
    assert table.act(0, cdf[0]) == 0  # the first action whose cumulative probability reaches u
    assert table.act(0, np.nextafter(1.0, 0.0)) == 6  # the last action takes what the others leave
    assert table.act(0) == 1  # greedy


def test_rollout_structure_and_accounting():
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(3))
    rng = np.random.default_rng(4)
    levels = [generate_random_level(7, 7, 6, rng) for _ in range(3)]
    horizon = 40
    trajs = collect_rollout(policy, params, levels, horizon, max_episode_steps=15, rng=rng)
    assert sum(t.length for t in trajs) == horizon * len(levels)
    for traj in trajs:
        assert traj.observations.shape == (traj.length + 1, OBS_DIM)
        assert len(traj.values) == traj.length + 1
        assert len(traj.actions) == len(traj.rewards) == len(traj.log_probs) == traj.length
        if traj.terminal:
            assert traj.values[-1] == 0.0
        # reward only ever appears on the final transition (goal or nothing)
        assert np.all(traj.rewards[:-1] == 0.0)


def test_rollout_observations_replay_in_a_fresh_env():
    # every stored row, the first row of each env's first episode included,
    # must be what a fresh env shows when stepped with the trajectory's actions
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(3))
    rng = np.random.default_rng(4)
    levels = [generate_random_level(7, 7, 6, rng) for _ in range(3)]
    horizon = 40
    trajs = collect_rollout(policy, params, levels, horizon, max_episode_steps=15, rng=rng)
    assert len(trajs) > len(levels)  # auto-resets happened
    env_index, steps_in_env = 0, 0
    for k, traj in enumerate(trajs):
        env = MazeEnv(levels[env_index], 15)
        replayed = [env.reset().vector()]
        for a in traj.actions:
            o, _, _ = env.step(int(a))
            replayed.append(o.vector())
        assert np.array_equal(traj.observations, np.stack(replayed)), f"trajectory {k} (env {env_index})"
        # trajectories come in env order and each env's episodes fill the horizon
        steps_in_env += traj.length
        if steps_in_env == horizon:
            env_index, steps_in_env = env_index + 1, 0
    assert env_index == len(levels)


def test_rollout_observations_alias_nothing():
    # each trajectory owns its observations: no other trajectory and no observation table sees them
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(3))
    rng = np.random.default_rng(4)
    levels = [generate_random_level(7, 7, 6, rng) for _ in range(2)]
    trajs = collect_rollout(policy, params, [levels[0], levels[1], levels[0]], 40, max_episode_steps=15, rng=rng)
    tables = [observation_table(level) for level in levels]
    assert len(trajs) > 3
    for k, traj in enumerate(trajs):
        assert traj.observations.flags.writeable
        assert not any(np.shares_memory(traj.observations, table) for table in tables), k
        for j in range(k):
            assert not np.shares_memory(traj.observations, trajs[j].observations), (j, k)


def test_rollout_is_deterministic():
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(5))
    level = generate_random_level(7, 7, 6, np.random.default_rng(6))
    waves = []
    for _ in range(2):
        trajs = collect_rollout(policy, params, [level, level], 30, 20, np.random.default_rng(7))
        waves.append([(t.actions.tolist(), t.rewards.tolist()) for t in trajs])
    assert waves[0] == waves[1]


def test_policy_gradient_matches_finite_differences():
    ok, detail = check_policy_gradient(np.random.default_rng(8))
    assert ok, detail


@pytest.mark.parametrize("entropy_coef", [0.0, 0.01])
def test_policy_gradient_matches_finite_differences_on_every_loss_branch(entropy_coef):
    ok, detail = check_policy_gradient(np.random.default_rng(81), entropy_coef=entropy_coef)
    assert ok, detail


def test_ppo_single_step_descends():
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(9))
    rng = np.random.default_rng(10)
    levels = [generate_random_level(7, 7, 4, rng) for _ in range(2)]
    cfg = RunConfig(ppo_epochs=1, adam_learning_rate=3e-3, entropy_coef=0.0)
    trajs = collect_rollout(policy, params, levels, 64, 20, rng)
    run = RunConfig()
    for t in trajs:
        compute_gae(t, run.gamma, run.gae_lambda)
    batch = build_batch(trajs)
    loss_before, _, _ = ppo_loss_and_grad(policy, params.theta, batch, cfg)
    new_params, stats = ppo_update(policy, params, trajs, cfg, np.random.default_rng(11))
    loss_after, _, _ = ppo_loss_and_grad(policy, new_params.theta, batch, cfg)
    assert not stats["aborted"]
    assert loss_after < loss_before
    assert np.all(np.isfinite(new_params.theta))


def test_ppo_update_does_not_mutate_inputs():
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(12))
    before = params.theta.copy()
    rng = np.random.default_rng(13)
    level = generate_random_level(7, 7, 4, rng)
    trajs = collect_rollout(policy, params, [level], 32, 20, rng)
    for t in trajs:
        compute_gae(t, 0.99, 0.95)
    new_params, _ = ppo_update(policy, params, trajs, RunConfig(ppo_epochs=2), rng)
    assert np.array_equal(params.theta, before)
    assert new_params is not params


def _chain_span(net, name):
    first = net._slices[(name, 0)][0].start
    last = net._slices[(name, len(net.chains[name]) - 1)][1].stop
    return slice(first, last)


def test_zero_advantages_leave_actor_head_untouched():
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(14))
    rng = np.random.default_rng(15)
    level = generate_random_level(7, 7, 0, rng)
    trajs = collect_rollout(policy, params, [level], 24, 6, rng)
    for t in trajs:
        compute_gae(t, 1.0, 1.0)
        t.rewards[:] = 0.0
        t.values[:] = 0.0
        t.advantages[:] = 0.0
        t.returns[:] = 0.0
        t.td_errors[:] = 0.0
    cfg = RunConfig(ppo_epochs=3, adam_learning_rate=1e-2, entropy_coef=0.0)
    new_params, _ = ppo_update(policy, params, trajs, cfg, rng)
    actor = _chain_span(policy.net, "actor")
    critic = _chain_span(policy.net, "critic")
    assert np.array_equal(new_params.theta[actor], params.theta[actor])
    assert not np.array_equal(new_params.theta[critic], params.theta[critic])


def test_entropy_gradient_direction():
    # with only the entropy bonus active, updates should flatten the policy
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(16))
    # bias the actor head away from uniform first
    actor = _chain_span(policy.net, "actor")
    theta = params.theta.copy()
    theta[actor] = np.random.default_rng(17).normal(scale=0.5, size=actor.stop - actor.start)
    params = FlatParams(theta)
    rng = np.random.default_rng(18)
    level = generate_random_level(7, 7, 0, rng)
    trajs = collect_rollout(policy, params, [level], 32, 10, rng)
    obs = np.concatenate([t.observations[:-1] for t in trajs])

    def mean_entropy(th):
        logits, _, _ = policy.forward(th, obs)
        logp = log_softmax(logits)
        return float(-(np.exp(logp) * logp).sum(axis=1).mean())

    for t in trajs:
        compute_gae(t, 1.0, 1.0)
        t.advantages[:] = 0.0
        t.returns[:] = 0.0
    cfg = RunConfig(ppo_epochs=4, adam_learning_rate=5e-3, entropy_coef=0.05, value_loss_coef=0.0)
    new_params, _ = ppo_update(policy, params, trajs, cfg, rng)
    assert mean_entropy(new_params.theta) > mean_entropy(params.theta)


def test_ppo_update_aborts_on_nonfinite():
    policy = PolicyNetwork(TINY)
    params = policy.init_params(np.random.default_rng(19))
    rng = np.random.default_rng(20)
    level = generate_random_level(7, 7, 4, rng)
    trajs = collect_rollout(policy, params, [level], 16, 10, rng)
    for t in trajs:
        compute_gae(t, 0.99, 0.95)
        t.advantages[:] = np.inf
    new_params, stats = ppo_update(policy, params, trajs, RunConfig(), rng)
    assert stats["aborted"]
    assert np.array_equal(new_params.theta, params.theta)


def test_build_batch_requires_gae():
    traj = Trajectory(
        observations=np.zeros((3, OBS_DIM)),
        actions=np.zeros(2, dtype=np.int64),
        log_probs=np.zeros(2),
        rewards=np.zeros(2),
        values=np.zeros(3),
        terminal=True,
    )
    with pytest.raises(ValueError):
        build_batch([traj])
