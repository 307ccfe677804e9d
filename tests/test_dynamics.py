import numpy as np
import pytest

from uedmaze.dynamics import (
    DynamicsArch,
    DynamicsModel,
    SMOOTH_L1_WIDTH,
    smooth_l1,
    smooth_l1_grad,
    stack_transitions,
    train_dynamics,
    trajectory_transitions,
    transition_loss,
)
from uedmaze.agent import PolicyArch, PolicyNetwork, collect_rollout
from uedmaze.config import RunConfig
from uedmaze.env import NUM_ACTIONS, OBS_DIM
from uedmaze.levels import generate_random_level
from uedmaze.oracle import check_dynamics_gradient, naive_transition_loss


def random_transitions(rng, n):
    obs = rng.random((n, OBS_DIM))
    act = np.eye(NUM_ACTIONS)[rng.integers(0, NUM_ACTIONS, size=n)]
    nxt = rng.random((n, OBS_DIM))
    return obs, act, nxt


def test_transition_loss_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pred = rng.normal(size=(int(rng.integers(1, 12)), OBS_DIM))
        actual = rng.normal(size=pred.shape)
        assert abs(transition_loss(pred, actual) - naive_transition_loss(pred, actual)) < 1e-12


def test_perfect_predictor_scores_exactly_zero():
    rng = np.random.default_rng(1)
    actual = rng.random((9, OBS_DIM))
    assert transition_loss(actual.copy(), actual) == 0.0


def test_transition_loss_contract():
    with pytest.raises(ValueError):
        transition_loss(np.zeros((2, OBS_DIM)), np.zeros((3, OBS_DIM)))
    with pytest.raises(ValueError):
        transition_loss(np.zeros((0, OBS_DIM)), np.zeros((0, OBS_DIM)))


def test_smooth_l1_shape_and_limits():
    xs = np.array([-1.0, -SMOOTH_L1_WIDTH, -1e-5, 0.0, 1e-5, SMOOTH_L1_WIDTH, 2.5])
    vals = smooth_l1(xs)
    grads = smooth_l1_grad(xs)
    assert np.allclose(vals[0], 1.0 - SMOOTH_L1_WIDTH / 2)
    assert vals[3] == 0.0
    assert np.allclose(vals[-1], 2.5 - SMOOTH_L1_WIDTH / 2)
    assert grads[0] == -1.0 and grads[-1] == 1.0
    assert abs(grads[2] - (-1e-5 / SMOOTH_L1_WIDTH)) < 1e-12
    # numeric derivative agreement away from the knots
    for x in (-0.4, -0.003, 0.002, 0.7):
        num = (smooth_l1(np.array([x + 1e-7])) - smooth_l1(np.array([x - 1e-7]))) / 2e-7
        assert abs(num[0] - smooth_l1_grad(np.array([x]))[0]) < 1e-6


def test_dynamics_gradient_matches_finite_differences():
    ok, detail = check_dynamics_gradient(np.random.default_rng(2))
    assert ok, detail


def test_zero_learning_rate_changes_nothing():
    model = DynamicsModel(DynamicsArch(hidden=(8,)))
    params = model.init_params(np.random.default_rng(3))
    obs, act, nxt = random_transitions(np.random.default_rng(4), 10)
    cfg = RunConfig(dynamics_learning_rate=0.0)
    new_params, stats = train_dynamics(model, params, obs, act, nxt, cfg)
    assert np.array_equal(new_params.theta, params.theta)
    assert not stats["aborted"]


def rollout_transitions(seed, n):
    policy = PolicyNetwork(PolicyArch(dir_embed_dim=3, trunk_hidden=(16,), head_hidden=(8,)))
    p_params = policy.init_params(np.random.default_rng(0))
    rng = np.random.default_rng(seed)
    level = generate_random_level(7, 7, 6, rng)
    trajs = collect_rollout(policy, p_params, [level], n, 25, rng)
    obs, act, nxt = stack_transitions(trajs)
    return obs[:n], act[:n], nxt[:n]


def test_overfits_a_small_transition_set():
    model = DynamicsModel(DynamicsArch(hidden=(64,)))
    params = model.init_params(np.random.default_rng(5))
    obs, act, nxt = rollout_transitions(6, 50)
    initial = transition_loss(model.predict(params.theta, obs, act), nxt)
    # Adam on an L1 objective hovers at roughly lr amplitude, so decay to land
    for lr, steps in ((5e-3, 600), (1e-3, 300), (2e-4, 100)):
        cfg = RunConfig(dynamics_learning_rate=lr)
        for _ in range(steps):
            params, stats = train_dynamics(model, params, obs, act, nxt, cfg)
    final = transition_loss(model.predict(params.theta, obs, act), nxt)
    assert final < 0.1 * initial
    assert stats["loss_l1"] >= final  # stats report the pre-step loss


def test_single_transition_memorized():
    model = DynamicsModel(DynamicsArch(hidden=(16,)))
    params = model.init_params(np.random.default_rng(7))
    obs, act, nxt = rollout_transitions(8, 1)
    for lr, steps in ((1e-2, 300), (1e-3, 150)):
        cfg = RunConfig(dynamics_learning_rate=lr)
        for _ in range(steps):
            params, _ = train_dynamics(model, params, obs, act, nxt, cfg)
    assert transition_loss(model.predict(params.theta, obs, act), nxt) < 0.05


def test_loss_trends_down_on_rollout_data():
    policy = PolicyNetwork(PolicyArch(dir_embed_dim=3, trunk_hidden=(16,), head_hidden=(8,)))
    p_params = policy.init_params(np.random.default_rng(9))
    rng = np.random.default_rng(10)
    level = generate_random_level(7, 7, 6, rng)
    trajs = collect_rollout(policy, p_params, [level] * 2, 48, 20, rng)
    obs, act, nxt = stack_transitions(trajs)
    model = DynamicsModel(DynamicsArch(hidden=(32,)))
    params = model.init_params(np.random.default_rng(11))
    losses = []
    for _ in range(60):
        params, stats = train_dynamics(model, params, obs, act, nxt, RunConfig())
        losses.append(stats["loss_l1"])
    first, last = np.mean(losses[:10]), np.mean(losses[-10:])
    assert last < first


def test_trajectory_transitions_alignment():
    policy = PolicyNetwork(PolicyArch(dir_embed_dim=3, trunk_hidden=(16,), head_hidden=(8,)))
    p_params = policy.init_params(np.random.default_rng(12))
    rng = np.random.default_rng(13)
    level = generate_random_level(7, 7, 4, rng)
    traj = collect_rollout(policy, p_params, [level], 12, 30, rng)[0]
    obs, act, nxt = trajectory_transitions(traj)
    assert obs.shape == nxt.shape == (traj.length, OBS_DIM)
    assert act.shape == (traj.length, NUM_ACTIONS)
    assert np.array_equal(obs, traj.observations[:-1])
    assert np.array_equal(nxt, traj.observations[1:])
    assert np.array_equal(act.argmax(axis=1), traj.actions)
    assert np.all(act.sum(axis=1) == 1.0)
