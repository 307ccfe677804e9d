import numpy as np
import pytest

from uedmaze.agent import Trajectory, compute_gae
from uedmaze.dynamics import DynamicsArch, DynamicsModel
from uedmaze.env import NUM_ACTIONS, OBS_DIM
from uedmaze.oracle import naive_pvl
from uedmaze.scoring import approx_regret, average_transition_prediction_loss_many, positive_value_loss_many


def make_traj(rewards, values, gamma=1.0, lam=1.0, observations=None):
    n = len(rewards)
    traj = Trajectory(
        observations=np.zeros((n + 1, OBS_DIM)) if observations is None else observations,
        actions=np.zeros(n, dtype=np.int64),
        log_probs=np.zeros(n),
        rewards=np.asarray(rewards, dtype=np.float64),
        values=np.asarray(values, dtype=np.float64),
        terminal=True,
    )
    return compute_gae(traj, gamma, lam)


def test_pvl_hand_case():
    traj = make_traj([1.0, -2.0, 0.5], [0.0] * 4)
    assert positive_value_loss_many([traj]) == pytest.approx(0.5 / 3, abs=1e-15)


def test_pvl_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        wave = []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(1, 50))
            wave.append(make_traj(rng.normal(size=n), rng.normal(size=n + 1), gamma=gamma, lam=lam))
        fast = positive_value_loss_many(wave)
        slow = sum(naive_pvl(t.td_errors, gamma, lam) * t.length for t in wave) / sum(t.length for t in wave)
        assert abs(fast - slow) < 1e-10


def test_pvl_requires_gae():
    traj = Trajectory(
        observations=np.zeros((3, OBS_DIM)),
        actions=np.zeros(2, dtype=np.int64),
        log_probs=np.zeros(2),
        rewards=np.zeros(2),
        values=np.zeros(3),
        terminal=True,
    )
    with pytest.raises(ValueError):
        positive_value_loss_many([traj])


def test_pvl_reads_the_cached_advantages():
    # summed last step first: 1e-16 + 1e-16 survives the addition of 1.0, a forward sum would drop it
    advantages = np.array([1.0, -1.0, 1e-16, 1e-16, -0.0])
    traj = Trajectory(
        observations=np.zeros((6, OBS_DIM)),
        actions=np.zeros(5, dtype=np.int64),
        log_probs=np.zeros(5),
        rewards=np.zeros(5),
        values=np.zeros(6),
        terminal=True,
        advantages=advantages,
    )
    assert traj.td_errors is None
    assert positive_value_loss_many([traj]) == (1e-16 + 1e-16 + 1.0) / 5
    assert (1e-16 + 1e-16 + 1.0) != (1.0 + 1e-16 + 1e-16)
    traj.advantages = None
    with pytest.raises(ValueError):
        positive_value_loss_many([traj])


def test_pvl_many_is_step_weighted():
    a = make_traj([1.0, -2.0, 0.5], [0.0] * 4)  # 3 steps, positive mass 0.5
    b = make_traj([2.0], [0.0, 0.0])  # 1 step, positive mass 2.0
    combined = positive_value_loss_many([a, b])
    assert combined == pytest.approx(2.5 / 4, abs=1e-15)


class PerfectModel:
    """Oracle stand-in whose predictions equal the actual next observations."""

    def __init__(self, traj):
        self._next = traj.observations[1:].copy()

    def predict(self, theta, obs, act):
        return self._next


def test_atpl_perfect_predictor_is_zero():
    n = 6
    obs = np.random.default_rng(2).random((n + 1, OBS_DIM))
    traj = make_traj(np.zeros(n), np.zeros(n + 1), observations=obs)
    assert average_transition_prediction_loss_many([traj], PerfectModel(traj), theta=None) == 0.0


def test_atpl_positive_for_imperfect_model():
    model = DynamicsModel(DynamicsArch(hidden=(8,)))
    theta = model.init_params(np.random.default_rng(1)).theta
    n = 6
    obs = np.random.default_rng(2).random((n + 1, OBS_DIM))
    traj = make_traj(np.zeros(n), np.zeros(n + 1), observations=obs)
    assert average_transition_prediction_loss_many([traj], model, theta) > 0.0


class ZeroModel:
    """Predicts an all-zero next observation, so a step's loss is the mean of the actual one."""

    def predict(self, theta, obs, act):
        return np.zeros_like(obs)


def test_atpl_many_is_step_weighted():
    a = make_traj(np.zeros(3), np.zeros(4))  # 3 steps, loss 0 each
    b = make_traj(np.zeros(1), np.zeros(2), observations=np.ones((2, OBS_DIM)))  # 1 step, loss 1
    assert average_transition_prediction_loss_many([a, b], ZeroModel(), theta=None) == 1.0 / 4


def test_combined_score_is_bit_exact_linear():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pvl = float(rng.random())
        atpl = float(rng.random())
        alpha = float(rng.random() * 3)
        score = approx_regret(pvl, atpl, alpha)
        assert score.combined == pvl + alpha * atpl


def test_alpha_zero_reproduces_pvl_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(200):
        pvl = float(rng.random())
        score = approx_regret(pvl, float(rng.random()), 0.0)
        assert score.combined == pvl


def test_approx_regret_rejects_negatives():
    with pytest.raises(ValueError):
        approx_regret(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        approx_regret(0.1, -1e-9, 1.0)
    with pytest.raises(ValueError):
        approx_regret(0.1, 0.1, -1.0)

