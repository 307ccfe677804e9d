import numpy as np
import pytest

import uedmaze.curriculum as curriculum
import uedmaze.oracle as oracle
from uedmaze.oracle import (
    TabularMDP,
    decomposition_check,
    naive_transition_loss,
    random_mdp,
    value_iteration,
    verification_report,
)


def two_state_chain():
    """Deterministic chain whose decomposition terms are computable by hand.

    True kernel: state 0 always moves to the absorbing state 1 (reward 1).
    Empirical kernel: claims a 1/9 chance of staying at 0. gamma = 0.9.
    """
    p = np.zeros((2, 1, 2))
    p[0, 0, 1] = 1.0
    p[1, 0, 1] = 1.0
    p_hat = p.copy()
    p_hat[0, 0] = [1 / 9, 8 / 9]
    r = np.array([[1.0], [0.0]])
    return TabularMDP(P=p, P_hat=p_hat, R=r, gamma=0.9).validate()


def test_value_iteration_hand_case():
    mdp = two_state_chain()
    q_star = value_iteration(mdp, "true")
    q_hat = value_iteration(mdp, "empirical")
    assert q_star[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert q_hat[0, 0] == pytest.approx(10 / 9, abs=1e-12)
    assert q_star[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_decomposition_hand_case():
    report = decomposition_check(two_state_chain(), 0, 0)
    assert report.lhs == pytest.approx(-1 / 9, abs=1e-12)
    assert report.value_error_term == pytest.approx(0.0, abs=1e-12)
    assert report.transition_error_term == pytest.approx(-1 / 9, abs=1e-12)
    assert report.residual < 1e-12


def test_decomposition_residual_on_random_mdps():
    rng = np.random.default_rng(0)
    for _ in range(100):
        mdp = random_mdp(rng)
        q_star = value_iteration(mdp, "true")
        q_hat = value_iteration(mdp, "empirical")
        n_states, n_actions = mdp.R.shape
        for s in range(n_states):
            for a in range(n_actions):
                report = decomposition_check(mdp, s, a, q_star, q_hat)
                assert report.residual < 1e-9


def test_identical_kernels_put_everything_in_the_value_term():
    base = random_mdp(np.random.default_rng(2))
    same = TabularMDP(P=base.P, P_hat=base.P.copy(), R=base.R, gamma=base.gamma).validate()
    report = decomposition_check(same, 0, 0)
    assert report.lhs == pytest.approx(0.0, abs=1e-10)
    assert report.transition_error_term == pytest.approx(0.0, abs=1e-10)


def test_naive_transition_loss_shapes():
    rng = np.random.default_rng(6)
    pred, actual = rng.random((4, 7)), rng.random((4, 7))
    by_hand = np.mean([np.abs(pred[i] - actual[i]).mean() for i in range(4)])
    assert naive_transition_loss(pred, actual) == pytest.approx(by_hand, abs=1e-15)


def test_verification_report_passes_and_is_deterministic():
    a = verification_report(seed=0)
    b = verification_report(seed=0)
    assert a["passed"] is True
    assert all(c["passed"] for c in a["checks"])
    assert [c["name"] for c in a["checks"]] == [c["name"] for c in b["checks"]]
    assert [c["detail"] for c in a["checks"]] == [c["detail"] for c in b["checks"]]
    assert len(a["checks"]) == 7


def test_verification_catches_an_injected_sign_flip(monkeypatch):
    healthy = oracle.naive_pvl

    def flipped(td_errors, gamma, lam):
        return -healthy(td_errors, gamma, lam)

    monkeypatch.setattr(oracle, "naive_pvl", flipped)
    report = verification_report(seed=0)
    assert report["passed"] is False
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "gae_pvl_vs_naive_oracle" in failing
    assert "transition_loss_vs_loop_oracle" not in failing


def test_verification_catches_a_write_back_read_at_the_wrong_update(monkeypatch):
    healthy = curriculum.update_colearnability

    def reads_post_scores(state, batch_posts):
        state.t += 1  # pre-replay difficulty then picks up the post-replay entry
        try:
            return healthy(state, batch_posts)
        finally:
            state.t -= 1

    assert oracle._check_colearnability(np.random.default_rng(0))[0]
    monkeypatch.setattr(oracle, "update_colearnability", reads_post_scores)
    assert not oracle._check_colearnability(np.random.default_rng(0))[0]


def test_verification_catches_a_sampler_that_starves_never_sampled_tasks(monkeypatch):
    def zero_for_never_sampled(state):
        raw = np.array([0.0 if r.last_sampled is None else float(state.t - r.last_sampled) for r in state.buffer])
        return raw / raw.sum() if raw.sum() > 0 else np.full(len(raw), 1.0 / len(raw))

    assert oracle._check_staleness_floor(np.random.default_rng(0))[0]
    monkeypatch.setattr(curriculum, "_staleness_weights", zero_for_never_sampled)
    assert not oracle._check_staleness_floor(np.random.default_rng(0))[0]
