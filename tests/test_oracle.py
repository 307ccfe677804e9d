import numpy as np
import pytest

import uedmaze.curriculum as curriculum
import uedmaze.oracle as oracle
from uedmaze.oracle import naive_transition_loss, verification_report


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
    assert len(a["checks"]) == 6


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


def test_verification_catches_a_sampler_that_starves_never_sampled_tasks(monkeypatch):
    def zero_for_never_sampled(state):
        raw = np.array([0.0 if r.last_sampled is None else float(state.t - r.last_sampled) for r in state.buffer])
        return raw / raw.sum() if raw.sum() > 0 else np.full(len(raw), 1.0 / len(raw))

    assert oracle._check_staleness_floor(np.random.default_rng(0))[0]
    monkeypatch.setattr(curriculum, "_staleness_weights", zero_for_never_sampled)
    assert not oracle._check_staleness_floor(np.random.default_rng(0))[0]
