"""The statistics tools/bench_pairs.py reports, on hand-made pairs of runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = {
    "run_s": {"name": "run_s", "better": "lower", "bound": 0.25},
    "env_steps_per_s": {"name": "env_steps_per_s", "better": "higher", "bound": 0.25},
    "env.step_s": {"name": "env.step_s", "better": "lower"},
}


def pairs_of(metric, parent, change):
    return [({"metrics": {metric: {"value": p}}}, {"metrics": {metric: {"value": c}}}) for p, c in zip(parent, change)]


@pytest.mark.parametrize(
    "metric, parent, change, verdict",
    [
        # medians 1.0 and 1.1: 10% slower, within the 25% bound, tight runs
        pytest.param("run_s", [1.0, 0.98, 1.02, 0.99, 1.01], [1.1, 1.08, 1.12, 1.09, 1.11], "ok", id="within-bound"),
        pytest.param("run_s", [1.0, 0.98, 1.02, 0.99, 1.01], [1.4, 1.38, 1.42, 1.39, 1.41], "worse", id="40pc-slower"),
        # the medians agree, but the parent's quartiles sit 80% of its median apart
        pytest.param("run_s", [1.0, 0.5, 1.5, 0.6, 1.4], [1.0, 0.98, 1.02, 0.99, 1.01], "unresolved", id="wide-spread"),
        pytest.param("run_s", [1.0, 0.5, 1.5, 0.6, 1.4], [0.4, 0.38, 0.42, 0.39, 0.41], "ok", id="wide-but-every-run-better"),
        # higher is better: 40% fewer steps per second is worse, 40% more is fine
        pytest.param("env_steps_per_s", [100.0, 99.0, 101.0, 100.0, 100.0], [60.0, 59.0, 61.0, 60.0, 60.0], "worse",
                     id="higher-better-40pc-fewer"),
        pytest.param("env_steps_per_s", [100.0, 99.0, 101.0, 100.0, 100.0], [140.0, 139.0, 141.0, 140.0, 140.0], "ok",
                     id="higher-better-40pc-more"),
    ],
)
def test_no_regression_verdict(metric, parent, change, verdict):
    entry = bench_pairs.summarize(pairs_of(metric, parent, change), SPECS)[metric]
    assert entry["verdict"] == verdict
    assert entry["bound"] == 0.25


def test_gain_needs_nine_tenths_of_pairs_and_a_median_gap_beyond_the_parent_iqr():
    parent = [1.0 + 0.01 * k for k in range(10)]
    faster = [0.5 + 0.01 * k for k in range(10)]
    entry = bench_pairs.summarize(pairs_of("run_s", parent, faster), SPECS)["run_s"]
    assert entry["change_wins"] == 10 and entry["gain_holds"] is True
    two_losses = faster[:8] + [2.0, 2.0]
    entry = bench_pairs.summarize(pairs_of("run_s", parent, two_losses), SPECS)["run_s"]
    assert entry["change_wins"] == 8 and entry["gain_holds"] is False


def test_per_pair_ratios_stay_tight_when_both_sides_drift_together():
    # each side's runs spread 5x, but every change run is 10% faster than its own pair's parent run
    parent = [10.0, 20.0, 30.0, 40.0, 50.0]
    change = [11.0, 22.0, 33.0, 44.0, 55.0]
    entry = bench_pairs.summarize(pairs_of("env_steps_per_s", parent, change), SPECS)["env_steps_per_s"]
    assert entry["pair_ratio_median"] == pytest.approx(1.1)
    assert entry["pair_ratio_q1_q3"] == pytest.approx([1.1, 1.1])
    assert entry["parent_q1_q3"] == [20.0, 40.0] and entry["verdict"] == "unresolved"  # the side statistics, as before
    ratios = [0.9, 1.0, 1.2, 1.3]
    entry = bench_pairs.summarize(pairs_of("run_s", [0.0, 1.0, 1.0, 1.0, 1.0], [5.0] + ratios), SPECS)["run_s"]
    assert entry["pair_ratio_median"] == pytest.approx(1.1)  # the pair whose parent reads 0 is left out
    assert entry["pair_ratio_q1_q3"] == pytest.approx([0.975, 1.225])
    zero = bench_pairs.summarize(pairs_of("run_s", [0.0], [1.0]), SPECS)["run_s"]
    assert zero["pair_ratio_median"] is None and zero["pair_ratio_q1_q3"] is None


def test_metrics_without_a_bound_or_a_direction_get_no_verdict():
    summary = bench_pairs.summarize(
        pairs_of("env.step_s", [1.0, 1.0], [5.0, 5.0]) + pairs_of("unlisted", [1.0, 1.0], [2.0, 2.0]), SPECS
    )
    assert "verdict" not in summary["env.step_s"] and summary["env.step_s"]["better"] == "lower"
    assert "verdict" not in summary["unlisted"] and "better" not in summary["unlisted"]
    assert summary["unlisted"]["change_over_parent"] == 2.0


def test_summary_reports_each_checkouts_src_line_count(tmp_path, monkeypatch, capsys):
    for side, files in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}), ("change", {"a.py": "x = 1\n"})):
        package = tmp_path / side / "src" / "uedmaze"
        package.mkdir(parents=True)
        (package / "notes.txt").write_text("not counted\n")
        for name, text in files.items():
            (package / name).write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(SPECS.values())[:1]}))
    result = {"correct": True, "metrics": {"run_s": {"value": 1.0}}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: result)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", str(tmp_path / "parent"),
                                      "--change", str(tmp_path / "change"), "--workload", "w", "--seeds", "0", "1"])
    assert bench_pairs.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert "src/uedmaze/*.py lines: parent 3, change 1" in out
    assert json.loads(out[-1])["src_lines"] == {"parent": 3, "change": 1}
    assert "pair ratio [q1, q3]" in out[2] and "1 [1, 1]" in out[3]  # the run_s row


def test_several_workloads_run_in_turn_each_with_its_table_and_summary(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "uedmaze").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(SPECS.values())[:1]}))
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, seed))
        return {"correct": workload != "bad", "metrics": {"run_s": {"value": 2.0 if workload == "b" else 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "0", "1", "--out", str(tmp_path / "runs.jsonl"), "--workload"]
    monkeypatch.setattr(sys, "argv", argv + ["a", "b"])
    assert bench_pairs.main() == 0
    assert calls == [("parent", "a", 0), ("change", "a", 0), ("change", "a", 1), ("parent", "a", 1),
                     ("parent", "b", 0), ("change", "b", 0), ("change", "b", 1), ("parent", "b", 1)]
    out = capsys.readouterr().out.splitlines()
    summaries = [json.loads(line) for line in out if line.startswith("{")]
    assert [(s["workload"], s["metrics"]["run_s"]["parent_median"]) for s in summaries] == [("a", 1.0), ("b", 2.0)]
    first_table, first_summary = out.index("a: 2 pairs, seeds [0, 1]"), out.index(json.dumps(summaries[0]))
    assert first_table < first_summary < out.index("b: 2 pairs, seeds [0, 1]")
    logged = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert [line["workload"] for line in logged] == ["a"] * 4 + ["b"] * 4
    monkeypatch.setattr(sys, "argv", argv + ["bad", "a"])
    assert bench_pairs.main() == 1  # one failed workload fails the command, after the others ran
    assert calls[-1] == ("parent", "a", 1)
