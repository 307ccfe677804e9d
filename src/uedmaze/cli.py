"""Command line front end.

    uedmaze run --config desk11 --mode traced --seed 0 --out runs/demo
    uedmaze evaluate --checkpoint runs/demo/checkpoint_final.json --suite desk11
    uedmaze report runs/demo
    uedmaze verify

Exit codes: 0 success, 1 failed verification, 2 bad input (config, checkpoint or argument).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import MODES, load_config, load_preset, validate_config
from .errors import ConfigError
from .harness import emit_report, evaluation_report, load_checkpoint, load_suite, run_experiment
from .oracle import verification_report


def count(text):
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _resolve_config(spec):
    """A path to an .ini file, or the name of a bundled preset."""
    if Path(spec).is_file():
        return load_config(spec)
    return load_preset(spec)


def _cmd_run(args):
    cfg = _resolve_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.updates is not None:
        overrides["total_updates"] = args.updates
    if overrides:
        cfg = validate_config(dataclasses.replace(cfg, **overrides))
    out = args.out or f"runs/{cfg.mode}-seed{cfg.seed}"
    summary = run_experiment(cfg, out)
    print(json.dumps(summary, indent=2))
    print(f"run complete: {out}", file=sys.stderr)
    return 0


def _cmd_evaluate(args):
    try:
        cfg, student, _, update = load_checkpoint(args.checkpoint)
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {args.checkpoint}: {exc!r}") from exc
    suite = load_suite(args.suite or cfg.eval_suite)
    episodes = args.episodes or cfg.eval_episodes
    _, text = evaluation_report(student, suite, episodes, cfg.max_episode_steps, args.seed, update, args.greedy)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def _cmd_report(args):
    result = emit_report(args.run_dir, window=args.window)
    print(f"wrote {result['report_dir']} (window={result['window']}, {len(result['complexity'])} windows, {len(result['evals'])} evals)")
    return 0


def _cmd_verify(args):
    report = verification_report(seed=args.seed)
    width = max(len(c["name"]) for c in report["checks"])
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']:<{width}}  {check['detail']}")
    failed = [c for c in report["checks"] if not c["passed"]]
    if failed:
        print(f"{len(failed)} of {len(report['checks'])} checks failed")
        return 1
    print(f"all {len(report['checks'])} checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="uedmaze", description="Regret-guided maze curricula for RL students.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train a student under a curriculum")
    p_run.add_argument("--config", default="desk11", help="path to an .ini file or a bundled preset name")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--mode", choices=MODES, default=None, help="override the teacher mode")
    p_run.add_argument("--updates", type=int, default=None, help="override total design-loop updates")
    p_run.add_argument("--out", default=None, help="output directory (default runs/<mode>-seed<seed>)")
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a held-out suite")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--suite", default=None, help="suite name or directory (default: from checkpoint config)")
    p_eval.add_argument("--episodes", type=count, default=None, help="episodes per level (default: from checkpoint config)")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--greedy", action="store_true", help="take argmax actions instead of sampling")
    p_eval.add_argument("--out", default=None, help="also write the JSON report to this path")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_report = sub.add_parser("report", help="digest a run directory into CSV/SVG series")
    p_report.add_argument("run_dir")
    p_report.add_argument("--window", type=count, default=None, help="updates per aggregation window")
    p_report.set_defaults(func=_cmd_report)

    p_verify = sub.add_parser("verify", help="run the built-in numerical cross-checks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
