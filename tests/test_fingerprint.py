"""Behaviour fingerprint: short desk11 runs of every mode must reproduce pinned output bytes.

Each mode runs the desk11 preset for 12 updates at seed 0 in a child process
with OPENBLAS_NUM_THREADS=1, so the result does not depend on the thread count
of the process running the tests. The sha256 of each run's logs.csv and
eval_final.json must equal the hashes in fingerprints.json, which also records
the numpy and BLAS builds they were made with; on another build the test skips.

A change that moves these bits on purpose re-pins them and says why:

    PYTHONPATH=src python tests/test_fingerprint.py --write
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from uedmaze.config import MODES, load_preset
from uedmaze.harness import run_experiment

PINNED = Path(__file__).with_name("fingerprints.json")
SRC = Path(__file__).resolve().parents[1] / "src"
UPDATES = 12
SEED = 0
HASHED_FILES = ("logs.csv", "eval_final.json")


def build():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_all_modes():
    """{mode: {file: sha256}} for every mode; runs in the calling process."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in MODES:
            cfg = dataclasses.replace(load_preset("desk11"), mode=mode, seed=SEED, total_updates=UPDATES)
            out = Path(tmp) / mode
            run_experiment(cfg, out)
            hashes[mode] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in HASHED_FILES}
    return hashes


def run_all_modes_pinned():
    """run_all_modes in a child process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def test_logs_match_pinned_fingerprint():
    pinned = json.loads(PINNED.read_text())
    if pinned["build"] != build():
        pytest.skip(f"fingerprint pinned on {pinned['build']}, running on {build()}")
    assert run_all_modes_pinned() == pinned["hashes"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        PINNED.write_text(json.dumps({"build": build(), "hashes": run_all_modes_pinned()}, indent=2) + "\n")
    else:
        print(json.dumps(run_all_modes()))
