"""Smoke test: the demos run to completion.

Each demo runs in its own interpreter with the package's ``src`` directory on
``PYTHONPATH``; the test checks only that it exits 0. Demo 04 (model
comparison, ablation and sweep) is the slowest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_mentions_and_bags.py", "02_corpus_protocol.py", "03_train_and_classify.py",
         "04_experiments.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
