"""The checked-in benchmark runs end to end against the current package.

The benchmark wraps package functions by attribute name and reads autodiff
internals, so a change to those names would break it without this test.
Desk is the acceptance corpus; long has the longest sessions, so its
batches carry the most padding; on wide (32k items) the run's gradient spot
check is the one check of the catalog head's table-sized gradients.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["desk", "long", "wide"])
def test_traced_run_completes_with_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    names = {m["name"] for m in declared}
    assert len(names) == 16
    assert names <= set(result["metrics"])
