"""The checked-in benchmark runs end to end against the current package.

The benchmark wraps package functions by attribute name and reads autodiff
internals, so a change to those names would break it without this test.
Desk is the acceptance corpus; long has the longest sessions, so its
batches carry the most padding; on wide (32k items) the run's gradient spot
check is the one check of the catalog head's table-sized gradients.
"""

import importlib
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


def test_tracer_times_the_whole_session_graph_build(monkeypatch):
    # HCGRModel.batch reaches build_graph and neighborhood through hcgr.model's
    # globals, so the tracer's patch sees each once per batch
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    from hcgr import model

    originals = (model.build_graph, model.neighborhood)
    net = model.HCGRModel.create(model.HyperParams(dim=4), 6, seed=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        net.batch([[0, 1, 2, 1], [3]])
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("session_graph.build_graph") == 1
    assert names.count("session_graph.neighborhood") == 1
    assert model.build_graph is originals[0] and model.neighborhood is originals[1]
