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
from time import perf_counter

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


def test_tracer_times_the_whole_preprocess(monkeypatch):
    # one dataset.preprocess span per call, from before the filter to after
    # the split, so dataset.preprocess_s times the whole preparation
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    from hcgr import dataset

    stamps = []
    filter_flat, make_dataset = dataset._filter_flat, dataset.Dataset

    def timed_filter(*args):
        stamps.append(("filter", perf_counter()))
        return filter_flat(*args)

    def timed_dataset(**fields):
        stamps.append(("split", perf_counter()))
        return make_dataset(**fields)

    monkeypatch.setattr(dataset, "_filter_flat", timed_filter)
    monkeypatch.setattr(dataset, "Dataset", timed_dataset)
    sessions = dataset.synth_hierarchical(30, 200, seed=3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for seed in (1, 2):
            dataset.preprocess(sessions, [f"i{v}" for v in range(30)], seed=seed)
    finally:
        tracer.uninstall()
    calls = [span for span in tracer.spans if span[0] == "dataset.preprocess"]
    assert len(calls) == 2 and len(tracer.spans) == 2
    assert [name for name, _ in stamps] == ["filter", "split"] * 2
    for (_, start, end, _, _), (_, filtered), (_, split) in zip(calls, stamps[::2], stamps[1::2]):
        assert start <= filtered <= split <= end
