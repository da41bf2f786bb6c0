"""Span recording around the package's public functions, and the per-layer
metrics computed from the spans.

A traced run replaces each wrapped function with one that records a span
(name, start, end, parent index, tag) in memory; the benchmark's own phases
are spans too, so every span has a phase at the root of its parent chain.
A span's self time is its duration minus the durations of its direct
children, which cover disjoint parts of it because the run has one thread.
"""

from __future__ import annotations

import gzip
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

from hcgr import autodiff, dataset, manifold, metrics, model, training

# Phases whose spans feed the per-layer metrics; "bench.check" (the
# benchmark's own verification work) is left out.
TIMED_PHASES = ("bench.setup", "bench.train", "bench.eval", "bench.recommend", "bench.checkpoint")


class NullTracer:
    """Untraced runs: phase spans cost one no-op context manager each."""

    @contextmanager
    def span(self, name: str):
        yield

    def install(self):
        pass

    def uninstall(self):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float, tag):
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, tag)

    @contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, None)

    def wrap(self, owner, attr: str, name: str, tag_fn=None):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start, tag_fn() if tag_fn else None)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def install(self):
        """Wrap the layer boundaries. Callers must reach these functions
        through their module or class attribute, as the package itself does."""
        # autodiff has no public accessor for the no_grad state
        grad_tag = lambda: "grad" if autodiff._grad_enabled else "no_grad"
        self.wrap(dataset, "preprocess", "dataset.preprocess")
        self.wrap(model, "build_graph", "session_graph.build_graph")
        self.wrap(model, "neighborhood", "session_graph.neighborhood")
        self.wrap(model.HCGRModel, "caches", "model.caches")
        self.wrap(model.HCGRModel, "forward", "model.forward", grad_tag)
        self.wrap(model.HCGRModel, "score", "model.score")
        self.wrap(model, "save_checkpoint", "model.save_checkpoint")
        self.wrap(model, "load_checkpoint", "model.load_checkpoint")
        for attr in sorted(vars(manifold)):
            if attr.endswith("_rows") and callable(getattr(manifold, attr)):
                self.wrap(manifold, attr, f"manifold.{attr}")
        self.wrap(autodiff.Tensor, "backward", "autodiff.backward")
        for attr in ("train_epoch", "total_loss", "cross_entropy_loss", "contrastive_loss", "draw_negatives", "adam_step"):
            self.wrap(training, attr, f"training.{attr}")
        for attr in ("evaluate", "ranked_items", "target_rank"):
            self.wrap(metrics, attr, f"metrics.{attr}")

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path: str, header: dict):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "tag"], "spans": self.spans}, fh)


def per_layer(spans: list[tuple], train_pairs: int, nodes_per_pair: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one run, as name -> (value, unit).

    Per-pair figures divide a layer's total time in the named phases by the
    pairs (or forward calls) of those phases; per-call figures are medians.
    All times include the layer's child spans except manifold's, which is
    self time because the ``*_rows`` functions call one another.
    """
    n = len(spans)
    self_time = [end - start for _, start, end, _, _ in spans]
    phase = [""] * n
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            phase[i] = spans[i][0]
        else:
            self_time[parent] -= end - start
            phase[i] = phase[parent]

    def select(match, phases=TIMED_PHASES, tag=None):
        return [
            i for i, (name, _, _, _, t) in enumerate(spans)
            if match(name) and phase[i] in phases and (tag is None or t == tag)
        ]

    def named(*names):
        return lambda name: name in names

    def total(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def median_call(name, phases=TIMED_PHASES):
        return statistics.median(spans[i][2] - spans[i][1] for i in select(named(name), phases))

    train, serve = ("bench.train",), ("bench.eval", "bench.recommend")
    forwards = select(named("model.forward"))
    grad_fw = select(named("model.forward"), train, "grad")
    nograd_fw = select(named("model.forward"), serve, "no_grad")
    scores = select(named("model.score"), serve)
    manifold_self = sum(self_time[i] for i in select(lambda name: name.startswith("manifold."), train))
    # In the eval phase only metrics.evaluate ranks: one target_rank per pair.
    rank = select(named("metrics.ranked_items", "metrics.target_rank"), ("bench.eval",))
    eval_pairs = len(select(named("metrics.target_rank"), ("bench.eval",)))

    def train_ms(name):
        return 1e3 * total(select(named(name), train)) / train_pairs

    return {
        "dataset.preprocess_s": (median_call("dataset.preprocess"), "s"),
        "session_graph.build_us_per_session": (
            1e6 * total(select(named("session_graph.build_graph", "session_graph.neighborhood"))) / len(forwards),
            "us",
        ),
        "model.caches_ms": (1e3 * median_call("model.caches", train), "ms"),
        "model.forward_grad_ms_per_pair": (1e3 * total(grad_fw) / len(grad_fw), "ms"),
        "model.forward_nograd_ms_per_pair": (1e3 * total(nograd_fw) / len(nograd_fw), "ms"),
        "model.score_ms_per_pair": (1e3 * total(scores) / len(scores), "ms"),
        "model.save_checkpoint_s": (median_call("model.save_checkpoint"), "s"),
        "model.load_checkpoint_s": (median_call("model.load_checkpoint"), "s"),
        "manifold.self_ms_per_pair": (1e3 * manifold_self / train_pairs, "ms"),
        "autodiff.nodes_per_pair": (nodes_per_pair, "count"),
        "autodiff.backward_ms_per_pair": (train_ms("autodiff.backward"), "ms"),
        "training.cross_entropy_ms_per_pair": (train_ms("training.cross_entropy_loss"), "ms"),
        "training.contrastive_ms_per_pair": (train_ms("training.contrastive_loss"), "ms"),
        "training.draw_negatives_ms_per_pair": (train_ms("training.draw_negatives"), "ms"),
        "training.adam_step_ms": (1e3 * median_call("training.adam_step", train), "ms"),
        "metrics.rank_ms_per_pair": (1e3 * total(rank) / eval_pairs, "ms"),
    }
