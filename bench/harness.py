"""One benchmark run of one workload.

After set-up, a gradient spot check and the workload's fixed training
budget, the run repeats cycles until ``--seconds`` have passed (at least
MIN_CYCLES): each cycle makes one round of every phase, so that every metric
samples the whole run rather than one stretch of it. A round is

- set-up: corpus, ``dataset.preprocess`` and ``HCGRModel.create``;
- train: one ``train_epoch`` over one chunk of the fixed training subset,
  started from the state the budget left, which is restored after. A
  workload may make several train rounds per cycle, each over its own chunk
  and placed between the other phases;
- eval: ``metrics.evaluate`` over the fixed eval split;
- recommend: one ``caches()`` build, then every request of the round, one at
  a time: ``forward(prefix, caches=...)`` and the top ``TOP_K`` of
  ``metrics.ranked_items``;
- checkpoint: ``save_checkpoint`` then ``load_checkpoint``.

Every round of a phase does the same work on the same model, so its outputs
repeat exactly; the first cycle's outputs are verified against numpy (see
verify.py) and later cycles must reproduce them.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import math
import os
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import corpora
import verify
from hcgr import autodiff as ad
from hcgr import dataset, metrics, model, training

MIN_CYCLES = 3
TOP_K = 20
# Parameters whose largest gradient entry is checked by central differences.
GRAD_PARAMS = ("embeddings", "logit_scale", "attn_w", "block.0.w_query")
# Eval pairs whose yhat must survive the checkpoint round trip byte for byte.
CHECKPOINT_SESSIONS = 3

# The acceptance suite's desk training settings, shared by every workload
# apart from the learning rate.
TRAIN_SETTINGS = dict(batch_size=32, contrastive_weight=0.5, negatives=2, margin=1.0, l2=0.0)

OPS = ("train_batches", "eval_pairs", "recommend_requests", "checkpoint_round_trips")

# Timings are read at the run's slow rounds: this percentile (nearest rank)
# of a phase's per-round figures. The host runs in a fast and a slow state
# about 1.7 times apart, in a mix that varies from run to run, and the slow
# state appears in nearly every run. A mean or a median over rounds moves
# with the mix; this percentile stays in the slow state as long as a tenth
# of the rounds are slow (README.md, "Noise on this machine").
SLOW_Q = 90


@dataclass(frozen=True)
class Workload:
    seed: int  # corpus seed, split seed of preprocess and init seed of the model
    dim: int
    learning_rate: float
    train_pairs: int  # the fixed training subset: the first pairs of the train split
    round_pairs: int  # pairs per train_epoch call: the subset is trained in chunks this long
    budget_epochs: int  # passes over the subset before evaluation
    eval_pairs: int | None  # the eval split: the first pairs of the test split, None for all of it
    cycle_trains: int  # train rounds per cycle, over the first chunks of the subset


# Wide makes only the minimum of cycles, and its train rounds are its most
# memory-bound phase, so it trains twice per cycle: once after set-up and
# once before the checkpoint.
WORKLOADS = {
    "desk": Workload(7, 16, 0.005, 256, 64, 3, None, 1),
    "wide": Workload(11, 64, 0.005, 64, 32, 1, 128, 2),
    "long": Workload(13, 64, 0.02, 256, 64, 2, None, 1),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest rank leaves at least ten of
    ``n`` samples beyond it."""
    return max(q for q in range(50, 100) if n - -(-q * n // 100) >= 10)


def count_nodes(root) -> int:
    """Recorded autodiff operations reachable from ``root``."""
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


class Bench:
    def __init__(self, name: str, seed: int, tracer, out_dir: str):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.span = tracer.span
        self.out_dir = out_dir
        self.ops = {k: [0, 0] for k in OPS}
        self.train_pairs = 0
        self.round_pairs = []  # pairs of each timed train round, beside samples["train"]
        self.samples = {k: [] for k in ("setup", "caches", "train", "eval", "latency", "checkpoint")}

        ds, self.net = self.setup_round()
        self.cfg = training.TrainConfig(**TRAIN_SETTINGS, learning_rate=self.w.learning_rate, seed=seed)
        subset = ds.train[: self.w.train_pairs]
        self.chunks = [subset[i : i + self.w.round_pairs] for i in range(0, len(subset), self.w.round_pairs)]
        self.eval_split = ds.test[: self.w.eval_pairs]
        self.ks = (10, 20, self.net.catalog_size)
        order = np.random.default_rng(seed).permutation(len(self.eval_split))
        self.requests = [self.eval_split[i][0] for i in order]
        self.tail_q = tail_percentile(len(self.requests))
        self.state = training.TrainState(model=self.net, config=self.cfg)

    # -- rounds ---------------------------------------------------------------
    def setup_round(self):
        gc.collect()
        with self.span("bench.setup"):
            start = perf_counter()
            sessions = getattr(corpora, self.name)(self.w.seed)
            tokens = [f"i{v}" for v in range(1 + max(max(s) for s in sessions))]
            ds = dataset.preprocess(sessions, tokens, seed=self.w.seed)
            net = model.HCGRModel.create(model.HyperParams(dim=self.w.dim), ds.n_items, seed=self.w.seed)
            self.samples["setup"].append(perf_counter() - start)
        return ds, net

    def train_round(self, chunk) -> float | None:
        """One train_epoch call over one chunk of the subset, at the base
        learning rate: the budget ends before the desk schedule (fit halving
        the rate every 5 epochs) would first lower it."""
        batches = math.ceil(len(chunk) / self.cfg.batch_size)
        self.ops["train_batches"][0] += batches
        gc.collect()
        with self.span("bench.train"):
            start = perf_counter()
            try:
                loss = training.train_epoch(self.state, chunk, self.cfg.learning_rate)
            except training.TrainingNumericError:
                self.ops["train_batches"][1] += batches
                return None
            self.samples["train"].append(perf_counter() - start)
            self.train_pairs += len(chunk)
            self.round_pairs.append(len(chunk))
        return loss

    def eval_round(self):
        n = len(self.eval_split)
        self.ops["eval_pairs"][0] += n
        gc.collect()
        with self.span("bench.eval"):
            start = perf_counter()
            try:
                result = metrics.evaluate(self.net, self.eval_split, ks=self.ks)
            except ad.NumericError:
                self.ops["eval_pairs"][1] += n
                return None
            self.samples["eval"].append(perf_counter() - start)
        return result

    def recommend_round(self) -> list:
        """One caches() build (a set-up cost), then the requests one by one,
        each sent after the previous one completed; returns (top, readout)
        per request, None where it failed."""
        out, latency = [], []
        self.samples["latency"].append(latency)
        gc.collect()
        with self.span("bench.recommend"), ad.no_grad():
            start = perf_counter()
            caches = self.net.caches()
            self.samples["caches"].append(perf_counter() - start)
            for prefix in self.requests:
                self.ops["recommend_requests"][0] += 1
                start = perf_counter()
                try:
                    res = self.net.forward(prefix, caches=caches)
                    top = metrics.ranked_items(res.yhat.data)[:TOP_K]
                except ad.NumericError:
                    self.ops["recommend_requests"][1] += 1
                    out.append(None)
                    continue
                latency.append(perf_counter() - start)
                out.append((top, res.readout.data))
        return out

    def checkpoint_round(self):
        path = os.path.join(self.out_dir, f"checkpoint-{os.getpid()}.json")
        self.ops["checkpoint_round_trips"][0] += 1
        gc.collect()
        with self.span("bench.checkpoint"):
            start = perf_counter()
            try:
                model.save_checkpoint(path, self.net, self.seed)
                loaded = model.load_checkpoint(path)
                self.samples["checkpoint"].append(perf_counter() - start)
            except (ad.NumericError, model.CheckpointError):
                self.ops["checkpoint_round_trips"][1] += 1
                loaded = None
            finally:
                if os.path.exists(path):
                    os.remove(path)
        return loaded

    # -- training state --------------------------------------------------------
    def snapshot(self):
        s = self.state
        moments = {k: (m.copy(), v.copy()) for k, (m, v) in s.moments.items()}
        return self.net.params.state_arrays(), moments, s.step, s.epoch

    def restore(self, snap):
        arrays, moments, step, epoch = snap
        self.net.params.load_arrays(arrays)
        for k, (m, v) in moments.items():
            self.state.moments[k][0][...] = m
            self.state.moments[k][1][...] = v
        self.state.step, self.state.epoch = step, epoch

    # -- checks ------------------------------------------------------------------
    def gradient_spot_check(self):
        """Backward on the first batch against central differences, with the
        step and tolerance of training.gradient_check; also counts the
        batch's autodiff nodes."""
        defaults = inspect.signature(training.gradient_check).parameters
        h, tol = defaults["h"].default, defaults["tol"].default
        net, cfg = self.net, self.cfg
        batch = self.chunks[0][: cfg.batch_size]
        rng = np.random.default_rng(self.seed)
        negatives = [training.draw_negatives(rng, s, t, net.catalog_size, cfg.negatives) for s, t in batch]
        params = dict(net.params.named_parameters())
        with self.span("bench.check"):
            net.params.zero_grads()
            loss = training.total_loss(net, batch, negatives, cfg)
            nodes_per_pair = count_nodes(loss) / len(batch)
            loss.backward()
            del loss
            entries = []
            for name in GRAD_PARAMS:
                t = params[name]
                index = np.unravel_index(int(np.argmax(np.abs(t.grad))), t.data.shape)
                orig = float(t.data[index])
                sides = []
                for x in (orig + h, orig - h):
                    t.data[index] = x
                    with ad.no_grad():
                        sides.append(float(training.total_loss(net, batch, negatives, cfg).data))
                t.data[index] = orig
                entries.append((name, tuple(int(i) for i in index), float(t.grad[index]), (sides[0] - sides[1]) / (2.0 * h)))
            net.params.zero_grads()
            verify.check_gradient(entries, tol)
        return entries, tol, nodes_per_pair

    def check_eval(self, result):
        """Numpy ranks and softmax for every eval pair."""
        net = self.net
        embeddings = net.params.embeddings.data
        logit_scale = float(net.params.logit_scale.data)
        ranks, sample = [], None
        with ad.no_grad():
            caches = net.caches()
            for prefix, target in self.eval_split:
                res = net.forward(prefix, caches=caches)
                yhat = res.yhat.data
                expect = verify.softmax_from_params(res.readout.data, embeddings, logit_scale)
                verify.check_yhat(yhat, expect)
                ranks.append(verify.numpy_rank(yhat, target))
                if sample is None:
                    sample = (yhat.copy(), expect)
        verify.check_eval(ranks, result, self.ks)
        return ranks, sample

    def check_recommend(self, served):
        embeddings = self.net.params.embeddings.data
        logit_scale = float(self.net.params.logit_scale.data)
        sample = None
        for top, readout in served:
            p = verify.softmax_from_params(readout, embeddings, logit_scale)
            verify.check_top(top, p)
            if sample is None:
                sample = (top, p)
        return sample

    def check_checkpoint(self, loaded):
        back, back_seed = loaded
        net = self.net
        with ad.no_grad():
            if back.hyper != net.hyper or back.catalog_size != net.catalog_size or back_seed != self.seed:
                raise verify.CheckFailed("checkpoint header did not round-trip")
            yhat = []
            for m in (net, back):
                caches = m.caches()
                yhat.append([m.forward(p, caches=caches).yhat.data.tobytes() for p, _ in self.eval_split[:CHECKPOINT_SESSIONS]])
            saved, restored = net.params.state_arrays(), back.params.state_arrays()
            verify.check_checkpoint(saved, restored, *yhat)
        return saved, restored, yhat[0]


def run(name: str, seed: int, seconds: float, tracer, out_dir: str) -> dict:
    b = Bench(name, seed, tracer, out_dir)
    grad_entries, tol, nodes_per_pair = b.gradient_spot_check()
    budget_losses = [b.train_round(chunk) for _ in range(b.w.budget_epochs) for chunk in b.chunks]
    budget_losses = [x for x in budget_losses if x is not None]
    verify.check_losses(budget_losses)
    snap = b.snapshot()

    def train_from_snapshot(i):
        loss = b.train_round(b.chunks[i])
        b.restore(snap)
        return loss

    # The first output of each phase is verified; later rounds must repeat it.
    ref, ref_losses = {}, {}
    cycles = 0
    start = perf_counter()
    while cycles < MIN_CYCLES or perf_counter() - start < seconds:
        cycles += 1
        b.setup_round()
        losses = [train_from_snapshot(0)]
        result = b.eval_round()
        served = b.recommend_round()
        losses += [train_from_snapshot(i) for i in range(1, b.w.cycle_trains)]
        loaded = b.checkpoint_round()
        with b.span("bench.check"):
            for i, loss in enumerate(losses):
                if loss is None:
                    continue
                if i not in ref_losses:
                    verify.check_losses([loss])
                    ref_losses[i] = loss
                elif loss != ref_losses[i]:
                    raise verify.CheckFailed(f"train rounds from one state gave losses {ref_losses[i]!r} and {loss!r}")
            if result is not None:
                if "eval" not in ref:
                    ref["ranks"], ref["yhat"] = b.check_eval(result)
                    ref["eval"] = result
                elif (result.hr, result.ndcg, result.mrr) != (ref["eval"].hr, ref["eval"].ndcg, ref["eval"].mrr):
                    raise verify.CheckFailed("two evaluation rounds of one model disagree")
            tops = [None if x is None else x[0].tolist() for x in served]
            if "tops" not in ref:
                ref["top"] = b.check_recommend([x for x in served if x is not None])
                ref["tops"] = tops
            elif any(a is not None and b_ is not None and a != b_ for a, b_ in zip(tops, ref["tops"])):
                raise verify.CheckFailed("two recommendation rounds of one model disagree")
            if loaded is not None:
                if "ckpt" not in ref:
                    ref["ckpt"] = b.check_checkpoint(loaded)
                else:
                    verify.check_checkpoint(ref["ckpt"][0], loaded[0].params.state_arrays(), [], [])
        del loaded

    with b.span("bench.check"):
        missing = {"eval", "top", "ckpt"} - {k for k, v in ref.items() if v is not None}
        if len(ref_losses) < b.w.cycle_trains:
            missing.add("loss")
        if missing:
            raise verify.CheckFailed(f"no round of {sorted(missing)} completed, so its outputs went unchecked")
        ckpt_saved, ckpt_loaded, ckpt_yhat = ref["ckpt"]
        verify.self_test(
            ranks=ref["ranks"], eval_result=ref["eval"], ks=b.ks, yhat=ref["yhat"][0], yhat_expect=ref["yhat"][1],
            top=ref["top"][0], top_p=ref["top"][1], losses=budget_losses, gradient=grad_entries, tol=tol,
            ckpt_saved=ckpt_saved, ckpt_loaded=ckpt_loaded, ckpt_yhat=ckpt_yhat,
        )

    result = ref["eval"]
    digest = {
        "losses": budget_losses + [ref_losses[i] for i in range(b.w.cycle_trains)],
        "gradient": grad_entries,
        "nodes_per_pair": nodes_per_pair,
        "ranks": ref["ranks"],
        "eval": {kind: {str(k): v for k, v in getattr(result, kind).items()} for kind in ("hr", "ndcg", "mrr")},
        "top": ref["tops"],
    }
    s = b.samples
    # Latency percentiles are taken within a round, where the host's state
    # holds. The p50 is read at the slow round like every other timing; the
    # tail, already an extreme of each round, at the median round, so that a
    # round with a one-off stall does not set it.
    rounds = [r for r in s["latency"] if r]
    return {
        "digest": hashlib.sha256(json.dumps(digest, sort_keys=True).encode()).hexdigest(),
        "ops": b.ops,
        "cycles": cycles,
        "tail_q": b.tail_q,
        "samples": s,
        "train_pairs": b.train_pairs,
        "nodes_per_pair": nodes_per_pair,
        "end_to_end": {
            "setup_s": (statistics.median(s["setup"]) + statistics.median(s["caches"]), "s"),
            "train_pairs_per_s": (1.0 / percentile([t / n for t, n in zip(s["train"], b.round_pairs)], SLOW_Q), "pairs/s"),
            "eval_pairs_per_s": (len(b.eval_split) / percentile(s["eval"], SLOW_Q), "pairs/s"),
            "recommend_p50_ms": (1e3 * percentile([percentile(r, 50) for r in rounds], SLOW_Q), "ms"),
            "recommend_tail_ms": (1e3 * statistics.median(percentile(r, b.tail_q) for r in rounds), "ms"),
            "checkpoint_s": (percentile(s["checkpoint"], SLOW_Q), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "test_mrr20": (result.mrr[20], "fraction"),
            "test_hr20": (result.hr[20], "fraction"),
        },
    }
