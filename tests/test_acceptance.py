"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale training
fixtures are shared across criteria 6, 7 and 9, so the suite trains the
model twice in total (once per aggregator arm).
"""

import itertools
import math
import time

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import cli
from hcgr import manifold as mf
from hcgr import metrics as mt
from hcgr.checks import gradient_check_toy, manifold_check
from hcgr.dataset import preprocess, synth_hierarchical
from hcgr.model import HCGRModel, HyperParams, load_checkpoint, save_checkpoint
from hcgr.training import TrainConfig, fit

import oracle

# Desk-scale training setup shared by criteria 6, 7 and 9. The corpus
# (100 items, 2000 sessions, seed 7) and dim=16 are fixed by criterion 6;
# the optimizer settings are tuned for a few-minute run.
DESK_SEED = 7
DESK_HYPER = dict(dim=16, graph_layers=1, attention_blocks=1)
DESK_TRAIN = dict(
    learning_rate=0.005,
    batch_size=32,
    epochs=20,
    lr_decay_every=5,
    contrastive_weight=0.5,
    negatives=2,
    margin=1.0,
    l2=0.0,
    seed=DESK_SEED,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def desk_dataset():
    sessions = synth_hierarchical(100, 2000, seed=DESK_SEED)
    return preprocess(sessions, [f"i{v}" for v in range(100)], seed=DESK_SEED)


def _train(dataset, aggregator):
    hyper = HyperParams(aggregator=aggregator, **DESK_HYPER)
    model = HCGRModel.create(hyper, dataset.n_items, seed=DESK_SEED)
    cfg = TrainConfig(**DESK_TRAIN)
    state = fit(model, cfg, dataset.train, dataset.valid)
    return model, state


@pytest.fixture(scope="module")
def trained_multi_hop(desk_dataset):
    start = time.time()
    model, state = _train(desk_dataset, "multi_hop")
    return model, state, time.time() - start


def test_criterion_1_manifold_suite():
    start = time.time()
    results = manifold_check(dims=(2, 8, 64), ks=(0.5, 1.0, 2.0), n=1000, seed=0)
    elapsed = time.time() - start
    failed = [(r.name, r.worst) for r in results if not r.passed]
    report(
        1,
        "manifold property suite",
        not failed and elapsed < 10.0,
        f"(checks={len(results)}, failures={failed}, {elapsed:.1f}s)",
    )


def test_criterion_2_analytic_geodesic():
    o = ad.constant(oracle.origin(2, 1.0)[None])
    errs = []
    for t in (0.1, 1.0, 3.0):
        p = ad.constant([[math.cosh(t), math.sinh(t), 0.0]])
        errs.append(abs(float(mf.dist_rows(o, p, 1.0).data[0, 0]) - t))
    report(2, "unit-speed geodesic distances", max(errs) < 1e-10, f"(max err {max(errs):.2e})")


def test_criterion_3_gradient_correctness():
    start = time.time()
    worst = {}
    for beta in (0.0, 0.1):
        rep = gradient_check_toy(contrastive_weight=beta)
        worst[beta] = (rep.max_rel_error, rep.worst_param)
    elapsed = time.time() - start
    ok = all(err < 1e-3 for err, _ in worst.values()) and elapsed < 60.0
    report(3, "finite-difference gradient sweep", ok, f"(worst={worst}, {elapsed:.1f}s)")


def test_criterion_4_forward_oracle():
    rng = np.random.default_rng(100)
    hyper = HyperParams(dim=6, graph_layers=2, attention_blocks=2, max_session_len=50)
    model = HCGRModel.create(hyper, 15, seed=101)
    for l, t in enumerate(model.params.graph_kappa):
        t.data[...] = 0.4 * l - 0.2
    model.params.blocks[1].kappa.data[...] = 0.9
    model.params.logit_scale.data[...] = 2.0
    model.params.attn_b.data[...] = -0.01  # pair scores on both sides of the kink
    worst = 0.0
    for _ in range(50):
        items = rng.integers(0, 15, size=rng.integers(1, 25)).tolist()
        got = model.forward(items).yhat.data
        want = oracle.forward(model, items)
        worst = max(worst, float(np.abs(got - want).max()))
    report(4, "forward pass vs straight-line composition", worst < 1e-9, f"(max |dp|={worst:.2e})")


def test_criterion_5_metric_oracle():
    start = time.time()
    log2 = [0.0] + [1.0 / math.log2(r + 1.0) for r in range(1, 9)]
    mismatches = 0
    for perm in itertools.permutations(range(8)):
        scores = np.array(perm, dtype=float)
        ranked = mt.ranked_items(scores).tolist()
        # brute force: explicit sort of (score, id) pairs
        brute = sorted(range(8), key=lambda i: (-scores[i], i))
        if ranked != brute:
            mismatches += 1
            continue
        pos = {item: idx + 1 for idx, item in enumerate(brute)}
        for target in range(8):
            rank = pos[target]
            for k in (1, 5, 8):
                hr = mt.hit_rate_at_k(ranked, target, k)
                mrr = mt.mrr_at_k(ranked, target, k)
                ndcg = mt.ndcg_at_k(ranked, target, k)
                if hr != int(rank <= k):
                    mismatches += 1
                if mrr != (1.0 / rank if rank <= k else 0.0):
                    mismatches += 1
                if ndcg != (log2[rank] if rank <= k else 0.0):
                    mismatches += 1
    elapsed = time.time() - start
    report(
        5,
        "ranking metrics vs brute force over all 8! orderings",
        mismatches == 0 and elapsed < 5.0,
        f"(mismatches={mismatches}, {elapsed:.1f}s)",
    )


def test_criterion_6_desk_scale_learning(desk_dataset, trained_multi_hop):
    model, state, elapsed = trained_multi_hop

    losses = [h["loss"] for h in state.history[:5]]
    mono = all(a > b for a, b in zip(losses, losses[1:]))

    pop_ranked = mt.popularity_ranking(desk_dataset.train, desk_dataset.n_items)
    top10 = set(pop_ranked[:10].tolist())
    pop_hr = float(np.mean([t in top10 for _, t in desk_dataset.test]))
    test = mt.evaluate(model, desk_dataset.test, ks=(10, 20))

    rows = mt.hierarchy_report(model, desk_dataset.train)
    region_means = [r["mean_interactions"] for r in rows]

    ok_a = mono
    ok_b = test.hr[10] >= pop_hr + 0.05
    ok_c = region_means[0] >= region_means[3]
    ok_time = elapsed < 600.0
    report(
        6,
        "desk-scale learning",
        ok_a and ok_b and ok_c and ok_time,
        f"(losses={['%.3f' % l for l in losses]}, hr10={test.hr[10]:.3f} vs pop {pop_hr:.3f}, "
        f"regions={['%.1f' % m for m in region_means]}, {elapsed:.0f}s)",
    )


def test_criterion_7_ablation_direction(desk_dataset, trained_multi_hop):
    model, _, _ = trained_multi_hop
    multi = mt.evaluate(model, desk_dataset.test, ks=(10,)).mrr[10]
    gcn_model, _ = _train(desk_dataset, "gcn_mean")
    gcn = mt.evaluate(gcn_model, desk_dataset.test, ks=(10,)).mrr[10]
    report(
        7,
        "multi-hop attention vs uniform aggregation",
        multi >= gcn,
        f"(MRR@10 multi_hop={multi:.4f} gcn_mean={gcn:.4f})",
    )


def test_criterion_8_cli_determinism(tmp_path):
    def pipeline(tag: str) -> bytes:
        root = tmp_path / tag
        root.mkdir()
        log = str(root / "synth.txt")
        prep = str(root / "prepared.json")
        ckpt = str(root / "model.json")
        out = str(root / "metrics.csv")
        assert cli.main(["synth", "--items", "40", "--sessions", "240", "--seed", "11", "--output", log]) == 0
        assert cli.main(["prepare", "--input", log, "--output", prep, "--seed", "11"]) == 0
        assert (
            cli.main(
                [
                    "train", "--data", prep, "--checkpoint-out", ckpt,
                    "--dim", "8", "--epochs", "2", "--batch-size", "16",
                    "--learning-rate", "0.01", "--seed", "11",
                ]
            )
            == 0
        )
        assert cli.main(["eval", "--data", prep, "--checkpoint", ckpt, "--out", out]) == 0
        return open(out, "rb").read()

    a = pipeline("run_a")
    b = pipeline("run_b")
    report(8, "end-to-end CLI determinism", a == b, f"({len(a)} bytes each)")


def test_criterion_9_checkpoint_roundtrip(tmp_path, desk_dataset, trained_multi_hop):
    model, _, _ = trained_multi_hop
    before = mt.evaluate(model, desk_dataset.test, ks=(10, 20))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, model, rng_seed=DESK_SEED)
    loaded, _ = load_checkpoint(path)
    after = mt.evaluate(loaded, desk_dataset.test, ks=(10, 20))
    ok = before == after
    report(9, "checkpoint save/load/evaluate bit-exact", ok, f"(hr={before.hr} vs {after.hr})")
