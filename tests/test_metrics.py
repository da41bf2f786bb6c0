import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import metrics as mt
from hcgr.dataset import preprocess, synth_hierarchical
from hcgr.model import HCGRModel, HyperParams
from hcgr.training import TrainConfig, fit


def brute_force_rank(scores, target):
    """Position of target when items are sorted by (-score, id), via full sort."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(target) + 1


def sorted_evaluate(model, pairs, ks):
    """Reference evaluate: rank each pair by sorting the whole catalog."""
    ks = tuple(sorted(ks))
    ranks = []
    with ad.no_grad():
        caches = model.caches()
        for start in range(0, len(pairs), mt.EVAL_CHUNK):
            chunk = pairs[start : start + mt.EVAL_CHUNK]
            yhat = model.forward(model.batch([prefix for prefix, _ in chunk]), caches=caches).yhat.data
            ranks.extend(mt.target_rank(mt.ranked_items(row), target) for row, (_, target) in zip(yhat, chunk))
    hr = {k: 0.0 for k in ks}
    ndcg = {k: 0.0 for k in ks}
    mrr = {k: 0.0 for k in ks}
    for rank in ranks:
        for k in ks:
            if rank <= k:
                hr[k] += 1.0
                ndcg[k] += float(1.0 / np.log2(rank + 1.0))
                mrr[k] += 1.0 / rank
    n = len(pairs)
    return mt.RankingMetrics(
        {k: float(hr[k] / n) for k in ks}, {k: float(ndcg[k] / n) for k in ks}, {k: float(mrr[k] / n) for k in ks}, n
    )


def loop_interaction_counts(pairs, catalog_size):
    """Reference interaction counts: one increment per occurrence."""
    counts = np.zeros(catalog_size, dtype=np.int64)
    for prefix, target in pairs:
        for item in prefix:
            counts[item] += 1
        counts[target] += 1
    return counts


def desk_split():
    sessions = synth_hierarchical(100, 2000, seed=7)
    return preprocess(sessions, [f"i{v}" for v in range(100)], seed=7)


class TestRankedList:
    def test_tie_break_ascending_id(self):
        scores = np.array([1.0, 2.0, 2.0, 0.5])
        assert mt.ranked_items(scores).tolist() == [1, 2, 0, 3]

    def test_matches_lexsort_definition(self):
        rng = np.random.default_rng(3)
        tied = rng.normal(size=300)
        tied[rng.integers(300, size=40)] = tied[5]
        cases = [rng.normal(size=n) for n in (1, 2, 17, 500)] + [
            tied,
            rng.integers(0, 4, size=200).astype(float),
            np.array([0.0, -0.0, 1.0, -0.0]),
            rng.random(32119),
        ]
        for scores in cases:
            want = np.lexsort((np.arange(scores.shape[0]), -scores))
            got = mt.ranked_items(scores)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_target_rank(self):
        for ranked in (np.array([4, 2, 0, 1, 3]), [4, 2, 0, 1, 3]):
            assert mt.target_rank(ranked, 0) == 3
            with pytest.raises(ValueError):
                mt.target_rank(ranked, 9)


class TestCountedRank:
    """target_rank on a score row counts the rank; it must equal the sorted one."""

    @staticmethod
    def rows():
        rng = np.random.default_rng(11)
        tied = rng.normal(size=60)
        tied[[3, 20, 41, 59]] = tied[20]
        return [
            ("random", rng.normal(size=40)),
            ("random-small", rng.normal(size=3)),
            ("ties", tied),
            ("coarse-ties", rng.integers(0, 4, size=50).astype(float)),
            ("all-equal", np.full(25, 0.25)),
            ("signed-zeros", np.array([0.0, -0.0, 1.0, -0.0])),
        ]

    def test_equals_sorted_and_brute_force_rank(self):
        for name, row in self.rows():
            ranked = mt.ranked_items(row)
            for target in range(row.shape[0]):
                rank = mt.target_rank(row, target)
                assert rank == mt.target_rank(ranked, target) == brute_force_rank(row, target), (name, target)

    def test_target_tied_with_lower_and_higher_ids(self):
        row = np.array([0.5, 0.9, 0.5, 0.1, 0.5, 0.9])
        # 0.9 at ids 1 and 5 lead; the 0.5 tie at ids 0, 2, 4 follows in id order
        assert [mt.target_rank(row, t) for t in range(6)] == [3, 1, 4, 6, 5, 2]

    def test_wide_row(self):
        rng = np.random.default_rng(12)
        row = rng.random(32119)
        row[rng.integers(32119, size=500)] = row[7]
        ranked = mt.ranked_items(row)
        for target in [0, 7, 32118] + rng.integers(32119, size=40).tolist():
            rank = mt.target_rank(row, target)
            assert rank == mt.target_rank(ranked, target) == brute_force_rank(row, target)

    def test_pointwise_metrics_agree_at_every_cutoff(self):
        for name, row in self.rows():
            ranked = mt.ranked_items(row)
            n = row.shape[0]
            for target in range(n):
                rank = mt.target_rank(row, target)
                for k in range(1, n + 1):
                    assert mt.hit_rate_at_k(ranked, target, k) == int(rank <= k), (name, target, k)
                    assert mt.mrr_at_k(ranked, target, k) == (1.0 / rank if rank <= k else 0.0)
                    assert mt.ndcg_at_k(ranked, target, k) == (1.0 / math.log2(rank + 1.0) if rank <= k else 0.0)

    def test_target_outside_row_rejected(self):
        row = np.array([0.3, 0.1, 0.2])
        for target in (-1, 3):
            with pytest.raises(ValueError):
                mt.target_rank(row, target)


class TestPointwiseMetrics:
    def test_hit_rate_examples(self):
        ranked = list(range(12))
        assert mt.hit_rate_at_k(ranked, 0, 10) == 1
        assert mt.hit_rate_at_k(ranked, 10, 10) == 0

    def test_mrr_examples(self):
        ranked = list(range(12))
        assert mt.mrr_at_k(ranked, 3, 10) == 0.25
        assert mt.mrr_at_k(ranked, 10, 10) == 0.0

    def test_ndcg_examples(self):
        ranked = list(range(12))
        assert mt.ndcg_at_k(ranked, 0, 10) == 1.0
        assert mt.ndcg_at_k(ranked, 2, 10) == pytest.approx(0.5)
        assert mt.ndcg_at_k(ranked, 11, 10) == 0.0

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            mt.hit_rate_at_k([0, 1], 0, 3)

    def test_against_brute_force_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            scores = rng.choice(8, size=8, replace=False).astype(float)
            target = int(rng.integers(8))
            ranked = mt.ranked_items(scores)
            rank = brute_force_rank(scores, target)
            for k in (1, 5, 8):
                assert mt.hit_rate_at_k(ranked, target, k) == int(rank <= k)
                assert mt.mrr_at_k(ranked, target, k) == (1.0 / rank if rank <= k else 0.0)
                want = 1.0 / np.log2(rank + 1) if rank <= k else 0.0
                assert mt.ndcg_at_k(ranked, target, k) == pytest.approx(want, abs=1e-15)

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            scores = rng.normal(size=30)
            target = int(rng.integers(30))
            ranked = mt.ranked_items(scores)
            assert mt.hit_rate_at_k(ranked, target, 20) >= mt.hit_rate_at_k(ranked, target, 10)
            assert mt.ndcg_at_k(ranked, target, 20) >= mt.ndcg_at_k(ranked, target, 10)
            assert mt.mrr_at_k(ranked, target, 20) >= mt.mrr_at_k(ranked, target, 10)


@dataclass
class _Scores:
    data: np.ndarray


@dataclass
class _Result:
    logits: _Scores


class _StubModel:
    """Duck-typed stand-in scoring items by a fixed rule."""

    def __init__(self, score_fn, n_items):
        self.score_fn = score_fn
        self.n_items = n_items

    def caches(self):
        return None

    def batch(self, prefixes):
        return prefixes

    def forward(self, prefixes, caches=None):
        return _Result(_Scores(np.stack([self.score_fn(prefix) for prefix in prefixes])))


class TestEvaluate:
    def test_perfect_model(self):
        pairs = [([1, 2], t) for t in range(5)]

        def score(prefix, _targets=iter([])):
            return None

        # target is always ranked first: give it the highest score per call
        calls = {"i": 0}

        def score_fn(prefix):
            target = pairs[calls["i"]][1]
            calls["i"] += 1
            s = np.zeros(6)
            s[target] = 1.0
            return s

        result = mt.evaluate(_StubModel(score_fn, 6), pairs, ks=(1, 3))
        assert result.hr == {1: 1.0, 3: 1.0}
        assert result.ndcg == {1: 1.0, 3: 1.0}
        assert result.mrr == {1: 1.0, 3: 1.0}
        assert result.n_evaluated == 5

    def test_uniform_scores_break_ties_by_id(self):
        pairs = [([0], t) for t in range(10)]
        model = _StubModel(lambda prefix: np.zeros(10), 10)
        result = mt.evaluate(model, pairs, ks=(10,))
        assert result.hr[10] == 1.0
        assert result.mrr[10] == pytest.approx(np.mean([1.0 / (t + 1) for t in range(10)]))

    def test_single_pair_equals_pointwise_values(self):
        model = _StubModel(lambda prefix: np.array([0.1, 0.9, 0.3]), 3)
        result = mt.evaluate(model, [([0], 2)], ks=(1, 2))
        assert result.hr == {1: 0.0, 2: 1.0}
        assert result.mrr == {1: 0.0, 2: 0.5}
        assert result.n_evaluated == 1

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            mt.evaluate(_StubModel(lambda p: np.zeros(3), 3), [], ks=(1,))

    def test_cutoff_below_one_rejected(self):
        model = _StubModel(lambda prefix: np.zeros(4), 4)
        for ks in ((0,), (-1, 2), (0, 10)):
            with pytest.raises(ValueError):
                mt.evaluate(model, [([0], 1)], ks=ks)

    def test_cutoff_beyond_catalog_hits_every_target(self):
        model = _StubModel(lambda prefix: np.arange(4.0), 4)
        result = mt.evaluate(model, [([0], t) for t in range(4)], ks=(4, 5))
        assert result.hr == {4: 1.0, 5: 1.0}
        assert result.mrr[4] == result.mrr[5]

    def test_one_counted_rank_per_pair_and_no_sort(self, monkeypatch):
        calls = {"target_rank": 0, "ranked_items": 0}
        target_rank, ranked_items = mt.target_rank, mt.ranked_items

        def counting_target_rank(*args):
            calls["target_rank"] += 1
            return target_rank(*args)

        def counting_ranked_items(*args):
            calls["ranked_items"] += 1
            return ranked_items(*args)

        monkeypatch.setattr(mt, "target_rank", counting_target_rank)
        monkeypatch.setattr(mt, "ranked_items", counting_ranked_items)
        pairs = [([t % 3], t % 7) for t in range(mt.EVAL_CHUNK + 5)]
        mt.evaluate(_StubModel(lambda prefix: np.linspace(0.0, 1.0, 7), 7), pairs, ks=(1, 7))
        assert calls == {"target_rank": len(pairs), "ranked_items": 0}

    def test_trained_model_equals_sorted_reference(self):
        ds = desk_split()
        model = HCGRModel.create(HyperParams(dim=16, graph_layers=1, attention_blocks=1), ds.n_items, seed=7)
        fit(model, TrainConfig(learning_rate=0.005, batch_size=32, epochs=1, seed=7), ds.train, ds.valid)
        ks = (1, 5, 10, 20, ds.n_items)
        got = mt.evaluate(model, ds.test, ks=ks)
        want = sorted_evaluate(model, ds.test, ks)
        assert got.n_evaluated == want.n_evaluated == len(ds.test)
        for field in ("hr", "ndcg", "mrr"):
            got_values, want_values = getattr(got, field), getattr(want, field)
            assert list(got_values) == list(want_values)
            assert [v.hex() for v in got_values.values()] == [v.hex() for v in want_values.values()], field


def split_order_metrics(ranks, ks):
    """HR/NDCG/MRR summed over ranks in the order given, as evaluate sums."""
    hr, ndcg, mrr = ({k: 0.0 for k in ks} for _ in range(3))
    for rank in ranks:
        for k in ks:
            if rank <= k:
                hr[k] += 1.0
                ndcg[k] += float(1.0 / np.log2(rank + 1.0))
                mrr[k] += 1.0 / rank
    n = len(ranks)
    return tuple({k: float(m[k] / n) for k in ks} for m in (hr, ndcg, mrr))


def recorded_evaluate(monkeypatch, model, pairs, ks):
    """evaluate's metrics, the pair indices of each chunk the model's batch
    received, and the rank target_rank counted for each pair. Prefixes must
    be distinct list objects, so that a received prefix names its pair."""
    chunks, counted = [], []
    batch, target_rank = model.batch, mt.target_rank

    def recording_batch(prefixes):
        chunks.append(prefixes)
        return batch(prefixes)

    def recording_target_rank(row, target):
        counted.append(target_rank(row, target))
        return counted[-1]

    monkeypatch.setattr(model, "batch", recording_batch)
    monkeypatch.setattr(mt, "target_rank", recording_target_rank)
    result = mt.evaluate(model, pairs, ks=ks)
    index = {id(prefix): i for i, (prefix, _) in enumerate(pairs)}
    chunks = [[index[id(p)] for p in chunk] for chunk in chunks]
    ranks = [None] * len(pairs)
    for i, rank in zip((i for chunk in chunks for i in chunk), counted, strict=True):
        ranks[i] = rank
    return result, chunks, ranks


class TestSortedEvaluate:
    def test_chunks_sorted_by_node_count_each_pair_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        pairs = [(rng.integers(0, 12, size=rng.integers(1, 15)).tolist(), int(rng.integers(12))) for _ in range(150)]
        model = _StubModel(lambda prefix: np.linspace(0.0, 1.0, 12), 12)
        _, chunks, _ = recorded_evaluate(monkeypatch, model, pairs, (5,))
        assert all(1 <= len(chunk) <= mt.EVAL_CHUNK for chunk in chunks)
        scored = [i for chunk in chunks for i in chunk]
        assert sorted(scored) == list(range(len(pairs)))
        # node counts never decrease, and equal counts keep split order
        keys = [(len(set(pairs[i][0])), i) for i in scored]
        assert keys == sorted(keys)
        assert scored != sorted(scored)

    def test_metrics_summed_in_split_order(self):
        # the first item of a prefix sets the rank: items below it score 1,
        # the target 0, the rest 0 with larger ids; the other items set the
        # node count, which falls as the split goes on
        rng = np.random.default_rng(11)
        n_items, n = 200, 97
        wanted = rng.integers(1, 60, size=n).tolist()
        pairs = [([r - 1] + list(range(100, 100 + n - i)), r - 1) for i, r in enumerate(wanted)]

        def score(prefix):
            s = np.zeros(n_items)
            s[: prefix[0]] = 1.0
            return s

        ks = (10, 20, 60)
        got = mt.evaluate(_StubModel(score, n_items), pairs, ks=ks)

        def hexes(metrics):
            return [v.hex() for m in metrics for v in m.values()]

        want = split_order_metrics(wanted, ks)
        assert hexes((got.hr, got.ndcg, got.mrr)) == hexes(want)
        # the sums depend on the order: summed in scoring order, which is
        # the reverse, they differ
        assert hexes(split_order_metrics(wanted[::-1], ks)) != hexes(want)

    @pytest.mark.parametrize("aggregator", ["multi_hop", "gat_last_layer", "gcn_mean"])
    def test_ranks_equal_split_order_chunks_and_one_session_forwards(self, monkeypatch, aggregator):
        # long-like sessions: 1 to 60 clicks over a small catalog, so items
        # repeat, and past the cut at max_session_len
        n_items = 40
        rng = np.random.default_rng(3)
        pairs = [(rng.integers(0, n_items, size=rng.integers(1, 61)).tolist(), int(rng.integers(n_items))) for _ in range(90)]
        hyper = HyperParams(dim=8, graph_layers=2, attention_blocks=1, aggregator=aggregator)
        model = HCGRModel.create(hyper, n_items, seed=4)
        model.params.logit_scale.data[...] = 1.5
        ks = (1, 10, n_items)
        result, _, ranks = recorded_evaluate(monkeypatch, model, pairs, ks)
        split_ranks, one_ranks = [], []
        with ad.no_grad():
            caches = model.caches()
            for start in range(0, len(pairs), mt.EVAL_CHUNK):
                chunk = pairs[start : start + mt.EVAL_CHUNK]
                yhat = model.forward(model.batch([p for p, _ in chunk]), caches=caches).yhat.data
                split_ranks += [brute_force_rank(row.tolist(), t) for row, (_, t) in zip(yhat, chunk)]
            for prefix, target in pairs:
                one_ranks.append(brute_force_rank(model.forward(prefix, caches=caches).yhat.data.tolist(), target))
        assert ranks == split_ranks == one_ranks
        want = split_order_metrics(split_ranks, ks)
        assert (result.hr, result.ndcg, result.mrr) == want


class TestInPlaceEvaluate:
    """evaluate turns each chunk's own logits into its probabilities in
    place, so a chunk holds one catalog-sized array."""

    def test_chunk_holds_one_catalog_array(self):
        n_items = 20000
        model = HCGRModel.create(HyperParams(dim=8), n_items, seed=6)
        rng = np.random.default_rng(8)
        pairs = [(rng.integers(0, n_items, size=rng.integers(1, 9)).tolist(), int(rng.integers(n_items))) for _ in range(mt.EVAL_CHUNK)]
        mt.evaluate(model, pairs[:2])  # warm-up, outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mt.evaluate(model, pairs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * mt.EVAL_CHUNK * n_items * 8

    def test_held_forward_results_keep_their_bytes(self):
        n_items = 40
        model = HCGRModel.create(HyperParams(dim=8), n_items, seed=9)
        rng = np.random.default_rng(10)
        pairs = [(rng.integers(0, n_items, size=rng.integers(1, 12)).tolist(), int(rng.integers(n_items))) for _ in range(50)]
        held = [model.forward(pairs[0][0]), model.forward(model.batch([p for p, _ in pairs[:mt.EVAL_CHUNK]]))]
        with ad.no_grad():
            held.append(model.forward(model.batch([p for p, _ in pairs[-5:]]), caches=model.caches()))
        before = [(r.logits.data.tobytes(), r.yhat.data.tobytes()) for r in held]
        mt.evaluate(model, pairs)
        assert [(r.logits.data.tobytes(), r.yhat.data.tobytes()) for r in held] == before

    def test_ranks_come_from_probabilities(self):
        # exp rounds a shift of -2**-60 to exactly 1: item 0's logit is below
        # item 1's, but their probabilities tie, and the tie goes to id 0
        row = np.array([-(2.0**-60), 0.0, -3.0])
        yhat = ad.softmax_rows(ad.constant(row)).data
        assert mt.target_rank(row, 0) == 2 and mt.target_rank(yhat, 0) == 1
        result = mt.evaluate(_StubModel(lambda prefix: row.copy(), 3), [([1], 0)], ks=(1,))
        assert result.hr == {1: 1.0}

    def test_tied_logits_rank_as_one_session_probabilities(self, monkeypatch):
        # duplicated embedding rows tie exactly in every logit row, and a
        # tie is broken by item id
        n_items = 60
        model = HCGRModel.create(HyperParams(dim=8, graph_layers=2), n_items, seed=12)
        E = model.params.embeddings.data
        E[[7, 19, 33, 34]] = E[3]
        E[[50, 51]] = E[20]
        model.params.logit_scale.data[...] = 1.5
        rng = np.random.default_rng(13)
        tied = [3, 7, 19, 33, 34, 20, 50, 51]
        pairs = [(rng.integers(0, n_items, size=rng.integers(1, 30)).tolist(), int(rng.choice(tied))) for _ in range(70)]
        _, _, ranks = recorded_evaluate(monkeypatch, model, pairs, (1, 10, n_items))
        want, n_tied = [], 0
        for prefix, target in pairs:
            yhat = model.forward(prefix).yhat.data
            want.append(mt.target_rank(yhat, target))
            n_tied += int(np.count_nonzero(yhat == yhat[target]) > 1)
        assert ranks == want
        assert n_tied == len(pairs)


class TestPopularityAndHierarchy:
    def test_interaction_counts(self):
        pairs = [([0, 1], 2), ([1, 1], 0)]
        counts = mt.interaction_counts(pairs, 4)
        assert counts.tolist() == [2, 3, 1, 0]

    def test_interaction_counts_equal_loop_reference(self):
        ds = desk_split()
        for pairs in (ds.train, ds.test, [], [([], 3)]):
            got = mt.interaction_counts(pairs, ds.n_items)
            want = loop_interaction_counts(pairs, ds.n_items)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_interaction_counts_reject_ids_outside_catalog(self):
        for pairs in ([([0, -1], 2)], [([0, 1], 4)], [([4], 0)], [([0], -1)]):
            with pytest.raises(ValueError):
                mt.interaction_counts(pairs, 4)

    def test_popularity_ranking_tie_break(self):
        pairs = [([0], 1), ([1], 0)]
        # items 0 and 1 tie at 2; ties break by id, then untouched items
        assert mt.popularity_ranking(pairs, 4).tolist() == [0, 1, 2, 3]

    def test_hierarchy_report_shape_and_degenerate_quantiles(self):
        class _Model:
            catalog_size = 8

            def embedding_distances(self):
                return np.zeros(8)

        pairs = [([i], (i + 1) % 8) for i in range(8)]
        rows = mt.hierarchy_report(_Model(), pairs)
        assert len(rows) == 4
        assert [r["region"] for r in rows] == [1, 2, 3, 4]
        assert sum(r["n_items"] for r in rows) == 8
        # equal distances split by item id: regions are id blocks {0,1},{2,3},...
        counts = mt.interaction_counts(pairs, 8)
        for row, ids in zip(rows, [(0, 1), (2, 3), (4, 5), (6, 7)]):
            assert row["mean_interactions"] == pytest.approx(counts[list(ids)].mean())
