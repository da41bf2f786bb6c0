import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from hcgr import metrics as mt


def brute_force_rank(scores, target):
    """Position of target when items are sorted by (-score, id), via full sort."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(target) + 1


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
    yhat: _Scores


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


class TestPopularityAndHierarchy:
    def test_interaction_counts(self):
        pairs = [([0, 1], 2), ([1, 1], 0)]
        counts = mt.interaction_counts(pairs, 4)
        assert counts.tolist() == [2, 3, 1, 0]

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
