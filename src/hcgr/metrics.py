"""Top-K ranking metrics and model evaluation.

Ranking is deterministic: items are ordered by descending score with ties
broken by ascending item id. The target is a single item, so NDCG reduces to
1/log2(rank+1) (the ideal DCG is 1) and MRR to the reciprocal rank, both
zeroed when the target falls outside the cutoff. Evaluation needs only that
rank, so it counts it from the score row instead of sorting the catalog. It
scores the pairs in chunks of sessions with similar node counts, so a chunk
is padded little, and sums the metrics in split order. A chunk's score rows
are its catalog probabilities, computed in place over its own logits, so
the chunk holds one catalog-sized array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

# Pairs per batched forward pass in evaluate.
EVAL_CHUNK = 32


@dataclass
class RankingMetrics:
    hr: dict[int, float]
    ndcg: dict[int, float]
    mrr: dict[int, float]
    n_evaluated: int


def ranked_items(scores: np.ndarray) -> np.ndarray:
    """Item ids ordered by descending score, ties by ascending id.

    The order is that of ``np.lexsort((ids, -scores))``. Where the sorted
    scores strictly decrease, an introsort of -scores yields that same
    order, about six times faster on a 32k catalog, so the lexsort runs only
    when two sorted neighbours are equal (or not comparable).
    """
    neg = -np.asarray(scores)
    order = np.argsort(neg)
    ordered = neg[order]
    if np.all(ordered[1:] > ordered[:-1]):
        return order
    return np.lexsort((np.arange(neg.shape[0]), neg))


def target_rank(ranked, target: int) -> int:
    """1-based rank of the target item, from a ranking or from a score row.

    A float array is a score row over the whole catalog, and the rank is
    counted, not sorted: 1 + #{i : y_i > y_t} + #{i < t : y_i = y_t}, the
    target's position in ``ranked_items(row)``, ties and signed zeros
    included. Any other array, such as an id ranking, is searched in one
    numpy call; a list takes list.index, because converting a short list to
    an array costs more than scanning it.
    """
    if isinstance(ranked, np.ndarray):
        if ranked.dtype.kind == "f":
            if not 0 <= target < ranked.shape[0]:
                raise ValueError(f"target {target} outside a score row of {ranked.shape[0]} items")
            y_t = ranked[target]
            return 1 + int(np.count_nonzero(ranked[:target] >= y_t)) + int(np.count_nonzero(ranked[target + 1 :] > y_t))
        hits = np.flatnonzero(ranked == target)
        if hits.size:
            return int(hits[0]) + 1
    elif target in ranked:
        return ranked.index(target) + 1
    raise ValueError(f"target {target} not present in ranking")


def _check_cutoff(ranked, k: int):
    if k < 1 or len(ranked) < k:
        raise ValueError(f"cutoff {k} invalid for ranking of {len(ranked)} items")


def hit_rate_at_k(ranked, target: int, k: int) -> int:
    _check_cutoff(ranked, k)
    for item in ranked[:k]:
        if item == target:
            return 1
    return 0


def mrr_at_k(ranked, target: int, k: int) -> float:
    _check_cutoff(ranked, k)
    rank = target_rank(ranked, target)
    return 1.0 / rank if rank <= k else 0.0


def ndcg_at_k(ranked, target: int, k: int) -> float:
    _check_cutoff(ranked, k)
    rank = target_rank(ranked, target)
    return 1.0 / math.log2(rank + 1.0) if rank <= k else 0.0


def evaluate(model, pairs, ks=(10, 20)) -> RankingMetrics:
    """Mean HitRate/NDCG/MRR at each cutoff over (prefix, target) pairs.

    The pairs are stable-sorted by ``len(set(prefix))``, taken before
    ``HCGRModel.batch`` cuts a prefix to max_session_len (the node count of
    a prefix within it), and scored in chunks of EVAL_CHUNK by batched
    forward passes with a shared read-only cache, so a chunk is padded
    little. Each chunk's logits are turned into its catalog probabilities
    in place by ``autodiff.softmax_in_place``, bytes equal to
    ``ForwardResult.yhat``'s, and each pair's rank is counted from its
    probability row by ``target_rank``; the catalog is never sorted.
    Overwriting the logits is safe: they belong to the chunk's own forward
    result, and under ``no_grad`` no backward closure keeps them. The
    metrics are summed over the ranks in split order, so the chunking
    cannot change their bytes. A cutoff below 1 raises ValueError. A cutoff
    of at least the catalog size is allowed: the rank never exceeds it, so
    HR there is 1.
    """
    if not pairs:
        raise ValueError("evaluate: empty split")
    ks = tuple(sorted(ks))
    if ks and ks[0] < 1:
        raise ValueError(f"evaluate: cutoff {ks[0]} below 1")
    order = sorted(range(len(pairs)), key=lambda i: len(set(pairs[i][0])))
    ranks = [0] * len(pairs)
    with ad.no_grad():
        caches = model.caches()
        for start in range(0, len(order), EVAL_CHUNK):
            chunk = order[start : start + EVAL_CHUNK]
            logits = model.forward(model.batch([pairs[i][0] for i in chunk]), caches=caches).logits.data
            for row, i in zip(ad.softmax_in_place(logits), chunk):
                ranks[i] = target_rank(row, pairs[i][1])

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
    for k in ks:
        hr[k] = float(hr[k] / n)
        ndcg[k] = float(ndcg[k] / n)
        mrr[k] = float(mrr[k] / n)
    return RankingMetrics(hr, ndcg, mrr, n)


# ---------------------------------------------------------------------------
# popularity and hierarchy analyses
# ---------------------------------------------------------------------------


def interaction_counts(pairs, catalog_size: int) -> np.ndarray:
    """How often each item occurs across the given pairs (prefixes + targets).

    An id outside [0, catalog_size) raises ValueError.
    """
    ids = np.fromiter(
        itertools.chain.from_iterable(itertools.chain(prefix, (target,)) for prefix, target in pairs), dtype=np.int64
    )
    if ids.size and (ids.min() < 0 or ids.max() >= catalog_size):
        raise ValueError(f"item ids must lie in [0, {catalog_size})")
    return np.bincount(ids, minlength=catalog_size)


def popularity_ranking(pairs, catalog_size: int) -> np.ndarray:
    """Items ranked by training frequency (descending, ties by ascending id)."""
    counts = interaction_counts(pairs, catalog_size)
    return np.lexsort((np.arange(catalog_size), -counts))


def hierarchy_report(model, train_pairs) -> list[dict]:
    """Distance-to-origin quartiles vs item popularity.

    Items are sorted by geodesic distance from the origin (ties by id) and
    split into 4 equal-population regions; region 1 is nearest the origin.
    Each row reports the region's mean distance and mean interaction count.
    """
    catalog = model.catalog_size
    counts = interaction_counts(train_pairs, catalog)
    dists = model.embedding_distances()
    order = np.lexsort((np.arange(catalog), dists))
    rows = []
    for region, ids in enumerate(np.array_split(order, 4), start=1):
        rows.append(
            {
                "region": region,
                "n_items": int(ids.size),
                "mean_distance": float(dists[ids].mean()),
                "mean_interactions": float(counts[ids].mean()),
            }
        )
    return rows
