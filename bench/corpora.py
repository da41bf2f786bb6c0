"""Session corpora of the benchmark workloads.

Each generator takes its workload's fixed seed, so every run of a workload
trains, evaluates and recommends over the same sessions and the same split;
the run's ``--seed`` varies the training order and the requests.
"""

from __future__ import annotations

import numpy as np

from hcgr import dataset

# wide: an id space large enough that about 32k items survive the frequency
# filter, from as many sessions as keep preprocess near one second.
WIDE_IDS = 50_000
WIDE_SESSIONS = 32_000
# Share of wide sessions whose last click re-clicks the previous item: the
# one regularity the model can rank high from the session graph alone.
WIDE_REPEAT_PROB = 0.5

# long: about 2k items after filtering, in clusters that hold each item's
# successors.
LONG_IDS = 2_500
LONG_SESSIONS = 3_000
LONG_CLUSTER = 100
# Chance that a click re-clicks an earlier item of its session, so sessions
# repeat items, and chance that it jumps to another cluster.
LONG_REPEAT_PROB = 0.2
LONG_JUMP_PROB = 0.05
# Successor choice probabilities of the long corpus, best successor first.
SUCCESSOR_WEIGHTS = (0.55, 0.25, 0.12, 0.08)


def desk(seed: int) -> list[list[int]]:
    """The acceptance corpus: 100 items and 2000 sessions."""
    return dataset.synth_hierarchical(100, 2000, seed=seed)


def wide(seed: int) -> list[list[int]]:
    """Short sessions of uniformly random clicks over a large id space.

    Lengths are uniform in [3, 8]. With probability ``WIDE_REPEAT_PROB`` the
    last click re-clicks the previous item: a re-consumption a model scores
    near the top from the session graph alone, so test quality stays above
    zero on a catalog too large to learn in a short run. Every other click is
    uniform over the ids, so about two thirds of them survive the frequency
    filter.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.integers(3, 9, WIDE_SESSIONS)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    clicks = rng.integers(0, WIDE_IDS, int(ends[-1]))
    repeat = rng.random(WIDE_SESSIONS) < WIDE_REPEAT_PROB
    clicks[ends[repeat] - 1] = clicks[ends[repeat] - 2]
    flat = clicks.tolist()
    return [flat[a:b] for a, b in zip(starts.tolist(), ends.tolist())]


def long(seed: int) -> list[list[int]]:
    """Long sessions that follow item-to-item transitions and repeat items.

    Ids fall into clusters of ``LONG_CLUSTER`` items with Zipf(1) popularity
    inside each. Every item has four distinct successors in its own cluster,
    drawn by that popularity. A session starts at a popular item of a random
    cluster and runs 20 to 50 clicks (uniform); each next click re-clicks an
    earlier item of the session with probability ``LONG_REPEAT_PROB``, jumps
    to a popular item of a random cluster with probability
    ``LONG_JUMP_PROB``, and otherwise moves to a successor of the current
    item by ``SUCCESSOR_WEIGHTS``. The last click is a successor of the one
    before it about three times in four, so transition counts carry signal.
    """
    rng = np.random.default_rng(seed)
    n_clusters = LONG_IDS // LONG_CLUSTER
    popularity = np.arange(1, LONG_CLUSTER + 1, dtype=np.float64) ** -1.0
    popularity /= popularity.sum()
    successors = np.empty((n_clusters * LONG_CLUSTER, len(SUCCESSOR_WEIGHTS)), dtype=np.int64)
    for v in range(successors.shape[0]):
        base = (v // LONG_CLUSTER) * LONG_CLUSTER
        while True:
            picks = base + rng.choice(LONG_CLUSTER, len(SUCCESSOR_WEIGHTS), replace=False, p=popularity)
            if v not in picks:
                break
        successors[v] = picks
    successors = successors.tolist()
    pop_cdf = np.cumsum(popularity)
    succ_cdf = np.cumsum(SUCCESSOR_WEIGHTS)

    def popular_item(u_cluster: float, u_item: float) -> int:
        return int(u_cluster * n_clusters) * LONG_CLUSTER + min(int(np.searchsorted(pop_cdf, u_item)), LONG_CLUSTER - 1)

    sessions = []
    for length in rng.integers(20, 51, LONG_SESSIONS).tolist():
        u = rng.random((length, 3)).tolist()
        cur = popular_item(u[0][0], u[0][1])
        session = [cur]
        for r, a, b in u[1:]:
            if r < LONG_REPEAT_PROB:
                cur = session[int(a * len(session))]
            elif r < LONG_REPEAT_PROB + LONG_JUMP_PROB:
                cur = popular_item(a, b)
            else:
                cur = successors[cur][min(int(np.searchsorted(succ_cdf, a)), len(SUCCESSOR_WEIGHTS) - 1)]
            session.append(cur)
        sessions.append(session)
    return sessions
