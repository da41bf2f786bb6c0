"""Session-log ingestion, preprocessing, splits, and a synthetic corpus.

Session-log format: UTF-8 text, one session per line,

    <session_id> TAB <item token> (SPACE <item token>)*

Item order is click order; lines starting with '#' are comments and blank
lines are skipped.

Preprocessing mirrors the usual session-recommendation protocol: drop items
with global frequency below a threshold, drop sessions left with fewer than
a minimum number of items, truncate to the most recent items, then split
80/10/10 by session with a seeded shuffle. The filter iterates to a fixed
point so running it on its own output changes nothing.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

PREPARED_FORMAT = "hcgr-data-v1"


class DataFormatError(ValueError):
    """Malformed session-log or prepared-dataset input."""


class EmptyDatasetError(ValueError):
    """Preprocessing removed every session."""


@dataclass
class Dataset:
    tokens: list[str]  # dense item id -> original token
    train: list[tuple[list[int], int]]
    valid: list[tuple[list[int], int]]
    test: list[tuple[list[int], int]]

    @property
    def n_items(self) -> int:
        return len(self.tokens)


def ingest(path: str) -> tuple[list[list[int]], list[str]]:
    """Read a session log; tokens are mapped to ids on first sight."""
    sessions: list[list[int]] = []
    tokens: list[str] = []
    ids: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read session log {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise DataFormatError(f"line {lineno}: expected '<session_id><TAB><items>'")
        _, item_part = line.split("\t", 1)
        parts = item_part.split()
        if not parts:
            raise DataFormatError(f"line {lineno}: session has no items")
        session = []
        for tok in parts:
            if tok not in ids:
                ids[tok] = len(tokens)
                tokens.append(tok)
            session.append(ids[tok])
        sessions.append(session)
    return sessions, tokens


def write_session_log(path: str, sessions: list[list[int]], tokens: list[str] | None = None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, session in enumerate(sessions):
            names = (tokens[v] if tokens else f"i{v}" for v in session)
            fh.write(f"s{i}\t{' '.join(names)}\n")


def filter_sessions(
    sessions: list[list[int]],
    min_item_freq: int = 3,
    min_session_len: int = 3,
    max_session_len: int = 50,
) -> list[list[int]]:
    """Frequency/length filtering plus truncation, iterated to a fixed point.

    Each pass drops the clicks on items seen fewer than min_item_freq times,
    then the sessions left shorter than min_session_len, then cuts each
    session to ``s[-max_session_len:]``; passes repeat until one removes
    nothing. The passes run over one flat array of all clicks.
    """
    n = len(sessions)
    lengths = [len(s) for s in sessions]
    flat = np.fromiter(chain.from_iterable(sessions), dtype=np.int64, count=sum(lengths))
    _, codes = np.unique(flat, return_inverse=True)
    owner = np.repeat(np.arange(n), lengths)  # session of each click, non-decreasing
    alive = np.ones(n, dtype=bool)
    m = max_session_len
    while True:
        keep = np.bincount(codes)[codes] >= min_item_freq
        now_alive = alive & (np.bincount(owner[keep], minlength=n) >= min_session_len)
        keep &= now_alive[owner]
        # truncation as the slice s[-m:]: keep the clicks from position
        # len - m of their session on, or from -m when m <= 0
        kept_owner = owner[keep]
        counts = np.bincount(kept_owner, minlength=n)
        starts = np.cumsum(counts) - counts
        pos = np.arange(kept_owner.size) - starts[kept_owner]
        keep[keep] = pos >= (counts[kept_owner] - m if m > 0 else -m)
        if keep.all() and np.array_equal(now_alive, alive):
            break
        flat, codes, owner, alive = flat[keep], codes[keep], owner[keep], now_alive
    clicks = flat.tolist()
    ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
    return [clicks[a:b] for a, b, ok in zip([0] + ends[:-1], ends, alive.tolist()) if ok]


def corpus_stats(sessions: list[list[int]]) -> dict:
    freq = Counter(item for s in sessions for item in s)
    behaviors = sum(len(s) for s in sessions)
    n_sessions = len(sessions)
    n_items = len(freq)
    return {
        "sessions": n_sessions,
        "items": n_items,
        "behaviors": behaviors,
        "avg_interactions_per_session": behaviors / n_sessions if n_sessions else 0.0,
        "avg_interactions_per_item": behaviors / n_items if n_items else 0.0,
    }


def preprocess(
    sessions: list[list[int]],
    tokens: list[str],
    seed: int,
    min_item_freq: int = 3,
    min_session_len: int = 3,
    max_session_len: int = 50,
) -> Dataset:
    """Filter, re-index densely, shuffle with the seed, split 80/10/10.

    Each retained session yields one supervised pair: the prefix of all but
    the final click, and that final click as the target. The split remainder
    goes to the training set.
    """
    if not sessions:
        raise EmptyDatasetError("no sessions to preprocess")
    filtered = filter_sessions(sessions, min_item_freq, min_session_len, max_session_len)
    if not filtered:
        raise EmptyDatasetError("all sessions removed by filtering")

    remap: dict[int, int] = {}
    new_tokens: list[str] = []
    reindexed = []
    for s in filtered:
        row = []
        for v in s:
            if v not in remap:
                remap[v] = len(new_tokens)
                new_tokens.append(tokens[v] if v < len(tokens) else f"i{v}")
            row.append(remap[v])
        reindexed.append(row)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(reindexed))
    shuffled = [reindexed[i] for i in order]
    n = len(shuffled)
    n_valid = n // 10
    n_test = n // 10
    n_train = n - n_valid - n_test

    def pairs(chunk):
        return [(s[:-1], s[-1]) for s in chunk]

    return Dataset(
        tokens=new_tokens,
        train=pairs(shuffled[:n_train]),
        valid=pairs(shuffled[n_train : n_train + n_valid]),
        test=pairs(shuffled[n_train + n_valid :]),
    )


def save_prepared(path: str, ds: Dataset, seed: int, stats: dict | None = None):
    doc = {
        "format": PREPARED_FORMAT,
        "seed": seed,
        "n_items": ds.n_items,
        "tokens": ds.tokens,
        "splits": {
            "train": [[list(p), t] for p, t in ds.train],
            "valid": [[list(p), t] for p, t in ds.valid],
            "test": [[list(p), t] for p, t in ds.test],
        },
        "stats": stats or {},
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_prepared(path: str) -> Dataset:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read prepared dataset {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != PREPARED_FORMAT:
        raise DataFormatError(f"unknown prepared-dataset format {doc.get('format')!r}")
    splits = doc["splits"]

    def pairs(rows):
        return [(list(map(int, p)), int(t)) for p, t in rows]

    return Dataset(
        tokens=list(doc["tokens"]),
        train=pairs(splits["train"]),
        valid=pairs(splits["valid"]),
        test=pairs(splits["test"]),
    )


# ---------------------------------------------------------------------------
# synthetic hierarchical corpus
# ---------------------------------------------------------------------------

ZIPF_EXPONENT = 1.2
CROSS_CATEGORY_PROB = 0.1
GENERAL_CLICK_PROB = 0.55
GENERAL_TIER_FRACTION = 0.12


def synth_hierarchical(n_items: int, n_sessions: int, seed: int) -> list[list[int]]:
    """Two-level hierarchical click generator with a heavy-tailed item law.

    The item tree has a root tier of general items that every session draws
    from (these form the power-law head, co-occurring with all contexts, the
    way head items do in real session logs) and leaf categories of specialist
    items. A session picks a leaf category; each click comes from the general
    tier, from the session's own category, or, with probability 0.1, jumps to
    another category, always Zipf(1.2)-weighted within the chosen tier.
    Session lengths fall in [3, 50].
    """
    if n_items < 10:
        raise ValueError("synth_hierarchical needs at least 10 items")
    if n_sessions < 1:
        raise ValueError("synth_hierarchical needs at least one session")
    rng = np.random.default_rng(seed)
    n_general = max(2, round(n_items * GENERAL_TIER_FRACTION))
    n_cat = max(2, (n_items - n_general) // 8)
    bounds = np.linspace(n_general, n_items, n_cat + 1).astype(int)

    def zipf_cdf(size: int) -> list[float]:
        w = np.arange(1, size + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        cdf = np.cumsum(w / w.sum())
        return (cdf / cdf[-1]).tolist()

    # rng.choice(ids, p=w) draws one rng.random() and finds it with
    # searchsorted(side="right") in cumsum(w) / cumsum(w)[-1]; bisect_right
    # on those CDFs makes the same draws and picks, without choice's
    # per-call validation of w
    general_cdf = zipf_cdf(n_general)
    item_cdf = [zipf_cdf(int(size)) for size in np.diff(bounds)]
    starts = bounds.tolist()

    sessions = []
    for _ in range(n_sessions):
        home = int(rng.integers(n_cat))
        length = 3 + int(min(rng.geometric(0.18) - 1, 47))
        session = []
        for _ in range(length):
            r = rng.random()
            if r < CROSS_CATEGORY_PROB and n_cat > 1:
                cat = int(rng.integers(n_cat - 1))
                if cat >= home:
                    cat += 1
                session.append(starts[cat] + bisect_right(item_cdf[cat], rng.random()))
            elif r < CROSS_CATEGORY_PROB + GENERAL_CLICK_PROB:
                session.append(bisect_right(general_cdf, rng.random()))
            else:
                session.append(starts[home] + bisect_right(item_cdf[home], rng.random()))
        sessions.append(session)
    return sessions
