import io
import json
import re
from collections import Counter

import numpy as np
import pytest

from hcgr import cli
from hcgr import dataset as dm


def filter_sessions_reference(sessions, min_item_freq=3, min_session_len=3, max_session_len=50):
    """filter_sessions as the list-based loop it replaced."""
    current = [list(s) for s in sessions]
    while True:
        freq = Counter(item for s in current for item in s)
        kept = [[v for v in s if freq[v] >= min_item_freq] for s in current]
        kept = [s[-max_session_len:] for s in kept if len(s) >= min_session_len]
        if kept == current:
            return kept
        current = kept


def preprocess_reference(sessions, tokens, seed, min_item_freq=3, min_session_len=3, max_session_len=50):
    """preprocess as the per-session list loop it replaced, on filter_sessions_reference."""
    if not sessions:
        raise dm.EmptyDatasetError("no sessions to preprocess")
    filtered = filter_sessions_reference(sessions, min_item_freq, min_session_len, max_session_len)
    if not filtered:
        raise dm.EmptyDatasetError("all sessions removed by filtering")

    remap = {}
    new_tokens = []
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

    return dm.Dataset(
        tokens=new_tokens,
        train=pairs(shuffled[:n_train]),
        valid=pairs(shuffled[n_train : n_train + n_valid]),
        test=pairs(shuffled[n_train + n_valid :]),
    )


def prepared_reference_text(ds, seed, stats):
    """The prepared document as save_prepared wrote it with json.dump."""
    doc = {
        "format": dm.PREPARED_FORMAT,
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
    out = io.StringIO()
    json.dump(doc, out)
    return out.getvalue()


def preprocess_outcome(fn, *args, **kwargs):
    try:
        ds = fn(*args, **kwargs)
    except dm.EmptyDatasetError:
        return "empty"
    return ds.tokens, ds.train, ds.valid, ds.test


def synth_hierarchical_reference(n_items, n_sessions, seed):
    """synth_hierarchical as the rng.choice loop it replaced."""
    rng = np.random.default_rng(seed)
    n_general = max(2, round(n_items * dm.GENERAL_TIER_FRACTION))
    n_cat = max(2, (n_items - n_general) // 8)
    bounds = np.linspace(n_general, n_items, n_cat + 1).astype(int)
    general = np.arange(n_general)
    members = [np.arange(bounds[c], bounds[c + 1]) for c in range(n_cat)]

    def zipf(size):
        w = np.arange(1, size + 1, dtype=np.float64) ** -dm.ZIPF_EXPONENT
        return w / w.sum()

    general_w = zipf(n_general)
    item_w = [zipf(ids.size) for ids in members]
    sessions = []
    for _ in range(n_sessions):
        home = int(rng.integers(n_cat))
        length = 3 + int(min(rng.geometric(0.18) - 1, 47))
        session = []
        for _ in range(length):
            r = rng.random()
            if r < dm.CROSS_CATEGORY_PROB and n_cat > 1:
                cat = int(rng.integers(n_cat - 1))
                if cat >= home:
                    cat += 1
                session.append(int(rng.choice(members[cat], p=item_w[cat])))
            elif r < dm.CROSS_CATEGORY_PROB + dm.GENERAL_CLICK_PROB:
                session.append(int(rng.choice(general, p=general_w)))
            else:
                session.append(int(rng.choice(members[home], p=item_w[home])))
        sessions.append(session)
    return sessions


@pytest.fixture
def log_file(tmp_path):
    def write(content: str):
        path = tmp_path / "sessions.txt"
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


class TestIngest:
    def test_two_sessions_three_items(self, log_file):
        sessions, tokens = dm.ingest(log_file("u1\ta b c\nu2\tb c\n"))
        assert len(sessions) == 2
        assert len(tokens) == 3
        assert sessions[0] == [0, 1, 2] and sessions[1] == [1, 2]

    def test_empty_file(self, log_file):
        sessions, tokens = dm.ingest(log_file(""))
        assert sessions == [] and tokens == []

    def test_blank_line_skipped(self, log_file):
        sessions, _ = dm.ingest(log_file("u1\ta b\n\nu2\tb a\n"))
        assert len(sessions) == 2

    def test_comment_skipped(self, log_file):
        sessions, _ = dm.ingest(log_file("# header\nu1\ta b\n"))
        assert len(sessions) == 1

    def test_malformed_line_names_line_number(self, log_file):
        with pytest.raises(dm.DataFormatError, match="line 2"):
            dm.ingest(log_file("u1\ta b\nno-tab-here\n"))

    def test_line_without_items(self, log_file):
        with pytest.raises(dm.DataFormatError, match="line 1"):
            dm.ingest(log_file("u1\t\n"))

    def test_missing_file(self):
        with pytest.raises(dm.DataFormatError):
            dm.ingest("/nonexistent/sessions.txt")


class TestFilter:
    def test_rare_item_removed_everywhere(self):
        # item 1 occurs twice (< 3), item 0 five times
        sessions = [[0, 1, 0], [0, 1, 0], [0]]
        out = dm.filter_sessions(sessions, min_item_freq=3, min_session_len=1)
        assert all(1 not in s for s in out)

    def test_short_session_dropped(self):
        sessions = [[0, 1, 2], [0, 1], [0, 1, 2], [0, 1, 2], [2, 1, 0]]
        out = dm.filter_sessions(sessions)
        assert [0, 1] not in out
        assert len(out) == 4

    def test_truncation_keeps_most_recent(self):
        base = [[i % 7 for i in range(60)]] * 3
        out = dm.filter_sessions(base, max_session_len=50)
        assert all(len(s) == 50 for s in out)
        assert out[0] == base[0][-50:]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sessions = [
                rng.integers(0, 12, size=rng.integers(1, 12)).tolist()
                for _ in range(rng.integers(1, 40))
            ]
            once = dm.filter_sessions(sessions)
            assert dm.filter_sessions(once) == once

    def test_equals_list_loop_on_random_corpora(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            sessions = [
                rng.integers(0, rng.integers(1, 30), size=rng.integers(0, 15)).tolist()
                for _ in range(rng.integers(0, 40))
            ]
            args = (int(rng.integers(0, 5)), int(rng.integers(0, 5)), int(rng.integers(-2, 12)))
            assert dm.filter_sessions(sessions, *args) == filter_sessions_reference(sessions, *args), args

    def test_session_dropped_only_after_an_earlier_pass(self):
        # pass 1 drops the rare item 9 and with it [9, 5, 9, 6]; that leaves
        # items 5 and 6 two clicks each, so pass 2 cuts [5, 6, 7, 1] and
        # [5, 6, 7, 7] to two clicks and drops them
        sessions = [[1, 2, 3], [1, 2, 3], [1, 2, 3], [9, 5, 9, 6], [5, 6, 7, 1], [5, 6, 7, 7]]
        out = dm.filter_sessions(sessions)
        assert out == filter_sessions_reference(sessions)
        assert out == [[1, 2, 3], [1, 2, 3], [1, 2, 3]]

    def test_equals_list_loop_on_synthetic_corpus(self):
        sessions = dm.synth_hierarchical(100, 2000, seed=7)
        assert dm.filter_sessions(sessions) == filter_sessions_reference(sessions)
        assert dm.filter_sessions(sessions, 5, 4, 6) == filter_sessions_reference(sessions, 5, 4, 6)


class TestPreprocess:
    def _corpus(self, n=100, length=5, items=12):
        rng = np.random.default_rng(3)
        return [rng.integers(0, items, size=length).tolist() for _ in range(n)]

    def test_split_sizes_with_remainder_to_train(self):
        ds = dm.preprocess(self._corpus(100), [f"t{i}" for i in range(12)], seed=0)
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (80, 10, 10)
        ds = dm.preprocess(self._corpus(105), [f"t{i}" for i in range(12)], seed=0)
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (85, 10, 10)

    def test_pairs_are_prefix_and_last_item(self):
        sessions = [[0, 1, 2, 3]] * 5
        ds = dm.preprocess(sessions, ["a", "b", "c", "d"], seed=0)
        for prefix, target in ds.train:
            assert prefix == [0, 1, 2] and target == 3

    def test_dense_reindexing(self):
        sessions = [[7, 9, 7], [9, 7, 9], [7, 9, 9]]
        ds = dm.preprocess(sessions, [f"t{i}" for i in range(10)], seed=0)
        assert ds.n_items == 2
        assert ds.tokens == ["t7", "t9"]
        for prefix, target in ds.train + ds.valid + ds.test:
            assert all(0 <= v < 2 for v in prefix + [target])

    def test_same_seed_identical_split(self):
        c = self._corpus(60)
        a = dm.preprocess(c, [f"t{i}" for i in range(12)], seed=5)
        b = dm.preprocess(c, [f"t{i}" for i in range(12)], seed=5)
        assert a.train == b.train and a.valid == b.valid and a.test == b.test

    def test_all_filtered_out_raises(self):
        with pytest.raises(dm.EmptyDatasetError):
            dm.preprocess([[0, 1]], ["a", "b"], seed=0)

    def test_empty_input_raises(self):
        with pytest.raises(dm.EmptyDatasetError):
            dm.preprocess([], [], seed=0)

    def test_equals_reference_on_random_corpora(self):
        # token lists shorter than the largest id exercise the f"i{v}" names
        rng = np.random.default_rng(2)
        kept = 0
        for _ in range(2000):
            n_ids = int(rng.integers(1, 31))
            sessions = [rng.integers(0, n_ids, size=rng.integers(0, 15)).tolist() for _ in range(rng.integers(1, 41))]
            top = max((max(s) for s in sessions if s), default=0)
            tokens = [f"t{v}" for v in range(int(rng.integers(0, top + 1)))]
            kwargs = dict(
                min_item_freq=int(rng.integers(0, 5)),
                min_session_len=int(rng.integers(2, 5)),
                max_session_len=int(rng.choice([-3, 0, 1, 2, 3, 5, 50])),
            )
            seed = int(rng.integers(0, 2**31))
            want = preprocess_outcome(preprocess_reference, sessions, tokens, seed, **kwargs)
            assert preprocess_outcome(dm.preprocess, sessions, tokens, seed, **kwargs) == want, (sessions, tokens, seed, kwargs)
            kept += want != "empty"
        assert kept > 500

    def test_equals_reference_on_a_32k_session_corpus(self):
        rng = np.random.default_rng(11)
        sessions = [rng.integers(0, 50_000, size=rng.integers(3, 9)).tolist() for _ in range(32_000)]
        tokens = [f"i{v}" for v in range(50_000)]
        ds = dm.preprocess(sessions, tokens, seed=11)
        assert (ds.tokens, ds.train, ds.valid, ds.test) == preprocess_outcome(preprocess_reference, sessions, tokens, 11)
        assert len(ds.train) > 20_000

    def test_negative_id_rejected(self):
        # a negative id would index tokens from the end: -1 would take "c"
        sessions = [[-1, 0, 1], [0, 1, -1], [1, -1, 0], [0, 1, -1]]
        with pytest.raises(dm.DataFormatError, match="item id -1 is not a non-negative integer"):
            dm.preprocess(sessions, ["a", "b", "c"], seed=0)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None])
    def test_non_integer_id_rejected(self, bad):
        sessions = [[0, 1, 2]] * 3 + [[0, bad, 2]]
        with pytest.raises(dm.DataFormatError, match=f"item id {re.escape(repr(bad))} is not an integer"):
            dm.preprocess(sessions, ["a", "b", "c"], seed=0)

    def test_numpy_integer_ids_accepted(self):
        sessions = [[0, 1, 2, 3]] * 5
        as_numpy = [[np.int64(v) for v in s] for s in sessions]
        assert preprocess_outcome(dm.preprocess, as_numpy, ["a", "b", "c", "d"], 0) == preprocess_outcome(
            dm.preprocess, sessions, ["a", "b", "c", "d"], 0
        )

    @pytest.mark.parametrize("min_session_len", [1, 0, -1])
    def test_min_session_len_below_two_rejected(self, min_session_len):
        # a one-click session would give a pair with an empty prefix
        with pytest.raises(ValueError, match="min_session_len"):
            dm.preprocess([[0, 1, 2]] * 5 + [[0]], ["a", "b", "c"], seed=0, min_item_freq=1, min_session_len=min_session_len)


class TestPreparedRoundTrip:
    def test_save_load(self, tmp_path):
        ds = dm.preprocess(
            [[0, 1, 2, 0]] * 20, ["a", "b", "c"], seed=1
        )
        path = str(tmp_path / "prepared.json")
        dm.save_prepared(path, ds, seed=1)
        back = dm.load_prepared(path)
        assert back.tokens == ds.tokens
        assert back.train == ds.train and back.valid == ds.valid and back.test == ds.test

    @pytest.mark.parametrize("thresholds", [(), ("--min-item-freq", "1", "--min-session-len", "2", "--max-session-len", "4")])
    def test_prepare_writes_the_reference_document(self, tmp_path, thresholds):
        log = str(tmp_path / "synth.txt")
        out = str(tmp_path / "prepared.json")
        assert cli.main(["synth", "--items", "60", "--sessions", "300", "--seed", "4", "--output", log]) == 0
        assert cli.main(["prepare", "--input", log, "--output", out, "--seed", "4", *thresholds]) == 0
        args = dict(zip(thresholds[::2], map(int, thresholds[1::2])))
        sessions, tokens = dm.ingest(log)
        ds = preprocess_reference(sessions, tokens, 4, args.get("--min-item-freq", 3),
                                  args.get("--min-session-len", 3), args.get("--max-session-len", 50))
        stats = dm.corpus_stats([p + [t] for p, t in ds.train + ds.valid + ds.test])
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == prepared_reference_text(ds, 4, stats)

    def test_first_bad_row_is_named(self, tmp_path):
        doc = self._doc()
        doc["splits"]["valid"] = [[[1], 0], [[1, 7], 0], [[], 0], [[0], -1]]
        doc["splits"]["test"] = [[[], 1]]
        with pytest.raises(dm.DataFormatError, match=r"item id 7 is not an integer in \[0, 3\)"):
            dm.load_prepared(self._write(tmp_path, doc))
        doc["splits"]["valid"] = [[[1], 0], [[1], 0, 2], [[0], -1]]
        with pytest.raises(dm.DataFormatError, match=r"valid pair \[\[1\], 0, 2\] is not \[non-empty prefix, target\]"):
            dm.load_prepared(self._write(tmp_path, doc))
        doc["splits"]["valid"] = [[[1], 0]]
        with pytest.raises(dm.DataFormatError, match=r"test pair \[\[\], 1\]"):
            dm.load_prepared(self._write(tmp_path, doc))

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other-v9"}', encoding="utf-8")
        with pytest.raises(dm.DataFormatError, match="format"):
            dm.load_prepared(str(path))

    @staticmethod
    def _write(tmp_path, doc):
        path = tmp_path / "prepared.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @staticmethod
    def _doc(**changes):
        splits = {"train": [[[0, 1], 2]], "valid": [[[1], 0]], "test": [[[2, 2], 1]]}
        doc = {"format": dm.PREPARED_FORMAT, "tokens": ["a", "b", "c"], "splits": splits}
        doc.update(changes)
        return doc

    def test_minimal_document_loads(self, tmp_path):
        ds = dm.load_prepared(self._write(tmp_path, self._doc()))
        assert ds.train == [([0, 1], 2)] and ds.valid == [([1], 0)] and ds.test == [([2, 2], 1)]

    def test_json_list_rejected(self, tmp_path):
        with pytest.raises(dm.DataFormatError, match="list"):
            dm.load_prepared(self._write(tmp_path, [self._doc()]))

    def test_missing_splits_rejected(self, tmp_path):
        doc = self._doc()
        del doc["splits"]
        with pytest.raises(dm.DataFormatError, match="splits"):
            dm.load_prepared(self._write(tmp_path, doc))

    def test_missing_split_rejected(self, tmp_path):
        doc = self._doc()
        del doc["splits"]["valid"]
        with pytest.raises(dm.DataFormatError, match="valid"):
            dm.load_prepared(self._write(tmp_path, doc))

    @pytest.mark.parametrize("bad", ["1", 1.0, 1.5, None, True, [1]])
    def test_non_integer_id_rejected(self, tmp_path, bad):
        for splits in ({"train": [[[0, bad], 2]]}, {"test": [[[0], bad]]}):
            doc = self._doc()
            doc["splits"].update(splits)
            with pytest.raises(dm.DataFormatError, match="not an integer"):
                dm.load_prepared(self._write(tmp_path, doc))

    @pytest.mark.parametrize("bad", [-1, 3, 10**30])
    def test_id_outside_tokens_rejected(self, tmp_path, bad):
        for splits in ({"valid": [[[bad, 0], 1]]}, {"test": [[[0], bad]]}):
            doc = self._doc()
            doc["splits"].update(splits)
            with pytest.raises(dm.DataFormatError, match=r"\[0, 3\)"):
                dm.load_prepared(self._write(tmp_path, doc))

    @pytest.mark.parametrize("bad", [[[], 1], [[0, 1]], [[0], 1, 2], [0, 1], "ab"])
    def test_empty_prefix_or_malformed_pair_rejected(self, tmp_path, bad):
        doc = self._doc()
        doc["splits"]["train"].append(bad)
        with pytest.raises(dm.DataFormatError, match="prefix"):
            dm.load_prepared(self._write(tmp_path, doc))


class TestSynth:
    def test_deterministic(self):
        a = dm.synth_hierarchical(50, 100, seed=3)
        b = dm.synth_hierarchical(50, 100, seed=3)
        assert a == b

    def test_lengths_bounded(self):
        sessions = dm.synth_hierarchical(100, 500, seed=4)
        assert all(3 <= len(s) <= 50 for s in sessions)

    def test_heavy_tail(self):
        sessions = dm.synth_hierarchical(100, 1000, seed=5)
        counts = np.zeros(100)
        for s in sessions:
            for v in s:
                counts[v] += 1
        top_decile = np.sort(counts)[::-1][:10].sum() / counts.sum()
        assert top_decile > 0.5

    @pytest.mark.parametrize("n_items, n_sessions", [(10, 300), (37, 200), (100, 2000), (1000, 300)])
    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_equals_rng_choice_loop(self, n_items, n_sessions, seed):
        assert dm.synth_hierarchical(n_items, n_sessions, seed) == synth_hierarchical_reference(n_items, n_sessions, seed)

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError):
            dm.synth_hierarchical(9, 10, seed=0)

    def test_session_log_roundtrip(self, tmp_path):
        sessions = dm.synth_hierarchical(30, 50, seed=6)
        path = str(tmp_path / "synth.txt")
        dm.write_session_log(path, sessions)
        back, tokens = dm.ingest(path)
        remapped = [[int(tokens[v][1:]) for v in s] for s in back]
        assert remapped == sessions


class TestStats:
    def test_corpus_stats(self):
        stats = dm.corpus_stats([[0, 1, 2], [0, 1, 2, 2]])
        assert stats["sessions"] == 2
        assert stats["items"] == 3
        assert stats["behaviors"] == 7
        assert stats["avg_interactions_per_session"] == pytest.approx(3.5)
        assert stats["avg_interactions_per_item"] == pytest.approx(7 / 3)
