from collections import Counter

import numpy as np
import pytest

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

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other-v9"}', encoding="utf-8")
        with pytest.raises(dm.DataFormatError, match="format"):
            dm.load_prepared(str(path))


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
