from collections import Counter

import numpy as np
import pytest

from hcgr.model import build_graph, neighborhood

CATALOG = 64


def one_graph(items, max_len=100):
    """(nodes, position of last, {(i, j): count}, union) of one session."""
    node_ids, sizes, last, counts = build_graph([items], CATALOG, max_len)
    n = int(sizes[0])
    edges = {(int(i), int(j)): int(counts[0, i, j]) for i, j in zip(*np.nonzero(counts[0]))}
    return tuple(node_ids[0, :n].tolist()), int(last[0]), edges, neighborhood(counts)[0]


def hood(union, i):
    """Nonzero union weights of node i as sorted (j, weight) pairs."""
    return [(int(j), int(union[i, j])) for j in np.nonzero(union[i])[0]]


def test_single_item_session():
    nodes, last, edges, union = one_graph([4])
    assert nodes == (4,)
    assert last == 0
    assert edges == {(0, 0): 1}
    assert hood(union, 0) == [(0, 1)]


def test_revisit_session():
    nodes, last, edges, union = one_graph([10, 11, 12, 11])
    assert nodes == (10, 11, 12)
    assert last == 1
    assert edges == {
        (0, 1): 1,
        (1, 2): 1,
        (2, 1): 1,
        (0, 0): 1,
        (1, 1): 1,
        (2, 2): 1,
    }
    # node 2 sits on both sides of node 1, so its union weight is 2
    assert hood(union, 1) == [(0, 1), (1, 1), (2, 2)]


def test_alternating_session_counts_repeats():
    _, _, edges, _ = one_graph([0, 1, 0, 1])
    assert edges == {(0, 1): 2, (1, 0): 1, (0, 0): 1, (1, 1): 1}


def test_consecutive_repeat_becomes_self_loop_count():
    _, _, edges, _ = one_graph([5, 5, 5])
    assert edges == {(0, 0): 2}


def test_session_cut_to_its_most_recent_clicks():
    nodes, last, edges, _ = one_graph([1, 2, 3, 1, 4], max_len=3)
    assert nodes == (3, 1, 4)
    assert last == 2
    assert edges == {(0, 1): 1, (1, 2): 1, (0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_empty_session_rejected():
    with pytest.raises(ValueError):
        build_graph([[]], CATALOG, 10)
    with pytest.raises(ValueError):
        build_graph([[1, 2], []], CATALOG, 10)


def test_every_node_contains_itself():
    rng = np.random.default_rng(0)
    for _ in range(100):
        items = rng.integers(0, 8, size=rng.integers(1, 20)).tolist()
        nodes, _, _, union = one_graph(items)
        for i in range(len(nodes)):
            assert i in dict(hood(union, i))


def test_equal_sessions_give_equal_graphs():
    items = [3, 1, 4, 1, 5, 9, 2, 6]
    want = build_graph([items, items[:3]], CATALOG, 10)
    for session in (tuple(items), np.array(items)):
        got = build_graph([session, session[:3]], CATALOG, 10)
        for a, r in zip(got, want):
            assert a.dtype == r.dtype and a.tobytes() == r.tobytes()


def test_transition_multiset_reconstruction():
    # four sessions per batch, so a transition leaking across sessions shows
    rng = np.random.default_rng(1)
    for _ in range(250):
        batch = [rng.integers(0, 12, size=int(rng.integers(1, 51))).tolist() for _ in range(4)]
        node_ids, sizes, last, counts = build_graph(batch, CATALOG, 100)
        for b, items in enumerate(batch):
            nodes = node_ids[b, : sizes[b]].tolist()
            assert nodes == list(dict.fromkeys(items))
            assert last[b] == nodes.index(items[-1])
            assert not counts[b, sizes[b] :].any() and not counts[b, :, sizes[b] :].any()
            expected = Counter(zip(items, items[1:]))
            for i, j in zip(*np.nonzero(counts[b])):
                pair = (nodes[i], nodes[j])
                if i == j and pair not in expected:
                    assert counts[b, i, j] == 1  # injected self-loop
                else:
                    assert expected[pair] == counts[b, i, j]
            for pair, count in expected.items():
                assert counts[b, nodes.index(pair[0]), nodes.index(pair[1])] == count


def test_weight_accounting_identity():
    # non-self-loop weight plus consecutive-identical pairs covers n-1 transitions
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        items = rng.integers(0, 6, size=n).tolist()
        _, _, edges, _ = one_graph(items)
        non_self = sum(w for (i, j), w in edges.items() if i != j)
        identical_pairs = sum(a == b for a, b in zip(items, items[1:]))
        assert non_self + identical_pairs == n - 1


def test_neighborhood_union_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(250):
        batch = [rng.integers(0, 10, size=rng.integers(1, 30)).tolist() for _ in range(4)]
        counts = build_graph(batch, CATALOG, 100)[3]
        union = neighborhood(counts)
        assert np.array_equal(union, np.swapaxes(union, -1, -2))
        diag = np.arange(counts.shape[-1])
        assert np.array_equal(union[:, diag, diag], counts[:, diag, diag])
