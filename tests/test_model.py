import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import manifold as mf
from hcgr.model import (
    AGGREGATORS,
    MASK_LOGIT,
    CheckpointError,
    CHECKPOINT_FORMAT,
    HCGRModel,
    HyperParams,
    expected_shapes,
    load_checkpoint,
    save_checkpoint,
)

import oracle


def tiny_model(seed=0, catalog=6, **kw):
    hyper = HyperParams(dim=4, graph_layers=kw.pop("graph_layers", 1),
                        attention_blocks=kw.pop("attention_blocks", 1), **kw)
    return HCGRModel.create(hyper, catalog, seed=seed)


@pytest.fixture
def stages(monkeypatch):
    """The packed (N, d) output tangents of each stage of the latest
    forward pass, recorded by wrapping HCGRModel's fusion and block stages:
    "embed" and "graph_layer_l" are the depths that the fusion receives,
    "fused" its output and "block_j" block j's output."""
    recorded = {}
    fuse, block = HCGRModel._fuse, HCGRModel._self_attention_block

    def record_fuse(self, per_layer):
        Z = fuse(self, per_layer)
        recorded.clear()
        recorded["embed"] = per_layer[0].data.copy()
        for l, t in enumerate(per_layer[1:], start=1):
            recorded[f"graph_layer_{l}"] = t.data.copy()
        recorded["fused"] = Z.data.copy()
        return Z

    def record_block(self, sb, T, blk, k):
        E, attn = block(self, sb, T, blk, k)
        j = [id(b) for b in self.params.blocks].index(id(blk))
        recorded[f"block_{j}"] = E.data.copy()
        return E, attn

    monkeypatch.setattr(HCGRModel, "_fuse", record_fuse)
    monkeypatch.setattr(HCGRModel, "_self_attention_block", record_block)
    return recorded


def stage_points(model, stages):
    """Each recorded stage's tangents mapped onto that stage's hyperboloid:
    "embed" and "graph_layer_l" under graph_k[0] and graph_k[l], "fused"
    under graph_k[-1], "block_j" under block_k[j]."""
    with ad.no_grad():
        caches = model.caches()
        ks = {"embed": caches.graph_k[0], "fused": caches.graph_k[-1]}
        ks.update({f"graph_layer_{l}": caches.graph_k[l] for l in range(1, len(caches.graph_k))})
        ks.update({f"block_{j}": k for j, k in enumerate(caches.block_k)})
        return {name: mf.exp_o_rows(ad.Tensor(t), ks[name]).data for name, t in stages.items()}


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(dim=1)
        with pytest.raises(ValueError):
            HyperParams(graph_layers=0)
        with pytest.raises(ValueError):
            HyperParams(attention_blocks=0)
        with pytest.raises(ValueError):
            HyperParams(aggregator="other")

    @pytest.mark.parametrize(
        "size", [{"dim": 4.0}, {"graph_layers": True}, {"attention_blocks": 1.0}, {"max_session_len": 50.0}]
    )
    def test_sizes_must_be_ints(self, size):
        name = next(iter(size))
        with pytest.raises(ValueError, match=name):
            HyperParams(**size)


class TestParameterLayout:
    # SHA-256 over name, shape, dtype and bytes of every parameter after
    # HCGRModel.create, keyed by (dim, graph_layers, attention_blocks,
    # catalog size, seed). Any change to the draw order or a starting value
    # moves them.
    CREATE_DIGESTS = {
        (4, 1, 1, 6, 0): "7115c6a8c46dd76de49998c610063612c7df52b25a935122fe70464890a162f7",
        (4, 3, 2, 9, 5): "7fae396cea9a1d0e4bf4a88b77515af0f173a1472cbeb5aa681765bf74299f3b",
        (16, 2, 3, 40, 1): "5c14260612d0190fa6a02f81b06453036ac6faec3831a970a2eebcab608cdaab",
        (16, 1, 2, 100, 11): "dcfff886dcb46b5b8df9c73f2fce26c720d687f981524928d92d87b424f2aadc",
        (64, 3, 1, 120, 7): "f9a3c3acbb7f2970c4d065e9cf1bb63d1cccfe3d3e27028eef09ef34cb59a155",
        (64, 2, 3, 33, 2): "bba1355f70ae4aca14e08280bfbf211fef71191b3414efa677faf4a85d225872",
        (4, 2, 1, 1, 3): "5773c087854315c827e86800e79efbd5e9127957626c8bafdadc99aa3d1c00e1",
        (16, 3, 3, 7, 4): "abf0a745262390ee902a08d351ba301df03556f293cab628c75c21c6332b6d7d",
    }

    @pytest.mark.parametrize("case", sorted(CREATE_DIGESTS))
    def test_create_draws_pinned_bytes(self, case):
        dim, layers, blocks, catalog, seed = case
        model = HCGRModel.create(HyperParams(dim=dim, graph_layers=layers, attention_blocks=blocks), catalog, seed)
        h = hashlib.sha256()
        for name, t in model.params.named_parameters():
            h.update(f"{name}|{t.data.shape}|{t.data.dtype.str}|".encode())
            h.update(t.data.tobytes())
        assert h.hexdigest() == self.CREATE_DIGESTS[case]

    @pytest.mark.parametrize("layers,blocks", [(1, 1), (3, 2), (2, 3)])
    def test_named_parameters_follow_expected_shapes(self, layers, blocks):
        hyper = HyperParams(dim=5, graph_layers=layers, attention_blocks=blocks)
        model = HCGRModel.create(hyper, 7, seed=0)
        shapes = expected_shapes(hyper, 7)
        named = model.params.named_parameters()
        assert [name for name, _ in named] == list(shapes)
        assert [t.shape for _, t in named] == list(shapes.values())
        p = model.params
        attrs = [p.embeddings, p.attn_w, p.attn_b, p.fusion_logits, p.gate_logit, p.logit_scale, *p.graph_kappa]
        attrs += [getattr(b, f) for b in p.blocks
                  for f in ("w_query", "w_key", "w_value", "ff_w1", "ff_w2", "ff_b1", "ff_b2", "kappa")]
        assert all(a is t for a, (_, t) in zip(attrs, named)) and len(attrs) == len(named)


class TestItemPoints:
    def test_zero_row_maps_to_origin(self):
        model = tiny_model()
        model.params.embeddings.data[2] = 0.0
        pts, k = model.catalog_points()
        assert np.allclose(pts[2], oracle.origin(4, float(k.data)), atol=1e-12)

    def test_on_hyperboloid(self):
        model = tiny_model(seed=3)
        pts, k = model.catalog_points()
        for item in range(model.catalog_size):
            assert abs(oracle.mink(pts[item], pts[item]) + float(k.data)) < 1e-8

    def test_unit_row_at_unit_distance(self):
        model = tiny_model()
        row = np.zeros(4)
        row[0] = 1.0
        model.params.embeddings.data[0] = row
        k = model.caches().graph_k[0]
        p = model.item_points([0], k)
        o = ad.constant(oracle.origin(4, float(k.data))[None])
        assert abs(float(mf.dist_rows(o, p, k).data[0, 0]) - 1.0) < 1e-9

    def test_distances_match_distance_from_origin(self):
        model = tiny_model(seed=4, catalog=9)
        model.params.graph_kappa[0].data[...] = 0.7  # k away from 1
        model.params.embeddings.data[3] = 0.0
        dists = model.embedding_distances()
        pts, k = model.catalog_points()
        o = ad.constant(oracle.origin(4, float(k.data))[None])
        from_origin = mf.dist_rows(o, ad.constant(pts), k).data[:, 0]
        for item in range(model.catalog_size):
            assert abs(dists[item] - from_origin[item]) < 1e-12, item


class TestForwardBasics:
    def test_probability_vector(self):
        model = tiny_model(seed=1)
        out = model.forward([0, 1, 2, 1])
        y = out.yhat.data
        assert y.shape == (6,)
        assert (y > 0).all()
        assert abs(y.sum() - 1.0) < 1e-9

    def test_single_item_session(self):
        out = tiny_model(seed=2).forward([3])
        assert abs(out.yhat.data.sum() - 1.0) < 1e-9

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().forward([])

    def test_out_of_catalog_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().forward([0, 6])

    def test_pure_function(self):
        model = tiny_model(seed=4)
        a = model.forward([0, 1, 2, 1, 3])
        b = model.forward([0, 1, 2, 1, 3])
        assert np.array_equal(a.yhat.data, b.yhat.data)

    def test_truncation_keeps_most_recent(self):
        model = tiny_model(seed=5, max_session_len=4)
        items = [0, 1, 2, 3, 4, 5, 1, 2]
        a = model.forward(items)
        b = model.forward(items[-4:])
        assert np.array_equal(a.yhat.data, b.yhat.data)


class TestAttentionStructure:
    def test_graph_attention_rows_sum_to_one(self):
        model = tiny_model(seed=6, graph_layers=2)
        out = model.forward([0, 1, 2, 1, 0, 4])
        for mat in out.graph_attention:
            assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12

    def test_self_attention_rows_sum_to_one(self):
        model = tiny_model(seed=7, attention_blocks=2)
        out = model.forward([0, 1, 2, 3])
        for mat in out.self_attention:
            assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12

    def test_singleton_neighborhood_attends_to_itself(self):
        model = tiny_model(seed=8)
        out = model.forward([5])
        assert np.allclose(out.graph_attention[0], [[1.0]])

    def test_single_node_layer_and_fusion_are_identity(self, stages):
        model = tiny_model(seed=9)
        model.forward([5])
        points = stage_points(model, stages)
        emb = points["embed"]
        assert np.abs(emb - points["graph_layer_1"]).max() < 1e-9
        assert np.abs(emb - points["fused"]).max() < 1e-9

    def test_identical_neighbors_share_attention(self):
        model = tiny_model(seed=10)
        model.params.embeddings.data[1] = model.params.embeddings.data[0]
        out = model.forward([0, 1])
        attn = out.graph_attention[0]
        # each node's neighborhood is {self, other} with equal tangents/weights
        assert np.allclose(attn, 0.5, atol=1e-12)

    def test_masked_pairs_get_exactly_zero(self):
        model = tiny_model(seed=11)
        out = model.forward([0, 1, 2])  # 0 and 2 are not adjacent
        attn = out.graph_attention[0]
        assert attn[0, 2] == 0.0 and attn[2, 0] == 0.0

    def test_uniform_attention_when_projections_vanish(self):
        model = tiny_model(seed=12)
        model.params.blocks[0].w_query.data[...] = 0.0
        model.params.blocks[0].w_key.data[...] = 0.0
        out = model.forward([0, 1, 2, 3])
        assert np.allclose(out.self_attention[0], 0.25, atol=1e-15)

    def test_gcn_mean_is_uniform_over_neighbors(self):
        model = tiny_model(seed=13, aggregator="gcn_mean")
        out = model.forward([0, 1, 2])
        attn = out.graph_attention[0]
        hood_sizes = (attn > 0).sum(axis=1)
        for i, size in enumerate(hood_sizes):
            nz = attn[i][attn[i] > 0]
            assert np.allclose(nz, 1.0 / size, atol=1e-12)

    def test_gat_last_layer_skips_fusion(self, stages):
        model = tiny_model(seed=14, aggregator="gat_last_layer", graph_layers=2)
        model.forward([0, 1, 2, 1])
        points = stage_points(model, stages)
        assert np.array_equal(points["fused"], points["graph_layer_2"])


class TestGeometryInvariants:
    @pytest.mark.parametrize("dim", [4, 16])
    def test_intermediates_on_hyperboloid(self, dim, stages):
        hyper = HyperParams(dim=dim, graph_layers=2, attention_blocks=2)
        model = HCGRModel.create(hyper, 20, seed=15)
        rng = np.random.default_rng(16)
        with ad.no_grad():
            caches = model.caches()
            ks = {"embed": float(caches.graph_k[0].data)}
            for l in range(1, 3):
                ks[f"graph_layer_{l}"] = float(caches.graph_k[l].data)
            ks["fused"] = float(caches.graph_k[-1].data)
            for j in range(2):
                ks[f"block_{j}"] = float(caches.block_k[j].data)
        for _ in range(10):
            items = rng.integers(0, 20, size=rng.integers(1, 30)).tolist()
            model.forward(items)
            for name, pts in stage_points(model, stages).items():
                k = ks[name]
                inner = -pts[:, 0] ** 2 + (pts[:, 1:] ** 2).sum(axis=1)
                assert np.abs(inner + k).max() < 1e-8, name

    def test_readout_time_coordinate_zero(self):
        out = tiny_model(seed=17).forward([0, 1, 2])
        assert out.readout.data[0] == 0.0


class TestScoring:
    def test_zero_embeddings_give_uniform_scores(self):
        model = tiny_model(seed=18)
        model.params.embeddings.data[...] = 0.0
        y = model.forward([0, 1]).yhat.data
        assert np.allclose(y, 1.0 / 6.0, atol=1e-12)

    def test_zero_readout_scores_uniformly(self):
        model = tiny_model(seed=18)
        y = ad.softmax_rows(model.score(ad.constant(np.zeros(4)))).data
        assert np.allclose(y, 1.0 / 6.0, atol=1e-15)

    def test_score_sums_to_one_and_preserves_order(self):
        model = tiny_model(seed=28, catalog=7)
        rng = np.random.default_rng(29)
        o_vec = ad.constant(rng.normal(size=4))
        with ad.no_grad():
            y = ad.softmax_rows(model.score(o_vec)).data
            logits = model.params.embeddings.data @ o_vec.data
        assert abs(y.sum() - 1.0) < 1e-9
        assert np.array_equal(np.argsort(-y, kind="stable"), np.argsort(-logits, kind="stable"))

    def test_score_gives_the_allocating_bytes(self):
        # the allocating formula scales a fresh copy of the product; score
        # scales the product in place. Rows 1, 4 and 5 tie exactly.
        model = tiny_model(seed=31, catalog=9)
        E = model.params.embeddings.data
        E[[4, 5]] = E[1]
        model.params.logit_scale.data[...] = 1.7
        s = np.exp(model.params.logit_scale.data)
        rng = np.random.default_rng(32)
        for o in (rng.normal(size=4), rng.normal(size=(3, 4)), np.zeros(4)):
            want = s * (E @ o if o.ndim == 1 else o @ E.T)
            z = model.score(ad.Tensor(o, requires_grad=True)).data
            assert z.tobytes() == want.tobytes()
            assert np.all(z[..., 4] == z[..., 1]) and np.all(z[..., 5] == z[..., 1])

    def test_one_session_allocates_two_catalog_rows(self):
        # a recommend request: the logits and the probabilities, each one
        # (V,) array, as the product is scaled in place and the softmax
        # works over its copy
        model = HCGRModel.create(HyperParams(dim=8), 20000, seed=3)
        with ad.no_grad():
            model.forward([1, 2, 3]).yhat
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = model.forward([5, 9, 5, 14])
                result.yhat
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= 2.1 * result.logits.data.nbytes

    def test_duplicate_items_get_equal_probability(self):
        model = tiny_model(seed=19)
        model.params.embeddings.data[4] = model.params.embeddings.data[2]
        y = model.forward([0, 1]).yhat.data
        assert y[4] == pytest.approx(y[2], rel=1e-12)

    def test_label_equivariance(self):
        model = tiny_model(seed=20)
        perm = np.array([3, 0, 4, 1, 5, 2])  # new id of each old id
        permuted = tiny_model(seed=20)
        permuted.params.embeddings.data[perm] = model.params.embeddings.data
        session = [0, 1, 2, 1]
        y = model.forward(session).yhat.data
        yp = permuted.forward([int(perm[v]) for v in session]).yhat.data
        assert np.allclose(yp[perm], y, rtol=1e-12, atol=1e-15)


class TestGateBlend:
    def test_gate_saturated_high_uses_long_term_path(self, stages):
        model = tiny_model(seed=21)
        model.params.gate_logit.data[...] = 40.0
        out = model.forward([0, 1, 2])
        e_tan = stages["block_0"]
        pos = model.batch([[0, 1, 2]]).last_row[0]
        assert np.abs(out.readout.data[1:] - e_tan[pos]).max() < 1e-12

    def test_gate_zero_blends_equally(self, stages):
        model = tiny_model(seed=22)
        model.params.gate_logit.data[...] = 0.0
        out = model.forward([0, 1, 2])
        e_tan, z_tan = stages["block_0"], stages["fused"]
        pos = model.batch([[0, 1, 2]]).last_row[0]
        want = 0.5 * e_tan[pos] + 0.5 * z_tan[pos]
        assert np.abs(out.readout.data[1:] - want).max() < 1e-12


class TestForwardOracle:
    def test_matches_straight_line_composition(self):
        rng = np.random.default_rng(23)
        hyper = HyperParams(dim=5, graph_layers=2, attention_blocks=2)
        model = HCGRModel.create(hyper, 9, seed=24)
        # move curvatures off the k=1 initialization to exercise transfers,
        # the logit scale off its start, and the attention bias to where the
        # pair scores fall on both sides of the LeakyReLU kink
        for l, t in enumerate(model.params.graph_kappa):
            t.data[...] = 0.3 * (l + 1)
        model.params.blocks[0].kappa.data[...] = -0.4
        model.params.logit_scale.data[...] = 0.3
        model.params.attn_b.data[...] = 0.01
        for _ in range(10):
            items = rng.integers(0, 9, size=rng.integers(1, 12)).tolist()
            got = model.forward(items).yhat.data
            want = oracle.forward(model, items)
            assert np.abs(got - want).max() < 1e-9


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = tiny_model(seed=25, graph_layers=2, attention_blocks=2)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, model, rng_seed=99)
        back, seed = load_checkpoint(path)
        assert seed == 99
        assert back.hyper == model.hyper
        assert back.catalog_size == model.catalog_size
        for (name_a, a), (name_b, b) in zip(
            model.params.named_parameters(), back.params.named_parameters()
        ):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data), name_a

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"format": "hcgr-v1", "params": {}}), encoding="utf-8")
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(str(path))

    def test_lands_at_exactly_the_given_path(self, tmp_path):
        save_checkpoint(str(tmp_path / "model"), tiny_model(seed=25), rng_seed=0)
        assert sorted(os.listdir(tmp_path)) == ["model"]
        load_checkpoint(str(tmp_path / "model"))

    @staticmethod
    def _write_v1_json(path, model):
        path.write_text(json.dumps({"format": "hcgr-v1", "params": {}}), encoding="utf-8")

    @staticmethod
    def _write_non_zip(path, model):
        path.write_bytes(b"\x00\x01 not an archive")

    @staticmethod
    def _write_lone_npy(path, model):
        with open(path, "wb") as fh:
            np.save(fh, model.params.embeddings.data)

    @staticmethod
    def _write_zip_without_header(path, model):
        with open(path, "wb") as fh:
            np.savez(fh, **model.params.state_arrays())

    @staticmethod
    def _write_list_header(path, model):
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array("[1, 2]"), **model.params.state_arrays())

    @staticmethod
    def _write_truncated(path, model):
        save_checkpoint(str(path), model, rng_seed=0)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    @pytest.mark.parametrize(
        "write",
        ["_write_v1_json", "_write_non_zip", "_write_lone_npy", "_write_zip_without_header",
         "_write_list_header", "_write_truncated"],
    )
    def test_non_checkpoint_rejected_naming_the_format(self, tmp_path, write):
        path = tmp_path / "ckpt"
        getattr(self, write)(path, tiny_model(seed=26))
        with pytest.raises(CheckpointError, match="hcgr-v2"):
            load_checkpoint(str(path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model(seed=26)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, model, rng_seed=0)
        with np.load(path) as npz:
            arrays = dict(npz)
        arrays["attn_w"] = np.array([0.0, 1.0])
        path2 = str(tmp_path / "bad.npz")
        np.savez(path2, **arrays)
        with pytest.raises(CheckpointError, match="attn_w"):
            load_checkpoint(path2)

    @staticmethod
    def _write_by_hand(path, hyperparams, arrays, catalog_size=5, rng_seed=3):
        header = {"format": CHECKPOINT_FORMAT, "hyperparams": hyperparams,
                  "catalog_size": catalog_size, "rng_seed": rng_seed}
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps(header)), **arrays)

    def test_hand_built_archive_loads(self, tmp_path):
        hyperparams = {"dim": 3, "graph_layers": 2, "attention_blocks": 2, "max_session_len": 7, "aggregator": "gcn_mean"}
        hyper = HyperParams(**hyperparams)
        rng = np.random.default_rng(4)
        arrays = {name: rng.normal(size=shape) for name, shape in expected_shapes(hyper, 5).items()}
        path = tmp_path / "ckpt"
        self._write_by_hand(path, hyperparams, arrays)
        model, seed = load_checkpoint(str(path))
        assert (model.hyper, model.catalog_size, seed) == (hyper, 5, 3)
        for name, t in model.params.named_parameters():
            assert t.data.tobytes() == arrays[name].tobytes(), name
        assert model.params.blocks[1].ff_b2.data.tobytes() == arrays["block.1.ff_b2"].tobytes()
        assert model.forward([0, 4, 0]).yhat.shape == (5,)

    @pytest.mark.parametrize(
        "size", [{"dim": 4.0}, {"graph_layers": True}, {"attention_blocks": 1.0}, {"max_session_len": 50.0}]
    )
    def test_non_integer_size_rejected(self, tmp_path, size):
        model = tiny_model(seed=27, catalog=5)
        path = tmp_path / "ckpt"
        self._write_by_hand(path, {**model.hyper.__dict__, **size}, model.params.state_arrays())
        with pytest.raises(CheckpointError, match=next(iter(size))):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "entry",
        [{"catalog_size": 5.0}, {"catalog_size": 5.9}, {"catalog_size": "5"}, {"catalog_size": True},
         {"rng_seed": 2.7}, {"rng_seed": "5"}, {"rng_seed": False}, {"rng_seed": None}],
    )
    def test_non_integer_header_entry_rejected(self, tmp_path, entry):
        # int() would load 5.9 as 5 and "5" as 5; True would pass as 1
        model = tiny_model(seed=27, catalog=5)
        name, value = next(iter(entry.items()))
        path = tmp_path / "ckpt"
        self._write_by_hand(path, model.hyper.__dict__, model.params.state_arrays(), **entry)
        with pytest.raises(CheckpointError, match=f"{name} must be an integer, got {value!r}"):
            load_checkpoint(str(path))

    def test_missing_seed_loads_as_zero(self, tmp_path):
        model = tiny_model(seed=27, catalog=5)
        path = tmp_path / "ckpt"
        header = {"format": CHECKPOINT_FORMAT, "hyperparams": model.hyper.__dict__, "catalog_size": 5}
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps(header)), **model.params.state_arrays())
        assert load_checkpoint(str(path))[1] == 0

    def test_missing_parameter_rejected(self, tmp_path):
        model = tiny_model(seed=27)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, model, rng_seed=0)
        with np.load(path) as npz:
            arrays = dict(npz)
        for name in ("gate_logit", "logit_scale"):
            with open(path, "wb") as fh:
                np.savez(fh, **{k: v for k, v in arrays.items() if k != name})
            with pytest.raises(CheckpointError, match=name):
                load_checkpoint(path)


class TestBatchForward:
    SESSIONS = [[3], [0, 1], [2, 2, 5], [0, 1, 2, 1, 0, 4], [7, 1, 8, 2, 6, 3, 5, 0, 4], list(range(9)) * 2 + [3]]

    def _model(self, aggregator="multi_hop"):
        hyper = HyperParams(dim=5, graph_layers=2, attention_blocks=2, max_session_len=12, aggregator=aggregator)
        model = HCGRModel.create(hyper, 9, seed=30)
        for l, t in enumerate(model.params.graph_kappa):
            t.data[...] = 0.3 * (l + 1)
        model.params.blocks[1].kappa.data[...] = -0.4
        model.params.logit_scale.data[...] = 0.3
        model.params.attn_b.data[...] = 0.01
        return model

    def test_mixed_length_rows_match_oracle(self):
        # lengths 1 to beyond max_session_len, padded to one node count
        model = self._model()
        out = model.forward(model.batch(self.SESSIONS))
        assert out.yhat.shape == (len(self.SESSIONS), 9)
        for row, items in zip(out.yhat.data, self.SESSIONS):
            assert np.abs(row - oracle.forward(model, items)).max() < 1e-9

    @pytest.mark.parametrize("aggregator", ["multi_hop", "gat_last_layer", "gcn_mean"])
    def test_rows_match_one_session_forward(self, aggregator):
        model = self._model(aggregator)
        out = model.forward(model.batch(self.SESSIONS))
        for b, items in enumerate(self.SESSIONS):
            one = model.forward(items)
            assert np.abs(out.yhat.data[b] - one.yhat.data).max() < 1e-12
            assert np.abs(out.readout.data[b] - one.readout.data).max() < 1e-12

    def test_padding_slots_are_masked(self):
        model = self._model()
        sb = model.batch([[4], [0, 1, 2]])
        assert sb.node_ids.shape == (2, 3) and sb.slots.tolist() == [0, 3, 4, 5] and sb.last_row.tolist() == [0, 3]
        assert sb.key_mask[0, 0].tolist() == [0.0, MASK_LOGIT, MASK_LOGIT]
        # a padding slot neighbours only itself
        assert np.array_equal(sb.bias[0, 1], [MASK_LOGIT, 0.0, MASK_LOGIT])
        out = model.forward(sb)
        for mat in out.graph_attention + out.self_attention:
            assert np.all(mat[0, 0, 1:] == 0.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            self._model().batch([])

    @pytest.mark.parametrize(
        "sessions", [[[0, 1], []], [[0, 9]], [[0, 1], [3, -1, 2]], [[0, 2**70]]], ids=["empty", "id-V", "negative", "id-2**70"]
    )
    def test_malformed_session_rejected(self, sessions):
        with pytest.raises(ValueError):
            self._model().batch(sessions)

    @staticmethod
    def _batch_reference(model, sessions):
        """node_ids, bias, key_mask, slots and last_row of HCGRModel.batch,
        built node by node from the oracle's session graphs and union
        neighbourhoods."""
        graphs = [oracle.build_graph(list(items)[-model.hyper.max_session_len :]) for items in sessions]
        n_max = max(len(nodes) for nodes, _, _ in graphs)
        uniform = model.hyper.aggregator == "gcn_mean"
        node_ids = np.zeros((len(graphs), n_max), dtype=np.intp)
        bias = np.full((len(graphs), n_max, n_max), MASK_LOGIT)
        key_mask = np.zeros((len(graphs), 1, n_max))
        slots, last_row = [], []
        for b, (nodes, last_pos, edges) in enumerate(graphs):
            n = len(nodes)
            node_ids[b, :n] = nodes
            last_row.append(len(slots) + last_pos)
            slots.extend(b * n_max + i for i in range(n))
            for i in range(n):
                for j, w in oracle.union_neighbors(edges, n, i):
                    bias[b, i, j] = 0.0 if uniform else math.log(w)
            pad = np.arange(n, n_max)
            bias[b, pad, pad] = 0.0
            key_mask[b, 0, n:] = MASK_LOGIT
        return node_ids, bias, key_mask, np.array(slots, dtype=np.intp), np.array(last_row, dtype=np.intp)

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_batch_arrays_byte_equal_neighborhood_build(self, aggregator):
        model = self._model(aggregator)
        rng = np.random.default_rng(32)
        # repeats, immediate self-loops and sessions beyond max_session_len (12)
        batches = [self.SESSIONS, [[4, 4, 4], [1, 2, 1, 2, 1, 2, 2]]]
        batches += [[rng.integers(0, 9, size=rng.integers(1, 30)).tolist() for _ in range(5)] for _ in range(40)]
        # ids from a 32,119-item catalog, repeating within each batch's pool
        wide = HCGRModel.create(model.hyper, 32119, seed=30)
        pools = [rng.integers(0, 32119, size=12) for _ in range(20)]
        wide_batches = [[pool[rng.integers(0, 12, size=rng.integers(1, 30))].tolist() for _ in range(5)] for pool in pools]
        for net, cases in ((model, batches), (wide, wide_batches)):
            for sessions in cases:
                sb = net.batch(sessions)
                got = (sb.node_ids, sb.bias, sb.key_mask, sb.slots, sb.last_row)
                names = ("node_ids", "bias", "key_mask", "slots", "last_row")
                for name, a, r in zip(names, got, self._batch_reference(net, sessions)):
                    assert a.dtype == r.dtype and a.shape == r.shape and a.tobytes() == r.tobytes(), (name, sessions)


class TestSelfPairs:
    def test_one_node_session_aggregates_exact_zero_tangent(self, monkeypatch):
        # log_x(x) = 0, so a node whose neighbourhood is itself moves by an
        # exactly zero tangent in every graph layer
        tangents = []
        exp_map_rows = mf.exp_map_rows

        def capture(X, V, k):
            tangents.append(V.data.copy())
            return exp_map_rows(X, V, k)

        monkeypatch.setattr(mf, "exp_map_rows", capture)
        for seed in range(8):
            model = tiny_model(seed=seed, graph_layers=2)
            for item in range(model.catalog_size):
                tangents.clear()
                model.forward([item])
                # only the graph layers call exp_map_rows
                assert len(tangents) == 2
                for V in tangents:
                    assert np.all(V == 0.0), (seed, item)


class TestTangentInterface:
    @pytest.mark.parametrize("aggregator", ["multi_hop", "gat_last_layer", "gcn_mean"])
    @pytest.mark.parametrize("layers, blocks", [(1, 1), (2, 2)])
    def test_maps_onto_the_hyperboloid_only_where_points_are_needed(self, monkeypatch, aggregator, layers, blocks):
        # stages hand on origin tangents: each graph layer maps its nodes once
        # and takes its output back once, each block maps its two biases and
        # takes the output of each feed-forward half back
        calls = {"exp_o_rows": 0, "log_o_rows": 0}
        for name in calls:
            fn = getattr(mf, name)

            def counted(*args, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(mf, name, counted)
        model = tiny_model(seed=31, graph_layers=layers, attention_blocks=blocks, aggregator=aggregator)
        model.forward(model.batch([[0, 1, 2, 1], [3, 4]]))
        assert calls == {"exp_o_rows": layers + 2 * blocks, "log_o_rows": layers + 2 * blocks}

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("layers, blocks", [(1, 1), (2, 2)])
    def test_maps_take_only_the_real_node_rows(self, monkeypatch, aggregator, layers, blocks):
        # outside the two attentions no stage computes a padding slot: every
        # manifold map of a batch receives one row per real node, except the
        # maps of the blocks' (d,) biases, which have no rows
        shapes, biases = [], 0
        for name in ("exp_o_rows", "log_o_rows", "exp_map_rows", "boost_rows", "weighted_log_rows"):
            fn = getattr(mf, name)

            def recorded(*args, _name=name, _fn=fn):
                nonlocal biases
                rows = [getattr(a, "shape", ())[:-1] for a in args]
                if _name == "exp_o_rows" and rows[0] == ():
                    biases += 1
                    return _fn(*args)
                # weighted_log_rows's weights keep the (B, n_max, n_max) slots;
                # boost_rows's (d+1,) point is a bias shared by every row
                shapes.append((_name, rows[1:2] if _name == "weighted_log_rows" else [r for r in rows if r]))
                return _fn(*args)

            monkeypatch.setattr(mf, name, recorded)
        sessions = [[0, 1, 2, 1], [3, 4], [5], [1, 2, 3, 1, 2, 0, 5, 4]]
        model = tiny_model(seed=31, graph_layers=layers, attention_blocks=blocks, aggregator=aggregator)
        sb = model.batch(sessions)
        n_real = sum(len(set(s)) for s in sessions)
        assert sb.node_ids.size > n_real
        model.forward(sb)
        assert [name for name, _ in shapes].count("exp_map_rows") == layers
        assert [name for name, _ in shapes].count("boost_rows") == biases == 2 * blocks
        for name, rows in shapes:
            assert rows and all(r == (n_real,) for r in rows), (name, rows)

    def test_no_point_transfer_between_curvatures(self):
        assert not hasattr(mf, "transfer_rows")
