import math

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import manifold as mf
from hcgr import training as tr
from hcgr.checks import TOY_BATCH, gradient_check_toy, toy_model
from hcgr.dataset import preprocess, synth_hierarchical
from hcgr.metrics import RankingMetrics
from hcgr.model import AGGREGATORS, HCGRModel, HyperParams, ModelParams

import ref_ops as ref


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            tr.TrainConfig(patience=0)
        with pytest.raises(ValueError):
            tr.TrainConfig(margin=-0.1)
        with pytest.raises(ValueError):
            tr.TrainConfig(epochs=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("lr_decay", 0.0),
            ("lr_decay", -0.5),
            ("lr_decay", math.nan),
            ("lr_decay_every", 0),
            ("lr_decay_every", -1),
            ("ce_weight", math.nan),
            ("contrastive_weight", math.nan),
            ("margin", math.nan),
            ("l2", math.nan),
            ("l2", math.inf),
        ],
    )
    def test_rejects_values_that_crash_or_corrupt_a_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})

    def test_lr_schedule_halves_every_three_epochs(self):
        cfg = tr.TrainConfig(learning_rate=0.004)
        assert [cfg.lr_at_epoch(e) for e in (1, 2, 3, 4, 6, 7, 10)] == [
            0.004,
            0.004,
            0.004,
            0.002,
            0.002,
            0.001,
            0.0005,
        ]


class TestCrossEntropy:
    def test_perfect_prediction_is_almost_zero(self):
        y = np.full(6, 0.0)
        y[2] = 100.0
        loss = tr.cross_entropy_loss(ad.Tensor(y), 2)
        assert 0.0 <= float(loss.data) < 1e-10

    def test_uniform_two_items(self):
        loss = tr.cross_entropy_loss(ad.Tensor(np.array([0.5, 0.5])), 0)
        assert float(loss.data) == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.normal(size=8)
            loss = tr.cross_entropy_loss(ad.Tensor(z), int(rng.integers(8)))
            assert float(loss.data) >= 0.0

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            tr.cross_entropy_loss(ad.Tensor(np.full(4, 0.25)), 4)

    def test_batch_sums_rows(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 5))
        targets = np.array([4, 0, 4])
        rows = [float(tr.cross_entropy_loss(ad.Tensor(z[b]), int(t)).data) for b, t in enumerate(targets)]
        batched = float(tr.cross_entropy_loss(ad.Tensor(z), targets).data)
        assert batched == pytest.approx(sum(rows), rel=1e-12)
        with pytest.raises(ValueError):
            tr.cross_entropy_loss(ad.Tensor(z), targets[:2])

    def test_equals_clamped_softmax_form_inside_the_clamp(self):
        # the composed head this primitive replaced: softmax, probabilities
        # clamped to [1e-12, 1 - 1e-12], then the BCE sum over the catalog
        rng = np.random.default_rng(2)
        z = 3.0 * rng.normal(size=(6, 40))
        targets = rng.integers(40, size=6)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert p.min() >= 1e-12 and p.max() <= 1.0 - 1e-12
        p_t = p[np.arange(6), targets]
        want = -(np.log(p_t) - np.log(1.0 - p_t) + np.log(1.0 - p).sum(axis=1)).sum()
        got = float(tr.cross_entropy_loss(ad.Tensor(z), targets).data)
        assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def _grad_and_central_differences(z0, target, h=1e-5):
        z = ad.Tensor(np.array(z0), requires_grad=True)
        loss = tr.cross_entropy_loss(z, target)
        loss.backward()

        def value(x):
            return float(tr.cross_entropy_loss(ad.Tensor(x), target).data)

        fd = np.zeros(len(z0))
        for i in range(len(z0)):
            up, down = np.array(z0), np.array(z0)
            up[i] += h
            down[i] -= h
            fd[i] = (value(up) - value(down)) / (2.0 * h)
        return float(loss.data), z.grad, fd

    def test_saturated_wrong_prediction_keeps_its_gradient(self):
        # a probability clamp zeroes every logit gradient here
        loss, grad, fd = self._grad_and_central_differences([40.0, 0.0, 0.0, 0.0], 1)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert np.abs(grad).max() > 0.5
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_top_probability_within_1e_15_of_one(self):
        z0 = [60.0, 0.0, 0.0]
        assert 1.0 - 1.0 / (1.0 + 2.0 * math.exp(-60.0)) <= 1e-15
        for target in (0, 1):
            loss, grad, fd = self._grad_and_central_differences(z0, target)
            assert np.isfinite(loss) and loss > 0.0
            assert np.all(np.isfinite(grad))
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9 * np.abs(fd).max())

    def test_underflowing_rest_mass_wrong_prediction(self):
        # exp(-800) underflows to 0, so the non-argmax mass r is exactly 0;
        # the loss is -log p_1 - log(1 - p_0) - log(1 - p_2) = 800 + (800 - log 2)
        loss, grad, fd = self._grad_and_central_differences([800.0, 0.0, 0.0], 1)
        assert loss == pytest.approx(1600.0 - math.log(2.0), rel=1e-12)
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_underflowing_rest_mass_right_prediction(self):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            loss, grad, _ = self._grad_and_central_differences([800.0, 0.0, 0.0], 0)
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_underflowing_row_leaves_other_rows_unchanged(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 6))
        targets = np.array([1, 5, 3, 2])
        z_mixed = z.copy()
        z_mixed[2] = [900.0, 0.0, -5.0, 3.0, 0.0, 1.0]

        def grad(x):
            t = ad.Tensor(x, requires_grad=True)
            tr.cross_entropy_loss(t, targets).backward()
            return t.grad

        g, g_mixed = grad(z), grad(z_mixed)
        keep = [0, 1, 3]
        assert g[keep].tobytes() == g_mixed[keep].tobytes()
        assert np.all(np.isfinite(g_mixed))


def _points_on_geodesic(k, *arc_lengths):
    """Points at the given arc lengths along one geodesic from the origin."""
    d = 3
    out = []
    for s in arc_lengths:
        v = np.zeros(d)
        v[0] = s
        out.append(mf.exp_o_rows(ad.Tensor(v.reshape(1, -1)), k).data[0])
    return out


class TestContrastive:
    def test_hinge_at_boundary_is_zero(self):
        a, p = _points_on_geodesic(1.0, 0.0, 0.7)
        n = p.copy()
        loss = tr.contrastive_loss(
            ad.Tensor(a.reshape(1, -1)), ad.Tensor(p.reshape(1, -1)), ad.Tensor(n.reshape(1, -1)), 0.0, 1.0
        )
        assert float(loss.data) == 0.0

    def test_satisfied_margin_is_zero(self):
        a, p, n = _points_on_geodesic(1.0, 0.0, 0.3, 2.0)
        loss = tr.contrastive_loss(
            ad.Tensor(a.reshape(1, -1)), ad.Tensor(p.reshape(1, -1)), ad.Tensor(n.reshape(1, -1)), 0.5, 1.0
        )
        assert float(loss.data) == 0.0

    def test_geodesic_placement_value(self):
        # anchor at origin, positive at arc length 1.0, negative at 0.5
        a, p, n = _points_on_geodesic(1.0, 0.0, 1.0, 0.5)
        loss = tr.contrastive_loss(
            ad.Tensor(a.reshape(1, -1)), ad.Tensor(p.reshape(1, -1)), ad.Tensor(n.reshape(1, -1)), 0.2, 1.0
        )
        assert float(loss.data) == pytest.approx(0.7, abs=1e-9)

    def test_sums_over_negatives(self):
        a, p, n1, n2 = _points_on_geodesic(1.0, 0.0, 1.0, 0.5, 0.25)
        negs = ad.Tensor(np.stack([n1, n2]))
        loss = tr.contrastive_loss(
            ad.Tensor(a.reshape(1, -1)), ad.Tensor(p.reshape(1, -1)), negs, 0.0, 1.0
        )
        assert float(loss.data) == pytest.approx(0.5 + 0.75, abs=1e-9)

    def test_batch_sums_entries(self):
        a, p, n1, n2, n3 = _points_on_geodesic(1.0, 0.0, 1.0, 0.5, 0.25, 1.3)
        anchor = ad.Tensor(np.stack([a, p]).reshape(2, 1, -1))
        positive = ad.Tensor(np.stack([p, n1]).reshape(2, 1, -1))
        negs = ad.Tensor(np.stack([np.stack([n1, n2]), np.stack([n3, a])]))
        batched = float(tr.contrastive_loss(anchor, positive, negs, 0.4, 1.0).data)
        rows = [
            float(tr.contrastive_loss(anchor[b], positive[b], negs[b], 0.4, 1.0).data) for b in range(2)
        ]
        assert batched == pytest.approx(sum(rows), rel=1e-12)

    def test_empty_negatives_rejected(self):
        a, p = _points_on_geodesic(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tr.contrastive_loss(
                ad.Tensor(a.reshape(1, -1)),
                ad.Tensor(p.reshape(1, -1)),
                ad.Tensor(np.zeros((0, 4))),
                0.5,
                1.0,
            )


class TestTotalLoss:
    def test_zero_weights_zero_loss(self):
        model, _ = toy_model()
        cfg = tr.TrainConfig(ce_weight=0.0, contrastive_weight=0.0, l2=0.0, epochs=1)
        negs = [np.array([4]), np.array([1]), np.array([0])]
        loss = tr.total_loss(model, TOY_BATCH, negs, cfg)
        assert float(loss.data) == 0.0

    def test_composition_matches_hand_sum(self):
        model, _ = toy_model(seed=5)
        cfg = tr.TrainConfig(ce_weight=0.7, contrastive_weight=0.2, l2=1e-3, epochs=1)
        negs = [np.array([4]), np.array([1]), np.array([0])]
        total = float(tr.total_loss(model, TOY_BATCH, negs, cfg).data)

        caches = model.caches()
        k0 = caches.graph_k[0]
        ce, con = [], []
        for (session, target), n in zip(TOY_BATCH, negs):
            res = model.forward(session, caches=caches)
            ce.append(float(tr.cross_entropy_loss(res.logits, target).data))
            anchor = mf.exp_o_rows(ref.reshape(res.readout[1:], (1, -1)), k0)
            pos = model.item_points([target], k0)
            neg = model.item_points(n, k0)
            con.append(float(tr.contrastive_loss(anchor, pos, neg, cfg.margin, k0).data))
        want = 0.7 * np.mean(ce) + 0.2 * np.mean(con) + 1e-3 * float(tr.l2_penalty(model).data)
        assert total == pytest.approx(want, rel=1e-12)

    def test_beta_zero_reduces_to_ce_plus_l2(self):
        model, _ = toy_model(seed=6)
        cfg = tr.TrainConfig(ce_weight=1.0, contrastive_weight=0.0, l2=2e-3, epochs=1)
        negs = [np.array([4]), np.array([1]), np.array([0])]
        total = float(tr.total_loss(model, TOY_BATCH, negs, cfg).data)
        caches = model.caches()
        ce = [
            float(tr.cross_entropy_loss(model.forward(s, caches=caches).logits, t).data)
            for s, t in TOY_BATCH
        ]
        want = np.mean(ce) + 2e-3 * float(tr.l2_penalty(model).data)
        assert total == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("layers, blocks", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_padding_adds_nothing_to_a_gradient(self, aggregator, layers, blocks):
        # one to nine nodes per session, the last cut to max_session_len (9),
        # so the batch pads every session but one; each parameter's batch
        # gradient is the mean of its one-session gradients
        hyper = HyperParams(dim=5, graph_layers=layers, attention_blocks=blocks, max_session_len=9, aggregator=aggregator)
        model = HCGRModel.create(hyper, 14, seed=40)
        for l, t in enumerate(model.params.graph_kappa):
            t.data[...] = 0.3 * (l + 1)
        model.params.blocks[-1].kappa.data[...] = -0.4
        model.params.attn_b.data[...] = 0.05
        batch = [([3], 5), ([0, 1], 2), ([2, 2, 5, 7, 2], 1), ([6, 1, 6, 1, 9, 12, 4], 10), (list(range(14)) + [3, 4], 0)]
        assert len(batch[-1][0]) > hyper.max_session_len
        cfg = tr.TrainConfig(contrastive_weight=0.5, negatives=3, margin=1.0, l2=0.0)
        rng = np.random.default_rng(41)
        negs = [tr.draw_negatives(rng, s, t, 14, 3) for s, t in batch]

        def grads(pairs, pair_negs):
            model.params.zero_grads()
            tr.total_loss(model, pairs, pair_negs, cfg).backward()
            return {name: t.grad.copy() for name, t in model.params.named_parameters()}

        batched = grads(batch, negs)
        # total_loss divides by the batch size, so each one-session
        # gradient enters the batch gradient weighted by 1 / B
        summed = {name: np.zeros_like(g) for name, g in batched.items()}
        for pair, n in zip(batch, negs):
            for name, g in grads([pair], [n]).items():
                summed[name] += g / len(batch)
        # relative to the batch's largest entry: a gradient that cancels to
        # almost nothing, such as a one-node session's w_key (about 1e-22),
        # carries roundoff far above its own size
        largest = max(np.abs(g).max() for g in batched.values())
        for name, g in batched.items():
            assert np.abs(g - summed[name]).max() <= 1e-12 * largest, name

    def test_one_session_node_budget(self):
        # a one-session forward (a recommend request) has no padding, so the
        # packed layout may add no bookkeeping nodes to it
        for aggregator, budget in (("multi_hop", 58), ("gat_last_layer", 52), ("gcn_mean", 47)):
            model = HCGRModel.create(HyperParams(dim=16, aggregator=aggregator), 100, seed=7)
            assert _count_nodes(model.forward([1, 2, 3, 2, 5, 9]).logits) <= budget, aggregator

    def test_graph_size_does_not_grow_with_batch(self):
        ds = _toy_pairs()
        model = HCGRModel.create(HyperParams(dim=4), ds.n_items, seed=5)
        cfg = tr.TrainConfig(contrastive_weight=0.5, negatives=2)
        rng = np.random.default_rng(6)
        counts = []
        for size in (1, 8, 32):
            batch = ds.train[:size]
            negs = [tr.draw_negatives(rng, s, t, ds.n_items, 2) for s, t in batch]
            counts.append(_count_nodes(tr.total_loss(model, batch, negs, cfg)))
        assert counts[0] == counts[1] == counts[2], counts

    def test_desk_batch_node_count(self):
        # each manifold map and the graph-attention aggregation is one node
        ds = preprocess(synth_hierarchical(100, 2000, seed=7), [f"i{v}" for v in range(100)], seed=7)
        batch = ds.train[:32]
        model = HCGRModel.create(HyperParams(dim=16), ds.n_items, seed=7)
        cfg = tr.TrainConfig(batch_size=32, contrastive_weight=0.5, negatives=2, margin=1.0, l2=0.0)
        rng = np.random.default_rng(7)
        negs = [tr.draw_negatives(rng, s, t, ds.n_items, 2) for s, t in batch]
        assert _count_nodes(tr.total_loss(model, batch, negs, cfg)) <= 90

    def test_every_parameter_entry_gets_a_gradient(self):
        """Each entry of each parameter reaches the loss: with the L2 term
        off, none has an exactly zero gradient."""
        hyper = HyperParams(dim=6, graph_layers=2, attention_blocks=2, aggregator="multi_hop")
        model = HCGRModel.create(hyper, 12, seed=8)
        cfg = tr.TrainConfig(l2=0.0)
        rng = np.random.default_rng(9)
        batch = [(rng.integers(0, 12, size=rng.integers(2, 7)).tolist(), int(rng.integers(0, 12))) for _ in range(8)]
        negs = [tr.draw_negatives(rng, s, t, 12, cfg.negatives) for s, t in batch]
        model.params.zero_grads()
        tr.total_loss(model, batch, negs, cfg).backward()
        for name, t in model.params.named_parameters():
            assert np.all(t.grad != 0.0), (name, np.argwhere(t.grad == 0.0).tolist())

    def test_l2_excludes_curvature(self):
        model, _ = toy_model(seed=7)
        before = float(tr.l2_penalty(model).data)
        model.params.graph_kappa[0].data += 10.0
        model.params.blocks[0].kappa.data += 10.0
        model.params.logit_scale.data += 10.0
        assert float(tr.l2_penalty(model).data) == before

    def test_l2_covers_exactly_the_drawn_parameters(self):
        """The penalty reaches the parameters whose starting values depend
        on the seed, and no other."""
        hyper = HyperParams(dim=4, graph_layers=2, attention_blocks=2)
        model, other = (HCGRModel.create(hyper, 6, seed=s) for s in (1, 2))
        drawn = {name for (name, a), (_, b) in zip(model.params.named_parameters(), other.params.named_parameters())
                 if not np.array_equal(a.data, b.data)}
        model.params.zero_grads()
        penalty = tr.l2_penalty(model)
        penalty.backward()
        covered = {name for name, t in model.params.named_parameters() if np.any(t.grad != 0.0)}
        assert covered == drawn
        assert len(drawn) == 5 + 7 * 2  # embeddings, attn_w, attn_b, fusion_logits, gate_logit; 7 per block
        assert float(penalty.data) == pytest.approx(
            sum(float(np.sum(t.data**2)) for name, t in model.params.named_parameters() if name in drawn), rel=1e-14)


class TestCatalogIndependence:
    """Per-batch work must not scale with the catalog: only the rows a batch
    gathers are mapped onto the hyperboloid."""

    BATCH = [([0, 1, 2], 3), ([4, 5], 6), ([2], 0)]
    NEGATIVES = [np.array([5, 6]), np.array([0, 1]), np.array([3, 4])]

    def _loss(self, catalog):
        model = HCGRModel.create(HyperParams(dim=4), catalog, seed=8)
        # no L2 term: its squares of the embedding table are catalog-sized by design
        cfg = tr.TrainConfig(contrastive_weight=0.5, negatives=2, l2=0.0)
        return model, tr.total_loss(model, self.BATCH, self.NEGATIVES, cfg)

    def test_caches_hold_no_catalog_rows(self):
        model = HCGRModel.create(HyperParams(dim=4), 500, seed=8)
        for name, value in vars(model.caches()).items():
            for t in value if isinstance(value, list) else [value]:
                assert t.data.ndim == 0 or t.data.shape[0] != 500, name

    def test_node_count_does_not_grow_with_catalog(self):
        assert _count_nodes(self._loss(7)[1]) == _count_nodes(self._loss(500)[1])

    def test_no_recorded_table_of_catalog_rows(self):
        model, loss = self._loss(500)
        seen, stack, tables = {id(loss)}, [loss], []
        while stack:
            node = stack.pop()
            if node is not model.params.embeddings and node.data.ndim and node.data.shape[0] == 500:
                tables.append(node.data.shape)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert not tables


class TestAdam:
    def test_three_steps_byte_equal_textbook(self):
        model, cfg = toy_model(seed=21)
        state = tr.TrainState(model=model, config=cfg)
        rng = np.random.default_rng(22)
        params = {name: t.data.copy() for name, t in model.params.named_parameters()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
        lr = 0.01
        for t in range(1, 4):
            for name, param in model.params.named_parameters():
                g = param.grad
                g[...] = rng.normal(size=g.shape)
                m, v = moments[name]
                m = tr.ADAM_BETA1 * m + (1.0 - tr.ADAM_BETA1) * g
                v = tr.ADAM_BETA2 * v + (1.0 - tr.ADAM_BETA2) * g * g
                m_hat = m / (1.0 - tr.ADAM_BETA1**t)
                v_hat = v / (1.0 - tr.ADAM_BETA2**t)
                params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)
                moments[name] = (m, v)
            tr.adam_step(state, lr)
        for name, param in model.params.named_parameters():
            assert param.data.tobytes() == params[name].tobytes(), name
            assert state.moments[name][0].tobytes() == moments[name][0].tobytes(), name
            assert state.moments[name][1].tobytes() == moments[name][1].tobytes(), name

    def test_row_blocks_byte_equal_whole_array_update(self):
        # a (32119, 64) table is swept in blocks, the last one partial
        model = HCGRModel.create(HyperParams(dim=64), 32119, seed=23)
        state = tr.TrainState(model=model, config=tr.TrainConfig())
        table = model.params.embeddings
        assert 32119 * 64 % tr.ADAM_BLOCK != 0
        rng = np.random.default_rng(24)
        p = table.data.copy()
        m, v = np.zeros_like(p), np.zeros_like(p)
        lr = 0.005
        for t in range(1, 3):
            g = table.grad
            g[...] = rng.normal(size=g.shape)
            m = tr.ADAM_BETA1 * m + (1.0 - tr.ADAM_BETA1) * g
            v = tr.ADAM_BETA2 * v + (1.0 - tr.ADAM_BETA2) * g * g
            p = p - lr * (m / (1.0 - tr.ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - tr.ADAM_BETA2**t)) + tr.ADAM_EPS)
            tr.adam_step(state, lr)
        assert table.data.tobytes() == p.tobytes()
        assert state.moments["embeddings"][0].tobytes() == m.tobytes()
        assert state.moments["embeddings"][1].tobytes() == v.tobytes()

    def test_fortran_ordered_arrays_update_in_place(self):
        # adam_step writes through flat views of the parameters, which a
        # Fortran-ordered array cannot give; from_arrays holds them C-ordered
        hyper = HyperParams(dim=4, graph_layers=1, attention_blocks=1)
        model = HCGRModel.create(hyper, 7, seed=25)
        before = model.params.state_arrays()
        fortran = {name: np.array(a, order="F") for name, a in before.items()}
        other = HCGRModel(hyper, 7, ModelParams.from_arrays(hyper, 7, fortran))
        states = [tr.TrainState(model=m, config=tr.TrainConfig()) for m in (model, other)]
        rng = np.random.default_rng(26)
        for _ in range(2):
            for name, t in model.params.named_parameters():
                t.grad[...] = rng.normal(size=t.grad.shape)
                other.params.by_name[name].grad[...] = t.grad
            for state in states:
                tr.adam_step(state, 0.01)
        for name, t in other.params.named_parameters():
            assert not np.array_equal(t.data, before[name]), name
            assert t.data.tobytes() == model.params.by_name[name].data.tobytes(), name


def _read_only_gradients(root):
    """Wrap the backward closure of every node recorded under ``root`` so
    that the gradient it receives is a read-only array."""
    seen, stack = {id(root)}, [root]
    while stack:
        node = stack.pop()
        if node._backward is not None:
            def back(g, fn=node._backward):
                g = np.asarray(g).view()
                g.flags.writeable = False
                return fn(g)

            node._backward = back
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)


class TestReadOnlyIncomingGradients:
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_desk_batch_backward_never_writes_into_its_gradient(self, aggregator):
        # tsum hands its operand a read-only broadcast view as gradient
        ds = preprocess(synth_hierarchical(100, 2000, seed=7), [f"i{v}" for v in range(100)], seed=7)
        batch = ds.train[:32]
        model = HCGRModel.create(HyperParams(dim=16, aggregator=aggregator), ds.n_items, seed=7)
        cfg = tr.TrainConfig(batch_size=32, contrastive_weight=0.5, negatives=2, margin=1.0, l2=0.0)
        rng = np.random.default_rng(7)
        negs = [tr.draw_negatives(rng, s, t, ds.n_items, 2) for s, t in batch]

        def leaf_grads(read_only):
            model.params.zero_grads()
            loss = tr.total_loss(model, batch, negs, cfg)
            if read_only:
                _read_only_gradients(loss)
            loss.backward()
            return {name: t.grad.tobytes() for name, t in model.params.named_parameters()}

        assert leaf_grads(read_only=True) == leaf_grads(read_only=False)


def pool_negatives(rng, session, target, catalog_size, count):
    """Reference draw: rng.choice over the catalog without session and target."""
    keep = np.ones(catalog_size, dtype=bool)
    keep[session] = False
    keep[target] = False
    pool = np.flatnonzero(keep)
    if pool.size == 0:
        return pool
    return rng.choice(pool, size=count, replace=pool.size < count)


class TestNegativeSampling:
    @pytest.mark.parametrize(
        "session, target, catalog_size, count",
        [
            ([3, 5, 3, 11], 8, 20, 6),  # repeated session items
            ([0, 1, 2], 3, 6, 5),  # pool of 2, smaller than count
            ([0, 1], 2, 3, 1),  # empty pool
            ([0], 0, 1, 2),  # empty pool, one item
            ([4, 2, 7], 7, 9, 3),  # target inside the session
            ([0, 9], 5, 10, 4),  # ids 0 and V-1 excluded
            ([8, 8], 0, 9, 8),  # pool exactly count
            ([1], 2, 32119, 2),
            (np.array([6, 1, 6]), 9, 10, 7),
        ],
    )
    def test_equals_pool_reference(self, session, target, catalog_size, count):
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = pool_negatives(a, session, target, catalog_size, count)
            got = tr.draw_negatives(b, session, target, catalog_size, count)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert b.bit_generator.state == a.bit_generator.state

    def test_equals_pool_reference_on_random_cases(self):
        meta = np.random.default_rng(0)
        for _ in range(500):
            catalog_size = int(meta.integers(1, 80))
            session = meta.integers(0, catalog_size, size=meta.integers(1, 30)).tolist()
            target = int(meta.integers(catalog_size))
            count = int(meta.integers(1, 6))
            seed = int(meta.integers(2**31))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = pool_negatives(a, session, target, catalog_size, count)
            got = tr.draw_negatives(b, session, target, catalog_size, count)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert b.bit_generator.state == a.bit_generator.state

    @pytest.mark.parametrize("session, target", [([0, 12], 1), ([-1, 3], 1), ([2], 12)])
    def test_ids_outside_catalog_rejected(self, session, target):
        with pytest.raises(ValueError):
            tr.draw_negatives(np.random.default_rng(0), session, target, catalog_size=12, count=1)

    def test_excludes_session_and_target(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            session = [0, 2, 4]
            negs = tr.draw_negatives(rng, session, 1, catalog_size=8, count=3)
            assert not set(negs.tolist()) & {0, 1, 2, 4}

    def test_empty_pool(self):
        rng = np.random.default_rng(2)
        negs = tr.draw_negatives(rng, [0, 1], 2, catalog_size=3, count=1)
        assert negs.size == 0

    def test_draws_are_pinned_for_a_fixed_seed(self):
        # the pool is the sorted catalog minus session and target, so the
        # draws and the generator's state depend only on the seed
        rng = np.random.default_rng(7)
        session = [3, 5, 3, 11]
        assert tr.draw_negatives(rng, session, 8, catalog_size=20, count=6).tolist() == [18, 12, 16, 14, 10, 19]
        assert tr.draw_negatives(rng, session, 8, catalog_size=20, count=6).tolist() == [9, 2, 0, 14, 13, 16]
        # a pool smaller than the count draws with replacement
        assert tr.draw_negatives(rng, [0, 1, 2], 3, catalog_size=6, count=5).tolist() == [4, 4, 5, 4, 5]
        assert rng.integers(1000) == 445


def _count_nodes(root) -> int:
    """Recorded operations reachable from root."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def _toy_pairs(n_items=20, n_sessions=200, seed=0):
    sessions = synth_hierarchical(n_items, n_sessions, seed=seed)
    return preprocess(sessions, [f"i{v}" for v in range(n_items)], seed=seed)


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_parameters(self):
        model, cfg = toy_model(seed=8)
        state = tr.TrainState(model=model, config=cfg)
        before = model.params.state_arrays()
        tr.train_epoch(state, [(s, t) for s, t in TOY_BATCH], lr=0.0)
        after = model.params.state_arrays()
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_deterministic_across_runs(self):
        def run():
            model, _ = toy_model(seed=9)
            cfg = tr.TrainConfig(epochs=1, batch_size=2, seed=3)
            state = tr.TrainState(model=model, config=cfg)
            tr.train_epoch(state, [(s, t) for s, t in TOY_BATCH], lr=0.01)
            return model.params.state_arrays()

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_loss_decreases_on_toy_corpus(self):
        ds = _toy_pairs()
        hyper = HyperParams(dim=8, graph_layers=1, attention_blocks=1)
        model = HCGRModel.create(hyper, ds.n_items, seed=11)
        cfg = tr.TrainConfig(learning_rate=0.01, batch_size=16, epochs=5, seed=11)
        state = tr.TrainState(model=model, config=cfg)
        losses = [tr.train_epoch(state, ds.train, lr=0.01) for _ in range(5)]
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_numeric_blowup_names_batch(self):
        model, cfg = toy_model(seed=12)
        model.params.embeddings.data[...] = 1e6
        state = tr.TrainState(model=model, config=cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tr.TrainingNumericError, match="batch 0"):
                tr.train_epoch(state, [(s, t) for s, t in TOY_BATCH], lr=0.01)

    def test_empty_split_rejected(self):
        model, cfg = toy_model()
        state = tr.TrainState(model=model, config=cfg)
        with pytest.raises(ValueError):
            tr.train_epoch(state, [], lr=0.01)

    def test_item_points_stay_on_hyperboloid_after_updates(self):
        model, cfg = toy_model(seed=19)
        state = tr.TrainState(model=model, config=cfg)
        for _ in range(3):
            tr.train_epoch(state, [(s, t) for s, t in TOY_BATCH], lr=0.05)
        pts, k = model.catalog_points()
        k = float(k.data)
        inner = -pts[:, 0] ** 2 + (pts[:, 1:] ** 2).sum(axis=1)
        assert np.abs(inner + k).max() < 1e-8


class TestFit:
    def test_zero_epochs_returns_initial_state(self):
        ds = _toy_pairs(n_sessions=60)
        hyper = HyperParams(dim=4, graph_layers=1, attention_blocks=1)
        model = HCGRModel.create(hyper, ds.n_items, seed=13)
        before = model.params.state_arrays()
        cfg = tr.TrainConfig(epochs=0, seed=13)
        state = tr.fit(model, cfg, ds.train, ds.valid)
        assert state.epoch == 0
        assert state.best_arrays is None
        for name, arr in model.params.state_arrays().items():
            assert np.array_equal(arr, before[name])

    def test_patience_one_with_flat_metric_stops_at_epoch_two(self, monkeypatch):
        flat = RankingMetrics({10: 0.5, 20: 0.5}, {10: 0.5, 20: 0.5}, {10: 0.5, 20: 0.5}, 1)
        monkeypatch.setattr(tr, "evaluate", lambda *a, **kw: flat)
        ds = _toy_pairs(n_sessions=60)
        hyper = HyperParams(dim=4, graph_layers=1, attention_blocks=1)
        model = HCGRModel.create(hyper, ds.n_items, seed=14)
        cfg = tr.TrainConfig(epochs=50, patience=1, batch_size=16, seed=14)
        state = tr.fit(model, cfg, ds.train, ds.valid)
        assert state.epoch == 2
        assert state.best_epoch == 1

    def test_best_snapshot_is_running_maximum(self):
        ds = _toy_pairs(n_sessions=120, seed=2)
        hyper = HyperParams(dim=4, graph_layers=1, attention_blocks=1)
        model = HCGRModel.create(hyper, ds.n_items, seed=15)
        cfg = tr.TrainConfig(learning_rate=0.01, epochs=4, batch_size=16, seed=15)
        state = tr.fit(model, cfg, ds.train, ds.valid)
        mrrs = [h["mrr20"] for h in state.history]
        assert state.best_mrr == pytest.approx(max(mrrs))
        assert mrrs[state.best_epoch - 1] == pytest.approx(state.best_mrr)

    def test_log_line_format(self):
        ds = _toy_pairs(n_sessions=60, seed=3)
        hyper = HyperParams(dim=4, graph_layers=1, attention_blocks=1)
        model = HCGRModel.create(hyper, ds.n_items, seed=16)
        cfg = tr.TrainConfig(epochs=1, batch_size=16, seed=16)
        lines = []
        tr.fit(model, cfg, ds.train, ds.valid, log=lines.append)
        assert len(lines) == 1
        fields = lines[0].split()
        keys = [f.split("=")[0] for f in fields]
        assert keys == ["epoch", "loss", "val_hr20", "val_mrr20", "val_ndcg20", "lr"]


class TestGradientCheck:
    def test_toy_model_both_loss_mixes(self):
        for beta in (0.0, 0.1):
            report = gradient_check_toy(contrastive_weight=beta)
            assert report.passed, (beta, report.max_rel_error, report.worst_param)
            assert report.max_rel_error < 1e-3

    def test_parameter_budget_enforced(self):
        hyper = HyperParams(dim=24, graph_layers=1, attention_blocks=2)
        model = HCGRModel.create(hyper, 64, seed=17)
        cfg = tr.TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="5000"):
            tr.gradient_check(model, TOY_BATCH, cfg)
