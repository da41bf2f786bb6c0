"""The fused manifold maps, softplus, the graph-attention aggregation and
the model's two attention nodes, each one autodiff node, against the chains
of primitives they replaced (the boost, which never was a chain, against the
chain that writes out its formula).

A fused op's forward runs its chain's numpy operations in the chain's order,
so its value has the chain's bytes. Its hand-written backward agrees with
the chain's to roundoff on separated points and with central differences on
2-D and 3-D inputs, also on rows where a floor is active.
"""

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import manifold as mf
from hcgr.model import ATTN_SLOPE, HCGRModel, HyperParams, pair_attention, self_attention

import ref_ops as ref
from test_autodiff import check_grad
from test_manifold import _exp_o_composed

D = 3
SHAPES = ((5,), (2, 4))  # leading axes of 2-D and 3-D inputs


def composed_log_o(X, k):
    sk = ad.sqrt(ad.as_tensor(k))
    x0 = X[..., 0:1]
    d = ad.mul(sk, ad.arcosh(ad.clamp(ad.div(x0, sk), lo=1.0)))
    space = X[..., 1:]
    snorm = ad.sqrt(ad.clamp(ad.tsum(ad.mul(space, space), axis=-1, keepdims=True), lo=mf.MIN_SQ_NORM))
    return ad.mul(space, ad.div(d, snorm))


def composed_exp_map(X, V, k):
    sk = ad.sqrt(ad.as_tensor(k))
    nrm = ad.sqrt(ad.clamp(mf.rowwise_inner(V, V), lo=mf.MIN_SQ_NORM))
    arg = ad.div(nrm, sk)
    out = ad.add(ad.mul(X, ref.cosh(arg)), ad.mul(V, ad.div(ad.mul(sk, ref.sinh(arg)), nrm)))
    space = out[..., 1:]
    time = ad.sqrt(ad.add(ad.tsum(ad.mul(space, space), axis=-1, keepdims=True), k))
    return ref.concat([time, space], axis=-1)


def composed_boost(U, Y, k):
    sk = ad.sqrt(ad.as_tensor(k))
    nrm = ad.sqrt(ad.clamp(ad.tsum(ad.mul(U, U), axis=-1, keepdims=True), lo=mf.MIN_SQ_NORM))
    arg = ad.div(nrm, sk)
    cosh, sinh = ref.cosh(arg), ref.sinh(arg)
    e = ad.div(U, nrm)
    y0, ys = Y[..., 0:1], Y[..., 1:]
    a = ad.tsum(ad.mul(e, ys), axis=-1, keepdims=True)
    m = ad.add(ad.mul(ad.sub(cosh, 1.0), a), ad.mul(sinh, y0))
    return ref.concat([ad.add(ad.mul(cosh, y0), ad.mul(sinh, a)), ad.add(ys, ad.mul(m, e))], axis=-1)


def composed_weighted_log(A, X, k):
    mask = np.ones(X.shape[-1])
    mask[0] = -1.0
    G = ad.matmul(ad.mul(X, ad.constant(mask)), ad.transpose(X))
    d_pair = ad.mul(ad.sqrt(ad.as_tensor(k)), ad.arcosh(ad.clamp(ad.div(ad.neg(G), k), lo=1.0)))
    inv_unorm = ad.div(1.0, ad.sqrt(ad.clamp(ad.sub(ad.div(ad.mul(G, G), k), k), lo=mf.MIN_SQ_NORM)))
    C = ad.mul(ad.mul(ad.mul(A, d_pair), inv_unorm), ad.constant(1.0 - np.eye(X.shape[-2])))
    self_coef = ad.div(ad.tsum(ad.mul(C, G), axis=-1, keepdims=True), k)
    return ad.add(ad.matmul(C, X), ad.mul(X, self_coef))


def composed_softplus(a):
    a = ad.as_tensor(a)
    absval = ad.add(ad.relu(a), ad.relu(ad.neg(a)))
    return ad.add(ad.relu(a), ref.log(ad.add(1.0, ref.exp(ad.neg(absval)))))


def _points(rng, lead, k):
    return mf.exp_o_rows(ad.constant(rng.normal(size=lead + (D,))), k).data


def _tangents_at(rng, X, k):
    """Tangents at X: tangents (0, b) at the origin, boosted to X."""
    b = np.pad(rng.normal(size=X.shape[:-1] + (D,)), [(0, 0)] * (X.ndim - 1) + [(1, 0)])
    return mf.boost_rows(mf.log_o_rows(ad.constant(X), k), ad.constant(b), k).data


def _inputs(name, lead, seed):
    """Inputs of one op on separated points, curvature last (0-d array)."""
    rng = np.random.default_rng(seed)
    k = np.array(1.0 + 0.3 * seed)
    if name == "boost_rows":
        # a point per row on 2-D inputs, one point for all rows on 3-D ones
        return [rng.normal(size=lead + (D,)), _points(rng, lead if len(lead) == 1 else (), k), k]
    X = _points(rng, lead, k)
    if name == "log_o_rows":
        return [X, k]
    if name == "exp_map_rows":
        return [X, _tangents_at(rng, X, k), k]
    # weighted_log_rows: row-stochastic weights over each set of n points,
    # given as packed rows
    logits = rng.normal(size=lead + (lead[-1],))
    A = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    return [A, X.reshape(-1, D + 1), k]


def _to_slots(t, slots, lead):
    """Packed (N, w) rows laid out in the slots of the lead axes, zero rows
    in the padding, as a gather from the rows plus one zero row."""
    n = t.shape[0]
    index = np.full(int(np.prod(lead)), n)
    index[slots] = np.arange(n)
    rows = ref.concat([t, ad.constant(np.zeros((1, t.shape[-1])))], axis=0)
    return ad.take_rows(rows, index.reshape(lead))


def _from_slots(t, slots):
    return ad.take_rows(ref.reshape(t, (-1, t.shape[-1])), slots)


def composed_packed_weighted_log(slots):
    """The padded chain between a scatter of the packed rows into A's slots
    and a gather of the result."""
    return lambda A, X, k: _from_slots(composed_weighted_log(A, _to_slots(X, slots, A.shape[:-1]), k), slots)


def _every_slot(A, X, k):
    """weighted_log_rows on packed rows that fill every slot."""
    return mf.weighted_log_rows(A, X, k, np.arange(X.shape[0]))


def _every_slot_composed(A, X, k):
    return composed_packed_weighted_log(np.arange(X.shape[0]))(A, X, k)


# each fused map and the chain it is checked against
MAPS = {
    "log_o_rows": (mf.log_o_rows, composed_log_o),
    "exp_map_rows": (mf.exp_map_rows, composed_exp_map),
    "boost_rows": (mf.boost_rows, composed_boost),
    "weighted_log_rows": (_every_slot, _every_slot_composed),
}


def _grads(op, arrays, W):
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    ad.tsum(ad.mul(op(*tensors), ad.constant(W))).backward()
    return [t.grad for t in tensors]


def _assert_grads_match(fused, composed, arrays, rel=1e-12):
    W = np.random.default_rng(99).normal(size=fused(*[ad.constant(a) for a in arrays]).shape)
    for i, (gf, gc) in enumerate(zip(_grads(fused, arrays, W), _grads(composed, arrays, W))):
        assert np.all(np.isfinite(gf)), i
        assert np.abs(gf - gc).max() <= rel * np.abs(gc).max(), (i, np.abs(gf - gc).max(), np.abs(gc).max())


@pytest.mark.parametrize("name", MAPS)
class TestFusedMaps:
    def test_is_one_node(self, name):
        tensors = [ad.Tensor(a, requires_grad=True) for a in _inputs(name, (4,), 0)]
        out = MAPS[name][0](*tensors)
        assert out._parents == tuple(tensors)

    @pytest.mark.parametrize("lead", SHAPES)
    def test_forward_bytes_equal_composed_chain(self, name, lead):
        fused, composed = MAPS[name]
        for seed in range(3):
            arrays = _inputs(name, lead, seed)
            args = [ad.constant(a) for a in arrays]
            assert fused(*args).data.tobytes() == composed(*args).data.tobytes()
            # a plain float curvature, as checks.manifold_check passes
            args[-1] = float(arrays[-1])
            assert fused(*args).data.tobytes() == composed(*args).data.tobytes()

    @pytest.mark.parametrize("lead", SHAPES)
    def test_gradients_match_composed_chain(self, name, lead):
        for seed in range(3):
            _assert_grads_match(*MAPS[name], _inputs(name, lead, seed))

    @pytest.mark.parametrize("lead", SHAPES)
    def test_gradients_match_central_differences(self, name, lead):
        check_grad(MAPS[name][0], *_inputs(name, lead, 1))


def composed_transport_from_o(Y, B, k):
    """Transport of d-wide tangents B at the origin to the points Y:
    b + <y,b>_L / (k + sqrt(k) y_0) (o + y)."""
    sk = ad.sqrt(ad.as_tensor(k))
    y0, space = Y[..., 0:1], Y[..., 1:]
    coef = ad.div(ad.tsum(ad.mul(space, B), axis=-1, keepdims=True), ad.add(ad.mul(sk, y0), k))
    return ref.concat([ad.mul(ad.add(y0, sk), coef), ad.add(B, ad.mul(space, coef))], axis=-1)


def composed_bias_chain(U, B, k):
    """The feed-forward's bias as three maps, log_o(exp_h(PT_{o->h}(b))) at
    h = exp_o(u)."""
    H = _exp_o_composed(U, k)
    return composed_log_o(composed_exp_map(H, composed_transport_from_o(H, B, k), k), k)


def boosted_bias(U, B, k):
    """The same bias as the feed-forward adds it, through one boost."""
    return mf.log_o_rows(mf.boost_rows(U, mf.exp_o_rows(B, k), k), k)


class TestBoostAgainstBiasChain:
    """Where the three-map chain is accurate, |u| / sqrt(k) <= 3 (its error
    grows like eps e^(2 |u| / sqrt(k))), the boosted bias has the chain's
    value and gradients to 1e-12."""

    @pytest.mark.parametrize("d", [D, 16])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_value_and_gradients_match_the_chain(self, d, k):
        rng = np.random.default_rng(3)
        for radius in (0.1, 1.0, 2.0, 3.0):
            U = rng.normal(size=(6, d))
            U *= radius * np.sqrt(k) / np.linalg.norm(U, axis=1, keepdims=True)
            arrays = [U, rng.normal(size=d), np.array(k)]
            got = boosted_bias(*map(ad.constant, arrays)).data
            want = composed_bias_chain(*map(ad.constant, arrays)).data
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), radius
            _assert_grads_match(boosted_bias, composed_bias_chain, arrays)


class TestFloorRows:
    """Rows where a floor is active: forward bytes and gradients still match
    the composed chain, and central differences."""

    @staticmethod
    def _check(fused, composed, arrays):
        args = [ad.constant(a) for a in arrays]
        assert fused(*args).data.tobytes() == composed(*args).data.tobytes()
        _assert_grads_match(fused, composed, arrays)
        check_grad(fused, *arrays)

    @pytest.mark.parametrize("lead", SHAPES)
    def test_exp_map_floored_tangent_norm(self, lead):
        X, V, k = _inputs("exp_map_rows", lead, 2)
        rows = V.reshape(-1, D + 1)
        rows[1] = 0.0
        # a negative Lorentz square, floored like the zero tangent's
        rows[3] = [2.0, 0.1, -0.3, 0.2]
        self._check(mf.exp_map_rows, composed_exp_map, [X, V, k])

    @pytest.mark.parametrize("lead", SHAPES)
    def test_log_o_at_and_below_the_origin(self, lead):
        X, k = _inputs("log_o_rows", lead, 2)
        rows = X.reshape(-1, D + 1)
        # the origin itself: x0 / sqrt(k) is exactly 1 and the space block 0
        rows[0] = mf.exp_o_rows(ad.constant(np.zeros(D)), k).data
        assert rows[0, 0] / np.sqrt(k) == 1.0
        # x0 / sqrt(k) below 1, floored to 1: distance 0, whatever the space block
        rows[2, 0] = 0.9 * np.sqrt(k)
        self._check(mf.log_o_rows, composed_log_o, [X, k])

    @pytest.mark.parametrize("lead", SHAPES)
    def test_boost_floored_tangent_norm(self, lead):
        U, Y, k = _inputs("boost_rows", lead, 2)
        # a zero tangent: the boost is the identity
        U.reshape(-1, D)[1] = 0.0
        self._check(mf.boost_rows, composed_boost, [U, Y, k])
        out = mf.boost_rows(ad.constant(U), ad.constant(Y), k).data
        assert np.array_equal(out.reshape(-1, D + 1)[1], np.broadcast_to(Y, out.shape).reshape(-1, D + 1)[1])

    @pytest.mark.parametrize("lead", SHAPES)
    def test_weighted_log_with_a_padding_slot(self, lead):
        # slot 3 of each set is padding: a zero row that neighbours only
        # itself and is masked as a key, as HCGRModel.batch lays it out; its
        # pairs with real nodes floor both arcosh's argument and |u|^2
        _, X, k = _inputs("weighted_log_rows", lead, 2)
        slots = np.flatnonzero(np.arange(X.shape[0]) % lead[-1] != 3)
        X = X[slots]
        bias = np.zeros(lead + (lead[-1],))
        bias[..., 3, :] = bias[..., :, 3] = -1e30
        bias[..., 3, 3] = 0.0
        logits = np.random.default_rng(5).normal(size=bias.shape)

        def attend(aggregate):
            return lambda L, X, k: aggregate(ad.softmax_rows(ad.add(L, ad.constant(bias))), X, k)

        fused = lambda A, X, k: mf.weighted_log_rows(A, X, k, slots)
        self._check(attend(fused), attend(composed_packed_weighted_log(slots)), [logits, X, k])


class TestFusedSoftplus:
    VALUES = np.array([-40.0, -3.0, -0.2, 0.0, 0.7, 5.0, 45.0])

    def test_is_one_node(self):
        a = ad.Tensor(self.VALUES, requires_grad=True)
        assert ad.softplus(a)._parents == (a,)

    @pytest.mark.parametrize("shape", [(), (7,), (7, 1), (1, 7, 1)])
    def test_forward_bytes_and_gradients_equal_composed_chain(self, shape):
        x = self.VALUES[4 if shape == () else slice(None)].reshape(shape)
        assert ad.softplus(ad.constant(x)).data.tobytes() == composed_softplus(ad.constant(x)).data.tobytes()
        W = np.linspace(-1.0, 2.0, x.size).reshape(shape)
        [gf], [gc] = _grads(ad.softplus, [x], W), _grads(composed_softplus, [x], W)
        # the chain's relus give 0 at a = 0 exactly, where the derivative is 1/2;
        # everywhere else both are W sigmoid(a)
        off_zero = x != 0.0
        assert np.abs(gf - gc)[off_zero].max(initial=0.0) <= 1e-15 * np.abs(gc).max()
        assert np.abs(gf - W / (1.0 + np.exp(-x))).max() <= 1e-15 * np.abs(W).max()

    def test_curvature_is_two_nodes(self):
        raw = ad.Tensor(np.array(0.3), requires_grad=True)
        k = mf.curvature_from_raw(raw)
        assert k._parents[0]._parents == (raw,)


# -- packed rows: the model's batches ------------------------------------------

# 4, 2 and 3 nodes in 4 slots, so 3 padding slots
SESSIONS = [[0, 1, 2, 1, 3], [4, 5], [0, 2, 5, 2]]


def _batch():
    return HCGRModel.create(HyperParams(dim=D), 6, seed=0).batch(SESSIONS)


def composed_pair_attention(sb):
    def op(T, attn_w, attn_b):
        a_row = _to_slots(ref.reshape(ad.matmul(T, attn_w[:D]), (-1, 1)), sb.slots, sb.node_ids.shape)  # (B, n, 1)
        a_col = ad.transpose(_to_slots(ref.reshape(ad.matmul(T, attn_w[D:]), (-1, 1)), sb.slots, sb.node_ids.shape))  # (B, 1, n)
        pair = ad.add(ad.add(a_row, a_col), attn_b)
        return ad.softmax_rows(ad.add(ad.leaky_relu(pair, ATTN_SLOPE), ad.constant(sb.bias)))

    return op


def composed_self_attention(sb, temperature):
    def op(q, key, v):
        q, key, v = (_to_slots(t, sb.slots, sb.node_ids.shape) for t in (q, key, v))
        scores = ad.div(ad.matmul(q, ad.transpose(key)), temperature)
        attn = ad.softmax_rows(ad.add(scores, ad.constant(sb.key_mask)))
        return _from_slots(ad.matmul(attn, v), sb.slots)

    return op


class TestPackedAttentions:
    """The three nodes that lay packed rows out in a batch's slots: forward
    bytes and gradients of the chain that scatters, runs the padded chain and
    gathers, and central differences."""

    @staticmethod
    def _check(fused, composed, arrays):
        args = [ad.constant(a) for a in arrays]
        assert fused(*args).data.tobytes() == composed(*args).data.tobytes()
        _assert_grads_match(fused, composed, arrays)
        check_grad(fused, *arrays)

    def test_pair_attention(self):
        sb = _batch()
        rng = np.random.default_rng(7)
        T, attn_w, attn_b = rng.normal(size=(len(sb.slots), D)), rng.normal(size=2 * D), np.array(0.1)
        fused = lambda T, w, b: pair_attention(T, w, b, sb.bias, sb.slots)
        self._check(fused, composed_pair_attention(sb), [T, attn_w, attn_b])
        tensors = [ad.Tensor(a, requires_grad=True) for a in (T, attn_w, attn_b)]
        assert fused(*tensors)._parents == tuple(tensors)

    def test_self_attention(self):
        sb = _batch()
        rng = np.random.default_rng(8)
        q, key, v = (rng.normal(size=(len(sb.slots), D)) for _ in range(3))
        temperature = np.sqrt(D + 1)
        fused = lambda q, key, v: self_attention(q, key, v, sb.key_mask, sb.slots, temperature)[0]
        self._check(fused, composed_self_attention(sb, temperature), [q, key, v])
        tensors = [ad.Tensor(a, requires_grad=True) for a in (q, key, v)]
        out, attn = self_attention(*tensors, sb.key_mask, sb.slots, temperature)
        assert out._parents == tuple(tensors) and attn.shape == sb.bias.shape
        # no real query attends to a padding key
        real = np.zeros(sb.node_ids.size, dtype=bool)
        real[sb.slots] = True
        real = real.reshape(sb.node_ids.shape)
        assert np.all(attn[real[:, :, None] & ~real[:, None, :]] == 0.0)

    def test_weighted_log_of_packed_rows(self):
        sb = _batch()
        rng = np.random.default_rng(9)
        k = np.array(1.3)
        X = _points(rng, (len(sb.slots),), k)
        logits = rng.normal(size=sb.bias.shape)
        fused = lambda L, X, k: mf.weighted_log_rows(ad.softmax_rows(ad.add(L, ad.constant(sb.bias))), X, k, sb.slots)
        composed = composed_packed_weighted_log(sb.slots)
        self._check(fused, lambda L, X, k: composed(ad.softmax_rows(ad.add(L, ad.constant(sb.bias))), X, k), [logits, X, k])
