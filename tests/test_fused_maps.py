"""The fused manifold maps, softplus and the graph-attention aggregation,
each one autodiff node, against the chains of primitives they replaced.

A fused op's forward runs its chain's numpy operations in the chain's order,
so its value has the chain's bytes. Its hand-written backward agrees with
the chain's to roundoff on separated points and with central differences on
2-D and 3-D inputs, also on rows where a floor is active.
"""

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import manifold as mf

from test_autodiff import check_grad

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
    out = ad.add(ad.mul(X, ad.cosh(arg)), ad.mul(V, ad.div(ad.mul(sk, ad.sinh(arg)), nrm)))
    space = out[..., 1:]
    time = ad.sqrt(ad.add(ad.tsum(ad.mul(space, space), axis=-1, keepdims=True), k))
    return ad.concat([time, space], axis=-1)


def composed_transport_from_o(Y, B, k):
    sk = ad.sqrt(ad.as_tensor(k))
    y0, space = Y[..., 0:1], Y[..., 1:]
    coef = ad.div(ad.tsum(ad.mul(space, B), axis=-1, keepdims=True), ad.add(ad.mul(sk, y0), k))
    return ad.concat([ad.mul(ad.add(y0, sk), coef), ad.add(B, ad.mul(space, coef))], axis=-1)


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
    return ad.add(ad.relu(a), ad.log(ad.add(1.0, ad.exp(ad.neg(absval)))))


def _points(rng, lead, k):
    return mf.exp_o_rows(ad.constant(rng.normal(size=lead + (D,))), k).data


def _tangents_at(rng, X, k):
    return mf.transport_from_o_rows(ad.constant(X), ad.constant(rng.normal(size=X.shape[:-1] + (D,))), k).data


def _inputs(name, lead, seed):
    """Inputs of one op on separated points, curvature last (0-d array)."""
    rng = np.random.default_rng(seed)
    k = np.array(1.0 + 0.3 * seed)
    X = _points(rng, lead, k)
    if name == "log_o_rows":
        return [X, k]
    if name == "exp_map_rows":
        return [X, _tangents_at(rng, X, k), k]
    if name == "transport_from_o_rows":
        # a bias per row on 2-D inputs, one bias for all rows on 3-D ones
        return [X, rng.normal(size=(lead if len(lead) == 1 else ()) + (D,)), k]
    # weighted_log_rows: row-stochastic weights over the n points
    logits = rng.normal(size=lead + (lead[-1],))
    A = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    return [A, X, k]


MAPS = {
    "log_o_rows": composed_log_o,
    "exp_map_rows": composed_exp_map,
    "transport_from_o_rows": composed_transport_from_o,
    "weighted_log_rows": composed_weighted_log,
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
        out = getattr(mf, name)(*tensors)
        assert out._parents == tuple(tensors)

    @pytest.mark.parametrize("lead", SHAPES)
    def test_forward_bytes_equal_composed_chain(self, name, lead):
        for seed in range(3):
            arrays = _inputs(name, lead, seed)
            args = [ad.constant(a) for a in arrays]
            assert getattr(mf, name)(*args).data.tobytes() == MAPS[name](*args).data.tobytes()
            # a plain float curvature, as the typed single-point API passes
            args[-1] = float(arrays[-1])
            assert getattr(mf, name)(*args).data.tobytes() == MAPS[name](*args).data.tobytes()

    @pytest.mark.parametrize("lead", SHAPES)
    def test_gradients_match_composed_chain(self, name, lead):
        for seed in range(3):
            _assert_grads_match(getattr(mf, name), MAPS[name], _inputs(name, lead, seed))

    @pytest.mark.parametrize("lead", SHAPES)
    def test_gradients_match_central_differences(self, name, lead):
        check_grad(getattr(mf, name), *_inputs(name, lead, 1))


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
    def test_weighted_log_with_a_padding_slot_repeating_a_real_node(self, lead):
        # slot 3 is padding: it repeats the point of real node 0, neighbours
        # only itself and is masked as a key, as HCGRModel.batch lays it out
        _, X, k = _inputs("weighted_log_rows", lead, 2)
        X[..., 3, :] = X[..., 0, :]
        bias = np.zeros(lead + (lead[-1],))
        bias[..., 3, :] = bias[..., :, 3] = -1e30
        bias[..., 3, 3] = 0.0
        logits = np.random.default_rng(5).normal(size=bias.shape)

        def attend(aggregate):
            return lambda L, X, k: aggregate(ad.softmax_rows(ad.add(L, ad.constant(bias))), X, k)

        self._check(attend(mf.weighted_log_rows), attend(composed_weighted_log), [logits, X, k])
        # the padding row aggregates an exactly zero tangent
        out = mf.weighted_log_rows(ad.softmax_rows(ad.constant(logits + bias)), ad.constant(X), k).data
        assert np.all(out[..., 3, :] == 0.0)


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
