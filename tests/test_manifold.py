import decimal
import math

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import manifold as mf
from hcgr.checks import manifold_check

import oracle
import ref_ops as ref
from test_autodiff import check_grad


def row(a) -> ad.Tensor:
    """One point or tangent as a (1, w) row constant."""
    return ad.constant(np.asarray(a, dtype=np.float64).reshape(1, -1))


def first(t: ad.Tensor) -> np.ndarray:
    """The first row of an op's result."""
    return t.data[0]


def violation(x, k) -> float:
    """|<x,x>_L + k|: how far a point is off the hyperboloid of k."""
    return abs(oracle.mink(x, x) + k)


def random_point(rng, d, k, max_norm=2.0):
    """A point within geodesic radius max_norm of the origin, (d+1,)."""
    v = rng.normal(size=d)
    v *= rng.uniform(1e-3, max_norm) / np.linalg.norm(v)
    return first(mf.exp_o_rows(row(v), k))


def random_tangent(rng, x, k, max_norm=2.0):
    """A tangent at x of Lorentz norm at most max_norm, carried from the
    origin, (d+1,)."""
    b = rng.normal(size=len(x) - 1)
    b *= rng.uniform(1e-3, max_norm) / np.linalg.norm(b)
    return transport(x, b, k)


def inner(x, y) -> float:
    return float(mf.rowwise_inner(row(x), row(y)).data[0, 0])


def norm(v) -> float:
    """Lorentz norm sqrt(<v,v>_L) of a tangent, the length the exponential
    and logarithmic maps measure it by."""
    return math.sqrt(inner(v, v))


def distance(x, y, k) -> float:
    return float(mf.dist_rows(row(x), row(y), k).data[0, 0])


def exp_map(x, v, k):
    return first(mf.exp_map_rows(row(x), row(v), k))


def log_map(x, y, k):
    """log_x(y) through the network's log map: row 0 of weighted_log_rows
    over the packed pair [x, y], weight 1 on (0, 1) and 0 elsewhere."""
    pair = ad.constant(np.stack([x, y]))
    return first(mf.weighted_log_rows(ad.constant([[0.0, 1.0], [0.0, 0.0]]), pair, k, np.arange(2)))


def boost(x, y, k):
    """y under the boost that carries the origin to the point x, (d+1,)."""
    return first(mf.boost_rows(mf.log_o_rows(row(x), k), row(y), k))


def transport(y, b, k):
    """A d-wide tangent b at the origin carried to y, (d+1,): the boost of
    (0, b)."""
    return boost(y, np.concatenate([[0.0], b]), k)


class TestLorentzInner:
    def test_origin_self_inner(self):
        o = oracle.origin(2, 1.0)
        assert inner(o, o) == -1.0

    def test_analytic_value(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
        got = inner(x, y)
        assert abs(got + math.cosh(1.0)) < 1e-15
        assert abs(got + 1.5431) < 1e-4

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.normal(size=5), rng.normal(size=5)
            assert inner(x, y) == inner(y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.ones(3), np.ones(4))


class TestLorentzNorm:
    def test_zero_vector(self):
        assert norm(np.zeros(3)) == 0.0

    def test_euclidean_part(self):
        assert norm(np.array([0.0, 1.0, 0.0])) == 1.0

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = np.concatenate([[0.0], rng.normal(size=6)])
            alpha = rng.normal()
            n1 = norm(alpha * v)
            n2 = abs(alpha) * norm(v)
            assert abs(n1 - n2) <= 1e-12 * max(n2, 1e-300)


class TestDistance:
    def test_self_distance_zero(self):
        o = oracle.origin(2, 1.0)
        assert distance(o, o, 1.0) == 0.0

    def test_unit_speed_geodesic(self):
        o = oracle.origin(2, 1.0)
        for t in (0.1, 1.0, 3.0):
            p = np.array([math.cosh(t), math.sinh(t), 0.0])
            assert abs(distance(o, p, 1.0) - t) < 1e-10

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = rng.choice([0.5, 1.0, 2.0])
            x, y, z = (random_point(rng, 4, k) for _ in range(3))
            assert distance(x, z, k) <= distance(x, y, k) + distance(y, z, k) + 1e-9

    def test_matches_straight_line_distance(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            k = float(rng.choice([0.5, 1.0, 2.0]))
            x, y = random_point(rng, 5, k), random_point(rng, 5, k)
            assert abs(distance(x, y, k) - oracle.dist(x, y, k)) < 1e-9


class TestExpLog:
    def test_exp_of_zero_is_identity(self):
        o = oracle.origin(2, 1.0)
        assert np.allclose(exp_map(o, np.zeros(3), 1.0), o, atol=1e-15)

    def test_exp_analytic(self):
        o = oracle.origin(2, 1.0)
        out = exp_map(o, np.array([0.0, 1.0, 0.0]), 1.0)
        assert np.allclose(out, [math.cosh(1.0), math.sinh(1.0), 0.0], atol=1e-12)

    def test_log_at_coincident_points_is_zero(self):
        o = oracle.origin(3, 1.0)
        assert np.array_equal(log_map(o, o, 1.0), np.zeros(4))

    def test_log_analytic(self):
        o = oracle.origin(2, 1.0)
        p = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
        assert np.allclose(log_map(o, p, 1.0), [0.0, 1.0, 0.0], atol=1e-12)

    def test_roundtrip_log_of_exp(self):
        rng = np.random.default_rng(3)
        o = oracle.origin(8, 1.0)
        for _ in range(50):
            v = np.concatenate([[0.0], rng.normal(size=8)])
            back = log_map(o, exp_map(o, v, 1.0), 1.0)
            rel = np.linalg.norm(back - v) / max(np.linalg.norm(v), 1e-12)
            assert rel < 1e-7

    def test_roundtrip_exp_of_log(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = rng.choice([0.5, 1.0, 2.0])
            x, y = random_point(rng, 5, k), random_point(rng, 5, k)
            y2 = exp_map(x, log_map(x, y, k), k)
            assert np.abs(y2 - y).max() < 1e-7

    def test_log_result_is_tangent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = random_point(rng, 6, 1.0), random_point(rng, 6, 1.0)
            assert abs(inner(log_map(x, y, 1.0), x)) < 1e-8

    def test_exp_matches_straight_line_map(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            k = float(rng.choice([0.5, 1.0, 2.0]))
            x = random_point(rng, 5, k)
            v = random_tangent(rng, x, k)
            assert np.abs(exp_map(x, v, k) - oracle.exp_map(x, v, k)).max() < 1e-9

    def test_log_matches_straight_line_map(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            k = float(rng.choice([0.5, 1.0, 2.0]))
            x, y = random_point(rng, 5, k), random_point(rng, 5, k)
            assert np.abs(log_map(x, y, k) - oracle.log_map(x, y, k)).max() < 1e-9


class TestParallelTransport:
    """Transport from the origin, the one transport the network runs, as the
    boost that carries the origin to the destination applied to (0, b)."""

    def test_identity_at_same_point(self):
        rng = np.random.default_rng(6)
        o = oracle.origin(4, 1.0)
        b = rng.normal(size=4)
        assert np.abs(transport(o, b, 1.0) - np.concatenate([[0.0], b])).max() < 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = rng.choice([0.5, 1.0, 2.0])
            y = random_point(rng, 5, k)
            b, c = rng.normal(size=5), rng.normal(size=5)
            assert abs(inner(transport(y, b, k), transport(y, c, k)) - float(b @ c)) < 1e-7

    def test_lands_in_destination_tangent_space(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = random_point(rng, 5, 1.0)
            b = rng.normal(size=5)
            assert abs(inner(transport(y, b, 1.0), y)) < 1e-7

    def test_matches_logarithmic_map_form(self):
        # same operator written through log maps and squared distance
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = float(rng.choice([0.5, 1.0, 2.0]))
            y = random_point(rng, 5, k)
            b = rng.normal(size=5)
            want = oracle.transport(oracle.origin(5, k), y, np.concatenate([[0.0], b]), k)
            assert np.abs(transport(y, b, k) - want).max() < 1e-9


class TestLinearOps:
    """The network's linear layers and activations act on the d-wide tangent
    at the origin, between log_o_rows and exp_o_rows, so a (d+1)-wide matrix
    of the straight-line references enters as W[1:, 1:]."""

    @staticmethod
    def matmul(W, x, k):
        tangent = mf.log_o_rows(row(x), k)
        return first(mf.exp_o_rows(ad.matmul(tangent, ad.transpose(ad.constant(W))), k))

    @staticmethod
    def bias_add(x, b, k):
        """The hyperbolic bias as the feed-forward adds it: the boost that
        carries the origin to x, applied to exp_o(b)."""
        return boost(x, first(mf.exp_o_rows(row(b), k)), k)

    @staticmethod
    def activation(x, act, k_from, k_to):
        return first(mf.exp_o_rows(act(mf.log_o_rows(row(x), k_from)), k_to))

    def test_matmul_identity(self):
        rng = np.random.default_rng(9)
        x = random_point(rng, 4, 1.0)
        assert np.abs(self.matmul(np.eye(4), x, 1.0) - x).max() < 1e-9

    def test_matmul_zero_gives_origin(self):
        rng = np.random.default_rng(10)
        x = random_point(rng, 4, 1.0)
        assert np.allclose(self.matmul(np.zeros((4, 4)), x, 1.0), oracle.origin(4, 1.0), atol=1e-12)

    def test_matmul_against_stepwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.choice([0.5, 1.0, 2.0])
            x = random_point(rng, 4, k)
            W = rng.normal(size=(7, 5))
            got = self.matmul(W[1:, 1:], x, k)
            want = oracle.exp_o(np.concatenate([[0.0], (W @ oracle.log_o(x, k))[1:]]), k)
            assert np.abs(got - want).max() < 1e-9
            assert got.shape == (7,)

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            self.matmul(np.zeros((3, 3)), oracle.origin(4, 1.0), 1.0)

    def test_bias_add_zero_identity(self):
        rng = np.random.default_rng(12)
        x = random_point(rng, 4, 1.0)
        assert np.abs(self.bias_add(x, np.zeros(4), 1.0) - x).max() < 1e-9

    def test_bias_add_at_origin_is_exp(self):
        rng = np.random.default_rng(13)
        o = oracle.origin(4, 1.0)
        v = np.concatenate([[0.0], rng.normal(size=4)])
        assert np.abs(self.bias_add(o, v[1:], 1.0) - exp_map(o, v, 1.0)).max() < 1e-10

    def test_bias_add_stays_on_hyperboloid(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            k = rng.choice([0.5, 1.0, 2.0])
            x = random_point(rng, 6, k)
            b = np.concatenate([[0.0], rng.normal(size=6)])
            assert violation(self.bias_add(x, b[1:], k), k) < 1e-8

    def test_bias_add_against_stepwise_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = float(rng.choice([0.5, 1.0, 2.0]))
            x = random_point(rng, 4, k)
            b = np.concatenate([[0.0], rng.normal(size=4)])
            want = oracle.hyp_bias_add(x, b, k)
            assert np.abs(self.bias_add(x, b[1:], k) - want).max() < 1e-9

    def test_activation_identity(self):
        rng = np.random.default_rng(15)
        x = random_point(rng, 4, 1.0)
        assert np.abs(self.activation(x, lambda t: t, 1.0, 1.0) - x).max() < 1e-9

    def test_activation_fixes_origin(self):
        o = oracle.origin(4, 1.0)
        for act in (ad.relu, ref.sinh, lambda t: ad.leaky_relu(t, 0.2)):
            out = self.activation(o, act, 1.0, 2.0)
            assert np.allclose(out, oracle.origin(4, 2.0), atol=1e-12)

    def test_relu_on_all_negative_tangent_gives_origin(self):
        o = oracle.origin(3, 1.0)
        x = exp_map(o, np.array([0.0, -1.0, -0.5, -2.0]), 1.0)
        out = self.activation(x, ad.relu, 1.0, 2.0)
        assert np.allclose(out, oracle.origin(3, 2.0), atol=1e-12)

    def test_activation_against_stepwise_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            k_from, k_to = (float(c) for c in rng.choice([0.5, 1.0, 2.0], size=2))
            x = random_point(rng, 4, k_from)
            got = self.activation(x, lambda t: ad.leaky_relu(t, 0.2), k_from, k_to)
            want = oracle.hyp_activation(x, lambda t: np.where(t > 0, t, 0.2 * t), k_from, k_to)
            assert np.abs(got - want).max() < 1e-9


def _bias_reference(u, b, k: float) -> np.ndarray:
    """log_o(exp_h(PT_{o->h}(b))) at h = exp_o(u), the hyperbolic bias as
    three maps, evaluated in 60-digit decimal arithmetic from the float
    inputs' exact values."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        u = [decimal.Decimal(float(c)) for c in u]
        b = [decimal.Decimal(float(c)) for c in b]
        k = decimal.Decimal(k)
        sk = k.sqrt()

        def cosh(t):
            return (t.exp() + (-t).exp()) / 2

        def sinh(t):
            return (t.exp() - (-t).exp()) / 2

        n = sum(c * c for c in u).sqrt()
        h = [sk] + [decimal.Decimal(0)] * len(u)
        if n:
            h = [sk * cosh(n / sk)] + [sk * sinh(n / sk) * c / n for c in u]
        coef = sum(hc * bc for hc, bc in zip(h[1:], b)) / (k + sk * h[0])
        v = [coef * (h[0] + sk)] + [bc + coef * hc for bc, hc in zip(b, h[1:])]
        nv = (sum(c * c for c in v[1:]) - v[0] * v[0]).sqrt()
        x = [cosh(nv / sk) * hc + sk * sinh(nv / sk) * vc / nv for hc, vc in zip(h, v)]
        z = x[0] / sk
        dist = sk * (z + (z * z - 1).sqrt()).ln()
        ns = sum(c * c for c in x[1:]).sqrt()
        return np.array([float(dist * c / ns) for c in x[1:]])


class TestFeedForwardBias:
    """The feed-forward's bias, log_o(boost_rows(u, exp_o_rows(b))), against
    the three-map chain in 60-digit arithmetic, at d = 64 and out to
    |u| / sqrt(k) = 40, where forming h = exp_o(u) and measuring the
    transported tangent at h overflows float64."""

    @pytest.mark.parametrize("radius", [0, 1, 5, 10, 15, 22, 26, 40])
    def test_matches_sixty_digit_chain(self, radius):
        rng = np.random.default_rng(23)
        for k in (0.5, 1.0, 2.0):
            U = rng.normal(size=(4, 64))
            U *= radius * math.sqrt(k) / np.linalg.norm(U, axis=1, keepdims=True)
            b = rng.normal(size=64)
            b *= 2.4 / np.linalg.norm(b)
            got = mf.log_o_rows(mf.boost_rows(ad.constant(U), mf.exp_o_rows(ad.constant(b), k), k), k).data
            for u, g in zip(U, got):
                want = _bias_reference(u, b, k)
                assert np.linalg.norm(g - want) <= 1e-14 * np.linalg.norm(want), (k, radius)


class TestTimeRepair:
    """exp_map_rows recomputes the time coordinate of its result from the
    space block, so a zero step projects any row onto the hyperboloid."""

    @staticmethod
    def project(coords, k):
        return exp_map(coords, np.zeros(len(coords)), k)

    def test_time_coordinate_forced(self):
        assert np.array_equal(self.project(np.array([999.0, 0.0, 0.0]), 1.0), [1.0, 0.0, 0.0])

    def test_arithmetic(self):
        out = self.project(np.array([0.0, 3.0, 4.0]), 1.0)
        assert np.allclose(out, [math.sqrt(26.0), 3.0, 4.0], atol=1e-15)

    def test_constraint_holds(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            coords = rng.normal(size=7) * 3
            k = float(rng.choice([0.5, 1.0, 2.0]))
            assert violation(self.project(coords, k), k) < 1e-10


class TestCurvature:
    @staticmethod
    def k(raw) -> float:
        return float(mf.curvature_from_raw(ad.constant(raw)).data)

    def test_positive_for_any_raw(self):
        for raw in (-50.0, -1.0, 0.0, 1.0, 80.0):
            assert self.k(raw) > 0

    def test_unit_k_constant(self):
        assert abs(self.k(mf.KAPPA_RAW_FOR_UNIT_K) - 1.0) < 1e-12

    def test_matches_straight_line_curvature(self):
        for raw in (-3.0, 0.2, 4.0):
            assert abs(self.k(raw) - oracle.curvature(raw)) < 1e-12


class TestPropertySweep:
    def test_invariants_across_dims_and_curvatures(self):
        results = manifold_check(dims=(2, 8), ks=(0.5, 1.0, 2.0), n=200, seed=0)
        failed = [r for r in results if not r.passed]
        assert not failed, f"failed: {[(r.name, r.worst) for r in failed]}"

    def test_operations_deterministic(self):
        rng = np.random.default_rng(17)
        x, y = random_point(rng, 5, 1.0), random_point(rng, 5, 1.0)
        assert distance(x, y, 1.0) == distance(x, y, 1.0)
        assert np.array_equal(log_map(x, y, 1.0), log_map(x, y, 1.0))


def _exp_o_composed(V, k):
    """exp_o_rows as the chain of autodiff primitives that it fuses."""
    sk = ad.sqrt(ad.as_tensor(k))
    space = V
    nrm = ad.sqrt(ad.clamp(ad.tsum(ad.mul(space, space), axis=-1, keepdims=True), lo=mf.MIN_SQ_NORM))
    arg = ad.div(nrm, sk)
    time = ad.mul(sk, ref.cosh(arg))
    space_out = ad.mul(space, ad.div(ad.mul(sk, ref.sinh(arg)), nrm))
    return ref.concat([time, space_out], axis=-1)


class TestFusedExpO:
    SHAPES = ((5, 4), (2, 3, 4))

    @staticmethod
    def _rows(shape, seed):
        """Random tangent rows; the first row is zero, so the MIN_SQ_NORM
        floor is active there."""
        V = np.random.default_rng(seed).normal(size=shape)
        V.reshape(-1, shape[-1])[0] = 0.0
        return V

    @staticmethod
    def _backward(fn, V0, k0, W):
        V = ad.Tensor(V0.copy(), requires_grad=True)
        k = ad.Tensor(np.array(k0), requires_grad=True)
        ad.tsum(ad.mul(fn(V, k), ad.constant(W))).backward()
        return V.grad, float(k.grad)

    def test_is_one_node(self):
        V = ad.Tensor(self._rows((5, 4), 0), requires_grad=True)
        out = mf.exp_o_rows(V, ad.Tensor(np.array(1.3), requires_grad=True))
        assert all(p._backward is None for p in out._parents)

    def test_forward_bytes_equal_composed_chain(self):
        for seed, shape in enumerate(self.SHAPES):
            V = ad.constant(self._rows(shape, seed))
            for k in (0.7, ad.constant(1.3), mf.curvature_from_raw(ad.constant(0.4))):
                assert mf.exp_o_rows(V, k).data.tobytes() == _exp_o_composed(V, k).data.tobytes()

    def test_gradients_match_central_differences(self):
        h, k0 = 1e-6, 1.3
        for seed, shape in enumerate(self.SHAPES):
            V0 = self._rows(shape, seed)
            W = np.random.default_rng(seed + 10).normal(size=shape[:-1] + (shape[-1] + 1,))

            def f(V, k):
                with ad.no_grad():
                    return float((mf.exp_o_rows(ad.constant(V), k).data * W).sum())

            gV, gk = self._backward(mf.exp_o_rows, V0, k0, W)
            fd = np.zeros(shape)
            for idx in np.ndindex(shape):
                up, down = V0.copy(), V0.copy()
                up[idx] += h
                down[idx] -= h
                fd[idx] = (f(up, k0) - f(down, k0)) / (2.0 * h)
            np.testing.assert_allclose(gV, fd, rtol=1e-6, atol=1e-8)
            assert gk == pytest.approx((f(V0, k0 + h) - f(V0, k0 - h)) / (2.0 * h), rel=1e-6)
            # and the composed chain's backward agrees to roundoff
            cV, ck = self._backward(_exp_o_composed, V0, k0, W)
            np.testing.assert_allclose(gV, cV, rtol=1e-12, atol=1e-14)
            assert gk == pytest.approx(ck, rel=1e-12)


def _rowwise_inner_composed(X, Y):
    """rowwise_inner as the chain of autodiff primitives that it fuses."""
    mask = np.ones(X.shape[-1])
    mask[0] = -1.0
    return ad.tsum(ad.mul(ad.mul(X, ad.constant(mask)), Y), axis=-1, keepdims=True)


class TestFusedRowwiseInner:
    # paired 2-D rows, paired 3-D batches, and one anchor row per batch entry
    # against several rows
    SHAPES = (((5, 4), (5, 4)), ((2, 3, 4), (2, 3, 4)), ((2, 1, 4), (2, 3, 4)))

    def test_is_one_node(self):
        X = ad.Tensor(np.ones((3, 4)), requires_grad=True)
        out = mf.rowwise_inner(X, X)
        assert out._parents == (X, X)

    def test_forward_bytes_equal_composed_chain(self):
        rng = np.random.default_rng(0)
        for sx, sy in self.SHAPES:
            X, Y = ad.constant(rng.normal(size=sx)), ad.constant(rng.normal(size=sy))
            assert mf.rowwise_inner(X, Y).data.tobytes() == _rowwise_inner_composed(X, Y).data.tobytes()

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(1)
        for sx, sy in self.SHAPES:
            check_grad(mf.rowwise_inner, rng.normal(size=sx), rng.normal(size=sy))
            check_grad(lambda V: mf.rowwise_inner(V, V), rng.normal(size=sy))
