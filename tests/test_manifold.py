import math

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import manifold as mf
from hcgr.checks import manifold_check

import oracle
from test_autodiff import check_grad


def random_point(rng, d, k, max_norm=2.0):
    v = np.zeros(d + 1)
    v[1:] = rng.normal(size=d)
    v[1:] *= rng.uniform(1e-3, max_norm) / np.linalg.norm(v[1:])
    return mf.exp_map(mf.origin(d, k), mf.TangentVector(v, mf.origin(d, k)))


def random_tangent(rng, x, max_norm=2.0):
    b = np.zeros(x.dim + 1)
    b[1:] = rng.normal(size=x.dim)
    b[1:] *= rng.uniform(1e-3, max_norm) / np.linalg.norm(b[1:])
    o = mf.origin(x.dim, x.k)
    return mf.parallel_transport(o, x, mf.TangentVector(b, o))


class TestLorentzInner:
    def test_origin_self_inner(self):
        o = mf.origin(2, 1.0)
        assert mf.lorentz_inner(o.coords, o.coords) == -1.0

    def test_analytic_value(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
        got = mf.lorentz_inner(x, y)
        assert abs(got + math.cosh(1.0)) < 1e-15
        assert abs(got + 1.5431) < 1e-4

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.normal(size=5), rng.normal(size=5)
            assert mf.lorentz_inner(x, y) == mf.lorentz_inner(y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mf.lorentz_inner(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            mf.lorentz_inner(np.ones(1), np.ones(1))


class TestLorentzNorm:
    def test_zero_vector(self):
        o = mf.origin(2, 1.0)
        assert mf.lorentz_norm(mf.TangentVector(np.zeros(3), o)) == 0.0

    def test_euclidean_part(self):
        o = mf.origin(2, 1.0)
        assert mf.lorentz_norm(mf.TangentVector(np.array([0.0, 1.0, 0.0]), o)) == 1.0

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(1)
        o = mf.origin(6, 1.0)
        for _ in range(50):
            v = np.concatenate([[0.0], rng.normal(size=6)])
            alpha = rng.normal()
            n1 = mf.lorentz_norm(mf.TangentVector(alpha * v, o))
            n2 = abs(alpha) * mf.lorentz_norm(mf.TangentVector(v, o))
            assert abs(n1 - n2) <= 1e-12 * max(n2, 1e-300)


class TestDistance:
    def test_self_distance_zero(self):
        o = mf.origin(2, 1.0)
        assert mf.distance(o, o) == 0.0

    def test_unit_speed_geodesic(self):
        o = mf.origin(2, 1.0)
        for t in (0.1, 1.0, 3.0):
            p = mf.LorentzPoint(np.array([math.cosh(t), math.sinh(t), 0.0]), 1.0)
            assert abs(mf.distance(o, p) - t) < 1e-10

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = rng.choice([0.5, 1.0, 2.0])
            x, y, z = (random_point(rng, 4, k) for _ in range(3))
            assert mf.distance(x, z) <= mf.distance(x, y) + mf.distance(y, z) + 1e-9

    def test_curvature_mismatch(self):
        with pytest.raises(ValueError):
            mf.distance(mf.origin(2, 1.0), mf.origin(2, 2.0))


class TestExpLog:
    def test_exp_of_zero_is_identity(self):
        o = mf.origin(2, 1.0)
        out = mf.exp_map(o, mf.TangentVector(np.zeros(3), o))
        assert np.allclose(out.coords, o.coords, atol=1e-15)

    def test_exp_analytic(self):
        o = mf.origin(2, 1.0)
        out = mf.exp_map(o, mf.TangentVector(np.array([0.0, 1.0, 0.0]), o))
        assert np.allclose(out.coords, [math.cosh(1.0), math.sinh(1.0), 0.0], atol=1e-12)

    def test_log_at_coincident_points_is_zero(self):
        o = mf.origin(3, 1.0)
        assert np.array_equal(mf.log_map(o, o).coords, np.zeros(4))

    def test_log_analytic(self):
        o = mf.origin(2, 1.0)
        p = mf.LorentzPoint(np.array([math.cosh(1.0), math.sinh(1.0), 0.0]), 1.0)
        assert np.allclose(mf.log_map(o, p).coords, [0.0, 1.0, 0.0], atol=1e-12)

    def test_roundtrip_log_of_exp(self):
        rng = np.random.default_rng(3)
        o = mf.origin(8, 1.0)
        for _ in range(50):
            v = np.concatenate([[0.0], rng.normal(size=8)])
            back = mf.log_map(o, mf.exp_map(o, mf.TangentVector(v, o)))
            rel = np.linalg.norm(back.coords - v) / max(np.linalg.norm(v), 1e-12)
            assert rel < 1e-7

    def test_roundtrip_exp_of_log(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = rng.choice([0.5, 1.0, 2.0])
            x, y = random_point(rng, 5, k), random_point(rng, 5, k)
            y2 = mf.exp_map(x, mf.log_map(x, y))
            assert np.abs(y2.coords - y.coords).max() < 1e-7

    def test_log_result_is_tangent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = random_point(rng, 6, 1.0), random_point(rng, 6, 1.0)
            v = mf.log_map(x, y)
            assert abs(mf.lorentz_inner(v.coords, x.coords)) < 1e-8

    def test_base_mismatch(self):
        o = mf.origin(2, 1.0)
        p = mf.LorentzPoint(np.array([math.cosh(1.0), math.sinh(1.0), 0.0]), 1.0)
        with pytest.raises(ValueError):
            mf.exp_map(p, mf.TangentVector(np.zeros(3), o))


class TestParallelTransport:
    def test_identity_at_same_point(self):
        rng = np.random.default_rng(6)
        x = random_point(rng, 4, 1.0)
        v = random_tangent(rng, x)
        out = mf.parallel_transport(x, x, v)
        assert np.abs(out.coords - v.coords).max() < 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = rng.choice([0.5, 1.0, 2.0])
            x, y = random_point(rng, 5, k), random_point(rng, 5, k)
            v, w = random_tangent(rng, x), random_tangent(rng, x)
            vt = mf.parallel_transport(x, y, v)
            wt = mf.parallel_transport(x, y, w)
            before = mf.lorentz_inner(v.coords, w.coords)
            after = mf.lorentz_inner(vt.coords, wt.coords)
            assert abs(after - before) < 1e-7

    def test_lands_in_destination_tangent_space(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x, y = random_point(rng, 5, 1.0), random_point(rng, 5, 1.0)
            v = random_tangent(rng, x)
            out = mf.parallel_transport(x, y, v)
            assert abs(mf.lorentz_inner(out.coords, y.coords)) < 1e-7

    def test_matches_logarithmic_map_form(self):
        # same operator written through log maps and squared distance
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = float(rng.choice([0.5, 1.0, 2.0]))
            x, y = random_point(rng, 5, k), random_point(rng, 5, k)
            v = random_tangent(rng, x)
            got = mf.parallel_transport(x, y, v).coords
            want = oracle.transport(x.coords, y.coords, v.coords, k)
            assert np.abs(got - want).max() < 1e-9


class TestLinearOps:
    def test_matmul_identity(self):
        rng = np.random.default_rng(9)
        x = random_point(rng, 4, 1.0)
        out = mf.hyp_matmul(np.eye(5), x)
        assert np.abs(out.coords - x.coords).max() < 1e-9

    def test_matmul_zero_gives_origin(self):
        rng = np.random.default_rng(10)
        x = random_point(rng, 4, 1.0)
        out = mf.hyp_matmul(np.zeros((5, 5)), x)
        assert np.allclose(out.coords, mf.origin(4, 1.0).coords, atol=1e-12)

    def test_matmul_against_stepwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.choice([0.5, 1.0, 2.0])
            x = random_point(rng, 4, k)
            W = rng.normal(size=(7, 5))
            got = mf.hyp_matmul(W, x)
            want = oracle.exp_o(np.concatenate([[0.0], (W @ oracle.log_o(x.coords, k))[1:]]), k)
            assert np.abs(got.coords - want).max() < 1e-9
            assert got.coords.shape == (7,)

    def test_matmul_shape_errors(self):
        x = mf.origin(4, 1.0)
        with pytest.raises(ValueError):
            mf.hyp_matmul(np.zeros((3, 4)), x)
        with pytest.raises(ValueError):
            mf.hyp_matmul(np.zeros((1, 5)), x)

    def test_bias_add_zero_identity(self):
        rng = np.random.default_rng(12)
        x = random_point(rng, 4, 1.0)
        b = mf.TangentVector(np.zeros(5), mf.origin(4, 1.0))
        out = mf.hyp_bias_add(x, b)
        assert np.abs(out.coords - x.coords).max() < 1e-9

    def test_bias_add_at_origin_is_exp(self):
        rng = np.random.default_rng(13)
        o = mf.origin(4, 1.0)
        v = np.concatenate([[0.0], rng.normal(size=4)])
        out = mf.hyp_bias_add(o, mf.TangentVector(v, o))
        want = mf.exp_map(o, mf.TangentVector(v, o))
        assert np.abs(out.coords - want.coords).max() < 1e-10

    def test_bias_add_stays_on_hyperboloid(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            k = rng.choice([0.5, 1.0, 2.0])
            x = random_point(rng, 6, k)
            b = np.concatenate([[0.0], rng.normal(size=6)])
            out = mf.hyp_bias_add(x, mf.TangentVector(b, mf.origin(6, k)))
            assert mf.hyperboloid_violation(out) < 1e-8

    def test_activation_identity(self):
        rng = np.random.default_rng(15)
        x = random_point(rng, 4, 1.0)
        out = mf.hyp_activation(x, lambda t: t, 1.0)
        assert np.abs(out.coords - x.coords).max() < 1e-9

    def test_activation_fixes_origin(self):
        o = mf.origin(4, 1.0)
        for act in (ad.relu, ad.tanh, lambda t: ad.leaky_relu(t, 0.2)):
            out = mf.hyp_activation(o, act, 2.0)
            assert np.allclose(out.coords, mf.origin(4, 2.0).coords, atol=1e-12)

    def test_relu_on_all_negative_tangent_gives_origin(self):
        o = mf.origin(3, 1.0)
        x = mf.exp_map(o, mf.TangentVector(np.array([0.0, -1.0, -0.5, -2.0]), o))
        out = mf.hyp_activation(x, ad.relu, 2.0)
        assert np.allclose(out.coords, mf.origin(3, 2.0).coords, atol=1e-12)

    def test_activation_rejects_non_origin_fixing(self):
        x = mf.origin(3, 1.0)
        with pytest.raises(ValueError):
            mf.hyp_activation(x, lambda t: ad.add(t, 1.0), 1.0)


class TestProjection:
    def test_time_coordinate_forced(self):
        out = mf.project_to_hyperboloid(np.array([999.0, 0.0, 0.0]), 1.0)
        assert np.array_equal(out.coords, [1.0, 0.0, 0.0])

    def test_arithmetic(self):
        out = mf.project_to_hyperboloid(np.array([0.0, 3.0, 4.0]), 1.0)
        assert np.allclose(out.coords, [math.sqrt(26.0), 3.0, 4.0], atol=1e-15)

    def test_constraint_holds(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            coords = rng.normal(size=7) * 3
            k = float(rng.choice([0.5, 1.0, 2.0]))
            assert mf.hyperboloid_violation(mf.project_to_hyperboloid(coords, k)) < 1e-10


class TestCurvature:
    def test_positive_for_any_raw(self):
        for raw in (-50.0, -1.0, 0.0, 1.0, 80.0):
            assert mf.Curvature(raw).k > 0

    def test_unit_k_constant(self):
        assert abs(mf.Curvature(mf.KAPPA_RAW_FOR_UNIT_K).k - 1.0) < 1e-12

    def test_tensor_path_matches_scalar_path(self):
        for raw in (-3.0, 0.2, 4.0):
            t = mf.curvature_from_raw(ad.constant(raw))
            assert abs(float(t.data) - mf.Curvature(raw).k) < 1e-12


class TestPropertySweep:
    def test_invariants_across_dims_and_curvatures(self):
        results = manifold_check(dims=(2, 8), ks=(0.5, 1.0, 2.0), n=200, seed=0)
        failed = [r for r in results if not r.passed]
        assert not failed, f"failed: {[(r.name, r.worst) for r in failed]}"

    def test_operations_deterministic(self):
        rng = np.random.default_rng(17)
        x, y = random_point(rng, 5, 1.0), random_point(rng, 5, 1.0)
        assert mf.distance(x, y) == mf.distance(x, y)
        l1, l2 = mf.log_map(x, y), mf.log_map(x, y)
        assert np.array_equal(l1.coords, l2.coords)


def _exp_o_composed(V, k):
    """exp_o_rows as the chain of autodiff primitives that it fuses."""
    sk = ad.sqrt(ad.as_tensor(k))
    space = V
    nrm = ad.sqrt(ad.clamp(ad.tsum(ad.mul(space, space), axis=-1, keepdims=True), lo=mf.MIN_SQ_NORM))
    arg = ad.div(nrm, sk)
    time = ad.mul(sk, ad.cosh(arg))
    space_out = ad.mul(space, ad.div(ad.mul(sk, ad.sinh(arg)), nrm))
    return ad.concat([time, space_out], axis=-1)


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
