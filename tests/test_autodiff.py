import math

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr.model import MASK_LOGIT

import ref_ops as ref


def central_diff(fn, x, h=1e-5):
    """Gradient of a scalar function of one array by central differences."""
    g = np.zeros_like(x)
    flat_x, flat_g = x.reshape(-1), g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = fn(x)
        flat_x[i] = orig - h
        down = fn(x)
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * h)
    return g


def check_grad(op, *arrays, tol=1e-5, seed=0):
    """Compare backward() against central differences for each input."""
    rng = np.random.default_rng(seed)
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    weights = rng.normal(size=out.data.shape)
    loss = ad.tsum(ad.mul(out, ad.constant(weights)))
    loss.backward()

    for idx, (t, a) in enumerate(zip(tensors, arrays)):
        def value(x, idx=idx):
            args = [ad.Tensor(arr) for arr in arrays]
            args[idx] = ad.Tensor(x)
            with ad.no_grad():
                return float(ad.tsum(ad.mul(op(*args), ad.constant(weights))).data)

        fd = central_diff(value, a.copy())
        rel = np.abs(fd - t.grad) / np.maximum.reduce([np.abs(fd), np.abs(t.grad), np.full_like(fd, 1e-6)])
        assert rel.max() < tol, f"input {idx}: max rel err {rel.max():.2e}"


RNG = np.random.default_rng(42)
A23 = RNG.normal(size=(2, 3))
B23 = RNG.normal(size=(2, 3))
V3 = RNG.normal(size=3)
M34 = RNG.normal(size=(3, 4))
POS23 = np.abs(RNG.normal(size=(2, 3))) + 0.5
A234 = RNG.normal(size=(2, 3, 4))
B245 = RNG.normal(size=(2, 4, 5))
M45 = RNG.normal(size=(4, 5))
V4 = RNG.normal(size=4)


class TestPrimitiveGradients:
    def test_add(self):
        check_grad(ad.add, A23, B23)

    def test_add_row_broadcast(self):
        check_grad(ad.add, A23, V3)

    def test_sub(self):
        check_grad(ad.sub, A23, B23)

    def test_mul(self):
        check_grad(ad.mul, A23, B23)

    def test_mul_scalar(self):
        check_grad(ad.mul, A23, np.asarray(1.7))

    def test_div(self):
        check_grad(ad.div, A23, POS23)

    def test_neg(self):
        check_grad(ref.neg, A23)

    def test_matmul(self):
        check_grad(ad.matmul, A23, M34, tol=1e-6)

    def test_matmul_vector(self):
        check_grad(ad.matmul, A23, V3)

    def test_dot(self):
        check_grad(ad.matmul, V3, V3 + 1.0)

    def test_matmul_batch_batch(self):
        check_grad(ad.matmul, A234, B245, tol=1e-6)

    def test_matmul_batch_matrix(self):
        check_grad(ad.matmul, A234, M45, tol=1e-6)

    def test_matmul_batch_vector(self):
        check_grad(ad.matmul, A234, V4, tol=1e-6)

    def test_transpose(self):
        check_grad(ad.transpose, A23)

    def test_transpose_batch_swaps_last_two_axes(self):
        check_grad(ad.transpose, A234)
        assert ad.transpose(ad.constant(A234)).shape == (2, 4, 3)

    def test_reshape(self):
        check_grad(lambda t: ref.reshape(t, (3, 2)), A23)

    def test_concat_rows(self):
        check_grad(lambda a, b: ref.concat([a, b], axis=0), A23, B23)

    def test_concat_cols(self):
        check_grad(lambda a, b: ref.concat([a, b], axis=1), A23, B23)

    def test_take_rows_with_duplicates(self):
        check_grad(lambda t: ad.take_rows(t, [0, 2, 0, 1]), M34)

    def test_take_rows_of_a_computed_tensor_with_duplicates(self):
        # the gathered tensor is not a leaf, so its row gradient goes dense
        check_grad(lambda t: ad.take_rows(ad.mul(t, t), [[0, 2], [0, 0]]), M34)

    def test_take_rows_index_array_of_any_shape(self):
        check_grad(lambda t: ad.take_rows(t, [[0, 2], [2, 2], [1, 0]]), M34)
        assert ad.take_rows(ad.constant(M34), [[0, 2], [2, 2], [1, 0]]).shape == (3, 2, 4)

    def test_getitem_row_and_block(self):
        check_grad(lambda t: t[1], M34)
        check_grad(lambda t: t[:, 1:3], M34)

    def test_getitem_last_axis_slices_of_batch(self):
        check_grad(lambda t: t[..., 1:], A234)
        check_grad(lambda t: t[..., 0:1], A234)

    def test_getitem_basic_slice_is_a_view(self):
        x = ad.Tensor(A234.copy(), requires_grad=True)
        assert np.shares_memory(x[..., 1:].data, x.data)

    def test_mul_column_broadcast(self):
        check_grad(ad.mul, A23, RNG.normal(size=(2, 1)))

    def test_add_outer_broadcast(self):
        check_grad(ad.add, RNG.normal(size=(2, 1)), RNG.normal(size=(1, 3)))

    def test_sum_axes(self):
        check_grad(ad.tsum, A23)
        check_grad(lambda t: ad.tsum(t, axis=0), A23)
        check_grad(lambda t: ad.tsum(t, axis=1, keepdims=True), A23)

    def test_softmax_rows(self):
        check_grad(ad.softmax_rows, A23)
        check_grad(ad.softmax_rows, A234)

    def test_exp(self):
        check_grad(ref.exp, A23)

    def test_log(self):
        check_grad(ref.log, POS23)

    def test_sqrt(self):
        check_grad(ref.sqrt, POS23)

    def test_cosh_sinh_sigmoid(self):
        check_grad(ref.cosh, A23)
        check_grad(ref.sinh, A23)
        check_grad(ad.sigmoid, A23)

    def test_arcosh(self):
        check_grad(ref.arcosh, POS23 + 1.2, tol=1e-4)

    def test_relu_leaky(self):
        # keep samples away from the kink
        x = A23 + np.sign(A23) * 0.3
        check_grad(ad.relu, x)
        check_grad(lambda t: ad.leaky_relu(t, 0.2), x)

    def test_clamp_interior_and_exterior(self):
        x = np.array([[-2.0, 0.3, 2.5]])
        check_grad(lambda t: ref.clamp(t, lo=-1.0, hi=1.0), x)

    def test_softplus(self):
        check_grad(ref.softplus, np.array([[-30.0, -1.0, 0.5, 35.0]]), tol=1e-4)
        check_grad(ref.softplus, A234)


class TestValues:
    def test_softmax_symmetry(self):
        out = ad.softmax_rows(ad.constant([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_shift_invariance_of_argmax(self):
        z = RNG.normal(size=7)
        a = ad.softmax_rows(ad.constant(z)).data
        b = ad.softmax_rows(ad.constant(z + 123.4)).data
        assert a.argmax() == b.argmax()

    def test_arcosh_derivative_value(self):
        u = ad.Tensor(np.array(math.cosh(1.0)), requires_grad=True)
        ref.arcosh(u).backward()
        assert abs(float(u.grad) - 1.0 / math.sinh(1.0)) < 1e-12
        assert abs(1.0 / math.sinh(1.0) - 0.8509) < 1e-4

    def test_arcosh_forward_floor_is_exact_zero(self):
        assert float(ref.arcosh(ad.constant(1.0 - 1e-13)).data) == 0.0

    def test_sum_backward_is_ones(self):
        x = ad.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        ad.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_product_backward_swaps_operands(self):
        x = ad.Tensor(np.asarray(3.0), requires_grad=True)
        y = ad.Tensor(np.asarray(-2.0), requires_grad=True)
        ad.mul(x, y).backward()
        assert float(x.grad) == -2.0 and float(y.grad) == 3.0

    def test_reused_parameter_accumulates(self):
        x = ad.Tensor(np.asarray(2.0), requires_grad=True)
        ad.add(ad.mul(x, x), x).backward()  # d/dx (x^2 + x) = 2x + 1
        assert float(x.grad) == 5.0

    def test_unreached_leaf_keeps_zero_gradient(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = ad.Tensor(np.ones(3), requires_grad=True)
        ad.tsum(x).backward()
        assert np.array_equal(y.grad, np.zeros(3))

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(3)
        a, b = 1.37, -0.61
        x0 = rng.normal(size=(4, 3))

        def grads_of(scale_f, scale_g):
            x = ad.Tensor(x0.copy(), requires_grad=True)
            f = ad.tsum(ad.mul(x, x))
            g = ad.tsum(ref.exp(ad.mul(x, ad.constant(0.3))))
            ad.add(ad.mul(scale_f, f), ad.mul(scale_g, g)).backward()
            return x.grad

        combined = grads_of(a, b)
        expected = a * grads_of(1.0, 0.0) + b * grads_of(0.0, 1.0)
        assert np.abs(combined - expected).max() < 1e-10

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            x = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
            y = ad.softmax_rows(ad.matmul(x, ad.transpose(x)))
            ad.tsum(ad.mul(y, y)).backward()
            return x.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_quadratic_central_difference_is_exact(self):
        # symmetric differences are exact for quadratics up to roundoff
        x = RNG.normal(size=(4,))
        fd = central_diff(lambda v: float((v * v).sum()), x.copy())
        rel = np.abs(fd - 2 * x) / np.maximum(np.abs(2 * x), 1e-6)
        assert rel.max() < 1e-8


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))))
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
        with pytest.raises(ValueError):
            ad.add(ad.constant(np.ones(3)), ad.constant(np.ones((3, 1))))
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 4, 5))))
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.ones((3, 4))), ad.constant(np.ones((2, 4, 5))))

    def test_index_array_raises_and_names_take_rows(self):
        # a fancy index would lose repeated rows from the gradient: summed
        # over x[[0, 0, 2]], row 0 must get 2, as take_rows gives it
        x = ad.Tensor(np.ones(3), requires_grad=True)
        for key in ([0, 0, 2], np.array([0, 0, 2]), (np.array([0, 0]), slice(None)), np.array([True, False, True])):
            with pytest.raises(ValueError, match="take_rows"):
                x[key]
        table = ad.Tensor(np.ones((3, 1)), requires_grad=True)
        ad.tsum(ad.take_rows(table, np.array([0, 0, 2]))).backward()
        assert table.grad.ravel().tolist() == [2.0, 0.0, 1.0]

    def test_non_scalar_backward(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.mul(x, x).backward()

    def test_nonfinite_forward_names_primitive(self):
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(ad.NumericError, match="exp"):
                ref.exp(ad.constant(1e9))
            with pytest.raises(ad.NumericError, match="div"):
                ad.div(ad.constant(1.0), ad.constant(0.0))

    def test_no_grad_suppresses_graph(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.tsum(ad.mul(x, x))
        assert y._backward is None and not y.requires_grad


def allocating_softmax(z):
    """The softmax formula that allocates its shifted copy, exponentials and
    probabilities: the bytes the in-place helper must reproduce."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_inputs():
    """1-, 2- and 3-D logits with exact ties and masked entries, some laid
    out along strided axes."""
    rng = np.random.default_rng(11)
    row = rng.normal(size=9) * 3.0
    row[[2, 5, 7]] = row[4]
    grid = rng.normal(size=(4, 6))
    grid[1, 3:] = MASK_LOGIT
    grid[2] = grid[2, 0]
    grid[3, [0, 4]] = grid[3].max()
    cube = rng.normal(size=(2, 3, 5))
    cube[0, :, 0] = MASK_LOGIT
    cube[1, 2] = 0.25
    cube[1, 0, 1:3] = cube[1, 0, 4]
    # rows of 40 along a strided axis: numpy sums them in another order
    # than contiguous rows, so a copy must keep the input's layout
    tall = rng.normal(size=(40, 3))
    tall[:, 1] = tall[0, 1]
    return [row, grid, cube, grid.T, cube[:, ::2, 1:], tall.T]


class TestSoftmaxInPlace:
    @pytest.mark.parametrize("index", range(6))
    def test_helper_and_softmax_rows_give_the_allocating_bytes(self, index):
        z = softmax_inputs()[index]
        want = allocating_softmax(z)
        owned = z.copy(order="K")
        out = ad.softmax_in_place(owned)
        assert out is owned
        assert out.tobytes() == want.tobytes()
        assert ad.softmax_rows(ad.constant(z)).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("index", range(6))
    def test_softmax_rows_leaves_its_input_unchanged(self, index):
        z = softmax_inputs()[index]
        before = z.copy()
        a = ad.constant(z)
        assert a.data is z
        ad.softmax_rows(a)
        assert z.tobytes() == before.tobytes()

    def test_masked_entries_get_exactly_zero_and_ties_equal_weight(self):
        grid = softmax_inputs()[1]
        y = ad.softmax_in_place(grid.copy())
        assert np.all(y[1, 3:] == 0.0)
        assert np.all(y[2] == y[2, 0])
        assert y[3, 0] == y[3, 4]


def test_every_public_name_resolves():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec("from hcgr.autodiff import *", namespace)
    assert set(ad.__all__) <= namespace.keys()
