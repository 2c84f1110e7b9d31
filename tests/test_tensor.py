import numpy as np
import pytest

from rmanet.errors import ProtocolError, ShapeError
from rmanet.tensor import (
    Tensor,
    _accum,
    _node,
    absolute,
    add,
    bias_add,
    columns,
    conv2d,
    fuse_max,
    grad_check,
    matmul,
    maxpool2d,
    mul,
    relu,
    reshape,
    sigmoid,
    softmax,
    sub,
    sum_all,
    take,
    tanh,
)

from oracles import conv2d_loop, maxpool2d_loop


def t(data, **kw):
    return Tensor(np.asarray(data, dtype=np.float32), **kw)


class TestMatmul:
    def test_identity(self):
        eye = t(np.eye(2))
        a = t([[1, 2], [3, 4]])
        np.testing.assert_allclose(matmul(eye, a).data, a.data)

    def test_closed_form(self):
        out = matmul(t([[1, 2]]), t([[3], [4]]))
        np.testing.assert_allclose(out.data, [[11]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))
        assert "(2, 3)" in str(e.value)


class TestElementwise:
    def test_relu_definition(self):
        np.testing.assert_allclose(relu(t([-1, 0, 2])).data, [0, 0, 2])

    def test_sigmoid_at_zero(self):
        np.testing.assert_allclose(sigmoid(t([0.0])).data, [0.5])

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(t([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-6)

    def test_binary_shape_mismatch(self):
        for op in (add, sub, mul):
            with pytest.raises(ShapeError):
                op(t([1, 2]), t([1, 2, 3]))

    def test_scalar_operands(self):
        x = t([1.0, 2.0])
        np.testing.assert_allclose((x + 1).data, [2, 3])
        np.testing.assert_allclose((1 - x).data, [0, -1])
        np.testing.assert_allclose((x * 2).data, [2, 4])

    def test_abs_subgradient_zero_at_kink(self):
        x = t([0.0, -2.0, 3.0], requires_grad=True)
        absolute(x).backward(np.ones(3, dtype=np.float32))
        np.testing.assert_allclose(x.grad, [0, -1, 1])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_no_overflow_under_shift(self):
        out = softmax(t([1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_sums_to_one(self):
        out = softmax(t([1.0, 2.0, 3.0])).data
        assert abs(out.sum() - 1.0) <= 1e-6

    def test_shift_invariance_property(self):
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal(6).astype(np.float32)
            base = softmax(t(x)).data
            shifted = softmax(t(x + 3.7)).data
            np.testing.assert_allclose(base, shifted, atol=1e-6)
            assert abs(base.sum() - 1.0) <= 1e-6

    def test_needs_vector(self):
        with pytest.raises(ShapeError):
            softmax(t(np.zeros((2, 2))))


class TestConv2d:
    def test_scaling_kernel(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        k = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        np.testing.assert_allclose(conv2d(t(x), t(k), t(np.zeros(1))).data, 2 * x)

    def test_all_ones_kernel(self):
        x = t([[[[1, 2], [3, 4]]]])
        k = t(np.ones((1, 1, 2, 2)))
        np.testing.assert_allclose(conv2d(x, k, t(np.zeros(1))).data, [[[[10]]]])

    def test_bias_added_per_output_channel(self):
        out = conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((2, 1, 1, 1))), t([1.0, -1.0])).data
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -1.0)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1)])  # conv2d runs at stride 1
    def test_matches_loop_oracle_bit_for_bit(self, stride, padding):
        for n in (1, 3):  # each sample of a batch equals the scalar loop over it alone
            rng = np.random.default_rng(42 + stride + padding)
            x = rng.standard_normal((n, 2, 5, 5)).astype(np.float32)
            k = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
            bias = rng.standard_normal(3).astype(np.float32)
            ours = conv2d(t(x), t(k), t(bias), padding=padding).data
            for i in range(n):
                assert np.array_equal(ours[i], conv2d_loop(x[i], k, bias, stride=stride, padding=padding))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 4, 4))), t(np.zeros(1)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 3, 2, 2))), t(np.zeros(1)))


class TestMaxpool2d:
    def test_definition(self):
        np.testing.assert_allclose(maxpool2d(t([[[[1, 2], [3, 4]]]]), 2).data, [[[[4]]]])

    def test_tie_routes_to_first_element(self):
        x = t(np.ones((1, 1, 4, 4)), requires_grad=True)
        out = maxpool2d(x, 2)
        np.testing.assert_allclose(out.data, np.ones((1, 1, 2, 2)))
        out.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, ::2, ::2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    @pytest.mark.parametrize("window,stride", [(2, 2)])  # windows tile the map: stride = window
    def test_matches_loop_oracle(self, window, stride):
        for n in (1, 3):
            rng = np.random.default_rng(window * 10 + stride)
            x = rng.standard_normal((n, 3, 4, 4)).astype(np.float32)
            ours = maxpool2d(t(x), window).data
            for i in range(n):
                assert np.array_equal(ours[i], maxpool2d_loop(x[i], window, stride))

    def test_window_too_big(self):
        with pytest.raises(ShapeError):
            maxpool2d(t(np.zeros((1, 1, 2, 2))), 3)


class TestMiscOps:
    def test_take_gathers_flat_indices(self):
        x = t([[1, 2, 3], [4, 5, 6]])
        np.testing.assert_allclose(take(x, (0, 4, 5)).data, [1, 5, 6])

    def test_reshape_round_trip(self):
        x = t(np.arange(6))
        np.testing.assert_allclose(reshape(x, (2, 3)).data, [[0, 1, 2], [3, 4, 5]])
        with pytest.raises(ShapeError):
            reshape(x, (4, 2))

    def test_bias_add(self):
        x = t(np.zeros((2, 3)))
        b = t([[1.0], [-1.0]])
        out = bias_add(x, b).data
        np.testing.assert_allclose(out[0], 1.0)
        np.testing.assert_allclose(out[1], -1.0)

    def test_columns_put_each_sample_in_a_column(self):
        x = t(np.arange(12).reshape(3, 2, 2))
        np.testing.assert_allclose(columns(x).data, np.arange(12).reshape(3, 4).T)

    def test_fuse_max_first_winner(self):
        a = t([[1.0], [5.0]], requires_grad=True)
        b = t([[1.0], [2.0]], requires_grad=True)
        out = fuse_max([a, b])
        np.testing.assert_allclose(out.data, [[1.0], [5.0]])
        out.backward(np.ones((2, 1), dtype=np.float32))
        np.testing.assert_allclose(a.grad, [[1.0], [1.0]])  # tie at index 0 goes to a
        np.testing.assert_allclose(b.grad, [[0.0], [0.0]])

    def test_fuse_max_empty(self):
        with pytest.raises(ProtocolError):
            fuse_max([])

    def test_shared_parent_accumulates(self):
        x = t([3.0], requires_grad=True)
        y = mul(x, x)
        y.backward(np.ones(1, dtype=np.float32))
        np.testing.assert_allclose(x.grad, [6.0])


class TestGradCheckHarness:
    def test_linear_map_near_exact(self):
        err = grad_check(lambda x: x * 3.0, [np.array([1.0, -2.0, 0.5])])
        assert err <= 1e-7

    def test_wrong_backward_detected(self):
        def broken(x):
            out = x.data * 3.0

            def bwd(g):
                _accum(x, g * 6.0)  # doubled on purpose

            return _node(out, (x,), bwd)

        err = grad_check(broken, [np.array([0.7, -1.2])])
        assert err > 0.1


PRIMITIVES = [
    ("matmul", lambda r: (matmul, [r.standard_normal((4, 6)), r.standard_normal((6, 3))])),
    ("add", lambda r: (add, [r.standard_normal((5, 7)), r.standard_normal((5, 7))])),
    ("sub", lambda r: (sub, [r.standard_normal(9), r.standard_normal(9)])),
    ("mul", lambda r: (mul, [r.standard_normal((3, 8)), r.standard_normal((3, 8))])),
    ("relu", lambda r: (relu, [r.standard_normal(40) + np.sign(r.standard_normal(40)) * 0.05])),
    ("sigmoid", lambda r: (sigmoid, [r.standard_normal((6, 6))])),
    ("tanh", lambda r: (tanh, [r.standard_normal((6, 6))])),
    ("abs", lambda r: (absolute, [r.standard_normal(12) + np.sign(r.standard_normal(12)) * 0.05])),
    ("softmax", lambda r: (softmax, [r.standard_normal(7)])),
    ("conv2d", lambda r: (lambda x, k, b: conv2d(x, k, b, padding=1),
                          [r.standard_normal((2, 2, 4, 4)), r.standard_normal((2, 2, 3, 3)), r.standard_normal(2)])),
    ("maxpool2d", lambda r: (lambda x: maxpool2d(x, 2), [r.standard_normal((2, 2, 4, 4))])),
    ("sum", lambda r: (sum_all, [r.standard_normal((4, 4))])),
    ("take", lambda r: (lambda x: take(x, (1, 3, 3, 0)), [r.standard_normal(6)])),
    ("bias_add", lambda r: (bias_add, [r.standard_normal((3, 1)), r.standard_normal((3, 1))])),
    ("bias_add/columns", lambda r: (bias_add, [r.standard_normal((4, 5)), r.standard_normal((4, 1))])),
    ("columns", lambda r: (columns, [r.standard_normal((3, 2, 2, 3))])),
]


@pytest.mark.parametrize("name,builder", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_backward_matches_finite_differences_over_seeds(name, builder):
    # relu/abs fixtures shift inputs off the kink; everything else is smooth
    for seed in range(20):
        fn, inputs = builder(np.random.default_rng(seed))
        assert grad_check(fn, inputs, seed=seed) <= 1e-4


def test_operations_are_pure():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
    k = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
    first = conv2d(t(x), t(k), t(np.zeros(3)), padding=1).data
    second = conv2d(t(x), t(k), t(np.zeros(3)), padding=1).data
    assert np.array_equal(first, second)


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64).astype(np.float32) * 10
    for op in (relu, sigmoid, tanh, absolute, softmax):
        assert np.all(np.isfinite(op(t(x)).data))


def test_backward_frees_graph():
    x = t([1.0, 2.0], requires_grad=True)
    y = mul(x, x)
    y.backward(np.ones(2, dtype=np.float32))
    assert y._parents == () and y._backward is None
