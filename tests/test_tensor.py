"""Tensor engine checks: every operation's gradient against central finite
differences, convolution against a direct seven-loop evaluation, and the
structural invariants of the tape."""

import ctypes
import platform
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import gcaps.tensor as tensor_module
from gcaps.capsule import agreement_update, predict, weighted_sum
from gcaps.tensor import (
    GradTape,
    NonFiniteError,
    ShapeError,
    Tensor,
    _conv2d_im2col,
    _conv2d_spectral,
    _spectral_is_cheaper,
    _spectrum,
    _values_at,
    add,
    conv2d,
    matmul,
    mul,
    no_grad,
    reduce,
    softmax_along,
    sub,
)


def numeric_gradient(f, x, eps=1e-5):
    """Central finite differences of a scalar-valued function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return grad


def check_grad(build, shapes, rng, rel_tol=1e-6, eps=1e-5, scale=1.0):
    """Compare autodiff gradients of ``build`` against finite differences.

    ``build`` maps a list of Tensors to a scalar Tensor.  Each input is
    checked separately; comparison is relative to the larger gradient norm
    with an absolute floor.
    """
    arrays = [rng.standard_normal(s) * scale for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    out.backward()
    for k, t in enumerate(tensors):
        def f(x, k=k):
            subst = [Tensor(x) if i == k else Tensor(arrays[i])
                     for i in range(len(arrays))]
            return build(subst).item()

        numeric = numeric_gradient(f, arrays[k], eps=eps)
        denom = max(np.linalg.norm(numeric), np.linalg.norm(t.grad), 1e-8)
        err = np.linalg.norm(t.grad - numeric) / denom
        assert err < rel_tol, f"input {k}: relative gradient error {err:.3e}"


class TestElementwise:
    def test_binary_ops_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for op in (add, sub, mul):
            check_grad(lambda ts, op=op: op(ts[0], ts[1]).sum(),
                       [(3, 4), (3, 4)], rng)

    def test_div_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 4))
        b = rng.uniform(0.5, 2.0, (3, 4))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta / tb).sum().backward()
        num_a = numeric_gradient(lambda x: (Tensor(x) / Tensor(b)).sum().item(), a)
        num_b = numeric_gradient(lambda x: (Tensor(a) / Tensor(x)).sum().item(), b)
        assert np.allclose(ta.grad, num_a, rtol=1e-6, atol=1e-9)
        assert np.allclose(tb.grad, num_b, rtol=1e-6, atol=1e-9)

    def test_unary_ops_match_finite_differences(self):
        rng = np.random.default_rng(13)
        check_grad(lambda ts: ts[0].exp().sum(), [(4, 3)], rng, scale=0.5)
        check_grad(lambda ts: ts[0].sigmoid().sum(), [(4, 3)], rng)
        check_grad(lambda ts: (-ts[0]).sum(), [(4, 3)], rng)

    def test_sqrt_gradient_on_positive_input(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(0.5, 3.0, (5,))
        t = Tensor(a, requires_grad=True)
        t.sqrt().sum().backward()
        num = numeric_gradient(lambda x: Tensor(x).sqrt().sum().item(), a)
        assert np.allclose(t.grad, num, rtol=1e-6)

    def test_relu_gradient_away_from_kink(self):
        a = np.array([-2.0, -0.5, 0.5, 3.0])
        t = Tensor(a, requires_grad=True)
        t.relu().sum().backward()
        assert np.array_equal(t.grad, np.array([0.0, 0.0, 1.0, 1.0]))

    def test_broadcast_gradient_sums_over_expanded_axes(self):
        # d/db sum(a + b) with b of shape (4,) against a of shape (3, 4)
        # must collapse the broadcast axis: each b entry is used 3 times.
        a = Tensor(np.zeros((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        (a + b).sum().backward()
        assert np.array_equal(b.grad, np.full(4, 3.0))
        assert np.array_equal(a.grad, np.ones((3, 4)))

    def test_broadcast_gradcheck_mul(self):
        rng = np.random.default_rng(15)
        check_grad(lambda ts: (ts[0] * ts[1]).sum(), [(2, 3, 4), (4,)], rng)
        check_grad(lambda ts: (ts[0] * ts[1]).sum(), [(2, 3, 4), (3, 1)], rng)

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 4))) + Tensor(np.zeros((3, 5)))

    def test_python_scalar_operands(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = (2.0 * t + 1.0 - t / 2.0).sum()
        out.backward()
        assert np.allclose(t.grad, np.full(2, 1.5))
        assert out.item() == pytest.approx(2.0 + 1.5 * 3.0)


class TestMatmul:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        check_grad(lambda ts: matmul(ts[0], ts[1]).sum(), [(3, 4), (4, 5)], rng)

    def test_batched_with_leading_broadcast(self):
        rng = np.random.default_rng(22)
        check_grad(lambda ts: matmul(ts[0], ts[1]).sum(), [(6, 3, 4), (4, 5)], rng)
        check_grad(lambda ts: matmul(ts[0], ts[1]).sum(), [(2, 1, 3, 4), (5, 4, 2)], rng)

    def test_inner_dimension_mismatch_raises(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 6))))

    def test_rank_below_two_raises(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(4)), Tensor(np.zeros((4, 2))))


class TestReduce:
    def test_sum_mean_gradients(self):
        rng = np.random.default_rng(31)
        for axis in (None, 0, 1, -1):
            check_grad(lambda ts, ax=axis: reduce("sum", ts[0], ax).sum()
                       if ax is not None else reduce("sum", ts[0], ax),
                       [(3, 5)], rng)
            check_grad(lambda ts, ax=axis: reduce("mean", ts[0], ax).sum()
                       if ax is not None else reduce("mean", ts[0], ax),
                       [(3, 5)], rng)

    def test_keepdims_shapes(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert reduce("sum", t, 1, keepdims=True).shape == (3, 1)
        assert reduce("max", t, 0, keepdims=True).shape == (1, 4)
        assert reduce("mean", t, None).shape == ()

    def test_max_gradient_at_unique_maximum(self):
        rng = np.random.default_rng(32)
        # Spread values far apart so finite differences never cross a tie.
        a = rng.permutation(np.arange(12.0)).reshape(3, 4)
        t = Tensor(a, requires_grad=True)
        reduce("max", t, 1).sum().backward()
        num = numeric_gradient(lambda x: reduce("max", Tensor(x), 1).sum().item(), a)
        assert np.allclose(t.grad, num, atol=1e-9)

    def test_max_tie_routes_to_lowest_index(self):
        t = Tensor(np.array([[2.0, 5.0, 5.0, 1.0]]), requires_grad=True)
        reduce("max", t, 1).sum().backward()
        assert np.array_equal(t.grad, np.array([[0.0, 1.0, 0.0, 0.0]]))

    def test_global_max_tie_single_winner(self):
        t = Tensor(np.full((2, 3), 7.0), requires_grad=True)
        reduce("max", t, None).backward()
        assert t.grad.sum() == 1.0
        assert t.grad.reshape(-1)[0] == 1.0

    def test_invalid_axis_raises(self):
        with pytest.raises(ShapeError):
            reduce("sum", Tensor(np.zeros((2, 3))), 2)


class TestSoftmax:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        check_grad(lambda ts: (softmax_along(ts[0], 1) * ts[1]).sum(),
                   [(4, 6), (4, 6)], rng)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        y = softmax_along(Tensor(rng.standard_normal((5, 7)) * 30.0), 1)
        assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_on_zeros(self):
        for n in (10, 1152, 36):
            y = softmax_along(Tensor(np.zeros((2, n))), 1)
            assert np.allclose(y.data, 1.0 / n, atol=1e-15)

    def test_large_magnitude_inputs_stay_finite(self):
        y = softmax_along(Tensor(np.array([[1e4, -1e4, 0.0]])), 1)
        assert np.isfinite(y.data).all()
        assert y.data.sum() == pytest.approx(1.0)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax_along(Tensor(np.array([[np.nan, 0.0]])), 1)

    def test_negative_axis(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((3, 4, 5))
        assert np.allclose(softmax_along(Tensor(x), -1).data,
                           softmax_along(Tensor(x), 2).data)


class TestStructureOps:
    def test_reshape_and_transpose_gradients(self):
        rng = np.random.default_rng(51)
        check_grad(lambda ts: (ts[0].reshape(6, 2) * ts[1]).sum(),
                   [(3, 4), (6, 2)], rng)
        check_grad(lambda ts: (ts[0].transpose(1, 0, 2) * ts[1]).sum(),
                   [(2, 3, 4), (3, 2, 4)], rng)

    def test_transpose_requires_permutation(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))).transpose(0, 0)


def conv2d_direct(x, k, stride, padding):
    """Definition-level convolution: loop over every output element."""
    b, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((b, c_out, h_out, w_out))
    for n in range(b):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0
                    for c in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, c, i * stride + u, j * stride + v] * k[o, c, u, v]
                    out[n, o, i, j] = acc
    return out


class TestConv2d:
    """Each of conv2d's two algorithms, called directly; im2col here and
    spectral in the subclass."""

    conv = staticmethod(_conv2d_im2col)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 2), (2, 1)])
    def test_matches_direct_evaluation(self, stride, padding):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((2, 3, 9, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        got = self.conv(Tensor(x), Tensor(k), stride, padding)
        want = conv2d_direct(x, k, stride, padding)
        assert got.shape == want.shape
        assert np.allclose(got.data, want, atol=1e-10)

    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 1, 28, 28)))
        k9 = Tensor(np.zeros((4, 1, 9, 9)))
        assert self.conv(x, k9, 1, 0).shape == (1, 4, 20, 20)
        x20 = Tensor(np.zeros((1, 4, 20, 20)))
        k = Tensor(np.zeros((8, 4, 9, 9)))
        assert self.conv(x20, k, 2, 0).shape == (1, 8, 6, 6)

    @pytest.mark.parametrize("x_shape,k_shape,stride,padding,wrt", [
        pytest.param((2, 2, 6, 7), (3, 2, 3, 3), 1, 0, (0, 1), id="1-0"),
        pytest.param((2, 2, 6, 7), (3, 2, 3, 3), 2, 1, (0, 1), id="2-1"),
        pytest.param((2, 2, 6, 5), (3, 2, 3, 2), 1, 0, (0, 1), id="kernel-3x2"),
        # Row 5 and column 5 lie in no window, so their gradient must be zero.
        pytest.param((1, 2, 6, 6), (2, 2, 3, 3), 2, 0, (0, 1), id="stride2-uncovered-edge"),
        pytest.param((1, 2, 5, 6), (2, 2, 3, 3), 2, 2, (0, 1), id="stride2-padding2"),
        # A constant kernel keeps nothing for a kernel gradient; a constant
        # input (the stem's case) computes no input gradient.
        pytest.param((1, 2, 7, 7), (2, 2, 3, 3), 2, 0, (0,), id="input-only"),
        pytest.param((1, 2, 7, 7), (2, 2, 3, 3), 1, 0, (1,), id="kernel-only"),
    ])
    def test_gradients_match_finite_differences(self, x_shape, k_shape, stride, padding, wrt):
        rng = np.random.default_rng(62)
        const = [Tensor(rng.standard_normal(s)) for s in (x_shape, k_shape)]
        wgt = Tensor(rng.standard_normal(self.conv(*const, stride, padding).shape))

        def build(ts):
            args = list(const)
            for i, t in zip(wrt, ts):
                args[i] = t
            return (self.conv(*args, stride, padding) * wgt).sum()

        check_grad(build, [(x_shape, k_shape)[i] for i in wrt], rng, rel_tol=1e-6)

    def test_gradient_with_downstream_weighting(self):
        # A non-uniform cotangent exercises the column scatter fully.
        rng = np.random.default_rng(63)
        wgt = rng.standard_normal((1, 2, 3, 3))
        check_grad(lambda ts: (self.conv(ts[0], ts[1], 2, 0) * Tensor(wgt)).sum(),
                   [(1, 2, 7, 7), (2, 2, 3, 3)], rng)

    def test_float32_stays_float32(self):
        # Each float32 result is within 16 float32 epsilons of its largest
        # float64 value (both algorithms stay under 3).
        rng = np.random.default_rng(64)
        x64, k64 = rng.standard_normal((2, 6, 11, 10)), rng.standard_normal((5, 6, 4, 3))
        g = rng.standard_normal(self.conv(Tensor(x64), Tensor(k64), 2, 1).shape)
        results = []
        for dtype in (np.float64, np.float32):
            x = Tensor(x64, requires_grad=True, dtype=dtype)
            k = Tensor(k64, requires_grad=True, dtype=dtype)
            y = self.conv(x, k, 2, 1)
            (y * Tensor(g, dtype=dtype)).sum().backward()
            results.append((y.data, x.grad, k.grad))
        for want, got in zip(*results):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 16 * np.finfo(np.float32).eps * np.abs(want).max()

    def test_mixed_dtypes_keep_each_gradient_in_its_tensor_dtype(self):
        rng = np.random.default_rng(67)
        x64, k64 = rng.standard_normal((2, 3, 11, 10)), rng.standard_normal((4, 3, 4, 3))
        for x_dtype, k_dtype in ((np.float32, np.float64), (np.float64, np.float32)):
            x = Tensor(x64, requires_grad=True, dtype=x_dtype)
            k = Tensor(k64, requires_grad=True, dtype=k_dtype)
            self.conv(x, k, 2, 1).sum().backward()
            assert x.grad.dtype == x_dtype and k.grad.dtype == k_dtype

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            self.conv(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((2, 4, 3, 3))), 1, 0)

    def test_oversized_kernel_raises(self):
        with pytest.raises(ShapeError):
            self.conv(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 5, 5))), 1, 0)


class TestConv2dSpectral(TestConv2d):
    conv = staticmethod(_conv2d_spectral)

    def test_default_primary_shape_matches_im2col(self):
        rng = np.random.default_rng(65)
        x0, k0 = rng.standard_normal((2, 256, 20, 20)), rng.standard_normal((256, 256, 9, 9))
        g = Tensor(rng.standard_normal((2, 256, 6, 6)))
        results = []
        for path in (_conv2d_im2col, _conv2d_spectral):
            x, k = Tensor(x0, requires_grad=True), Tensor(k0, requires_grad=True)
            y = path(x, k, 2, 0)
            (y * g).sum().backward()
            results.append((y.data, x.grad, k.grad))
        for want, got in zip(*results):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_unread_points_do_not_reach_the_output(self):
        # A 9x9 kernel at stride 2 reads rows and columns 0-18 of a 20x20
        # input, so a NaN in row 19 must reach no output.
        rng = np.random.default_rng(66)
        x, k = rng.standard_normal((2, 3, 20, 20)), rng.standard_normal((4, 3, 9, 9))
        x[1, 2, 19, 5] = np.nan
        got = _conv2d_spectral(Tensor(x), Tensor(k), 2, 0).data
        assert np.isfinite(got).all()
        assert np.allclose(got, _conv2d_im2col(Tensor(x), Tensor(k), 2, 0).data, atol=1e-10)

    def test_backward_drops_each_spectrum_after_its_last_product(self):
        # With many images and few channels, G and the input's spectrum
        # (0.9 x's bytes each) are the largest arrays the pass holds.
        # Measured: 4.0 x's bytes above the pass's start; 4.9 when G and the
        # kernel's spectrum live through the input gradient.
        rng = np.random.default_rng(69)
        x = Tensor(rng.standard_normal((64, 8, 20, 20)), requires_grad=True)
        k = Tensor(rng.standard_normal((8, 8, 9, 9)), requires_grad=True)
        y = _conv2d_spectral(x, k, 2, 0)
        out = (y * Tensor(rng.standard_normal(y.shape))).sum()
        del y
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 4.4 * x.data.nbytes

    def test_no_grad_forward_never_holds_the_whole_kernel_spectrum(self):
        # Three images through the default primary conv: the kernel's
        # spectrum (199 MB) dwarfs the input's (2.3 MB).  Built per block of
        # three output channels (the last block holds one), the forward
        # measured 10.1 MB above the start; built whole, 205.5 MB.
        rng = np.random.default_rng(74)
        x = Tensor(rng.standard_normal((3, 256, 20, 20)))
        k = Tensor(rng.standard_normal((256, 256, 9, 9)))
        x_spectrum = 19 * 10 * 3 * 256 * np.dtype(np.complex128).itemsize
        with no_grad():
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                got = _conv2d_spectral(x, k, 2, 0).data
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            want = _conv2d_im2col(x, k, 2, 0).data
        assert peak - start < 3 * x_spectrum + 4 * tensor_module._BLOCK_BYTES
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("grads", [(True, False), (False, True), (True, True)],
                             ids=["input-only", "kernel-only", "both"])
    def test_kernel_spectrum_is_built_per_block_of_channels(self, monkeypatch, grads):
        # Three images, seven output and eight input channels: the kernel's
        # taps are transformed three output channels at a time for the
        # forward (3x8, 3x8, 1x8 signals) and three input channels at a time
        # for the input gradient (7x3, 7x3, 7x2), never all 7x8 at once.
        rng = np.random.default_rng(75)
        x0, k0 = rng.standard_normal((3, 8, 20, 20)), rng.standard_normal((7, 8, 9, 9))
        g = Tensor(rng.standard_normal((3, 7, 6, 6)))
        taps, real = [], tensor_module._spectrum

        def spectrum(values, *args):
            if values.shape[1:] == (9, 9):
                taps.append(len(values))
            return real(values, *args)

        monkeypatch.setattr(tensor_module, "_spectrum", spectrum)
        results = []
        for path in (_conv2d_im2col, _conv2d_spectral):
            x, k = Tensor(x0, requires_grad=grads[0]), Tensor(k0, requires_grad=grads[1])
            y = path(x, k, 2, 0)
            (y * g).sum().backward()
            results.append([y.data] + [t.grad for t, on in zip((x, k), grads) if on])
        assert taps == [24, 24, 8] + ([21, 21, 14] if grads[0] else [])
        for want, got in zip(*results):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_unread_points_get_a_zero_gradient(self):
        rng = np.random.default_rng(68)
        x = Tensor(rng.standard_normal((2, 3, 20, 20)), requires_grad=True)
        k = Tensor(rng.standard_normal((4, 3, 9, 9)))
        _conv2d_spectral(x, k, 2, 0).sum().backward()
        assert not x.grad[:, :, 19].any() and not x.grad[:, :, :, 19].any()
        assert x.grad[:, :, :19, :19].all()


@pytest.mark.parametrize("conv", [_conv2d_im2col, _conv2d_spectral], ids=["im2col", "spectral"])
class TestConv2dBiasRelu:
    """The bias and ReLU taken inside one conv2d node, on both algorithms,
    against the composition of separate nodes they replace."""

    shapes = [(2, 3, 9, 8), (4, 3, 3, 3), (4,)]

    @classmethod
    def inputs(cls, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.standard_normal(s), requires_grad=True, dtype=dtype)
                for s in cls.shapes]

    @staticmethod
    def unfused(conv, x, k, b, relu):
        y = conv(x, k, 2, 1) + b.reshape(1, -1, 1, 1)
        return y.relu() if relu else y

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "bias-only"])
    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    def test_matches_unfused_composition_bit_for_bit(self, conv, relu, nan):
        results = []
        for fused in (True, False):
            x, k, b = self.inputs(80)
            if nan:
                x.data[1, 0, 4, 4] = np.nan
            y = conv(x, k, 2, 1, b, relu) if fused else self.unfused(conv, x, k, b, relu)
            g = np.random.default_rng(81).standard_normal(y.shape)
            (y * Tensor(g)).sum().backward()
            results.append((y.data, x.grad, k.grad, b.grad))
        assert (results[0][0] == 0).any() == relu
        for got, want in zip(*results):
            assert np.array_equal(got, want, equal_nan=True)

    def test_gradients_match_finite_differences(self, conv):
        # check_grad draws these same inputs from the same seed.  Every
        # pre-activation lies at least 1e-3 from the kink; a 1e-5 step of
        # one input moves none of them by more than 1e-4.
        x, k, b = self.inputs(82)
        pre = conv(x, k, 2, 1, b).data
        assert np.abs(pre).min() > 1e-3 and (pre < 0).any()
        wgt = Tensor(np.random.default_rng(83).standard_normal(pre.shape))
        check_grad(lambda ts: (conv(ts[0], ts[1], 2, 1, ts[2], True) * wgt).sum(),
                   self.shapes, np.random.default_rng(82))

    def test_only_the_bias_requires_a_gradient(self, conv):
        grads = []
        for fused in (True, False):
            x, k, b = self.inputs(84)
            x.requires_grad = k.requires_grad = False
            y = conv(x, k, 2, 1, b, True) if fused else self.unfused(conv, x, k, b, True)
            assert y.requires_grad
            y.sum().backward()
            assert x.grad is None and k.grad is None
            grads.append(b.grad)
        assert np.array_equal(*grads)

    def test_float32_stays_float32(self, conv):
        results = []
        for dtype in (np.float64, np.float32):
            x, k, b = self.inputs(85, dtype)
            y = conv(x, k, 2, 1, b, True)
            (y * y).sum().backward()
            results.append((y.data, x.grad, k.grad, b.grad))
        for want, got in zip(*results):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 16 * np.finfo(np.float32).eps * np.abs(want).max()

    def test_no_grad_records_nothing(self, conv):
        x, k, b = self.inputs(86)
        with no_grad():
            y = conv(x, k, 2, 1, b, True)
            want = self.unfused(conv, x, k, b, True).data
        assert not y.requires_grad and y._parents == () and y._backward_fn is None
        assert np.array_equal(y.data, want)

    def test_bias_of_the_wrong_length_raises(self, conv):
        x, k, _ = self.inputs(87)
        with pytest.raises(ShapeError, match="bias"):
            conv(x, k, 2, 1, Tensor(np.zeros(3)), False)


class TestBlockedTransforms:
    """``_spectrum`` and ``_values_at`` against numpy's FFT, on grids of odd
    and even width (the Nyquist column exists only for even ones) and at
    signal counts around one block."""

    @staticmethod
    def per_block(grid, ctype=np.complex128):
        freqs = grid[0] * (grid[1] // 2 + 1)
        return tensor_module._BLOCK_BYTES // (freqs * np.dtype(ctype).itemsize)

    @pytest.mark.parametrize("grid", [(5, 7), (5, 6)], ids=["odd-wg", "even-wg"])
    @pytest.mark.parametrize("count", ["one", "one-block", "one-block-plus-one"])
    def test_match_numpy_fft(self, grid, count):
        signals = {"one": 1, "one-block": self.per_block(grid),
                   "one-block-plus-one": self.per_block(grid) + 1}[count]
        rng = np.random.default_rng(70)
        rows, cols = np.array([1, 2, 4]), np.array([0, 2, 3, 5])
        values = rng.standard_normal((signals, len(rows), len(cols)))
        on_grid = np.zeros((signals, *grid))
        on_grid[:, rows[:, None], cols] = values
        want = np.fft.rfft2(on_grid).reshape(signals, -1).T
        got = _spectrum(values, rows, cols, grid, np.complex128)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

        # Back from a Hermitian-consistent half spectrum to every grid point.
        out = np.full((signals, *grid), np.nan)
        _values_at(np.conj(want), np.arange(grid[0]), np.arange(grid[1]), grid, out)
        assert np.abs(out - on_grid).max() <= 1e-13 * np.abs(on_grid).max()

    def test_values_at_fills_only_the_leading_block_of_out(self):
        rng = np.random.default_rng(71)
        grid = (6, 5)
        on_grid = rng.standard_normal((2, 3, *grid))
        spec_conj = np.conj(np.fft.rfft2(on_grid).reshape(6, -1).T)
        rows, cols = np.array([0, 3, 5]), np.array([1, 4])
        out = np.full((2, 3, 4, 3), -7.0)
        _values_at(spec_conj, rows, cols, grid, out)
        want = np.fft.irfft2(np.conj(spec_conj).T.reshape(2, 3, 6, 3), s=grid)
        assert np.allclose(out[..., :3, :2], want[..., rows[:, None], cols], atol=1e-13)
        assert (out[..., 3, :] == -7.0).all() and (out[..., 2] == -7.0).all()

    def test_float32_gives_complex64_and_float32(self):
        rng = np.random.default_rng(72)
        grid = (5, 6)
        values = rng.standard_normal((3, 5, 6)).astype(np.float32)
        spec = _spectrum(values, np.arange(5), np.arange(6), grid, np.complex64)
        assert spec.dtype == np.complex64
        out = _values_at(np.conj(spec), np.arange(5), np.arange(6), grid,
                         np.empty((3, 5, 6), dtype=np.float32))
        assert out.dtype == np.float32
        assert np.abs(out - values).max() <= 16 * np.finfo(np.float32).eps * np.abs(values).max()

    def test_no_grad_forward_makes_no_full_size_transform_temporary(self):
        # Many signals, one output channel: the input's spectrum (0.95 x's
        # bytes) is the largest array the forward must hold.  Measured: 1.19
        # x's bytes above the start; 1.90 when the input transform made its
        # spectrum's worth of whole-input temporaries.
        rng = np.random.default_rng(73)
        x = Tensor(rng.standard_normal((128, 64, 20, 20)))
        k = Tensor(rng.standard_normal((1, 64, 9, 9)))
        x_spectrum = 19 * 10 * 128 * 64 * np.dtype(np.complex128).itemsize
        with no_grad():
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                _conv2d_spectral(x, k, 2, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak - start < x_spectrum + 8 * tensor_module._BLOCK_BYTES


class TestConv2dPathChoice:
    @pytest.mark.parametrize("x_shape,k_shape,stride,grads,spectral", [
        pytest.param((128, 256, 20, 20), (256, 256, 9, 9), 2, (True, True), True,
                     id="default-primary"),
        pytest.param((128, 256, 20, 20), (256, 256, 9, 9), 2, (False, False), True,
                     id="default-primary-no-grad"),
        pytest.param((128, 1, 28, 28), (256, 1, 9, 9), 1, (False, True), False,
                     id="default-stem"),
        pytest.param((128, 1, 28, 28), (256, 1, 9, 9), 1, (False, False), False,
                     id="default-stem-no-grad"),
        pytest.param((16, 32, 20, 20), (64, 32, 9, 9), 2, (True, True), True,
                     id="compact-primary-batch16"),
        pytest.param((16, 32, 20, 20), (64, 32, 9, 9), 2, (False, False), False,
                     id="compact-primary-batch16-no-grad"),
        pytest.param((32, 32, 20, 20), (64, 32, 9, 9), 2, (False, False), True,
                     id="compact-primary-batch32-no-grad"),
        pytest.param((64, 32, 20, 20), (64, 32, 9, 9), 2, (False, False), True,
                     id="compact-primary-batch64-no-grad"),
        # Small batches, where the kernel's transforms and the reads of its
        # spectrum are bound by the bytes they move: im2col ran 1.02-2.6x
        # faster at each of these, with freed pages kept.
        pytest.param((4, 256, 20, 20), (256, 256, 9, 9), 2, (True, True), False,
                     id="default-primary-batch4"),
        pytest.param((8, 256, 20, 20), (256, 256, 9, 9), 2, (True, True), False,
                     id="default-primary-batch8"),
        pytest.param((8, 256, 20, 20), (256, 256, 9, 9), 2, (False, False), False,
                     id="default-primary-batch8-no-grad"),
        pytest.param((3, 256, 20, 20), (256, 256, 9, 9), 2, (True, True), False,
                     id="default-primary-batch3"),
        pytest.param((6, 256, 20, 20), (256, 256, 9, 9), 2, (False, False), False,
                     id="default-primary-batch6-no-grad"),
        pytest.param((4, 32, 20, 20), (64, 32, 9, 9), 2, (True, True), False,
                     id="compact-primary-batch4"),
    ])
    def test_cheaper_path_by_shape(self, x_shape, k_shape, stride, grads, spectral):
        assert _spectral_is_cheaper(x_shape, k_shape, stride, 0, *grads) == spectral

    def test_conv2d_counts_only_gradients_it_records(self, monkeypatch):
        # At the compact primary conv's shape and batch 16 the backward
        # products decide: spectral when both gradients are recorded, im2col
        # under no_grad.
        calls = []
        monkeypatch.setattr(tensor_module, "_conv2d_spectral", lambda *a: calls.append("spectral"))
        monkeypatch.setattr(tensor_module, "_conv2d_im2col", lambda *a: calls.append("im2col"))
        x = Tensor(np.zeros((16, 32, 20, 20)), requires_grad=True)
        k = Tensor(np.zeros((64, 32, 9, 9)), requires_grad=True)
        conv2d(x, k, stride=2)
        with no_grad():
            conv2d(x, k, stride=2)
        assert calls == ["spectral", "im2col"]

    def test_conv2d_checks_shapes_before_choosing(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((2, 4, 3, 3))))


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


class TestFreedPagesKept:
    """Importing ``gcaps.tensor`` makes glibc keep freed memory for reuse."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_large_block_comes_from_the_heap(self):
        # glibc would mmap a 64 MiB block, and unmap it when it is freed;
        # ``hblkhd`` counts the bytes held in such blocks.
        libc = ctypes.CDLL("libc.so.6")
        if not hasattr(libc, "mallinfo2"):
            pytest.skip("mallinfo2 needs glibc 2.33")
        libc.mallinfo2.restype = _MallInfo2
        before = libc.mallinfo2().hblkhd
        block = np.ones(8 << 20)
        assert libc.mallinfo2().hblkhd == before
        assert block.nbytes == 64 << 20 and tensor_module.FREED_PAGES_KEPT is True

    @pytest.mark.parametrize("lookup", [
        pytest.param(lambda name: SimpleNamespace(), id="no-mallopt"),
        pytest.param(_no_library, id="no-library"),
        pytest.param(lambda name: SimpleNamespace(mallopt=lambda option, value: 0), id="rejected"),
    ])
    def test_without_glibc_mallopt_setup_does_nothing(self, monkeypatch, lookup):
        monkeypatch.setattr(ctypes, "CDLL", lookup)
        assert tensor_module._keep_freed_pages() is False


class TestScalarOperands:
    @pytest.mark.parametrize("op", [add, sub, mul, tensor_module.div])
    @pytest.mark.parametrize("scalar", [2, 0.5])
    def test_python_scalar_takes_the_tensor_dtype(self, op, scalar):
        for dtype in (np.float32, np.float64):
            t = Tensor(np.full(3, 1.5), dtype=dtype)
            assert op(t, scalar).data.dtype == dtype
            assert op(scalar, t).data.dtype == dtype

    def test_float64_results_unchanged(self):
        t = Tensor(np.array([0.1, 0.7, 3.0]))
        assert np.array_equal((1.0 + t / 3 - 0.2 * t).data,
                              1.0 + t.data / 3.0 - 0.2 * t.data)

    def test_float32_operator_sugar_and_gradient(self):
        t = Tensor(np.array([0.5, 2.0]), requires_grad=True, dtype=np.float32)
        out = (1.0 - t) * 3 / (t + 1e-18)
        out.sum().backward()
        assert out.data.dtype == np.float32
        assert t.grad.dtype == np.float32


class TestAutodiffMechanics:
    def test_tape_orders_inputs_before_outputs(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = a * 2.0
        c = b + a
        d = c.sum()
        tape = GradTape.from_root(d)
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]
        assert pos[id(a)] < pos[id(b)] < pos[id(c)] < pos[id(d)]

    def test_diamond_graph_accumulates_both_paths(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        out = (a * a + a * 2.0).sum()   # d/da = 2a + 2 = 8
        out.backward()
        assert np.allclose(a.grad, [8.0])

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 3.0).sum().backward()
        first = a.grad.copy()
        (a * 3.0).sum().backward()
        assert np.array_equal(a.grad, 2.0 * first)
        a.clear_grad()
        assert a.grad is None

    def test_second_pass_from_a_consumed_root_raises(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = ((a * 3.0) * 2.0).sum()
        out.backward()
        assert np.array_equal(a.grad, [6.0, 6.0])
        with pytest.raises(RuntimeError, match="consumed"):
            out.backward()

    def test_new_root_through_a_consumed_node_raises(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = a * 3.0
        (b * 2.0).sum().backward()
        assert np.array_equal(b.grad, [2.0, 2.0])
        with pytest.raises(RuntimeError, match="consumed"):
            (b * 5.0).sum().backward()

    def test_node_only_the_tape_holds_is_gone_when_its_closure_runs(self):
        a = Tensor(np.ones(3), requires_grad=True)
        alive = []

        def backward(g):
            alive.append(node() is not None)
            a._accumulate(2.0 * g)

        b = Tensor._node(2.0 * a.data, (a,), backward, "double")
        node = weakref.ref(b)
        out = b.sum()
        del b
        out.backward()
        assert alive == [False]
        assert np.array_equal(a.grad, np.full(3, 2.0))

    def test_held_node_with_deferred_terms_keeps_data_and_gets_full_gradient(self):
        # u_hat's gradient is two deferred factor pairs plus a dense term; the
        # same graph with the routing ops written as products and sums defers
        # nothing.  Both hold u_hat, so the pass must leave its data and grad.
        rng = np.random.default_rng(76)
        u0, w0 = rng.standard_normal((2, 6, 4)), rng.standard_normal((6, 3, 5, 4))
        c0, v0 = rng.uniform(0.0, 1.0, (2, 6, 3)), rng.standard_normal((2, 3, 5))
        g_s, g_b = rng.standard_normal((2, 2, 3, 5)), rng.standard_normal((2, 6, 3))

        def graph(deferred):
            u_hat = predict(Tensor(u0, requires_grad=True), Tensor(w0, requires_grad=True))
            c, v = Tensor(c0), Tensor(v0)
            if deferred:
                s = weighted_sum(c, u_hat, num_types=2)
                b = agreement_update(Tensor(np.zeros((2, 6, 3))), u_hat, v)
            else:
                s = (c.reshape(2, 6, 3, 1) * u_hat).reshape(2, 2, 3, 3, 5).sum(axis=2)
                b = (u_hat * v.reshape(2, 1, 3, 5)).sum(axis=3)
            return u_hat, ((s * Tensor(g_s)).sum() + (b * Tensor(g_b)).sum()
                           + (u_hat * u_hat).sum())

        u_hat, out = graph(deferred=True)
        data = u_hat.data.copy()
        out.backward()
        want, want_out = graph(deferred=False)
        want_out.backward()
        assert np.array_equal(u_hat.data, data)
        assert np.allclose(u_hat.grad, want.grad, rtol=1e-13, atol=1e-14)
        with pytest.raises(RuntimeError, match="consumed"):
            (u_hat * 2.0).sum().backward()

    def test_pass_empties_the_tape_and_keeps_held_nodes(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = a * 2.0
        out = (b * b).sum()
        tape = GradTape.from_root(out)
        out._accumulate(np.ones(()))
        tape.run()
        assert tape.nodes == []
        assert np.array_equal(b.data, np.full(3, 2.0))
        assert np.array_equal(b.grad, np.full(3, 4.0))
        assert np.array_equal(a.grad, np.full(3, 8.0))
        assert b._parents == () and out._parents == ()

    def test_first_contribution_is_copied(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = a.reshape(3)
        (b * 2.0).sum().backward()
        assert np.array_equal(a.grad, np.full(3, 2.0))
        assert not np.shares_memory(a.grad, b.grad)

    def test_broadcast_first_contribution_is_a_full_array(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum().backward()
        assert a.grad.flags.writeable and a.grad.strides == (24, 8)
        a.sum().backward()
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (a * 2.0).backward()

    def test_no_grad_builds_no_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (a * 2.0).sum()
        assert not out.requires_grad
        assert out._parents == ()

    def test_constant_subtree_not_recorded(self):
        a = Tensor(np.ones(3))
        out = a * 2.0
        assert not out.requires_grad
        assert out._parents == ()

    def test_detach_blocks_gradient(self):
        # a leaf made from another tensor's values is cut from its graph
        a = Tensor(np.full(3, 2.0), requires_grad=True)
        (Tensor(a.data) * a).sum().backward()
        assert np.allclose(a.grad, np.full(3, 2.0))

    def test_shared_leaf_in_long_chain(self):
        rng = np.random.default_rng(71)
        check_grad(lambda ts: ((ts[0] * ts[0]).exp().sigmoid()).sum(),
                   [(3,)], rng, scale=0.3)

    def test_float64_is_default(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float64

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)).item()
