"""Capsule primitive checks: each vectorized operation against an explicit
per-index loop, squash geometry, coupling normalization per axis mode, and
loss values against scalar reference formulas."""

import tracemalloc

import numpy as np
import pytest

from gcaps.capsule import (
    AxisMode,
    CapsLayerSpec,
    agreement_update,
    coupling_from_logits,
    margin_loss,
    predict,
    reconstruction_loss,
    squash,
    weighted_sum,
)
from gcaps.tensor import GradTape, NonFiniteError, ShapeError, Tensor, no_grad

from test_tensor import check_grad, numeric_gradient


# -- loop oracles (definition-level, no vectorization) -----------------------


def predict_loops(w, u):
    b, n, k = u.shape
    _, j, d, _ = w.shape
    out = np.zeros((b, n, j, d))
    for bi in range(b):
        for i in range(n):
            for jj in range(j):
                for di in range(d):
                    acc = 0.0
                    for ki in range(k):
                        acc += w[i, jj, di, ki] * u[bi, i, ki]
                    out[bi, i, jj, di] = acc
    return out


def weighted_sum_loops(c, u_hat, lo, hi):
    b, n, j, d = u_hat.shape
    out = np.zeros((b, j, d))
    for bi in range(b):
        for jj in range(j):
            for di in range(d):
                acc = 0.0
                for i in range(lo, hi):
                    acc += c[bi, i, jj] * u_hat[bi, i, jj, di]
                out[bi, jj, di] = acc
    return out


def agreement_loops(b_mat, u_hat, v):
    b, n, j, d = u_hat.shape
    out = b_mat.copy()
    for bi in range(b):
        for i in range(n):
            for jj in range(j):
                acc = 0.0
                for di in range(d):
                    acc += u_hat[bi, i, jj, di] * v[bi, jj, di]
                out[bi, i, jj] += acc
    return out


def margin_loss_scalar(lengths, labels):
    total = 0.0
    b, j = lengths.shape
    for bi in range(b):
        for jj in range(j):
            t = labels[bi, jj]
            total += t * max(0.0, 0.9 - lengths[bi, jj]) ** 2
            total += 0.5 * (1.0 - t) * max(0.0, lengths[bi, jj] - 0.1) ** 2
    return total / b


class TestCapsLayerSpec:
    def test_reference_dimensions(self):
        spec = CapsLayerSpec.reference()
        assert (spec.num_lower, spec.num_upper) == (1152, 10)
        assert (spec.dim_lower, spec.dim_upper) == (8, 16)
        assert (spec.num_types, spec.caps_per_type) == (32, 36)
        assert spec.num_types * spec.caps_per_type == spec.num_lower

    def test_types_cover_range_contiguously(self):
        # Type t is lower capsules [36t, 36t + 36): the grouped softmax sums
        # to one over exactly those ranges.
        spec = CapsLayerSpec.reference()
        b = np.random.default_rng(100).standard_normal((1, 1152, 2))
        c = coupling_from_logits(Tensor(b), AxisMode.LOWER_PER_UPPER, spec.num_types).data
        sums = c.reshape(1, 32, 36, 2).sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_inconsistent_group_product_rejected(self):
        with pytest.raises(ValueError):
            CapsLayerSpec(num_lower=100, num_upper=10, dim_lower=8,
                          dim_upper=16, num_types=3, caps_per_type=36)

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValueError):
            CapsLayerSpec(num_lower=4, num_upper=0, dim_lower=8,
                          dim_upper=16, num_types=2, caps_per_type=2)


class TestSquash:
    def test_zero_vector_maps_to_zero(self):
        v = squash(Tensor(np.zeros((3, 4))))
        assert np.array_equal(v.data, np.zeros((3, 4)))

    def test_unit_vector_scales_to_exactly_half(self):
        s = np.zeros((1, 5))
        s[0, 2] = 1.0
        v = squash(Tensor(s))
        assert np.linalg.norm(v.data) == 0.5

    def test_large_norm_approaches_one(self):
        s = np.zeros((1, 3))
        s[0, 0] = 1000.0
        n = np.linalg.norm(squash(Tensor(s)).data)
        assert abs(n - 1.0) < 1e-5
        assert n < 1.0

    def test_norm_below_one_and_direction_preserved(self):
        rng = np.random.default_rng(81)
        s = rng.standard_normal((200, 8)) * rng.uniform(0.01, 50, (200, 1))
        v = squash(Tensor(s)).data
        norms = np.linalg.norm(v, axis=1)
        assert (norms < 1.0).all()
        cos = (v * s).sum(axis=1) / (np.linalg.norm(s, axis=1) * norms)
        assert np.allclose(cos, 1.0, atol=1e-9)

    def test_norm_is_monotone_in_input_norm(self):
        rng = np.random.default_rng(82)
        direction = rng.standard_normal(6)
        scales = np.sort(rng.uniform(0.001, 20, 50))
        norms = [np.linalg.norm(squash(Tensor((s * direction)[None, :])).data)
                 for s in scales]
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(83)
        check_grad(lambda ts: (squash(ts[0]) * ts[1]).sum(),
                   [(3, 6), (3, 6)], rng)

    def test_gradient_finite_at_zero(self):
        t = Tensor(np.zeros((2, 4)), requires_grad=True)
        squash(t).sum().backward()
        assert np.isfinite(t.grad).all()

    def test_interior_axis(self):
        rng = np.random.default_rng(84)
        s = rng.standard_normal((2, 5, 3))
        v1 = squash(Tensor(s), axis=1).data
        v2 = squash(Tensor(s.transpose(0, 2, 1)), axis=2).data.transpose(0, 2, 1)
        assert np.allclose(v1, v2, atol=1e-15)

    def test_float32_stays_float32(self):
        s = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True, dtype=np.float32)
        out = squash(s)
        out.sum().backward()
        assert out.data.dtype == np.float32 and s.grad.dtype == np.float32
        assert np.allclose(out.data[1], [0.6 * 25 / 26, 0.8 * 25 / 26], rtol=1e-6)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            squash(Tensor(np.array([[np.inf, 0.0]])))


class TestPredict:
    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(91)
        w = rng.standard_normal((4, 2, 2, 3))
        u = rng.standard_normal((5, 4, 3))
        got = predict(Tensor(u), Tensor(w))
        assert isinstance(got, Tensor)
        assert got.shape == (5, 4, 2, 2)
        assert np.allclose(got.data, predict_loops(w, u), atol=1e-12)

    def test_identity_transform_copies_input(self):
        n, j, d = 3, 2, 4
        w = np.zeros((n, j, d, d))
        w[:, :] = np.eye(d)
        u = np.random.default_rng(92).standard_normal((2, n, d))
        got = predict(Tensor(u), Tensor(w)).data
        for jj in range(j):
            assert np.array_equal(got[:, :, jj, :], u)

    def test_zero_weights_give_zero(self):
        u = np.ones((1, 3, 8))
        got = predict(Tensor(u), Tensor(np.zeros((3, 2, 16, 8))))
        assert not got.data.any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(93)
        check_grad(lambda ts: (predict(ts[0], ts[1]) * ts[2]).sum(),
                   [(2, 3, 4), (3, 2, 3, 4), (2, 3, 2, 3)], rng)

    def test_output_is_c_contiguous(self):
        rng = np.random.default_rng(94)
        got = predict(Tensor(rng.standard_normal((3, 5, 4))),
                      Tensor(rng.standard_normal((5, 2, 6, 4))))
        assert got.data.flags.c_contiguous

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(95)
        u = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True, dtype=np.float32)
        w = Tensor(rng.standard_normal((3, 2, 5, 4)), requires_grad=True, dtype=np.float32)
        out = predict(u, w)
        out.sum().backward()
        assert {out.data.dtype, u.grad.dtype, w.grad.dtype} == {np.dtype(np.float32)}

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            predict(Tensor(np.zeros((1, 5, 8))), Tensor(np.zeros((4, 2, 16, 8))))


class TestCoupling:
    def test_zero_logits_upper_per_lower_gives_tenth(self):
        b = Tensor(np.zeros((2, 7, 10)))
        c = coupling_from_logits(b, AxisMode.UPPER_PER_LOWER)
        assert isinstance(c, Tensor)
        assert np.abs(c.data - 0.1).max() < 1e-15

    def test_zero_logits_lower_per_upper_ungrouped(self):
        b = Tensor(np.zeros((1, 1152, 10)))
        c = coupling_from_logits(b, AxisMode.LOWER_PER_UPPER)
        assert np.abs(c.data - 1.0 / 1152).max() < 1e-15

    def test_zero_logits_lower_per_upper_grouped(self):
        spec = CapsLayerSpec.reference()
        b = Tensor(np.zeros((1, 1152, 10)))
        c = coupling_from_logits(b, AxisMode.LOWER_PER_UPPER, spec.num_types)
        assert np.abs(c.data - 1.0 / 36).max() < 1e-15

    def test_normalization_axis_properties(self):
        rng = np.random.default_rng(101)
        b = Tensor(rng.standard_normal((3, 12, 5)) * 4.0)
        rows = coupling_from_logits(b, AxisMode.UPPER_PER_LOWER).data
        assert np.allclose(rows.sum(axis=2), 1.0, atol=1e-9)
        cols = coupling_from_logits(b, AxisMode.LOWER_PER_UPPER).data
        assert np.allclose(cols.sum(axis=1), 1.0, atol=1e-9)
        grouped = coupling_from_logits(b, AxisMode.LOWER_PER_UPPER, num_types=3).data
        for a in (0, 4, 8):
            assert np.allclose(grouped[:, a:a + 4, :].sum(axis=1), 1.0, atol=1e-9)
        assert (grouped >= 0).all()

    def test_shift_invariance_within_group(self):
        rng = np.random.default_rng(102)
        b = rng.standard_normal((2, 8, 3))
        base = coupling_from_logits(Tensor(b), AxisMode.LOWER_PER_UPPER, num_types=2).data
        shifted = b.copy()
        shifted[:, 0:4, :] += 7.25   # constant within the first group
        moved = coupling_from_logits(Tensor(shifted), AxisMode.LOWER_PER_UPPER,
                                     num_types=2).data
        assert np.allclose(base, moved, atol=1e-9)

    def test_upper_per_lower_ignores_types(self):
        rng = np.random.default_rng(103)
        b = rng.standard_normal((2, 6, 4))
        with_types = coupling_from_logits(Tensor(b), AxisMode.UPPER_PER_LOWER,
                                          num_types=2).data
        without = coupling_from_logits(Tensor(b), AxisMode.UPPER_PER_LOWER).data
        assert np.array_equal(with_types, without)

    def test_grouped_softmax_matches_concatenated_slices(self):
        rng = np.random.default_rng(104)
        b = rng.standard_normal((2, 10, 4))
        got = coupling_from_logits(Tensor(b), AxisMode.LOWER_PER_UPPER, num_types=2).data
        for a, z in ((0, 5), (5, 10)):
            seg = np.exp(b[:, a:z, :])
            want = seg / seg.sum(axis=1, keepdims=True)
            assert np.allclose(got[:, a:z, :], want, atol=1e-12)

    def test_grouped_gradients_match_finite_differences(self):
        rng = np.random.default_rng(107)
        check_grad(
            lambda ts: (coupling_from_logits(ts[0], AxisMode.LOWER_PER_UPPER,
                                             num_types=2) * ts[1]).sum(),
            [(2, 8, 3), (2, 8, 3)], rng)

    # Every LOWER_PER_UPPER case runs through one segment softmax: the whole
    # layer as one type, and equal types.
    LOWER_TYPES = pytest.mark.parametrize("num_types", [1, 2], ids=["one-type", "two-types"])

    @LOWER_TYPES
    def test_extreme_logit_takes_its_whole_group(self, num_types):
        rng = np.random.default_rng(108)
        logits = rng.standard_normal((2, 6, 3))
        groups = [(a, a + 6 // num_types) for a in range(0, 6, 6 // num_types)]
        for a, _ in groups:
            logits[:, a + 1, 1] = 1e300
        b = Tensor(logits, requires_grad=True)
        c = coupling_from_logits(b, AxisMode.LOWER_PER_UPPER, num_types)
        (c * Tensor(rng.standard_normal((2, 6, 3)))).sum().backward()
        for a, z in groups:
            column = c.data[:, a:z, 1]
            assert (column[:, 1] == 1.0).all()
            assert (np.delete(column, 1, axis=1) == 0.0).all()
        assert np.isfinite(b.grad).all()

    @LOWER_TYPES
    def test_float32_logits_give_float32_couplings_and_gradient(self, num_types):
        rng = np.random.default_rng(109)
        logits, weights = rng.standard_normal((2, 2, 6, 3))
        results = []
        for dtype in (np.float64, np.float32):
            b = Tensor(logits, requires_grad=True, dtype=dtype)
            c = coupling_from_logits(b, AxisMode.LOWER_PER_UPPER, num_types)
            (c * Tensor(weights, dtype=dtype)).sum().backward()
            results.append((c.data, b.grad))
        for want, got in zip(*results):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 16 * np.finfo(np.float32).eps * np.abs(want).max()

    @LOWER_TYPES
    def test_lower_per_upper_is_one_tape_node(self, num_types):
        b = Tensor(np.zeros((2, 6, 3)), requires_grad=True)
        c = coupling_from_logits(b, AxisMode.LOWER_PER_UPPER, num_types)
        nodes = [n for n in GradTape.from_root(c).nodes if n._parents]
        assert len(nodes) == 1 and nodes[0] is c
        assert c._parents == (b,)

    def test_unequal_type_split_rejected(self):
        b = Tensor(np.zeros((1, 8, 3)))
        for bad in (3, 5, 0, -2):
            with pytest.raises(ShapeError, match="equal types"):
                coupling_from_logits(b, AxisMode.LOWER_PER_UPPER, bad)


class TestWeightedSum:
    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(111)
        c = rng.uniform(0, 1, (2, 5, 3))
        u_hat = rng.standard_normal((2, 5, 3, 4))
        got = weighted_sum(Tensor(c), Tensor(u_hat))
        assert got.shape == (2, 1, 3, 4)
        assert np.allclose(got.data[:, 0], weighted_sum_loops(c, u_hat, 0, 5), atol=1e-12)

    def test_grouped_slices_match_loops_over_ranges(self):
        rng = np.random.default_rng(112)
        c = rng.uniform(0, 1, (2, 6, 3))
        u_hat = rng.standard_normal((2, 6, 3, 4))
        got = weighted_sum(Tensor(c), Tensor(u_hat), num_types=3)
        assert got.shape == (2, 3, 3, 4)
        for t, (lo, hi) in enumerate(((0, 2), (2, 4), (4, 6))):
            assert np.allclose(got.data[:, t], weighted_sum_loops(c, u_hat, lo, hi),
                               atol=1e-12)

    def test_single_capsule_unit_coupling_passes_through(self):
        rng = np.random.default_rng(113)
        u_hat = rng.standard_normal((3, 1, 4, 5))
        got = weighted_sum(Tensor(np.ones((3, 1, 4))), Tensor(u_hat))
        assert np.allclose(got.data[:, 0], u_hat[:, 0], atol=1e-15)

    def test_uniform_coupling_over_identical_votes(self):
        n = 7
        u_row = np.random.default_rng(114).standard_normal((2, 1, 3, 4))
        u_hat = np.repeat(u_row, n, axis=1)
        got = weighted_sum(Tensor(np.full((2, n, 3), 1.0 / n)), Tensor(u_hat))
        assert np.allclose(got.data[:, 0], u_row[:, 0], atol=1e-12)

    def test_gradients_full_and_grouped(self):
        rng = np.random.default_rng(115)
        check_grad(lambda ts: (weighted_sum(ts[0], ts[1]) * ts[2]).sum(),
                   [(2, 4, 3), (2, 4, 3, 2), (2, 1, 3, 2)], rng)
        check_grad(lambda ts: (weighted_sum(ts[0], ts[1], num_types=2) * ts[2]).sum(),
                   [(2, 4, 3), (2, 4, 3, 2), (2, 2, 3, 2)], rng)

    def test_indivisible_type_count_raises(self):
        with pytest.raises(ShapeError):
            weighted_sum(Tensor(np.zeros((1, 4, 2))),
                         Tensor(np.zeros((1, 4, 2, 3))), num_types=3)


class TestAgreementUpdate:
    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(121)
        b = rng.standard_normal((2, 5, 3))
        u_hat = rng.standard_normal((2, 5, 3, 4))
        v = rng.standard_normal((2, 3, 4))
        got = agreement_update(Tensor(b), Tensor(u_hat), Tensor(v))
        assert isinstance(got, Tensor)
        assert np.allclose(got.data, agreement_loops(b, u_hat, v), atol=1e-12)

    def test_zero_output_leaves_logits_unchanged(self):
        rng = np.random.default_rng(122)
        b = rng.standard_normal((1, 4, 2))
        got = agreement_update(Tensor(b), Tensor(rng.standard_normal((1, 4, 2, 3))),
                               Tensor(np.zeros((1, 2, 3))))
        assert np.array_equal(got.data, b)

    def test_equal_vectors_increment_by_squared_norm(self):
        # u_hat == v with norm 0.5 adds exactly 0.25 everywhere.
        v = np.zeros((1, 2, 4))
        v[:, :, 0] = 0.5
        u_hat = np.broadcast_to(v[:, None], (1, 3, 2, 4)).copy()
        got = agreement_update(Tensor(np.zeros((1, 3, 2))), Tensor(u_hat), Tensor(v))
        assert np.allclose(got.data, 0.25, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(123)
        check_grad(lambda ts: (agreement_update(ts[0], ts[1], ts[2])
                               * ts[3]).sum(),
                   [(2, 3, 2), (2, 3, 2, 4), (2, 2, 4), (2, 3, 2)], rng)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            agreement_update(Tensor(np.zeros((1, 3, 2))),
                             Tensor(np.zeros((1, 3, 2, 4))),
                             Tensor(np.zeros((1, 3, 4))))


class TestMarginLoss:
    def test_exact_margins_give_zero(self):
        lengths = np.full((2, 10), 0.1)
        lengths[0, 3] = 0.9
        lengths[1, 7] = 0.9
        labels = np.zeros((2, 10))
        labels[0, 3] = 1.0
        labels[1, 7] = 1.0
        assert margin_loss(Tensor(lengths), Tensor(labels)).item() == 0.0

    def test_zero_length_on_present_class_costs_081(self):
        lengths = np.zeros((1, 10))
        labels = np.zeros((1, 10))
        labels[0, 0] = 1.0
        loss = margin_loss(Tensor(lengths), Tensor(labels)).item()
        assert loss == pytest.approx(0.81, abs=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(131)
        lengths = rng.uniform(0, 1, (6, 10))
        labels = np.zeros((6, 10))
        labels[np.arange(6), rng.integers(0, 10, 6)] = 1.0
        got = margin_loss(Tensor(lengths), Tensor(labels)).item()
        assert got == pytest.approx(margin_loss_scalar(lengths, labels), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(132)
        lengths = rng.uniform(0.15, 0.85, (4, 5))   # clear of both hinge kinks
        labels = np.zeros((4, 5))
        labels[np.arange(4), rng.integers(0, 5, 4)] = 1.0
        t = Tensor(lengths, requires_grad=True)
        margin_loss(t, Tensor(labels)).backward()
        num = numeric_gradient(
            lambda x: margin_loss(Tensor(x), Tensor(labels)).item(), lengths)
        assert np.allclose(t.grad, num, rtol=1e-6, atol=1e-10)

    def test_rejects_non_one_hot(self):
        lengths = Tensor(np.zeros((2, 3)))
        for bad in [np.zeros((2, 3)), np.ones((2, 3)),
                    np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])]:
            with pytest.raises(ValueError):
                margin_loss(lengths, Tensor(bad))


class TestReconstructionLoss:
    def test_identical_images_cost_zero(self):
        x = np.random.default_rng(141).uniform(0, 1, (3, 784))
        assert reconstruction_loss(Tensor(x), Tensor(x)).item() == 0.0

    def test_unit_difference_sums_pixels(self):
        loss = reconstruction_loss(Tensor(np.zeros((2, 784))),
                                   Tensor(np.ones((2, 784))))
        assert loss.item() == pytest.approx(784.0)

    def test_matches_scalar_double_loop(self):
        rng = np.random.default_rng(142)
        a = rng.uniform(0, 1, (3, 20))
        b = rng.uniform(0, 1, (3, 20))
        want = sum((a[i, p] - b[i, p]) ** 2
                   for i in range(3) for p in range(20)) / 3
        assert reconstruction_loss(Tensor(a), Tensor(b)).item() == \
            pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(143)
        check_grad(lambda ts: reconstruction_loss(ts[0], ts[1]),
                   [(2, 12), (2, 12)], rng)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(Tensor(np.zeros((2, 10))),
                                Tensor(np.zeros((2, 11))))


class TestReferenceLayerFormulas:
    """The routing ops at the 1152x10x16 layer, batch 2, against the einsum
    and broadcast formulas they replaced, within 1e-12 of the largest value."""

    @staticmethod
    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.fixture
    def layer(self):
        rng = np.random.default_rng(131)
        spec = CapsLayerSpec.reference()
        batch, n, j, d, k = 2, spec.num_lower, spec.num_upper, spec.dim_upper, spec.dim_lower
        return {"u": rng.standard_normal((batch, n, k)),
                "w": rng.standard_normal((n, j, d, k)) * 0.1,
                "c": rng.uniform(0.0, 0.2, (batch, n, j)),
                "b": rng.standard_normal((batch, n, j)),
                "v": rng.standard_normal((batch, j, d)) * 0.3,
                "g_hat": rng.standard_normal((batch, n, j, d)),
                "g_s": rng.standard_normal((batch, spec.num_types, j, d)),
                "g_b": rng.standard_normal((batch, n, j)),
                "types": spec.num_types}

    def test_predict_and_its_gradients(self, layer):
        u = Tensor(layer["u"], requires_grad=True)
        w = Tensor(layer["w"], requires_grad=True)
        out = predict(u, w)
        assert out.data.flags.c_contiguous
        self.close(out.data, np.einsum("njdk,bnk->bnjd", layer["w"], layer["u"]))
        (out * Tensor(layer["g_hat"])).sum().backward()
        self.close(w.grad, np.einsum("bnjd,bnk->njdk", layer["g_hat"], layer["u"]))
        self.close(u.grad, np.einsum("njdk,bnjd->bnk", layer["w"], layer["g_hat"]))

    @pytest.mark.parametrize("grouped", [False, True])
    def test_weighted_sum_gradients(self, layer, grouped):
        types = layer["types"] if grouped else 1
        u_hat = np.einsum("njdk,bnk->bnjd", layer["w"], layer["u"])
        c_t, u_t = Tensor(layer["c"], requires_grad=True), Tensor(u_hat, requires_grad=True)
        g = layer["g_s"][:, :types]
        (weighted_sum(c_t, u_t, types) * Tensor(g)).sum().backward()
        batch, n, j, d = u_hat.shape
        cv = layer["c"].reshape(batch, types, n // types, j)
        uv = u_hat.reshape(batch, types, n // types, j, d)
        self.close(u_t.grad, (cv[..., None] * g[:, :, None]).reshape(u_hat.shape))
        self.close(c_t.grad, np.einsum("btkjd,btjd->btkj", uv, g).reshape(batch, n, j))

    def test_agreement_update_and_its_gradients(self, layer):
        u_hat = np.einsum("njdk,bnk->bnjd", layer["w"], layer["u"])
        b_t = Tensor(layer["b"], requires_grad=True)
        u_t = Tensor(u_hat, requires_grad=True)
        v_t = Tensor(layer["v"], requires_grad=True)
        out = agreement_update(b_t, u_t, v_t)
        self.close(out.data, layer["b"] + np.einsum("bnjd,bjd->bnj", u_hat, layer["v"]))
        g = layer["g_b"]
        (out * Tensor(g)).sum().backward()
        self.close(u_t.grad, np.einsum("bnj,bjd->bnjd", g, layer["v"]))
        self.close(v_t.grad, np.einsum("bnj,bnjd->bjd", g, u_hat))
        assert np.array_equal(b_t.grad, g)


class TestDeferredGradient:
    """weighted_sum and agreement_update hand u_hat's gradient to the tape as
    factor pairs, which ``GradTape.run`` settles once per pass."""

    @staticmethod
    def graph(rng, u):
        c = Tensor(rng.uniform(0.0, 1.0, (2, 6, 3)))
        v = Tensor(rng.standard_normal((2, 3, 4)))
        g_s = Tensor(rng.standard_normal((2, 3, 3, 4)))
        g_b = Tensor(rng.standard_normal((2, 6, 3)))
        g_e = Tensor(rng.standard_normal((2, 6, 3, 4)))
        return ((weighted_sum(c, u, num_types=3) * g_s).sum()
                + (agreement_update(Tensor(np.zeros((2, 6, 3))), u, v) * g_b).sum()
                + (u * u * g_e).sum()), (c.data, v.data, g_s.data, g_b.data, g_e.data)

    def test_three_uses_sum_their_gradients(self):
        rng = np.random.default_rng(141)
        u_hat = rng.standard_normal((2, 6, 3, 4))
        u = Tensor(u_hat, requires_grad=True)
        out, (c, v, g_s, g_b, g_e) = self.graph(rng, u)
        out.backward()
        from_sum = (c.reshape(2, 3, 2, 3)[..., None] * g_s[:, :, None]).reshape(u_hat.shape)
        from_agreement = g_b[..., None] * v[:, None]
        want = from_sum + from_agreement + 2.0 * u_hat * g_e
        assert np.allclose(u.grad, want, rtol=1e-13, atol=1e-14)

    def test_two_passes_without_clear_double_the_gradient(self):
        u = Tensor(np.random.default_rng(142).standard_normal((2, 6, 3, 4)),
                   requires_grad=True)
        self.graph(np.random.default_rng(0), u)[0].backward()
        first = u.grad.copy()
        self.graph(np.random.default_rng(0), u)[0].backward()
        assert np.allclose(u.grad, 2.0 * first, rtol=1e-14, atol=0.0)

    def test_no_tape_node_keeps_pending_terms(self):
        rng = np.random.default_rng(143)
        u = Tensor(rng.standard_normal((2, 6, 3, 4)), requires_grad=True)
        out, _ = self.graph(rng, u)
        tape = GradTape.from_root(out)
        nodes = list(tape.nodes)   # run() pops the tape's own list empty
        out._accumulate(np.ones(()))
        tape.run()
        assert all(node._pending is None for node in nodes)
        assert u.grad is not None

    def test_nothing_deferred_under_no_grad(self):
        rng = np.random.default_rng(144)
        u = Tensor(rng.standard_normal((2, 6, 3, 4)), requires_grad=True)
        with no_grad():
            out, _ = self.graph(rng, u)
        assert not out.requires_grad and out._backward_fn is None
        assert u._pending is None and u.grad is None

    def test_gradient_of_a_tensor_without_grad_is_not_deferred(self):
        rng = np.random.default_rng(145)
        c = Tensor(rng.uniform(0.0, 1.0, (1, 4, 2)), requires_grad=True)
        u = Tensor(rng.standard_normal((1, 4, 2, 3)))
        weighted_sum(c, u).sum().backward()
        assert u._pending is None and u.grad is None and c.grad is not None

    def test_backward_allocates_u_hat_once(self):
        # Above the graph, the pass holds u_hat's settled gradient, the
        # stacked coefficients (pairs / dim_upper of it) and [B, N, J]
        # gradients: about 1.6 u_hat here.  Summing per use instead needs
        # a zero-filled gradient plus a u_hat-sized temporary (2.3 u_hat).
        rng = np.random.default_rng(146)
        spec = CapsLayerSpec.reference()
        shape = (4, spec.num_lower, spec.num_upper, spec.dim_upper)
        u = Tensor(rng.standard_normal(shape), requires_grad=True)
        b = Tensor(np.zeros(shape[:3]))
        c = Tensor(np.full(shape[:3], 0.1), requires_grad=True)
        v1 = squash(weighted_sum(c, u, spec.num_types).sum(axis=1))
        b = agreement_update(b, u, v1)
        v2 = squash(weighted_sum(c, u).reshape(shape[0], *shape[2:]))
        b = agreement_update(b, u, v2)
        out = b.sum() + v1.sum() + v2.sum()
        tracemalloc.start()
        try:
            out.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u.grad.shape == shape
        assert peak < 2.0 * u.data.nbytes
