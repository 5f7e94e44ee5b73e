"""Routing engine checks: agreement with the loop-based reference on every
configuration, degeneracy and permutation properties, the per-iteration
couplings ``route`` hands back, and gradient flow through unrolled
iterations."""

import numpy as np
import pytest

import gcaps.routing as routing_module
from gcaps.capsule import AxisMode, CapsLayerSpec, coupling_from_logits, squash, weighted_sum
from gcaps.analysis import init_sensitivity_study
from gcaps.network import ArchConfig, build_model, evaluate
from gcaps.routing import (
    Grouping,
    RoutingConfig,
    initial_coupling,
    route,
    route_reference,
)
from gcaps.tensor import ShapeError, Tensor

from test_network import micro_arch
from test_tensor import check_grad

ALL_NAMES = ("alg1", "alg2", "alg3", "alg4")


def small_spec(num_lower=6, num_upper=2, dim_lower=4, dim_upper=3,
               num_types=2) -> CapsLayerSpec:
    return CapsLayerSpec(num_lower=num_lower, num_upper=num_upper,
                         dim_lower=dim_lower, dim_upper=dim_upper,
                         num_types=num_types,
                         caps_per_type=num_lower // num_types)


class TestRoutingConfig:
    def test_name_mapping_is_a_bijection(self):
        for i, name in enumerate(ALL_NAMES, start=1):
            cfg = RoutingConfig.from_name(name)
            assert cfg.algorithm_number == i
            assert cfg.name == name

    def test_axis_and_grouping_assignments(self):
        assert RoutingConfig.from_name("alg1").softmax_axis is AxisMode.UPPER_PER_LOWER
        assert RoutingConfig.from_name("alg1").grouping is Grouping.UNGROUPED
        assert RoutingConfig.from_name("alg2").softmax_axis is AxisMode.LOWER_PER_UPPER
        assert RoutingConfig.from_name("alg2").grouping is Grouping.UNGROUPED
        assert RoutingConfig.from_name("alg3").softmax_axis is AxisMode.UPPER_PER_LOWER
        assert RoutingConfig.from_name("alg3").grouping is Grouping.BY_TYPE
        assert RoutingConfig.from_name("alg4").softmax_axis is AxisMode.LOWER_PER_UPPER
        assert RoutingConfig.from_name("alg4").grouping is Grouping.BY_TYPE

    def test_curve_labels(self):
        assert [RoutingConfig.from_name(n).label for n in ALL_NAMES] == \
            ["b", "bc", "o", "oc"]

    def test_default_iterations(self):
        assert RoutingConfig.from_name("alg1").iterations == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            RoutingConfig.from_name("alg5")

    def test_nonpositive_iterations_rejected(self):
        with pytest.raises(ValueError):
            RoutingConfig.from_name("alg1", iterations=0)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_manifest_round_trip(self, name):
        config = RoutingConfig.from_name(name, iterations=5)
        assert RoutingConfig.from_manifest(config.to_manifest()) == config

    def test_initial_coupling_closed_forms(self):
        spec = CapsLayerSpec.reference()
        values = [initial_coupling(spec, RoutingConfig.from_name(n))
                  for n in ALL_NAMES]
        assert values == [0.1, 1.0 / 1152, 0.1, 1.0 / 36]


class TestRouteAgainstReference:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("iterations", [1, 2, 3, 5])
    def test_matches_loop_reference(self, name, iterations):
        rng = np.random.default_rng(hash((name, iterations)) % 2**32)
        spec = small_spec()
        config = RoutingConfig.from_name(name, iterations=iterations)
        for _ in range(3):
            u_hat = Tensor(rng.standard_normal(
                (2, spec.num_lower, spec.num_upper, spec.dim_upper)))
            v, _, _ = route(u_hat, spec, config)
            ref = route_reference(u_hat, spec, config)
            assert np.abs(v.data - ref.data).max() < 1e-10

    def test_uneven_dims_instance(self):
        spec = small_spec(num_lower=12, num_upper=3, dim_lower=5, dim_upper=4,
                          num_types=4)
        rng = np.random.default_rng(7)
        u_hat = Tensor(rng.standard_normal((1, 12, 3, 4)) * 2.0)
        for name in ALL_NAMES:
            config = RoutingConfig.from_name(name, iterations=3)
            v, _, _ = route(u_hat, spec, config)
            ref = route_reference(u_hat, spec, config)
            assert np.abs(v.data - ref.data).max() < 1e-10

    def test_reference_rejects_large_layers(self):
        spec = CapsLayerSpec(num_lower=128, num_upper=2, dim_lower=4,
                             dim_upper=3, num_types=2, caps_per_type=64)
        u_hat = Tensor(np.zeros((1, 128, 2, 3)))
        with pytest.raises(ValueError):
            route_reference(u_hat, spec, RoutingConfig.from_name("alg1"))


class TestRouteBehaviour:
    def test_single_capsule_degeneracy(self):
        # One lower, one upper: the coupling is 1 in every mode, so one
        # iteration returns squash(u_hat), with the grouped modes' outer
        # squash still applied on top (a one-group sum is not skipped).
        spec = small_spec(num_lower=1, num_upper=1, num_types=1)
        rng = np.random.default_rng(31)
        u_hat = Tensor(rng.standard_normal((3, 1, 1, 3)))
        inner = squash(Tensor(u_hat.data[:, 0])).data
        outer = squash(Tensor(inner)).data
        for name in ALL_NAMES:
            v, _, _ = route(u_hat, spec, RoutingConfig.from_name(name, 1))
            want = outer if RoutingConfig.from_name(name).grouping \
                is Grouping.BY_TYPE else inner
            assert np.abs(v.data - want).max() < 1e-12

    def test_first_iteration_uses_uniform_tenth_coupling(self):
        # Zero logits with 10 upper capsules: s_j = 0.1 * sum_i u_hat.
        spec = CapsLayerSpec(num_lower=8, num_upper=10, dim_lower=4,
                             dim_upper=3, num_types=2, caps_per_type=4)
        rng = np.random.default_rng(32)
        u_hat = Tensor(rng.standard_normal((2, 8, 10, 3)))
        v, couplings, _ = route(u_hat, spec, RoutingConfig.from_name("alg1", 1))
        want = squash(Tensor(0.1 * u_hat.data.sum(axis=1))).data
        assert np.abs(v.data - want).max() < 1e-12
        assert np.abs(couplings[0] - 0.1).max() < 1e-15

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("arch", ["reference", "compact"])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_first_couplings_are_the_softmax_of_zero_logits_bit_for_bit(self, name, arch,
                                                                         dtype):
        spec = CapsLayerSpec.reference() if arch == "reference" \
            else ArchConfig.compact().layer_spec()
        config = RoutingConfig.from_name(name, 1)
        num_types = spec.num_types if config.grouping is Grouping.BY_TYPE else 1
        u_hat = Tensor(np.ones((2, spec.num_lower, spec.num_upper, spec.dim_upper)),
                       dtype=dtype)
        _, couplings, _ = route(u_hat, spec, config)
        zeros = Tensor(np.zeros(u_hat.shape[:3]), dtype=dtype)
        want = coupling_from_logits(zeros, config.softmax_axis, num_types).data
        assert couplings[0].dtype == dtype
        assert np.array_equal(couplings[0], want)

    def test_grouped_single_type_equals_ungrouped_with_outer_squash(self):
        # With one type the group sum has a single term, so the grouped
        # recurrence is the ungrouped one with squash applied twice.
        spec = small_spec(num_lower=6, num_upper=2, num_types=1)
        rng = np.random.default_rng(33)
        u_arr = rng.standard_normal((2, 6, 2, 3))

        def double_squash_recurrence(u, r):
            b = np.zeros((u.shape[0], 6, 2))
            for _ in range(r):
                e = np.exp(b - b.max(axis=2, keepdims=True))
                c = e / e.sum(axis=2, keepdims=True)
                s = np.einsum("bnj,bnjd->bjd", c, u)
                v = squash(Tensor(squash(Tensor(s)).data)).data
                b = b + np.einsum("bnjd,bjd->bnj", u, v)
            return v

        for r in (1, 2, 3):
            v, _, _ = route(Tensor(u_arr), spec,
                            RoutingConfig.from_name("alg3", r))
            assert np.abs(v.data - double_squash_recurrence(u_arr, r)).max() < 1e-12

    def test_output_norms_below_one(self):
        spec = small_spec()
        rng = np.random.default_rng(34)
        u_hat = Tensor(rng.standard_normal((4, 6, 2, 3)) * 10.0)
        for name in ALL_NAMES:
            v, _, _ = route(u_hat, spec, RoutingConfig.from_name(name))
            assert (np.linalg.norm(v.data, axis=2) < 1.0).all()

    def test_permuting_within_group_preserves_output(self):
        spec = small_spec(num_lower=8, num_upper=3, num_types=2)
        rng = np.random.default_rng(35)
        u = rng.standard_normal((2, 8, 3, 3))
        perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(4)])
        for name in ("alg3", "alg4"):
            config = RoutingConfig.from_name(name)
            v_base, _, _ = route(Tensor(u), spec, config)
            v_perm, _, _ = route(Tensor(u[:, perm]), spec, config)
            assert np.abs(v_base.data - v_perm.data).max() < 1e-9

    def test_permuting_whole_groups_preserves_output(self):
        spec = small_spec(num_lower=8, num_upper=3, num_types=2)
        rng = np.random.default_rng(36)
        u = rng.standard_normal((2, 8, 3, 3))
        swapped = np.concatenate([u[:, 4:], u[:, :4]], axis=1)
        for name in ("alg3", "alg4"):
            config = RoutingConfig.from_name(name)
            v_base, _, _ = route(Tensor(u), spec, config)
            v_perm, _, _ = route(Tensor(swapped), spec, config)
            assert np.abs(v_base.data - v_perm.data).max() < 1e-9

    def test_per_type_outputs_combine_by_outer_squash(self):
        spec = small_spec(num_lower=12, num_upper=3, num_types=3)
        rng = np.random.default_rng(37)
        u_hat = Tensor(rng.standard_normal((2, 12, 3, 3)))
        v, _, per_type = route(u_hat, spec, RoutingConfig.from_name("alg4"))
        assert per_type.shape == (2, 3, 3, 3)
        recombined = squash(Tensor(per_type.data.sum(axis=1))).data
        assert np.abs(v.data - recombined).max() < 1e-10

    def test_grouped_trace_keeps_full_couplings_and_per_type_sums(self):
        # The couplings cover every lower capsule, normalized per type for
        # alg4 and per lower capsule for alg3; the final per-type outputs
        # are the squashed per-type sums under the last couplings.
        spec = small_spec(num_lower=12, num_upper=3, num_types=3)
        rng = np.random.default_rng(38)
        u = rng.standard_normal((2, 12, 3, 3))
        for name in ("alg3", "alg4"):
            _, couplings, per_type = route(Tensor(u), spec, RoutingConfig.from_name(name))
            for c in couplings:
                assert c.shape == (2, 12, 3)
                if name == "alg3":
                    assert np.abs(c.sum(axis=2) - 1.0).max() < 1e-12
                if name == "alg4":
                    assert np.abs(c.reshape(2, 3, 4, 3).sum(axis=2) - 1.0).max() < 1e-12
            for t in range(3):
                a, z = 4 * t, 4 * t + 4
                want = squash(weighted_sum(Tensor(couplings[-1][:, a:z]),
                                           Tensor(u[:, a:z]))).data[:, 0]
                assert np.abs(per_type.data[:, t] - want).max() < 1e-12

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_last_iteration_skips_the_unread_logit_update(self, monkeypatch, iterations):
        calls = []
        real = routing_module.agreement_update
        monkeypatch.setattr(routing_module, "agreement_update",
                            lambda *args: calls.append(1) or real(*args))
        rng = np.random.default_rng(7)
        route(Tensor(rng.standard_normal((2, 6, 2, 3))), small_spec(),
              RoutingConfig.from_name("alg3", iterations=iterations))
        assert len(calls) == iterations - 1

    def test_ungrouped_exposes_no_per_type(self):
        spec = small_spec()
        u_hat = Tensor(np.zeros((1, 6, 2, 3)))
        _, _, per_type = route(u_hat, spec, RoutingConfig.from_name("alg1"))
        assert per_type is None

    def test_shape_mismatch_raises(self):
        spec = small_spec()
        with pytest.raises(ShapeError):
            route(Tensor(np.zeros((1, 5, 2, 3))), spec,
                  RoutingConfig.from_name("alg1"))


class TestRoutingGradients:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_unrolled_routing_gradcheck(self, name):
        spec = small_spec()
        config = RoutingConfig.from_name(name, iterations=3)
        rng = np.random.default_rng(38)
        check_grad(
            lambda ts: (route(ts[0], spec, config)[0] * ts[1]).sum(),
            [(1, 6, 2, 3), (1, 2, 3)], rng, rel_tol=1e-4)

    def test_single_iteration_gradcheck(self):
        spec = small_spec()
        config = RoutingConfig.from_name("alg4", iterations=1)
        rng = np.random.default_rng(39)
        check_grad(
            lambda ts: (route(ts[0], spec, config)[0] * ts[1]).sum(),
            [(2, 6, 2, 3), (2, 2, 3)], rng, rel_tol=1e-5)


class TestFloat32:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_route_and_u_hat_grad_stay_float32(self, name):
        spec, config = small_spec(), RoutingConfig.from_name(name)
        u64 = np.random.default_rng(251).standard_normal((2, 6, 2, 3))
        results = []
        for dtype in (np.float64, np.float32):
            u = Tensor(u64, requires_grad=True, dtype=dtype)
            v, couplings, per_type = route(u, spec, config)
            (v * v).sum().backward()
            results.append((v.data, u.grad))
        assert all(c.dtype == np.float32 for c in couplings)
        if per_type is not None:
            assert per_type.data.dtype == np.float32
        for want, got in zip(*results):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 16 * np.finfo(np.float32).eps * np.abs(want).max()


class TestTraceAndReport:
    def test_trace_has_one_step_per_iteration(self):
        spec = small_spec()
        u_hat = Tensor(np.random.default_rng(41).standard_normal((1, 6, 2, 3)))
        for r in (1, 2, 5):
            _, couplings, _ = route(u_hat, spec, RoutingConfig.from_name("alg2", r))
            assert len(couplings) == r
            assert all(c.shape == (1, 6, 2) for c in couplings)

    def test_iteration_zero_coupling_is_uniform(self):
        rng = np.random.default_rng(42)
        spec = small_spec(num_lower=12, num_upper=3, num_types=4)
        u_hat = Tensor(rng.standard_normal((1, 12, 3, 3)))
        for name in ALL_NAMES:
            config = RoutingConfig.from_name(name)
            _, couplings, _ = route(u_hat, spec, config)
            c0 = initial_coupling(spec, config)
            assert np.abs(couplings[0] - c0).max() < 1e-12

    def test_full_width_initial_couplings(self):
        # At reference width the two softmax axes expose 0.1 vs 1/1152.
        spec = CapsLayerSpec.reference()
        u_hat = Tensor(np.zeros((1, 1152, 10, 16)))
        for name, want in (("alg1", 0.1), ("alg2", 1.0 / 1152)):
            _, couplings, _ = route(u_hat, spec, RoutingConfig.from_name(name, 1))
            assert np.abs(couplings[0] - want).max() < 1e-12

    def test_balanced_votes_produce_zero_change(self):
        # Prediction vectors cancel within every type group, so every vote
        # sum is zero, outputs are zero, and couplings never move.
        spec = small_spec(num_lower=8, num_upper=3, num_types=2)
        rng = np.random.default_rng(43)
        half = rng.standard_normal((1, 4, 3, 3))
        u = np.concatenate([half, -half], axis=1)[:, [0, 4, 1, 5, 2, 6, 3, 7]]
        for name in ("alg1", "alg4"):
            _, couplings, _ = route(Tensor(u), spec, RoutingConfig.from_name(name, 3))
            assert len(couplings) == 3
            for c in couplings[1:]:
                assert np.array_equal(c, couplings[0])

    def test_report_rows_and_relative_change(self):
        # The study's rows are |c_t - c_{t-1}| of one traced route per
        # trial, t = 1..r-1, with rel_dc the mean over the initial coupling.
        spec = small_spec()
        rows, _ = init_sensitivity_study(spec, [RoutingConfig.from_name("alg1", 4)],
                                         num_trials=10, seed=0, batch=2)
        assert [r[2] for r in rows[:3]] == [1, 2, 3]
        assert len(rows) == 10 * 3
        for name, _, _, c0, mean_dc, max_dc, rel_dc in rows:
            assert name == "alg1"
            assert c0 == 0.5      # two upper capsules
            assert rel_dc == mean_dc / c0
            assert max_dc >= mean_dc >= 0.0

    def test_report_requires_two_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            init_sensitivity_study(small_spec(),
                                   [RoutingConfig.from_name("alg1", 1)],
                                   num_trials=10, seed=0)

    def test_final_dc_per_image_zero_for_single_iteration(self):
        model = build_model(micro_arch(), RoutingConfig.from_name("alg1", 1), seed=0)
        images = np.random.default_rng(45).uniform(0, 1, (3, 1, 28, 28))
        *_, dc_per_image = evaluate(model, images, np.arange(3), capture_trace=True)
        assert np.array_equal(dc_per_image, np.zeros(3))

    def test_trace_steps_keep_their_values_after_routing_returns(self):
        # The list holds the coupling tensors' buffers, not copies: a
        # backward pass and a second routing call must leave them as they
        # were built.
        spec = small_spec(num_lower=12, num_upper=3, num_types=3)
        u = np.random.default_rng(46).standard_normal((2, 12, 3, 3))
        for name in ALL_NAMES:
            config = RoutingConfig.from_name(name, 4)
            u_hat = Tensor(u, requires_grad=True)
            v, couplings, _ = route(u_hat, spec, config)
            copies = [c.copy() for c in couplings]
            v.sum().backward()
            route(u_hat, spec, config)
            for got, want in zip(couplings, copies, strict=True):
                assert np.array_equal(got, want)
