"""Model-level checks: geometry derivation, deterministic init, forward
behavior, decoder masking, Adam, the train/eval step contracts, and the
checkpoint binary format."""

import math
import re
import struct
import tracemalloc
import weakref
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

import gcaps.network as network_module
from gcaps.data import IMAGE_SHAPE
from gcaps.network import (
    GRID,
    Adam,
    ArchConfig,
    CheckpointError,
    Model,
    TrainConfig,
    batch_loss,
    build_model,
    config_from,
    config_pairs,
    decode,
    derived_rng,
    evaluate,
    format_pairs,
    forward,
    load_model,
    one_hot,
    parse_pairs,
    save_checkpoint,
    train_step,
    write_atomic,
)
from gcaps.capsule import AxisMode, predict, squash
from gcaps.routing import RoutingConfig
from gcaps.tensor import GradTape, NonFiniteError, ShapeError, Tensor, no_grad


def micro_arch() -> ArchConfig:
    """Small enough that a training step costs milliseconds."""
    return ArchConfig(stem_channels=8, num_types=2, primary_dim=4,
                      digit_dim=4, decoder_hidden=(16, 32))


def micro_model(name="alg1", seed=0) -> Model:
    return build_model(micro_arch(), RoutingConfig.from_name(name), seed=seed)


class TestArchConfig:
    def test_default_geometry(self):
        # Sabour et al.'s geometry: 28x28 -> 20x20 -> 6x6 capsules per type
        assert IMAGE_SHAPE == (1, 28, 28) and math.prod(IMAGE_SHAPE) == 784
        assert GRID == 6
        assert ArchConfig().layer_spec().caps_per_type == 36
        assert ArchConfig().layer_spec().num_lower == 1152
        assert ArchConfig.compact().layer_spec().num_lower == 288

    def test_only_the_widths_are_settable(self):
        assert [f.name for f in fields(ArchConfig)] == [
            "stem_channels", "num_types", "primary_dim", "digit_dim", "decoder_hidden"]

    def test_layer_spec_matches_reference(self):
        from gcaps.capsule import CapsLayerSpec
        assert ArchConfig().layer_spec() == CapsLayerSpec.reference()

    def test_manifest_round_trip(self):
        for arch in (ArchConfig(), ArchConfig.compact(), micro_arch()):
            assert config_from(ArchConfig, config_pairs(arch)) == arch

    def test_codec_types_fields_by_annotation(self):
        # a field without a default, and a tuple whose default is empty
        @dataclass(frozen=True)
        class Options:
            axis: AxisMode
            sizes: tuple[int, ...] = ()

        options = Options(AxisMode.LOWER_PER_UPPER, (3, 1))
        assert config_pairs(options) == {"axis": "lower_per_upper", "sizes": "3,1"}
        assert config_from(Options, {**config_pairs(options), "other": "x"}) == options
        with pytest.raises(KeyError, match="sizes"):
            config_from(Options, {"axis": "lower_per_upper"})

    @pytest.mark.parametrize("widths", ["0,5", "-1,5", "5,0"])
    def test_decoder_widths_must_be_positive(self, widths):
        with pytest.raises(ValueError, match="decoder_hidden must be positive"):
            config_from(ArchConfig, {**config_pairs(ArchConfig()), "decoder_hidden": widths})

    @pytest.mark.parametrize("widths", ["5", "5,5,5"])
    def test_decoder_needs_two_widths(self, widths):
        with pytest.raises(ValueError, match="two layer widths"):
            config_from(ArchConfig, {**config_pairs(ArchConfig()), "decoder_hidden": widths})


class TestBuildModel:
    def test_default_parameter_count_is_fixed(self):
        model = build_model(ArchConfig(), RoutingConfig.from_name("alg1"), 0)
        assert sum(t.size for t in model.params.values()) == 8_215_568

    def test_compact_parameter_count_is_fixed(self):
        model = build_model(ArchConfig.compact(),
                            RoutingConfig.from_name("alg3"), 1)
        assert sum(t.size for t in model.params.values()) == 792_336

    def test_parameter_names_and_shapes(self):
        model = micro_model()
        assert list(model.params) == [
            "stem.kernel", "stem.bias", "primary.kernel", "primary.bias",
            "routing.weights", "decoder.w1", "decoder.b1", "decoder.w2",
            "decoder.b2", "decoder.w3", "decoder.b3"]
        assert model.params["routing.weights"].shape == (72, 10, 4, 4)
        assert model.params["stem.kernel"].shape == (8, 1, 9, 9)

    def test_same_seed_bit_identical(self):
        a, b = micro_model(seed=7), micro_model(seed=7)
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data)

    def test_different_seeds_differ(self):
        a, b = micro_model(seed=7), micro_model(seed=8)
        assert not np.array_equal(a.params["routing.weights"].data,
                                  b.params["routing.weights"].data)

    def test_derived_rng_streams_are_independent(self):
        a = derived_rng(3, 0).standard_normal(4)
        b = derived_rng(3, 1).standard_normal(4)
        again = derived_rng(3, 0).standard_normal(4)
        assert np.array_equal(a, again)
        assert not np.array_equal(a, b)


class TestForward:
    def test_output_shapes_and_score_range(self):
        model = micro_model()
        rng = np.random.default_rng(51)
        images = rng.uniform(0, 1, (3, 1, 28, 28))
        lengths, caps, per_type, couplings = forward(model, images)
        assert lengths.shape == (3, 10)
        assert caps.shape == (3, 10, 4)
        assert per_type is None
        assert [c.shape for c in couplings] == [(3, model.arch.layer_spec().num_lower, 10)] * 3
        assert (lengths.data >= 0).all() and (lengths.data < 1).all()

    def test_zero_image_zero_bias_scores_zero(self):
        model = micro_model()
        lengths, _, _, _ = forward(model, np.zeros((2, 1, 28, 28)))
        assert np.abs(lengths.data).max() < 1e-8

    def test_deterministic_given_seed_and_input(self):
        rng = np.random.default_rng(52)
        images = rng.uniform(0, 1, (2, 1, 28, 28))
        a = forward(micro_model(seed=3), images)[0].data
        b = forward(micro_model(seed=3), images)[0].data
        assert np.array_equal(a, b)

    def test_grouped_forward_exposes_per_type(self):
        model = micro_model("alg4")
        rng = np.random.default_rng(53)
        images = rng.uniform(0, 1, (2, 1, 28, 28))
        _, caps, per_type, _ = forward(model, images)
        assert per_type.shape == (2, 2, 10, 4)
        recombined = squash(Tensor(per_type.sum(axis=1))).data
        assert np.abs(caps.data - recombined).max() < 1e-10

    def test_wrong_image_shape_raises(self):
        with pytest.raises(ShapeError):
            forward(micro_model(), np.zeros((2, 1, 27, 28)))

    def test_each_conv_is_one_tape_node(self, monkeypatch):
        # The biases and the stem's ReLU live inside the two conv2d nodes;
        # the three nodes after them regroup the primary conv's channels
        # into capsules for squash.
        seen = []
        monkeypatch.setattr(network_module, "squash", lambda u: seen.append(u) or squash(u))
        model = build_model(ArchConfig.compact(), RoutingConfig.from_name("alg1"), seed=0)
        forward(model, np.zeros((2, 1, 28, 28)))
        nodes = [n for n in GradTape.from_root(seen[0]).nodes if n._parents]
        assert [n._op for n in nodes] == ["conv2d", "conv2d", "reshape", "transpose", "reshape"]
        p = model.params
        assert nodes[0]._parents[1:] == (p["stem.kernel"], p["stem.bias"])
        assert nodes[1]._parents == (nodes[0], p["primary.kernel"], p["primary.bias"])

    def test_stem_output_is_freed_in_both_modes(self, monkeypatch):
        # The stem's output, the primary conv's input, is donated: evaluation
        # and a recorded forward both free it once the conv has read it, and
        # give the same scores.
        inputs, held = [], []
        real = network_module.conv2d

        def conv2d(x, *args, **kwargs):
            inputs.append(x)
            held.append(weakref.ref(x.data))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(network_module, "conv2d", conv2d)
        model = micro_model()
        images = np.random.default_rng(54).uniform(0, 1, (3, 1, 28, 28))
        with no_grad():
            evaluated = forward(model, images)[0].data
        recorded = forward(model, images)[0].data
        for stem, ref in zip(inputs[1::2], held[1::2]):
            assert ref() is None
            assert stem.shape == (3, 8, 20, 20) and stem.data.nbytes == 0
        assert np.array_equal(evaluated, recorded)

    def test_released_stem_counts_no_bytes_and_keeps_the_gradients(self, monkeypatch):
        # The tape's byte count that perfbench's tracer takes before the
        # timed backward reads every node's data.nbytes: the released stem
        # must answer 0, and the pass must give an undonated graph's
        # gradients.
        model = micro_model()
        images = np.random.default_rng(55).uniform(0, 1, (3, 1, 28, 28))
        targets = one_hot(np.array([1, 2, 3]))
        grads = []
        for donate in (True, False):
            if not donate:
                real = network_module.conv2d
                monkeypatch.setattr(network_module, "conv2d",
                                    lambda *args, donate=False, **kw: real(*args, **kw))
            for p in model.params.values():
                p.clear_grad()
            total = batch_loss(model, images, targets)[0]
            nodes = [n for n in GradTape.from_root(total).nodes if n._parents]
            counted = sum(n.data.nbytes for n in nodes)
            stem = next(n for n in nodes if n._op == "conv2d"
                        and n._parents[1] is model.params["stem.kernel"])
            assert (stem.data.nbytes == 0) == donate and counted > 0
            del nodes, stem
            total.backward()
            grads.append({name: p.grad for name, p in model.params.items()})
        for name, want in grads[1].items():
            assert np.array_equal(grads[0][name], want), name

    def test_default_step_tape_size(self):
        # Leaves included.  Each conv's bias and the stem's ReLU are inside
        # its conv2d node; as separate reshape, add and relu nodes they
        # would make 115.
        model = build_model(ArchConfig(), RoutingConfig.from_name("alg1"), seed=0)
        total, _, _ = batch_loss(model, np.zeros((2, 1, 28, 28)), one_hot(np.array([1, 2])))
        assert len(GradTape.from_root(total).nodes) == 110

    def test_grouped_loss_graphs_are_the_same_size(self):
        # Leaves included.  Each coupling softmax is one node on either
        # axis; as a reshape, softmax and reshape alg4 would make 144.
        for name in ("alg3", "alg4"):
            model = build_model(ArchConfig.compact(), RoutingConfig.from_name(name), seed=0)
            total, _, _ = batch_loss(model, np.zeros((4, 1, 28, 28)),
                                     one_hot(np.arange(4)))
            assert len(GradTape.from_root(total).nodes) == 140


class TestForwardBlocks:
    """An unrecorded forward predicts and routes in near-equal blocks of
    images; here ``_ROUTE_BLOCK_BYTES`` is shrunk to ``step`` compact
    images' u_hat."""

    @staticmethod
    def blocked(monkeypatch, step):
        spec = ArchConfig.compact().layer_spec()
        per_image = spec.num_lower * spec.num_upper * spec.dim_upper * 8
        monkeypatch.setattr(network_module, "_ROUTE_BLOCK_BYTES", step * per_image)

    @pytest.mark.parametrize("name", ["alg1", "alg2", "alg3", "alg4"])
    @pytest.mark.parametrize("batch", [2, 6, 7], ids=["one-block", "blocks", "remainder"])
    def test_matches_the_recorded_forward_byte_for_byte(self, monkeypatch, name, batch):
        self.blocked(monkeypatch, 3)
        model = build_model(ArchConfig.compact(), RoutingConfig.from_name(name), seed=4)
        images = np.random.default_rng(56).uniform(0, 1, (batch, 1, 28, 28))
        with no_grad():
            unrecorded = forward(model, images)
        recorded = forward(model, images)
        assert recorded[0].requires_grad and not unrecorded[0].requires_grad
        for got, want in zip(unrecorded, recorded):
            if isinstance(want, list):   # the couplings
                assert len(got) == len(want) == 3
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            elif want is None:           # per_type, ungrouped
                assert got is None
            else:
                got, want = (getattr(a, "data", a) for a in (got, want))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("step,batch,sizes", [
        pytest.param(3, 7, [3, 4], id="remainder"),
        pytest.param(3, 9, [3, 3, 3], id="blocks"),
        pytest.param(3, 2, [2], id="one-block"),
        # a step under two images is two: one image takes another BLAS kernel
        pytest.param(0, 5, [2, 3], id="two-at-least"),
        pytest.param(0, 1, [1], id="one-image"),
    ])
    def test_unrecorded_predict_covers_the_batch_once_in_blocks(self, monkeypatch, step,
                                                               batch, sizes):
        self.blocked(monkeypatch, step)
        returned = []
        monkeypatch.setattr(network_module, "predict",
                            lambda u, w: returned.append(predict(u, w)) or returned[-1])
        model = build_model(ArchConfig.compact(), RoutingConfig.from_name("alg4"), seed=4)
        images = np.random.default_rng(57).uniform(0, 1, (batch, 1, 28, 28))
        with no_grad():
            forward(model, images)
        assert [len(u_hat.data) for u_hat in returned] == sizes
        blocks = np.concatenate([u_hat.data for u_hat in returned])
        returned.clear()
        forward(model, images)
        assert len(returned) == 1 and returned[0].requires_grad
        assert blocks.tobytes() == returned[0].data.tobytes()


class TestDecode:
    def test_output_in_unit_interval(self):
        model = micro_model()
        rng = np.random.default_rng(61)
        caps = Tensor(rng.standard_normal((4, 10, 4)))
        labels = Tensor(one_hot(np.array([0, 3, 9, 5])))
        out = decode(model, caps, labels)
        assert out.shape == (4, 784)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_only_labeled_capsule_matters(self):
        model = micro_model()
        rng = np.random.default_rng(62)
        caps = rng.standard_normal((1, 10, 4))
        labels = Tensor(one_hot(np.array([4])))
        base = decode(model, Tensor(caps), labels).data
        tampered = caps.copy()
        tampered[0, 7] += 50.0
        assert np.array_equal(decode(model, Tensor(tampered), labels).data, base)
        changed = caps.copy()
        changed[0, 4] += 0.5
        assert not np.array_equal(decode(model, Tensor(changed), labels).data, base)

    def test_rejects_non_one_hot(self):
        model = micro_model()
        with pytest.raises(ValueError):
            decode(model, Tensor(np.zeros((2, 10, 4))),
                   Tensor(np.full((2, 10), 0.1)))

    @pytest.mark.parametrize("caps_shape,labels_shape", [((2, 40), (2, 10)), ((2, 10, 4), (2, 9))])
    def test_shape_mismatch_raises(self, caps_shape, labels_shape):
        with pytest.raises(ShapeError, match="decode expects"):
            decode(micro_model(), Tensor(np.zeros(caps_shape)), Tensor(np.zeros(labels_shape)))


class TestOneHot:
    def test_encoding(self):
        got = one_hot(np.array([2, 0, 9]))
        assert np.array_equal(got, np.eye(10)[[2, 0, 9]])

    def test_range_validation(self):
        for labels in ([10], [-1], [1.0], [True]):
            with pytest.raises(ValueError, match=r"\[0, 10\)"):
                one_hot(np.array(labels))


class TestKeyValueLines:
    def test_format_pairs_keeps_order_and_formats_values(self):
        text = format_pairs({"z": 1, "a": (2, 3), "m": True, "f": 0.5, "s": ""})
        assert text == "z=1\na=2,3\nm=true\nf=0.5\ns=\n"
        assert parse_pairs(text) == {"z": "1", "a": "2,3", "m": "true", "f": "0.5", "s": ""}

    def test_parse_pairs_splits_at_the_first_equals_and_strips(self):
        assert parse_pairs(" k = a=b \n\n#c=d\n") == {"k": "a=b"}

    def test_write_atomic_creates_the_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.txt"
        write_atomic(str(path), b"x")
        assert path.read_bytes() == b"x"

    def test_failed_write_atomic_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            write_atomic(str(path), "not bytes")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert path.read_bytes() == b"old"

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "keep").write_bytes(b"k")
        with pytest.raises(OSError):
            write_atomic(str(tmp_path / "d"), b"x")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]


class TestAdam:
    def test_defaults_are_the_train_config_defaults(self):
        opt = Adam({})
        cfg = TrainConfig()
        assert (opt.lr, opt.beta1, opt.beta2, opt.eps) == \
            (cfg.lr0, cfg.beta1, cfg.beta2, cfg.eps)

    def test_minimizes_quadratic(self):
        x = Tensor(np.array([10.0, -4.0]), requires_grad=True)
        opt = Adam({"x": x}, TrainConfig(lr0=0.1))
        for _ in range(400):
            opt.zero_grad()
            d = x - Tensor(np.array([3.0, 1.0]))
            (d * d).sum().backward()
            opt.step()
        assert np.allclose(x.data, [3.0, 1.0], atol=1e-3)

    def test_first_step_size_equals_lr(self):
        # With bias correction the first update is lr * sign(grad) up to eps.
        x = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam({"x": x}, TrainConfig(lr0=0.25))
        opt.zero_grad()
        (x * 1000.0).sum().backward()
        opt.step()
        assert x.data[0] == pytest.approx(5.0 - 0.25, abs=1e-6)

    def test_skips_parameters_without_gradients(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam({"x": x, "y": y}, TrainConfig(lr0=0.1))
        opt.zero_grad()
        (x * x).sum().backward()
        opt.step()
        assert y.data[0] == 2.0
        assert x.data[0] != 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_whole_array_update_bit_for_bit(self, dtype):
        # A parameter of several pieces plus a partial one, a small one and
        # a transposed (not C-contiguous) one.
        rng = np.random.default_rng(5)
        shapes = {"big": (3, network_module._ADAM_PIECE + 17), "small": (4,), "strided": (5, 3)}
        params = {k: Tensor(rng.standard_normal(s), requires_grad=True, dtype=dtype)
                  for k, s in shapes.items()}
        params["strided"].data = params["strided"].data.T.copy().T
        want = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(w) for k, w in want.items()}
        v = {k: np.zeros_like(w) for k, w in want.items()}
        opt = Adam(params, TrainConfig(lr0=0.01))
        for t in range(1, 4):
            for k, p in params.items():
                p.grad = rng.standard_normal(shapes[k]).astype(dtype)
                g = p.grad
                m[k] = m[k] * 0.9 + (1.0 - 0.9) * g
                v[k] = v[k] * 0.999 + (1.0 - 0.999) * (g * g)
                want[k] = want[k] - 0.01 * (m[k] / (1.0 - 0.9 ** t)) / (
                    np.sqrt(v[k] / (1.0 - 0.999 ** t)) + 1e-8)
            opt.step()
            for k, p in params.items():
                assert p.data.dtype == dtype
                assert p.data.tobytes() == want[k].tobytes()


class TestTrainConfig:
    def test_learning_rate_schedule(self):
        cfg = TrainConfig()
        assert abs(cfg.learning_rate(0) - 0.001) < 1e-15
        assert abs(cfg.learning_rate(2) - 0.00090250) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr0=0.0)
        with pytest.raises(ValueError):
            TrainConfig(decay=1.5)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("key,value", [
        ("lr0", float("nan")), ("lr0", float("inf")), ("lr0", -1e-3),
        ("decay", float("nan")), ("decay", 0.0),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", float("nan")),
        ("beta2", 1.0), ("beta2", float("nan")),
        ("eps", 0.0), ("eps", float("inf")), ("eps", float("nan")),
    ])
    def test_non_finite_and_out_of_range_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    def test_range_edges_accepted(self):
        TrainConfig(decay=1.0, beta1=0.0, beta2=0.0, eps=1e-300)


class TestTrainStep:
    def test_loss_decreases_on_memorization_set(self):
        model = micro_model("alg1")
        opt = Adam(model.params, TrainConfig(lr0=0.003))
        rng = np.random.default_rng(71)
        images = rng.uniform(0, 1, (8, 1, 28, 28))
        labels = np.arange(8) % 10
        first, _ = train_step(model, opt, images, labels)
        losses = [first]
        for _ in range(25):
            loss, acc = train_step(model, opt, images, labels)
            losses.append(loss)
        assert losses[-1] < losses[0]
        assert min(losses) > 0.0

    def test_all_variants_take_a_step(self):
        rng = np.random.default_rng(72)
        images = rng.uniform(0, 1, (4, 1, 28, 28))
        labels = np.array([0, 1, 2, 3])
        for name in ("alg1", "alg2", "alg3", "alg4"):
            model = micro_model(name)
            before = model.params["routing.weights"].data.copy()
            loss, acc = train_step(model, Adam(model.params), images, labels)
            assert np.isfinite(loss)
            assert 0.0 <= acc <= 1.0
            assert not np.array_equal(
                before, model.params["routing.weights"].data)

    def test_couplings_are_dead_when_the_optimizer_steps(self, monkeypatch):
        # Held through backward and the update, a default alg1 step's
        # couplings raised its traced peak at batch 128 from 576.1 to 587.3 MiB.
        refs = []
        real_loss, real_step = network_module.batch_loss, Adam.step

        def traced_loss(*args):
            out = real_loss(*args)
            refs.extend(weakref.ref(c) for c in out[2])
            return out

        def checked_step(self):
            assert refs and all(ref() is None for ref in refs)
            real_step(self)

        monkeypatch.setattr(network_module, "batch_loss", traced_loss)
        monkeypatch.setattr(Adam, "step", checked_step)
        for name in ("alg1", "alg4"):
            model = micro_model(name)
            train_step(model, Adam(model.params), np.zeros((2, 1, 28, 28)), np.array([0, 1]))
            assert len(refs) == 3
            refs.clear()

    def test_decoder_output_is_dead_when_the_optimizer_steps(self, monkeypatch):
        # Only the loss and lengths outlive batch_loss; backward frees the
        # rest of the graph as it walks down.
        refs = []
        real_decode, real_step = network_module.decode, Adam.step

        def traced_decode(*args):
            out = real_decode(*args)
            refs.append(weakref.ref(out))
            return out

        def checked_step(self):
            assert refs and all(ref() is None for ref in refs)
            real_step(self)

        monkeypatch.setattr(network_module, "decode", traced_decode)
        monkeypatch.setattr(Adam, "step", checked_step)
        model = micro_model()
        train_step(model, Adam(model.params), np.zeros((2, 1, 28, 28)), np.array([0, 1]))
        assert len(refs) == 1

    # A NaN in the stem kernel stops the forward pass at squash; one in the
    # decoder's last weights first shows in the loss.
    @pytest.mark.parametrize("name", ["stem.kernel", "decoder.w3"])
    def test_poisoned_parameter_is_named(self, name):
        model = micro_model()
        model.params[name].data.flat[0] = np.nan
        with pytest.raises(NonFiniteError, match=f"; first non-finite tensor: parameter {name}$"):
            train_step(model, Adam(model.params),
                       np.zeros((1, 1, 28, 28)), np.array([0]))

    def test_nan_image_blames_an_intermediate_activation(self):
        model = micro_model()
        images = np.zeros((1, 1, 28, 28))
        images[0, 0, 14, 14] = np.nan
        with pytest.raises(NonFiniteError,
                           match="first non-finite tensor: an intermediate activation$"):
            train_step(model, Adam(model.params), images, np.array([0]))


class TestBackwardMemory:
    """A backward pass frees each node's saved arrays and interior gradient
    as it walks down, so above what was live at its start it holds little
    more than the parameter gradients it leaves behind."""

    @staticmethod
    def traced_backward(batch: int) -> tuple[int, int, int]:
        model = build_model(ArchConfig.compact(), RoutingConfig.from_name("alg1"), seed=3)
        rng = np.random.default_rng(73)
        images = rng.uniform(0, 1, (batch, 1, 28, 28))
        total, _, _ = batch_loss(model, images, one_hot(np.arange(batch) % 10))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            total.backward()
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        param_bytes = sum(t.data.nbytes for t in model.params.values())
        return peak - start, end - start, param_bytes

    def test_compact_backward_peak(self):
        # Measured at batch 16: 20.7 MB; 30.5 MB when the tape kept every
        # node, its saved arrays and its gradient until the pass ended.
        peak, _, _ = self.traced_backward(16)
        assert peak < 25 * 2**20

    def test_only_parameter_gradients_outlive_the_pass(self):
        # The caller holds the loss and lengths (a few KB of
        # gradient); the kept tape left 3.5x the parameter bytes here.
        _, end, param_bytes = self.traced_backward(16)
        assert end < 1.1 * param_bytes

    def test_compact_train_step_peak(self):
        # One whole step, forward and backward, after a first step has made
        # Adam's moments.  Measured at batch 16: 24.1 MiB; 33.3 MiB when the
        # tape held u_hat until its gradient was settled and the primary
        # conv kept its kernel's whole spectrum for the input gradient.
        model = build_model(ArchConfig.compact(), RoutingConfig.from_name("alg1"), seed=3)
        optimizer = Adam(model.params)
        rng = np.random.default_rng(74)
        images, labels = rng.uniform(0, 1, (16, 1, 28, 28)), np.arange(16) % 10
        train_step(model, optimizer, images, labels)
        tracemalloc.start()
        try:
            train_step(model, optimizer, images, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20


class TestEvaluate:
    def test_pure_and_repeatable(self):
        model = micro_model()
        rng = np.random.default_rng(81)
        images = rng.uniform(0, 1, (20, 1, 28, 28))
        labels = np.arange(20) % 10
        before = {k: t.data.copy() for k, t in model.params.items()}
        a = evaluate(model, images, labels, batch_size=7)
        b = evaluate(model, images, labels, batch_size=7)
        assert a[0] == b[0] and a[1] == b[1]
        assert np.array_equal(a[2], b[2])
        for k in before:
            assert np.array_equal(before[k], model.params[k].data)

    def test_confusion_rows_count_true_labels(self):
        model = micro_model()
        rng = np.random.default_rng(82)
        images = rng.uniform(0, 1, (30, 1, 28, 28))
        labels = np.arange(30) % 10
        acc, loss, confusion = evaluate(model, images, labels)
        assert confusion.sum() == 30
        assert np.array_equal(confusion.sum(axis=1), np.full(10, 3))
        assert acc == confusion.trace() / 30

    def test_untrained_model_near_chance_on_balanced_data(self):
        rng = np.random.default_rng(83)
        images = rng.uniform(0, 1, (100, 1, 28, 28))
        labels = np.arange(100) % 10
        accs = [evaluate(micro_model(seed=s), images, labels)[0]
                for s in (0, 1, 2)]
        assert 0.0 <= float(np.mean(accs)) <= 0.3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate(micro_model(), np.zeros((0, 1, 28, 28)),
                     np.zeros(0, dtype=int))

    @pytest.mark.parametrize("n_images", [20, 12], ids=["more-images", "fewer-images"])
    def test_image_and_label_counts_must_agree_before_any_batch(self, monkeypatch, n_images):
        # More images than labels used to score only the first 16; fewer
        # failed only at the last batch, inside the loss.
        calls = []
        monkeypatch.setattr(network_module, "batch_loss", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=f"{n_images} images and 16 labels"):
            evaluate(micro_model(), np.zeros((n_images, 1, 28, 28)), np.arange(16) % 10,
                     batch_size=8)
        assert calls == []

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ValueError, match=f"batch_size >= 1, got {batch_size}"):
            evaluate(micro_model(), np.zeros((4, 1, 28, 28)), np.arange(4),
                     batch_size=batch_size)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = micro_model("alg4", seed=9)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model, extra={"seed": "9", "epoch": "3"})
        loaded, manifest = load_model(path)
        assert manifest["seed"] == "9"
        assert manifest["epoch"] == "3"
        assert loaded.routing == model.routing
        assert loaded.arch == model.arch
        for k in model.params:
            assert np.array_equal(loaded.params[k].data, model.params[k].data)

    @pytest.mark.parametrize("arch,routing,text", [
        pytest.param(ArchConfig(), "alg1",
                     "decoder_hidden=512,1024\ndigit_dim=16\ngrouping=ungrouped\n"
                     "iterations=3\nnum_types=32\nprimary_dim=8\n"
                     "softmax_axis=upper_per_lower\nstem_channels=256\n"
                     "weight_init_std=0.1\n", id="default"),
        pytest.param(ArchConfig.compact(), "alg4",
                     "decoder_hidden=128,256\ndigit_dim=16\ngrouping=by_type\n"
                     "iterations=3\nnum_types=8\nprimary_dim=8\n"
                     "softmax_axis=lower_per_upper\nstem_channels=32\n"
                     "weight_init_std=0.1\n", id="compact"),
    ])
    def test_manifest_text_is_fixed(self, tmp_path, arch, routing, text):
        # Written checkpoints must stay byte-identical whatever builds the manifest.
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, Model(arch=arch, routing=RoutingConfig.from_name(routing),
                                    params={}))
        body = text.encode()
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob == b"GCAPS1" + struct.pack("<Q", len(body)) + body
        assert config_from(ArchConfig, parse_pairs(blob[14:].decode())) == arch

    def test_micro_model_manifest_text_is_fixed(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, micro_model("alg4", seed=9),
                        extra={"run_id": "micro", "augment": False})
        blob = Path(path).read_bytes()
        (length,) = struct.unpack("<Q", blob[6:14])
        assert blob[14:14 + length].decode() == (
            "augment=false\ndecoder_hidden=16,32\ndigit_dim=4\ngrouping=by_type\n"
            "iterations=3\nnum_types=2\nprimary_dim=4\n"
            "run_id=micro\nsoftmax_axis=lower_per_upper\n"
            "stem_channels=8\nweight_init_std=0.1\n")

    def test_parent_format_checkpoint_loads_unchanged(self, tmp_path):
        # Checkpoints written before the geometry became constants name 8
        # more keys; this writer is a copy of that one.
        model = micro_model("alg4", seed=9)
        retired = {"input_channels": 1, "input_height": 28, "input_width": 28,
                   "stem_kernel": 9, "stem_stride": 1, "primary_kernel": 9,
                   "primary_stride": 2, "num_classes": 10}
        manifest = {**config_pairs(model.arch), **retired, **config_pairs(model.routing),
                    "weight_init_std": 0.1}
        assert len(manifest) == 17
        body = format_pairs(dict(sorted(manifest.items()))).encode()
        blob = b"GCAPS1" + struct.pack("<Q", len(body)) + body
        for name, tensor in model.params.items():
            blob += (struct.pack("<Q", len(name)) + name.encode()
                     + struct.pack("<Q", tensor.ndim)
                     + struct.pack(f"<{tensor.ndim}Q", *tensor.shape)
                     + np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
        old = tmp_path / "old.ckpt"
        old.write_bytes(blob)
        loaded, _ = load_model(str(old))
        assert (loaded.arch, loaded.routing) == (model.arch, model.routing)
        assert list(loaded.params) == list(model.params)
        for k in model.params:
            assert loaded.params[k].data.tobytes() == model.params[k].data.tobytes()
        # today's writer drops only the retired manifest lines
        save_checkpoint(str(tmp_path / "new.ckpt"), loaded)
        new = (tmp_path / "new.ckpt").read_bytes()
        (length,) = struct.unpack("<Q", new[6:14])
        assert new[14 + length:] == blob[14 + len(body):]
        assert parse_pairs(new[14:14 + length].decode()) == {
            k: v for k, v in parse_pairs(body.decode()).items() if k not in retired}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCAPS" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="bad checkpoint magic"):
            load_model(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        model = micro_model()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        blob = Path(path).read_bytes()
        short = tmp_path / "short.ckpt"
        short.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(str(short))

    def test_prefixes_through_framing_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        header, records = self.split_records(blob)
        offset = len(header)
        cuts = set(range(offset + 1))
        for name, record in records.items():
            # every offset through one tensor's name and dims, then the
            # first and last byte of its values
            values = offset + len(self.record(name.encode(), micro_arch().param_shapes()[name]))
            cuts.update(range(offset, values + 1))
            offset += len(record)
            cuts.update((values + 1, offset - 1))
        assert offset == len(blob)
        cuts.discard(len(blob))
        for cut in sorted(cuts):
            # a new file per prefix: replacing one file is far slower
            short = tmp_path / f"cut-{cut}.ckpt"
            short.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_model(str(short))

    @staticmethod
    def saved_blob(tmp_path) -> bytes:
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, micro_model())
        return Path(path).read_bytes()

    @staticmethod
    def record(name: bytes, dims: tuple[int, ...], values: bytes = b"") -> bytes:
        return (struct.pack("<Q", len(name)) + name + struct.pack("<Q", len(dims))
                + struct.pack(f"<{len(dims)}Q", *dims) + values)

    @staticmethod
    def split_records(blob: bytes) -> tuple[bytes, dict[str, bytes]]:
        """A checkpoint's magic and manifest, and each tensor record by name."""
        offset = len(b"GCAPS1") + 8 + struct.unpack("<Q", blob[6:14])[0]
        header, records = blob[:offset], {}
        while offset < len(blob):
            (name_len,) = struct.unpack("<Q", blob[offset:offset + 8])
            at = offset + 8 + name_len
            (rank,) = struct.unpack("<Q", blob[at:at + 8])
            dims = struct.unpack(f"<{rank}Q", blob[at + 8:at + 8 + 8 * rank])
            end = at + 8 + 8 * rank + 8 * math.prod(dims)
            records[blob[offset + 8:at].decode()] = blob[offset:end]
            offset = end
        return header, records

    @pytest.mark.parametrize("name,dims,message", [
        ("stem.bias", (8, 1), "stem.bias at offset {at} has rank 2, expected 1"),
        ("primary.kernel", (16, 4, 9, 9),
         "primary.kernel at offset {at} has dims (16, 4, 9, 9), expected (8, 8, 9, 9)"),
        ("stem.scale", (8,), "unexpected tensor stem.scale at offset {at}"),
    ])
    def test_bad_record_rejected_at_its_offset(self, tmp_path, name, dims, message):
        header, records = self.split_records(self.saved_blob(tmp_path))
        # the values of a tensor of the same size, so only the name or dims are at fault
        values = records["stem.bias" if name == "stem.scale" else name][-8 * math.prod(dims):]
        records[name] = self.record(name.encode(), dims, values)
        blob = header + b"".join(records.values())
        bad = tmp_path / "bad-record.ckpt"
        bad.write_bytes(blob)
        at = blob.index(records[name])
        with pytest.raises(CheckpointError, match=re.escape(message.format(at=at))):
            load_model(str(bad))

    def test_hostile_rank_rejected_before_its_dims(self, tmp_path):
        header, records = self.split_records(self.saved_blob(tmp_path))
        records["stem.bias"] = self.record(b"stem.bias", ())[:-8] + struct.pack("<Q", 2 ** 64 - 1)
        blob = header + b"".join(records.values())
        bad = tmp_path / "rank.ckpt"
        bad.write_bytes(blob)
        at = blob.index(records["stem.bias"])
        with pytest.raises(CheckpointError,
                           match=f"stem.bias at offset {at} has rank {2 ** 64 - 1}, expected 1"):
            load_model(str(bad))

    def test_missing_tensors_named(self, tmp_path):
        header, records = self.split_records(self.saved_blob(tmp_path))
        del records["routing.weights"], records["decoder.w2"]
        bad = tmp_path / "missing.ckpt"
        bad.write_bytes(header + b"".join(records.values()))
        with pytest.raises(CheckpointError,
                           match=r"missing\.ckpt lacks tensors routing\.weights, decoder\.w2$"):
            load_model(str(bad))

    def test_records_in_reverse_order_load_in_build_order(self, tmp_path):
        model = micro_model("alg4", seed=9)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model, extra={"seed": "9"})
        blob = Path(path).read_bytes()
        header, records = self.split_records(blob)
        assert list(records) == list(model.params)
        reversed_blob = header + b"".join(reversed(records.values()))
        assert reversed_blob != blob
        (tmp_path / "reversed.ckpt").write_bytes(reversed_blob)
        loaded, _ = load_model(str(tmp_path / "reversed.ckpt"))
        assert list(loaded.params) == list(model.params)
        for k in model.params:
            assert loaded.params[k].data.tobytes() == model.params[k].data.tobytes()
        save_checkpoint(str(tmp_path / "resaved.ckpt"), loaded, extra={"seed": "9"})
        assert (tmp_path / "resaved.ckpt").read_bytes() == blob

    def test_duplicate_tensor_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        kernel = micro_model().params["stem.kernel"].data
        bad = tmp_path / "dup.ckpt"
        bad.write_bytes(blob + self.record(b"stem.kernel", kernel.shape, kernel.tobytes()))
        with pytest.raises(CheckpointError, match=f"duplicate tensor stem.kernel at offset {len(blob)}"):
            load_model(str(bad))

    def test_non_utf8_text_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        manifest_start = len(b"GCAPS1") + 8
        bad = tmp_path / "manifest.ckpt"
        bad.write_bytes(blob[:manifest_start] + b"\xff" + blob[manifest_start + 1:])
        with pytest.raises(CheckpointError, match=f"manifest is not UTF-8 at offset {manifest_start}"):
            load_model(str(bad))
        bad = tmp_path / "name.ckpt"
        bad.write_bytes(blob + self.record(b"ok\xff", ()))
        with pytest.raises(CheckpointError,
                           match=f"tensor name is not UTF-8 at offset {len(blob) + 8 + 2}"):
            load_model(str(bad))

    def test_overflowing_dims_rejected(self, tmp_path):
        header, _ = self.split_records(self.saved_blob(tmp_path))
        bad = tmp_path / "huge.ckpt"
        # 2**62 * 2**62 wraps to 0 in int64, which must not pass as an empty tensor.
        dims = (2 ** 62, 2 ** 62, 1, 1)
        bad.write_bytes(header + self.record(b"stem.kernel", dims))
        with pytest.raises(CheckpointError, match=re.escape(
                f"stem.kernel at offset {len(header)} has dims {dims}, expected (8, 1, 9, 9)")):
            load_model(str(bad))

    def test_non_finite_value_rejected(self, tmp_path):
        model = micro_model()
        names = list(model.params)
        for bad_value in (np.nan, np.inf, -np.inf):
            model.params[names[1]].data[2] = bad_value
            path = str(tmp_path / "nan.ckpt")
            save_checkpoint(path, model)
            blob = Path(path).read_bytes()
            at = blob.index(np.array([bad_value]).tobytes())
            with pytest.raises(CheckpointError,
                               match=f"non-finite value in {names[1]} at offset {at}"):
                load_model(path)

    def test_extra_entry_cannot_overwrite_manifest_key(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="'grouping' would overwrite"):
            save_checkpoint(str(path), micro_model("alg1"),
                            extra={"grouping": "by_type"})
        assert not path.exists()

    def test_duplicate_manifest_key_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        start = len(b"GCAPS1") + 8
        (length,) = struct.unpack("<Q", blob[start - 8:start])
        body = blob[start:start + length] + b"iterations=1\n"
        bad = tmp_path / "dup-key.ckpt"
        bad.write_bytes(b"GCAPS1" + struct.pack("<Q", len(body)) + body
                        + blob[start + length:])
        with pytest.raises(CheckpointError,
                           match=r"malformed manifest in .*dup-key\.ckpt: line \d+:"
                                 r" duplicate key 'iterations'"):
            load_model(str(bad))

    def test_manifest_line_without_equals_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        start = len(b"GCAPS1") + 8
        (length,) = struct.unpack("<Q", blob[start - 8:start])
        body = b"no equals sign\n" + blob[start:start + length]
        bad = tmp_path / "no-eq.ckpt"
        bad.write_bytes(b"GCAPS1" + struct.pack("<Q", len(body)) + body
                        + blob[start + length:])
        with pytest.raises(CheckpointError,
                           match=r"malformed manifest in .*no-eq\.ckpt: line 1: expected key=value"):
            load_model(str(bad))

    # stripped, skipped as a comment, or split into two lines, these would
    # not read back as written
    @pytest.mark.parametrize("key,value", [
        ("run_id", " a"), ("run_id", "a\x85"), ("run_id", "a\t"), ("run_id", "x\ny"),
        ("run_id", "a\nseed=5"), (" note", "x"), ("#note", "x"), ("a=b", "x"), ("a\nb", "x"),
    ])
    def test_extra_entry_that_would_not_read_back_rejected(self, tmp_path, key, value):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            save_checkpoint(str(path), micro_model(), extra={key: value})
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("line", [b"stem_channels=abc", b"decoder_hidden=512,,1024",
                                      b"softmax_axis=bogus", b"grouping=by_types"])
    def test_bad_manifest_value_names_its_key(self, tmp_path, line):
        blob = self.saved_blob(tmp_path)
        start = len(b"GCAPS1") + 8
        (length,) = struct.unpack("<Q", blob[start - 8:start])
        key = line.split(b"=")[0]
        body = b"".join(entry + b"\n" for entry in blob[start:start + length].splitlines()
                        if entry.split(b"=")[0] != key) + line + b"\n"
        bad = tmp_path / "bad-value.ckpt"
        bad.write_bytes(b"GCAPS1" + struct.pack("<Q", len(body)) + body
                        + blob[start + length:])
        with pytest.raises(CheckpointError, match=f"bad value for '{key.decode()}'"):
            load_model(str(bad))

    # str.splitlines would also break lines at these, splitting the value
    # or injecting a key
    @pytest.mark.parametrize("value", ["a\rb", "a\x85iterations=7", "a\x1cb", "a\u2028b"])
    def test_values_with_other_line_breaks_round_trip(self, tmp_path, value):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, micro_model(), extra={"run_id": value})
        loaded, manifest = load_model(path)
        assert manifest["run_id"] == value
        assert loaded.routing.iterations == 3

    def test_extra_values_use_the_manifest_value_format(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, micro_model(),
                        extra={"run_id": "x", "augment": True, "seeds": (3, 1)})
        _, manifest = load_model(path)
        assert (manifest["run_id"], manifest["augment"], manifest["seeds"]) == ("x", "true", "3,1")

    def test_manifest_is_sorted_key_value_text(self, tmp_path):
        model = micro_model()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        loaded, manifest = load_model(path)
        assert manifest["num_types"] == "2"
        assert manifest["softmax_axis"] == "upper_per_lower"
        assert manifest["weight_init_std"] == "0.1"
        assert list(loaded.params) == list(model.params)

    def test_save_is_atomic_no_temp_left(self, tmp_path):
        model = micro_model()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []
