"""Experiment harness: training runs with per-epoch metrics, multi-seed
routing-variant comparisons, the coupling-initialization study, and
per-type reconstruction grids.

All CSV output is UTF-8 with LF line endings and floats at 17 significant
digits (lossless for float64).  Elapsed time comes from an injectable
``timer`` callable so that fixed-timer runs are byte-reproducible.
"""

from __future__ import annotations

import os
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .data import IMAGE_SHAPE, Dataset, batches
from .network import (
    Adam,
    ArchConfig,
    Model,
    TrainConfig,
    build_model,
    decode,
    evaluate,
    forward,
    one_hot,
    train_step,
    write_atomic,
)
from .routing import Grouping, RoutingConfig, initial_coupling, route
from .seeds import SEED_ROLE_TRIALS, derived_rng
from .tensor import NonFiniteError, Tensor, no_grad

PROBE_IMAGES = 128   # mean_dc is taken over the first this-many images of a split


def fmt(value) -> str:
    """One CSV cell: floats at 17 significant digits, everything else str()."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str, header: str, rows) -> None:
    """Write rows of cells atomically (see write_atomic), LF endings."""
    text = header + "\n" + "".join(
        ",".join(fmt(c) for c in row) + "\n" for row in rows)
    write_atomic(path, text.encode())


@dataclass(frozen=True)
class MetricsRecord:
    """One split of one epoch of one run, as serialized to the metrics CSV."""

    run_id: str
    epoch: int
    split: str
    accuracy: float
    loss: float
    lr: float
    config: str        # curve label: b / bc / o / oc
    wall_seconds: float
    c0: float
    mean_dc: float


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRecord))


def write_metrics(path: str, records: list[MetricsRecord]) -> None:
    write_csv(path, METRICS_HEADER, [astuple(r) for r in records])


def _probe_mean_dc(dc_per_image: np.ndarray) -> float:
    """Mean |c - c_prev| at the final routing iteration over the first
    PROBE_IMAGES images of an evaluation (``evaluate(capture_trace=True)``)."""
    return float(dc_per_image[:PROBE_IMAGES].mean())


def train_run(train_ds: Dataset, test_ds: Dataset, arch: ArchConfig,
              routing: RoutingConfig, train_config: TrainConfig, run_id: str,
              timer=time.perf_counter):
    """Train one model, returning (model, per-epoch MetricsRecords).

    Training batches are shift-augmented when ``train_config.augment`` is
    set.  Emits a train-split and then a test-split record per epoch;
    accuracy and loss come from full evaluation passes on un-augmented data,
    and so does ``mean_dc``, over the first PROBE_IMAGES images of each
    split.  Raises NonFiniteError if optimization diverges (callers may
    catch and flag).
    """
    model = build_model(arch, routing, seed=train_config.seed)
    optimizer = Adam(model.params, train_config)
    spec = arch.layer_spec()
    c0 = initial_coupling(spec, routing)
    label = routing.label
    records: list[MetricsRecord] = []
    start = timer()
    for epoch in range(train_config.epochs):
        optimizer.lr = train_config.learning_rate(epoch)
        for images, labels in batches(train_ds, train_config.batch_size,
                                      shuffle_seed=train_config.seed,
                                      augment=train_config.augment, epoch=epoch):
            train_step(model, optimizer, images, labels)
        for split, ds in (("train", train_ds), ("test", test_ds)):
            accuracy, loss, _, dc_per_image = evaluate(
                model, ds.images, ds.labels, batch_size=train_config.batch_size,
                capture_trace=True)
            records.append(MetricsRecord(
                run_id=run_id, epoch=epoch, split=split, accuracy=accuracy,
                loss=loss, lr=optimizer.lr, config=label,
                wall_seconds=timer() - start, c0=c0,
                mean_dc=_probe_mean_dc(dc_per_image)))
    return model, records


def run_comparison(train_ds: Dataset, test_ds: Dataset,
                   configs: list[RoutingConfig], train_config: TrainConfig,
                   seeds, out_dir: str, arch: ArchConfig,
                   timer=time.perf_counter) -> list[tuple]:
    """Train every (routing config, seed) pair once under one shared budget and
    return the rows written to ``out_dir/report.csv``: per config its name,
    label, dataset, each seed's final test accuracy, their mean and diverged
    seeds.  Each run writes ``out_dir/metrics-<run_id>.csv`` (empty if it
    diverged); a diverged run reads "diverged" and is left out of the mean,
    which reads "diverged" when no run finished.
    """
    names = [config.name for config in configs]
    if not seeds or len(set(seeds)) < len(seeds) or len(set(names)) < len(names):
        raise ValueError(f"run_comparison trains each variant and each of >= 1 seeds"
                         f" once, got variants {names} and seeds {list(seeds)}")
    rows = []
    for config in configs:
        accuracies = []   # final test accuracy per seed, None for a diverged run
        for seed in seeds:
            run_id = f"{config.name}-s{seed}"
            cfg = replace(train_config, seed=seed)
            try:
                _, records = train_run(train_ds, test_ds, arch, config, cfg, run_id, timer=timer)
            except NonFiniteError:
                records = []
            write_metrics(os.path.join(out_dir, f"metrics-{run_id}.csv"), records)
            accuracies.append(records[-1].accuracy if records else None)
        finite = [a for a in accuracies if a is not None]
        rows.append((config.name, config.label, train_ds.name,
                     *("diverged" if a is None else a for a in accuracies),
                     float(np.mean(finite)) if finite else "diverged",
                     ";".join(str(s) for s, a in zip(seeds, accuracies) if a is None)))
    seed_cols = ",".join(f"seed_{s}" for s in seeds)
    write_csv(os.path.join(out_dir, "report.csv"),
              f"config,label,dataset,{seed_cols},mean,diverged", rows)
    return rows


STUDY_HEADER = "config,trial,iteration,c0,mean_dc,max_dc,rel_dc"


def init_sensitivity_study(spec, configs: list[RoutingConfig], num_trials: int,
                           seed: int):
    """Route shared random prediction tensors under each config (each needs
    >= 2 iterations, and each variant is routed once) and collect, for every
    iteration t >= 1, the mean and max of |c_t - c_{t-1}| and the mean over
    the initial coupling c0.

    Returns (rows, summary): long-form rows matching STUDY_HEADER, and per-
    config mean |dc| plus, when both are present, the fraction of trials
    where the 1/num_upper initialization changes faster than the 1/num_lower
    one (names alg1 vs alg2).
    """
    if num_trials < 10:
        raise ValueError(f"init_sensitivity_study needs >= 10 trials,"
                         f" got {num_trials}")
    for config in configs:
        if config.iterations < 2:
            raise ValueError(f"init_sensitivity_study needs >= 2 routing"
                             f" iterations, {config.name} has {config.iterations}")
    per_trial_mean: dict[str, list[float]] = {c.name: [] for c in configs}
    if len(per_trial_mean) < len(configs):
        raise ValueError(f"init_sensitivity_study routes each variant once,"
                         f" got {[c.name for c in configs]}")
    rows = []
    for trial in range(num_trials):
        rng = derived_rng(seed, SEED_ROLE_TRIALS, trial)
        u_hat = Tensor(rng.standard_normal(   # one image per trial
            (1, spec.num_lower, spec.num_upper, spec.dim_upper)))
        for config in configs:
            c0 = initial_coupling(spec, config)
            with no_grad():
                _, couplings, _ = route(u_hat, spec, config)
            mean_dcs = []
            for t in range(1, len(couplings)):
                delta = np.abs(couplings[t] - couplings[t - 1])
                mean_dcs.append(float(delta.mean()))
                rows.append((config.name, trial, t, c0, mean_dcs[-1],
                             float(delta.max()), mean_dcs[-1] / c0))
            per_trial_mean[config.name].append(float(np.mean(mean_dcs)))
    summary = {name: float(np.mean(vals))
               for name, vals in per_trial_mean.items() if vals}
    if "alg1" in per_trial_mean and "alg2" in per_trial_mean:
        wins = sum(a > b for a, b in zip(per_trial_mean["alg1"],
                                         per_trial_mean["alg2"]))
        summary["fraction_alg1_faster_than_alg2"] = wins / num_trials
    return rows, summary


def reconstruction_grid(model: Model, image: np.ndarray, label: int,
                        path: str | None = None) -> np.ndarray:
    """Decode the combined capsule and every per-type capsule of one image.

    Returns the (1 + num_types) reconstructed panels; with ``path`` set,
    also writes them as one binary PGM raster (panels tiled row-major,
    11 per row, 1-pixel separators).
    """
    if model.routing.grouping is not Grouping.BY_TYPE:
        raise ValueError("reconstruction_grid requires a grouped-routing model"
                         " (per-type capsules exist only there)")
    img = np.asarray(image, dtype=np.float64).reshape(1, *IMAGE_SHAPE)
    labels_1h = Tensor(one_hot(np.array([label])))
    with no_grad():
        _, caps, per_type, _ = forward(model, img)
        panels = [decode(model, caps, labels_1h).data.reshape(IMAGE_SHAPE[1:])]
        for t in range(model.arch.num_types):
            panels.append(decode(model, Tensor(per_type[:, t]),
                                 labels_1h).data.reshape(IMAGE_SHAPE[1:]))
    stacked = np.stack(panels)
    if path is not None:
        write_pgm_grid(path, stacked)
    return stacked


def write_pgm_grid(path: str, panels: np.ndarray) -> None:
    """Tile [count, h, w] unit-range panels, 11 per row, into one 8-bit PGM."""
    count, h, w = panels.shape
    per_row = 11
    rows = (count + per_row - 1) // per_row
    cols = min(per_row, count)
    canvas = np.zeros((rows * h + (rows - 1), cols * w + (cols - 1)))
    for idx in range(count):
        r, c = divmod(idx, per_row)
        canvas[r * (h + 1):r * (h + 1) + h,
               c * (w + 1):c * (w + 1) + w] = panels[idx]
    quantized = np.round(np.clip(canvas, 0.0, 1.0) * 255).astype(np.uint8)
    header = f"P5\n{quantized.shape[1]} {quantized.shape[0]}\n255\n".encode()
    write_atomic(path, header + quantized.tobytes())
