"""Command-line entry point.

Subcommands: train, eval, compare, routing-report, reconstruct.  Runs are
described by a flat key=value configuration (file via --config, overridden
by flags; lines as ``network.parse_pairs`` reads them).  ``main`` writes
each run's fully resolved configuration beside the files its subcommand
wrote, so any result can be reproduced by feeding that file back in.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from dataclasses import dataclass, fields

from .analysis import (
    fmt,
    init_sensitivity_study,
    reconstruction_grid,
    run_comparison,
    train_run,
    write_csv,
    write_metrics,
    write_study,
)
from .data import Dataset, load_idx, synthetic_dataset
from .network import (ArchConfig, TrainConfig, evaluate, format_pairs, load_model,
                      parse_pairs, parse_value, save_checkpoint, write_atomic)
from .routing import RoutingConfig

VARIANT_NAMES = ("alg1", "alg2", "alg3", "alg4")
DATASET_NAMES = ("mnist", "fmnist", "kmnist", "synthetic")
ARCH_NAMES = ("default", "compact")
OUT_DIR_ENV = "GCAPS_OUT_DIR"


class ConfigError(ValueError):
    """Bad key, value, or flag combination; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of every subcommand, as one flat namespace."""

    arch: str = "default"
    routing: str = "alg1"
    iterations: int = RoutingConfig.iterations
    configs: tuple[str, ...] = VARIANT_NAMES
    lr0: float = TrainConfig.lr0
    decay: float = TrainConfig.decay
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    eps: float = TrainConfig.eps
    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    seed: int = TrainConfig.seed
    seeds: tuple[int, ...] = (0, 1, 2)
    dataset: str = "synthetic"
    data_dir: str = "data"
    out_dir: str = "runs"
    train_limit: int = 0        # 0 = the whole split
    test_limit: int = 0
    augment: bool = True
    trials: int = 100
    run_id: str = ""            # empty = derive from routing and seed
    split: str = "test"
    index: int = 0
    fixed_timer: bool = False   # count epochs instead of wall time, for
                                # byte-reproducible metrics CSVs

    def __post_init__(self):
        if self.arch not in ARCH_NAMES:
            raise ConfigError(f"arch must be one of {ARCH_NAMES}, got {self.arch!r}")
        if not self.configs:
            raise ConfigError("configs must list at least one variant")
        if self.dataset not in DATASET_NAMES:
            raise ConfigError(
                f"dataset must be one of {DATASET_NAMES}, got {self.dataset!r}")
        if self.split not in ("train", "test"):
            raise ConfigError(f"split must be train or test, got {self.split!r}")
        if self.trials < 10:
            raise ConfigError(f"trials must be >= 10, got {self.trials}")
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        if self.train_limit < 0 or self.test_limit < 0:
            raise ConfigError("train_limit and test_limit must be >= 0")
        if self.index < 0:
            raise ConfigError("index must be >= 0")
        if "/" in self.run_id or os.sep in self.run_id:
            raise ConfigError(f"run_id must not hold a path separator, got {self.run_id!r}")
        try:
            self.train_config()
            for name in (self.routing, *self.configs):
                self.routing_config(name)
            self.resolved_text()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_text(self) -> str:
        """Flat key=value dump; parsing it back reproduces this config."""
        return "# resolved run configuration\n" + format_pairs(
            {f.name: getattr(self, f.name) for f in fields(self)})

    def arch_config(self) -> ArchConfig:
        return ArchConfig.compact() if self.arch == "compact" else ArchConfig()

    def routing_config(self, name: str | None = None) -> RoutingConfig:
        return RoutingConfig.from_name(self.routing if name is None else name,
                                       iterations=self.iterations)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def timer(self):
        if not self.fixed_timer:
            return time.perf_counter
        counter = itertools.count()
        return lambda: float(next(counter))


def config_from_pairs(pairs: dict[str, str]) -> RunConfig:
    """Typed RunConfig from raw string pairs; unknown keys are an error."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    values = {}
    for key, raw in pairs.items():
        if key not in defaults:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            values[key] = parse_value(key, raw, defaults[key])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return RunConfig(**values)


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set]:
    """Merge defaults < config file < environment out-dir < flags."""
    pairs: dict[str, str] = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                pairs.update(parse_pairs(fh.read()))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from None
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        pairs["out_dir"] = env_out
    pairs.update({f.name: getattr(args, f.name) for f in fields(RunConfig)
                  if getattr(args, f.name) is not None})
    return config_from_pairs(pairs), set(pairs)


_IDX_FILES = {"train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
              "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")}


def _find_idx_pair(data_dir: str, dataset: str, split: str) -> tuple[str, str]:
    base = os.path.join(data_dir, dataset)
    img_name, lab_name = _IDX_FILES[split]
    for suffix in ("", ".gz"):
        img = os.path.join(base, img_name + suffix)
        lab = os.path.join(base, lab_name + suffix)
        if os.path.exists(img) and os.path.exists(lab):
            return img, lab
    raise FileNotFoundError(
        f"no {split} files for dataset {dataset!r} under {base}:"
        f" expected {img_name}[.gz] and {lab_name}[.gz]")


def load_split(cfg: RunConfig, split: str) -> Dataset:
    """One split of the configured dataset, already subset to its limit."""
    limit = cfg.train_limit if split == "train" else cfg.test_limit
    if cfg.dataset == "synthetic":
        n = limit or (256 if split == "train" else 128)
        # distinct noise per split, same root seed
        return synthetic_dataset(seed=cfg.seed + (0 if split == "train" else 1),
                                 n=n, split=split)
    img, lab = _find_idx_pair(cfg.data_dir, cfg.dataset, split)
    ds = load_idx(img, lab, name=cfg.dataset, split=split)
    return ds.subset(limit or None)


def cmd_train(cfg: RunConfig, provided: set, args) -> tuple[str, list[str]]:
    run_id = cfg.run_id or f"{cfg.routing}-s{cfg.seed}"
    train_ds = load_split(cfg, "train")
    test_ds = load_split(cfg, "test")
    model, records = train_run(train_ds, test_ds, cfg.arch_config(),
                               cfg.routing_config(), cfg.train_config(),
                               run_id, timer=cfg.timer(), augment=cfg.augment)
    metrics_path = os.path.join(cfg.out_dir, f"metrics-{run_id}.csv")
    write_metrics(metrics_path, records)
    ckpt_path = os.path.join(cfg.out_dir, f"model-{run_id}.ckpt")
    save_checkpoint(ckpt_path, model, extra={"run_id": run_id,
                                             "dataset": cfg.dataset})
    final = [r for r in records if r.split == "test"][-1]
    print(f"run {run_id}: {cfg.epochs} epochs on {cfg.dataset}"
          f" ({len(train_ds)} train / {len(test_ds)} test)")
    print(f"final test accuracy {fmt(final.accuracy)}")
    print(f"final test loss {fmt(final.loss)}")
    return run_id, [metrics_path, ckpt_path]


def cmd_eval(cfg: RunConfig, provided: set, args) -> tuple[str, list[str]]:
    expected_arch = cfg.arch_config() if "arch" in provided else None
    expected_routing = (cfg.routing_config()
                        if {"routing", "iterations"} & provided else None)
    model, manifest = load_model(args.checkpoint, arch=expected_arch,
                                 routing=expected_routing)
    ds = load_split(cfg, cfg.split)
    accuracy, loss, confusion = evaluate(model, ds.images, ds.labels,
                                         batch_size=cfg.batch_size)
    stem = os.path.splitext(os.path.basename(args.checkpoint))[0]
    run_id = cfg.run_id or f"eval-{stem}"
    confusion_path = os.path.join(cfg.out_dir, f"confusion-{run_id}.csv")
    header = "true," + ",".join(f"pred_{k}" for k in range(confusion.shape[1]))
    write_csv(confusion_path, header,
              [(k, *confusion[k].tolist()) for k in range(confusion.shape[0])])
    print(f"eval {args.checkpoint} on {cfg.dataset}/{cfg.split}"
          f" ({len(ds)} examples)")
    print(f"accuracy {fmt(accuracy)}")
    print(f"loss {fmt(loss)}")
    return run_id, [confusion_path]


def cmd_compare(cfg: RunConfig, provided: set, args) -> tuple[str, list[str]]:
    names = tuple(dict.fromkeys(cfg.configs))    # dedupe, keep order
    if len(names) < 2:
        raise ConfigError(f"compare needs at least 2 distinct routing"
                          f" configurations, got {list(cfg.configs)}")
    train_ds = load_split(cfg, "train")
    test_ds = load_split(cfg, "test")
    report = run_comparison(train_ds, test_ds,
                            [cfg.routing_config(n) for n in names],
                            cfg.train_config(), cfg.seeds, cfg.out_dir,
                            arch=cfg.arch_config(), timer=cfg.timer(),
                            augment=cfg.augment)
    print(f"compared {len(names)} configurations x {len(cfg.seeds)} seeds"
          f" on {cfg.dataset}")
    for res in report.results:
        mean = res.mean_accuracy
        shown = fmt(mean) if mean is not None else "diverged"
        print(f"{res.config_name} ({res.config_label}): mean test"
              f" accuracy {shown}")
    return "compare", [os.path.join(cfg.out_dir, "report.csv")]


def cmd_routing_report(cfg: RunConfig, provided: set, args) -> tuple[str, list[str]]:
    spec = cfg.arch_config().layer_spec()
    configs = [cfg.routing_config(n) for n in VARIANT_NAMES]
    rows, summary = init_sensitivity_study(spec, configs, cfg.trials, cfg.seed)
    report_path = os.path.join(cfg.out_dir, "routing-report.csv")
    write_study(report_path, rows)
    print(f"routing report: {cfg.trials} trials on"
          f" {spec.num_lower}x{spec.num_upper} capsules")
    for name in VARIANT_NAMES:
        print(f"{name}: mean |dc| per iteration {fmt(summary[name])}")
    fraction = summary.get("fraction_alg1_faster_than_alg2")
    if fraction is not None:
        print(f"fraction of trials with alg1 coupling changing faster"
              f" than alg2: {fmt(fraction)}")
    return "routing-report", [report_path]


def cmd_reconstruct(cfg: RunConfig, provided: set, args) -> tuple[str, list[str]]:
    model, manifest = load_model(args.checkpoint)
    ds = load_split(cfg, cfg.split)
    if cfg.index >= len(ds):
        raise IndexError(f"index {cfg.index} out of range for"
                         f" {len(ds)}-example {cfg.split} split")
    stem = os.path.splitext(os.path.basename(args.checkpoint))[0]
    run_id = cfg.run_id or f"recon-{stem}"
    grid_path = os.path.join(cfg.out_dir, f"{run_id}-i{cfg.index}.pgm")
    panels = reconstruction_grid(model, ds.images[cfg.index],
                                 int(ds.labels[cfg.index]), path=grid_path)
    print(f"reconstructed {cfg.dataset}/{cfg.split} example {cfg.index}"
          f" (label {int(ds.labels[cfg.index])}) into {panels.shape[0]} panels")
    return run_id, [grid_path]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise ConfigError(message)


def _add_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="key=value run configuration file")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, metavar="VALUE",
                            help=f"override the {f.name} configuration key")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gcaps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{train,eval,compare,routing-report,reconstruct}")
    specs = [
        ("train", cmd_train, "train one model; writes checkpoint,"
                             " metrics CSV, resolved config", ()),
        ("eval", cmd_eval, "evaluate a checkpoint; prints accuracy and loss,"
                           " writes confusion CSV", ("checkpoint",)),
        ("compare", cmd_compare, "train every configured routing variant"
                                 " across the seed list", ()),
        ("routing-report", cmd_routing_report,
         "coupling rate-of-change study across all four variants", ()),
        ("reconstruct", cmd_reconstruct,
         "decode per-type reconstructions of one example into a PGM grid",
         ("checkpoint",)),
    ]
    for name, handler, help_text, positionals in specs:
        p = sub.add_parser(name, help=help_text, description=help_text)
        for positional in positionals:
            p.add_argument(positional)
        _add_flags(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg, provided = _resolve_config(args)
        name, paths = args.handler(cfg, provided, args)
        paths.append(os.path.join(cfg.out_dir, f"config-{name}.txt"))
        write_atomic(paths[-1], cfg.resolved_text().encode())
    except SystemExit as exc:        # --help and friends, keep in-process safe
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
