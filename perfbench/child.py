"""One measured benchmark process.

``run.py`` starts this file in a fresh interpreter whose BLAS is pinned to
one thread.  Modes:

  prepare  write the workload's input files (IDX files, a checkpoint)
  setup    import gcaps and set the workload up, then report the time from
           process start and the host speed just after, and exit
  run      set up, run one untimed warm-up operation, then time operations
           in a closed loop until ``--seconds`` is spent; with ``--trace 1``
           every second timed operation runs under the outside-in tracer
  record   run the operations the reference table covers and write what
           they returned

Every mode writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import struct
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Relative tolerance for every real-valued output check.  Reordering the
# sums of weighted_sum and the conv GEMM moved the recorded values by at most
# 7e-16; dropping one of the 81 taps of the conv input gradient moved the
# compact run's test loss by 2e-6, and dropping the v term of the agreement
# gradient moved it by 3e-7.  Accuracies and the alg1-vs-alg2 fraction are
# compared exactly.
REL_TOL = 1e-8
EXACT_KEYS = ("accuracy", "fraction_alg1_faster_than_alg2")

# A traced run writes every span here, inside its fixtures directory.
SPANS_FILE = "spans.json"

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def write_idx_pair(images_path: str, labels_path: str, seed: int, n: int) -> None:
    """Seeded 28x28 uint8 images, one bright two-row bar per class plus
    noise, written by the benchmark itself in the IDX layout."""
    import numpy as np
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 10).astype(np.uint8)
    images = rng.integers(0, 26, size=(n, 28, 28), dtype=np.uint8)
    for i, k in enumerate(labels):
        row = 4 + 2 * int(k)
        images[i, row:row + 2, 4:24] = 230
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, 28, 28))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(labels.tobytes())


# -- workloads ---------------------------------------------------------------
#
# A workload has class-level ``items`` (work units per operation),
# ``reference_ops`` (how many operations record mode runs to cover every
# reference entry) and ``episode`` (operations per episode: the first
# operation of each starts from fresh state and runs untimed, like the
# warm-up; 0 when the workload has no episodes), and the methods below.
# Operations call gcaps through module attributes (``self.network.train_step``)
# so that the tracer's wrappers are the ones called when it is installed.
#   prepare_inputs(fixtures, seed_class)  write input files (prepare mode)
#   __init__(fixtures, seed_class)        the set-up that setup_s measures
#   before(i)                             untimed bookkeeping before op i
#   run(i)                                operation i, the timed part
#   observe(i, result)                    values to check, raising on an
#                                         invariant the output breaks


class TrainDefault:
    """network.train_step on the default arch, batch 128, alg1.

    Training restarts from the initial parameters every ``EPISODE`` steps,
    so every step's loss has a reference value whatever the machine speed.
    The first step of an episode faults in a new Adam's moment buffers
    (about 65 MB), so it runs untimed and every timed step is a steady one.
    """

    name = "train-default"
    BATCH = 128
    EPISODE = 3
    items = BATCH
    reference_ops = EPISODE
    episode = EPISODE

    @staticmethod
    def prepare_inputs(fixtures, seed_class):
        pass

    def __init__(self, fixtures, seed_class):
        from gcaps import data, network
        from gcaps.routing import RoutingConfig
        self.data, self.network = data, network
        self.seed_class = seed_class
        self.model = network.build_model(
            network.ArchConfig(), RoutingConfig.from_name("alg1"), seed=seed_class)
        self.dataset = data.synthetic_dataset(seed=seed_class,
                                              n=self.EPISODE * self.BATCH)
        self.initial = {k: t.data.copy() for k, t in self.model.params.items()}
        self.optimizer = None
        self.stream = None

    def before(self, i):
        if i % self.EPISODE == 0:
            for k, t in self.model.params.items():
                t.data[...] = self.initial[k]
            self.optimizer = self.network.Adam(self.model.params)
            self.stream = iter(self.data.batches(
                self.dataset, self.BATCH, shuffle_seed=self.seed_class,
                augment=True))

    def run(self, i):
        images, labels = next(self.stream)
        return self.network.train_step(self.model, self.optimizer, images, labels)

    def observe(self, i, result):
        loss, _ = result
        if not math.isfinite(loss):
            raise ValueError(f"step {i}: loss {loss} is not finite")
        return str(i % self.EPISODE), {"loss": loss}


class EvalDefault:
    """load_model + load_idx in set-up, then network.evaluate at batch 128."""

    name = "eval-default"
    BATCH = 128
    IMAGES = 128
    items = IMAGES
    reference_ops = 1
    episode = 0

    @staticmethod
    def prepare_inputs(fixtures, seed_class):
        from gcaps.network import ArchConfig, build_model, save_checkpoint
        from gcaps.routing import RoutingConfig
        model = build_model(ArchConfig(), RoutingConfig.from_name("alg1"),
                            seed=seed_class)
        save_checkpoint(os.path.join(fixtures, "model.ckpt"), model)
        write_idx_pair(os.path.join(fixtures, "images.idx"),
                       os.path.join(fixtures, "labels.idx"),
                       seed=1000 + seed_class, n=EvalDefault.IMAGES)

    def __init__(self, fixtures, seed_class):
        from gcaps import data, network
        self.network = network
        self.model, _ = network.load_model(os.path.join(fixtures, "model.ckpt"))
        self.dataset = data.load_idx(os.path.join(fixtures, "images.idx"),
                                     os.path.join(fixtures, "labels.idx"),
                                     name="bench", split="test")

    def before(self, i):
        pass

    def run(self, i):
        return self.network.evaluate(self.model, self.dataset.images,
                                     self.dataset.labels, batch_size=self.BATCH)

    def observe(self, i, result):
        accuracy, loss, confusion = result
        if int(confusion.sum()) != self.IMAGES:
            raise ValueError(f"confusion matrix counts {int(confusion.sum())}"
                             f" of {self.IMAGES} images")
        return "0", {"accuracy": accuracy, "loss": loss}


class RoutingStudy:
    """analysis.init_sensitivity_study on the 1152x10x16 reference layer,
    all four variants, batch 1; the study seed cycles over four values."""

    name = "routing-study"
    TRIALS = 10
    STUDY_SEEDS = 4
    VARIANTS = ("alg1", "alg2", "alg3", "alg4")
    items = TRIALS * len(VARIANTS)
    reference_ops = STUDY_SEEDS
    episode = 0

    @staticmethod
    def prepare_inputs(fixtures, seed_class):
        pass

    def __init__(self, fixtures, seed_class):
        from gcaps import analysis
        from gcaps.capsule import CapsLayerSpec
        from gcaps.routing import RoutingConfig
        self.analysis = analysis
        self.seed_class = seed_class
        self.spec = CapsLayerSpec.reference()
        self.configs = [RoutingConfig.from_name(n) for n in self.VARIANTS]

    def before(self, i):
        pass

    def run(self, i):
        seed = 100 * self.seed_class + i % self.STUDY_SEEDS
        return self.analysis.init_sensitivity_study(self.spec, self.configs,
                                                    self.TRIALS, seed)

    def observe(self, i, result):
        rows, summary = result
        # one row per routing iteration after the first, per trial and variant
        expected_rows = self.TRIALS * sum(c.iterations - 1 for c in self.configs)
        if len(rows) != expected_rows:
            raise ValueError(f"{len(rows)} study rows, expected {expected_rows}")
        return str(i % self.STUDY_SEEDS), dict(summary)


class TrainCompact:
    """cli.main(["train", ...]): compact arch, batch 16, alg4, one epoch over
    128 harness-written IDX training images, 32 test images."""

    name = "train-compact"
    TRAIN_IMAGES = 128
    TEST_IMAGES = 32
    EPOCHS = 1
    items = EPOCHS * TRAIN_IMAGES
    reference_ops = 1
    episode = 0

    @staticmethod
    def prepare_inputs(fixtures, seed_class):
        base = os.path.join(fixtures, "data", "mnist")
        os.makedirs(base)
        write_idx_pair(os.path.join(base, "train-images-idx3-ubyte"),
                       os.path.join(base, "train-labels-idx1-ubyte"),
                       seed=2000 + seed_class, n=TrainCompact.TRAIN_IMAGES)
        write_idx_pair(os.path.join(base, "t10k-images-idx3-ubyte"),
                       os.path.join(base, "t10k-labels-idx1-ubyte"),
                       seed=3000 + seed_class, n=TrainCompact.TEST_IMAGES)

    def __init__(self, fixtures, seed_class):
        from gcaps import cli
        self.cli = cli
        self.out_dir = os.path.join(fixtures, "out")
        self.run_id = f"bench-s{seed_class}"
        self.argv = ["train", "--arch", "compact", "--routing", "alg4",
                     "--batch-size", "16", "--epochs", str(self.EPOCHS),
                     "--seed", str(seed_class), "--dataset", "mnist",
                     "--data-dir", os.path.join(fixtures, "data"),
                     "--out-dir", self.out_dir, "--run-id", self.run_id]
        self.outputs = [os.path.join(self.out_dir, f"{kind}-{self.run_id}.{ext}")
                        for kind, ext in (("metrics", "csv"), ("model", "ckpt"))]

    def before(self, i):
        for path in self.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def run(self, i):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv)

    def observe(self, i, result):
        if result != 0:
            raise ValueError(f"gcaps train exited with {result}")
        for path in self.outputs:
            if not os.path.isfile(path):
                raise ValueError(f"gcaps train did not write {path}")
        with open(self.outputs[0], encoding="utf-8") as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        # the last epoch's train and test rows: losses, accuracies and the
        # probe's mean |dc|; the final test loss is among them
        values = {}
        for row in rows[-2:]:
            cell = dict(zip(header, row))
            for column in ("loss", "accuracy", "mean_dc"):
                values[f"{cell['split']}_{column}"] = float(cell[column])
        return "0", values


WORKLOADS = {w.name: w for w in (TrainDefault, EvalDefault, RoutingStudy,
                                 TrainCompact)}


# -- checks ------------------------------------------------------------------


def compare(observed: dict, expected: dict) -> list[str]:
    """Mismatches between observed and reference values."""
    problems = []
    for key, want in expected.items():
        got = observed.get(key)
        if got is None:
            problems.append(f"{key}: missing")
        elif key.endswith(EXACT_KEYS):
            if got != want:
                problems.append(f"{key}: {got!r} != reference {want!r}")
        elif not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(f"{key}: {got!r} differs from reference {want!r}"
                            f" by more than rel {REL_TOL}")
    return problems


class HostProbe:
    """A fixed computation that calls no gcaps code, timed next to the
    workload to measure how fast the host runs at that moment.

    The host is shared: the same operation runs up to 1.9 times slower for
    stretches of ten to sixty seconds, as long as a run or longer, and this
    computation slows with it.  It mixes the kinds of work the workloads do:
    a Python loop, numpy element-wise work and reductions on a capsule-shaped
    array, and a BLAS matrix product.  Its arrays are small and made afresh
    on each call, so that it holds no memory while an operation runs; it
    adds about 1 MB to the peak RSS of routing-study and less than that
    share to the others.
    """

    # The probe's median duration on the reference host (2-core Xeon VM,
    # OpenBLAS 0.3.31, numpy 2.4.6, one BLAS thread).  Figures corrected to
    # this speed read close to what that host gives at its usual speed.
    REFERENCE_S = 0.03

    def __init__(self):
        self.seconds: list[float] = []
        self._run()                     # the first call pays for lazy set-up

    @staticmethod
    def _run() -> None:
        import numpy as np
        u = np.linspace(-1.0, 1.0, 576 * 10 * 16).reshape(576, 10, 16)
        b = np.linspace(-2.0, 2.0, 576 * 10).reshape(576, 10)
        m = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)
        total = 0
        for i in range(150000):
            total += i * i
        for _ in range(36):
            c = np.einsum("ij,ijk->jk", b, u)
            e = np.exp(b - b.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            u * c[None]
        for _ in range(8):
            m @ m

    def sample(self, seconds: float = 0.0) -> None:
        """Time the probe once, and again until ``seconds`` have passed."""
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            self._run()
            self.seconds.append(time.perf_counter() - start)
            if start + self.seconds[-1] >= end:
                break

    def speed(self) -> float:
        """How fast the host ran while sampled, relative to the reference
        host: reference time over the median probe time."""
        return self.REFERENCE_S / statistics.median(self.seconds)


# After each operation the probe runs for at least this share of the
# operation's duration.  Kept small so that two train-default steps (about
# 8.5 s each) and their probes still fit in a 20 s phase.
PROBE_SHARE = 0.05
# A set-up process samples the host for this long after it is set up.
SETUP_PROBE_S = 0.1


class Runner:
    """Runs, times and checks the operations of one workload instance."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.probe = HostProbe()        # samples the host during the phase
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, tracer=None) -> float:
        """Run the next operation and check it; returns its duration."""
        w, i = self.workload, self.next_op
        self.next_op += 1
        w.before(i)
        self.attempted += 1
        span = tracer.open("bench.op") if tracer else None
        start = time.perf_counter()
        try:
            result = w.run(i)
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"op {i}: {type(exc).__name__}: {exc}"
        else:
            error = None
        duration = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        if error is None:
            try:
                key, observed = w.observe(i, result)
                problems = compare(observed, self.reference[key])
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                error = f"op {i}: " + "; ".join(problems)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        return duration

    def starts_episode(self, i: int) -> bool:
        episode = self.workload.episode
        return episode > 0 and i % episode == 0

    def phase(self, seconds: float, tracer=None) -> dict:
        """Closed loop of operations; stops before one more would overrun.

        The first operation of an episode runs untimed.  After each
        operation the host probe runs for ``PROBE_SHARE`` of its duration.
        With a tracer, every second timed operation runs traced, so that
        traced and plain operations see the same host conditions; the plain
        ones give the phase's figures and the traced ones go under
        ``"traced"``.
        System time and page faults are summed over the timed operations.
        """
        runs = {False: [], True: []}
        sys_s = minor_faults = 0
        start = time.perf_counter()
        self.probe.sample()
        while True:
            if tracer is not None:
                tracer.enabled = False
            if self.starts_episode(self.next_op):
                self.probe.sample(PROBE_SHARE * self.op())
            traced = tracer is not None and len(runs[False]) > len(runs[True])
            if tracer is not None:
                tracer.enabled = traced
            before = resource.getrusage(resource.RUSAGE_SELF)
            runs[traced].append(self.op(tracer if traced else None))
            after = resource.getrusage(resource.RUSAGE_SELF)
            sys_s += after.ru_stime - before.ru_stime
            minor_faults += after.ru_minflt - before.ru_minflt
            if tracer is not None:
                tracer.enabled = False
            self.probe.sample(PROBE_SHARE * runs[traced][-1])
            elapsed = time.perf_counter() - start
            durations = runs[False] + runs[True]
            ahead = (2 if self.starts_episode(self.next_op) else 1) * (1 + PROBE_SHARE)
            if (elapsed + ahead * statistics.median(durations) > seconds
                    and (tracer is None or runs[True])):
                break
        if tracer is not None:
            tracer.enabled = False
        result = self._rates(runs[False])
        result.update(wall_s=elapsed, all_items=self.workload.items * len(durations),
                      sys_s=sys_s, minor_faults=minor_faults,
                      probe_seconds=self.probe.seconds,
                      host_speed=self.probe.speed())
        if tracer is not None:
            result["traced"] = self._rates(runs[True])
        return result

    def _rates(self, durations: list[float]) -> dict:
        return {"op_seconds": durations,
                "items": self.workload.items * len(durations),
                "items_per_s": statistics.median(self.workload.items / d
                                                 for d in durations)}


# -- environment -------------------------------------------------------------


def blas_stamp() -> dict:
    """BLAS name, version and the thread count it actually runs with."""
    import ctypes
    import numpy as np
    stamp = {"numpy": np.__version__, "blas": None, "blas_version": None,
             "blas_threads": None}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp["blas"], stamp["blas_version"] = info.get("name"), info.get("version")
    libs = set()
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if "blas" in name and ".so" in name:
                    libs.add(path)
    for path in sorted(libs):
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for symbol in ("openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    stamp["blas_threads"] = int(fn())
                    return stamp
    return stamp


# -- trace metrics -----------------------------------------------------------


def trace_metrics(tracer, setup_spans, timed_spans, phase,
                  warmup_s) -> tuple[dict, dict]:
    """The per-layer metrics of a phase with traced operations, and the
    layer shares of those operations."""
    from tracer import layer_shares, summarize
    timed = summarize(timed_spans)
    every = summarize(setup_spans)     # set-up and timed phase: calls, totals
    for name, r in timed.items():
        merged = every.setdefault(name, dict.fromkeys(r, 0.0))
        for key in r:
            merged[key] += r[key]
    traced = phase["traced"]
    items = traced["items"]
    ops = len(traced["op_seconds"])

    def row(table, name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "size": 0.0})

    def ms_per_item(name, key="total_s"):
        return 1e3 * row(timed, name)[key] / items

    def mean_s(name):
        r = row(every, name)
        return r["total_s"] / r["calls"] if r["calls"] else 0.0

    def mean_sample(name, scale=1.0):
        values = tracer.samples.get(name, [])
        return scale * sum(values) / len(values) if values else 0.0

    load = row(every, "data.load_idx")
    train_run = row(timed, "analysis.train_run")["total_s"]
    probe = row(timed, "analysis.probe")["total_s"]
    cli_calls = row(timed, "cli.main")["calls"]
    metrics = {
        "tensor.conv2d.ms_per_item": ms_per_item("tensor.conv2d"),
        "tensor.conv2d.calls": row(timed, "tensor.conv2d")["calls"] / ops,
        "tensor.backward.ms_per_item": ms_per_item("tensor.backward"),
        "tensor.tape_nodes_per_step": mean_sample("tape_nodes"),
        "tensor.tape_mb_per_step": mean_sample("tape_bytes", 1e-6),
    }
    for op in ("predict", "squash", "coupling_from_logits", "weighted_sum",
               "agreement_update"):
        metrics[f"capsule.{op}.ms_per_item"] = ms_per_item(f"capsule.{op}")
    metrics.update({
        "capsule.weighted_sum.calls_per_item":
            row(timed, "capsule.weighted_sum")["calls"] / items,
        "routing.route.ms_per_item": ms_per_item("routing.route"),
        "routing.route.self_ms_per_item": ms_per_item("routing.route", "self_s"),
        "network.forward.ms_per_item": ms_per_item("network.forward"),
        "network.decode.ms_per_item": ms_per_item("network.decode"),
        "network.train_step.self_ms_per_item":
            ms_per_item("network.train_step", "self_s"),
        "network.Adam.step.ms_per_item": ms_per_item("network.Adam.step"),
        "network.evaluate.ms_per_item": ms_per_item("network.evaluate"),
        "network.load_model_s": mean_s("network.load_model"),
        "network.save_checkpoint_s": mean_s("network.save_checkpoint"),
        "network.checkpoint_mb":
            1e-6 * row(every, "network.save_checkpoint")["size"]
            / max(1, row(every, "network.save_checkpoint")["calls"]),
        "network.warmup_s": warmup_s,
        "data.load_idx_s": mean_s("data.load_idx"),
        "data.load_idx.mb_per_s":
            1e-6 * load["size"] / load["total_s"] if load["total_s"] else 0.0,
        "data.batches.ms_per_item": ms_per_item("data.batches"),
        "data.synthetic_dataset_s": mean_s("data.synthetic_dataset"),
        "analysis.probe.ms_per_item": ms_per_item("analysis.probe"),
        "analysis.probe.share": probe / train_run if train_run else 0.0,
        "analysis.init_sensitivity_study.self_ms_per_item":
            ms_per_item("analysis.init_sensitivity_study", "self_s"),
        "cli.main.self_s":
            row(timed, "cli.main")["self_s"] / cli_calls if cli_calls else 0.0,
        "proc.sys_ms_per_item": 1e3 * phase["sys_s"] / phase["all_items"],
        "proc.minor_faults_per_item": phase["minor_faults"] / phase["all_items"],
        "trace.overhead_share": 1.0 - traced["items_per_s"] / phase["items_per_s"],
    })
    shares = layer_shares(timed_spans, sum(traced["op_seconds"]))
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = shares.get(layer, 0.0)
    return metrics, shares


LAYERS = ("tensor", "capsule", "routing", "network", "data", "analysis", "cli",
          "bench", "trace")


# -- modes -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "setup", "run", "record"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed-class", type=int, required=True)
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it"
                             " started this process")
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (run mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "run" and args.seconds is None:
        parser.error("run mode needs --seconds")
    cls = WORKLOADS[args.workload]

    if args.mode == "prepare":
        cls.prepare_inputs(args.fixtures, args.seed_class)
        return _write(args.out, {"ok": True})

    tracer = None
    if args.mode == "run" and args.trace:
        import gcaps.cli  # noqa: F401  (load every module before wrapping)
        from tracer import Tracer, install_gcaps
        tracer = Tracer()
        install_gcaps(tracer)
    workload = cls(args.fixtures, args.seed_class)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode in ("setup", "run"):
        probe = HostProbe()
        probe.sample(SETUP_PROBE_S)
        setup = {"setup_s": setup_s, "host_speed": probe.speed(),
                 "probe_seconds": probe.seconds}
    if args.mode == "setup":
        return _write(args.out, setup)

    if args.mode == "record":
        values = {}
        for i in range(cls.reference_ops):
            workload.before(i)
            key, observed = workload.observe(i, workload.run(i))
            values[key] = observed
        return _write(args.out, {"values": values, "blas": blas_stamp()})

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][args.workload]
    runner = Runner(workload, reference[str(args.seed_class)])
    if tracer is not None:
        setup_spans, tracer.spans = tracer.spans, []
        tracer.enabled = False
    warm_start = time.perf_counter()
    runner.op()
    warmup_s = time.perf_counter() - warm_start
    result = {"setup": setup, "warmup_s": warmup_s, "blas": blas_stamp()}
    result["phase"] = runner.phase(args.seconds, tracer)
    if tracer is not None:
        tracer.restore()
        metrics, shares = trace_metrics(tracer, setup_spans, tracer.spans,
                                        result["phase"], warmup_s)
        result.update(trace_metrics=metrics, layer_shares=shares)
        _write(os.path.join(args.fixtures, SPANS_FILE), {
            "workload": args.workload,
            "setup": [s.as_dict() for s in setup_spans],
            "timed": [s.as_dict() for s in tracer.spans]})
    result.update(attempted=runner.attempted, failed=runner.failed,
                  errors=runner.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return _write(args.out, result)


def _write(path: str, obj) -> int:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
