"""Experiment-harness tests: metrics CSV format and determinism, training
runs, the variant comparison, the initialization study, and reconstruction
grids."""

import itertools
import os
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from gcaps import analysis
from gcaps.analysis import (
    METRICS_HEADER,
    STUDY_HEADER,
    MetricsRecord,
    fmt,
    init_sensitivity_study,
    reconstruction_grid,
    run_comparison,
    train_run,
    write_csv,
    write_metrics,
    write_pgm_grid,
)
from gcaps.data import synthetic_dataset
from gcaps.network import ArchConfig, TrainConfig, forward
from gcaps.routing import RoutingConfig
from gcaps.tensor import NonFiniteError, no_grad
from test_network import micro_arch, micro_model
from test_routing import small_spec


def tick_timer():
    """Deterministic stand-in for perf_counter: 0.0, 1.0, 2.0, ..."""
    counter = itertools.count()
    return lambda: float(next(counter))


def tiny_sets():
    return (synthetic_dataset(seed=5, n=20, split="train"),
            synthetic_dataset(seed=6, n=10, split="test"))


def quick_config(seed=0):
    return TrainConfig(batch_size=10, epochs=2, seed=seed)


class TestCsvFormat:
    def test_floats_use_17_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"
        assert fmt(0.1) == "0.10000000000000001"
        assert fmt(2.0) == "2"

    def test_non_floats_pass_through(self):
        assert fmt(7) == "7"
        assert fmt("train") == "train"

    def test_header_field_count_matches_record(self):
        rec = MetricsRecord(run_id="r", epoch=0, split="test", accuracy=0.5,
                            loss=1.0, lr=0.001, config="b", wall_seconds=1.5,
                            c0=0.1, mean_dc=0.01)
        assert len(astuple(rec)) == len(METRICS_HEADER.split(","))

    def test_record_row_order_matches_header(self):
        rec = MetricsRecord(run_id="rid", epoch=3, split="train",
                            accuracy=0.25, loss=2.0, lr=0.0005, config="oc",
                            wall_seconds=9.0, c0=0.1, mean_dc=0.0)
        row = astuple(rec)
        header = METRICS_HEADER.split(",")
        assert row[header.index("run_id")] == "rid"
        assert row[header.index("epoch")] == 3
        assert row[header.index("split")] == "train"
        assert row[header.index("config")] == "oc"
        assert row[header.index("c0")] == 0.1

    def test_lf_line_endings_and_trailing_newline(self, tmp_path):
        path = str(tmp_path / "m.csv")
        write_csv(path, "a,b", [(1, 2.0), ("x", "y")])
        raw = Path(path).read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert raw.decode("utf-8").splitlines()[0] == "a,b"

    def test_write_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "m.csv")
        write_csv(path, "a", [(1,), (2,)])
        write_csv(path, "a", [(3,)])
        assert Path(path).read_text() == "a\n3\n"
        assert [p for p in os.listdir(tmp_path) if ".tmp" in p] == []


class TestTrainRun:
    def test_record_grid_covers_epochs_and_splits(self):
        train, test = tiny_sets()
        _, records = train_run(train, test, micro_arch(),
                               RoutingConfig.from_name("alg1"),
                               quick_config(), "alg1-s0",
                               timer=tick_timer())
        assert len(records) == 4    # 2 epochs x 2 splits
        assert [(r.epoch, r.split) for r in records] == [
            (0, "train"), (0, "test"), (1, "train"), (1, "test")]
        assert all(r.run_id == "alg1-s0" for r in records)
        assert all(r.config == "b" for r in records)

    def test_learning_rate_follows_decay_schedule(self):
        train, test = tiny_sets()
        cfg = quick_config()
        _, records = train_run(train, test, micro_arch(),
                               RoutingConfig.from_name("alg1"), cfg, "r",
                               timer=tick_timer())
        assert records[0].lr == cfg.lr0
        assert records[2].lr == pytest.approx(cfg.lr0 * cfg.decay, rel=1e-15)

    def test_c0_column_matches_variant(self):
        train, test = tiny_sets()
        _, records = train_run(train, test, micro_arch(),
                               RoutingConfig.from_name("alg2"),
                               quick_config(), "r", timer=tick_timer())
        # micro arch still has 72 lower capsules feeding 10 upper ones
        assert all(r.c0 == pytest.approx(1.0 / 72.0, abs=1e-15)
                   for r in records)

    def test_wall_seconds_come_from_injected_timer(self):
        train, test = tiny_sets()
        _, records = train_run(train, test, micro_arch(),
                               RoutingConfig.from_name("alg1"),
                               quick_config(), "r", timer=tick_timer())
        walls = [r.wall_seconds for r in records]
        assert walls == sorted(walls)
        assert all(w == float(int(w)) for w in walls)   # ticks, not clock

    def test_mean_dc_probe_is_finite_and_nonnegative(self):
        train, test = tiny_sets()
        _, records = train_run(train, test, micro_arch(),
                               RoutingConfig.from_name("alg3"),
                               quick_config(), "r", timer=tick_timer())
        assert all(np.isfinite(r.mean_dc) and r.mean_dc >= 0.0
                   for r in records)

    @pytest.mark.parametrize("name,iterations,batch_size", [
        ("alg1", 3, 32), ("alg3", 3, 48), ("alg2", 1, 48)])
    def test_mean_dc_matches_one_traced_forward_over_first_128(
            self, name, iterations, batch_size):
        # mean_dc comes from the evaluation batches; it must equal the
        # final-iteration mean |dc| of one forward over images[:128].
        # The train split is longer than 128 and the test split shorter.
        # Wider capsules make that change at least 1e-4 of the couplings,
        # so last-bit differences in c cannot reach the 1e-12 tolerance.
        arch = ArchConfig(stem_channels=8, num_types=2, primary_dim=8,
                          digit_dim=16, decoder_hidden=(16, 32))
        train = synthetic_dataset(seed=7, n=150, split="train")
        test = synthetic_dataset(seed=8, n=40, split="test")
        cfg = TrainConfig(batch_size=batch_size, epochs=1, seed=1)
        model, records = train_run(train, test, arch,
                                   RoutingConfig.from_name(name, iterations),
                                   cfg, "r", timer=tick_timer())
        for record, ds in zip(records, (train, test)):
            with no_grad():
                couplings = forward(model, ds.images[:128])[3]
            want = float(np.abs(couplings[-1] - couplings[-2]).mean()) \
                if iterations > 1 else 0.0
            assert record.mean_dc == pytest.approx(want, rel=1e-12, abs=0.0)
            assert (record.mean_dc == 0.0) == (iterations == 1)

    def test_metrics_csv_is_bit_identical_across_reruns(self, tmp_path):
        train, test = tiny_sets()
        paths = []
        for attempt in range(2):
            _, records = train_run(train, test, micro_arch(),
                                   RoutingConfig.from_name("alg1"),
                                   quick_config(), "alg1-s0",
                                   timer=tick_timer())
            path = str(tmp_path / f"m{attempt}.csv")
            write_metrics(path, records)
            paths.append(path)
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    def test_accuracy_and_loss_are_plausible(self):
        train, test = tiny_sets()
        _, records = train_run(train, test, micro_arch(),
                               RoutingConfig.from_name("alg1"),
                               quick_config(), "r", timer=tick_timer())
        assert all(0.0 <= r.accuracy <= 1.0 for r in records)
        assert all(np.isfinite(r.loss) and r.loss > 0.0 for r in records)


class TestComparison:
    def test_writes_per_run_metrics_and_report(self, tmp_path):
        train, test = tiny_sets()
        out = str(tmp_path / "cmp")
        report = run_comparison(
            train, test,
            [RoutingConfig.from_name("alg1"), RoutingConfig.from_name("alg2")],
            quick_config(), seeds=(0, 1), out_dir=out, arch=micro_arch(),
            timer=tick_timer())
        for name in ("alg1", "alg2"):
            for seed in (0, 1):
                assert os.path.exists(os.path.join(out, f"metrics-{name}-s{seed}.csv"))
        lines = Path(os.path.join(out, "report.csv")).read_text().splitlines()
        assert lines[0] == "config,label,dataset,seed_0,seed_1,mean,diverged"
        assert lines[1].startswith("alg1,b,")
        assert lines[2].startswith("alg2,bc,")

    def test_mean_accuracy_averages_seed_columns(self, tmp_path):
        train, test = tiny_sets()
        rows = run_comparison(
            train, test, [RoutingConfig.from_name("alg1")], quick_config(),
            seeds=(0, 1), out_dir=str(tmp_path), arch=micro_arch(),
            timer=tick_timer())
        _, _, _, *accs, mean, diverged = rows[0]
        assert len(accs) == 2
        assert mean == pytest.approx(np.mean(accs), rel=1e-15)
        assert diverged == ""

    def test_rejects_empty_seed_list(self, tmp_path):
        train, test = tiny_sets()
        with pytest.raises(ValueError):
            run_comparison(train, test, [RoutingConfig.from_name("alg1")],
                           quick_config(), seeds=(), out_dir=str(tmp_path),
                           arch=micro_arch())

    @pytest.mark.parametrize("names, seeds", [
        (("alg1", "alg2"), (0, 0, 1)),
        (("alg1", "alg2", "alg1"), (0,)),
    ], ids=["seed", "variant"])
    def test_rejects_a_repeated_seed_or_variant(self, tmp_path, names, seeds):
        # either would train one run_id twice, into one metrics file and two report cells
        train, test = tiny_sets()
        with pytest.raises(ValueError, match=re.escape(f"{list(names)} and seeds {list(seeds)}")):
            run_comparison(train, test, [RoutingConfig.from_name(n) for n in names],
                           quick_config(), seeds=seeds, out_dir=str(tmp_path),
                           arch=micro_arch())
        assert list(tmp_path.iterdir()) == []

    def test_diverged_runs_are_flagged_not_averaged(self, tmp_path, monkeypatch):
        self.diverge_seeds(monkeypatch, {1})
        row = self.compare_alg2(tmp_path, seeds=(0, 1, 2))[0]
        assert row[4] == "diverged"
        assert row[-2] == float(np.mean([row[3], row[5]]))
        assert row[-1] == "1"
        cells = Path(os.path.join(tmp_path, "report.csv")).read_text().splitlines()[1].split(",")
        assert cells == [fmt(c) for c in row]

    def test_all_diverged_reports_diverged_mean(self, tmp_path, monkeypatch):
        self.diverge_seeds(monkeypatch, {0})
        results = self.compare_alg2(tmp_path, seeds=(0,))
        assert results[0][-2] == "diverged"
        lines = Path(os.path.join(tmp_path, "report.csv")).read_text().splitlines()
        assert lines[1] == "alg2,bc,synthetic,diverged,diverged,0"

    @staticmethod
    def diverge_seeds(monkeypatch, seeds):
        """Make the training runs of ``seeds`` diverge."""
        real = analysis.train_run

        def train_run(*args, **kwargs):
            if args[4].seed in seeds:
                raise NonFiniteError("diverged")
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "train_run", train_run)

    @staticmethod
    def compare_alg2(out_dir, seeds):
        train, test = tiny_sets()
        return run_comparison(train, test, [RoutingConfig.from_name("alg2")],
                              quick_config(), seeds=seeds, out_dir=str(out_dir),
                              arch=micro_arch(), timer=tick_timer())


class TestInitStudy:
    def test_row_shape_and_count(self):
        spec = small_spec()
        configs = [RoutingConfig.from_name("alg1"),
                   RoutingConfig.from_name("alg2")]
        rows, summary = init_sensitivity_study(spec, configs, num_trials=10,
                                               seed=0)
        # 10 trials x 2 configs x 2 coupling deltas for 3 iterations
        assert len(rows) == 10 * 2 * 2
        assert all(len(r) == len(STUDY_HEADER.split(",")) for r in rows)
        assert {r[0] for r in rows} == {"alg1", "alg2"}
        assert {r[2] for r in rows} == {1, 2}

    def test_summary_tracks_per_config_means_and_win_fraction(self):
        spec = small_spec()
        configs = [RoutingConfig.from_name("alg1"),
                   RoutingConfig.from_name("alg2")]
        _, summary = init_sensitivity_study(spec, configs, num_trials=12,
                                            seed=3)
        assert set(summary) == {"alg1", "alg2",
                                "fraction_alg1_faster_than_alg2"}
        assert summary["alg1"] > 0.0 and summary["alg2"] > 0.0
        assert 0.0 <= summary["fraction_alg1_faster_than_alg2"] <= 1.0

    def test_same_seed_reproduces_rows(self):
        spec = small_spec()
        configs = [RoutingConfig.from_name("alg3")]
        rows_a, _ = init_sensitivity_study(spec, configs, num_trials=10, seed=7)
        rows_b, _ = init_sensitivity_study(spec, configs, num_trials=10, seed=7)
        assert rows_a == rows_b

    def test_rejects_fewer_than_ten_trials(self):
        with pytest.raises(ValueError, match="10"):
            init_sensitivity_study(small_spec(),
                                   [RoutingConfig.from_name("alg1")],
                                   num_trials=9, seed=0)

    @pytest.mark.parametrize("names, iterations", [
        (("alg1", "alg1", "alg2", "alg2"), (3, 3, 3, 3)),
        (("alg1", "alg2", "alg1"), (2, 3, 4)),
    ])
    def test_rejects_a_repeated_variant(self, names, iterations):
        # merged per-trial means would count more pairs than trials
        configs = [RoutingConfig.from_name(n, k) for n, k in zip(names, iterations)]
        with pytest.raises(ValueError, match="'alg1', 'alg2'"):
            init_sensitivity_study(small_spec(), configs, num_trials=10, seed=0)

    def test_study_csv_round_trips(self, tmp_path):
        spec = small_spec()
        rows, _ = init_sensitivity_study(
            spec, [RoutingConfig.from_name("alg1")], num_trials=10, seed=0)
        path = str(tmp_path / "study.csv")
        write_csv(path, STUDY_HEADER, rows)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == STUDY_HEADER
        assert len(lines) == 1 + len(rows)


class TestReconstructionGrid:
    def test_panel_count_is_one_plus_num_types(self):
        model = micro_model("alg3")
        image = synthetic_dataset(seed=1, n=10).images[0]
        panels = reconstruction_grid(model, image, label=0)
        assert panels.shape == (1 + model.arch.num_types, 28, 28)
        assert panels.min() >= 0.0 and panels.max() <= 1.0

    def test_rejects_ungrouped_routing(self):
        model = micro_model("alg1")
        image = synthetic_dataset(seed=1, n=10).images[0]
        with pytest.raises(ValueError, match="grouped"):
            reconstruction_grid(model, image, label=0)

    def test_writes_pgm_when_path_given(self, tmp_path):
        model = micro_model("alg4")
        image = synthetic_dataset(seed=1, n=10).images[3]
        path = str(tmp_path / "grid.pgm")
        reconstruction_grid(model, image, label=3, path=path)
        raw = Path(path).read_bytes()
        assert raw.startswith(b"P5\n")

    def test_pgm_grid_geometry(self, tmp_path):
        panels = np.zeros((33, 28, 28))
        panels[0, :, :] = 1.0
        path = str(tmp_path / "g.pgm")
        write_pgm_grid(path, panels)
        raw = Path(path).read_bytes()
        # 33 panels at 11 per row: 3 rows, separators between tiles
        width, height = 11 * 28 + 10, 3 * 28 + 2
        header = f"P5\n{width} {height}\n255\n".encode()
        assert raw.startswith(header)
        assert len(raw) == len(header) + width * height
        pixels = np.frombuffer(raw[len(header):], dtype=np.uint8)
        assert pixels.max() == 255 and pixels.min() == 0

    def test_pgm_values_quantize_unit_range(self, tmp_path):
        panels = np.full((1, 4, 4), 0.5)
        path = str(tmp_path / "q.pgm")
        write_pgm_grid(path, panels)
        raw = Path(path).read_bytes()
        header = b"P5\n4 4\n255\n"
        pixels = np.frombuffer(raw[len(header):], dtype=np.uint8)
        assert (pixels == 128).all()    # round(0.5 * 255)
