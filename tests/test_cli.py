"""Command-line contract tests: config parsing, exit codes, output files,
and rerun determinism.  Commands run in-process through main(argv)."""

import gzip
import itertools
import os
import struct
from dataclasses import fields

import numpy as np
import pytest

from gcaps import analysis
from gcaps.analysis import train_run, write_metrics
from gcaps.cli import ConfigError, RunConfig, config_from_pairs, load_checkpoint, main
from gcaps.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, synthetic_dataset
from gcaps.network import (ArchConfig, CheckpointError, TrainConfig, build_model, config_from,
                           config_pairs, parse_pairs, save_checkpoint)
from gcaps.routing import RoutingConfig
from gcaps.tensor import NonFiniteError

FAST = ["--arch", "compact", "--dataset", "synthetic",
        "--train-limit", "20", "--test-limit", "10",
        "--batch-size", "10", "--epochs", "1", "--fixed-timer", "true"]


def run_train(out_dir, *extra):
    return main(["train", *FAST, "--out-dir", str(out_dir), *extra])


def write_mnist_like(base, gzipped="", size=28):
    """Train and test IDX files of random size x size images under ``base``;
    the images or labels file of each split is gzipped when ``gzipped`` names it."""
    rng = np.random.default_rng(20)
    base.mkdir(parents=True)
    for prefix, n in (("train", 20), ("t10k", 10)):
        blobs = {"images-idx3-ubyte": struct.pack(">IIII", IDX_IMAGES_MAGIC, n, size, size)
                 + rng.integers(0, 256, (n, size, size), dtype=np.uint8).tobytes(),
                 "labels-idx1-ubyte": struct.pack(">II", IDX_LABELS_MAGIC, n)
                 + (np.arange(n) % 10).astype(np.uint8).tobytes()}
        for kind, blob in blobs.items():
            name = f"{prefix}-{kind}"
            if gzipped and kind.startswith(gzipped):
                name, blob = name + ".gz", gzip.compress(blob, mtime=0)
            (base / name).write_bytes(blob)


class TestConfigParsing:
    def test_comments_and_blanks_are_skipped(self):
        pairs = parse_pairs("# header\n\nrouting=alg2\n  # indented\n")
        assert pairs == {"routing": "alg2"}

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ValueError, match="line 1: expected key=value"):
            parse_pairs("routing alg2\n")

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(ValueError, match="line 2: duplicate key 'seed'"):
            parse_pairs("seed=1\nseed=2\n")

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="routting"):
            config_from_pairs({"routting": "alg1"})

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            config_from_pairs({"epochs": "many"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="augment"):
            config_from_pairs({"augment": "yes"})

    def test_validation_catches_bad_names(self):
        for key, value in (("routing", "alg9"), ("arch", "huge"),
                           ("dataset", "imagenet"), ("split", "val")):
            with pytest.raises(ConfigError):
                config_from_pairs({key: value})

    def test_trials_floor(self):
        with pytest.raises(ConfigError, match="trials"):
            config_from_pairs({"trials": "9"})

    def test_resolved_text_round_trips_defaults(self):
        cfg = RunConfig()
        assert config_from_pairs(parse_pairs(cfg.resolved_text())) == cfg

    def test_resolved_text_round_trips_overrides(self):
        cfg = RunConfig(arch="compact", routing="alg4", iterations=5, lr0=0.0005,
                        seeds=(7, 8), configs=("alg2", "alg4"), augment=False,
                        dataset="kmnist", split="train", fixed_timer=True)
        assert config_from_pairs(parse_pairs(cfg.resolved_text())) == cfg
        assert config_from(RunConfig, config_pairs(cfg)) == cfg

    # str.splitlines would also break lines at these, splitting the value
    # or injecting a key
    @pytest.mark.parametrize("value", ["a\rb", "a\x85iterations=7", "a\x1cb", "a\u2028b"])
    def test_resolved_text_round_trips_other_line_breaks(self, value):
        cfg = RunConfig(run_id=value)
        assert config_from_pairs(parse_pairs(cfg.resolved_text())) == cfg

    def test_crlf_lines_still_parse(self):
        pairs = parse_pairs("routing=alg2\r\nseed=1\r\n")
        assert pairs == {"routing": "alg2", "seed": "1"}

    # stripped, these would read back changed; broken in two, they would
    # set another key or not parse at all
    @pytest.mark.parametrize("key", ["run_id", "data_dir"])
    @pytest.mark.parametrize("value", [" a", "a\x85", "a\nseed=5", "x\ny"])
    def test_values_that_would_not_read_back_are_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            RunConfig(**{key: value})

    def test_seed_list_parsing(self):
        cfg = config_from_pairs({"seeds": "3,1,4"})
        assert cfg.seeds == (3, 1, 4)

    @pytest.mark.parametrize("key,value", [
        ("configs", "alg1,,alg2"), ("configs", "alg1,alg2,"), ("configs", ""),
        ("seeds", "1,,2"), ("seeds", " , 1"),
    ])
    def test_empty_list_entry_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'.*empty list entry"):
            config_from_pairs({key: value})

    @pytest.mark.parametrize("key,value", [
        ("routing", "ALG1"), ("routing", " alg1"), ("configs", "alg1,Alg2"),
    ])
    def test_variant_names_are_exact(self, key, value):
        with pytest.raises(ConfigError, match="unknown routing variant"):
            config_from_pairs({key: value})

    def test_training_keys_come_first(self):
        names = [f.name for f in fields(RunConfig)]
        assert names[:len(fields(TrainConfig))] == [f.name for f in fields(TrainConfig)]

    def test_a_resolved_text_in_the_older_key_order_parses_the_same(self):
        cfg = RunConfig(arch="compact", routing="alg3", lr0=0.002, seeds=(4, 2),
                        augment=False, run_id="older", fixed_timer=True)
        pairs = parse_pairs(cfg.resolved_text())
        order = ("arch routing iterations configs lr0 decay beta1 beta2 eps batch_size"
                 " epochs seed seeds dataset data_dir out_dir train_limit test_limit"
                 " augment trials run_id split index fixed_timer").split()
        assert sorted(order) == sorted(pairs) and list(pairs) != order
        older = "# resolved run configuration\n" + "".join(f"{k}={pairs[k]}\n" for k in order)
        assert config_from_pairs(parse_pairs(older)) == cfg

    @pytest.mark.parametrize("key,value", [
        ("lr0", "nan"), ("lr0", "inf"), ("decay", "0"), ("beta1", "1"),
        ("beta2", "nan"), ("eps", "0"), ("batch_size", "0"), ("epochs", "0"),
        ("iterations", "0"), ("seed", "-1"), ("seeds", "0,-1"), ("train_limit", "-1"),
        ("test_limit", "-1"), ("index", "-1"),
    ])
    def test_training_and_routing_checks_are_config_errors(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_pairs({key: value})

    def test_empty_configs_is_a_config_error(self):
        # no key=value text parses to an empty tuple; a caller in Python can pass one
        with pytest.raises(ConfigError, match="configs"):
            RunConfig(configs=())


class TestTrainCommand:
    def test_success_writes_all_artifacts(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        for name in ("metrics-alg1-s0.csv", "model-alg1-s0.ckpt",
                     "config-alg1-s0.txt"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "final test accuracy" in out

    def test_wall_clock_timer_gives_finite_non_decreasing_seconds(self, tmp_path):
        argv = [a for a in FAST if a not in ("--fixed-timer", "true")]
        assert main(["train", *argv, "--epochs", "2", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "metrics-alg1-s0.csv").read_text().splitlines()
        column = lines[0].split(",").index("wall_seconds")
        seconds = [float(line.split(",")[column]) for line in lines[1:]]
        assert len(seconds) >= 2 and all(np.isfinite(seconds))
        assert 0.0 <= seconds[0] and seconds == sorted(seconds)

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        assert run_train(tmp_path, "--routting", "alg1") == 1
        assert "routting" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("routting=alg1\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert "routting" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--lr0", "nan"), ("--beta1", "1")])
    def test_bad_optimizer_value_exits_1(self, tmp_path, capsys, flag, value):
        assert run_train(tmp_path, flag, value) == 1
        assert flag[2:] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["train", "--seed", "-1"],
                                      ["compare", "--configs", "alg1,alg2", "--seeds", "0,-1"]],
                             ids=["train", "compare"])
    def test_negative_seed_exits_1_before_any_run(self, tmp_path, capsys, argv):
        assert main([*argv, *FAST, "--out-dir", str(tmp_path)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_non_utf8_config_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"run_id=caf\xe9\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err

    def test_malformed_config_line_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("# header\nseed=1\nrouting alg2\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert f"{bad}: line 3: expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("run_id", ["a/b", "../x", os.path.join("a", "b"), "a,b"])
    def test_run_id_with_separator_exits_1_before_any_work(self, tmp_path, capsys, run_id):
        assert run_train(tmp_path / "out", "--run-id", run_id) == 1
        assert "run_id" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_creates_nested_out_dir(self, tmp_path):
        out = tmp_path / "x" / "y"
        assert run_train(out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "config-alg1-s0.txt", "metrics-alg1-s0.csv", "model-alg1-s0.ckpt"]

    @pytest.mark.parametrize("flag, key", [("--train-limit", "train_limit"),
                                           ("--test-limit", "test_limit")])
    def test_synthetic_limit_below_class_count_exits_1(self, tmp_path, capsys, flag, key):
        out = tmp_path / "out"
        assert main(["train", "--arch", "compact", flag, "3", "--out-dir", str(out)]) == 1
        assert f"error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_files_exit_2(self, tmp_path, capsys):
        code = main(["train", "--dataset", "mnist",
                     "--data-dir", str(tmp_path / "empty"),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "train-images-idx3-ubyte" in capsys.readouterr().err

    @pytest.mark.parametrize("gzipped", ["images", "labels"])
    def test_a_gzipped_and_a_plain_file_pair_up(self, tmp_path, gzipped):
        write_mnist_like(tmp_path / "data" / "mnist", gzipped)
        code = main(["train", *FAST, "--dataset", "mnist",
                     "--data-dir", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "metrics-alg1-s0.csv").exists()

    def test_a_missing_labels_file_is_named(self, tmp_path, capsys):
        write_mnist_like(tmp_path / "data" / "mnist")
        os.remove(tmp_path / "data" / "mnist" / "t10k-labels-idx1-ubyte")
        code = main(["train", *FAST, "--dataset", "mnist",
                     "--data-dir", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no test files" in err and "t10k-labels-idx1-ubyte[.gz]" in err

    def test_images_of_another_size_exit_2_before_training(self, tmp_path, capsys):
        write_mnist_like(tmp_path / "data" / "mnist", size=32)
        code = main(["train", *FAST, "--dataset", "mnist",
                     "--data-dir", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert ("train-images-idx3-ubyte: header at offset 8 gives 32x32 images,"
                " expected 28x28") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_with_same_seed_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(a) == 0 and run_train(b) == 0
        assert (a / "metrics-alg1-s0.csv").read_bytes() == \
               (b / "metrics-alg1-s0.csv").read_bytes()

    def test_resolved_config_reproduces_the_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(a) == 0
        code = main(["train", "--config", str(a / "config-alg1-s0.txt"),
                     "--out-dir", str(b)])
        assert code == 0
        assert (a / "metrics-alg1-s0.csv").read_bytes() == \
               (b / "metrics-alg1-s0.csv").read_bytes()

    def test_augment_key_reaches_the_training_batches(self, tmp_path):
        # FAST's run, made by train_run directly from a TrainConfig
        assert run_train(tmp_path / "off", "--augment", "false") == 0
        assert run_train(tmp_path / "on", "--augment", "true") == 0
        counter = itertools.count()
        _, records = train_run(synthetic_dataset(seed=0, n=20, split="train"),
                               synthetic_dataset(seed=1, n=10, split="test"),
                               ArchConfig.compact(), RoutingConfig.from_name("alg1"),
                               TrainConfig(batch_size=10, epochs=1, augment=False),
                               "alg1-s0", timer=lambda: float(next(counter)))
        write_metrics(str(tmp_path / "direct.csv"), records)
        direct = (tmp_path / "direct.csv").read_bytes()
        assert (tmp_path / "off" / "metrics-alg1-s0.csv").read_bytes() == direct
        assert (tmp_path / "on" / "metrics-alg1-s0.csv").read_bytes() != direct

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("GCAPS_OUT_DIR", str(target))
        assert main(["train", *FAST]) == 0
        assert (target / "metrics-alg1-s0.csv").exists()

    def test_explicit_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GCAPS_OUT_DIR", str(tmp_path / "env-out"))
        flag_dir = tmp_path / "flag-out"
        assert run_train(flag_dir) == 0
        assert (flag_dir / "metrics-alg1-s0.csv").exists()
        assert not (tmp_path / "env-out").exists()


class TestEvalCommand:
    def test_matches_final_training_row_exactly(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        capsys.readouterr()
        code = main(["eval", str(tmp_path / "model-alg1-s0.ckpt"), *FAST,
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        accuracy_line = [l for l in out.splitlines()
                         if l.startswith("accuracy ")][0]
        rows = (tmp_path / "metrics-alg1-s0.csv").read_text().splitlines()
        final_test = [r for r in rows if ",test," in r][-1]
        assert accuracy_line.split()[1] == final_test.split(",")[3]
        assert (tmp_path / "confusion-eval-model-alg1-s0.csv").exists()

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        fake = tmp_path / "model.ckpt"
        fake.write_bytes(b"NOTGCAPS" + b"\x00" * 64)
        code = main(["eval", str(fake), *FAST, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_arch_mismatch_exits_2(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        code = main(["eval", str(tmp_path / "model-alg1-s0.ckpt"),
                     "--dataset", "synthetic", "--test-limit", "10",
                     "--arch", "default", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_iterations_alone_checks_only_iterations(self, tmp_path):
        # the default routing (alg1) is not what the user asked to check
        assert run_train(tmp_path, "--routing", "alg4") == 0
        code = main(["eval", str(tmp_path / "model-alg4-s0.ckpt"), *FAST,
                     "--iterations", "3", "--out-dir", str(tmp_path)])
        assert code == 0

    def test_routing_alone_checks_only_axis_and_grouping(self, tmp_path, capsys):
        # trained at 2 iterations; --routing does not name an iteration count
        assert run_train(tmp_path, "--routing", "alg4", "--iterations", "2") == 0
        ckpt = str(tmp_path / "model-alg4-s0.ckpt")
        assert main(["eval", ckpt, *FAST, "--routing", "alg4", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["eval", ckpt, *FAST, "--routing", "alg3", "--out-dir", str(tmp_path)]) == 2
        diffs = capsys.readouterr().err.rsplit(".ckpt: ", 1)[1]
        assert diffs == "softmax_axis is 'lower_per_upper', expected 'upper_per_lower'\n"

    def test_routing_mismatch_names_the_differing_key(self, tmp_path, capsys):
        assert run_train(tmp_path, "--routing", "alg4") == 0
        capsys.readouterr()
        code = main(["eval", str(tmp_path / "model-alg4-s0.ckpt"), *FAST,
                     "--routing", "alg4", "--iterations", "2", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "iterations is '3', expected '2'" in err
        assert "softmax_axis" not in err and "grouping" not in err

    def test_missing_checkpoint_exits_2(self, tmp_path):
        code = main(["eval", str(tmp_path / "absent.ckpt"), *FAST,
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def test_resolved_config_names_the_checkpoint_and_reproduces_the_eval(self, tmp_path):
        # it named the defaults (default, alg1, 3), which the checkpoint is not
        assert run_train(tmp_path, "--routing", "alg3", "--iterations", "2") == 0
        ckpt = str(tmp_path / "model-alg3-s0.ckpt")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["eval", ckpt, "--test-limit", "16", "--out-dir", str(a)]) == 0
        resolved = a / "config-eval-model-alg3-s0.txt"
        pairs = parse_pairs(resolved.read_text())
        assert (pairs["arch"], pairs["routing"], pairs["iterations"]) == ("compact", "alg3", "2")
        assert main(["eval", ckpt, "--config", str(resolved), "--out-dir", str(b)]) == 0
        name = "confusion-eval-model-alg3-s0.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_non_preset_checkpoint_keeps_the_given_arch(self, tmp_path, capsys):
        arch = ArchConfig(stem_channels=8, num_types=2, primary_dim=4,
                          digit_dim=4, decoder_hidden=(16, 32))
        ckpt = str(tmp_path / "micro.ckpt")
        save_checkpoint(ckpt, build_model(arch, RoutingConfig.from_name("alg2", 2), seed=0))
        assert main(["eval", ckpt, "--test-limit", "10", "--out-dir", str(tmp_path)]) == 0
        resolved = tmp_path / "config-eval-micro.txt"
        pairs = parse_pairs(resolved.read_text())
        assert (pairs["arch"], pairs["routing"], pairs["iterations"]) == ("default", "alg2", "2")
        # so fed back, the file names an arch that the checkpoint does not match
        capsys.readouterr()
        assert main(["eval", ckpt, "--config", str(resolved)]) == 2
        assert "stem_channels is '8', expected '256'" in capsys.readouterr().err


class TestLoadCheckpoint:
    def test_expectations_enforced(self, tmp_path):
        arch = ArchConfig(stem_channels=8, num_types=2, primary_dim=4,
                          digit_dim=4, decoder_hidden=(16, 32))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, build_model(arch, RoutingConfig.from_name("alg1"), seed=0))
        load_checkpoint(RunConfig(), {"routing", "iterations"}, path)
        with pytest.raises(CheckpointError, match="manifest mismatch.*softmax_axis"):
            load_checkpoint(RunConfig(routing="alg2"), {"routing"}, path)
        with pytest.raises(CheckpointError, match="manifest mismatch.*stem_channels"):
            load_checkpoint(RunConfig(arch="compact"), {"arch"}, path)
        with pytest.raises(CheckpointError, match="iterations is '3', expected '2'"):
            load_checkpoint(RunConfig(iterations=2), {"iterations"}, path)

    def test_values_compare_as_parsed_not_as_manifest_text(self, tmp_path):
        # the manifest spells the compact arch's decoder widths with a space
        assert run_train(tmp_path) == 0
        ckpt = tmp_path / "model-alg1-s0.ckpt"
        blob = ckpt.read_bytes()
        (length,) = struct.unpack("<Q", blob[6:14])
        body = blob[14:14 + length].replace(b"decoder_hidden=128,256", b"decoder_hidden=128, 256")
        assert len(body) == length + 1
        ckpt.write_bytes(blob[:6] + struct.pack("<Q", len(body)) + body + blob[14 + length:])
        assert main(["eval", str(ckpt), *FAST, "--out-dir", str(tmp_path)]) == 0

    def test_the_file_is_validated_before_the_run_is_checked(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        ckpt = tmp_path / "model-alg1-s0.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
        capsys.readouterr()
        assert main(["eval", str(ckpt), *FAST, "--routing", "alg2",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "truncated checkpoint" in err and "manifest mismatch" not in err


class TestCompareCommand:
    def test_report_has_one_row_per_config(self, tmp_path):
        code = main(["compare", *FAST, "--configs", "alg1,alg2",
                     "--seeds", "0,1", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0].startswith("config,label,dataset,seed_0,seed_1,mean")
        assert [l.split(",")[0] for l in lines[1:]] == ["alg1", "alg2"]
        for name in ("metrics-alg1-s0.csv", "metrics-alg2-s1.csv"):
            assert (tmp_path / name).exists()

    def test_single_config_is_usage_error(self, tmp_path, capsys):
        code = main(["compare", *FAST, "--configs", "alg1",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "2 distinct" in capsys.readouterr().err

    def test_duplicate_seeds_train_once(self, tmp_path, capsys):
        code = main(["compare", *FAST, "--configs", "alg1,alg2",
                     "--seeds", "0,0", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "compared 2 configurations x 1 seeds" in capsys.readouterr().out
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "config,label,dataset,seed_0,mean,diverged"
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_duplicate_configs_count_once(self, tmp_path):
        code = main(["compare", *FAST, "--configs", "alg1,alg1",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("diverging", ["", "alg2"], ids=["finished", "alg2-diverged"])
    def test_prints_each_variant_mean_as_the_report_holds_it(self, tmp_path, capsys,
                                                             monkeypatch, diverging):
        real = analysis.train_run

        def train_run(*args, **kwargs):
            if args[3].name == diverging:
                raise NonFiniteError("diverged")
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "train_run", train_run)
        code = main(["compare", *FAST, "--configs", "alg1,alg2", "--seeds", "0,1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if " mean test accuracy " in line]
        rows = [line.split(",") for line in
                (tmp_path / "report.csv").read_text().splitlines()[1:]]
        assert printed == [f"{row[0]} ({row[1]}): mean test accuracy {row[-2]}"
                           for row in rows]
        assert [row[-2] == "diverged" for row in rows] == [False, diverging == "alg2"]


class TestRoutingReportCommand:
    def test_covers_all_variants_with_expected_c0(self, tmp_path, capsys):
        code = main(["routing-report", "--trials", "10", "--out-dir",
                     str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "routing-report.csv").read_text().splitlines()
        assert lines[0] == "config,trial,iteration,c0,mean_dc,max_dc,rel_dc"
        by_config = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_config.setdefault(cells[0], set()).add(float(cells[3]))
        assert set(by_config) == {"alg1", "alg2", "alg3", "alg4"}
        for name, expected in (("alg1", 0.1), ("alg3", 0.1),
                               ("alg2", 1.0 / 1152.0), ("alg4", 1.0 / 36.0)):
            assert len(by_config[name]) == 1
            assert by_config[name].pop() == pytest.approx(expected, rel=1e-12)

    def test_too_few_trials_exits_1(self, tmp_path, capsys):
        code = main(["routing-report", "--trials", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "trials" in capsys.readouterr().err

    def test_single_iteration_exits_1_before_the_study(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["routing-report", "--iterations", "1", "--out-dir", str(out)]) == 1
        assert "iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_rerun_is_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["routing-report", "--trials", "10", "--seed", "4",
                         "--out-dir", str(out)]) == 0
        assert (a / "routing-report.csv").read_bytes() == \
               (b / "routing-report.csv").read_bytes()


class TestReconstructCommand:
    def test_grouped_checkpoint_writes_grid(self, tmp_path, capsys):
        assert run_train(tmp_path, "--routing", "alg3") == 0
        code = main(["reconstruct", str(tmp_path / "model-alg3-s0.ckpt"),
                     *FAST, "--index", "2", "--out-dir", str(tmp_path)])
        assert code == 0
        grid = tmp_path / "recon-model-alg3-s0-i2.pgm"
        assert grid.exists()
        assert grid.read_bytes().startswith(b"P5\n")
        # compact arch: combined capsule plus one panel per type
        assert "9 panels" in capsys.readouterr().out

    def test_ungrouped_checkpoint_exits_2(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        code = main(["reconstruct", str(tmp_path / "model-alg1-s0.ckpt"),
                     *FAST, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "grouped" in capsys.readouterr().err

    def test_checks_only_the_named_keys_and_resolves_from_the_checkpoint(self, tmp_path,
                                                                          capsys):
        # both mismatches used to exit 0 and write a config naming them
        assert run_train(tmp_path, "--routing", "alg3", "--iterations", "2") == 0
        ckpt = str(tmp_path / "model-alg3-s0.ckpt")
        capsys.readouterr()
        assert main(["reconstruct", ckpt, "--routing", "alg4", "--test-limit", "10",
                     "--out-dir", str(tmp_path / "a")]) == 2
        diffs = capsys.readouterr().err.rsplit(".ckpt: ", 1)[1]
        assert diffs == ("softmax_axis is 'upper_per_lower', expected 'lower_per_upper'\n")
        assert main(["reconstruct", ckpt, "--arch", "default", "--iterations", "3",
                     "--test-limit", "10", "--out-dir", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert "stem_channels is '32', expected '256'" in err
        assert "iterations is '2', expected '3'" in err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
        out = tmp_path / "c"
        assert main(["reconstruct", ckpt, "--routing", "alg3", "--test-limit", "10",
                     "--out-dir", str(out)]) == 0
        pairs = parse_pairs((out / "config-recon-model-alg3-s0.txt").read_text())
        assert (pairs["arch"], pairs["routing"], pairs["iterations"]) == ("compact", "alg3", "2")

    def test_index_out_of_range_exits_2(self, tmp_path, capsys):
        assert run_train(tmp_path, "--routing", "alg4") == 0
        code = main(["reconstruct", str(tmp_path / "model-alg4-s0.ckpt"),
                     *FAST, "--index", "50", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "out of range" in capsys.readouterr().err


class TestParserBasics:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err != ""

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out
