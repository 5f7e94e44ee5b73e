"""Command-line contract tests: config parsing, exit codes, output files,
and rerun determinism.  Commands run in-process through main(argv)."""

import os

import numpy as np
import pytest

from gcaps.cli import ConfigError, RunConfig, config_from_pairs, main
from gcaps.network import parse_pairs

FAST = ["--arch", "compact", "--dataset", "synthetic",
        "--train-limit", "20", "--test-limit", "10",
        "--batch-size", "10", "--epochs", "1", "--fixed-timer", "true"]


def run_train(out_dir, *extra):
    return main(["train", *FAST, "--out-dir", str(out_dir), *extra])


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
        cfg = RunConfig(routing="alg4", iterations=5, lr0=0.0005,
                        seeds=(7, 8), configs=("alg2", "alg4"),
                        augment=False, dataset="kmnist", fixed_timer=True)
        assert config_from_pairs(parse_pairs(cfg.resolved_text())) == cfg

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

    @pytest.mark.parametrize("key,value", [
        ("lr0", "nan"), ("lr0", "inf"), ("decay", "0"), ("beta1", "1"),
        ("beta2", "nan"), ("eps", "0"), ("batch_size", "0"), ("epochs", "0"),
        ("iterations", "0"),
    ])
    def test_training_and_routing_checks_are_config_errors(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_pairs({key: value})


class TestTrainCommand:
    def test_success_writes_all_artifacts(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        for name in ("metrics-alg1-s0.csv", "model-alg1-s0.ckpt",
                     "config-alg1-s0.txt"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "final test accuracy" in out

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

    @pytest.mark.parametrize("run_id", ["a/b", "../x", os.path.join("a", "b")])
    def test_run_id_with_separator_exits_1_before_any_work(self, tmp_path, capsys, run_id):
        assert run_train(tmp_path / "out", "--run-id", run_id) == 1
        assert "run_id" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_creates_nested_out_dir(self, tmp_path):
        out = tmp_path / "x" / "y"
        assert run_train(out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "config-alg1-s0.txt", "metrics-alg1-s0.csv", "model-alg1-s0.ckpt"]

    def test_missing_dataset_files_exit_2(self, tmp_path, capsys):
        code = main(["train", "--dataset", "mnist",
                     "--data-dir", str(tmp_path / "empty"),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "train-images-idx3-ubyte" in capsys.readouterr().err

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

    def test_missing_checkpoint_exits_2(self, tmp_path):
        code = main(["eval", str(tmp_path / "absent.ckpt"), *FAST,
                     "--out-dir", str(tmp_path)])
        assert code == 2


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

    def test_duplicate_configs_count_once(self, tmp_path):
        code = main(["compare", *FAST, "--configs", "alg1,alg1",
                     "--out-dir", str(tmp_path)])
        assert code == 1


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
