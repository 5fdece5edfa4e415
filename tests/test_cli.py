import contextlib
import filecmp
import io
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionseg import gradcheck
from lesionseg.autodiff import Tensor
from lesionseg.backbone import (
    CHECKPOINT_MAGIC,
    ConfigError,
    load_checkpoint,
    save_checkpoint,
)
from lesionseg.cli import DEFAULTS, config_value, main, parse_config
from lesionseg.data import (
    load_dataset,
    split_dataset,
    write_image,
    write_manifest,
    write_mask,
)
from lesionseg.metrics import MetricEntry, write_ja_histogram, write_metrics_csv
from lesionseg.training import LossRecord, write_loss_log

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"
# every key a checkpoint echo holds, spelled as checkpoints spell them
ECHO_KEYS = [
    "backbone.channels", "backbone.reduce", "backbone.strides", "bank.channels",
    "bank.rates", "bidfl.bank_relu", "bidfl.fusion", "bidfl.reducer_relu",
    "mcdf.sigma_sq", "mcdf.windows", "train.seed", "train.use_bidfl",
    "train.use_mcdf",
]

TINY_OVERRIDES = [
    "backbone.channels=4,6,6,6,6",
    "backbone.reduce=4",
    "bank.rates=1,2",
    "bank.channels=4",
    "mcdf.windows=3,3,3,5,7,3,3",
    "train.max_iter=3",
    "train.batch_size=2",
    "train.base_lr=0.05",
    "synth.count=6",
    "synth.size=32",
    "image_size=32",
]


def run_cli(*args):
    return main(list(args))


def run_cli_process(*args):
    """The CLI in a separate process, so a warning reaches stderr as it would
    for a user."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "lesionseg.cli", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})


def sets(extra=()):
    out = []
    for item in (*TINY_OVERRIDES, *extra):
        out.extend(["--set", item])
    return out


class TestConfigParsing:
    def test_defaults_echo_published_values(self):
        cfg = parse_config(None)
        assert cfg["bank.rates"] == "3,6,12,18,24"
        assert float(cfg["mcdf.sigma_sq"]) == 10.0
        assert cfg["train.class_weights"] == "0.8,0.2"
        assert float(cfg["train.base_lr"]) == 1e-3
        assert cfg["train.power"] == "0.9"

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train.base_lr=0.01\ntrian.max_iter=5\n")
        with pytest.raises(ConfigError, match="trian.max_iter"):
            parse_config(str(path))

    def test_file_and_overrides_compose(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment line\nseed=7\ntrain.max_iter=12  # trailing\n")
        cfg = parse_config(str(path), ["seed=9"])
        assert cfg["seed"] == "9"
        assert cfg["train.max_iter"] == "12"

    def test_all_defaults_parse(self):
        cfg = parse_config(None)
        assert set(cfg) == set(DEFAULTS)

    def test_readme_table_matches_schema(self):
        rows = [line.split("|")[1:3] for line in README.read_text().splitlines()
                if line.startswith("| `")]
        table = {key.strip().strip("`"): value.strip().strip("`")
                 for key, value in rows}
        assert set(table) == set(DEFAULTS)
        for key, value in table.items():
            assert config_value(table, key) == config_value(DEFAULTS, key), key


class TestGenData:
    def test_identical_trees_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen-data", "--out", str(a), *sets()) == 0
        assert run_cli("gen-data", "--out", str(b), *sets()) == 0
        for rel in ("manifest.csv", "images/synth0000.ppm", "masks/synth0000.pgm"):
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel

    def test_manifest_split_sizes(self, tmp_path):
        out = tmp_path / "d"
        run_cli("gen-data", "--out", str(out), *sets())
        lines = (out / "manifest.csv").read_text().strip().splitlines()[1:]
        splits = [line.split(",")[1] for line in lines]
        assert splits.count("train") == 5 and splits.count("val") == 1


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_no_subcommand_usage_error(self):
        assert run_cli() == 1

    def test_missing_data_dir_runtime_error(self, tmp_path):
        code = run_cli("train", "--data", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "run"), *sets())
        assert code == 2

    def test_bad_config_key_runtime_error(self, tmp_path):
        code = run_cli("gen-data", "--out", str(tmp_path / "x"),
                       "--set", "not.a.key=1")
        assert code == 2

    @pytest.mark.parametrize("setting", ["backbone.in_channels=3", "train.augment=true"])
    def test_fixed_settings_are_unknown_keys(self, tmp_path, capsys, setting):
        # RGB input and augmentation have one working value, so no key sets them
        code = run_cli("train", "--data", str(tmp_path), "--out", str(tmp_path / "x"),
                       "--set", setting)
        assert code == 2
        key = setting.partition("=")[0]
        assert capsys.readouterr().err == f"error: unknown configuration key {key!r}\n"

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("setting, message", [
        ("train.max_iter=abc", "train.max_iter: expected int, got 'abc'"),
        ("train.class_weights=0.8,x",
         "train.class_weights: expected tuple[float, float], got '0.8,x'"),
        ("train.use_mcdf=maybe", "train.use_mcdf: expected bool, got 'maybe'"),
        # int and float read digit-group underscores and spaces: 1_2 would be 12
        ("bank.rates=1_2", "bank.rates: expected tuple[int, ...], got '1_2'"),
        ("mcdf.sigma_sq=1_0", "mcdf.sigma_sq: expected float, got '1_0'"),
        ("train.max_iter=1_000", "train.max_iter: expected int, got '1_000'"),
        ("bank.rates=1, 2", "bank.rates: expected tuple[int, ...], got '1, 2'"),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, command, setting, message):
        args = ["--data", str(tmp_path)] if command == "train" else []
        code = run_cli(command, "--out", str(tmp_path / "x"), *args,
                       "--set", setting)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, setting", [
        ("gen-data", "synth.contrast=nan,0.5"),
        ("gen-data", "synth.noise_std=nan"),
        ("gen-data", "synth.noise_std=inf"),
        ("train", "mcdf.sigma_sq=nan"),
        ("train", "train.class_weights=nan,0.2"),
    ])
    def test_non_finite_float_names_key(self, workspace, tmp_path, capsys, command,
                                        setting):
        _, data, _ = workspace
        args = ["--data", str(data)] if command == "train" else []
        out = tmp_path / "x"
        code = run_cli(command, "--out", str(out), *args, *sets([setting]))
        assert code == 2
        key, _, value = setting.partition("=")
        assert capsys.readouterr().err == \
            f"error: {key}: expected finite numbers, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, setting, message", [
        ("gen-data", "train.split=1.5", "train.split: expected a value in (0, 1), got 1.5"),
        ("gen-data", "seed=-1", "seed: expected at least 0, got -1"),
        ("train", "seed=-1", "seed: expected at least 0, got -1"),
        ("gen-data", "synth.count=0", "synth.count: expected at least 1, got 0"),
        ("gen-data", "synth.size=7", "synth.size: expected at least 8, got 7"),
        ("gen-data", "synth.noise_std=-1", "synth.noise_std: expected at least 0, got -1.0"),
        ("gen-data", "synth.hair_prob=2",
         "synth.hair_prob: expected a value in [0, 1], got 2.0"),
        ("gen-data", "synth.lesion_fraction=0.5,0.2",
         "synth.lesion_fraction: expected 0 < lo < hi < 1, got (0.5, 0.2)"),
        ("gen-data", "synth.contrast=0.6,0.2",
         "synth.contrast: expected 0 <= lo <= hi, got (0.6, 0.2)"),
        ("train", "train.batch_size=0", "train.batch_size: expected at least 1, got 0"),
        ("train", "train.momentum=1.0",
         "train.momentum: expected a value in [0, 1), got 1.0"),
        ("train", "train.momentum=-0.5",
         "train.momentum: expected a value in [0, 1), got -0.5"),
        ("train", "train.max_iter=0", "train.max_iter: expected at least 1, got 0"),
        ("train", "train.base_lr=0", "train.base_lr: expected a positive value, got 0.0"),
        ("train", "train.power=1.5", "train.power: expected a value in (0, 1], got 1.5"),
        ("train", "train.class_weights=0.8,0",
         "train.class_weights: expected positive values, got (0.8, 0.0)"),
        ("train", "mcdf.sigma_sq=0", "mcdf.sigma_sq: expected a positive value, got 0.0"),
        ("train", "mcdf.windows=3,3,3",
         "mcdf.windows: expected 7 windows, one per score head "
         "(5 blocks + 2 dilated levels), got 3"),
        ("train", "mcdf.windows=3,3,3,5,7,3,4",
         "mcdf.windows: expected odd values, each at least 1, got (3, 3, 3, 5, 7, 3, 4)"),
        ("train", "bank.rates=2,1",
         "bank.rates: expected strictly ascending values, each at least 1, got (2, 1)"),
        ("train", "bank.rates=0,1",
         "bank.rates: expected strictly ascending values, each at least 1, got (0, 1)"),
        ("train", "bank.channels=0", "bank.channels: expected at least 1, got 0"),
        ("train", "bidfl.fusion=foo",
         "bidfl.fusion: expected one of concat_all, ends, sum, got 'foo'"),
        ("train", "backbone.channels=4,6,6", "backbone.channels: expected 5 values, got 3"),
        ("train", "backbone.channels=4,0,6,6,6",
         "backbone.channels: expected positive values, got (4, 0, 6, 6, 6)"),
        ("train", "backbone.strides=3,2,2,1,1",
         "backbone.strides: expected each 1 or 2, got (3, 2, 2, 1, 1)"),
        ("train", "backbone.reduce=0", "backbone.reduce: expected at least 1, got 0"),
    ])
    def test_out_of_range_setting_fails_before_any_write(self, workspace, tmp_path,
                                                         capsys, command, setting,
                                                         message):
        _, data, _ = workspace
        args = ["--data", str(data)] if command == "train" else []
        out = tmp_path / "x"
        code = run_cli(command, "--out", str(out), *args, *sets([setting]))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_image_size_below_one_names_key(self, workspace, tmp_path, capsys, size):
        _, data, run = workspace
        out = tmp_path / "masks"
        code = run_cli("predict", "--checkpoint", str(run / "checkpoint.ckpt"),
                       "--input", str(data), "--out", str(out),
                       "--set", f"image_size={size}")
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: image_size: expected at least 1, got {size}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny dataset + trained checkpoint shared by the workflow tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert run_cli("gen-data", "--out", str(data), *sets()) == 0
    assert run_cli("train", "--data", str(data), "--out", str(run), *sets()) == 0
    return root, data, run


class TestWorkflow:
    def test_train_writes_checkpoint_and_log(self, workspace):
        _, _, run = workspace
        assert (run / "checkpoint.ckpt").is_file()
        log = (run / "loss_log.csv").read_text().strip().splitlines()
        assert log[0] == "iter,lr,loss"
        assert len(log) == 4  # header + 3 iterations

    def test_checkpoint_echo_rebuilds_model(self, workspace):
        _, _, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        assert echo["bank.rates"] == "1,2"
        assert echo["train.use_bidfl"] == "true"
        assert any(name.startswith("bidfl.") for name in params)

    def test_eval_writes_reports(self, workspace, tmp_path):
        root, data, run = workspace
        out = tmp_path / "eval"
        code = run_cli("eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                       "--data", str(data), "--out", str(out), *sets())
        assert code == 0
        assert (out / "metrics.csv").is_file()
        assert (out / "summary.txt").is_file()
        hist = (out / "ja_histogram.csv").read_text().strip().splitlines()
        assert len(hist) == 11

    @pytest.mark.parametrize("key", ECHO_KEYS)
    def test_eval_rejects_echo_missing_key(self, workspace, tmp_path, capsys, key):
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        assert sorted(echo) == ECHO_KEYS
        del echo[key]
        save_checkpoint(tmp_path / "bad.ckpt", params, echo)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(tmp_path / "bad.ckpt"),
                       "--data", str(data), "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path / 'bad.ckpt'}: checkpoint echo: {key}: missing\n"

    def test_eval_rejects_echo_bad_value(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        echo["train.seed"] = "x"
        save_checkpoint(tmp_path / "bad.ckpt", params, echo)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(tmp_path / "bad.ckpt"),
                       "--data", str(data), "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        assert "train.seed: expected int, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("key, value, message", [
        ("bank.rates", "2,1",
         "bank.rates: expected strictly ascending values, each at least 1, got (2, 1)"),
        ("bidfl.fusion", "concat_alX",
         "bidfl.fusion: expected one of concat_all, ends, sum, got 'concat_alX'"),
        ("mcdf.windows", "3,3,3,5,4,3,3",
         "mcdf.windows: expected odd values, each at least 1, got (3, 3, 3, 5, 4, 3, 3)"),
        ("mcdf.sigma_sq", "-1.0", "mcdf.sigma_sq: expected a positive value, got -1.0"),
        ("mcdf.sigma_sq", "1_0.0", "mcdf.sigma_sq: expected float, got '1_0.0'"),
        ("bank.channels", None, "bank.channels: missing"),
    ])
    def test_bad_echo_names_checkpoint_and_key(self, workspace, tmp_path, capsys, command,
                                                key, value, message):
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        if value is None:
            del echo[key]
        else:
            echo[key] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, echo)
        capsys.readouterr()
        source = "--data" if command == "eval" else "--input"
        code = run_cli(command, "--checkpoint", str(bad), source, str(data),
                       "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: checkpoint echo: {message}\n"
        assert not (tmp_path / "e").exists()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_changed_echo_byte_runs_or_names_the_checkpoint(self, workspace, choice):
        root, data, run = workspace
        blob = (run / "checkpoint.ckpt").read_bytes()
        start = len(CHECKPOINT_MAGIC) + 8    # after the magic, version and echo length
        (length,) = struct.unpack("<I", blob[start - 4:start])
        at = start + choice.draw(st.integers(0, length - 1), label="offset")
        byte = choice.draw(st.integers(0, 255), label="byte")
        bad = root / "changed.ckpt"
        bad.write_bytes(blob[:at] + bytes([byte]) + blob[at + 1:])
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli("eval", "--checkpoint", str(bad), "--data", str(data),
                           "--out", str(root / "changed-eval"), *sets())
        err = stderr.getvalue()
        if code != 0:
            assert code == 2
            assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("offset", [10, 5000, -1])
    def test_truncated_checkpoint_fails_closed(self, workspace, tmp_path, capsys,
                                               command, offset):
        _, data, run = workspace
        blob = (run / "checkpoint.ckpt").read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[:offset])
        capsys.readouterr()
        source = "--data" if command == "eval" else "--input"
        code = run_cli(command, "--checkpoint", str(cut), source, str(data),
                       "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cut}: truncated at byte ")
        assert err.count("\n") == 1

    def test_eval_rejects_dropped_record(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        del params["backbone.b1.bias"]
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, echo)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(bad), "--data", str(data),
                       "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: parameter backbone.b1.bias is missing\n")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_eval_rejects_non_finite_record(self, workspace, tmp_path, capsys, value):
        # save_checkpoint refuses to write the value, so it goes into the bytes
        _, data, run = workspace
        blob = (run / "checkpoint.ckpt").read_bytes()
        params, _ = load_checkpoint(run / "checkpoint.ckpt")
        record = params["head.0.cls.kernel"].data.astype("<f8").tobytes()
        assert blob.count(record) == 1
        at = blob.index(record) + 8
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:at] + np.array([value], "<f8").tobytes() + blob[at + 8:])
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(bad), "--data", str(data),
                       "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: record head.0.cls.kernel holds a non-finite value\n")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_rejects_a_record_beyond_float32(self, workspace, tmp_path, capsys, command):
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        params["head.0.cls.bias"] = Tensor(np.array([0.0, 1e39]))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, echo)
        source = "--data" if command == "eval" else "--input"
        capsys.readouterr()
        code = run_cli(command, "--checkpoint", str(bad), source, str(data),
                       "--out", str(tmp_path / "out"), *sets())
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: record head.0.cls.bias holds a value beyond float32's range\n")
        assert not (tmp_path / "out").exists()

    def test_float64_checkpoint_serves(self, workspace, tmp_path):
        # a version-1 checkpoint of float64 values, each within half a
        # float32 ulp of the trained one, so it rounds back to it on load
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        wide = {name: Tensor(p.data.astype(np.float64) * (1 + 2.0**-30))
                for name, p in params.items()}
        assert any(not np.array_equal(w.data, w.data.astype(np.float32))
                   for w in wide.values())
        older = tmp_path / "wide.ckpt"
        save_checkpoint(older, wide, echo)
        for name, ckpt in (("now", run / "checkpoint.ckpt"), ("wide", older)):
            assert run_cli("predict", "--checkpoint", str(ckpt), "--input", str(data),
                           "--out", str(tmp_path / name / "pred"), *sets()) == 0
            assert run_cli("eval", "--checkpoint", str(ckpt), "--data", str(data),
                           "--out", str(tmp_path / name / "eval"), *sets()) == 0
        for rel in [f"pred/synth{i:04d}.pgm" for i in range(6)] + ["eval/metrics.csv"]:
            assert filecmp.cmp(tmp_path / "now" / rel, tmp_path / "wide" / rel,
                               shallow=False), rel

    def test_train_with_non_finite_parameter_keeps_its_loss_log(
            self, workspace, tmp_path, capsys, monkeypatch):
        # every loss was finite, but the last update overflowed a parameter
        import lesionseg.cli as cli
        _, data, run = workspace
        trained = cli.train

        def diverged(*args):
            state, records = trained(*args)
            state.parameters["head.0.cls.kernel"].data[0] = np.inf
            return state, records

        monkeypatch.setattr(cli, "train", diverged)
        out = tmp_path / "run"
        capsys.readouterr()
        code = run_cli("train", "--data", str(data), "--out", str(out), *sets())
        assert code == 2
        assert capsys.readouterr().err == (f"error: {out / 'checkpoint.ckpt'}: record "
                                           "head.0.cls.kernel holds a non-finite value\n")
        assert not (out / "checkpoint.ckpt").exists()
        assert (out / "loss_log.csv").read_bytes() == (run / "loss_log.csv").read_bytes()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_not_utf8_names_the_file(self, workspace, tmp_path, capsys, command):
        _, data, run = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        manifest = copy / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes().replace(b"synth0002", b"synth\xff002"))
        capsys.readouterr()
        args = ["--checkpoint", str(run / "checkpoint.ckpt")] if command == "eval" else []
        code = run_cli(command, *args, "--data", str(copy),
                       "--out", str(tmp_path / "out"), *sets())
        assert code == 2
        assert capsys.readouterr().err == f"error: {manifest}: not utf-8 text\n"

    def test_predict_rejects_wrong_shape(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        params["head.0.cls.kernel"] = Tensor(np.zeros((2, 3, 1, 1)))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, echo)
        capsys.readouterr()
        code = run_cli("predict", "--checkpoint", str(bad), "--input", str(data),
                       "--out", str(tmp_path / "p"), *sets())
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: parameter head.0.cls.kernel has shape (2, 3, 1, 1), "
            f"expected (2, 4, 1, 1)\n")

    def test_older_echo_gives_identical_outputs(self, workspace, tmp_path):
        # checkpoints written before the image channels and the class count
        # were fixed also echo them
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        older = tmp_path / "older.ckpt"
        save_checkpoint(older, params, {**echo, "backbone.in_channels": "3",
                                        "model.num_classes": "2"})
        for name, ckpt in (("now", run / "checkpoint.ckpt"), ("older", older)):
            assert run_cli("predict", "--checkpoint", str(ckpt), "--input", str(data),
                           "--out", str(tmp_path / name / "pred"), *sets()) == 0
            assert run_cli("eval", "--checkpoint", str(ckpt), "--data", str(data),
                           "--out", str(tmp_path / name / "eval"), *sets()) == 0
        for rel in [f"pred/synth{i:04d}.pgm" for i in range(6)] + ["eval/metrics.csv"]:
            assert filecmp.cmp(tmp_path / "now" / rel, tmp_path / "older" / rel,
                               shallow=False), rel

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("key, value, message", [
        ("backbone.in_channels", "1",
         "parameter backbone.b1.kernel has shape (4, 1, 3, 3), expected (4, 3, 3, 3)"),
        ("model.num_classes", "3",
         "parameter head.0.cls.bias has shape (3,), expected (2,)"),
    ])
    def test_older_other_geometry_fails_closed(self, workspace, tmp_path, capsys,
                                               command, key, value, message):
        # the layer shapes an older checkpoint built with another image
        # channel count or class count carries
        _, data, run = workspace
        params, echo = load_checkpoint(run / "checkpoint.ckpt")
        for name, p in params.items():
            shape = list(p.shape)
            if key == "backbone.in_channels" and name == "backbone.b1.kernel":
                shape[1] = int(value)
            elif key == "model.num_classes" and name.startswith("head."):
                shape[0] = int(value)
                if name.endswith(".up.kernel"):
                    shape[1] = int(value)
            params[name] = Tensor(np.zeros(shape))
        older = tmp_path / "older.ckpt"
        save_checkpoint(older, params, {**echo, key: value})
        capsys.readouterr()
        source = "--data" if command == "eval" else "--input"
        code = run_cli(command, "--checkpoint", str(older), source, str(data),
                       "--out", str(tmp_path / "out"), *sets())
        assert code == 2
        assert capsys.readouterr().err == f"error: {older}: {message}\n"

    def test_eval_checkpoint_directory_fails_closed(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(tmp_path), "--data", str(data),
                       "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert err.count("\n") == 1

    def test_predict_out_existing_file_fails_closed(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        code = run_cli("predict", "--checkpoint", str(run / "checkpoint.ckpt"),
                       "--input", str(data), "--out", str(taken), *sets())
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err
        assert err.count("\n") == 1

    def test_eval_split_without_manifest_follows_config(self, workspace, tmp_path):
        _, data, run = workspace
        bare = tmp_path / "bare"
        shutil.copytree(data, bare)
        (bare / "manifest.csv").unlink()
        out = tmp_path / "e"
        assert run_cli("eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                       "--data", str(bare), "--out", str(out),
                       *sets(["train.split=0.5", "seed=3"])) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        ids = [row.split(",")[0] for row in rows]
        assert len(ids) == 3
        samples = load_dataset(bare, size=32)
        assert ids == [s.id for s in split_dataset(samples, 0.5, 3)[1]]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unlisted_sample_fails_closed(self, workspace, tmp_path, capsys, command):
        # a smaller gen-data run into the same directory leaves old samples
        # on disk that its manifest does not list
        _, _, run = workspace
        data = tmp_path / "data"
        assert run_cli("gen-data", "--out", str(data), *sets()) == 0
        assert run_cli("gen-data", "--out", str(data), *sets(["synth.count=4"])) == 0
        capsys.readouterr()
        args = ["--checkpoint", str(run / "checkpoint.ckpt")] if command == "eval" else []
        code = run_cli(command, *args, "--data", str(data),
                       "--out", str(tmp_path / "out"), *sets())
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'manifest.csv'} does not list sample synth0004\n")

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("split", ["Val", "test", ""])
    def test_unknown_split_fails_closed(self, workspace, tmp_path, capsys,
                                        command, split):
        _, data, run = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        manifest = copy / "manifest.csv"
        manifest.write_text(manifest.read_text().replace(
            "synth0002,train", f"synth0002,{split}").replace(
            "synth0002,val", f"synth0002,{split}"))
        capsys.readouterr()
        args = ["--checkpoint", str(run / "checkpoint.ckpt")] if command == "eval" else []
        code = run_cli(command, *args, "--data", str(copy),
                       "--out", str(tmp_path / "out"), *sets())
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: sample synth0002 has split {split!r}, "
            f"expected train or val\n")

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_shared_stem_fails_closed(self, workspace, tmp_path, capsys, command):
        _, data, run = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        shutil.copy(copy / "masks" / "synth0001.pgm", copy / "images" / "synth0001.pgm")
        capsys.readouterr()
        args = [] if command == "train" else ["--checkpoint", str(run / "checkpoint.ckpt")]
        source = "--input" if command == "predict" else "--data"
        code = run_cli(command, *args, source, str(copy),
                       "--out", str(tmp_path / "out"), *sets())
        assert code == 2
        images = copy / "images"
        assert capsys.readouterr().err == (
            f"error: {images / 'synth0001.pgm'} and {images / 'synth0001.ppm'} "
            f"share the stem 'synth0001'\n")

    def test_eval_ablation_mismatch_rejected(self, workspace, tmp_path):
        root, data, run = workspace
        code = run_cli("eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                       "--data", str(data), "--out", str(tmp_path / "e"),
                       "--ablation", "baseline", *sets())
        assert code == 2

    def test_predict_writes_masks(self, workspace, tmp_path):
        root, data, run = workspace
        out = tmp_path / "pred"
        code = run_cli("predict", "--checkpoint", str(run / "checkpoint.ckpt"),
                       "--input", str(data), "--out", str(out), *sets())
        assert code == 0
        masks = sorted(out.glob("*.pgm"))
        assert len(masks) == 6

    def test_predict_reads_images_alone(self, workspace, tmp_path):
        _, data, run = workspace
        bare = tmp_path / "bare"
        shutil.copytree(data / "images", bare / "images")
        both, alone = tmp_path / "both", tmp_path / "alone"
        for source, out in ((data, both), (bare, alone)):
            assert run_cli("predict", "--checkpoint", str(run / "checkpoint.ckpt"),
                           "--input", str(source), "--out", str(out), *sets()) == 0
        masks = sorted(p.name for p in alone.iterdir())
        assert masks == [f"synth{i:04d}.pgm" for i in range(6)]
        for name in masks:
            assert filecmp.cmp(both / name, alone / name, shallow=False), name

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_damaged_image_fails_closed(self, workspace, tmp_path, capsys, command):
        _, data, run = workspace
        damaged = tmp_path / "damaged"
        shutil.copytree(data, damaged)
        image = damaged / "images" / "synth0003.ppm"
        image.write_bytes(image.read_bytes()[:40])
        capsys.readouterr()
        source = "--data" if command == "eval" else "--input"
        code = run_cli(command, "--checkpoint", str(run / "checkpoint.ckpt"),
                       source, str(damaged), "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {image}: truncated")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("empty", [False, True], ids=["missing", "empty"])
    def test_no_dataset_is_one_stderr_line(self, workspace, tmp_path, command, empty):
        _, _, run = workspace
        data = tmp_path / "data"
        if empty:
            data.mkdir()
        args = ["--checkpoint", str(run / "checkpoint.ckpt")] if command == "eval" else []
        proc = run_cli_process(command, *args, "--data", str(data),
                               "--out", str(tmp_path / "out"), *sets())
        assert proc.returncode == 2
        assert proc.stderr == f"error: no samples under {data}\n"

    def test_diverged_run_writes_its_loss_log_and_one_stderr_line(self, workspace,
                                                                   tmp_path):
        _, data, _ = workspace
        out = tmp_path / "run"
        proc = run_cli_process("train", "--data", str(data), "--out", str(out),
                               *sets(["train.base_lr=1e300"]))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: non-finite loss nan at iteration 1 (")
        assert proc.stderr.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["loss_log.csv"]   # no checkpoint
        log = (out / "loss_log.csv").read_text().splitlines()
        assert log[0] == "iter,lr,loss" and log[1].startswith("0,1.0000000000000001e+300,")
        assert len(log) == 3 and log[2].startswith("1,") and log[2].endswith(",nan")

    def test_train_deterministic_checkpoints(self, workspace, tmp_path):
        _, data, run = workspace
        rerun = tmp_path / "rerun"
        assert run_cli("train", "--data", str(data), "--out", str(rerun),
                       *sets()) == 0
        assert filecmp.cmp(run / "checkpoint.ckpt", rerun / "checkpoint.ckpt",
                           shallow=False)
        assert filecmp.cmp(run / "loss_log.csv", rerun / "loss_log.csv",
                           shallow=False)

    def test_ablation_flag_changes_architecture(self, workspace, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "base"
        assert run_cli("train", "--data", str(data), "--out", str(out),
                       "--ablation", "baseline", *sets()) == 0
        params, echo = load_checkpoint(out / "checkpoint.ckpt")
        assert echo["train.use_bidfl"] == "false"
        assert not any(name.startswith(("bidfl.", "backbone.reduce.")) for name in params)

    @pytest.mark.parametrize("ablation", ["baseline", "mcdf"])
    def test_bankless_checkpoint_with_a_reduce_layer_is_rejected(
            self, workspace, tmp_path, capsys, ablation):
        # checkpoints of the cells without the bank once stored the unused
        # 1x1 reduction; such a file names its first extra record
        _, data, _ = workspace
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(data), "--out", str(out),
                       "--ablation", ablation, *sets()) == 0
        params, echo = load_checkpoint(out / "checkpoint.ckpt")
        params["backbone.reduce.kernel"] = Tensor(np.ones((4, 6, 1, 1)))
        params["backbone.reduce.bias"] = Tensor(np.zeros(4))
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, params, echo)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(old), "--data", str(data),
                       "--out", str(tmp_path / "e"), *sets())
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {old}: unexpected parameter backbone.reduce.bias\n")
        assert not (tmp_path / "e").exists()


def _eval_summary(out, workspace):
    _, data, run = workspace
    run_cli("eval", "--checkpoint", str(run / "checkpoint.ckpt"), "--data", str(data),
            "--out", str(out), *sets())


# every file the package writes: writer -> (file name, a call that writes it under out)
WRITERS = {
    "checkpoint": ("model.ckpt", lambda out, ws: save_checkpoint(
        out / "model.ckpt", {"w": Tensor(np.ones(3))}, {"k": "v"})),
    "loss log": ("loss_log.csv", lambda out, ws: write_loss_log(
        out / "loss_log.csv", [LossRecord(1, 0.1, 0.5)])),
    "metrics csv": ("metrics.csv", lambda out, ws: write_metrics_csv(
        out / "metrics.csv", ["a"], [MetricEntry(1.0, 1.0, 1.0, 1.0)])),
    "histogram": ("ja_histogram.csv", lambda out, ws: write_ja_histogram(
        out / "ja_histogram.csv", [MetricEntry(0.5, 0.5, 1.0, 1.0)])),
    "manifest": ("manifest.csv", lambda out, ws: write_manifest(out, [("a", "train")])),
    "image": ("a.ppm", lambda out, ws: write_image(np.full((3, 4, 4), 0.5), out / "a.ppm")),
    "mask": ("a.pgm", lambda out, ws: write_mask(np.ones((1, 4, 4)), out / "a.pgm")),
    "summary": ("summary.txt", _eval_summary),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_no_partial_file(workspace, tmp_path, monkeypatch, writer,
                                             existing):
    name, write = WRITERS[writer]
    target = tmp_path / name
    if existing:
        target.write_bytes(b"old")
    real_write_bytes = Path.write_bytes
    failed = []

    def half_then_fail(self, data):
        if not self.name.startswith(f".{name}."):
            return real_write_bytes(self, data)
        real_write_bytes(self, bytes(data)[:len(data) // 2])
        failed.append(self.name)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with contextlib.suppress(OSError):
        write(tmp_path, workspace)
    assert failed, f"{name} was not written through a temporary file"
    if existing:
        assert target.read_bytes() == b"old"
    else:
        assert not target.exists()
    assert list(tmp_path.rglob("*.tmp")) == []

    monkeypatch.undo()
    write(tmp_path, workspace)
    assert target.read_bytes() not in (b"", b"old")
    assert list(tmp_path.rglob("*.tmp")) == []


def test_gradcheck_subcommand_default_tolerance(capsys):
    assert run_cli("gradcheck") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok") >= 16


def test_gradcheck_subcommand_fails_a_case_that_checks_nothing(capsys, monkeypatch):
    def all_zero():
        return gradcheck.grad_check(lambda t: (t * 0.0).sum(), Tensor(np.ones((2, 3))))
    monkeypatch.setattr(gradcheck, "_cases", lambda: [("all_zero", all_zero)])
    assert run_cli("gradcheck") == 2
    out = capsys.readouterr().out
    assert "FAIL all_zero" in out and "max relative error inf" in out
