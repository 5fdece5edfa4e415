import filecmp
from pathlib import Path

import numpy as np
import pytest

from lesionseg.backbone import ConfigError, load_checkpoint, save_checkpoint
from lesionseg.cli import DEFAULTS, config_value, main, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"
# every key a checkpoint echo holds, spelled as checkpoints spell them
ECHO_KEYS = [
    "backbone.channels", "backbone.in_channels", "backbone.reduce",
    "backbone.strides", "bank.channels", "bank.rates", "bidfl.bank_relu",
    "bidfl.fusion", "bidfl.reducer_relu", "mcdf.sigma_sq", "mcdf.windows",
    "model.num_classes", "train.seed", "train.use_bidfl", "train.use_mcdf",
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

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("setting, message", [
        ("train.max_iter=abc", "train.max_iter: expected int, got 'abc'"),
        ("train.class_weights=0.8,x",
         "train.class_weights: expected tuple[float, float], got '0.8,x'"),
        ("train.augment=maybe", "train.augment: expected bool, got 'maybe'"),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, command, setting, message):
        args = ["--data", str(tmp_path)] if command == "train" else []
        code = run_cli(command, "--out", str(tmp_path / "x"), *args,
                       "--set", setting)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
        assert capsys.readouterr().err == f"error: checkpoint echo: {key}: missing\n"

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
        assert not any(name.startswith("bidfl.") for name in params)


def test_gradcheck_subcommand_default_tolerance(capsys):
    assert run_cli("gradcheck") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok") >= 16
