"""Command-line interface: subcommands, config files, output artifacts."""

import json

import numpy as np
import pytest

from gibbsrank.cli import build_config, main, read_config_file
from gibbsrank.data import gen_synthetic, save_csv

FAST = ["--iters", "60", "--burnin", "40", "--n-train", "80", "--n-test", "80"]


def run_cli(*argv):
    assert main(list(argv)) == 0


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\ndelta = 0.5\niters=200\nsignal_covariates=3,5\n")
    values = read_config_file(path)
    assert values == {"delta": 0.5, "iters": 200, "signal_covariates": (3, 5)}


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("temperature=1.0\n")
    with pytest.raises(ValueError, match="unknown config key"):
        read_config_file(path)


def test_config_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("delta 0.5\n")
    with pytest.raises(ValueError, match="KEY=VALUE"):
        read_config_file(path)


def test_flags_override_config_file(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("delta=0.5\nseed=3\n")

    class Args:
        config = str(path)
        delta = 2.0
        seed = None

    cfg = build_config(Args())
    assert cfg.delta == 2.0
    assert cfg.seed == 3


def test_synth_writes_expected_files(tmp_path):
    out = tmp_path / "synth"
    run_cli("synth", "--out", str(out))
    train = (out / "train.csv").read_text().splitlines()
    test = (out / "test.csv").read_text().splitlines()
    assert len(train) == 1001
    assert len(test) == 2001
    header = train[0].split(",")
    assert header[:10] == [f"x{j}" for j in range(1, 11)]
    assert "label" in header
    meta = json.loads((out / "synth_metadata.json").read_text())
    assert abs(meta["oracle_auc_test"] - 0.7387) < 0.01


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("synth", "--out", str(a), "--n-train", "50", "--n-test", "50")
    run_cli("synth", "--out", str(b), "--n-train", "50", "--n-test", "50")
    for name in ("train.csv", "test.csv", "synth_metadata.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_smoke_two_iterations(tmp_path):
    out = tmp_path / "fit"
    run_cli("fit", "--out", str(out), "--iters", "2", "--burnin", "1",
            "--n-train", "40", "--n-test", "40")
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 3  # header + 2 rows
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["test_auc_averaged"] <= 1.0
    estimators = json.loads((out / "estimators.json").read_text())
    assert "randomized" in estimators and "averaged" in estimators


def test_fit_tiny_delta_is_chance_level(tmp_path):
    out = tmp_path / "fit0"
    run_cli("fit", "--out", str(out), "--delta", "1e-8", "--delta-scale", "none",
            "--iters", "100", "--burnin", "50", "--n-train", "150", "--n-test", "400")
    metrics = json.loads((out / "metrics.json").read_text())
    assert abs(metrics["test_auc_averaged"] - 0.5) <= 0.1


def test_fit_from_csv(tmp_path):
    data = gen_synthetic(80, seed=0)
    path = tmp_path / "train.csv"
    save_csv(data, path)
    out = tmp_path / "fit_csv"
    run_cli("fit", "--out", str(out), "--train", str(path), "--test", str(path),
            "--iters", "30", "--burnin", "20")
    assert (out / "metrics.json").exists()


def test_grid_single_cell(tmp_path):
    out = tmp_path / "grid"
    run_cli("grid", "--out", str(out), "--reps", "1", "--deltas", "1",
            "--sigma2s", "0.01", *FAST)
    lines = (out / "grid.csv").read_text().splitlines()
    assert len(lines) == 2
    record = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(record["auc_averaged_var"]) == 0.0
    assert record["failures"] == "0"


def test_cv_two_folds(tmp_path):
    data = gen_synthetic(120, seed=1)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    out = tmp_path / "cv"
    run_cli("cv", "--out", str(out), "--data", str(path), "--folds", "2",
            "--iters", "40", "--burnin", "20")
    lines = (out / "cv.csv").read_text().splitlines()
    assert len(lines) == 3
    summary = json.loads((out / "cv_metadata.json").read_text())
    assert "cv_auc_averaged_mean" in summary


def test_cv_handles_constant_feature_column(tmp_path):
    rng = np.random.default_rng(2)
    n = 60
    rows = ["x1,x2,x3,x4,x5,label"]
    for i in range(n):
        x = rng.random(4)
        label = 1 if rng.random() < 0.4 + 0.4 * x[2] else 0
        rows.append(f"{x[0]:.6f},{x[1]:.6f},{x[2]:.6f},7.0,{x[3]:.6f},{label}")
    path = tmp_path / "const.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cv_const"
    run_cli("cv", "--out", str(out), "--data", str(path), "--folds", "2",
            "--iters", "30", "--burnin", "20")
    assert (out / "cv.csv").exists()


def test_auc_subcommand(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "scores.csv"
    path.write_text("score,label\n0.9,1\n0.1,0\n0.8,1\n0.2,0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gibbsrank.cli", "auc", "--data", str(path)],
        capture_output=True, text=True, check=True,
    )
    assert "auc_half 1.000000" in proc.stdout
    assert "auc_strict 1.000000" in proc.stdout


def test_auc_subcommand_rejects_nan_score(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n0.1,1\nnan,0\n0.3,0\nnan,1\n")
    assert main(["auc", "--data", str(path)]) != 0
    captured = capsys.readouterr()
    assert "auc_half" not in captured.out
    assert "data row 2 (line 3)" in captured.err


@pytest.mark.parametrize("row, problem", [("0.2,nan", "a NaN label"), ("0.2,", "an empty label"),
                                          ("0.2,  ", "an empty label"), ("0.2", "an empty label"),
                                          ("0.2,yes", "a non-numeric label 'yes'"),
                                          (",1", "an empty score")])
def test_auc_subcommand_rejects_bad_cells(tmp_path, capsys, row, problem):
    path = tmp_path / "scores.csv"
    path.write_text(f"score,label\n0.1,1\n{row}\n0.3,0\n0.4,1\n")
    assert main(["auc", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert "auc_half" not in captured.out
    assert f"data row 2 (line 3) has {problem}" in captured.err
