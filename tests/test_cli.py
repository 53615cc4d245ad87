"""Command-line interface: subcommands, config files, output artifacts."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dataclasses import fields, replace

import gibbsrank
from gibbsrank import cli, experiments
from gibbsrank.cli import build_config, main, read_config_file
from gibbsrank.data import derive_seed, gen_synthetic, load_csv, minmax_normalize, save_csv
from gibbsrank.experiments import ExperimentConfig, chain_configs, write_metadata
from gibbsrank.gibbs import prior_size_distribution

FAST = ["--iters", "60", "--burnin", "40", "--n-train", "80", "--n-test", "80"]


def chain_size_prior(d, **settings):
    """prior_size_distribution of the chains a run with these settings samples."""
    gcfg, _ = chain_configs(ExperimentConfig(**settings), 100, d)
    return prior_size_distribution(gcfg).tolist()


def run_cli(*argv):
    assert main(list(argv)) == 0


def test_every_exported_name_resolves():
    namespace = {}
    exec("from gibbsrank import *", namespace)
    for name in gibbsrank.__all__:
        assert getattr(gibbsrank, name) is namespace[name], name
    assert len(set(gibbsrank.__all__)) == len(gibbsrank.__all__)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\ndelta = 0.5\niters=200\n")
    values = read_config_file(path)
    assert values == {"delta": 0.5, "iters": 200}


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("temperature=1.0\n")
    with pytest.raises(ValueError, match="unknown config key"):
        read_config_file(path)


@pytest.mark.parametrize("line, message", [("iters=abc", "iters expects int, got 'abc'"),
                                           ("reps=2.0", "reps expects int, got '2.0'"),
                                           ("delta=x", "delta expects float, got 'x'")])
def test_config_file_rejects_bad_value(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"seed=1\n{line}\n")
    with pytest.raises(ValueError, match=f"^{path}:2: {message}$"):
        read_config_file(path)


def test_config_round_trips_through_file_and_metadata(tmp_path):
    # every field set away from its default, so a dropped value shows
    values = {f.name: f.default + 3 for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig(**{**values, "sigma2": 0.125, "beta": 1 / 3})
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg)))
    assert ExperimentConfig(**read_config_file(path)) == cfg
    write_metadata(tmp_path / "meta.json", cfg)
    recorded = json.loads((tmp_path / "meta.json").read_text())["config"]
    assert ExperimentConfig(**recorded) == cfg


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


def test_every_config_field_parses_from_its_flag(monkeypatch):
    values = {f.name: f.default + 1 for f in fields(ExperimentConfig)}
    values["beta"] = 0.5  # beta must stay in (0, 1)
    argv = []
    for name, value in values.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    seen = []
    monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(build_config(args)) or 0)
    run_cli("synth", *argv)
    assert seen == [ExperimentConfig(**values)]


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
    meta = json.loads((out / "fit_metadata.json").read_text())
    assert meta["size_prior"] == chain_size_prior(10)


def test_fit_tiny_delta_is_chance_level(tmp_path):
    out = tmp_path / "fit0"
    run_cli("fit", "--out", str(out), "--delta", "1e-8",
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


def spy_on_fit(monkeypatch) -> list:
    """The (train, test) datasets that cli passes to fit_and_evaluate, per call."""
    seen = []
    real = cli.fit_and_evaluate

    def spy(train, test, *args, **kwargs):
        seen.append((train, test))
        return real(train, test, *args, **kwargs)

    monkeypatch.setattr(cli, "fit_and_evaluate", spy)
    return seen


def test_fit_csv_test_uses_training_ranges(tmp_path, monkeypatch, caplog):
    train = tmp_path / "train.csv"
    train.write_text("x1,x2,label\n0,10,1\n0.5,30,0\n1,20,1\n")
    test = tmp_path / "test.csv"
    test.write_text("x1,x2,label\n0.25,0,0\n0.75,40,1\n")
    seen = spy_on_fit(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="gibbsrank.basis"):
        run_cli("fit", "--out", str(tmp_path / "out"), "--train", str(train),
                "--test", str(test), "--iters", "4", "--burnin", "2")
    (tr, te), = seen
    assert np.array_equal(tr.X, minmax_normalize(load_csv(train).X))
    assert np.array_equal(te.X[:, 0], [0.25, 0.75])
    assert np.array_equal(te.X[:, 1], [-0.5, 1.5])  # outside the training range
    assert np.array_equal(te.y, [-1.0, 1.0])
    # test values beyond the training range are clamped when the test features are built
    assert any("outside [0, 1]; clamping" in r.getMessage() for r in caplog.records)


def test_fit_synthetic_test_uses_training_ranges(tmp_path, monkeypatch):
    """A synthetic test set beside a training CSV is mapped with the training
    columns' ranges, like a test CSV."""
    train = gen_synthetic(80, seed=0)
    train.X[:] = 0.2 + 0.6 * train.X  # the training file spans only [0.2, 0.8]
    save_csv(train, tmp_path / "train.csv")
    seen = spy_on_fit(monkeypatch)
    run_cli("fit", "--out", str(tmp_path / "out"), "--train", str(tmp_path / "train.csv"),
            "--test", "synthetic", "--n-test", "50", "--seed", "3", "--iters", "4", "--burnin", "2")
    (tr, te), = seen
    raw = load_csv(tmp_path / "train.csv").X
    drawn = gen_synthetic(50, 10, seed=np.random.default_rng(derive_seed(3, "fit", "test")))
    ranges = (raw.min(axis=0), raw.max(axis=0))
    assert np.array_equal(tr.X, minmax_normalize(raw, ranges))
    assert np.array_equal(te.X, minmax_normalize(drawn.X, ranges))
    assert te.X.min() < 0.0 and te.X.max() > 1.0


def test_fit_synthetic_train_keeps_csv_test_scale(tmp_path, monkeypatch):
    """Synthetic training features are raw draws on [0, 1]; a test CSV beside
    them reaches the model on that scale, not min-max normalised by its own
    ranges."""
    test = gen_synthetic(80, seed=1)
    test.X[:, 0] = np.linspace(0.25, 0.75, test.n)
    save_csv(test, tmp_path / "test.csv")
    seen = spy_on_fit(monkeypatch)
    run_cli("fit", "--out", str(tmp_path / "out"), "--test", str(tmp_path / "test.csv"),
            "--n-train", "80", "--iters", "4", "--burnin", "2")
    x1 = seen[0][1].X[:, 0]
    assert (x1.min(), x1.max()) == (0.25, 0.75)
    assert np.array_equal(seen[0][1].X, test.X)


@pytest.mark.parametrize("train, test", [("wide", "synthetic"), ("synthetic", "wide"),
                                         ("narrow", "wide")])
def test_fit_rejects_mismatched_widths(tmp_path, capsys, train, test):
    """Train and test of different widths stop the fit before the chain runs
    or the output directory exists; --d sets the synthetic width."""
    save_csv(gen_synthetic(40, d=12, seed=0), tmp_path / "wide")
    save_csv(gen_synthetic(40, d=10, seed=1), tmp_path / "narrow")
    paths = {name: str(tmp_path / name) for name in ("wide", "narrow")}
    paths["synthetic"] = "synthetic"
    out = tmp_path / "out"
    assert main(["fit", "--out", str(out), "--train", paths[train], "--test", paths[test],
                 "--iters", "4", "--burnin", "2", "--n-train", "40", "--n-test", "40"]) == 1
    err = capsys.readouterr().err
    widths = {"wide": 12, "narrow": 10, "synthetic": 10}
    assert err == (f"gibbsrank fit: --test {paths[test]} has {widths[test]} feature columns, "
                   f"--train {paths[train]} has {widths[train]}\n")
    assert not out.exists()


def test_fit_csv_train_requires_test(tmp_path, capsys):
    path = tmp_path / "train.csv"
    save_csv(gen_synthetic(40, seed=0), path)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--out", str(tmp_path / "out"), "--train", str(path)])
    assert exc.value.code == 2
    assert "--test is required when --train is a CSV" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_SETTINGS = [("delta", ["--delta", "-1"]), ("delta", ["--delta", "inf"]),
                ("sigma2", ["--sigma2", "0"]), ("sigma2", ["--sigma2", "nan"]),
                ("beta", ["--beta", "1.5"]), ("iters", ["--iters", "1"]),
                ("burnin", ["--iters", "10", "--burnin", "20"]),
                ("folds", ["--folds", "1"]), ("workers", ["--workers", "0"]),
                ("seed", ["--seed", "-1"]), ("seed", ["--seed", "4294967296"]),
                ("d", ["--d", "4"]), ("n_train", ["--n-train", "1"]),
                ("n_test", ["--n-test", "1"])]


@pytest.mark.parametrize("command", ["fit", "grid", "cv"])
@pytest.mark.parametrize("name, flags", BAD_SETTINGS, ids=[" ".join(f) for _, f in BAD_SETTINGS])
def test_bad_setting_exits_2_before_any_output(tmp_path, capsys, command, name, flags):
    path = tmp_path / "data.csv"
    save_csv(gen_synthetic(40, seed=0), path)
    extra = {"fit": [], "grid": ["--deltas", "1", "--sigma2s", "0.01"], "cv": ["--data", str(path)]}
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--iters", "20", "--burnin", "10", "--reps", "1",
            "--n-train", "40", "--n-test", "40", *extra[command], *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"gibbsrank {command}: error: {name} ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "grid", "cv"])
def test_out_naming_a_file_exits_2_before_any_chain(tmp_path, capsys, monkeypatch, command):
    chains = []
    monkeypatch.setattr(experiments, "run_chain", lambda *args: chains.append(args))
    path = tmp_path / "data.csv"
    save_csv(gen_synthetic(40, seed=0), path)
    out = tmp_path / "afile"
    out.write_text("keep me\n")
    extra = {"fit": [], "grid": ["--deltas", "1", "--sigma2s", "0.01"], "cv": ["--data", str(path)]}
    for where, message in ((out, f"--out {out} is not a directory"),
                           (out / "sub", f"--out {out / 'sub'}: {out} is not a directory")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(where), "--iters", "20", "--burnin", "10", "--reps", "1",
                  "--n-train", "40", "--n-test", "40", *extra[command]])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"gibbsrank {command}: error: {message}\n"
    assert out.read_text() == "keep me\n"
    assert chains == []


def test_grid_rejects_a_bad_grid_value(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--out", str(tmp_path / "out"), "--sigma2s", "0.01,0"])
    assert exc.value.code == 2
    assert "sigma2 must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--deltas", "--sigma2s"])
def test_grid_list_names_the_flag_of_a_non_number(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--out", str(tmp_path / "out"), flag, "1,abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"gibbsrank grid: error: {flag}: could not convert string to float: 'abc'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, raw, shown", [("--deltas", "1,0.5,1.0", "1.0"),
                                              ("--sigma2s", "0.01,0.010", "0.01")])
def test_grid_refuses_a_repeated_grid_value(tmp_path, capsys, flag, raw, shown):
    # run twice, the cell would write two identical grid.csv rows
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--out", str(tmp_path / "out"), flag, raw])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"gibbsrank grid: error: {flag} lists {shown} twice\n"
    assert not (tmp_path / "out").exists()


def test_cv_on_single_class_data_exits_1(tmp_path, capsys):
    data = gen_synthetic(40, seed=0)
    path = tmp_path / "one.csv"
    save_csv(replace(data, y=np.ones(data.n)), path)
    assert main(["cv", "--out", str(tmp_path / "out"), "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gibbsrank cv: ") and "labels must take exactly two values" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cv_with_more_folds_than_rows_exits_1(tmp_path, capsys):
    path = tmp_path / "small.csv"
    save_csv(gen_synthetic(12, seed=0), path)
    assert main(["cv", "--out", str(tmp_path / "out"), "--data", str(path), "--folds", "20"]) == 1
    err = capsys.readouterr().err
    assert err == "gibbsrank cv: cannot split 12 rows into 20 folds\n"
    assert not (tmp_path / "out").exists()


def csv_with_infinite_cell(path):
    """A synthetic CSV with -inf at data row 7, column x8."""
    save_csv(gen_synthetic(40, d=10, seed=0), path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[7].split(",")
    cells[7] = "-inf"
    lines[7] = ",".join(cells)
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("command, side", [("fit", "train"), ("fit", "test"), ("cv", "data")])
def test_infinite_cell_exits_1_before_any_chain_or_output(tmp_path, capsys, monkeypatch,
                                                          command, side):
    chains = []
    monkeypatch.setattr(experiments, "run_chain", lambda *args: chains.append(args))
    bad = csv_with_infinite_cell(tmp_path / "bad.csv")
    save_csv(gen_synthetic(40, d=10, seed=1), tmp_path / "good.csv")
    out = tmp_path / "out"
    if command == "cv":
        argv = ["cv", "--data", str(bad)]
    else:
        files = {"train": tmp_path / "good.csv", "test": tmp_path / "good.csv", side: bad}
        argv = ["fit", "--train", str(files["train"]), "--test", str(files["test"])]
    assert main(argv + ["--out", str(out), "--iters", "4", "--burnin", "2"]) == 1
    assert capsys.readouterr().err == (f"gibbsrank {command}: {bad}: data row 7, column 'x8' "
                                       "holds -inf; cells must be finite or missing\n")
    assert chains == []
    assert not out.exists()


def csv_with_overflowing_column(path):
    """A synthetic CSV whose column x8 holds 1.79e308 at data row 3 and
    -1.79e308 at data row 5: finite cells no min-max map keeps finite."""
    save_csv(gen_synthetic(40, d=10, seed=0), path)
    lines = path.read_text().splitlines(keepends=True)
    for row, cell in ((3, "1.79e308"), (5, "-1.79e308")):
        cells = lines[row].split(",")
        cells[7] = cell
        lines[row] = ",".join(cells)
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("command, side", [("fit", "train"), ("fit", "test"), ("cv", "data")])
def test_unmappable_cell_exits_1_before_any_chain_or_output(tmp_path, capsys, monkeypatch,
                                                            command, side):
    """A column spanning more than the float range, or a test cell that far
    outside the training range, is refused in one line where the features
    are mapped into [0, 1]."""
    chains = []
    monkeypatch.setattr(experiments, "run_chain", lambda *args: chains.append(args))
    bad = csv_with_overflowing_column(tmp_path / "bad.csv")
    good = tmp_path / "good.csv"
    save_csv(gen_synthetic(40, d=10, seed=1), good)
    out = tmp_path / "out"
    if command == "cv":
        argv = ["cv", "--data", str(bad)]
    else:
        files = {"train": good, "test": good, side: bad}
        argv = ["fit", "--train", str(files["train"]), "--test", str(files["test"])]
    assert main(argv + ["--out", str(out), "--iters", "4", "--burnin", "2"]) == 1
    if side == "test":  # mapped by the training file's x8 range
        x8 = load_csv(good).X[:, 7]
        lo, hi, mapped = x8.min(), x8.max(), "inf"
    else:  # the column's own span overflows: (hi - lo) is inf
        lo, hi, mapped = -1.79e308, 1.79e308, "nan"
    assert capsys.readouterr().err == (
        f"gibbsrank {command}: {bad}: data row 3, column 'x8' holds 1.79e+308, which the "
        f"range [{lo}, {hi}] maps to {mapped}; mapped values must be finite\n")
    assert chains == []
    assert not out.exists()


def test_fit_refuses_a_single_class_draw_before_the_chain(tmp_path, capsys, monkeypatch):
    chains = []
    monkeypatch.setattr(experiments, "run_chain", lambda *args: chains.append(args))
    out = tmp_path / "out"
    assert main(["fit", "--out", str(out), "--n-train", "2", "--n-test", "2",
                 "--iters", "4", "--burnin", "2", "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gibbsrank fit: --train synthetic: ")
    assert "one class" in err
    assert chains == []
    assert not out.exists()


@pytest.mark.parametrize("seed, role", [(0, "train"), (2, "test")], ids=["train", "test"])
def test_synth_refuses_a_single_class_draw_before_any_output(tmp_path, capsys, seed, role):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--n-train", "2", "--n-test", "2",
                 "--seed", str(seed)]) == 1
    err = capsys.readouterr().err
    assert err == (f"gibbsrank synth: {role} draw: all 2 drawn labels are one class; "
                   f"raise --n-{role}\n")
    assert not out.exists()


def test_cv_refuses_unstratifiable_folds_before_any_output(tmp_path, capsys):
    data = gen_synthetic(40, seed=0)
    y = np.full(data.n, -1.0)
    y[:2] = 1.0  # two positives cannot reach five folds
    path = tmp_path / "two.csv"
    save_csv(replace(data, y=y), path)
    out = tmp_path / "out"
    assert main(["cv", "--out", str(out), "--data", str(path), "--folds", "5"]) == 1
    err = capsys.readouterr().err
    assert err == "gibbsrank cv: stratification impossible: a fold has a single class\n"
    assert not out.exists()


def test_auc_on_single_class_labels_exits_1(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n0.9,1\n0.1,1\n")
    assert main(["auc", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert "auc_half" not in captured.out
    assert captured.err == "gibbsrank auc: AUC undefined: labels contain a single class\n"


def test_import_does_not_load_scipy():
    src = str(Path(gibbsrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, gibbsrank.cli; "
                               "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_grid_single_cell(tmp_path):
    out = tmp_path / "grid"
    run_cli("grid", "--out", str(out), "--reps", "1", "--deltas", "1",
            "--sigma2s", "0.01", *FAST)
    lines = (out / "grid.csv").read_text().splitlines()
    assert len(lines) == 2
    record = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(record["auc_averaged_var"]) == 0.0
    assert record["failures"] == "0"
    meta = json.loads((out / "grid_metadata.json").read_text())
    assert meta["size_prior"] == {"0.01": chain_size_prior(10, sigma2=0.01)}


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
    assert summary["size_prior"] == chain_size_prior(10)


def test_cv_reads_a_csv_behind_a_byte_order_mark(tmp_path):
    """The mark sits on the first header cell, here the label column's."""
    data = gen_synthetic(60, seed=1)
    rows = ["label," + ",".join(f"x{j + 1}" for j in range(data.d))]
    rows += [f"{int(y > 0)}," + ",".join(f"{v:.6f}" for v in x) for x, y in zip(data.X, data.y)]
    text = ("\n".join(rows) + "\n").encode()
    outs = []
    for name, raw in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"cv-{name}"
        path.write_bytes(raw)
        run_cli("cv", "--out", str(out), "--data", str(path), "--folds", "2",
                "--iters", "20", "--burnin", "10")
        outs.append((out / "cv.csv").read_bytes())
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("flags, message", [
    ([], "no column named 'score' (--score-column) in header ['x', 'label']"),
    (["--score-column", "x", "--label-column", "y"],
     "no column named 'y' (--label-column) in header ['x', 'label']"),
], ids=["score", "label"])
def test_auc_subcommand_names_a_missing_column(tmp_path, capsys, flags, message):
    path = tmp_path / "scores.csv"
    path.write_text("x,label\n0.1,1\n0.3,0\n")
    assert main(["auc", "--data", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gibbsrank auc: {path}: {message}\n"


@pytest.mark.parametrize("text, message", [("score,label\n", "no data rows"),
                                           ("", "empty file")], ids=["header-only", "empty"])
def test_auc_subcommand_refuses_a_file_without_rows(tmp_path, capsys, text, message):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    assert main(["auc", "--data", str(path)]) == 1
    assert capsys.readouterr().err == f"gibbsrank auc: {path}: {message}\n"


@pytest.mark.parametrize("header, column", [("score,label,score", "score"),
                                            ("label,score, label", "label")])
def test_auc_subcommand_refuses_a_column_named_twice(tmp_path, capsys, header, column):
    # read as a dict, the last score column would stand for the first
    path = tmp_path / "scores.csv"
    path.write_text(f"{header}\n0.9,1,0.1\n0.1,0,0.9\n")
    assert main(["auc", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"gibbsrank auc: {path}: column {column!r} is named twice")


def test_auc_subcommand_strips_header_cells_as_load_csv_does(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_text("score , label\n0.9,1\n0.1,0\n")
    assert main(["auc", "--data", str(path)]) == 0
    assert "auc_half 1.000000" in capsys.readouterr().out


def test_auc_subcommand_reads_a_header_behind_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_bytes(b"\xef\xbb\xbfscore,label\n0.9,1\n0.1,0\n0.8,1\n0.2,0\n")
    assert main(["auc", "--data", str(path)]) == 0
    assert "auc_half 1.000000" in capsys.readouterr().out
