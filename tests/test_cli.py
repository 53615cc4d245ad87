"""Command-line interface: subcommands, config files, output artifacts."""

import json
import logging
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dataclasses import fields, replace
from types import SimpleNamespace

from gibbsrank import cli, experiments
from gibbsrank.cli import build_config, main, read_config_file
from gibbsrank.data import DataError, derive_seed, gen_synthetic, load_csv, save_csv
from gibbsrank.experiments import ExperimentConfig, chain_configs
from gibbsrank.gibbs import prior_size_distribution

FAST = ["--iters", "60", "--burnin", "40", "--n-train", "80", "--n-test", "80"]

# the ExperimentConfig settings each command reads, and so takes as flags
SETTINGS_READ = {
    "synth": {"seed", "d", "n_train", "n_test"},
    "fit": {"delta", "sigma2", "beta", "iters", "burnin", "seed", "d", "n_train", "n_test"},
    "grid": {"beta", "iters", "burnin", "reps", "seed", "d", "n_train", "n_test", "workers"},
    "cv": {"delta", "sigma2", "beta", "iters", "burnin", "folds", "seed", "workers"},
}
# a valid value of each setting, away from its default; beta must stay in (0, 1)
VALUES = {**{f.name: f.default + 1 for f in fields(ExperimentConfig)}, "beta": 0.5}
# what each command needs besides its settings
REQUIRED = {"synth": [], "fit": [], "grid": ["--deltas", "1", "--sigma2s", "0.01"],
            "cv": ["--data", "unread.csv"]}


def flag(name):
    return "--" + name.replace("_", "-")


def settings_argv(command, flags, config_path):
    """flags, "--name value" pairs, as command's argv: the pair of a setting
    the command does not read goes as name=value into a --config file at
    config_path instead, since a config file may set any setting.  A setting
    given twice keeps its last value, as a repeated flag does, since a config
    file refuses a key set twice."""
    argv, lines = [], []
    for name, value in dict(zip(flags[::2], flags[1::2])).items():
        setting = name[2:].replace("-", "_")
        if setting in SETTINGS_READ[command]:
            argv += [name, value]
        else:
            lines.append(f"{setting}={value}\n")
    if lines:
        config_path.write_text("".join(lines))
        argv += ["--config", str(config_path)]
    return argv


def run_cli(*argv):
    assert main(list(argv)) == 0


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
    # each command records the settings it reads; together they are all of cfg
    recorded = {}
    for command in cli.COMMAND_SETTINGS:
        cli.write_metadata(SimpleNamespace(command=command, cfg=cfg, out=tmp_path), {})
        config = json.loads((tmp_path / f"{command}_metadata.json").read_text())["config"]
        assert set(config) == SETTINGS_READ[command]
        recorded.update(config)
    assert ExperimentConfig(**recorded) == cfg


@pytest.mark.parametrize("command, argv", [
    ("synth", ["--n-train", "40", "--n-test", "40"]),
    ("fit", ["--iters", "4", "--burnin", "2", "--n-train", "40", "--n-test", "40"]),
    ("grid", ["--deltas", "1", "--sigma2s", "0.01", "--reps", "1", "--iters", "4",
              "--burnin", "2", "--n-train", "40", "--n-test", "40"]),
    ("cv", ["--data", "train.csv", "--folds", "2", "--iters", "4", "--burnin", "2"]),
])
def test_metadata_records_only_the_settings_its_command_reads(tmp_path, monkeypatch,
                                                             command, argv):
    """A setting the command does not read is not recorded, even when the
    --config file sets it."""
    monkeypatch.chdir(tmp_path)
    save_csv(gen_synthetic(60, seed=0), "train.csv")
    unread = [name for name in VALUES if name not in SETTINGS_READ[command]]
    config = tmp_path / "unread.cfg"
    config.write_text("".join(f"{name}={VALUES[name]}\n" for name in unread))
    out = tmp_path / "out"
    run_cli(command, "--out", str(out), "--config", str(config), "--seed", "9", *argv)
    recorded = json.loads((out / f"{command}_metadata.json").read_text())["config"]
    assert set(recorded) == SETTINGS_READ[command]
    assert recorded["seed"] == 9


def test_config_file_refuses_a_key_set_twice(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("seed=1\n# a comment\nd=12\nseed=2\n")
    with pytest.raises(ValueError, match=rf"^{path}:4: seed is set twice \(first on line 1\)$"):
        read_config_file(path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), "--config", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"gibbsrank synth: error: {path}:4: seed is set twice (first on line 1)\n")
    assert not out.exists()


def test_missing_config_file_exits_2_before_any_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", "out", "--config", "nosuch.cfg"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "gibbsrank synth: error: cannot read 'nosuch.cfg': No such file or directory\n")
    assert not (tmp_path / "out").exists()


def test_config_file_with_a_byte_not_utf8_exits_2_naming_its_line(tmp_path, capsys):
    """It used to exit with the decoder's message, which names no file or line."""
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed=1\r\n# \xc3\xa9t\xc3\xa9\n\nd=\xff5\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), "--config", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"gibbsrank synth: error: {path}:4: byte 0xff is not UTF-8\n"
    assert not out.exists()


def test_config_file_with_a_byte_order_mark_parses_as_without_one(tmp_path):
    """It used to be refused as unknown config key '\\ufeffseed'."""
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"seed=1\r\n# \xc3\xa9t\xc3\xa9\n\ndelta = 0.5\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_config_file(marked) == read_config_file(plain) == {"seed": 1, "delta": 0.5}


def test_config_file_with_a_byte_order_mark_names_a_byte_not_utf8_and_its_line(tmp_path):
    """The decode error's offset indexes the file's bytes less the mark."""
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xef\xbb\xbfseed=1\nd=\xff\n")
    with pytest.raises(ValueError, match=f"^{path}:2: byte 0xff is not UTF-8$"):
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


def test_every_config_field_parses_from_its_flag(monkeypatch):
    """Each command parses the flag of every setting it reads, and some
    command reads each setting."""
    for command, names in SETTINGS_READ.items():
        argv = [arg for name in names for arg in (flag(name), str(VALUES[name]))]
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda args: seen.append(build_config(args)) or 0)
        run_cli(command, *REQUIRED[command], *argv)
        assert seen == [ExperimentConfig(**{name: VALUES[name] for name in names})], command
    assert set().union(*SETTINGS_READ.values()) == set(VALUES)


@pytest.mark.parametrize("command", sorted(SETTINGS_READ))
@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_each_command_takes_only_the_settings_it_reads(tmp_path, capsys, monkeypatch,
                                                       command, name):
    """The flag of a setting the command does not read exits 2 at parsing,
    before any output; it is not accepted and then ignored."""
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args.cfg) or 0)
    value = str(VALUES[name])
    out = tmp_path / "out"
    argv = [command, "--out", str(out), *REQUIRED[command], flag(name), value]
    if name in SETTINGS_READ[command]:
        run_cli(*argv)
        assert seen == [ExperimentConfig(**{name: VALUES[name]})]
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {flag(name)} {value}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["grid", "--delta", "0.5"], ["grid", "--sigma2", "0.1"],
                                  ["fit", "--n-tr", "40"], ["fit", "--tra", "synthetic"],
                                  ["cv", "--data", "unread.csv", "--label", "y"],
                                  ["auc", "--data", "unread.csv", "--score", "s"]],
                         ids=" ".join)
def test_no_flag_is_abbreviated(capsys, monkeypatch, argv):
    """grid would otherwise read --delta as its --deltas, and --sigma2 as --sigma2s."""
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: 0)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["synth", "--iters", "5"], ["fit", "--workers", "2"],
                                  ["grid", "--delta", "1"],
                                  ["cv", "--data", "unread.csv", "--d", "50"],
                                  ["auc", "--data", "unread.csv", "--seed", "5"]], ids=" ".join)
def test_an_unrecognized_flag_is_reported_by_its_command(capsys, monkeypatch, argv):
    """Under the command's usage, which lists the flags it does take."""
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: 0)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gibbsrank {argv[0]} [-h]")
    assert err.endswith(f"\ngibbsrank {argv[0]}: error: unrecognized arguments: "
                        f"{' '.join(argv[-2:])}\n")


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


def test_auc_of_the_true_eta_is_the_oracle_auc_synth_records(tmp_path, capsys):
    run_cli("synth", "--out", str(tmp_path), "--n-train", "50", "--n-test", "50", "--seed", "3")
    oracle = json.loads((tmp_path / "synth_metadata.json").read_text())["oracle_auc_test"]
    capsys.readouterr()
    run_cli("auc", "--data", str(tmp_path / "test.csv"), "--score-column", "eta")
    assert capsys.readouterr().out.splitlines()[0] == f"auc_half {oracle:.6f}"


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
    gcfg, _ = chain_configs(ExperimentConfig(), 40, 10)
    assert meta["size_prior"] == prior_size_distribution(gcfg).tolist()


def test_fit_tiny_delta_is_chance_level(tmp_path):
    out = tmp_path / "fit0"
    run_cli("fit", "--out", str(out), "--delta", "1e-8",
            "--iters", "100", "--burnin", "50", "--n-train", "150", "--n-test", "400")
    metrics = json.loads((out / "metrics.json").read_text())
    assert abs(metrics["test_auc_averaged"] - 0.5) <= 0.1


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
    raw = load_csv(train).X
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    assert np.array_equal(tr.X, (raw - lo) / (hi - lo))
    assert np.array_equal(te.X[:, 0], [0.25, 0.75])
    assert np.array_equal(te.X[:, 1], [-0.5, 1.5])  # outside the training range
    assert np.array_equal(te.y, [-1.0, 1.0])
    assert (tmp_path / "out" / "metrics.json").exists()
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
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    assert np.array_equal(tr.X, (raw - lo) / (hi - lo))
    assert np.array_equal(te.X, (drawn.X - lo) / (hi - lo))
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
    sizes = {"train": ["--n-train", "40"], "test": ["--n-test", "40"]}
    argv = ["fit", "--out", str(out), "--train", paths[train], "--test", paths[test],
            "--iters", "4", "--burnin", "2"]
    for role, source in (("train", train), ("test", test)):
        if source == "synthetic":  # a size flag is refused beside a CSV side
            argv += sizes[role]
    assert main(argv) == 1
    err = capsys.readouterr().err
    widths = {"wide": 12, "narrow": 10, "synthetic": 10}
    assert err == (f"gibbsrank fit: --test {paths[test]} has {widths[test]} feature columns, "
                   f"--train {paths[train]} has {widths[train]}\n")
    assert not out.exists()


def test_fit_refuses_test_columns_named_apart_from_the_training_columns(tmp_path, capsys,
                                                                        monkeypatch):
    """The model reads features by position: a test CSV whose feature
    columns stand in another order is refused, not read as if in order."""
    chains = []
    monkeypatch.setattr(experiments, "run_chain", lambda *args: chains.append(args))
    save_csv(gen_synthetic(80, seed=0), tmp_path / "train.csv")
    order = [0, 1, 4, 3, 2, 5, 6, 7, 8, 9]
    test = gen_synthetic(80, seed=1)
    path = tmp_path / "test.csv"
    save_csv(replace(test, X=test.X[:, order]), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = ",".join([f"x{j + 1}" for j in order] + ["label", "eta"]) + "\r\n"
    path.write_text("".join(lines))
    out = tmp_path / "out"
    assert main(["fit", "--out", str(out), "--train", str(tmp_path / "train.csv"),
                 "--test", str(path), "--iters", "4", "--burnin", "2"]) == 1
    assert capsys.readouterr().err == (f"gibbsrank fit: --test {path} names feature column 3 "
                                       f"'x5', --train {tmp_path / 'train.csv'} names it 'x3'\n")
    assert chains == []
    assert not out.exists()


UNREAD_SIZES = [("a.csv", "b.csv", ["--n-train", "40"]),
                ("a.csv", "synthetic", ["--n-train", "40"]),
                ("a.csv", "b.csv", ["--n-test", "40"]),
                ("synthetic", "b.csv", ["--n-test", "40"]),
                ("a.csv", "b.csv", ["--d", "12"])]


@pytest.mark.parametrize("train, test, flags", UNREAD_SIZES,
                         ids=[f"{train} {test} {flags[0]}" for train, test, flags in UNREAD_SIZES])
def test_fit_refuses_a_size_flag_no_synthetic_side_reads(tmp_path, capsys, train, test, flags):
    """Refused at parsing, before any data is read: the CSVs do not exist."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--out", str(out), "--train", str(tmp_path / train),
              "--test", str(tmp_path / test) if test != "synthetic" else test, *flags])
    assert exc.value.code == 2
    sides = {"--n-train": "--train is a CSV", "--n-test": "--test is a CSV",
             "--d": "--train and --test are CSVs"}[flags[0]]
    assert capsys.readouterr().err.endswith(
        f"gibbsrank fit: error: {flags[0]} applies only to synthetic data, and {sides}\n")
    assert not out.exists()


MISSING_INPUTS = [("fit", ["--train", "nosuch.csv", "--test", "a.csv"], "nosuch.csv",
                   "No such file or directory"),
                  ("fit", ["--train", "a.csv", "--test", "nosuch.csv"], "nosuch.csv",
                   "No such file or directory"),
                  ("fit", ["--test", ""], "", "No such file or directory"),
                  ("cv", ["--data", "nosuch.csv"], "nosuch.csv", "No such file or directory"),
                  ("cv", ["--data", "."], ".", "Is a directory"),
                  ("auc", ["--data", "nosuch.csv"], "nosuch.csv", "No such file or directory")]


@pytest.mark.parametrize("command, flags, path, reason", MISSING_INPUTS,
                         ids=[shlex.join([command, *flags]) for command, flags, *_
                              in MISSING_INPUTS])
def test_an_input_file_that_cannot_be_read_exits_1_before_any_output(
        tmp_path, capsys, monkeypatch, command, flags, path, reason):
    """One gibbsrank <command>: line naming the path, not a traceback; fit's
    --test '' is a path, as main() counts it, not a synthetic test side."""
    monkeypatch.chdir(tmp_path)
    save_csv(gen_synthetic(40, seed=0), "a.csv")
    out = [] if command == "auc" else ["--out", "out", "--iters", "4", "--burnin", "2"]
    assert main([command, *flags, *out]) == 1
    assert capsys.readouterr().err == f"gibbsrank {command}: cannot read {path!r}: {reason}\n"
    assert not (tmp_path / "out").exists()


def csv_with_a_byte_not_utf8(path, late):
    """A synthetic CSV whose score column is its eta, with byte 0xff in data
    row 3, or, if late, in its last row, beyond the header read's first chunk."""
    data = gen_synthetic(400 if late else 40, seed=0)
    save_csv(data, path)
    text = path.read_text().replace(",eta", ",score").encode()
    lines = text.splitlines(keepends=True)
    row = len(lines) - 1 if late else 3
    lines[row] = lines[row].replace(b",", b",\xff", 1)
    path.write_bytes(b"".join(lines))
    assert (len(b"".join(lines[:row])) > 8192) == late
    return path


@pytest.mark.parametrize("late", [False, True], ids=["header read", "row loop"])
@pytest.mark.parametrize("command", ["fit", "cv", "auc"])
def test_a_csv_byte_that_is_not_utf8_exits_1_before_any_output(tmp_path, capsys, monkeypatch,
                                                                command, late):
    """It used to end in a UnicodeDecodeError traceback."""
    monkeypatch.chdir(tmp_path)
    csv_with_a_byte_not_utf8(tmp_path / "bad.csv", late)
    flags = {"fit": ["--train", "bad.csv", "--test", "synthetic"], "cv": ["--data", "bad.csv"],
             "auc": ["--data", "bad.csv"]}[command]
    out = [] if command == "auc" else ["--out", "out", "--iters", "4", "--burnin", "2"]
    assert main([command, *flags, *out]) == 1
    assert capsys.readouterr() == ("", f"gibbsrank {command}: bad.csv: byte 0xff is not UTF-8\n")
    assert not (tmp_path / "out").exists()


def test_fit_counts_an_empty_test_as_a_csv(tmp_path, capsys):
    """main() refuses --n-test beside --test '', as beside any CSV."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--out", str(out), "--test", "", "--n-test", "40"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "gibbsrank fit: error: --n-test applies only to synthetic data, and --test is a CSV\n")
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
                ("beta", ["--beta", "1.5"]), ("beta", ["--beta", "1"]), ("beta", ["--beta", "0"]),
                ("beta", ["--beta", "nan"]), ("iters", ["--iters", "1"]),
                ("burnin", ["--iters", "10", "--burnin", "20"]),
                ("reps", ["--reps", "0"]), ("folds", ["--folds", "1"]),
                ("workers", ["--workers", "0"]),
                ("seed", ["--seed", "-1"]), ("seed", ["--seed", "4294967296"]),
                ("d", ["--d", "4"]), ("n_train", ["--n-train", "1"]),
                ("n_test", ["--n-test", "1"])]


@pytest.mark.parametrize("command", ["fit", "grid", "cv"])
@pytest.mark.parametrize("name, flags", BAD_SETTINGS, ids=[" ".join(f) for _, f in BAD_SETTINGS])
def test_bad_setting_exits_2_before_any_output(tmp_path, capsys, command, name, flags):
    """A bad setting is refused as a flag of a command that reads it, and
    from a --config file on any command."""
    path = tmp_path / "data.csv"
    save_csv(gen_synthetic(40, seed=0), path)
    extra = {"fit": [], "grid": ["--deltas", "1", "--sigma2s", "0.01"], "cv": ["--data", str(path)]}
    out = tmp_path / "out"
    settings = ["--iters", "20", "--burnin", "10", "--reps", "1", "--n-train", "40",
                "--n-test", "40", *flags]
    argv = [command, "--out", str(out), *extra[command],
            *settings_argv(command, settings, tmp_path / "run.cfg")]
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
        settings = ["--iters", "20", "--burnin", "10", "--reps", "1", "--n-train", "40",
                    "--n-test", "40"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(where), *extra[command],
                  *settings_argv(command, settings, tmp_path / "run.cfg")])
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


def test_grid_replication_with_a_one_class_draw_fails_before_its_chain(tmp_path, capsys,
                                                                       monkeypatch, caplog):
    """At --n-train 2 and seed 0, replication 0 draws one class: it fails
    before its chain and the row aggregates the other two."""
    labels = []
    real = experiments.run_chain

    def spy(features, y, *args):
        labels.append(y)
        return real(features, y, *args)

    monkeypatch.setattr(experiments, "run_chain", spy)
    out = tmp_path / "grid"
    run_cli("grid", "--reps", "3", "--n-train", "2", "--n-test", "4", "--deltas", "1",
            "--sigma2s", "0.01", "--iters", "30", "--burnin", "10", "--seed", "0",
            "--out", str(out))
    assert len(labels) == 2 and all(np.unique(y).size == 2 for y in labels)
    assert (out / "grid.csv").read_bytes() == (
        b"delta,sigma2,auc_averaged_mean,auc_averaged_var,auc_randomized_mean,"
        b"auc_randomized_var,freq_1,freq_2,freq_3,freq_4,freq_5,freq_6,freq_7,freq_8,freq_9,"
        b"freq_10,junk_frequency_sum,failures\r\n"
        b"1.0,0.01,0.666667,0.000000,0.750000,0.125000,0.075000,0.000000,0.175000,0.000000,"
        b"0.000000,0.050000,0.250000,0.000000,0.000000,0.000000,0.375000,1\r\n")
    failed, = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert failed.getMessage() == "grid cell delta=1.0 sigma2=0.01: replication 0 failed"
    assert str(failed.exc_info[1]) == ("train draw: all 2 drawn labels are one class; "
                                       "raise --n-train")
    assert not any("single-class" in r.getMessage() for r in caplog.records)
    assert "single-class" not in capsys.readouterr().err


def test_grid_cell_where_every_replication_failed_writes_and_prints_nan(tmp_path, capsys):
    """At --n-train 2 and seed 0 the only replication draws one class."""
    out = tmp_path / "grid"
    run_cli("grid", "--reps", "1", "--n-train", "2", "--n-test", "4", "--deltas", "1",
            "--sigma2s", "0.01", "--iters", "5", "--burnin", "2", "--seed", "0",
            "--out", str(out))
    header, record = (out / "grid.csv").read_bytes().split(b"\r\n")[:2]
    assert header.startswith(b"delta,sigma2,auc_averaged_mean,")
    assert record == b"1.0,0.01," + b"nan," * 15 + b"1"
    assert capsys.readouterr().out == (
        "delta=1 sigma2=0.01 averaged nan (nan) randomized nan (nan) junk nan\n")


def test_grid_stdout_of_two_cells(tmp_path, capsys):
    run_cli("grid", "--reps", "2", "--deltas", "1,10", "--sigma2s", "0.01", "--seed", "0",
            *FAST, "--out", str(tmp_path / "grid"))
    assert capsys.readouterr().out == (
        "delta=1 sigma2=0.01 averaged 0.571 (0.029) randomized 0.571 (0.029) junk 0.5000\n"
        "delta=10 sigma2=0.01 averaged 0.628 (0.002) randomized 0.641 (0.003) junk 1.9250\n")


@pytest.mark.parametrize("command", ["grid", "cv"])
def test_a_pooled_run_writes_and_prints_what_a_serial_run_does(tmp_path, capsys, command):
    """Every byte but the metadata's workers setting, stdout included."""
    save_csv(gen_synthetic(80, seed=1), tmp_path / "data.csv")
    argv = {"grid": ["grid", "--reps", "2", "--deltas", "1,10", "--sigma2s", "0.01", *FAST],
            "cv": ["cv", "--data", str(tmp_path / "data.csv"), "--folds", "2", *FAST[:4]]}
    runs = []
    for workers in (1, 2):
        out = tmp_path / str(workers)
        run_cli(*argv[command], "--workers", str(workers), "--out", str(out))
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        metadata = json.loads(files.pop(f"{command}_metadata.json"))
        assert metadata["config"].pop("workers") == workers
        runs.append((capsys.readouterr().out, files, metadata))
    assert runs[0] == runs[1]


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
    """Two label values, but both above 0, so both positives."""
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n0.9,1\n0.1,2\n")
    assert main(["auc", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert "auc_half" not in captured.out
    assert captured.err == "gibbsrank auc: labels contain a single class: 2 positive, 0 negative\n"


def modules_loaded_by(module):
    """The names in sys.modules of a fresh interpreter that imported module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", f"import sys, {module}; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_import_does_not_load_scipy():
    assert not [m for m in modules_loaded_by("gibbsrank.cli") if m.startswith("scipy")]


# each library module loads only the gibbsrank modules it calls, and no
# process pool, since the package root imports none of them
@pytest.mark.parametrize("module, loads", [
    ("basis", {"basis"}),
    ("risk", {"risk"}),
    ("gibbs", {"basis", "gibbs"}),
    ("data", {"data"}),
    ("sampler", {"basis", "gibbs", "risk", "sampler"}),
])
def test_module_import_is_lean(module, loads):
    loaded = modules_loaded_by(f"gibbsrank.{module}")
    assert {m.removeprefix("gibbsrank.") for m in loaded if m.startswith("gibbsrank.")} == loads
    assert "concurrent.futures" not in loaded


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
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n0.9,1\n0.1,0\n0.8,1\n0.2,0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gibbsrank.cli", "auc", "--data", str(path)],
        capture_output=True, text=True, check=True,
    )
    assert "auc_half 1.000000" in proc.stdout
    assert "auc_strict 1.000000" in proc.stdout
    # tied scores, and labels other than +-1: a label above 0 is a positive
    path.write_text("score,label\n0.9,2\n0.1,-3\n0.5,-3\n0.5,2\n0.2,-3\n0.9,-3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gibbsrank.cli", "auc", "--data", str(path)],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "auc_half 0.750000\nauc_strict 0.625000\n"


def test_auc_subcommand_rejects_nan_score(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n0.1,1\nnan,0\n0.3,0\nnan,1\n")
    assert main(["auc", "--data", str(path)]) != 0
    captured = capsys.readouterr()
    assert "auc_half" not in captured.out
    assert "data row 2 (line 3)" in captured.err


@pytest.mark.parametrize("row, problem", [("0.2,nan", "a NaN label"), ("0.2,", "an empty label"),
                                          ("0.2,  ", "an empty label"),
                                          ("0.2,yes", "a non-numeric label 'yes'"),
                                          (",1", "an empty score")])
def test_auc_subcommand_rejects_bad_cells(tmp_path, capsys, row, problem):
    path = tmp_path / "scores.csv"
    path.write_text(f"score,label\n0.1,1\n{row}\n0.3,0\n0.4,1\n")
    assert main(["auc", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert "auc_half" not in captured.out
    assert f"data row 2 (line 3) has {problem}" in captured.err


@pytest.mark.parametrize("row, cells", [("0.2,0.5,1", 3), ("0.2", 1)], ids=["long", "short"])
def test_auc_subcommand_refuses_a_ragged_row(tmp_path, capsys, row, cells):
    """As load_csv does: a long row's extra cell is not read as its label,
    and a short row is not one with an empty label."""
    path = tmp_path / "scores.csv"
    path.write_text(f"score,label\n0.1,1\n{row}\n0.3,0\n0.4,1\n")
    assert main(["auc", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"gibbsrank auc: {path}: ragged rows: data row 2 (line 3) has "
                            f"{cells} cells, the header has 2\n")


@pytest.mark.parametrize("flags, message", [
    ([], "no score column 'score' in header ['x', 'label']"),
    (["--score-column", "x", "--label-column", "y"], "no label column 'y' in header ['x', 'label']"),
], ids=["score", "label"])
def test_auc_subcommand_names_a_missing_column(tmp_path, capsys, flags, message):
    path = tmp_path / "scores.csv"
    path.write_text("x,label\n0.1,1\n0.3,0\n")
    assert main(["auc", "--data", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gibbsrank auc: {path}: {message}\n"


def test_cv_and_auc_word_a_missing_label_column_alike(tmp_path, capsys):
    """Both take --label-column; cv used to say "no column named 'y'" and auc
    "no column named 'y' (--label-column)"."""
    path = tmp_path / "data.csv"
    path.write_text("x,label\n0.1,1\n0.3,0\n0.2,1\n0.4,0\n")
    message = f"{path}: no label column 'y' in header ['x', 'label']\n"
    assert main(["cv", "--data", str(path), "--label-column", "y",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"gibbsrank cv: {message}"
    assert main(["auc", "--data", str(path), "--score-column", "x", "--label-column", "y"]) == 1
    assert capsys.readouterr().err == f"gibbsrank auc: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["cv", "auc"])
def test_cv_and_auc_refuse_a_label_column_of_three_values(tmp_path, capsys, command):
    """auc used to class {2, 0, 1} by sign and print an AUC."""
    path = tmp_path / "data.csv"
    path.write_text("score,label\n0.9,2\n0.1,0\n0.8,1\n0.2,0\n")
    out = ["--out", str(tmp_path / "out")] if command == "cv" else []
    assert main([command, "--data", str(path), *out]) == 1
    assert capsys.readouterr() == ("", f"gibbsrank {command}: {path}: labels must take exactly "
                                       "two values, got 3 distinct: [0.0, 1.0, 2.0]\n")
    assert not (tmp_path / "out").exists()


PLAIN_SCORES = "score,label\n0.9,1\n0.1,0\n0.8,1\n0.2,0\n"


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("score,label\n", "no data rows"),
    ("score,label,score\n0.9,1,0.1\n0.1,0,0.9\n",
     "column 'score' is named twice in header ['score', 'label', 'score']"),
    ("\ufeff" + PLAIN_SCORES, None),  # write_text encodes \ufeff as the byte-order mark
    (PLAIN_SCORES.replace("score,label", "score , label"), None),
    ("score,label\n\n0.9,1\n0.1,0\n\n0.8,1\n0.2,0\n\n", None),
    ("score,label\n0.9,1\n0.1\n", "ragged rows: data row 2 (line 3) has 1 cells, the header has 2"),
    ("score,label\n0.9,1\n\n0.1,0,1\n",
     "ragged rows: data row 2 (line 4) has 3 cells, the header has 2"),
], ids=["empty", "header-only", "named-twice", "byte-order-mark", "spaced-header", "blank-lines",
        "short-row", "long-row"])
def test_load_csv_and_auc_read_a_table_by_one_policy(tmp_path, capsys, text, message):
    """Both refuse a file with the same words after its path, and both read a
    marked or spaced file as the plain one."""
    path = tmp_path / "scores.csv"
    path.write_text(text, encoding="utf-8")
    if message is None:
        plain = tmp_path / "plain.csv"
        plain.write_text(PLAIN_SCORES)
        got, want = load_csv(path), load_csv(plain)
        assert (got.columns, got.X.tolist(), got.y.tolist()) == (want.columns, want.X.tolist(),
                                                                  want.y.tolist())
        run_cli("auc", "--data", str(path))
        marked_out = capsys.readouterr().out
        run_cli("auc", "--data", str(plain))
        assert marked_out == capsys.readouterr().out
        return
    with pytest.raises(DataError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: {message}"
    assert main(["auc", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"gibbsrank auc: {path}: {message}\n")
