"""Command-line harness, and the writer of every file a run produces.

Subcommands: synth, fit, grid, cv, auc.  Each of the first four takes as
flags only the ExperimentConfig settings it reads (COMMAND_SETTINGS); a flat
KEY=VALUE config file (--config) may set any of them, and explicit flags win
over the file.  No parser accepts an abbreviated flag.
"""

from __future__ import annotations

import argparse
import codecs
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (DataError, derive_seed, gen_synthetic, label_values, load_csv, map_to_unit,
                   read_table, refuse_one_class, save_csv, write_csv)
from .experiments import (ExperimentConfig, auc_summary, fit_and_evaluate, run_cv, run_grid,
                          size_prior)
from .risk import DegenerateDataError, auc

# each config field parses with the type of its default
_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}

# the settings each command reads, and so takes as flags
COMMAND_SETTINGS = {
    "synth": ("seed", "d", "n_train", "n_test"),
    "fit": ("delta", "sigma2", "beta", "iters", "burnin", "seed", "d", "n_train", "n_test"),
    "grid": ("beta", "iters", "burnin", "reps", "seed", "d", "n_train", "n_test", "workers"),
    "cv": ("delta", "sigma2", "beta", "iters", "burnin", "folds", "seed", "workers"),
}


def read_config_file(path) -> dict:
    """Flat KEY=VALUE UTF-8 text, a leading byte-order mark dropped as in every CSV
    input; blank lines and #-comments ignored, a key set twice refused."""
    try:
        # the mark leaves the bytes, not through utf-8-sig, so a decode error's start indexes raw
        raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise ValueError(f"cannot read {str(path)!r}: {exc.strerror}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line, numbered as splitlines numbers the others
        lineno = len((raw[:exc.start].decode("utf-8") + "?").splitlines())
        raise ValueError(f"{path}:{lineno}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        kind = _CONFIG_FIELDS.get(key)
        if kind is None:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if first_line.setdefault(key, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: {key} is set twice "
                             f"(first on line {first_line[key]})")
        try:
            values[key] = kind(raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} expects {kind.__name__}, got {raw!r}") from None
    return values


def build_config(args) -> ExperimentConfig:
    values = read_config_file(args.config) if getattr(args, "config", None) else {}
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return ExperimentConfig(**values)


def _add_command(sub, name: str, func, help: str):
    """name's parser.  It takes no abbreviated flag, or grid would read
    --delta as its --deltas.  A command with settings takes --config, a flag
    per setting it reads and --out."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.set_defaults(func=func)
    if name in COMMAND_SETTINGS:
        parser.add_argument("--config", help="flat KEY=VALUE config file; may set any setting")
        for setting in COMMAND_SETTINGS[name]:
            parser.add_argument("--" + setting.replace("_", "-"), type=_CONFIG_FIELDS[setting])
        parser.add_argument("--out", default=".", help="output directory")
    return parser


def _check_outdir(out: str) -> None:
    """ValueError unless --out is a directory or can be made one."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        where = "" if existing == path else f": {existing}"
        raise ValueError(f"--out {out}{where} is not a directory")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, record: dict) -> None:
    """record as JSON, indented, keys sorted, ending in a newline."""
    with open(path, "w", newline="") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_metadata(args, extra: dict) -> None:
    """The command's metadata in --out: the version, the settings it reads and extra."""
    config = {name: getattr(args.cfg, name) for name in COMMAND_SETTINGS[args.command]}
    _write_json(Path(args.out) / f"{args.command}_metadata.json",
                {"version": __version__, "config": config, **extra})


def trace_to_csv(trace, path) -> None:
    """One row per ChainTrace iteration: t, model size, active covariates, risk, accepted, move."""
    lines = ["t,model_size,active,risk,accepted,move"]
    for t in range(trace.iters):
        active = ";".join(str(j + 1) for j in np.flatnonzero(trace.masks[t]))
        lines.append(f"{t},{int(trace.masks[t].sum())},{active},"
                     f"{trace.risks[t]:.17g},{int(trace.accepted[t])},{trace.moves[t]}")
    write_csv(path, lines)


def grid_to_csv(rows: list[dict], path) -> None:
    """run_grid's rows under the first row's keys: delta and sigma2 by repr, failures
    as an integer, every statistic to 6 places."""
    header = [",".join(rows[0])] if rows else []
    write_csv(path, header + [
        ",".join(repr(value) if key in ("delta", "sigma2")
                 else str(value) if key == "failures" else f"{value:.6f}"
                 for key, value in row.items()) for row in rows])


def cmd_synth(args) -> int:
    cfg = args.cfg
    rng = np.random.default_rng(derive_seed(cfg.seed, "synth"))
    train = gen_synthetic(cfg.n_train, cfg.d, seed=rng)
    test = gen_synthetic(cfg.n_test, cfg.d, seed=rng)
    # refused before --out exists: a one-class test draw has no oracle AUC
    refuse_one_class(train, "train draw", "train")
    refuse_one_class(test, "test draw", "test")
    out = _outdir(args)
    save_csv(train, out / "train.csv")
    save_csv(test, out / "test.csv")
    oracle = auc(test.eta, test.y)
    write_metadata(args, {"oracle_auc_test": oracle})
    print(f"wrote {out / 'train.csv'} ({train.n} rows) and {out / 'test.csv'} ({test.n} rows)")
    print(f"oracle AUC of the true regression function on the test set: {oracle:.4f}")
    return 0


def _load_dataset(path_or_synth: str, cfg: ExperimentConfig, role: str):
    """One side of a fit as read: a seeded synthetic draw, or a CSV's raw values."""
    if path_or_synth != "synthetic":
        return load_csv(path_or_synth)  # refuses a single-class file itself
    n = cfg.n_train if role == "train" else cfg.n_test
    data = gen_synthetic(n, cfg.d, seed=np.random.default_rng(derive_seed(cfg.seed, "fit", role)))
    refuse_one_class(data, f"--{role} synthetic", role)
    return data


def cmd_fit(args) -> int:
    cfg = args.cfg
    # main() requires --test for a CSV --train; any value but "synthetic" is a path
    test_source = "synthetic" if args.test is None else args.test
    train = _load_dataset(args.train, cfg, "train")
    test = _load_dataset(test_source, cfg, "test")
    if test.d != train.d:
        raise DataError(f"--test {test_source} has {test.d} feature columns, "
                        f"--train {args.train} has {train.d}")
    # the model reads features by position, so two CSVs must name them alike, in order
    if train.columns is not None and test.columns is not None and test.columns != train.columns:
        j = next(j for j, (a, b) in enumerate(zip(test.columns, train.columns)) if a != b)
        raise DataError(f"--test {test_source} names feature column {j + 1} "
                        f"{test.columns[j]!r}, --train {args.train} names it {train.columns[j]!r}")
    # The training source sets the scale of both sides: synthetic draws are
    # already on [0, 1]; a training CSV maps both sides with its column ranges,
    # and basis.rescale clamps and counts the test values that land outside.
    if args.train != "synthetic":
        ranges = (train.X.min(axis=0), train.X.max(axis=0))
        train = map_to_unit(train, args.train, ranges)
        test = map_to_unit(test, "--test synthetic" if test_source == "synthetic"
                           else test_source, ranges)
    out = _outdir(args)
    rng = np.random.default_rng(derive_seed(cfg.seed, "fit", "chain"))
    result = fit_and_evaluate(train, test, cfg, rng)
    trace_to_csv(result.trace, out / "trace.csv")
    _write_json(out / "estimators.json", {
        "randomized": {
            "active_covariates": (result.estimators.randomized.active + 1).tolist(),
            "values": result.estimators.randomized.values.tolist(),
        },
        "averaged": result.estimators.averaged.tolist(),
    })
    metrics = result.metrics
    _write_json(out / "metrics.json", metrics)
    write_metadata(args, {"size_prior": size_prior(cfg, train.d)})
    print(f"test AUC: averaged {metrics['test_auc_averaged']:.4f}, "
          f"randomized {metrics['test_auc_randomized']:.4f} "
          f"(acceptance {metrics['acceptance_rate']:.3f})")
    return 0


# the published (delta, sigma2) grid, which `gibbsrank grid` runs by default
DEFAULT_GRID = {"delta": (100.0, 10.0, 1.0, 0.1, 0.01), "sigma2": (1.0, 0.1, 0.01, 0.001)}


def _parse_grid_list(raw: str | None, cfg: ExperimentConfig, name: str) -> tuple:
    """The grid's values of cfg's setting name, DEFAULT_GRID's when raw is
    None; ValueError names a bad one."""
    try:
        values = (DEFAULT_GRID[name] if raw is None
                  else tuple(float(v) for v in raw.split(",") if v.strip()))
    except ValueError as exc:
        raise ValueError(f"--{name}s: {exc}") from None
    if not values:
        raise ValueError(f"--{name}s is an empty grid list")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"--{name}s lists {value!r} twice")
        replace(cfg, **{name: value})
    return values


def cmd_grid(args) -> int:
    cfg, deltas, sigma2s = args.cfg, args.deltas, args.sigma2s
    out = _outdir(args)
    rows = run_grid(cfg, deltas, sigma2s)
    grid_to_csv(rows, out / "grid.csv")
    write_metadata(args, {
        "deltas": list(deltas),
        "sigma2s": list(sigma2s),
        "size_prior": {repr(s): size_prior(replace(cfg, sigma2=s), cfg.d) for s in sigma2s},
    })
    for row in rows:
        print("delta={delta:g} sigma2={sigma2:g} "
              "averaged {auc_averaged_mean:.3f} ({auc_averaged_var:.3f}) "
              "randomized {auc_randomized_mean:.3f} ({auc_randomized_var:.3f}) "
              "junk {junk_frequency_sum:.4f}".format(**row))
    return 0


def cmd_cv(args) -> int:
    cfg = args.cfg
    dataset = load_csv(args.data, label_column=args.label_column,
                       positive_label_value=args.positive_label)
    dataset = map_to_unit(dataset, args.data)
    # run_cv refuses folds it cannot stratify, so no output directory is left behind
    folds = run_cv(dataset, cfg)
    out = _outdir(args)
    summary = {"cv_" + key: value for key, value in auc_summary(folds).items()}
    write_csv(out / "cv.csv", ["fold,auc_averaged,auc_randomized"] + [
        f"{i},{m['test_auc_averaged']:.6f},{m['test_auc_randomized']:.6f}"
        for i, m in enumerate(folds)])
    write_metadata(args, {**summary, "size_prior": size_prior(cfg, dataset.d)})
    print(f"CV AUC: averaged {summary['cv_auc_averaged_mean']:.3f} "
          f"({summary['cv_auc_averaged_var']:.3f}), "
          f"randomized {summary['cv_auc_randomized_mean']:.3f} "
          f"({summary['cv_auc_randomized_var']:.3f})")
    return 0


def cmd_auc(args) -> int:
    with read_table(args.data) as (header, rows):
        for what, column in (("score", args.score_column), ("label", args.label_column)):
            if column not in header:
                raise DataError(f"{args.data}: no {what} column {column!r} in header {header}")
        scores, labels = [], []
        read = (("score", header.index(args.score_column), scores),
                ("label", header.index(args.label_column), labels))
        for i, line, row in rows:
            for what, j, values in read:
                cell = row[j].strip()
                try:
                    value = float(cell)
                except ValueError:
                    problem = f"a non-numeric {what} {cell!r}" if cell else f"an empty {what}"
                else:
                    problem = f"a NaN {what}" if math.isnan(value) else None
                if problem:
                    raise DataError(f"{args.data}: data row {i} (line {line}) has {problem}")
                values.append(value)
    label_values(args.data, labels)  # two values, as load_csv takes; auc's positives are > 0
    print(f"auc_half {auc(scores, labels, 'half'):.6f}")
    print(f"auc_strict {auc(scores, labels, 'strict'):.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbsrank",
        description="Sparse additive bipartite ranking via Gibbs-posterior MCMC",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "synth", cmd_synth, "generate synthetic train/test CSVs")

    p = _add_command(sub, "fit", cmd_fit, "run one chain and report metrics")
    p.add_argument("--train", default="synthetic", help="training CSV, or 'synthetic'")
    p.add_argument("--test", help="test CSV, or 'synthetic'; required when --train is a CSV, "
                                  "a fresh synthetic draw by default when --train is synthetic")

    p = _add_command(sub, "grid", cmd_grid, "replicated (delta, sigma2) grid on synthetic data")
    p.add_argument("--deltas", help="comma-separated delta grid")
    p.add_argument("--sigma2s", help="comma-separated sigma2 grid")

    p = _add_command(sub, "cv", cmd_cv, "stratified k-fold cross-validation on a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--positive-label", type=float, default=1.0)

    p = _add_command(sub, "auc", cmd_auc, "AUC of a CSV of (score, label) pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--score-column", default="score")
    p.add_argument("--label-column", default="label")

    # a flag the command does not take is reported under the command's own usage
    args, unrecognized = parser.parse_known_args(argv)
    command = sub.choices[args.command]
    if unrecognized:
        command.error(f"unrecognized arguments: {' '.join(unrecognized)}")
    if args.command == "fit":
        csv_train = args.train != "synthetic"
        csv_test = args.test not in (None, "synthetic")
        if csv_train and args.test is None:
            command.error("--test is required when --train is a CSV")
        # a size or width flag that no synthetic side reads is refused, not ignored
        for flag, value, unread, sides in (
                ("--n-train", args.n_train, csv_train, "--train is a CSV"),
                ("--n-test", args.n_test, csv_test, "--test is a CSV"),
                ("--d", args.d, csv_train and csv_test, "--train and --test are CSVs")):
            if value is not None and unread:
                command.error(f"{flag} applies only to synthetic data, and {sides}")
    # a bad setting or --out stops the run here, before any data is read or
    # any output directory exists
    if args.command != "auc":
        try:
            args.cfg = build_config(args)
            if args.command == "grid":
                args.deltas = _parse_grid_list(args.deltas, args.cfg, "delta")
                args.sigma2s = _parse_grid_list(args.sigma2s, args.cfg, "sigma2")
            _check_outdir(args.out)
        except ValueError as exc:
            command.exit(2, f"{command.prog}: error: {exc}\n")
    try:
        return args.func(args)
    except (DataError, DegenerateDataError) as exc:
        print(f"gibbsrank {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
