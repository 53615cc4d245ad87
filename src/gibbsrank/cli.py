"""Command-line harness.

Subcommands: synth, fit, grid, cv, auc.  Options can come from a flat
KEY=VALUE config file (--config); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import (DataError, derive_seed, gen_synthetic, header_names, load_csv, map_to_unit,
                   save_csv)
from .experiments import (
    TABLE_DELTAS,
    TABLE_SIGMA2S,
    ExperimentConfig,
    fit_and_evaluate,
    grid_to_csv,
    run_cv,
    run_grid,
    size_prior,
    write_metadata,
)
from .risk import DegenerateDataError, auc
from .sampler import trace_to_csv

# each config field parses with the type of its default
_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def read_config_file(path) -> dict:
    """Flat KEY=VALUE text; blank lines and #-comments ignored."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
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
        try:
            values[key] = kind(raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} expects {kind.__name__}, got {raw!r}") from None
    return values


def build_config(args) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return ExperimentConfig(**values)


def _add_common(parser):
    parser.add_argument("--config", help="flat KEY=VALUE config file")
    for name, kind in _CONFIG_FIELDS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=kind)
    parser.add_argument("--out", default=".", help="output directory")


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


def _refuse_one_class(data, source: str, role: str) -> None:
    """DataError when a synthetic draw's labels are all one class."""
    if np.all(data.y == data.y[0]):
        raise DataError(f"{source}: all {data.n} drawn labels are one class; raise --n-{role}")


def cmd_synth(args) -> int:
    cfg = args.cfg
    ss = derive_seed(cfg.seed, "synth")
    rng = np.random.default_rng(ss)
    train = gen_synthetic(cfg.n_train, cfg.d, seed=rng)
    test = gen_synthetic(cfg.n_test, cfg.d, seed=rng)
    # refused before --out exists: a one-class test draw has no oracle AUC
    _refuse_one_class(train, "train draw", "train")
    _refuse_one_class(test, "test draw", "test")
    out = _outdir(args)
    save_csv(train, out / "train.csv")
    save_csv(test, out / "test.csv")
    oracle = auc(test.eta, test.y)
    write_metadata(out / "synth_metadata.json", cfg, {"oracle_auc_test": oracle})
    print(f"wrote {out / 'train.csv'} ({train.n} rows) and {out / 'test.csv'} ({test.n} rows)")
    print(f"oracle AUC of the true regression function on the test set: {oracle:.4f}")
    return 0


def _load_dataset(path_or_synth: str, cfg: ExperimentConfig, role: str):
    """One side of a fit as read: a seeded synthetic draw, or a CSV's raw values."""
    if path_or_synth != "synthetic":
        return load_csv(path_or_synth)  # refuses a single-class file itself
    n = cfg.n_train if role == "train" else cfg.n_test
    data = gen_synthetic(n, cfg.d, seed=np.random.default_rng(derive_seed(cfg.seed, "fit", role)))
    _refuse_one_class(data, f"--{role} synthetic", role)
    return data


def cmd_fit(args) -> int:
    cfg = args.cfg
    test_source = args.test or "synthetic"  # main() requires --test for a CSV --train
    train = _load_dataset(args.train, cfg, "train")
    test = _load_dataset(test_source, cfg, "test")
    if test.d != train.d:
        raise DataError(f"--test {test_source} has {test.d} feature columns, "
                        f"--train {args.train} has {train.d}")
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
    with open(out / "estimators.json", "w") as fh:
        json.dump({
            "randomized": {
                "active_covariates": (result.estimators.randomized.active + 1).tolist(),
                "values": result.estimators.randomized.values.tolist(),
            },
            "averaged": result.estimators.averaged.tolist(),
        }, fh, indent=2)
        fh.write("\n")
    metrics = result.metrics()
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_metadata(out / "fit_metadata.json", cfg, {"size_prior": size_prior(cfg, train.d)})
    print(f"test AUC: averaged {metrics['test_auc_averaged']:.4f}, "
          f"randomized {metrics['test_auc_randomized']:.4f} "
          f"(acceptance {metrics['acceptance_rate']:.3f})")
    return 0


def _parse_grid_list(raw: str | None, default, cfg: ExperimentConfig, name: str) -> tuple:
    """The grid's values of cfg's setting name; ValueError names a bad one."""
    try:
        values = tuple(default) if raw is None else tuple(float(v) for v in raw.split(",") if v.strip())
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
    write_metadata(out / "grid_metadata.json", cfg, {
        "deltas": list(deltas),
        "sigma2s": list(sigma2s),
        "size_prior": {repr(s): size_prior(replace(cfg, sigma2=s), cfg.d) for s in sigma2s},
    })
    for row in rows:
        print(f"delta={row.delta:g} sigma2={row.sigma2:g} "
              f"averaged {row.auc_averaged_mean:.3f} ({row.auc_averaged_var:.3f}) "
              f"randomized {row.auc_randomized_mean:.3f} ({row.auc_randomized_var:.3f}) "
              f"junk {row.junk_frequency_sum():.4f}")
    return 0


def cmd_cv(args) -> int:
    cfg = args.cfg
    dataset = load_csv(args.data, label_column=args.label_column,
                       positive_label_value=args.positive_label)
    dataset = map_to_unit(dataset, args.data)
    # run_cv refuses folds it cannot stratify, so no output directory is left behind
    result = run_cv(dataset, cfg)
    out = _outdir(args)
    summary = result.summary()
    with open(out / "cv.csv", "w") as fh:
        fh.write("fold,auc_averaged,auc_randomized\n")
        for i, (a, r) in enumerate(zip(result.fold_auc_averaged, result.fold_auc_randomized)):
            fh.write(f"{i},{a:.6f},{r:.6f}\n")
    write_metadata(out / "cv_metadata.json", cfg,
                   {**summary, "size_prior": size_prior(cfg, dataset.d)})
    print(f"CV AUC: averaged {summary['cv_auc_averaged_mean']:.3f} "
          f"({summary['cv_auc_averaged_var']:.3f}), "
          f"randomized {summary['cv_auc_randomized_mean']:.3f} "
          f"({summary['cv_auc_randomized_var']:.3f})")
    return 0


def cmd_auc(args) -> int:
    with open(args.data, newline="", encoding="utf-8-sig") as fh:  # as load_csv opens it
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{args.data}: empty file")
        reader.fieldnames = header_names(args.data, reader.fieldnames)  # as load_csv reads it
        for flag, column in (("--score-column", args.score_column),
                             ("--label-column", args.label_column)):
            if column not in reader.fieldnames:
                raise DataError(f"{args.data}: no column named {column!r} ({flag}) "
                                f"in header {reader.fieldnames}")
        scores, labels = [], []
        for i, row in enumerate(reader, 1):
            for what, column, values in (("score", args.score_column, scores),
                                         ("label", args.label_column, labels)):
                cell = (row[column] or "").strip()
                try:
                    value = float(cell)
                except ValueError:
                    problem = f"a non-numeric {what} {cell!r}" if cell else f"an empty {what}"
                else:
                    problem = f"a NaN {what}" if math.isnan(value) else None
                if problem:
                    print(f"gibbsrank auc: {args.data}: data row {i} (line {reader.line_num}) "
                          f"has {problem}", file=sys.stderr)
                    return 1
                values.append(value)
    if not scores:
        raise DataError(f"{args.data}: no data rows")
    labels = np.where(np.array(labels) > 0, 1.0, -1.0)
    print(f"auc_half {auc(scores, labels, 'half'):.6f}")
    print(f"auc_strict {auc(scores, labels, 'strict'):.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbsrank",
        description="Sparse additive bipartite ranking via Gibbs-posterior MCMC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic train/test CSVs")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="run one chain and report metrics")
    _add_common(p)
    p.add_argument("--train", default="synthetic", help="training CSV, or 'synthetic'")
    p.add_argument("--test", help="test CSV, or 'synthetic'; required when --train is a CSV, "
                                  "a fresh synthetic draw by default when --train is synthetic")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("grid", help="replicated (delta, sigma2) grid on synthetic data")
    _add_common(p)
    p.add_argument("--deltas", help="comma-separated delta grid")
    p.add_argument("--sigma2s", help="comma-separated sigma2 grid")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation on a CSV")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--positive-label", type=float, default=1.0)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("auc", help="AUC of a CSV of (score, label) pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--score-column", default="score")
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=cmd_auc)

    args = parser.parse_args(argv)
    command = sub.choices[args.command]
    if args.command == "fit" and args.train != "synthetic" and args.test is None:
        command.error("--test is required when --train is a CSV")
    # a bad setting or --out stops the run here, before any data is read or
    # any output directory exists
    if args.command != "auc":
        try:
            args.cfg = build_config(args)
            if args.command == "grid":
                args.deltas = _parse_grid_list(args.deltas, TABLE_DELTAS, args.cfg, "delta")
                args.sigma2s = _parse_grid_list(args.sigma2s, TABLE_SIGMA2S, args.cfg, "sigma2")
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
