"""Command-line harness.

Subcommands: synth, fit, grid, cv, auc.  Options can come from a flat
KEY=VALUE config file (--config); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .basis import score_dense
from .data import derive_seed, gen_synthetic, load_csv, save_csv
from .experiments import (
    ExperimentConfig,
    fit_and_evaluate,
    grid_to_csv,
    run_cv,
    run_grid,
    write_metadata,
)
from .risk import auc
from .sampler import trace_to_csv

_CONFIG_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(name: str, raw: str):
    if name == "signal_covariates":
        return tuple(int(v) for v in raw.split(",") if v.strip())
    if name in ("delta_scale", "norm_mode"):
        return raw
    if name in ("iters", "burnin", "reps", "folds", "seed", "d",
                "n_train", "n_test", "workers"):
        return int(raw)
    return float(raw)


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
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw.strip())
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
    parser.add_argument("--seed", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--sigma2", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--iters", type=int)
    parser.add_argument("--burnin", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--folds", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--d", type=int)
    parser.add_argument("--n-train", dest="n_train", type=int)
    parser.add_argument("--n-test", dest="n_test", type=int)
    parser.add_argument("--delta-scale", dest="delta_scale", choices=("power", "n", "none"))
    parser.add_argument("--norm-mode", dest="norm_mode",
                        choices=("coefficient", "covariate", "kernel"))
    parser.add_argument("--out", default=".", help="output directory")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    cfg = build_config(args)
    out = _outdir(args)
    ss = derive_seed(cfg.seed, "synth")
    rng = np.random.default_rng(ss)
    train = gen_synthetic(cfg.n_train, cfg.d, seed=rng)
    test = gen_synthetic(cfg.n_test, cfg.d, seed=rng)
    save_csv(train, out / "train.csv")
    save_csv(test, out / "test.csv")
    oracle = auc(test.eta, test.y)
    write_metadata(out / "synth_metadata.json", cfg, {"oracle_auc_test": oracle})
    print(f"wrote {out / 'train.csv'} ({train.n} rows) and {out / 'test.csv'} ({test.n} rows)")
    print(f"oracle AUC of the true regression function on the test set: {oracle:.4f}")
    return 0


def _load_dataset(path_or_synth: str, cfg: ExperimentConfig, role: str):
    if path_or_synth == "synthetic":
        n = cfg.n_train if role == "train" else cfg.n_test
        return gen_synthetic(n, cfg.d, seed=np.random.default_rng(derive_seed(cfg.seed, "fit", role)))
    return load_csv(path_or_synth)


def cmd_fit(args) -> int:
    cfg = build_config(args)
    out = _outdir(args)
    train = _load_dataset(args.train, cfg, "train")
    test = _load_dataset(args.test if args.test else args.train, cfg, "test")
    rng = np.random.default_rng(derive_seed(cfg.seed, "fit", "chain"))
    result = fit_and_evaluate(train, test, cfg, rng=rng, keep_trace=True)
    trace_to_csv(result.trace, out / "trace.csv")
    with open(out / "estimators.json", "w") as fh:
        json.dump({
            "randomized": {
                "active_covariates": (result.estimators.randomized.mask.active + 1).tolist(),
                "values": result.estimators.randomized.values.tolist(),
            },
            "averaged": result.estimators.averaged.tolist(),
        }, fh, indent=2)
        fh.write("\n")
    metrics = result.metrics()
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_metadata(out / "fit_metadata.json", cfg)
    print(f"test AUC: averaged {metrics['test_auc_averaged']:.4f}, "
          f"randomized {metrics['test_auc_randomized']:.4f} "
          f"(acceptance {metrics['acceptance_rate']:.3f})")
    return 0


def _parse_grid_list(raw: str | None, default) -> tuple:
    if raw is None:
        return tuple(default)
    values = tuple(float(v) for v in raw.split(",") if v.strip())
    if not values:
        raise ValueError("empty grid list")
    return values


def cmd_grid(args) -> int:
    from .experiments import TABLE_DELTAS, TABLE_SIGMA2S

    cfg = build_config(args)
    out = _outdir(args)
    deltas = _parse_grid_list(args.deltas, TABLE_DELTAS)
    sigma2s = _parse_grid_list(args.sigma2s, TABLE_SIGMA2S)
    rows = run_grid(cfg, deltas, sigma2s)
    grid_to_csv(rows, out / "grid.csv", cfg.signal_covariates)
    write_metadata(out / "grid_metadata.json", cfg,
                   {"deltas": list(deltas), "sigma2s": list(sigma2s)})
    for row in rows:
        print(f"delta={row.delta:g} sigma2={row.sigma2:g} "
              f"averaged {row.auc_averaged_mean:.3f} ({row.auc_averaged_var:.3f}) "
              f"randomized {row.auc_randomized_mean:.3f} ({row.auc_randomized_var:.3f}) "
              f"junk {row.junk_frequency_sum(cfg.signal_covariates):.4f}")
    return 0


def cmd_cv(args) -> int:
    cfg = build_config(args)
    out = _outdir(args)
    dataset = load_csv(args.data, label_column=args.label_column,
                       positive_label_value=args.positive_label)
    result = run_cv(dataset, cfg)
    summary = result.summary()
    with open(out / "cv.csv", "w") as fh:
        fh.write("fold,auc_averaged,auc_randomized\n")
        for i, (a, r) in enumerate(zip(result.fold_auc_averaged, result.fold_auc_randomized)):
            fh.write(f"{i},{a:.6f},{r:.6f}\n")
    write_metadata(out / "cv_metadata.json", cfg, summary)
    print(f"CV AUC: averaged {summary['cv_auc_averaged_mean']:.3f} "
          f"({summary['cv_auc_averaged_var']:.3f}), "
          f"randomized {summary['cv_auc_randomized_mean']:.3f} "
          f"({summary['cv_auc_randomized_var']:.3f})")
    return 0


def cmd_auc(args) -> int:
    import csv as _csv

    with open(args.data, newline="") as fh:
        reader = _csv.DictReader(fh)
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
    p.add_argument("--test", help="test CSV (defaults to a fresh synthetic draw)")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
