"""Spans around gibbsrank's layers, recorded from outside the program.

`install` replaces the public functions of basis, risk, gibbs, sampler, data
and experiments with timing wrappers.  A function imported by name into
another module (``sampler.score``, ``experiments.run_chain``,
``cli.load_csv``, ...) is looked up there at call time, so every module
attribute that *is* the original function is replaced, not only the one in
its home module.

A span is ``[name, start_ns, end_ns, parent_index, value]``; ``value`` is a
per-call number or tuple taken from the arguments or the result (bytes
computed, candidate count, move outcome, ...).  Spans stay in memory and are
written as JSON lines, one batch per line with batch-local parent indices.
Pool workers are forked and end through ``os._exit``, so no exit hook runs
in them: a worker writes its batch each time its span stack empties, which
happens at least once per chain.

`summarize` turns the batches of one traced job into the per-layer metrics
and the call-count cross-checks that catch a name the wrappers missed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.root_pid = self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _claim(self) -> None:
        # A forked worker starts with a copy of its parent's spans and stack;
        # those belong to the parent, which writes them itself.
        pid = os.getpid()
        if pid != self.pid:
            self.pid, self.spans, self.stack = pid, [], []

    def wrap(self, name: str, fn, value=None, before=None):
        """Wrap fn in a span; value(args, result, before(args)) is stored with it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._claim()
            spans, stack = tracer.spans, tracer.stack
            record = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            state = before(args) if before is not None else None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[1], record[2] = start, time.perf_counter_ns()
                stack.pop()
                if not stack and tracer.pid != tracer.root_pid:
                    tracer.flush()
            if value is not None:
                record[4] = value(args, result, state)
            return result

        return wrapper

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a span measured by the caller, under the current span."""
        self._claim()
        self.spans.append([name, start_ns, end_ns, self.stack[-1] if self.stack else -1, None])

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps({"pid": self.pid, "spans": self.spans}) + "\n")
        self.spans = []


# -- per-call values ------------------------------------------------------

def _score_bytes(args, result, _):
    coef, features = args[0], args[1]
    return features.n * coef.values.size * 8  # n * |m| * M doubles


def _outside_ball(args, result, _):
    return int(result == -math.inf)


def _n_candidates(args, result, _):
    return len(result[1])


def _move_outcome(args, result, _):
    rec = result[1]
    return [rec.move, int(rec.accepted)]


# BenchmarkCache counts nothing itself; a miss is a fit that grows its cache.
def _cache_size(args):
    return len(args[0]._cache)


def _cache_miss(args, result, size_before):
    return int(len(args[0]._cache) > size_before)


def _trace_bytes(args, result, _):
    return int(result[0].thetas.nbytes)  # T * d * M doubles


def install(tracer: Tracer) -> None:
    """Wrap gibbsrank's layers in place; call before the job runs."""
    import gibbsrank
    from gibbsrank import basis, cli, data, experiments, gibbs, risk, sampler

    modules = (gibbsrank, basis, risk, gibbs, sampler, data, experiments, cli)
    functions = [
        ("basis.build_features", basis.build_features, None),
        ("basis.score", basis.score, _score_bytes),
        ("basis.score_dense", basis.score_dense, None),
        ("risk.empirical_rank_risk", risk.empirical_rank_risk, None),
        ("risk.auc", risk.auc, None),
        ("gibbs.log_prior", gibbs.log_prior, _outside_ball),
        ("sampler.propose_neighborhood", sampler.propose_neighborhood, _n_candidates),
        ("sampler.select_index", sampler.select_index, None),
        ("sampler.mcmc_step", sampler.mcmc_step, _move_outcome),
        ("sampler.run_chain", sampler.run_chain, _trace_bytes),
        ("data.gen_synthetic", data.gen_synthetic, None),
        ("data.load_csv", data.load_csv, None),
        ("data.make_splits", data.make_splits, None),
        ("data.save_csv", data.save_csv, None),
        ("experiments.fit_and_evaluate", experiments.fit_and_evaluate, None),
        ("experiments.run_grid_cell", experiments.run_grid_cell, None),
        ("experiments.run_grid", experiments.run_grid, None),
        ("experiments.run_cv", experiments.run_cv, None),
    ]
    for name, fn, value in functions:
        wrapped = tracer.wrap(name, fn, value)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    setattr(module, attr, wrapped)

    cache = sampler.BenchmarkCache
    cache.__init__ = tracer.wrap("sampler.BenchmarkCache.init", cache.__init__)
    cache.fit = tracer.wrap("sampler.BenchmarkCache.fit", cache.fit,
                            value=_cache_miss, before=_cache_size)

    base = experiments.ProcessPoolExecutor

    class TracedPool(base):
        """Times each pool from construction to its first submit, which
        forks the workers."""

        def __init__(self, *args, **kwargs):
            self._bench_start = time.perf_counter_ns()
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            if self._bench_start is not None:
                tracer.record("experiments.pool.start", self._bench_start, time.perf_counter_ns())
                self._bench_start = None
            return future

    experiments.ProcessPoolExecutor = TracedPool


# -- aggregation ------------------------------------------------------------

def load(out_dir: Path, root_pid: int) -> list[dict]:
    """All batches written under out_dir, each tagged with whether it is a worker's."""
    batches = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            batch = json.loads(line)
            batch["worker"] = batch["pid"] != root_pid
            batches.append(batch)
    return batches


def _pct_us(durations_ns, q) -> float:
    if not durations_ns:
        return 0.0
    return float(np.percentile(np.asarray(durations_ns, dtype=float), q)) / 1e3


def summarize(batches: list[dict], wall_s: float, workers: int,
              chains: int, steps: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced job, and the cross-checks that failed.

    chains and steps are what the job must run: steps = chains * (T - 1).
    """
    dur: dict[str, list[int]] = {}
    vals: dict[str, list] = {}
    step_child_ns = []        # per mcmc_step span: time covered by its direct children
    step_has_finite = []      # per mcmc_step span: some candidate inside the ball
    step_selects = 0          # select_index spans whose parent is an mcmc_step
    worker_busy_ns = 0
    worker_pids = set()
    for batch in batches:
        spans = batch["spans"]
        step_row = {}
        for i, (name, _, _, parent, _) in enumerate(spans):
            if name == "sampler.mcmc_step":
                step_row[i] = len(step_child_ns)
                step_child_ns.append(0)
                step_has_finite.append(False)
        for name, start, end, parent, value in spans:
            dur.setdefault(name, []).append(end - start)
            vals.setdefault(name, []).append(value)
            if parent in step_row:
                row = step_row[parent]
                step_child_ns[row] += end - start
                if name == "gibbs.log_prior" and value == 0:
                    step_has_finite[row] = True
                if name == "sampler.select_index":
                    step_selects += 1
            if batch["worker"] and parent == -1:
                worker_busy_ns += end - start
                worker_pids.add(batch["pid"])

    def calls(name):
        return len(dur.get(name, []))

    def total_ms(name):
        return sum(dur.get(name, [])) / 1e6

    def p50_us(name):
        return _pct_us(dur.get(name, []), 50)

    m: dict[str, tuple[float, str]] = {}
    m["basis.score.calls"] = (calls("basis.score"), "count")
    m["basis.score.p50_us"] = (p50_us("basis.score"), "us")
    m["basis.score.bytes_computed"] = (sum(vals.get("basis.score", [])), "bytes")
    m["basis.build_features.ms"] = (total_ms("basis.build_features"), "ms")
    m["basis.score_dense.ms"] = (total_ms("basis.score_dense"), "ms")

    m["risk.empirical_rank_risk.calls"] = (calls("risk.empirical_rank_risk"), "count")
    m["risk.empirical_rank_risk.p50_us"] = (p50_us("risk.empirical_rank_risk"), "us")
    m["risk.empirical_rank_risk.p99_us"] = (_pct_us(dur.get("risk.empirical_rank_risk", []), 99), "us")
    m["risk.auc.ms"] = (total_ms("risk.auc"), "ms")

    outside = sum(vals.get("gibbs.log_prior", []))
    m["gibbs.log_prior.calls"] = (calls("gibbs.log_prior"), "count")
    m["gibbs.log_prior.p50_us"] = (p50_us("gibbs.log_prior"), "us")
    m["gibbs.log_prior.outside_ball_frac"] = (outside / max(calls("gibbs.log_prior"), 1), "ratio")

    m["sampler.select_index.calls"] = (calls("sampler.select_index"), "count")
    m["sampler.select_index.p50_us"] = (p50_us("sampler.select_index"), "us")
    candidates = sum(vals.get("sampler.propose_neighborhood", []))
    m["sampler.propose_neighborhood.p50_us"] = (p50_us("sampler.propose_neighborhood"), "us")
    m["sampler.candidates_per_step"] = (
        candidates / max(calls("sampler.propose_neighborhood"), 1), "cand/step")

    step_ns = dur.get("sampler.mcmc_step", [])
    outcomes = vals.get("sampler.mcmc_step", [])
    for move in ("add", "remove", "stay"):
        ns = [d for d, (mv, _) in zip(step_ns, outcomes) if mv == move]
        accepted = sum(acc for mv, acc in outcomes if mv == move)
        key = f"sampler.mcmc_step.{move}"
        m[f"{key}.count"] = (len(ns), "count")
        m[f"{key}.p50_us"] = (_pct_us(ns, 50), "us")
        m[f"{key}.p99_us"] = (_pct_us(ns, 99), "us")
        m[f"{key}.accept_ratio"] = (accepted / max(len(ns), 1), "ratio")
    m["sampler.mcmc_step.self_frac"] = (
        1.0 - sum(step_child_ns) / max(sum(step_ns), 1), "ratio")

    fit_ns = dur.get("sampler.BenchmarkCache.fit", [])
    misses = [d for d, miss in zip(fit_ns, vals.get("sampler.BenchmarkCache.fit", [])) if miss]
    m["sampler.BenchmarkCache.init.ms"] = (total_ms("sampler.BenchmarkCache.init"), "ms")
    m["sampler.BenchmarkCache.fit.calls"] = (len(fit_ns), "count")
    m["sampler.BenchmarkCache.fit.misses"] = (len(misses), "count")
    m["sampler.BenchmarkCache.fit.hit_ratio"] = (1.0 - len(misses) / max(len(fit_ns), 1), "ratio")
    m["sampler.BenchmarkCache.fit.miss_p50_us"] = (_pct_us(misses, 50), "us")

    chain_ns = dur.get("sampler.run_chain", [])
    m["sampler.run_chain.p50_ms"] = (_pct_us(chain_ns, 50) / 1e3, "ms")
    trace_bytes = vals.get("sampler.run_chain", [])
    m["sampler.trace_bytes_computed"] = (float(np.median(trace_bytes)) if trace_bytes else 0.0, "bytes")

    m["data.load_csv.ms"] = (total_ms("data.load_csv"), "ms")
    m["data.make_splits.ms"] = (total_ms("data.make_splits"), "ms")
    m["data.save_csv.ms"] = (total_ms("data.save_csv"), "ms")

    m["experiments.pool.starts"] = (calls("experiments.pool.start"), "count")
    m["experiments.pool.start_ms"] = (_pct_us(dur.get("experiments.pool.start", []), 50) / 1e3, "ms")
    m["experiments.worker_busy_frac"] = (
        worker_busy_ns / 1e9 / (wall_s * workers) if workers > 1 else 0.0, "ratio")
    m["experiments.run_grid_cell.p50_ms"] = (p50_us("experiments.run_grid_cell") / 1e3, "ms")

    finite = candidates - outside
    expected = {
        "sampler.mcmc_step": steps,
        "sampler.propose_neighborhood": steps,
        "sampler.run_chain": chains,
        "sampler.BenchmarkCache.init": chains,
        "basis.build_features": 2 * chains,
        "sampler.BenchmarkCache.fit": candidates,
        # one prior and one risk per chain for the initial state
        "gibbs.log_prior": candidates + chains,
        "risk.empirical_rank_risk": finite + chains,
        # two extra scores per chain for the randomized estimator's AUCs
        "basis.score": finite + 2 * chains,
        "sampler.select_index": sum(step_has_finite),
    }
    problems = [f"{name}: {calls(name)} calls, expected {want}"
                for name, want in expected.items() if calls(name) != want]
    if step_selects != calls("sampler.select_index"):
        problems.append("sampler.select_index called outside sampler.mcmc_step")
    if steps and not candidates:
        problems.append("no candidates recorded")
    if workers > 1 and not worker_pids:
        problems.append("no spans from pool workers")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, problems
