"""gibbsrank benchmark: end-to-end and per-layer metrics of three user jobs.

    python3 perfbench/run.py --workload grid-d10|fit-d100|cv-d10 \
        --seed N --seconds S --trace 0|1 [--size full|smoke]

Run it from the repository root; the program is imported from ``src``.
Every measurement runs in a fresh interpreter (perfbench/job.py) with one
BLAS thread, so set-up time and peak RSS are per measurement and two pool
workers do not oversubscribe two cores.

``--trace 0`` runs about S seconds of jobs, each on its own inputs derived
from the seed (workloads.job_seed), adds set-up-only measurements until there
are MIN_SETUPS set-up samples, and reports medians of the end-to-end
metrics.  One-process jobs and set-ups run one per CPU, side by side.
``--trace 1`` runs the job once untraced and once with every layer wrapped
(spans.py), and reports the per-layer metrics of the traced job plus
``trace.overhead_frac``, the traced wall time over the untraced one, minus
one.

Per-layer units: ``.calls``/``.count`` are calls in the job, summed over
processes; ``.ms`` is total milliseconds in that function; ``.p50_us``,
``.p99_us`` and ``.p50_ms`` are per-call percentiles.

Every job's outputs are checked (workloads.py) and hashed.  Jobs on the same
inputs and source must hash alike: the untraced and traced job of a traced
run, and any earlier job recorded in .perfbench/digests.json.  A failed
check marks the job's chains failed.  The last line of stdout is the result;
the line before it records the environment and each job.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import SIZES, WORKLOADS, job_seed  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_round(args, specs: list[tuple], nproc: int, deadline: float) -> list[dict]:
    """Measurements side by side, one fresh interpreter each.

    specs holds (mode, index, seed, cpu); a child with a cpu is pinned to it.
    Every child's process group, pool workers included, is killed and reaped
    before this returns or raises.
    """
    started = []
    try:
        for mode, index, seed, cpu in specs:
            workdir = STATE / f"run-{os.getpid()}" / f"{index:02d}-{mode}"
            cmd = [sys.executable, str(HERE / "job.py"), "--workload", args.workload,
                   "--seed", str(seed), "--size", args.size, "--mode", mode,
                   "--workdir", str(workdir), "--nproc", str(nproc)]
            pin = None if cpu is None else functools.partial(os.sched_setaffinity, 0, {cpu})
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, start_new_session=True,
                                    preexec_fn=pin, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, text=True)
            started.append((proc, workdir, mode, seed))
        return [{**finish_child(proc, workdir, deadline), "mode": mode, "seed": seed}
                for proc, workdir, mode, seed in started]
    finally:
        for proc, *_ in started:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def finish_child(proc, workdir: Path, deadline: float) -> dict:
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"problems": ["measurement timed out"]}
    result = workdir / "result.json"
    if proc.returncode != 0 or not result.exists():
        tail = err.strip().splitlines()[-1:] or [""]
        return {"problems": [f"measurement exited {proc.returncode}: {tail[0]}"]}
    return json.loads(result.read_text())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; don't report an enclosing repo
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "threads": {var: "1" for var in THREAD_VARS},
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def check_digests(args, jobs: list[dict], source: str) -> list[str]:
    """Same inputs, same source: the same output bytes, within a run and across runs."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for job in jobs:
        if "digest" not in job:
            continue
        key = f"{args.workload}/{args.size}/{job['seed']}/{source}"
        if known.setdefault(key, job["digest"]) != job["digest"]:
            problems.append(f"outputs for job seed {job['seed']} differ from an earlier job")
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(jobs: list[dict], setups: list[float], steps: int) -> dict:
    timed = [j for j in jobs if "wall_s" in j]
    return {
        "setup_s": metric(median(setups), "s"),
        "wall_s": metric(median(j["wall_s"] for j in timed), "s"),
        "steps_per_s": metric(median(steps / j["wall_s"] for j in timed), "1/s"),
        "peak_rss_mb": metric(median(j["peak_rss_mb"] for j in timed), "MB"),
        "test_auc_averaged": metric(median(j.get("test_auc_averaged", 0.0) for j in timed),
                                    "ratio"),
    }


def per_layer(jobs: list[dict]) -> dict:
    untraced = [j for j in jobs if j["mode"] == "job" and j.get("wall_s")]
    traced = [j for j in jobs if j["mode"] == "traced" and "layers" in j]
    layers = traced[0]["layers"] if traced else {}
    if traced and untraced:
        layers["trace.overhead_frac"] = metric(traced[0]["wall_s"] / untraced[0]["wall_s"] - 1.0,
                                               "ratio")
    # a failed trace still reports every metric, as 0, beside correct: false
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: layers.get(m["name"], metric(0.0, m["unit"])) for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES),
                        help="smoke runs tiny chains, for the benchmark's own test")
    args = parser.parse_args()
    if not (SRC / "gibbsrank" / "__init__.py").is_file():
        print(f"no gibbsrank sources under {SRC}", file=sys.stderr)
        return 2

    # a driver's SIGTERM unwinds through run_round, which kills the children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args)
    finally:
        shutil.rmtree(STATE / f"run-{os.getpid()}", ignore_errors=True)


def measure(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    cpus = sorted(os.sched_getaffinity(0))
    nproc = len(cpus)
    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    steps = workload.chains * (size.iters - 1)

    jobs: list[dict] = []
    if args.trace:
        # the same inputs untraced and traced, so their outputs must also match
        for mode in ("job", "traced"):
            jobs += run_round(args, [(mode, len(jobs), args.seed, None)], nproc, deadline)
    else:
        # On a shared host each CPU's speed drifts on its own, by up to 2x over
        # minutes.  A pooled job spans every CPU; one-process jobs run one per
        # CPU side by side, so each run's median mixes every CPU's drift.
        width = 1 if workload.pooled else nproc
        for _ in range(workload.rounds_per_run(args.seconds)):
            jobs += run_round(args, [("job", i, job_seed(args.seed, i),
                                      None if workload.pooled else cpus[i % nproc])
                                     for i in range(len(jobs), len(jobs) + width)],
                              nproc, deadline)
    setups = [j["setup_s"] for j in jobs if "setup_s" in j]
    while not args.trace and len(setups) < MIN_SETUPS:
        batch = run_round(args, [("setup", len(jobs) + k, args.seed, cpu)
                                 for k, cpu in enumerate(cpus)], nproc, deadline)
        jobs += batch
        if any("setup_s" not in record for record in batch):
            break
        setups += [record["setup_s"] for record in batch]

    env = environment(nproc)
    measured = [j for j in jobs if j["mode"] != "setup"]
    problems = [p for j in jobs for p in j.get("problems", [])]
    problems += check_digests(args, measured, env["source_sha256"])
    attempted = sum(j.get("attempted", workload.chains) for j in measured)
    # a job with any problem counts all of its chains as failed; a problem
    # outside the jobs (digests, set-up) fails the whole run
    failed = sum(j.get("attempted", workload.chains) for j in measured if j.get("problems"))
    if problems and not failed:
        failed = attempted
    metrics = per_layer(measured) if args.trace else end_to_end(measured, setups, steps)
    if not args.trace:
        metrics["success_frac"] = metric(1.0 - failed / max(attempted, 1), "ratio")

    junk = [j["junk_frequency_sum"] for j in measured if j.get("junk_frequency_sum") is not None]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "environment": env, "problems": problems,
                      "junk_frequency_sum": median(junk) if junk else None,
                      "jobs": [{k: v for k, v in j.items() if k != "layers"} for j in jobs]}))
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
