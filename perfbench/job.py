"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/job.py --workload W --seed N --size full|smoke \
        --mode setup|job|traced --workdir DIR --nproc K

Set-up time runs from the top of this file through the gibbsrank import,
input generation and CSV writes.  In mode ``setup`` the child stops there;
otherwise it runs the job through ``gibbsrank.cli.main`` and reads its
outputs.  Mode ``traced`` wraps gibbsrank's layers first (see spans.py).
The record goes to DIR/result.json.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from gibbsrank import cli  # noqa: E402

from spans import Tracer, install, load, summarize  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def digest_outputs(out: Path) -> str:
    """sha256 over the relative names and bytes of every output file."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped pool workers."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=sorted(SIZES))
    parser.add_argument("--mode", required=True, choices=("setup", "job", "traced"))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--nproc", required=True, type=int)
    args = parser.parse_args()

    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    workdir = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer(workdir / "spans")
        install(tracer)
    inputs = workload.setup(workdir, args.seed, size)
    record = {"setup_s": time.perf_counter() - SETUP_START}

    if args.mode != "setup":
        out = workdir / "out"
        argv = workload.argv(inputs, args.seed, size, out, args.nproc)
        record["argv"] = argv
        start = time.perf_counter()
        try:
            with open(workdir / "stdout.log", "w") as log, contextlib.redirect_stdout(log):
                rc = cli.main(argv)
        except Exception:
            rc, record["error"] = None, traceback.format_exc()
        record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = peak_rss_mb()
        record["exit_code"] = rc
        record["problems"] = [] if rc == 0 else [f"gibbsrank exited with {rc}"]
        record["attempted"] = workload.chains
        if rc == 0:
            try:
                outcome = workload.read(out, size)
            except (OSError, KeyError, ValueError) as exc:
                record["problems"].append(f"unreadable output: {exc!r}")
            else:
                record.update(attempted=outcome.attempted,
                              test_auc_averaged=outcome.test_auc_averaged,
                              junk_frequency_sum=outcome.junk_frequency_sum,
                              digest=digest_outputs(out))
                record["problems"] += outcome.problems
                if outcome.attempted != workload.chains:
                    record["problems"].append(
                        f"{outcome.attempted} chains reported, expected {workload.chains}")
        if tracer is not None and rc == 0:
            tracer.flush()
            steps = workload.chains * (size.iters - 1)
            workers = args.nproc if workload.pooled else 1
            layers, cross = summarize(load(tracer.out_dir, tracer.root_pid),
                                      record["wall_s"], workers, workload.chains, steps)
            record["layers"] = layers
            record["problems"] += [f"trace cross-check: {p}" for p in cross]

    (workdir / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
