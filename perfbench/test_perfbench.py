"""Smoke test of the benchmark: tiny chains, every workload, both modes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "smoke"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # correct also covers the traced run's call-count cross-checks
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    env = info["environment"]
    assert env["nproc"] >= 1 and env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        metrics = result["metrics"]
        if workload == "grid-d10":
            assert metrics["experiments.worker_busy_frac"]["value"] > 0
            assert metrics["experiments.pool.starts"]["value"] > 0
        else:
            assert metrics["experiments.pool.starts"]["value"] == 0


def test_missed_wrapper_fails_cross_check(tmp_path):
    """A layer called under a name the wrappers missed must not read as 0."""
    script = f"""
import sys
sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]
from spans import Tracer, install, load, summarize
from gibbsrank import basis, cli, sampler
original = basis.score
tracer = Tracer({str(tmp_path / 'spans')!r})
install(tracer)
sampler.score = original
cli.main(["fit", "--out", {str(tmp_path / 'out')!r}, "--n-train", "60", "--n-test", "60",
          "--iters", "6", "--burnin", "3"])
tracer.flush()
_, problems = summarize(load(tracer.out_dir, tracer.root_pid), 1.0, 1, 1, 5)
print(problems)
assert any(p.startswith("basis.score:") for p in problems), problems
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
