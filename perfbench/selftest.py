"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload, untraced and traced, for one cycle each, and
   asserts that every metric named in BENCHMARK.json is printed with
   its unit and that no op failed.
2. Corrupts a reference value (ln 2) and asserts that the checks then
   count failed ops.
3. Asserts that the benchmark refuses to run, without printing a
   result, in a directory holding only BENCHMARK.json and perfbench/.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_all_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, workload, name, value, *unit = line.split()
            printed[(workload, name)] = (float(value), unit[0] if unit else "")
    for workload in (w["name"] for w in bench["workloads"]):
        for kind in ("end_to_end", "per_layer"):
            for metric in bench[kind]:
                key = (workload, metric["name"])
                assert key in printed, f"{workload}: {metric['name']} not printed"
                assert printed[key][1] == metric["unit"], f"{key}: unit {printed[key][1]!r}"
                prefix = f"{workload}.{'trace.' if kind == 'per_layer' else ''}"
                assert result["metrics"][prefix + metric["name"]]["unit"] == metric["unit"]
        assert printed[(workload, "failed_ratio")][0] == 0.0
    print(f"ok: {len(printed)} metrics printed with units, no failed ops")


def check_corrupted_reference():
    os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads

    workloads.REFERENCE["ln2"] = math.log(2.0) + 0.01
    try:
        run = worker.run_pass(itertools.islice(workloads.ree_mix_cycles(seed=0), 1))
    finally:
        workloads.REFERENCE["ln2"] = math.log(2.0)
    ratio = run.failed / run.attempted
    assert ratio > 0.0, "a corrupted reference value went unnoticed"
    print(f"ok: corrupted ln 2 gives failed_ratio {ratio:.3f}")


def check_bare_directory():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ree-mix", "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print(f"ok: without the source tree the benchmark exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    check_bare_directory()
    check_corrupted_reference()
    check_all_metrics()
