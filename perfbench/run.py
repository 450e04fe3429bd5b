"""qlimits benchmark: three workloads, end-to-end metrics, per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload ree-mix --seed 3 --seconds 30 --trace 0

A single-workload run prints one ``metric`` line per metric and, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  An ``env`` line records the
host, the package versions, the thread settings and the load average.

This file uses the standard library only.  The ops run in a child
process (``worker.py``) with ``src`` on ``PYTHONPATH`` and the BLAS and
OpenMP thread counts set to 1; scratch files go under ``.bench_work/``
in the checkout and are removed at exit.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5     # set-up is sampled this many times per run; the median is reported
DEADLINE_S = 170.0    # a single-workload run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
IMPORT_MODULES = ("qlimits.cli", "scipy.optimize", "scipy.constants", "numpy", "click")
WALL_METRICS = ("wall_ops_per_s", "wall_op_p50_s", "wall_op_tail_s")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment():
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def run_worker(workload, seed, seconds, trace, workdir, env, deadline, setup_only=False):
    """Start worker.py; return (seconds until it printed ``ready``, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # the worker leads its own process group, so a kill reaches its CLI children too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    # a hung worker is killed at the deadline; reading its pipe then returns
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), kill_group)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed with exit code {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def import_times(env, deadline, samples=3):
    """Cumulative import time of selected modules in a fresh interpreter (median of samples)."""
    found = {name: [] for name in IMPORT_MODULES}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qlimits.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError("importing qlimits.cli failed")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name in IMPORT_MODULES:
            found[name].append(seen.get(name, 0.0))
    return {f"cli.import.{name.replace('.', '_')}_s": statistics.median(values)
            for name, values in found.items()}


def run_workload(workload, seed, seconds, trace, workdir, env):
    """One run of one workload; returns the result object printed as the last line."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        _, result = run_worker(workload, seed, seconds, 1, os.path.join(workdir, "traced"), env, deadline)
        # op time is CPU time; an untraced run's wall times show waits that use no CPU
        _, plain = run_worker(workload, seed, seconds, 0, os.path.join(workdir, "wall"), env, deadline)
        result["metrics"].update({name: plain["metrics"][name] for name in WALL_METRICS})
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["metrics"].update(import_times(env, deadline))
    else:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            probe_dir = os.path.join(workdir, f"probe{i}")
            setups.append(run_worker(workload, seed, seconds, 0, probe_dir, env, deadline, True)[0])
        setup_s, result = run_worker(workload, seed, seconds, 0, os.path.join(workdir, "run"),
                                     env, deadline)
        setups.append(setup_s)
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["correct"] = result["failed"] == 0
    return result


def report(declared, workload, trace, result):
    """Print the metric lines and return the metrics object of the last line."""
    metrics = result["metrics"]
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    # failed_ratio is 0 on a correct tree, so it is printed but not a declared metric
    names = sorted(units) if trace else [*units, "failed_ratio"]
    units["failed_ratio"] = "ratio"
    for name in names:
        print(f"metric {workload} {name} {metrics[name]!r} {units[name]}")
    if not trace:
        print(f"detail {workload} op_tail_pct {metrics['op_tail_pct']:.1f} samples {metrics['samples']} "
              f"cycles {metrics['cycles']} wall_ops_per_s {metrics['wall_ops_per_s']!r} "
              f"wall_op_p50_s {metrics['wall_op_p50_s']!r} wall_op_tail_s {metrics['wall_op_tail_s']!r}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared[kind]}


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description="qlimits benchmark")
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both with 'all')")
    args = parser.parse_args(argv)

    # on SIGTERM, unwind through the finally clauses that stop workers and remove scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qlimits" / "cli.py").is_file():
        print(f"no qlimits source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    workloads = names if args.workload == "all" else [args.workload]
    traces = (args.trace,) if args.trace is not None else ((0, 1) if args.workload == "all" else (0,))

    env = child_env()
    info = environment()
    info["loadavg_start"] = os.getloadavg()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    results = {}
    try:
        for workload in workloads:
            for trace in traces:
                results[(workload, trace)] = run_workload(
                    workload, args.seed, seconds, trace, os.path.join(workdir, f"{workload}{trace}"), env)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    info["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(info, sort_keys=True))

    summaries = {}
    for (workload, trace), result in results.items():
        summaries[(workload, trace)] = report(declared, workload, trace, result)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(summaries.values()))
    else:
        metrics = {f"{w}.{'trace.' if t else ''}{name}": value
                   for (w, t), summary in summaries.items() for name, value in summary.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
