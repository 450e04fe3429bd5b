"""One workload in one process: set up, print ``ready``, run the timed ops, print a JSON result.

Started by ``run.py`` with the BLAS/OpenMP thread counts set to 1 and
``src`` on ``PYTHONPATH``.  With ``--setup-only`` it stops after
``ready``, which is how ``run.py`` samples set-up time.

Set-up covers start-up, imports and the inputs of the first cycle; later
cycles are generated from ``(seed, cycle index)`` between cycles, outside
op time.  The timed phase is a closed loop with one client: each op
starts when the previous one has returned.  Whole cycles run, stopping
at the cycle boundary nearest to ``--seconds`` of op time, so every run
sees the same mix of ops.  Op time is the CPU time of the library call
(or of the CLI child process); wall times are reported alongside.  The
benchmark's own checks run between ops and are not counted.

With ``--trace 1`` the worker first runs the ops untraced for half the
time, then regenerates the same cycles, installs the tracer and replays
them; the ratio of the two gives the tracing overhead, and the traced
replay gives the per-layer metrics.  ``cli-session`` traces an
in-process run of its script, since a child process cannot be wrapped
from here.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import (  # noqa: E402
    EIGH_CALLS,
    EIGH_S,
    LAYERS,
    NAME,
    PARENT,
    WORK,
    SpanIndex,
    Tracer,
    median_or_zero,
)

class Pass:
    """Op times, failures and op list of one run through the cycles."""

    def __init__(self):
        self.op_s: list[float] = []     # CPU seconds per op
        self.wall_s: list[float] = []   # wall seconds per op
        self.ops: list = []
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.tally = workloads.Tally()


def run_pass(cycles, seconds=math.inf, tracer=None):
    """Run whole cycles from ``cycles`` until it ends or ``seconds`` of op time are used."""
    result = Pass()
    for cycle in cycles:
        for group in cycle:
            outputs = []
            ok = True
            for op in group.ops:
                span = tracer.op(op.props.get("cls", op.kind)) if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                c0 = cpu_seconds()
                try:
                    with span:
                        outputs.append(op.call())
                except Exception:  # an op that raises counts as failed; keep measuring
                    traceback.print_exc()
                    ok = False
                result.wall_s.append(time.perf_counter() - t0)
                result.op_s.append(cpu_seconds() - c0)
                result.ops.append(op)
            if ok:
                try:
                    ok = bool(group.check(outputs, result.tally))
                except Exception:
                    traceback.print_exc()
                    ok = False
            if not ok:
                print(f"check failed: {[op.kind for op in group.ops]}", file=sys.stderr)
            result.attempted += len(group.ops)
            result.failed += 0 if ok else len(group.ops)
        result.cycles += 1
        # stop at the cycle boundary nearest to ``seconds`` of op time
        busy = sum(result.op_s)
        if busy + 0.5 * busy / result.cycles >= seconds:
            break
    return result


def cpu_seconds():
    """CPU time of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def tail(times):
    """Time at the highest percentile with at least 10 samples above it, and that percentile."""
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(run, peak_rss_kb):
    tail_s, tail_pct = tail(run.op_s)
    return {
        "ops_per_s": run.attempted / sum(run.op_s),
        "op_p50_s": statistics.median(run.op_s),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "failed_ratio": run.failed / run.attempted,
        "op_tail_pct": tail_pct,
        "samples": len(run.op_s),
        "wall_ops_per_s": run.attempted / sum(run.wall_s),
        "wall_op_p50_s": statistics.median(run.wall_s),
        "wall_op_tail_s": tail(run.wall_s)[0],
        "cycles": run.cycles,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

ORACLE_SPANS = ("jc.dephasing_oracle_trajectory", "jc.dephasing_oracle_evolve",
                "jc.oracle_population_lower")
CORE_SPANS = {
    "density_operator": "core.DensityOperator.__post_init__",
    "partial_trace": "core.partial_trace",
    "quantum_relative_entropy": "core.quantum_relative_entropy",
    "von_neumann_entropy": "core.von_neumann_entropy",
}
CLI_COMMANDS = ("budget", "jc", "swap", "exchange", "ree")


def _per_second(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def per_layer(name, traced, spans, overhead_ratio):
    idx = SpanIndex(spans)
    m = {}
    ree = idx.outermost(["entanglement.relative_entropy_of_entanglement"])
    m["entanglement.ree.calls"] = len(ree)
    m["entanglement.ree.busy_s"] = idx.busy_s(["entanglement.relative_entropy_of_entanglement"])
    m["entanglement.ree.eigh_calls"] = sum(spans[i][EIGH_CALLS] for i in ree)
    for cls in workloads.REE_CLASSES:
        m[f"entanglement.ree.{cls}.p50_s"] = median_or_zero(
            [idx.duration(i) for i in ree if idx.op_kind[i] == cls])
    restarts = traced.tally.values.get("restarts", [])
    m["entanglement.ree.restarts_mean"] = traced.tally.mean("restarts")
    m["entanglement.ree.iterations_mean"] = traced.tally.mean("iterations")
    m["entanglement.ree.restart_yield"] = len(restarts) / sum(restarts) if restarts else 0.0
    cc = idx.outermost(["entanglement.classical_correlations"])
    m["entanglement.cc.calls"] = len(cc)
    m["entanglement.cc.busy_s"] = idx.busy_s(["entanglement.classical_correlations"])

    oracle = idx.outermost(ORACLE_SPANS)
    m["jc.oracle.calls"] = len(oracle)
    m["jc.oracle.busy_s"] = idx.busy_s(ORACLE_SPANS)
    m["jc.oracle.p50_s"] = median_or_zero([idx.duration(i) for i in oracle])
    curve = idx.outermost(["jc.population_lower"])
    m["jc.population_lower.calls"] = len(curve)
    m["jc.population_lower.busy_s"] = idx.busy_s(["jc.population_lower"])
    m["jc.population_lower.points_per_s"] = _per_second(sum(spans[i][WORK] for i in curve),
                                                  m["jc.population_lower.busy_s"])
    enum = idx.outermost(["catswap.enumerate_outcomes"])
    m["catswap.enumerate.calls"] = len(enum)
    m["catswap.enumerate.busy_s"] = idx.busy_s(["catswap.enumerate_outcomes"])
    m["catswap.enumerate.outcomes_per_s"] = _per_second(sum(spans[i][WORK] for i in enum),
                                                  m["catswap.enumerate.busy_s"])
    m["catswap.oracle.busy_s"] = idx.busy_s(["catswap.brute_force_oracle"])
    for key, span_name in CORE_SPANS.items():
        m[f"core.{key}.busy_s"] = idx.busy_s([span_name])
    m["feasibility.report.busy_s"] = idx.busy_s(["feasibility.feasibility_report"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(s for i, s in enumerate(idx.self_s)
                                         if spans[i][NAME].startswith(layer + ".") and idx.op_kind[i]))
    # op spans are the roots, and their eigh counts are inclusive
    op_spans = [span for span in spans if span[PARENT] < 0]
    m["numpy.eigh.calls"] = sum(span[EIGH_CALLS] for span in op_spans)
    m["numpy.eigh.busy_s"] = float(sum(span[EIGH_S] for span in op_spans))
    for command in CLI_COMMANDS:
        selfs = [idx.self_s[i] for i, span in enumerate(spans) if span[NAME] == f"op:cli.{command}"]
        m[f"cli.{command}.self_s"] = statistics.fmean(selfs) if selfs else 0.0
    m["trace.overhead_ratio"] = overhead_ratio

    tally = traced.tally
    for key in ("accuracy.ree.bell_err", "accuracy.ree.werner_err", "accuracy.ree.pure_err",
                "accuracy.ree.separable_max", "accuracy.ree.qubit_qutrit_separable_max",
                "accuracy.ree.bell_pair_err", "accuracy.cc.mi_err",
                "accuracy.ree.e3_worst_gain", "accuracy.ree.cli_err", "accuracy.jc.rate_dev",
                "accuracy.jc.undamped_err", "accuracy.jc.p_down_diff", "accuracy.jc.curve_err"):
        m[key] = tally.get(key)
    m["accuracy.catswap.mismatches"] = sum(tally.values.get("swap_mismatch", []))

    inputs = {**workloads.ree_mix_inputs([]), **workloads.oracle_check_inputs([]),
              "input.cli.outcomes_per_cycle": 0.0, "input.cli.stdout_bytes_per_cycle": 0.0}
    if name == "ree-mix":
        inputs.update(workloads.ree_mix_inputs(traced.ops))
    elif name == "oracle-check":
        inputs.update(workloads.oracle_check_inputs(traced.ops))
    else:
        cycles = max(traced.cycles, 1)
        inputs["input.cli.outcomes_per_cycle"] = sum(tally.values.get("outcomes", [])) / cycles
        inputs["input.cli.stdout_bytes_per_cycle"] = sum(tally.values.get("stdout_bytes", [])) / cycles
    m.update(inputs)
    return m


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    name = args.workload
    runner = None
    if name == "cli-session":
        # inputs are files; the untraced run starts real CLI processes
        runner = (workloads.InProcessCLI() if args.trace
                  else workloads.SubprocessCLI(dict(os.environ), os.getcwd()))
    cycles = workloads.cycles(name, args.seed, args.workdir, runner)
    first = next(cycles)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cycles = itertools.chain([first], cycles)
    if not args.trace:
        run = run_pass(cycles, seconds=args.seconds)
        usage = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
        out = {"attempted": run.attempted, "failed": run.failed,
               "metrics": end_to_end(run, resource.getrusage(usage).ru_maxrss)}
    else:
        plain = run_pass(cycles, seconds=args.seconds / 2.0)
        # inputs are made before tracing starts, so that no span comes from them
        replay = list(itertools.islice(workloads.cycles(name, args.seed, args.workdir, runner),
                                       plain.cycles))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(replay, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = sum(traced.op_s) / sum(plain.op_s) - 1.0
        out = {"attempted": plain.attempted + traced.attempted,
               "failed": plain.failed + traced.failed,
               "metrics": per_layer(name, traced, tracer.spans, overhead)}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
