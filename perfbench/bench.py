"""Harness core: runs one workload in this process and prints its result.

A workload is a seeded list of ops, one *pass*.  The harness sets the
workload up several times (``SETUP_REPS``), then runs whole passes in a
closed loop, one op at a time, until ``--seconds`` of op time have been
spent.  Each op is timed alone and its time is scaled to reference
speed (``Gauge``); its output is checked after the clock stops.  An op
that raises, runs past its budget, or whose output fails its check
counts as failed, and the run goes on.  An op that runs past its
budget is left out of the timings: its time would be the budget's.

With ``--trace 1`` one untraced pass and two under ``tracing.install``
alternate; per-layer numbers are per traced pass.

Usage (normally started by run.py, one child process per workload):

    python3 perfbench/bench.py --workload set-scaling --seed 0 \
        --seconds 15 --trace 0

The last stdout line is a JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPS = 3
RUNGS = (1, 2, 4, 8)
# No op may run longer than this, so one run always ends; an op that
# hits its budget counts as failed.
DEFAULT_BUDGET_S = 30.0
# Reported times are at reference speed (see Gauge).  The reference is
# a gauge kernel's time at that speed: about its fastest time on the
# 2-vCPU machine where the baseline was recorded.
GAUGE_EVERY_S = 0.1


@dataclass
class Op:
    """One measured operation.

    ``run`` takes the active tracer (None when untraced) and returns the
    output bytes a user would see; ``check`` inspects them outside the
    timed region and returns a failure reason, or None when correct.
    ``rung`` places the op on the workload's doubling ladder (1, 2, 4, 8
    times the base size); ``tag`` names a per-layer total it feeds;
    ``budget_s`` is its declared work budget in seconds.
    """

    key: str
    run: Callable[[object], bytes]
    check: Callable[[bytes], str | None]
    rung: int | None = None
    tag: str | None = None
    budget_s: float = DEFAULT_BUDGET_S


@dataclass
class Outcome:
    op: Op
    seconds: float       # wall time
    kernel_before: float  # the gauge reading the op started at
    ok: bool
    wrong: bool          # the output was produced but failed its check
    reason: str | None
    digest: str | None   # of the output bytes, when there were any
    timed_out: bool = False  # stopped at its budget
    scaled: float = 0.0  # wall time at reference speed, set by the gauge


@dataclass
class Setup:
    """What a workload's set-up returns: the ops of one pass, and a
    clean-up hook for files it wrote."""

    ops: list[Op]
    cleanup: Callable[[], None] = lambda: None


class BudgetExceeded(Exception):
    pass


def _over_budget(signum, frame):
    raise BudgetExceeded("the op ran past its work budget")


def _python_kernel() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(2500):
        table[(i, i * 7 % 13)] = i
        acc += table.get((i - 1, (i - 1) * 7 % 13), 0)
    return acc + len(sorted(table.items(), key=lambda kv: kv[1] % 97))


def _start_kernel() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


# (kernel, its time at reference speed, kernel runs per reading).  The
# pure-Python kernel suits ops that run in this process.  Ops that start
# an interpreter follow the bare interpreter start more closely: its
# kernel-side work slows differently from Python code.
PYTHON_GAUGE = (_python_kernel, 0.0015, 3)
START_GAUGE = (_start_kernel, 0.05, 1)


class Gauge:
    """The host's current speed, read from a fixed kernel that does not
    use polyspan.

    The host this runs on is shared: the same code runs up to 1.9 times
    slower for seconds at a time.  The kernel is timed at least every
    GAUGE_EVERY_S, and an op's time is scaled by the kernel's reference
    time over the mean of the readings just before and just after it.
    That cancels the swings, so runs minutes apart agree.
    """

    def __init__(self, kernel=PYTHON_GAUGE) -> None:
        self.kernel, self.reference, self.runs = kernel
        self.pending: list[Outcome] = []
        self.read()

    def read(self) -> float:
        runs = []
        for _ in range(self.runs):
            start = time.perf_counter()
            self.kernel()
            runs.append(time.perf_counter() - start)
        self.at = time.perf_counter()
        self.kernel_s = statistics.median(runs)
        for o in self.pending:
            o.scaled = self.scale(o.seconds, o.kernel_before, self.kernel_s)
        self.pending.clear()
        return self.kernel_s

    def before(self) -> float:
        """The reading to pair with work starting now."""
        if time.perf_counter() - self.at >= GAUGE_EVERY_S:
            self.read()
        return self.kernel_s

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.reference / ((before + after) / 2)

    def timed(self, fn):
        """Run fn(); return its result, its time at reference speed, and
        its wall time."""
        before = self.before()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return result, self.scale(seconds, before, self.read()), seconds


IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import {}; "
                "sys.stdout.write(repr(time.perf_counter() - t))")


def import_probe(gauge: Gauge, module: str) -> tuple[float, float, float]:
    """Start a fresh interpreter that imports ``module`` and exits.
    Return its whole time and the import alone, both at reference
    speed, and the import's wall time."""
    r, scaled, wall = gauge.timed(lambda: subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(module)],
        capture_output=True, timeout=60, check=True))
    inside = float(r.stdout)
    return scaled, inside * scaled / wall, inside


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()[:16]


def run_op(op: Op, tracer, digests: dict | None, gauge: Gauge) -> Outcome:
    before = gauge.before()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, op.budget_s)
    try:
        out = op.run(tracer)
    except Exception as e:  # a crashing op is a failed op; the run goes on
        out, crash = None, f"{type(e).__name__}: {str(e)[:200]}"
        timed_out = isinstance(e, BudgetExceeded)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    if out is None:
        outcome = Outcome(op, seconds, before, False, False, crash, None,
                          timed_out)
        gauge.pending.append(outcome)
        return outcome
    got = digest(out)
    if tracer is not None:
        counts = dict(tracer.counts)
    try:
        reason = op.check(out)
    except Exception as e:  # output too malformed to inspect
        reason = f"check raised {type(e).__name__}: {str(e)[:200]}"
    # An op with no recorded digest produced no output when they were
    # recorded (it failed); its own check still judges it.
    recorded = digests.get(op.key) if digests is not None else None
    if reason is None and recorded is not None and recorded != got:
        reason = f"output digest {got} differs from the recorded {recorded}"
    if tracer is not None:
        # the check's own calls are not the op's
        tracer.spans.clear()
        tracer.counts.clear()
        tracer.counts.update(counts)
    outcome = Outcome(op, seconds, before, reason is None, reason is not None,
                      reason, got)
    gauge.pending.append(outcome)
    return outcome


def run_passes(ops: list[Op], seconds: float, tracer, digests: dict | None,
               gauge: Gauge) -> list[list[Outcome]]:
    """Whole passes until ``seconds`` of op time are spent (at least one)."""
    previous = signal.signal(signal.SIGALRM, _over_budget)
    passes: list[list[Outcome]] = []
    spent = 0.0
    try:
        while not passes or spent < seconds:
            gc.collect()    # each pass starts from the same collector state
            outcomes = []
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.begin_op(i)
                outcomes.append(run_op(op, tracer, digests, gauge))
            gauge.read()
            spent += sum(o.seconds for o in outcomes)
            passes.append(outcomes)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return passes


def typical_ms(passes: list[list[Outcome]],
               clock: str = "scaled") -> dict[str, float]:
    """Each op's median time over the passes, in ms, so one slow sample
    does not move a metric.  An op that ran past its budget in any pass
    is left out."""
    late = {o.op.key for p in passes for o in p if o.timed_out}
    samples: dict[str, list[float]] = {}
    for p in passes:
        for o in p:
            if o.op.key not in late:
                samples.setdefault(o.op.key, []).append(
                    getattr(o, clock) * 1e3)
    return {key: statistics.median(v) for key, v in samples.items()}


def end_to_end(passes: list[list[Outcome]], setup_s: float,
               peak_rss_mb: float, clock: str = "scaled") -> dict[str, float]:
    """Timings are at reference speed (``clock="seconds"`` gives wall
    time), each op counted at its ``typical_ms``: ``ops_per_s`` is
    completed ops per pass over the pass time so summed (an op repeated
    in a pass counts each time), the latency percentiles are taken over
    the distinct ops, and ``op_ms.xK`` sums the ops on rung K."""
    typical = typical_ms(passes, clock)
    rung_of = {o.op.key: o.op.rung for o in passes[0]}
    lat = list(typical.values())
    deciles = (statistics.quantiles(lat, n=10, method="inclusive")
               if len(lat) > 1 else lat * 9)
    out = {
        "setup_s": setup_s,
        "ops_per_s": (statistics.median(sum(o.ok for o in p) for p in passes)
                      / sum(typical[o.op.key] for o in passes[0]
                            if o.op.key in typical) * 1e3),
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "peak_rss_mb": peak_rss_mb,
    }
    for rung in RUNGS:
        out[f"op_ms.x{rung}"] = sum(ms for key, ms in typical.items()
                                    if rung_of[key] == rung)
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "recursion_limit": sys.getrecursionlimit()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: str = "full", record: bool = False) -> dict:
    """Set up and measure one workload in this process; return the result
    with every metric computed (named as in BENCHMARK.json)."""
    # One CPU for this process and the CLI processes it starts, so the
    # gauge reads the speed of the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = importlib.import_module("workloads")
    gauge = Gauge(workloads.GAUGES.get(name, PYTHON_GAUGE))

    factory = workloads.WORKLOADS[name]
    reps, walls = [], []
    setup = None

    def set_up() -> Setup:
        new = factory(seed, sizes)
        new.ops[0].run(None)           # warm-up
        return new

    try:
        for _ in range(SETUP_REPS):
            if setup is not None:
                setup.cleanup()
                setup = None    # one input set alive at a time
            # a set-up is what a fresh process pays: importing polyspan,
            # timed in a new interpreter, then building the inputs
            _, import_s, import_wall = import_probe(gauge, "polyspan")
            setup, rep_s, wall = gauge.timed(set_up)
            reps.append(import_s + rep_s)
            walls.append(import_wall + wall)
        setup_s = statistics.median(reps)
        setup_rss = peak_rss_mb()
        gc.collect()
        gc.freeze()     # the inputs live all run; keep them out of collections

        digests = None
        if seed == DEFAULT_SEED and sizes == "full" and not record:
            digests = json.loads(DIGESTS.read_text())[name]

        result: dict = {"env": environment(), "workload": name,
                        "seed": seed, "sizes": sizes}
        if not trace:
            passes = run_passes(setup.ops, seconds, None, digests, gauge)
            rss = peak_rss_mb()
            result["metrics"] = end_to_end(passes, setup_s, rss)
            result["wall_metrics"] = end_to_end(
                passes, statistics.median(walls), rss,
                "seconds")
        else:
            import tracing
            tracer = tracing.Tracer()
            plain, traced = [], []
            spent = 0.0
            # one untraced pass, then two traced ones, in turn, so that a
            # drift in host speed or heap state falls on both alike
            while not traced or spent < seconds:
                plain += run_passes(setup.ops, 0, None, digests, gauge)
                uninstall = tracing.install(tracer)
                try:
                    for _ in range(2):
                        traced += run_passes(setup.ops, 0, tracer, digests,
                                             gauge)
                finally:
                    uninstall()
                spent = sum(o.seconds for p in plain + traced for o in p)
            flat = [o for p in traced for o in p]
            speed = sum(o.scaled for o in flat) / sum(o.seconds for o in flat)
            per_layer = tracing.layer_metrics(tracer, len(traced), speed)
            for tag in {o.op.tag for o in flat if o.op.tag}:
                per_layer[tag] = sum(o.scaled for o in flat
                                     if o.op.tag == tag) / len(traced)
            per_layer["trace.overhead_ratio"] = (
                sum(typical_ms(traced).values())
                / sum(typical_ms(plain).values()))
            if name == "cli":
                per_layer.update(workloads.cli_start_probe(gauge))
            result["metrics"] = per_layer
            passes = plain + traced
    finally:
        if setup is not None:
            setup.cleanup()

    flat = [o for p in passes for o in p]
    result.update({
        "correct": not any(o.wrong for o in flat),
        "attempted": len(flat),
        "failed": sum(not o.ok for o in flat),
        "passes": len(passes),
        "kernel_ms": gauge.kernel_s * 1e3,
        "setup_peak_rss_mb": setup_rss,
        "failures": sorted({f"{o.op.key}: {o.reason}"
                            for o in flat if not o.ok}),
    })
    if record:
        result["digests"] = {o.op.key: o.digest for o in passes[0]
                             if o.digest is not None}
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=("full", "tiny"), default="full",
                    help="tiny is for the harness smoke test")
    ap.add_argument("--record-digests", action="store_true",
                    help="record output digests instead of checking them")
    args = ap.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.sizes, args.record_digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
