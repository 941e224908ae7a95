"""Run the polyspan benchmark from the root of a checkout.

    python3 perfbench/run.py --workload set-scaling --seed 0 \
        --seconds 15 --trace 0

``--workload all`` runs the four workloads one after another.  Each
workload runs in its own child process (bench.py) with ``src`` on the
import path.  Every metric is printed by name and unit, followed by
the failure ratio and the run environment; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with
``--trace 1``, as listed in BENCHMARK.json).  ``--save FILE`` also
writes each child's full result, environment included.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("set-scaling", "mod-compose", "gate", "cli")
CHILD_TIMEOUT_S = 170


def run_child(name: str, args: argparse.Namespace, root: Path) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # own session, so a timeout can stop the child and any CLI it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: child exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def report(result: dict, wanted: list[dict],
           per_layer: bool) -> dict[str, dict]:
    """Print every wanted metric by name and unit; return them in the
    result-line shape."""
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"recursion limit {env['recursion_limit']}  "
          f"gauge kernel {result['kernel_ms']:.3f} ms")
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]
        elif per_layer:
            value = 0.0     # a layer this workload does not reach
        else:
            raise RuntimeError(f"{result['workload']}: no value for {name}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"  {name:<44} {value:>14.4f} {spec['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<44} {ratio:>14.4f} "
          f"({result['failed']} of {result['attempted']} ops, "
          f"{result['passes']} passes)")
    for line in result["failures"]:
        print(f"  failed: {line}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the children's full results here")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polyspan" / "__init__.py").is_file():
        print("error: run from the root of a polyspan checkout "
              "(src/polyspan is missing)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, line = [], {"correct": True, "attempted": 0, "failed": 0,
                         "metrics": {}}
    try:
        for name in names:
            result = run_child(name, args, root)
            results.append(result)
            metrics = report(result, wanted, bool(args.trace))
            line["correct"] = line["correct"] and result["correct"]
            line["attempted"] += result["attempted"]
            line["failed"] += result["failed"]
            if len(names) == 1:
                line["metrics"] = metrics
            else:
                line["metrics"].update({f"{name}/{k}": v
                                        for k, v in metrics.items()})
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
