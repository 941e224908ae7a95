"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from polyspan import FinSetObj, compose_poly  # noqa: E402
from polyspan.gen import rand_poly  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GAUGE = bench.Gauge()


def tiny_result(name: str, trace: int) -> dict:
    """One workload at tiny sizes, in its own process as run.py does it."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "bench.py"), "--workload", name,
         "--seed", "5", "--seconds", "0.3", "--trace", str(trace),
         "--sizes", "tiny"],
        capture_output=True, check=True, cwd=ROOT, timeout=170,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return json.loads(out.stdout.decode().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(name, trace): tiny_result(name, trace)
            for name in run.WORKLOADS for trace in (0, 1)}


def test_workload_list_matches_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_end_to_end_metric_emitted_with_unit(results, name, capsys):
    result = results[(name, 0)]
    assert result["correct"] and result["failed"] == 0, result["failures"]
    line = run.report(result, SPEC["end_to_end"], per_layer=False)
    printed = capsys.readouterr().out
    for spec in SPEC["end_to_end"]:
        metric = line[spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0, spec["name"]
        assert f"{spec['name']} " in printed and spec["unit"] in printed
    assert result["env"]["recursion_limit"] == sys.getrecursionlimit()


def test_every_per_layer_metric_is_measured_somewhere(results):
    seen: dict[str, float] = {}
    for name in run.WORKLOADS:
        result = results[(name, 1)]
        assert result["correct"] and result["failed"] == 0, result["failures"]
        line = run.report(result, SPEC["per_layer"], per_layer=True)
        for spec in SPEC["per_layer"]:
            assert line[spec["name"]]["unit"] == spec["unit"]
        for key, value in result["metrics"].items():
            seen[key] = max(seen.get(key, 0.0), value)
    missing = [s["name"] for s in SPEC["per_layer"] if not seen.get(s["name"])]
    assert not missing


def test_uninstall_restores_every_binding():
    import polyspan
    import tracing

    for layer in tracing.LAYERS:     # install imports them all
        importlib.import_module(f"polyspan.{layer}")

    def bindings() -> list[dict]:
        # module-level dicts are copied: install rebinds their entries
        return [{k: dict(v) if isinstance(v, dict) else v
                 for k, v in vars(m).items() if not k.startswith("__")}
                for name, m in sorted(sys.modules.items())
                if name == "polyspan" or name.startswith("polyspan.")]

    before, compose = bindings(), polyspan.compose_poly
    uninstall = tracing.install(tracing.Tracer())
    assert polyspan.compose_poly is not compose
    assert bindings() != before
    uninstall()
    assert bindings() == before
    assert not hasattr(polyspan.FinSetMap.__post_init__, "__wrapped__")


def test_corrupted_output_counts_as_failed():
    ops = workloads.set_scaling(5, "tiny").ops
    small, large = ops[0], ops[1]
    swapped = bench.Op(small.key, large.run, small.check)
    passes = bench.run_passes([swapped, small], 0, None, None, GAUGE)
    bad, good = passes[0]
    assert not bad.ok and bad.wrong and "closed form" in bad.reason
    assert good.ok
    garbled = bench.Op("garbled", lambda tracer: b"{not json", small.check)
    [[outcome]] = bench.run_passes([garbled], 0, None, None, GAUGE)
    assert not outcome.ok and outcome.wrong


def test_recorded_digest_mismatch_counts_as_failed():
    op = workloads.set_scaling(5, "tiny").ops[0]
    [[outcome]] = bench.run_passes([op], 0, None, {op.key: "0" * 16},
                                   GAUGE)
    assert not outcome.ok and "digest" in outcome.reason


def test_op_without_recorded_digest_is_judged_by_its_check():
    # an op that failed when digests were recorded has no entry; once a
    # fix makes it produce output, its closed-form check decides
    op = workloads.set_scaling(5, "tiny").ops[0]
    [[outcome]] = bench.run_passes([op], 0, None, {}, GAUGE)
    assert outcome.ok


def test_check_calls_are_not_counted_as_the_ops():
    import polyspan
    import tracing

    text = workloads._text("polynomial", workloads._monomial(3))
    op = bench.Op("roundtrip", lambda tracer: text.encode(),
                  workloads._roundtrip_check)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        [[outcome]] = bench.run_passes([op], 0, tracer, None, GAUGE)
        polyspan.parse(text)        # outside a check: counted
    finally:
        uninstall()
    assert outcome.ok
    assert tracer.counts == {"documents.parse.bytes": len(text.encode())}
    assert "documents.serialize" not in tracer.totals


def test_raising_op_fails_and_the_run_goes_on():
    def recurse(depth: int) -> int:
        return recurse(depth + 1)

    raising = bench.Op("deep", lambda tracer: recurse(0), lambda out: None)
    op = workloads.set_scaling(5, "tiny").ops[0]
    passes = bench.run_passes([raising, op], 0, None, None, GAUGE)
    crashed, after = passes[0]
    assert not crashed.ok and not crashed.wrong
    assert crashed.reason.startswith("RecursionError")
    assert after.ok


def test_op_over_budget_fails_and_the_run_goes_on():
    def spin(tracer) -> bytes:
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass
        return b""

    slow = bench.Op("spin", spin, lambda out: None, budget_s=0.05)
    op = workloads.set_scaling(5, "tiny").ops[0]
    start = time.perf_counter()
    [[late, after]] = bench.run_passes([slow, op], 0, None, None, GAUGE)
    assert time.perf_counter() - start < 2
    assert not late.ok and late.reason.startswith("BudgetExceeded")
    assert after.ok
    # its time is the budget's, so it is left out of the timings
    assert late.timed_out and list(bench.typical_ms([[late, after]])) == [
        op.key]


def test_ops_per_s_counts_each_run_of_an_op():
    ops = [bench.Op(key, None, None) for key in ("a", "b", "late")]

    def outcome(op, ms, ok=True, timed_out=False):
        return bench.Outcome(op, ms / 1e3, 1.0, ok, False, None, None,
                             timed_out, scaled=ms / 1e3)

    a, b, late = ops
    passes = [[outcome(a, 10), outcome(b, 20), outcome(a, 10),
               outcome(late, 1000, ok=False, timed_out=True)]] * 3
    metrics = bench.end_to_end(passes, 1.0, 1.0)
    # three completed ops in 40 ms; the op stopped at its budget is out
    assert metrics["ops_per_s"] == pytest.approx(75.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    r = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                        "set-scaling", "--seed", "1", "--seconds", "1"],
                       cwd=tmp_path, capture_output=True, timeout=60)
    assert r.returncode != 0 and not r.stdout


def test_closed_forms_match_the_library():
    rng = random.Random(7)
    for _ in range(30):
        x, y, z = (FinSetObj(rng.randint(1, 3)) for _ in range(3))
        p, q = rand_poly(rng, x, y), rand_poly(rng, y, z)
        comp = compose_poly(q, p)
        assert workloads.gk_sizes(q, p) == (comp.S.size, comp.E.size)
        fam = [rng.randint(0, 3) for _ in range(x.size)]
        inner = workloads.ext_fiber_sizes(p, fam)
        assert (workloads.ext_fiber_sizes(comp, fam)
                == workloads.ext_fiber_sizes(q, inner))
