"""The four workloads.  Each factory takes the seed and a size preset and
returns the ops of one pass; README.md says why each workload exists.

Expected outputs are computed here, at set-up, from the input tables:
composite sizes from the Gambino-Kock fiber-size formula, extension
fiber sizes by nesting the sum-of-products count, and CLI outputs from
the same documents composed in this process.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# Library functions are called as polyspan.<name>, so that the wrappers
# tracing.install binds into the package are the ones that run.
import polyspan
from polyspan import (FinSetMap, FinSetObj, IndexedFamily, InvariantViolation,
                      Polynomial, RelPolynomial, identity)
from polyspan.checks import embed_poly, random_document
from polyspan.gen import (rand_composable_modpolys, rand_poly, rand_relation,
                          rand_relpoly, rand_subset)

from bench import RUNGS, START_GAUGE, Op, Setup, import_probe

HERE = Path(__file__).resolve().parent
SRC = Path(polyspan.__file__).resolve().parents[1]

SIZES = {
    "full": {
        "set-scaling": {"n": (25, 50, 100, 200)},
        "mod-compose": {"pairs": 800, "ladder": (100, 200, 400, 800, 1200)},
        "gate": {"share": 64},     # rung K runs K/64 of each suite
        "cli": {"set_n": 100, "rel_n": (64, 128, 256, 512)},
    },
    "tiny": {
        "set-scaling": {"n": (2, 4, 8, 16)},
        "mod-compose": {"pairs": 3, "ladder": (2, 4, 8, 16)},
        "gate": {"share": 1000},
        "cli": {"set_n": 4, "rel_n": (4, 8, 16, 32)},
    },
}

MOD_TAB_CAP = 20
# 4x the slowest ladder rung; a seeded pair can reach a prof_iso search
# that runs for minutes (README.md, mod-compose)
MOD_BUDGET_S = 1.0
LADDER_COPIES = 12
CLI_COPIES = 3

# The acceptance gate (tests/test_acceptance.py): its seed and the full
# case count of each seeded suite.
ACCEPTANCE_SEED = 0
ACCEPTANCE_COUNTS = {
    "extension-oracle": 200, "distributivity-terminality": 200,
    "rel-kleisli": 300, "grothendieck-roundtrip": 100,
    "comprehensive-factorization": 100, "groupoid-criterion": 200,
    "mod-h-pseudofunctor": 100, "rel-h-formula": 100,
    "discrete-reduction": 50,
}
# Suites that ignore seed and count: run once per pass, whole.
FIXED_SUITES = ("map-characterization", "cli-determinism")


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


# -- closed forms -----------------------------------------------------------

def _fibers(table, size: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(size)]
    for i, j in enumerate(table):
        out[j].append(i)
    return out


def gk_sizes(q: Polynomial, p: Polynomial) -> tuple[int, int]:
    """|S'| and |E'| of q o p from fiber sizes alone (Gambino & Kock,
    arXiv:0906.4931): a position is s with a choice of p-position over
    m1(e) for each e over s; its directions are the p-directions of the
    chosen positions."""
    a = [len(f) for f in _fibers(p.p.table, p.Y.size)]
    m2_fib = [len(f) for f in _fibers(p.m2.table, p.S.size)]
    b = [sum(m2_fib[t] for t in f) for f in _fibers(p.p.table, p.Y.size)]
    s_new = e_new = 0
    for es in _fibers(q.m2.table, q.S.size):
        ys = [q.m1.table[e] for e in es]
        prod = 1
        for y in ys:
            prod *= a[y]
        s_new += prod
        for i, y in enumerate(ys):
            rest = 1
            for j, y2 in enumerate(ys):
                if j != i:
                    rest *= a[y2]
            e_new += b[y] * rest
    return s_new, e_new


def ext_fiber_sizes(p: Polynomial, fam: list[int]) -> list[int]:
    """Fiber sizes of the extension of p on a family with these fiber
    sizes: a sum over positions of a product over directions."""
    out = [0] * p.Y.size
    for s, es in enumerate(_fibers(p.m2.table, p.S.size)):
        prod = 1
        for e in es:
            prod *= fam[p.m1.table[e]]
        out[p.p.table[s]] += prod
    return out


def _monomial(d: int) -> Polynomial:
    one, e = FinSetObj(1), FinSetObj(d)
    return Polynomial(one, e, one, one, FinSetMap(e, one, (0,) * d),
                      FinSetMap(e, one, (0,) * d), identity(one))


def _structured(rng: random.Random, n: int) -> Polynomial:
    """|X| = |S| = |Y| = n, two directions per position, p the identity."""
    x, e = FinSetObj(n), FinSetObj(2 * n)
    return Polynomial(x, e, x, x,
                      FinSetMap(e, x, tuple(rng.randrange(n)
                                            for _ in range(2 * n))),
                      FinSetMap(e, x, tuple(i // 2 for i in range(2 * n))),
                      identity(x))


def _two_point_family(n: int) -> IndexedFamily:
    base, total = FinSetObj(n), FinSetObj(2 * n)
    return IndexedFamily(base, total,
                         FinSetMap(total, base,
                                   tuple(i // 2 for i in range(2 * n))))


def _split_documents(out: bytes) -> list[dict]:
    text, docs, pos = out.decode(), [], 0
    decoder = json.JSONDecoder()
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


def _text(kind: str, value) -> str:
    return polyspan.serialize(polyspan.document(kind, value))


# -- set-scaling ------------------------------------------------------------

def set_scaling(seed: int, sizes: str) -> Setup:
    rng = _rng(seed, "set-scaling")
    ops = []
    for i, n in enumerate(SIZES[sizes]["set-scaling"]["n"]):
        p, q = _structured(rng, n), _structured(rng, n)
        fam = _two_point_family(n)
        want_s, want_e = gk_sizes(q, p)
        want_fib = ext_fiber_sizes(q, ext_fiber_sizes(p, [2] * n))

        def run(tracer, tq=_text("polynomial", q), tp=_text("polynomial", p),
                fam=fam) -> bytes:
            comp = polyspan.compose_poly(polyspan.parse(tq).payload,
                                         polyspan.parse(tp).payload)
            ext = polyspan.extension_eval(comp, fam)
            return (_text("polynomial", comp) + _text("family", ext)).encode()

        def check(out: bytes, want=(want_s, want_e, want_fib)) -> str | None:
            comp, ext = (d["payload"] for d in _split_documents(out))
            fib = [0] * ext["base"]
            for y in ext["proj"]:
                fib[y] += 1
            got = (comp["s"], comp["e"])
            if got != want[:2]:
                return f"composite |S|,|E| = {got}, closed form {want[:2]}"
            if fib != want[2]:
                return "extension fiber sizes differ from the nested count"
            return None

        ops.append(Op(f"n{n}", run, check, rung=RUNGS[i]))
    return Setup(ops)


# -- mod-compose ------------------------------------------------------------

def _roundtrip_check(out: bytes) -> str | None:
    text = out.decode()
    if polyspan.serialize(polyspan.parse(text)) != text:
        return "output is not a serialize-parse fixed point"
    return None


def mod_compose(seed: int, sizes: str) -> Setup:
    """One pass: the seeded pairs in LADDER_COPIES chunks, the ladder
    rungs after each chunk (so each rung is timed in several host
    phases), then the d = 1200 op."""
    cfg = SIZES[sizes]["mod-compose"]
    rng = _rng(seed, "mod-compose")
    pairs = []
    while len(pairs) < cfg["pairs"]:
        # tab_cap keeps the heavy tail of the generator out of the seeded
        # pairs, so a pass costs about the same for every seed; a pair
        # that still runs past its budget fails and is left out of the
        # timings
        pair = rand_composable_modpolys(rng, tab_cap=MOD_TAB_CAP)
        if pair is not None:
            p, q = pair
            pairs.append(_mod_op(f"pair-{len(pairs):04d}",
                                 _text("mod-polynomial", q),
                                 _text("mod-polynomial", p),
                                 _roundtrip_check))
    ladder = []
    for i, d in enumerate(cfg["ladder"]):
        q, p = _monomial(d), _monomial(1)
        want = gk_sizes(q, p)

        def check(out: bytes, want=want) -> str | None:
            reason = _roundtrip_check(out)
            if reason:
                return reason
            payload = _split_documents(out)[0]["payload"]
            got = (payload["s"]["objects"],
                   sum(map(sum, payload["m"]["at"])))
            if got != want:
                return f"composite sizes {got}, closed form {want}"
            return None

        # the fifth size, d = 1200, is off the ladder: it raises
        # RecursionError at this commit and is kept as a failed op
        ladder.append(_mod_op(f"ladder-d{d}", _text("mod-polynomial",
                                                    embed_poly(q)),
                              _text("mod-polynomial", embed_poly(p)), check,
                              RUNGS[i] if i < len(RUNGS) else None))
    rungs, tail = ladder[:len(RUNGS)], ladder[len(RUNGS):]
    return Setup(_interleave(pairs, rungs, LADDER_COPIES) + tail)


def _interleave(others: list[Op], rungs: list[Op], copies: int) -> list[Op]:
    """``others`` in ``copies`` chunks, each followed by all of ``rungs``:
    every rung is then timed several times a pass, in different host
    phases, while the pass stays short."""
    ops: list[Op] = []
    step = -(-len(others) // copies)
    for start in range(0, copies * step, step):
        ops += others[start:start + step] + rungs
    return ops


def _mod_op(key: str, tq: str, tp: str, check, rung: int | None = None) -> Op:
    def run(tracer) -> bytes:
        comp = polyspan.compose_polymod(polyspan.parse(tq).payload,
                                        polyspan.parse(tp).payload)
        return _text("mod-polynomial", comp).encode()
    return Op(key, run, check, rung=rung, budget_s=MOD_BUDGET_S)


# -- gate -------------------------------------------------------------------

def _report_bytes(report) -> bytes:
    return json.dumps({"name": report.name, "count": report.count,
                       "failures": list(report.failures)}).encode()


def gate(seed: int, sizes: str) -> Setup:
    """Rung K runs the first K/share of every seeded suite's acceptance
    cases.  The suites run at the acceptance seed whatever ``seed`` is:
    at other seeds some cases search for minutes (README.md, gate),
    and whether a run meets one would decide its time."""
    del seed
    share = SIZES[sizes]["gate"]["share"]
    plan = [(suite, max(1, k * full // share), k)
            for k in RUNGS for suite, full in ACCEPTANCE_COUNTS.items()]
    plan += [(suite, None, None) for suite in FIXED_SUITES]
    ops = []
    for suite, count, rung in plan:
        def run(tracer, suite=suite, count=count) -> bytes:
            return _report_bytes(polyspan.run_suite(suite, ACCEPTANCE_SEED,
                                                    count))

        def check(out: bytes, count=count) -> str | None:
            report = json.loads(out)
            if report["failures"]:
                return (f"{len(report['failures'])} failing cases: "
                        f"{report['failures'][0][:200]}")
            if count is not None and report["count"] != count:
                return f"ran {report['count']} cases, asked for {count}"
            return None

        key = suite if rung is None else f"{suite}-x{rung}"
        ops.append(Op(key, run, check, rung=rung,
                      tag=f"checks.suite_s.{suite}"))
    return Setup(ops)


# -- cli --------------------------------------------------------------------

def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _sparse_relpoly(rng: random.Random, n: int) -> RelPolynomial:
    """About 2.5 partners per position, so composites stay nonempty."""
    x = FinSetObj(n)
    z = rand_subset(rng, x, keep=0.9)
    zo = z.as_object()
    return RelPolynomial(x, x, z,
                         rand_relation(rng, x, zo,
                                       density=2.5 / max(zo.size, 1)))


def _cli_result(code: int, stdout: bytes, stderr: bytes) -> bytes:
    return b"exit %d\n" % code + stdout + b"-- stderr --\n" + stderr


def cli(seed: int, sizes: str) -> Setup:
    work = Path.cwd() / ".perfbench_work" / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    def cleanup() -> None:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:     # another run still uses it
            pass

    try:
        return Setup(_cli_ops(seed, SIZES[sizes]["cli"], work), cleanup)
    except BaseException:
        cleanup()
        raise


def _cli_ops(seed: int, cfg: dict, work: Path) -> list[Op]:
    rng = _rng(seed, "cli")

    def write(name: str, text: str) -> str:
        (work / name).write_text(text, encoding="utf-8")
        return str(work / name)

    cases = []   # (key, rung, argv, expected bytes)

    def compose_case(key, kind, dkind, q, p, fn, rung=None):
        tq, tp = _text(dkind, q), _text(dkind, p)
        want = _text(dkind, fn(q, p)).encode()
        argv = ["compose", "--kind", kind, write(f"{key}-q.json", tq),
                write(f"{key}-p.json", tp)]
        cases.append((key, rung, argv, _cli_result(0, want, b"")))

    sizes3 = [FinSetObj(rng.randint(1, 3)) for _ in range(3)]
    p_small = rand_poly(rng, sizes3[0], sizes3[1])
    compose_case("set-small", "set", "polynomial",
                 rand_poly(rng, sizes3[1], sizes3[2]), p_small,
                 polyspan.compose_poly)
    x, c, d = (FinSetObj(rng.randint(1, 4)) for _ in range(3))
    compose_case("rel-small", "rel", "rel-polynomial", rand_relpoly(rng, c, d),
                 rand_relpoly(rng, x, c), polyspan.compose_polyrel)
    pair = None
    while pair is None:
        pair = rand_composable_modpolys(rng)
    compose_case("mod-small", "mod", "mod-polynomial", pair[1], pair[0],
                 polyspan.compose_polymod)
    n = cfg["set_n"]
    p_big = _structured(rng, n)
    compose_case(f"set-n{n}", "set", "polynomial", _structured(rng, n),
                 p_big, polyspan.compose_poly)
    for i, m in enumerate(cfg["rel_n"]):
        compose_case(f"rel-n{m}", "rel", "rel-polynomial",
                     _sparse_relpoly(rng, m), _sparse_relpoly(rng, m),
                     polyspan.compose_polyrel, rung=RUNGS[i])

    fam = _two_point_family(n)
    want = _text("family", polyspan.extension_eval(p_big, fam)).encode()
    cases.append(("eval", None,
                  ["eval", str(work / f"set-n{n}-p.json"),
                   write("family.json", _text("family", fam))],
                  _cli_result(0, want, b"")))

    s = rng.randrange(1 << 20)
    want = polyspan.serialize(random_document("mod-polynomial", s)).encode()
    cases.append(("random", None,
                  ["random", "--kind", "mod-polynomial", "--seed", str(s)],
                  _cli_result(0, want, b"")))

    report = polyspan.run_suite("cli-determinism", 0)
    want = f"cli-determinism: ok ({report.count} cases, seed 0)\n".encode()
    cases.append(("check", None, ["check", "cli-determinism"],
                  _cli_result(0, want, b"")))

    bad = json.loads(_text("polynomial", p_big))
    bad["payload"]["m1"][0] = bad["payload"]["x"]      # lands outside X
    bad_text = json.dumps(bad, sort_keys=True, indent=2) + "\n"
    try:
        polyspan.parse(bad_text)
        raise AssertionError("the invalid document parsed")
    except InvariantViolation as e:
        want_err = f"error: {e}\n".encode()
    cases.append(("invalid", None,
                  ["compose", "--kind", "set", write("invalid.json", bad_text),
                   str(work / f"set-n{n}-p.json")],
                  _cli_result(2, b"", want_err)))

    env = _env()
    ops = []
    for key, rung, argv, want in cases:
        def run(tracer, argv=argv, key=key) -> bytes:
            if tracer is None:
                cmd = [sys.executable, "-m", "polyspan.cli", *argv]
            else:
                trace_out = work / f"{key}.trace.json"
                cmd = [sys.executable, str(HERE / "tracing.py"),
                       str(trace_out), "--", *argv]
            r = subprocess.run(cmd, capture_output=True, env=env,
                               timeout=120, check=False)
            if tracer is not None:
                tracer.merge(json.loads(trace_out.read_text()))
            return _cli_result(r.returncode, r.stdout, r.stderr)

        def check(out: bytes, want=want) -> str | None:
            got_code = out.split(b"\n", 1)[0]
            want_code = want.split(b"\n", 1)[0]
            if got_code != want_code:
                return (f"{got_code.decode()}, expected {want_code.decode()}; "
                        f"{out[-300:].decode(errors='replace')}")
            if out != want:
                return "output bytes differ from the in-process result"
            return None

        ops.append(Op(key, run, check, rung=rung))
    return _interleave([o for o in ops if o.rung is None],
                       [o for o in ops if o.rung is not None], CLI_COPIES)


def cli_start_probe(gauge, reps: int = 5) -> dict[str, float]:
    """Interpreter start plus ``import polyspan.cli`` with no work, and
    the import alone, as medians at reference speed."""
    probes = [import_probe(gauge, "polyspan.cli") for _ in range(reps)]
    return {"cli.start_ms": statistics.median(p[0] for p in probes) * 1e3,
            "cli.import_ms": statistics.median(p[1] for p in probes) * 1e3}


# Workloads whose ops start interpreters; the rest use bench.PYTHON_GAUGE.
GAUGES = {"cli": START_GAUGE}

WORKLOADS = {
    "set-scaling": set_scaling,
    "mod-compose": mod_compose,
    "gate": gate,
    "cli": cli,
}
