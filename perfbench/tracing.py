"""Per-layer tracing of the polyspan library from outside it.

``install`` replaces the public functions of each layer module (and a few
named methods) with wrappers that record a span per call: name, start,
end, parent span and op id.  Spans stay in memory for the length of one
op; ``Tracer.end_op`` folds them into per-name totals, where a span's
self time is its duration minus the time its child spans cover.  Counts
are read from arguments and return values at the same boundaries.

Run as a script it is the traced form of the ``polyspan`` command:

    python3 perfbench/tracing.py OUT.json -- compose --kind set q.json p.json

runs ``polyspan.cli.main`` under tracing and writes the folded totals to
OUT.json; stdout, stderr and the exit code are the command's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable

LAYERS = ("finset", "unionfind", "spans", "polyset", "relpoly", "fincat",
          "modpoly", "documents", "checks", "cli")

# Methods traced besides the module-level public functions; __post_init__
# is reported as "init".  Other methods stay unwrapped because they are
# tiny and hot enough for a wrapper to swamp them.
METHODS = {
    "finset": {"FinSetMap": ("fiber", "__post_init__")},
    "spans": {"PBAround": ("__post_init__",)},
    "fincat": {"FinCat": ("__post_init__",)},
    "modpoly": {"Profunctor": ("__post_init__",)},
    "unionfind": {"UnionFind": ("unite", "find", "classes")},
}

# name -> (counter suffix, function of (args, result) giving the count)
COUNTERS = {
    "finset.pullback": ("pairs", lambda args, res: res.apex.size),
    "finset.pi_f": ("sections", lambda args, res: res.obj.size),
    "polyset.extension_eval": ("elements", lambda args, res: res.total.size),
    "documents.parse": ("bytes", lambda args, res: len(args[0].encode())),
    "documents.serialize": ("bytes", lambda args, res: len(res.encode())),
}


class Tracer:
    """Span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: list = []      # (name, start_ns, end_ns, parent, op)
        self._stack: list[int] = []
        self.op = 0
        # name -> [calls, total_ns, self_ns]; counters keyed "name.suffix"
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                counts[key] = counts.get(key, 0) + counter[1](args, result)
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        """Fold the op's spans into the totals and drop them."""
        spans = self.spans
        covered = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            t = self.totals.setdefault(name, [0, 0, 0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - covered[i]
        spans.clear()

    def merge(self, folded: dict) -> None:
        """Add totals folded in another process (see ``dump``)."""
        for name, vals in folded["totals"].items():
            t = self.totals.setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                t[i] += v
        for key, v in folded["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + v

    def dump(self) -> dict:
        return {"totals": self.totals, "counts": self.counts}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function and rebind each module-level alias of
    it in the polyspan package, including values held in module-level
    dicts (such as the CLI's compose table and the suite registry).
    Return a function that puts every original back."""
    undo: list[Callable[[], None]] = []
    replace: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"polyspan.{layer}")
        for attr, value in list(vars(mod).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                replace[id(value)] = tracer.wrap(f"{layer}.{attr}", value)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                label = "init" if meth == "__post_init__" else meth
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{label}",
                                               original))
                undo.append(functools.partial(setattr, cls, meth, original))
    for name, mod in list(sys.modules.items()):
        if name != "polyspan" and not name.startswith("polyspan."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, attr, replace[id(value)])
                undo.append(functools.partial(setattr, mod, attr, value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replace:
                        value[key] = replace[id(item)]
                    elif isinstance(item, tuple):
                        value[key] = tuple(replace.get(id(x), x)
                                           for x in item)
                    else:
                        continue
                    undo.append(functools.partial(value.__setitem__, key,
                                                  item))

    def uninstall() -> None:
        for step in reversed(undo):
            step()
    return uninstall


def layer_metrics(tracer: Tracer, per: int,
                  speed: float) -> dict[str, float]:
    """Per-layer values divided by ``per`` (the number of passes):
    ``<name>.calls``, ``.self_ms``, ``.total_ms`` and every counter.
    Times are multiplied by ``speed``, the factor to reference speed."""
    out: dict[str, float] = {}
    ms = speed / 1e6 / per
    for name, (calls, total, self_ns) in tracer.totals.items():
        out[f"{name}.calls"] = calls / per
        out[f"{name}.total_ms"] = total * ms
        out[f"{name}.self_ms"] = self_ns * ms
    for key, v in tracer.counts.items():
        out[key] = v / per
    return out


def _main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py OUT.json -- <polyspan args>")
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["polyspan.cli"]
    try:
        return cli.main(cli_args)
    finally:
        tracer.end_op()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
