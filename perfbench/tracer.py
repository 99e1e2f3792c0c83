"""Span tracer for one `spintomo` CLI process, installed from outside the package.

Run as a script, it stands in for ``python -m spintomo.cli``:

    python3 perfbench/tracer.py SPANS_JSON OP_ID tomograph --config C --out D

It imports the package, wraps every public function of the layer modules in
each module namespace that holds it, runs ``spintomo.cli.main`` and writes
the spans it kept in memory to SPANS_JSON as it exits.  A span is
``[id, name, start, end, parent_id, op_id]``; ``parent_id`` is -1 at the top.
The benchmark process turns spans into per-function counts and self times
with :func:`summarize`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

PACKAGE = "spintomo"
LAYERS = ("cli", "experiment", "spectral", "tomography", "dynamics", "core")


class Tracer:
    """Owns the spans and counters of one process."""

    def __init__(self, op_id: int, import_s: float):
        self.op_id = op_id
        self.import_s = import_s
        self.spans = []
        self.counters = {}
        self.wrapped = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))
            if name == "spectral.dft_t2":
                tracer.count("spectral.dft_t2.points", getattr(getattr(result, "grid", None), "size", 0))
            return result

        return traced

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def install(self) -> None:
        """Wrap each public function of the layer modules wherever it is bound."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not _is_function(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                originals[id(value)] = self.wrap(name, value)
                self.wrapped.append(name)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                replacement = originals.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def dump(self, path: str) -> None:
        payload = {"op_id": self.op_id, "import_s": self.import_s,
                   "wrapped": sorted(self.wrapped), "counters": self.counters,
                   "spans": self.spans}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _is_function(value) -> bool:
    # functools.lru_cache wrappers are not functions but carry __wrapped__.
    return inspect.isfunction(value) or (
        callable(value) and inspect.isfunction(getattr(value, "__wrapped__", None)))


def summarize(spans) -> dict:
    """{name: [calls, self_s]}; self time excludes time covered by child spans."""
    child_time = {}
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for span_id, name, start, end, _, _ in spans:
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time.get(span_id, 0.0)
    return out


def main(argv) -> int:
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer(op_id, import_s=time.perf_counter() - start)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
