"""Outside-in span tracer for ecomplex, kept entirely in the benchmark.

``install(tracer)`` wraps every public function of the layer modules
(cli, fileio, matrix, metrics, model, validation) and rebinds every name
in ``ecomplex.*`` that refers to one. Rebinding every binding matters:
``cli`` calls library functions through from-imports and
``compute_metrics`` calls ``fitness_complexity`` through its own module
globals, so wrapping only the defining attribute would miss those calls.
Nothing under ``src/`` is edited.

Each call becomes a span: name, start, end, parent span, pass id and
status (``ok`` or the exception class name), plus a few counts taken
from arguments or results. Spans stay in memory until ``dump``.

As a launcher it runs one CLI command the way the console script does::

    python bench/tracer.py SPANS_JSON PASS_ID -- ingest trade.csv ...

It imports the package inside an ``import.package`` span, installs the
wrappers, calls ``ecomplex.cli.main(argv)`` and writes the spans to
SPANS_JSON when the command ends. Run it with ``-X importtime`` to get
the import profile on stderr.

Only ``sys`` and ``time`` are imported before the package, so the count
of modules the package import adds is the same as in a plain process.
"""

import sys
import time

LAYERS = ("cli", "fileio", "matrix", "metrics", "model", "validation")


def _counts_before(name, args, kwargs):
    if name == "metrics.fitness_complexity":
        m = args[0]
        return {"cells": m.n_countries * m.n_products}
    if name == "model.simulate_world":
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "exact")
        samples = kwargs.get("samples", args[2] if len(args) > 2 else None)
        return {"samples": int(samples) if mode in ("monte_carlo", "mc") else 0}
    return None


def _counts_after(name, args, result):
    if name == "fileio.read_trade_csv":
        return {"entries": len(result.vals)}
    if name == "fileio.read_matrix":
        return {"entries": len(result.rows)}
    if name == "fileio.write_matrix":
        return {"entries": len(args[0].rows)}
    if name == "matrix.rca_binarize":
        return {"candidates": len(args[0].vals), "kept": result.n_entries}
    if name == "model.simulate_world":
        return {"products": result.matrix.n_products}
    if name == "validation.join_panel":
        return {"matched": len(result[2].matched), "panel": len(args[1].country_labels)}
    return None


class Tracer:
    """In-memory span recorder. ``pass_id`` tags every span opened after it
    is set; the benchmark sets it once per pass."""

    def __init__(self, pass_id="setup"):
        self.spans = []
        self.pass_id = pass_id
        self._stack = []

    def record(self, name, start, end, counts=None):
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": self._stack[-1] if self._stack else None,
                           "pass": self.pass_id, "status": "ok", "counts": counts or {}})

    def wrap(self, name, fn):
        import functools
        import inspect

        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "pass": self.pass_id, "status": "ok",
                    "counts": _counts_before(name, args, kwargs) or {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["status"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["counts"].update(_counts_after(name, args, result) or {})
            return result

        return traced

    def _wrap_generator(self, fn):
        """Generators do their work while the caller iterates, so they get
        no span of their own: each item yielded is counted on the span
        that was open when iteration began."""
        import functools

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            owner = None
            for item in fn(*args, **kwargs):
                if owner is None and self._stack:
                    owner = self.spans[self._stack[-1]]["counts"]
                if owner is not None:
                    owner["yields"] = owner.get("yields", 0) + 1
                yield item

        return counted

    def dump(self, path, extra=None):
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


def install(tracer) -> None:
    """Wrap the public functions of every layer module and rebind them."""
    import types

    import ecomplex.cli  # noqa: F401  (cli is not imported by the package)

    wrapped = {}
    for layer in LAYERS:
        module = sys.modules["ecomplex." + layer]
        for name in module.__all__:
            fn = getattr(module, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                wrapped[fn] = tracer.wrap(f"{layer}.{name}", fn)
    for modname, module in list(sys.modules.items()):
        if modname != "ecomplex" and not modname.startswith("ecomplex."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                setattr(module, attr, wrapped[value])


def import_package(tracer):
    """Import ecomplex and its CLI inside an ``import.package`` span."""
    before = len(sys.modules)
    start = time.perf_counter()
    import ecomplex

    loaded = len(sys.modules) - before
    import ecomplex.cli  # noqa: F401

    tracer.record("import.package", start, time.perf_counter(),
                  {"modules_loaded": loaded})
    return ecomplex


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON PASS_ID -- <ecomplex arguments>", file=sys.stderr)
        return 2
    spans_path, pass_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(pass_id)
    ecomplex = import_package(tracer)
    start = time.perf_counter()
    install(tracer)
    tracer.record("trace.install", start, time.perf_counter())
    try:
        return ecomplex.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
