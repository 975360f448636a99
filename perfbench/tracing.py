"""Spans around the public functions of each multiroots layer, from outside.

`Tracer.install` replaces each listed function at every ``multiroots.*``
module attribute that holds it.  Wrapping only the defining module would miss
most calls, because solver, verification, report_io and cli import these
functions by name.  `Tracer.uninstall` puts the originals back.

A span records name, start, end, parent span and operation id.  Spans stay in
memory until `write_spans`.  Self time is a span's duration minus the time
covered by its child spans.  The program is a single process with no queue,
so no layer ever waits on another: there is no waiting time to report.
"""

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "multiroots.polynomials": ("evaluate", "evaluate_derivative",
                               "log_derivative_sum", "evaluation_noise",
                               "expand_from_roots"),
    "multiroots.solver": ("step", "solve"),
    "multiroots.convergence": ("estimate_order", "check_conditions"),
    "multiroots.verification": ("verify_roots",),
    "multiroots.report_io": ("load_problem", "save_problem", "load_report",
                             "save_report"),
    "multiroots.precision": ("format_real", "parse_real"),
    "multiroots.cli": ("main",),
}


def span_name(module, function):
    return f"{module.rsplit('.', 1)[1]}.{function}"


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:  # the call itself reports a missing file
        return 0


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, op id)
        self._stack = []       # [id, child time] of the open spans
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.op = None
        self.bytes_written = 0
        self.bytes_read = 0
        # (poly, x, bits) keys of the evaluate calls of the open solve
        self._evaluated = None
        self.evaluate_in_solve = 0
        self.evaluate_repeats = 0
        self._restore = []

    def install(self):
        homes = {name: importlib.import_module(name) for name in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "multiroots"
                                         or n.startswith("multiroots."))]
        for module_name, functions in TRACED.items():
            home = homes[module_name]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(span_name(module_name, function), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, name, args, kwargs):
        if name == "polynomials.evaluate" and self._evaluated is not None:
            poly, x = args[0], args[1]
            bits = (args[2] if len(args) > 2 else kwargs.get("bits")) \
                or poly.precision_bits
            key = (id(poly), x, bits)
            self.evaluate_in_solve += 1
            self.evaluate_repeats += key in self._evaluated
            self._evaluated.add(key)
        elif name == "solver.solve":
            self._evaluated = set()
        elif name in ("report_io.load_problem", "report_io.load_report"):
            self.bytes_read += _size(args[0])

    def _after(self, name, args):
        if name == "solver.solve":
            self._evaluated = None
        elif name == "report_io.save_problem":
            self.bytes_written += _size(args[1])
        elif name == "report_io.save_report":
            self.bytes_written += _size(args[2])

    def _call(self, name, fn, args, kwargs):
        self._before(name, args, kwargs)
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.spans[span_id] = (span_id, name, start, end, parent, self.op)
            self._after(name, args)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
