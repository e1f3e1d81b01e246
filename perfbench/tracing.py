"""Spans around the calls into each layer, for the traced run.

The wrappers live in the benchmark, not the program: each replaces a public
name in the module that looks it up at call time (``congruence_lab.verify``
for the builders, engines and scalar helpers it calls, ``congruence_lab.cli``
for report serialisation).  A wrapper records one span and passes arguments,
return value and exceptions through unchanged.  Spans stay in memory until
the pass ends.

Matrix-to-array conversion happens inside the engines, so it is counted in
the engine's self time, not in ``matgen.build_s``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

#: name looked up in a module -> layer it belongs to
TARGETS = {
    "congruence_lab.verify": {
        "run_check": "verify",
        "quad_form_matrix": "matgen",
        "cauchy_type_matrix": "matgen",
        "inverse_form_matrix": "matgen",
        "det_field": "detper",
        "det_exact": "detper",
        "per_ryser": "detper",
        "legendre": "modnum",
        "jacobi": "modnum",
        "inv_mod": "modnum",
        "double_factorial_mod": "modnum",
        "padic_valuation": "modnum",
        "is_prime": "modnum",
        "odd_primes_in": "modnum",
    },
    "congruence_lab.cli": {"emit_reports": "cli"},
}

ENGINE_WORK = {
    # computed operation counts, not measured ones
    "det_field": ("ops", lambda n: n**3 / 3),
    "det_exact": ("ops", lambda n: n**3 / 3),
    "per_ryser": ("terms", lambda n: n * 2 ** (n - 1)),
}

NAME, START, END, PARENT, CELL, SIZE, OK = range(7)


class Tracer:
    """Records spans ``[name, start, end, parent, cell, size, ok]``.

    ``parent`` is the index of the enclosing span (-1 at top level), ``cell``
    the index of the ``run_check`` call the span belongs to (-1 outside a
    cell), and ``size`` the matrix order for builders and engines or the
    record count for ``emit_reports``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cell = -1
        self._cells = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._cell, None, False]
            self.spans.append(span)
            outer_cell = self._cell
            if name == "run_check":
                self._cell = self._cells
                self._cells += 1
                span[CELL] = self._cell
            self._stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                self._cell = outer_cell
            span[OK] = True
            span[SIZE] = _size(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def _layer_of(name: str) -> str:
    for names in TARGETS.values():
        if name in names:
            return names[name]
    return name.split(".")[0]


def _size(name: str, args: tuple, result) -> int | None:
    layer = _layer_of(name)
    if layer == "detper":
        return args[0].n
    if layer == "matgen":
        return result.n
    if name == "emit_reports":
        return len(result)
    return None


def layer_metrics(spans: list[list], sweep_s: float) -> dict[str, float]:
    """Per-layer self time, calls, work and errors of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children.  ``cli.self_s`` is the self time of the benchmark's own
    ``cli.main`` spans: argument parsing, cell grids and sweep bookkeeping.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    m = {
        "matgen.build_s": 0.0, "matgen.builds": 0, "matgen.entries": 0, "matgen.errors": 0,
        "detper.errors": 0, "modnum.s": 0.0, "modnum.calls": 0,
        "verify.self_s": 0.0, "verify.cells": 0,
        "cli.emit_s": 0.0, "cli.records": 0, "cli.self_s": 0.0,
    }
    for engine, (work, _) in ENGINE_WORK.items():
        m.update({f"detper.{engine}_s": 0.0, f"detper.{engine}_calls": 0,
                  f"detper.{engine}_{work}": 0})
    for i, s in enumerate(spans):
        name, self_s, n = s[NAME], s[END] - s[START] - child_s[i], s[SIZE]
        layer = _layer_of(name)
        if layer == "matgen":
            m["matgen.build_s"] += self_s
            m["matgen.builds"] += 1
            if s[OK]:
                m["matgen.entries"] += n * n
            else:
                m["matgen.errors"] += 1
        elif layer == "detper":
            work, count = ENGINE_WORK[name]
            m[f"detper.{name}_s"] += self_s
            m[f"detper.{name}_calls"] += 1
            if s[OK]:
                m[f"detper.{name}_{work}"] += count(n)
            else:
                m["detper.errors"] += 1
        elif layer == "modnum":
            m["modnum.s"] += self_s
            m["modnum.calls"] += 1
        elif layer == "verify":
            m["verify.self_s"] += self_s
            m["verify.cells"] += 1
        elif name == "emit_reports":
            m["cli.emit_s"] += self_s
            m["cli.records"] += n or 0
        elif name == "cli.main":
            m["cli.self_s"] += self_s
    for engine in ENGINE_WORK:
        m[f"detper.{engine}_share"] = m[f"detper.{engine}_s"] / sweep_s
    m["matgen.build_share"] = m["matgen.build_s"] / sweep_s
    m["trace.spans"] = len(spans)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes; counts repeat exactly, so they stay whole numbers."""
    return {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [p[k] for p in per_pass])
            for k, v in per_pass[0].items()}
