"""One pass of the benchmark in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``PYTHONPATH`` set
to the checkout's ``src``.  The spec is ``{"mode": "sweep", "sweeps": [...],
"trace": bool, "result": path, "spans": path}`` or ``{"mode": "probe",
"result": path}``.  In sweep mode every sweep goes through
``congruence_lab.cli.main`` with ``--format jsonl --jobs 1``, so the reports
land on this process's standard output; timings go to the result file.
``sweep_s`` is the CPU time (user + system, all threads) of this process
from the first ``cli.main`` call to the last report written; the wall time
is kept beside it as ``sweep_wall_s``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_program():
    import congruence_lab.cli

    where = Path(congruence_lab.cli.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"congruence_lab was imported from {where}, not from {SRC}")
    return congruence_lab.cli


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ.get(k) for k in
           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "CONGRUENCE_LAB_MAX_PER_N")},
    }


def run_sweeps(spec: dict) -> dict:
    cli = _import_program()
    main = cli.main
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    exit_codes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in spec["sweeps"]:
        exit_codes.append(main(argv + ["--format", "jsonl", "--jobs", "1"]))
    sys.stdout.flush()
    sweep_s = time.process_time() - cpu0
    sweep_wall_s = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    return {"sweep_s": sweep_s, "sweep_wall_s": sweep_wall_s, "peak_rss_mb": peak_rss_mb,
            "exit_codes": exit_codes,
            "fingerprint": fingerprint()}


def _probes():
    """(metric, repeats, prepare, run): ``run(prepare())`` is timed, at ROADMAP baseline sizes."""
    from congruence_lab.detper import det_exact, det_field, per_ryser
    from congruence_lab.matgen import EntryKind, cauchy_type_matrix, quad_form_matrix
    from congruence_lab.modnum import ModCtx

    def quad_form_n498():
        # c = d = 1: its det mod 499 is not 0, so the recorded value is a real check
        return quad_form_matrix(499, 1, 1, "from1", 497, ModCtx.prime(499))

    def conj10_family(p, order):
        ctx = ModCtx.prime_power(p, 3)
        return cauchy_type_matrix(EntryKind.RATIO_SUM_SQUARES, order, "one", ctx), ctx

    return [
        ("probe.quad_form_matrix.n498_s", 5, lambda: None, lambda _: quad_form_n498()),
        ("probe.det_field.n498_s", 3, quad_form_n498, det_field),
        ("probe.det_exact.p199_o99_s", 1, lambda: conj10_family(199, 99),
         lambda mc: det_exact(mc[0], reduce_ctx=mc[1])),
        ("probe.per_ryser.o16_s", 3,
         lambda: cauchy_type_matrix(EntryKind.INV_DIFF, 16, "zero", ModCtx.prime_power(17, 2)),
         per_ryser),
        ("probe.cauchy_type_matrix.o249_s", 3, lambda: None,
         lambda _: conj10_family(499, 249)[0]),
    ]


def run_probes() -> dict:
    """Median time and value of each layer probe (a built matrix's value is its entry sum)."""
    _import_program()
    times, values = {}, {}
    for metric, repeats, prepare, run in _probes():
        samples = []
        for _ in range(repeats):
            arg = prepare()
            t0 = time.perf_counter()
            value = run(arg)
            samples.append(time.perf_counter() - t0)
        times[metric] = statistics.median(samples)
        values[metric] = str(sum(map(sum, value.entries)) if hasattr(value, "entries") else value)
    return {"times": times, "values": values}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = run_sweeps(spec) if spec["mode"] == "sweep" else run_probes()
    Path(spec["result"]).write_text(json.dumps(result))
