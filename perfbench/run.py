"""Sweep benchmark for congruence-lab.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload field-large --seed 1 --seconds 45 --trace 0

A workload is a fixed list of ``sweep`` command lines (``workloads.json``);
the seed only shuffles their order.  Each pass runs the whole list through
``congruence_lab.cli.main(... --format jsonl --jobs 1)`` in a fresh
interpreter, and every report of every pass is checked by ``gate.py``.  Passes
repeat until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics: ``sweep_s`` (first ``cli.main``
call to last report written, fastest pass), ``setup_s`` (a fresh interpreter
importing ``congruence_lab.cli`` and building its parser, median of several),
``peak_rss_mb`` of the pass process (median) and ``correct_share``
(1 - error share).  Load from other tenants only ever adds time to a pass,
so the fastest pass is the least disturbed one, and it spread less between
runs than the median pass did.
Both times are CPU time (user + system) of the process doing the work, which
equals its wall time on an idle machine: on a shared virtual machine the wall
time also counts time other tenants hold the CPU, and it spread by a quarter
between runs where CPU time spread by a few per cent.  Wall times are
printed beside them.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics of ``tracing.py`` and ``trace.overhead_s``, then times the layer
probes of ``child.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Reports, spans and a
summary with the machine fingerprint are left in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
SETUP_CODE = "import congruence_lab.cli as cli; cli.build_parser()"
#: children still running this long after the start are killed, so a run ends within 180 s
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "correct_share": "share"}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), (".s", "s"), ("_share", "share"), ("_ops", "ops"),
                         ("_terms", "terms"), ("bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


class Runner:
    def __init__(self, started: float):
        self.hard_deadline = started + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # an ambient permanent cap would change which cells do work
        self.env.pop("CONGRUENCE_LAB_MAX_PER_N", None)

    def python(self, args: list[str], stdout=subprocess.DEVNULL) -> subprocess.CompletedProcess:
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child process")
        try:
            return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env, stdout=stdout,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[:1]} ran past {HARD_LIMIT_S} s and was killed") from None

    def setup_sample(self) -> tuple[float, float]:
        """(CPU time, wall time) of a fresh interpreter that gets ready to parse arguments."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = self.python(["-c", SETUP_CODE])
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise BenchError(f"importing congruence_lab.cli failed:\n{proc.stderr}")
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        return cpu, wall

    def child(self, spec: dict, stdout_path: Path | None = None) -> tuple[dict | None, str]:
        """Run child.py; returns (its result or None if it failed, its stderr)."""
        spec = dict(spec, result=str(OUT / "result.json"), spans=str(OUT / "spans.json"))
        Path(spec["result"]).unlink(missing_ok=True)
        args = [str(HERE / "child.py"), json.dumps(spec)]
        if stdout_path is None:
            proc = self.python(args)
        else:
            with open(stdout_path, "w") as out:
                proc = self.python(args, stdout=out)
        if proc.returncode != 0:
            return None, proc.stderr
        return json.loads(Path(spec["result"]).read_text()), proc.stderr


def run_pass(runner: Runner, sweeps: list, trace: bool) -> dict:
    reports = OUT / "reports.jsonl"
    t0 = time.monotonic()
    result, stderr = runner.child({"mode": "sweep", "sweeps": sweeps, "trace": trace}, reports)
    records = [json.loads(line) for line in reports.read_text().splitlines() if line.strip()]
    p = {"trace": trace, "wall_s": time.monotonic() - t0, "result": result, "stderr": stderr,
         "records": records, "bytes": reports.stat().st_size}
    if result is not None and trace:
        spans = json.loads((OUT / "spans.json").read_text())
        p["layers"] = tracing.layer_metrics(spans, result["sweep_s"])
    return p


def measure(runner: Runner, sweeps: list, kinds: list[bool], deadline: float) -> list[dict]:
    """Passes cycling through ``kinds`` (trace flags), one of each at least,
    and more while the median pass still fits before ``deadline``."""
    passes = []
    while True:
        passes.append(run_pass(runner, sweeps, kinds[len(passes) % len(kinds)]))
        per_pass = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= len(kinds) and time.monotonic() + per_pass > deadline:
            return passes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "congruence_lab" / "cli.py").is_file():
        raise BenchError(f"no congruence_lab sources under {ROOT / 'src'}")
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    reference = json.loads((HERE / "reference.json").read_text())
    sweeps = list(workloads[args.workload]["sweeps"])
    random.Random(args.seed).shuffle(sweeps)
    caps = gate.sweep_caps(sweeps)
    OUT.mkdir(exist_ok=True)
    runner = Runner(started)
    deadline = started + args.seconds
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; sweeps in this order:")
    for argv_ in sweeps:
        print("  " + " ".join(argv_))

    setup, setup_wall = [], []
    if not args.trace:
        runner.setup_sample()  # compiles the bytecode cache; not timed
        setup, setup_wall = map(list, zip(*(runner.setup_sample() for _ in range(SETUP_SAMPLES))))
    passes = measure(runner, sweeps, [False, True] if args.trace else [False], deadline)

    attempted, failed = 0, 0
    for i, p in enumerate(passes, 1):
        cells, errors = gate.check_records(p["records"], reference["workloads"][args.workload], caps)
        attempted += cells
        failed += len(errors)
        kind = "traced" if p["trace"] else "untraced"
        if p["result"] is None:
            print(f"pass {i} ({kind}) exited with an error:\n{p['stderr']}")
        else:
            print(f"pass {i} ({kind}): sweep_s {p['result']['sweep_s']:.4f} CPU, "
                  f"{p['result']['sweep_wall_s']:.4f} wall, "
                  f"{len(p['records'])} reports, {len(errors)} errors")
        for e in errors:
            print(f"  error: {e}")
    good = [p for p in passes if p["result"] is not None]
    untraced = [p["result"] for p in good if not p["trace"]]
    traced = [p for p in good if p["trace"]]
    if not untraced or (args.trace and not traced):
        raise BenchError("no pass completed, so nothing was measured")

    sweep_s = [r["sweep_s"] for r in untraced]
    fp = dict(untraced[0]["fingerprint"], nproc=os.cpu_count(),
              cpus_usable=len(os.sched_getaffinity(0)), cpu=cpu_model())
    print("fingerprint " + json.dumps(fp))

    if args.trace:
        metrics = tracing.median_metrics([p["layers"] for p in traced])
        metrics["cli.bytes"] = statistics.median(p["bytes"] for p in traced)
        for verdict in ("pass", "fail", "inconclusive", "not-applicable"):
            metrics["verify." + verdict.replace("-", "_")] = sum(
                r["verdict"] == verdict for r in traced[0]["records"])
        traced_s = statistics.median(p["result"]["sweep_s"] for p in traced)
        metrics["trace.overhead_s"] = traced_s - statistics.median(sweep_s)
        probes, stderr = runner.child({"mode": "probe"})
        if probes is None:
            raise BenchError(f"layer probes failed:\n{stderr}")
        for name, seconds in probes["times"].items():
            metrics[name] = seconds
            attempted += 1
            if probes["values"][name] != reference["probes"][name]:
                failed += 1
                print(f"  error: {name} computed {probes['values'][name]}, "
                      f"reference {reference['probes'][name]}")
        print("matrix-to-array conversion happens inside the engines, so it is counted "
              "in detper.*_s, not in matgen.build_s; *_ops and *_terms are computed counts")
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "sweep_s": min(sweep_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "correct_share": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
        print(f"sweep_s      {metrics['sweep_s']:.4f} s CPU, fastest pass; median "
              f"{statistics.median(sweep_s):.4f} ({quartiles(sweep_s)}); wall median "
              f"{statistics.median(r['sweep_wall_s'] for r in untraced):.4f} s")
        print(f"setup_s      {metrics['setup_s']:.4f} s CPU, median ({quartiles(setup)}); "
              f"wall median {statistics.median(setup_wall):.4f} s")
    print(f"error_share  {failed / attempted:.6g} ({failed} of {attempted} cells)")
    for name, value in metrics.items():
        print(f"{name:<36} {value:.6g} {units[name]}")

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "fingerprint": fp, "sweeps": sweeps, "setup_s": setup, "setup_wall_s": setup_wall,
               "passes": [{k: p[k] for k in ("trace", "wall_s", "bytes")}
                          | {k: p["result"][k] for k in ("sweep_s", "sweep_wall_s", "peak_rss_mb", "exit_codes")}
                          for p in good],
               "metrics": metrics}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
