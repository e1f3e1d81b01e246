"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from congruence_lab import cli  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]
CONJ1_SWEEP = ["sweep", "conj", "--id", "1", "--nmax", "45"]


def run_cli(argv: list[str]) -> tuple[int, list[dict], str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "jsonl"] + (["--jobs", "1"] if argv[0] == "sweep" else []))
    return code, [json.loads(line) for line in out.getvalue().splitlines()], err.getvalue()


def conj1_reference() -> dict[str, str]:
    return {k: v for k, v in REFERENCE["workloads"]["ring-perm"].items() if k.startswith("conj1 ")}


def test_gate_accepts_the_program_output():
    _, records, _ = run_cli(CONJ1_SWEEP)
    attempted, errors = gate.check_records(records, conj1_reference(), {})
    assert attempted == len(records) > 0
    assert errors == []


def test_gate_flags_a_tampered_verdict():
    _, records, _ = run_cli(CONJ1_SWEEP)
    target = next(r for r in records if r["verdict"] == "pass")
    target["verdict"] = "not-applicable"
    _, errors = gate.check_records(records, conj1_reference(), {})
    assert len(errors) == 1
    assert "conj1" in errors[0] and str(target["params"]) in errors[0]


def test_gate_flags_a_tampered_computed_value():
    _, records, _ = run_cli(CONJ1_SWEEP)
    target = next(r for r in records if r["verdict"] == "pass")
    target["computed"] = "1"
    _, errors = gate.check_records(records, conj1_reference(), {})
    assert len(errors) == 1
    assert "computed '1'" in errors[0] and str(target["params"]) in errors[0]


def test_gate_flags_missing_and_duplicated_cells():
    _, records, _ = run_cli(CONJ1_SWEEP)
    attempted, errors = gate.check_records(records[1:] + records[2:3], conj1_reference(), {})
    assert attempted == len(records) + 1
    assert sorted(e.split(": ")[-1] for e in errors) == [
        "missing (the sweep raised or stopped early)", "reported twice"]


def test_inconclusive_rule_follows_the_explicit_cap():
    params = {"p": 19, "part": "per"}
    assert gate.expected_verdict("conj8", params, 18) == gate.INCONCLUSIVE
    assert gate.expected_verdict("conj8", params, 19) == gate.PASS
    assert gate.expected_verdict("conj9", params, 18) == gate.PASS


def without_elapsed(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in records]


SMALL_SWEEPS = [
    ["sweep", "eq15", "--pmin", "5", "--pmax", "13"],
    ["sweep", "background", "--pmax", "13"],
    ["sweep", "conj", "--id", "1", "--nmax", "15"],
    ["sweep", "conj", "--id", "10", "--pmax", "31"],
    ["sweep", "conj", "--id", "6", "--pmax", "13", "--per-order-cap", "10"],
    ["check", "conj", "--id", "7", "--p", "41", "--per-order-cap", "40"],
]


def test_traced_and_untraced_runs_agree():
    plain = [run_cli(argv) for argv in SMALL_SWEEPS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run_cli(argv) for argv in SMALL_SWEEPS]
    finally:
        tracer.uninstall()
    assert not hasattr(cli.emit_reports, "__wrapped__")
    for (code, records, err), (tcode, trecords, terr) in zip(plain, traced):
        assert (code, err) == (tcode, terr)
        assert without_elapsed(records) == without_elapsed(trecords)
    # the last command's permanent order passes the check's gate but not the
    # kernel's own cap: the kernel raises, and the wrapper passes that through
    assert plain[-1][0] == 2 and "exceeds the cap" in plain[-1][2]
    m = tracing.layer_metrics(tracer.spans, 1.0)
    assert m["detper.errors"] == 1
    for s in tracer.spans:
        if s[tracing.NAME] in ("det_field", "det_exact", "per_ryser", "quad_form_matrix"):
            parent = tracer.spans[s[tracing.PARENT]]
            assert parent[tracing.NAME] == "run_check" and parent[tracing.CELL] == s[tracing.CELL]


def test_self_time_subtracts_child_spans():
    spans = [["cli.main", 0.0, 10.0, -1, -1, None, True],
             ["run_check", 1.0, 9.0, 0, 0, None, True],
             ["quad_form_matrix", 2.0, 3.0, 1, 0, 4, True],
             ["det_field", 3.0, 7.0, 1, 0, 4, True]]
    m = tracing.layer_metrics(spans, 10.0)
    assert (m["cli.self_s"], m["verify.self_s"]) == (2.0, 3.0)
    assert (m["matgen.build_s"], m["matgen.entries"]) == (1.0, 16)
    assert (m["detper.det_field_s"], m["detper.det_field_ops"]) == (4.0, 64 / 3)
    assert m["detper.det_field_share"] == 0.4


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == [
        name for name, spec in WORKLOADS.items() if spec.get("in_benchmark_json", True)]
    for name, spec in WORKLOADS.items():
        assert len(REFERENCE["workloads"][name]) == spec["cells"]
    layer_names = set(tracing.layer_metrics([], 1.0)) | {"cli.bytes", "trace.overhead_s"}
    layer_names |= {f"verify.{v}" for v in ("pass", "fail", "inconclusive", "not_applicable")}
    layer_names |= set(REFERENCE["probes"])
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
