"""Write ``reference.json``: the ``computed`` value of every workload cell and
the value of every layer probe, as the program gives them now.

Usage: ``python3 perfbench/record_reference.py``.  It refuses to write when a
verdict breaks its workload's rule.  Record only when a workload's sweeps
change; a change to the program is checked against the existing file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import gate  # noqa: E402


def sweep_records(sweeps: list[list[str]]) -> list[dict]:
    from congruence_lab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in sweeps:
            cli.main(argv + ["--format", "jsonl", "--jobs", "1"])
    return [json.loads(line) for line in out.getvalue().splitlines()]


def main() -> int:
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"]
    reference: dict = {"workloads": {}}
    for name, workload in spec.items():
        caps = gate.sweep_caps(workload["sweeps"])
        cells = {}
        for rec in sweep_records(workload["sweeps"]):
            want = gate.expected_verdict(rec["check_id"], rec["params"], caps.get(rec["check_id"]))
            if rec["verdict"] != want:
                print(f"{name}: {rec['check_id']} {rec['params']} is {rec['verdict']}, "
                      f"the rule expects {want}; not recording", file=sys.stderr)
                return 1
            cells[gate.cell_key(rec["check_id"], rec["params"])] = rec["computed"]
        if len(cells) != workload["cells"]:
            print(f"{name}: {len(cells)} cells, workloads.json says {workload['cells']}",
                  file=sys.stderr)
            return 1
        reference["workloads"][name] = cells
    reference["probes"] = child.run_probes()["values"]
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
