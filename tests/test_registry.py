"""The check registry drives both command-line routes to a cell."""

import argparse
import json
import re

import pytest

from congruence_lab import cli
from congruence_lab.verify import CHECKS

#: the sweep flags each cell param brings, at bounds that keep every grid small
SWEEP_BOUNDS = {"p": ["--pmin", "7", "--pmax", "13"], "n": ["--nmax", "7"],
                "c": ["--cmax", "0"], "d": ["--dmax", "2"]}


def sweep_bounds(check_id):
    """The flags of SWEEP_BOUNDS that check_id's sweep takes, and no others."""
    return [flag for k in CHECKS[check_id].params for flag in SWEEP_BOUNDS.get(k, [])]


def cli_route(check_id):
    """(positional name, extra flags) that select check_id on the command line."""
    m = re.fullmatch(r"conj(\d+)", check_id)
    return ("conj", ["--id", m.group(1)]) if m else (check_id, [])


def positional_choices(subcommand):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[subcommand]._actions if a.dest == "check")


def jsonl(capsys, argv):
    code = cli.main(argv + ["--format", "jsonl"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for r in records:
        del r["elapsed_ms"]
    return code, records


def test_registry_holds_every_check_id():
    assert list(CHECKS) == ["eq15", "p3", "reflection", "dp-theorem", "background",
                            "column-relation"] + [f"conj{k}" for k in range(1, 11)]


@pytest.mark.parametrize("subcommand", ["check", "sweep"])
def test_positional_choices_come_from_the_registry(subcommand):
    names = list(dict.fromkeys(cli_route(check_id)[0] for check_id in CHECKS))
    assert list(positional_choices(subcommand)) == names


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_sweep_and_check_agree_on_each_cell(capsys, check_id):
    name, extra = cli_route(check_id)
    code, records = jsonl(capsys, ["sweep", name, *extra, *sweep_bounds(check_id)])
    assert code == 0 and records
    cells: dict[str, list[dict]] = {}
    for r in records:
        assert r["check_id"] == check_id
        params = {k: v for k, v in r["params"].items() if k != "part"}
        cells.setdefault(json.dumps(params), []).append(r)
    for key, sweep_records in list(cells.items())[:3]:
        flags = [x for k, v in json.loads(key).items() for x in (f"--{k}", str(v))]
        code, check_records = jsonl(capsys, ["check", name, *extra, *flags])
        assert code == 0
        assert check_records == sweep_records
