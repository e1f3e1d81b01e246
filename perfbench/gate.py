"""Correctness gate: every report record is checked twice.

1. Its verdict against the workload's expected-verdict rule, which is written
   here from the statements' hypotheses and does not call the program.
2. Its ``computed`` value against the reference recorded in
   ``reference.json``.

A missing, duplicated or unexpected cell is an error too, so a sweep that
raised and stopped early cannot pass.
"""

from __future__ import annotations

import json

PASS = "pass"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"

#: order of the permanent each capped conjecture part evaluates, from p
PER_ORDER = {
    ("conj5", "per"): lambda p: p - 1,
    ("conj6", "i"): lambda p: p - 1,
    ("conj7", "full"): lambda p: p - 1,
    ("conj7", "half"): lambda p: (p - 1) // 2,
    ("conj8", "per"): lambda p: p,
    ("conj9", "per"): lambda p: p - 1,
}


def cell_key(check_id: str, params: dict) -> str:
    return f"{check_id} {json.dumps(params, sort_keys=True)}"


def check_id_of(argv: list[str]) -> str:
    """Check id a ``sweep`` argv produces, e.g. ``conj5`` for ``sweep conj --id 5``."""
    if argv[1] == "conj":
        return "conj" + argv[argv.index("--id") + 1]
    return argv[1]


def sweep_caps(sweeps: list[list[str]]) -> dict[str, int]:
    """Explicit ``--per-order-cap`` of each check id in a workload."""
    return {
        check_id_of(argv): int(argv[argv.index("--per-order-cap") + 1])
        for argv in sweeps
        if "--per-order-cap" in argv
    }


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, written apart from the program's own."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def expected_verdict(check_id: str, params: dict, cap: int | None) -> str:
    p = params.get("p")
    if check_id == "eq15":
        return PASS if p > 3 else NOT_APPLICABLE
    if check_id in ("reflection", "conj3"):
        return PASS
    if check_id == "conj1":
        n = params["n"]
        return PASS if n > 3 and jacobi(params["d"], n) == -1 else NOT_APPLICABLE
    if check_id == "conj2":
        return PASS if p % 4 == 1 and p % 5 in (2, 3) else NOT_APPLICABLE
    if check_id == "conj4":
        return PASS if p % 5 in (2, 3) else NOT_APPLICABLE
    if check_id == "conj10":
        return PASS if p % 4 == 3 and p > 3 else NOT_APPLICABLE
    part = params.get("part")
    if (check_id, part) == ("conj6", "ii") and p == 3:
        return NOT_APPLICABLE
    if (check_id, part) == ("conj7", "half") and p % 4 != 3:
        return NOT_APPLICABLE
    order = PER_ORDER.get((check_id, part))
    if order is not None and cap is not None and order(p) > cap:
        return INCONCLUSIVE
    if check_id in ("conj5", "conj6", "conj7", "conj8", "conj9"):
        return PASS
    raise ValueError(f"no expected-verdict rule for {check_id}")


def check_records(
    records: list[dict], reference: dict[str, str], caps: dict[str, int]
) -> tuple[int, list[str]]:
    """Gate one pass: returns (cells attempted, one message per erroneous cell)."""
    errors = []
    seen: set[str] = set()
    unexpected = 0
    for rec in records:
        check_id, params = rec["check_id"], rec["params"]
        key = cell_key(check_id, params)
        if key not in reference:
            unexpected += 1
            errors.append(f"{check_id} {params}: not a cell of this workload")
            continue
        if key in seen:
            unexpected += 1
            errors.append(f"{check_id} {params}: reported twice")
            continue
        seen.add(key)
        want = expected_verdict(check_id, params, caps.get(check_id))
        if rec["verdict"] != want:
            errors.append(f"{check_id} {params}: verdict {rec['verdict']!r}, rule expects {want!r}")
        elif rec["computed"] != reference[key]:
            errors.append(
                f"{check_id} {params}: computed {rec['computed']!r}, reference {reference[key]!r}"
            )
    for key in reference.keys() - seen:
        errors.append(f"{key}: missing (the sweep raised or stopped early)")
    return len(reference) + unexpected, errors
