"""Command-line front end: build matrices, compute det/per, run checks and sweeps.

Exit codes: 0 = no failing checks, 1 = at least one fail verdict,
2 = usage or input error.  Handlers only forward flags and print results;
main is the one place an error becomes exit 2, and verify.run_check and
verify.run_sweep decide which inputs a cell and a sweep take.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from typing import IO, Callable, Iterable

# before numpy loads: nothing in this package calls BLAS; ROADMAP item 13's blocked LU must revisit it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from . import detper, matgen, verify
from .matgen import EntryKind, Matrix
from .modnum import ModCtx, is_prime

CAUCHY_BY_NAME = {k.value: k for k in EntryKind}


#: positional names of `check` and `sweep`; conj1..conj10 are `conj --id N`
CHECK_NAMES = tuple(dict.fromkeys(
    "conj" if check_id.removeprefix("conj").isdigit() else check_id for check_id in verify.CHECKS
))

#: `check` flags forwarded to verify.run_check when given: every cell param
CELL_FLAGS = tuple(verify.SWEEP_BOUNDS)
#: `sweep` flags forwarded to verify.run_sweep when given: every sweep bound
SWEEP_FLAGS = tuple(b for bounds in verify.SWEEP_BOUNDS.values() for b in bounds)


# ---------------------------------------------------------------------------
# report serialization


def emit_reports(reports: Iterable[verify.CheckReport], fmt: str, out: IO[str]) -> list[verify.CheckReport]:
    reports = list(reports)
    if fmt == "jsonl":
        for r in reports:
            record = r.as_record()
            record["elapsed_ms"] = round(record["elapsed_ms"], 3)
            out.write(json.dumps(record) + "\n")
    elif fmt == "csv":
        writer = csv.DictWriter(out, [f.name for f in dataclasses.fields(verify.CheckReport)])
        writer.writeheader()
        for r in reports:
            record = r.as_record()
            record["params"] = json.dumps(record["params"])
            record["elapsed_ms"] = f"{record['elapsed_ms']:.3f}"
            writer.writerow(record)
    elif fmt == "tty":
        counts = {verify.PASS: 0, verify.FAIL: 0, verify.INCONCLUSIVE: 0, verify.NOT_APPLICABLE: 0}
        for r in reports:
            counts[r.verdict] += 1
            ptxt = " ".join(f"{k}={v}" for k, v in r.params.items())
            out.write(
                f"[{r.verdict:>14}] {r.check_id} {ptxt}  computed={r.computed or '-'} "
                f"expected={r.expected}  ({r.elapsed_ms:.1f} ms)\n"
            )
        out.write(
            f"{len(reports)} checks: {counts[verify.PASS]} pass, {counts[verify.FAIL]} fail, "
            f"{counts[verify.INCONCLUSIVE]} inconclusive, "
            f"{counts[verify.NOT_APPLICABLE]} not-applicable\n"
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown format {fmt!r}")
    return reports


# ---------------------------------------------------------------------------
# matrix input/output helpers


def _load_matrix(path: str) -> Matrix:
    try:
        if path == "-":
            return matgen.read_matrix(sys.stdin)
        with open(path) as fh:
            return matgen.read_matrix(fh)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read matrix from {path}: {e}") from None


# ---------------------------------------------------------------------------
# builders and engines, by the name the command line gives them


def _build_quadform(args: argparse.Namespace) -> Matrix:
    if args.exact and args.mod is not None:
        raise ValueError("--mod and --exact are mutually exclusive")
    ctx = None if args.exact else ModCtx(args.p if args.mod is None else args.mod)
    exponent = args.exp if args.exp is not None else args.p - 2
    return matgen.quad_form_matrix(args.p, args.c, args.d, args.range, exponent, ctx)


def _build_cauchy(args: argparse.Namespace) -> Matrix:
    ctx = ModCtx(args.mod)
    size = {"p-1": args.p - 1, "p": args.p, "half": (args.p - 1) // 2}[args.set]
    return matgen.cauchy_type_matrix(CAUCHY_BY_NAME[args.cauchy_kind], size, args.diag, ctx)


def _build_polyeval(args: argparse.Namespace) -> Matrix:
    try:
        coeffs = json.loads(args.coeffs)
    except json.JSONDecodeError as e:
        raise ValueError(f"--coeffs must be a JSON list of lists: {e}") from None
    return matgen.poly_eval_matrix(coeffs, args.n)


#: det engines by --engine name, in the order --help lists them
DET_ENGINES: dict[str, Callable[[Matrix], int]] = {
    "field": detper.det_field,
    "ring": detper.det_mod,
    "bareiss": lambda m: detper.det_exact(m, reduce_ctx=m.ctx),
    "naive": detper.det_naive,
    "checkerboard": lambda m: detper.factor_checkerboard(m, "det"),
}

#: per engines by --engine name, in the order --help lists them
PER_ENGINES: dict[str, Callable[[Matrix], int]] = {
    "ryser": detper.per_ryser,
    "naive": detper.per_naive,
    "checkerboard": lambda m: detper.factor_checkerboard(m, "per"),
}


def _det_fallback(matrix: Matrix) -> str:
    if matrix.ctx is None:
        return "bareiss"
    return "field" if is_prime(matrix.ctx.modulus) else "ring"


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_build(args: argparse.Namespace) -> int:
    matrix = args.build(args)
    if args.out is None or args.out == "-":
        matgen.write_matrix(matrix, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            matgen.write_matrix(matrix, fh)
    return 0


def _resolve_input(args: argparse.Namespace) -> Matrix:
    """The matrix file, reduced mod --mod if it is exact; a bad --mod raises ValueError."""
    matrix = _load_matrix(args.matrix)
    if args.mod is None:
        return matrix
    if matrix.ctx is not None:
        if matrix.ctx.modulus != args.mod:
            raise ValueError(f"matrix is mod {matrix.ctx.modulus}; --mod {args.mod} conflicts")
        return matrix
    ctx = ModCtx(args.mod)  # first: reducing by a --mod of 0 would divide by zero
    return Matrix(matrix.entries % ctx.modulus, ctx)


def cmd_engine(args: argparse.Namespace) -> int:
    """det or per by the named engine; auto takes checkerboard where the support allows it."""
    engine = args.engine
    matrix = _resolve_input(args)
    if engine == "auto":
        supported = not detper.checkerboard_violations(matrix).any()
        engine = "checkerboard" if supported else args.fallback(matrix)
    value = args.engines[engine](matrix)
    print(value)
    print(f"engine: {engine}", file=sys.stderr)
    return 0


def _check_id(args: argparse.Namespace) -> str:
    if args.check != "conj":
        if args.id is not None:
            raise ValueError(f"{args.check} takes no --id")
        return args.check
    if args.id is None:
        raise ValueError("conj needs --id")
    return f"conj{args.id}"


def _given(args: argparse.Namespace, flags: tuple[str, ...]) -> dict:
    return {k: getattr(args, k) for k in flags if getattr(args, k) is not None}


def cmd_check(args: argparse.Namespace) -> int:
    reports = verify.run_check(_check_id(args), _given(args, CELL_FLAGS), args.per_order_cap)
    emit_reports(reports, args.format, sys.stdout)
    return verify.exit_code(reports)


def cmd_sweep(args: argparse.Namespace) -> int:
    reports = verify.run_sweep(_check_id(args), jobs=args.jobs, per_order_cap=args.per_order_cap,
                               **_given(args, SWEEP_FLAGS))
    emit_reports(reports, args.format, sys.stdout)
    return verify.exit_code(reports)


# ---------------------------------------------------------------------------
# argument parsing


def _add_build(cmd: argparse.ArgumentParser) -> None:
    bsub = cmd.add_subparsers(dest="kind", required=True)
    bq = bsub.add_parser("quadform", help="powers of i^2 + c*i*j + d*j^2 over an index grid")
    bq.add_argument("--p", type=int, required=True, help="grid bound (order p, or p-1 with --range from1)")
    bq.add_argument("--c", type=int, required=True)
    bq.add_argument("--d", type=int, required=True)
    bq.add_argument("--range", choices=("full0", "from1"), default="full0")
    bq.add_argument("--exp", type=int, default=None, help="exponent (default: p-2)")
    bq.add_argument("--mod", type=int, default=None, help="modulus (default: p)")
    bq.add_argument("--exact", action="store_true", help="exact integer entries")
    bq.set_defaults(build=_build_quadform)
    bc = bsub.add_parser("cauchy", help="difference/ratio matrices over indices 1..size")
    bc.add_argument("--kind", dest="cauchy_kind", choices=sorted(CAUCHY_BY_NAME), required=True)
    bc.add_argument("--p", type=int, required=True)
    bc.add_argument("--set", choices=("p-1", "p", "half"), default="p-1",
                    help="index set: 1..p-1, 1..p, or 1..(p-1)/2")
    bc.add_argument("--diag", choices=("zero", "one"), required=True)
    bc.add_argument("--mod", type=int, required=True)
    bc.set_defaults(build=_build_cauchy)
    bi = bsub.add_parser("invform", help="inverse quadratic-form matrices mod p")
    bi.add_argument("--p", type=int, required=True)
    bi.add_argument("--which", choices=verify.INVERSE_FORM_WHICH, required=True)
    bi.set_defaults(build=lambda a: matgen.inverse_form_matrix(a.p, a.which))
    bp = bsub.add_parser("primeind", help="0/1 matrix with 1 where i+j is prime")
    bp.add_argument("--n", type=int, required=True)
    bp.set_defaults(build=lambda a: matgen.prime_indicator_matrix(a.n))
    bcb = bsub.add_parser("checkerboard", help="random checkerboard-supported integer matrix")
    bcb.add_argument("--n", type=int, required=True)
    bcb.add_argument("--seed", type=int, required=True)
    bcb.add_argument("--symmetric", action="store_true")
    bcb.set_defaults(build=lambda a: matgen.random_checkerboard_matrix(a.n, a.seed, a.symmetric))
    bsk = bsub.add_parser("skewcheckerboard", help="random skew checkerboard matrix of order 2m")
    bsk.add_argument("--m", type=int, required=True)
    bsk.add_argument("--seed", type=int, required=True)
    bsk.set_defaults(build=lambda a: matgen.random_skew_checkerboard_matrix(a.m, a.seed))
    bpe = bsub.add_parser("polyeval", help="[P(i, j)] for a low-degree integer polynomial")
    bpe.add_argument("--n", type=int, required=True)
    bpe.add_argument("--coeffs", required=True,
                     help="JSON list of lists: coeffs[k][l] multiplies x^k * j^l")
    bpe.set_defaults(build=_build_polyeval)
    for builder in bsub.choices.values():
        builder.add_argument("--out", default=None)
    cmd.set_defaults(handler=cmd_build)


def _add_engine(cmd: argparse.ArgumentParser, engines: dict, fallback: Callable[[Matrix], str]) -> None:
    cmd.add_argument("matrix")
    cmd.add_argument("--mod", type=int, default=None, help="reduce an exact matrix mod this")
    cmd.add_argument("--engine", choices=("auto", *engines), default="auto")
    cmd.set_defaults(handler=cmd_engine, engines=engines, fallback=fallback)


def _add_cells(cmd: argparse.ArgumentParser, flags: tuple[str, ...], handler: Callable) -> None:
    for name in (n for n in flags if n not in verify.CHOICES):  # CHOICES follow --id
        cmd.add_argument(f"--{name}", type=int, default=None)
    if handler is cmd_sweep:
        cmd.add_argument("--jobs", type=int, default=1,
                         help="parallel workers (changes wall time only, never output)")
    cmd.add_argument("check", choices=CHECK_NAMES)
    cmd.add_argument("--id", type=int, default=None, help="conjecture number for 'conj'")
    for name, values in verify.CHOICES.items():
        cmd.add_argument(f"--{name}", choices=values, default=None)
    cmd.add_argument("--per-order-cap", type=int, default=None,
                     help="override the permanent size gate")
    cmd.add_argument("--format", choices=("jsonl", "csv", "tty"), default="tty",
                     help="report format (default: tty)")
    cmd.set_defaults(handler=handler)


#: subcommands in the order --help lists them: their help and what adds their arguments
COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "build": ("build a matrix and write it in the text format", _add_build),
    "det": ("determinant of a matrix file ('-' for stdin)",
            lambda cmd: _add_engine(cmd, DET_ENGINES, _det_fallback)),
    "per": ("permanent of a matrix file ('-' for stdin)",
            lambda cmd: _add_engine(cmd, PER_ENGINES, lambda matrix: "ryser")),
    "check": ("run a single check", lambda cmd: _add_cells(cmd, CELL_FLAGS, cmd_check)),
    "sweep": ("run a check over a parameter range", lambda cmd: _add_cells(cmd, SWEEP_FLAGS, cmd_sweep)),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, built once per process and command; nothing may change it after.

    A named command leaves the other four out, but its help, usage and errors read as
    the full parser's; top-level --help and a bad or missing command need None.
    """
    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="Exact determinant/permanent workbench for modular congruence checks.",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_text, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:  # pragma: no cover
        return 0
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
