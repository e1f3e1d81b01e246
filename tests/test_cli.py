"""Command-line behavior: outputs, formats, engines, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from congruence_lab import cli, matgen, verify
from congruence_lab.modnum import legendre


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build


def test_build_quadform_exact_stdout(capsys):
    code, out, _ = run(capsys, "build", "quadform", "--p", "3", "--c", "1",
                       "--d", "1", "--exact")
    assert code == 0
    assert out == "3 0\n0 1 4\n1 3 7\n4 7 12\n"


def test_build_cauchy_stdout(capsys):
    code, out, _ = run(capsys, "build", "cauchy", "--kind", "invdiff", "--p", "3",
                       "--diag", "zero", "--mod", "9")
    assert code == 0
    assert out == "2 9\n0 8\n1 0\n"


def test_build_primeind_stdout(capsys):
    code, out, _ = run(capsys, "build", "primeind", "--n", "2")
    assert code == 0
    assert out == "2 0\n1 1\n1 0\n"


def test_build_exact_mod_conflict(capsys):
    code, _, err = run(capsys, "build", "quadform", "--p", "5", "--c", "1",
                       "--d", "1", "--exact", "--mod", "5")
    assert code == 2
    assert "mutually exclusive" in err


def test_build_cauchy_non_unit_difference(capsys):
    code, _, err = run(capsys, "build", "cauchy", "--kind", "invdiff", "--p", "7",
                       "--set", "p", "--diag", "zero", "--mod", "3")
    assert code == 2
    assert "error:" in err


def test_build_invform_wrong_residue_class(capsys):
    code, _, err = run(capsys, "build", "invform", "--p", "13",
                       "--which", "half_range_sq")
    assert code == 2


@pytest.mark.parametrize("coeffs", ["5", "[1]", '[["a"]]', "[[1.5]]", "null", "[[1, true]]"])
def test_build_polyeval_rejects_non_integer_coeffs(capsys, coeffs):
    code, out, err = run(capsys, "build", "polyeval", "--n", "3", "--coeffs", coeffs)
    assert (code, out) == (2, "")
    assert err == "error: coeffs must be a list of lists of integers\n"


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "m.txt"
    code, out, _ = run(capsys, "build", "quadform", "--p", "3", "--c", "1",
                       "--d", "1", "--exact", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "3 0\n0 1 4\n1 3 7\n4 7 12\n"


def test_build_to_unwritable_file_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "m.txt"
    code, out, err = run(capsys, "build", "primeind", "--n", "4", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# det / per


@pytest.fixture
def remark_file(tmp_path):
    path = tmp_path / "remark.txt"
    path.write_text("3 0\n0 1 4\n1 3 7\n4 7 12\n")
    return str(path)


def test_det_exact_auto_engine(remark_file, capsys):
    code, out, err = run(capsys, "det", remark_file)
    assert code == 0
    assert out == "-4\n"
    assert err == "engine: bareiss\n"


def test_det_naive_engine(remark_file, capsys):
    code, out, err = run(capsys, "det", remark_file, "--engine", "naive")
    assert (code, out, err) == (0, "-4\n", "engine: naive\n")


def test_det_mod_reduces_exact_input(remark_file, capsys):
    for p in (3, 97, 2**61 - 1):
        code, out, err = run(capsys, "det", remark_file, "--mod", str(p))
        assert code == 0
        assert out == f"{-4 % p}\n"
        assert err == "engine: field\n"


def test_det_field_and_bareiss_agree(remark_file, capsys):
    _, out_field, _ = run(capsys, "det", remark_file, "--mod", "7", "--engine", "field")
    _, out_bareiss, _ = run(capsys, "det", remark_file, "--mod", "7", "--engine", "bareiss")
    assert out_field == out_bareiss == "3\n"


def test_det_mod_conflicts_with_header(tmp_path, capsys):
    path = tmp_path / "m9.txt"
    path.write_text("2 9\n0 8\n1 0\n")
    code, _, err = run(capsys, "det", str(path), "--mod", "7")
    assert code == 2
    assert "conflicts" in err


def test_det_missing_file(capsys):
    code, _, err = run(capsys, "det", "/nonexistent/matrix.txt")
    assert code == 2
    assert "cannot read" in err


def test_per_all_ones(tmp_path, capsys):
    path = tmp_path / "ones.txt"
    path.write_text("3 0\n1 1 1\n1 1 1\n1 1 1\n")
    code, out, err = run(capsys, "per", str(path))
    assert (code, out, err) == (0, "6\n", "engine: ryser\n")
    code, out, _ = run(capsys, "per", str(path), "--engine", "naive")
    assert out == "6\n"


def test_checkerboard_auto_engine_on_primeind(tmp_path, capsys):
    # prime-indicator matrices live on the checkerboard support (2 = 1 + 1)
    target = tmp_path / "pi6.txt"
    run(capsys, "build", "primeind", "--n", "6", "--out", str(target))
    code, out, err = run(capsys, "det", str(target))
    assert (code, out, err) == (0, "-1\n", "engine: checkerboard\n")


def test_stdin_dash_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_lab", "per", "-", "--engine", "naive"],
        input="2 0\n1 2\n3 4\n", capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "10\n"


def test_stdin_extra_row_is_refused():
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_lab", "det", "-"],
        input="2 0\n1 2\n3 4\n5 6\n", capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: cannot read matrix from -: unexpected line after row 2: '5 6'\n"


def _fresh_interpreter(code, **env):
    """stdout of ``python -c code`` with OPENBLAS_NUM_THREADS unset, then ``env`` added."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], env={**environ, **env},
                          capture_output=True, text=True, timeout=30, check=True)
    return proc.stdout


@pytest.mark.parametrize("env, expected", [({}, "1\n"), ({"OPENBLAS_NUM_THREADS": "3"}, "3\n")])
def test_cli_import_pins_openblas_to_one_thread_unless_set(env, expected):
    code = "import os, congruence_lab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_interpreter(code, **env) == expected


@pytest.mark.skipif(sys.platform != "linux", reason="counts the entries of /proc/self/task")
def test_cli_import_starts_no_blas_thread():
    code = "import os, congruence_lab.cli; print(len(os.listdir('/proc/self/task')))"
    assert _fresh_interpreter(code) == "1\n"


def test_library_import_leaves_openblas_threads_alone():
    # someone else's process that imports an engine module keeps its own BLAS settings
    code = "import os, congruence_lab.verify; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_interpreter(code) == "None\n"


def test_trailing_blank_lines_are_accepted(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 0\n1 2\n3 4\n\n  \n")
    assert run(capsys, "det", str(path)) == (0, "-2\n", "engine: bareiss\n")


def test_built_matrix_reads_back(tmp_path, capsys):
    path = tmp_path / "cb.txt"
    code, _, _ = run(capsys, "build", "checkerboard", "--n", "8", "--seed", "1", "--out", str(path))
    assert code == 0
    assert run(capsys, "det", str(path))[:2] == (0, "29509200\n")


@pytest.mark.parametrize("modulus", [2**61 - 1, (2**31 - 1) * (2**31 + 11)])
def test_det_wide_modulus_is_classified_promptly(modulus):
    # a prime and an odd composite with no small factor: classifying either
    # must not stall on trial division
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_lab", "det", "-", "--mod", str(modulus)],
        input="1 0\n5\n", capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "5\n")


def test_det_unproven_prime_modulus_exits_two(capsys, remark_file):
    code, out, err = run(capsys, "det", remark_file, "--mod", str(2**89 - 1))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("modulus", [
    9, 25, 343, 3**5, 15, 45, 225, 3**6, (2**31 - 1) * (2**31 + 11), (2**31 - 1) ** 2,
])
def test_det_non_prime_modulus_auto_engine_is_ring(remark_file, capsys, modulus):
    code, out, err = run(capsys, "det", remark_file, "--mod", str(modulus))
    assert (code, out, err) == (0, f"{-4 % modulus}\n", "engine: ring\n")
    _, out_bareiss, _ = run(capsys, "det", remark_file, "--mod", str(modulus),
                            "--engine", "bareiss")
    assert out_bareiss == out


def test_det_field_engine_refuses_non_prime_modulus(remark_file, capsys):
    code, out, err = run(capsys, "det", remark_file, "--mod", "9", "--engine", "field")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_det_ring_engine_needs_a_modulus(remark_file, capsys):
    code, out, err = run(capsys, "det", remark_file, "--engine", "ring")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _no_more_than_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_under_1_gib(argv):
    return subprocess.run(
        [sys.executable, "-m", "congruence_lab", *argv], capture_output=True, text=True,
        timeout=30, preexec_fn=_no_more_than_1_gib,
    )


@pytest.mark.parametrize("argv", [
    ["check", "conj", "--id", "5", "--p", "20011"],
    ["sweep", "conj", "--id", "5", "--pmax", "20011"],
    ["sweep", "conj", "--id", "1", "--nmax", "4099"],
    ["check", "eq15", "--p", "2053", "--c", "1", "--d", "2"],
])
def test_orders_beyond_max_order_are_refused_before_allocating(argv):
    # an order-20010 matrix would take about 3 GiB; under a 1 GiB address-space
    # limit, allocating it fails with a traceback instead of the one-line error
    proc = run_under_1_gib(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "2048" in proc.stderr


def test_a_matrix_free_check_takes_p_beyond_max_order():
    # conj3 builds no matrix, so p = 20011 runs in O(p) under a 1 GiB limit
    proc = run_under_1_gib(["check", "conj", "--id", "3", "--p", "20011", "--format", "jsonl"])
    assert (proc.returncode, proc.stderr) == (0, "")
    record = json.loads(proc.stdout)
    assert (record["check_id"], record["params"]) == ("conj3", {"p": 20011})
    assert record["verdict"] == "pass"  # 20011 = 3 (mod 8), so the symbol is not -1


def test_a_matrix_free_check_takes_p_up_to_max_units_p():
    # units_grid_det holds O(p) int64 terms, so the largest prime below 10**6 fits in 1 GiB
    proc = run_under_1_gib(["check", "conj", "--id", "3", "--p", "999983", "--format", "jsonl"])
    assert (proc.returncode, proc.stderr) == (0, "")
    record = json.loads(proc.stdout)
    assert (record["check_id"], record["params"]) == ("conj3", {"p": 999983})
    assert (record["computed"], record["verdict"]) == ("0", "pass")  # 999983 = 7 (mod 8)


def test_conj2_and_conj4_take_p_up_to_max_closed_p():
    # 999999999937 = 1 (mod 4) and 2 (mod 5): an inert f with (d/p) = 1, so no O(p) step
    for check_id in ("2", "4"):
        proc = run_under_1_gib(["check", "conj", "--id", check_id, "--p", "999999999937",
                                "--format", "jsonl"])
        assert (proc.returncode, proc.stderr) == (0, "")
        record = json.loads(proc.stdout)
        assert (record["params"], record["verdict"]) == ({"p": 999999999937}, "pass")


def test_a_sweep_to_max_closed_p_stops_sieving_at_max_cells():
    # the window 3..10**12 is never sieved whole: the walk stops after MAX_CELLS + 1 primes
    t0 = time.perf_counter()
    proc = run_under_1_gib(["sweep", "conj", "--id", "2", "--pmax", str(verify.MAX_CLOSED_P)])
    assert time.perf_counter() - t0 < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: conj2 sweep has more than {verify.MAX_CELLS} cells; "
                           "narrow its bounds\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "p3", "--cmax", "20000", "--dmax", "20000"],
    ["sweep", "reflection", "--pmax", "13", "--cmax", "5000", "--dmax", "5000"],
    ["sweep", "reflection", "--pmax", "100000"],  # 49 cells for each of 9591 odd primes
    ["sweep", "background", "--pmax", "1000000"],  # 2 cells for each of 78497 odd primes
    ["sweep", "column-relation", "--pmax", "100000"],  # 49 cells for each of 9591 odd primes
])
def test_grids_beyond_max_cells_are_refused_before_building(argv):
    # built in full, the first two grids would outgrow a 1 GiB address space
    proc = run_under_1_gib(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"more than {verify.MAX_CELLS} cells" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["--p", "1000"],
    ["--p", "5", "--exp", "1000000000"],
])
def test_exact_quadform_too_large_is_refused_before_building(argv):
    # either grid of exact powers would outgrow a 1 GiB address space
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_lab", "build", "quadform", "--c", "1", "--d", "1",
         "--exact", *argv], capture_output=True, text=True, timeout=30,
        preexec_fn=_no_more_than_1_gib,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(matgen.MAX_EXACT_BITS) in proc.stderr


def test_exact_polyeval_too_large_is_refused_before_building(capsys):
    # x-degree 598 at n = 600: about 2 * 10**9 bits of entries, refused from the size bound alone
    t0 = time.perf_counter()
    code, out, err = run(capsys, "build", "polyeval", "--n", "600",
                         "--coeffs", json.dumps([[1]] * 599))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: exact entries would take about ") and err.count("\n") == 1
    assert str(matgen.MAX_EXACT_BITS) in err


def test_exact_polyeval_within_the_bound_still_builds(capsys):
    code, out, err = run(capsys, "build", "polyeval", "--n", "150",
                         "--coeffs", json.dumps([[1]] * 148))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "169ac39dd982de4ec3e742dcd3a1d0ee81fe225231c2cd8ffa8faf71341ca3b2")


# ---------------------------------------------------------------------------
# pinned output: exact stdout, stderr and exit code of each builder and engine


#: matrix files, named by the second word of a det/per command in PINNED
PINNED_FILES = {
    "exact": "3 0\n0 1 4\n1 3 7\n4 7 12\n",
    "prime": "3 7\n1 2 3\n4 5 6\n0 1 5\n",
    "composite": "3 9\n2 4 0\n1 3 7\n5 8 6\n",
    "board": "6 0\n-2 9 0 8 0 -5\n2 0 6 0 9 0\n"
             "0 -7 0 -9 0 6\n-1 0 8 0 -2 0\n0 -3 0 6 0 8\n8 0 6 0 3 0\n",
    "oddboard": "5 0\n-5 9 0 -7 0\n-1 0 -6 0 6\n0 5 0 6 0\n3 0 -3 0 -6\n0 6 0 -9 0\n",
    "negative": "2 -5\n1 2\n3 4\n",
}

#: (command, exit code, stdout, stderr)
PINNED = [
    ("build quadform --p 5 --c 1 --d 2", 0,
     "5 5\n0 3 2 2 3\n1 4 1 3 3\n4 2 1 2 4\n4 4 2 1 2\n1 3 3 1 4\n", ""),
    ("build quadform --p 5 --c 1 --d 2 --range from1 --exp 3 --mod 25", 0,
     "4 25\n14 6 23 3\n12 21 2 9\n19 17 6 2\n23 18 11 19\n", ""),
    ("build quadform --p 3 --c 1 --d 1 --exact", 0, "3 0\n0 1 4\n1 3 7\n4 7 12\n", ""),
    ("build quadform --p 5 --c 1 --d 2 --mod 0", 2,
     "", "error: modulus must be an odd integer >= 3, got 0\n"),
    ("build quadform --p 5 --c 1 --d 2 --mod 8", 2,
     "", "error: modulus must be an odd integer >= 3, got 8\n"),
    ("build cauchy --kind invdiff --p 5 --diag zero --mod 25", 0,
     "4 25\n0 24 12 8\n1 0 24 12\n13 1 0 24\n17 13 1 0\n", ""),
    ("build cauchy --kind ratiosumdiff --p 7 --diag one --mod 49 --set half", 0,
     "3 49\n1 46 47\n3 1 44\n2 5 1\n", ""),
    ("build cauchy --kind invdiffsquares --p 7 --diag one --mod 7 --set half", 0,
     "3 7\n1 2 6\n5 1 4\n1 3 1\n", ""),
    ("build cauchy --kind ratiosumsquares --p 7 --diag zero --mod 343 --set half", 0,
     "3 343\n0 227 256\n116 0 66\n87 277 0\n", ""),
    ("build cauchy --kind invdiff --p 5 --diag zero --mod 1", 2,
     "", "error: modulus must be an odd integer >= 3, got 1\n"),
    ("build invform --p 7 --which half_range_sq", 0, "3 7\n4 3 5\n3 1 6\n5 6 2\n", ""),
    ("build invform --p 5 --which full_range_ij", 0,
     "4 5\n1 2 3 2\n2 4 3 3\n3 3 4 2\n2 3 2 1\n", ""),
    ("build invform --p 9 --which full_range_ij", 2, "", "error: needs an odd prime, got 9\n"),
    ("build primeind --n 4", 0, "4 0\n1 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n", ""),
    ("build primeind --n 0", 2, "", "error: order must be in 1..2048, got 0\n"),
    ("build checkerboard --n 5 --seed 1", 0,
     "5 0\n-5 9 0 -7 0\n-1 0 -6 0 6\n0 5 0 6 0\n3 0 -3 0 -6\n0 6 0 -9 0\n", ""),
    ("build checkerboard --n 4 --seed 2 --symmetric", 0,
     "4 0\n-8 -7 0 -7\n-7 0 2 0\n0 2 0 -4\n-7 0 -4 0\n", ""),
    ("build checkerboard --n 3000 --seed 1", 2, "", "error: order must be in 1..2048, got 3000\n"),
    ("build skewcheckerboard --m 2 --seed 1", 0,
     "4 0\n0 -5 0 9\n5 0 -7 0\n0 7 0 -1\n-9 0 1 0\n", ""),
    ("build checkerboard --n 7 --seed 3 --symmetric", 0,
     "7 0\n-2 9 0 8 0 -5 0\n9 0 2 0 6 0 9\n0 2 0 -7 0 -9 0\n8 0 -7 0 6 0 -1\n"
     "0 6 0 6 0 8 0\n-5 0 -9 0 8 0 -2\n0 9 0 -1 0 -2 0\n", ""),
    ("build skewcheckerboard --m 3 --seed 7", 0,
     "6 0\n0 1 0 -5 0 3\n-1 0 -8 0 -7 0\n0 8 0 8 0 -6\n5 0 -8 0 2 0\n"
     "0 7 0 -2 0 9\n-3 0 6 0 -9 0\n", ""),
    ("build skewcheckerboard --m 0 --seed 1", 2, "", "error: order must be in 1..2048, got 0\n"),
    ("build polyeval --n 4 --coeffs [[1,2],[0,1]]", 0,
     "4 0\n4 7 10 13\n5 9 13 17\n6 11 16 21\n7 13 19 25\n", ""),
    ("build polyeval --n 3 --coeffs [[0],[0],[1]]", 2, "", "error: x-degree 2 is not < n-1 = 2\n"),
    ("build polyeval --n 4 --coeffs [[1,2", 2, "", "error: --coeffs must be a JSON list of "
     "lists: Expecting ',' delimiter: line 1 column 6 (char 5)\n"),
    ("build polyeval --n 1 --coeffs [[1]]", 2, "", "error: order must be >= 2, got 1\n"),
    ("det exact --engine auto", 0, "-4\n", "engine: bareiss\n"),
    ("det exact --engine field", 2, "", "error: det_field needs a prime modulus context\n"),
    ("det exact --engine ring", 2, "", "error: det_mod needs a modulus context\n"),
    ("det exact --engine bareiss", 0, "-4\n", "engine: bareiss\n"),
    ("det exact --engine naive", 0, "-4\n", "engine: naive\n"),
    ("det exact --engine checkerboard", 2,
     "", "error: nonzero entries off the checkerboard support at (1,3), (2,2), (3,1), (3,3)\n"),
    ("per exact --engine auto", 0, "116\n", "engine: ryser\n"),
    ("per exact --engine ryser", 0, "116\n", "engine: ryser\n"),
    ("per exact --engine naive", 0, "116\n", "engine: naive\n"),
    ("per exact --engine checkerboard", 2,
     "", "error: nonzero entries off the checkerboard support at (1,3), (2,2), (3,1), (3,3)\n"),
    ("det prime --engine auto", 0, "5\n", "engine: field\n"),
    ("det prime --engine field", 0, "5\n", "engine: field\n"),
    ("det prime --engine ring", 0, "5\n", "engine: ring\n"),
    ("det prime --engine bareiss", 0, "5\n", "engine: bareiss\n"),
    ("det prime --engine naive", 0, "5\n", "engine: naive\n"),
    ("det prime --engine checkerboard", 2,
     "", "error: nonzero entries off the checkerboard support at (1,3), (2,2), (3,3)\n"),
    ("per prime --engine auto", 0, "6\n", "engine: ryser\n"),
    ("per prime --engine ryser", 0, "6\n", "engine: ryser\n"),
    ("per prime --engine naive", 0, "6\n", "engine: naive\n"),
    ("per prime --engine checkerboard", 2,
     "", "error: nonzero entries off the checkerboard support at (1,3), (2,2), (3,3)\n"),
    ("det composite --engine auto", 0, "4\n", "engine: ring\n"),
    ("det composite --engine field", 2, "", "error: det_field needs a prime modulus context\n"),
    ("det composite --engine ring", 0, "4\n", "engine: ring\n"),
    ("det composite --engine bareiss", 0, "4\n", "engine: bareiss\n"),
    ("det composite --engine naive", 0, "4\n", "engine: naive\n"),
    ("det composite --engine checkerboard", 2,
     "", "error: nonzero entries off the checkerboard support at (2,2), (3,1), (3,3)\n"),
    ("per composite --engine auto", 0, "6\n", "engine: ryser\n"),
    ("per composite --engine ryser", 0, "6\n", "engine: ryser\n"),
    ("per composite --engine naive", 0, "6\n", "engine: naive\n"),
    ("per composite --engine checkerboard", 2,
     "", "error: nonzero entries off the checkerboard support at (2,2), (3,1), (3,3)\n"),
    ("det board --engine auto", 0, "-205428\n", "engine: checkerboard\n"),
    ("det board --engine field", 2, "", "error: det_field needs a prime modulus context\n"),
    ("det board --engine ring", 2, "", "error: det_mod needs a modulus context\n"),
    ("det board --engine bareiss", 0, "-205428\n", "engine: bareiss\n"),
    ("det board --engine naive", 0, "-205428\n", "engine: naive\n"),
    ("det board --engine checkerboard", 0, "-205428\n", "engine: checkerboard\n"),
    ("per board --engine auto", 0, "-363312\n", "engine: checkerboard\n"),
    ("per board --engine ryser", 0, "-363312\n", "engine: ryser\n"),
    ("per board --engine naive", 0, "-363312\n", "engine: naive\n"),
    ("per board --engine checkerboard", 0, "-363312\n", "engine: checkerboard\n"),
    ("det exact --mod 7", 0, "3\n", "engine: field\n"),
    ("per exact --mod 7", 0, "4\n", "engine: ryser\n"),
    ("det exact --mod 9", 0, "5\n", "engine: ring\n"),
    ("per exact --mod 9", 0, "8\n", "engine: ryser\n"),
    ("det board --mod 7", 0, "1\n", "engine: checkerboard\n"),
    ("per board --mod 7", 0, "2\n", "engine: checkerboard\n"),
    ("det board --mod 9", 0, "6\n", "engine: checkerboard\n"),
    ("per board --mod 9", 0, "0\n", "engine: checkerboard\n"),
    ("det oddboard --mod 7", 0, "2\n", "engine: checkerboard\n"),
    ("per oddboard --mod 7", 0, "5\n", "engine: checkerboard\n"),
    ("det oddboard --mod 9", 0, "0\n", "engine: checkerboard\n"),
    ("per oddboard --mod 9", 0, "0\n", "engine: checkerboard\n"),
    ("det oddboard --engine auto", 0, "21870\n", "engine: checkerboard\n"),
    ("per oddboard --engine auto", 0, "810\n", "engine: checkerboard\n"),
    ("det oddboard --engine checkerboard", 0, "21870\n", "engine: checkerboard\n"),
    ("per oddboard --engine checkerboard", 0, "810\n", "engine: checkerboard\n"),
    ("det exact --mod 0", 2, "", "error: modulus must be an odd integer >= 3, got 0\n"),
    ("per exact --mod 0", 2, "", "error: modulus must be an odd integer >= 3, got 0\n"),
    ("det exact --mod 8", 2, "", "error: modulus must be an odd integer >= 3, got 8\n"),
    ("per exact --mod 8", 2, "", "error: modulus must be an odd integer >= 3, got 8\n"),
    ("det composite --mod 7", 2, "", "error: matrix is mod 9; --mod 7 conflicts\n"),
    ("per prime --mod 9", 2, "", "error: matrix is mod 7; --mod 9 conflicts\n"),
    ("det prime --mod 7", 0, "5\n", "engine: field\n"),
    ("det negative", 2,
     "", "error: cannot read matrix from negative.txt: modulus must be >= 0, got -5\n"),
]


@pytest.mark.parametrize("command,code,out,err", PINNED, ids=[case[0] for case in PINNED])
def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys, command, code, out, err):
    argv = command.split()
    if argv[0] != "build":
        monkeypatch.chdir(tmp_path)  # so an error names the file as the command does
        (tmp_path / f"{argv[1]}.txt").write_text(PINNED_FILES[argv[1]])
        argv[1] = f"{argv[1]}.txt"
    assert run(capsys, *argv) == (code, out, err)


# ---------------------------------------------------------------------------
# check


def test_check_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "eq15", "--p", "5", "--c", "1", "--d", "2",
                       "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["check_id", "params", "computed", "expected",
                            "verdict", "elapsed_ms"]
    assert record["check_id"] == "eq15"
    assert record["verdict"] == "pass"
    assert record["params"] == {"p": 5, "c": 1, "d": 2}


def test_check_fail_exit_one(capsys, monkeypatch):
    # force a full-range det whose Legendre symbol is wrong ((1/5) = 1 but
    # (2/5) = -1), then one that vanishes
    for det in (1, 0):
        monkeypatch.setattr("congruence_lab.verify.units_grid_det", lambda p, c, d, det=det: det)
        code, out, _ = run(capsys, "check", "background", "--p", "5", "--which",
                           "full_range_ij", "--format", "jsonl")
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"


def test_check_conj_multi_part(capsys):
    code, out, _ = run(capsys, "check", "conj", "--id", "9", "--p", "5",
                       "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["params"]["part"] for r in records] == ["per", "det"]
    assert [r["computed"] for r in records] == ["9", "22"]


def test_check_conj6_saturated_valuation_is_inconclusive(capsys, monkeypatch):
    # a det of 0 mod p^5 leaves the valuation unknown: part ii cannot pass or fail
    monkeypatch.setattr(verify, "det_mod", lambda matrix: 0)
    code, out, _ = run(capsys, "check", "conj", "--id", "6", "--p", "7", "--format", "jsonl")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [(r["params"]["part"], r["computed"], r["verdict"]) for r in records] == [
        ("i", "3", "pass"), ("ii", "0", "inconclusive")]
    assert records[1]["expected"] == "p-adic valuation exactly 4, unit part a square mod 7"


def test_check_per_order_cap_flag(capsys):
    code, out, _ = run(capsys, "check", "conj", "--id", "5", "--p", "17",
                       "--format", "jsonl")
    assert code == 0
    verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
    assert verdicts == ["inconclusive", "pass"]
    code, out, _ = run(capsys, "check", "conj", "--id", "5", "--p", "17",
                       "--per-order-cap", "16", "--format", "jsonl")
    verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
    assert verdicts == ["pass", "pass"]
    # a cap of 0 is a cap, not the default: even the order-6 permanent at p = 7 is gated
    code, out, _ = run(capsys, "check", "conj", "--id", "5", "--p", "7",
                       "--per-order-cap", "0", "--format", "jsonl")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [r["verdict"] for r in records] == ["inconclusive", "pass"]
    assert records[0]["expected"].endswith("exceeds the size gate 0")


def test_check_missing_params(capsys):
    code, _, err = run(capsys, "check", "eq15", "--p", "5", "--c", "1")
    assert code == 2
    assert "--d" in err
    code, _, err = run(capsys, "check", "conj", "--p", "5")
    assert code == 2
    assert "--id" in err
    code, _, err = run(capsys, "check", "dp-theorem", "--p", "7")
    assert code == 2
    assert "--variant" in err


@pytest.mark.parametrize("argv,message", [
    (["--variant", "c_minus1"], "variant c_minus1 needs a value for c"),
    (["--variant", "two_two", "--c", "3"], "variant two_two takes no c"),
])
def test_check_dp_theorem_c_goes_with_c_minus1_only(capsys, argv, message):
    code, out, err = run(capsys, "check", "dp-theorem", "--p", "7", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_check_non_prime_is_input_error(capsys):
    code, _, err = run(capsys, "check", "eq15", "--p", "9", "--c", "1", "--d", "1")
    assert code == 2
    assert "odd prime" in err


def test_check_csv_format(capsys):
    code, out, _ = run(capsys, "check", "p3", "--c", "1", "--d", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check_id,params,computed,expected,verdict,elapsed_ms"
    assert lines[1].startswith('p3,"{""c"": 1, ""d"": 1}",-4,-4,pass,')


CSV_HEADER = "check_id,params,computed,expected,verdict,elapsed_ms"


def _without_elapsed(record):
    return {k: v for k, v in record.items() if k != "elapsed_ms"}


def test_csv_rows_match_jsonl_records(capsys):
    argv = ("sweep", "conj", "--id", "5", "--pmax", "13")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    code, out, _ = run(capsys, *argv, "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == len(records) == 10
    for row, record in zip(rows, records):
        assert "part" in record["params"]
        assert f"{float(row['elapsed_ms']):.3f}" == row["elapsed_ms"]
        row["params"] = json.loads(row["params"])
        assert _without_elapsed(row) == _without_elapsed(record)


def test_empty_sweep_csv_is_the_header_alone(capsys):
    code, out, _ = run(capsys, "sweep", "conj", "--id", "5", "--pmin", "4", "--pmax", "4",
                       "--format", "csv")
    assert (code, out) == (0, CSV_HEADER + "\r\n")


def test_check_tty_format(capsys):
    code, out, _ = run(capsys, "check", "conj", "--id", "10", "--p", "5")
    assert code == 0
    assert "not-applicable" in out
    assert "computed=-" in out
    assert out.endswith("1 checks: 0 pass, 0 fail, 0 inconclusive, 1 not-applicable\n")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_vanishing_family_passes(capsys):
    code, out, _ = run(capsys, "sweep", "dp-theorem", "--variant", "two_two",
                       "--pmax", "50", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == len([p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)])
    for r in records:
        expected = "pass" if r["params"]["p"] % 4 == 3 and r["params"]["p"] > 3 else "not-applicable"
        assert r["verdict"] == expected


def test_sweep_conj5_small_primes(capsys):
    code, out, _ = run(capsys, "sweep", "conj", "--id", "5", "--pmax", "13",
                       "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 10  # five primes, two parts each
    assert all(r["verdict"] == "pass" for r in records)


def test_sweep_background_reports_failures(capsys, monkeypatch):
    code, _, _ = run(capsys, "sweep", "background", "--pmax", "11", "--format", "jsonl")
    assert code == 0

    real_units_grid_det = verify.units_grid_det

    def flipped_full_range(p, c, d, order=None):
        # multiply full-range dets (no order) by a non-residue, which flips their symbol
        v = real_units_grid_det(p, c, d, order)
        if order is not None:
            return v
        return v * next(a for a in range(2, p) if legendre(a, p) == -1) % p

    monkeypatch.setattr(verify, "units_grid_det", flipped_full_range)
    code, out, _ = run(capsys, "sweep", "background", "--pmax", "11",
                       "--format", "jsonl")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    fails = [r for r in records if r["verdict"] == "fail"]
    assert [(r["params"]["p"], r["params"]["which"]) for r in fails] == [
        (5, "full_range_ij"), (11, "full_range_ij")]


def test_sweep_jobs_do_not_change_reports(capsys):
    def strip(payload):
        records = [json.loads(line) for line in payload.splitlines()]
        for r in records:
            del r["elapsed_ms"]
        return records

    for sweep in ("dp-theorem --pmax 23", "conj --id 7 --pmax 23 --per-order-cap 12"):
        _, serial, _ = run(capsys, "sweep", *sweep.split(), "--format", "jsonl")
        _, parallel, _ = run(capsys, "sweep", *sweep.split(), "--jobs", "2", "--format", "jsonl")
        assert strip(serial) == strip(parallel)
    # the conj7 sweep's cap of 12 reached every cell, in the workers too
    verdicts = [r["verdict"] for r in strip(parallel)]
    assert (len(verdicts), verdicts.count("inconclusive")) == (16, 3)


def test_sweeps_look_run_check_up_when_they_run(monkeypatch, capsys):
    # perfbench's tracer counts cells by replacing verify.run_check; sweeps must call it
    calls = []

    def recorder(check_id, params, per_order_cap=None):
        calls.append((check_id, params["p"]))
        return []

    monkeypatch.setattr(verify, "run_check", recorder)
    cells = [("conj10", p) for p in (3, 5, 7, 11)]
    assert verify.run_sweep("conj10", pmax=11) == []
    assert calls == cells
    calls.clear()
    argv = ["sweep", "conj", "--id", "10", "--pmax", "11", "--format", "jsonl"]
    assert run(capsys, *argv) == (0, "", "")
    assert calls == cells


def test_sweep_rejects_nonpositive_jobs(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "sweep", "conj", "--id", "10", "--pmax", "11",
                             "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == f"error: jobs must be >= 1, got {jobs}\n"


@pytest.mark.parametrize("command,message", [
    ("check p3 --c 1 --d 1 --p 5", "p3 takes no --p"),
    ("check eq15 --p 5 --c 1 --d 1 --variant two_two", "eq15 takes no --variant"),
    ("check eq15 --p 5 --c 1 --d 1 --id 3", "eq15 takes no --id"),
    ("check conj --id 1 --p 5 --n 5 --c 1 --d 2", "conj1 takes no --p"),
    ("sweep p3 --cmax -3", "cmax must be >= 0, got -3"),
    ("sweep eq15 --pmax 7 --dmax -1", "dmax must be >= 0, got -1"),
    ("sweep conj --id 5 --pmin 13 --pmax 5", "pmin 13 is above pmax 5"),
    ("sweep conj --id 1 --nmin 11 --nmax 9", "nmin 11 is above nmax 9"),
    ("sweep conj --id 1 --nmin -3 --nmax 9", "nmin must be >= 1, got -3"),
    ("check conj --id 1 --n 0 --c 1 --d 2", "n must be >= 1, got 0"),
    ("check conj --id 1 --n -5 --c 1 --d 2", "n must be >= 1, got -5"),
    ("sweep background --pmax 13 --id 2", "background takes no --id"),
    ("sweep eq15 --pmax 13 --nmax 9", "eq15 sweep takes no --nmax"),
    ("sweep conj --id 2 --pmax 13 --cmax 3", "conj2 sweep takes no --cmax"),
    ("sweep conj --id 1 --pmin 3 --pmax 13 --nmax 9", "conj1 sweep takes no --pmin, --pmax"),
    ("sweep p3 --pmax 13", "p3 sweep takes no --pmax"),
    ("sweep background --pmax 13 --variant two_two", "background sweep takes no --variant"),
    ("sweep dp-theorem --pmax 13 --dmax 2 --which full_range_ij",
     "dp-theorem sweep takes no --dmax, --which"),
    ("check conj --id 10 --p 7 --per-order-cap 3", "conj10 takes no --per-order-cap"),
    ("check eq15 --p 5 --c 1 --d 1 --per-order-cap 0", "eq15 takes no --per-order-cap"),
    ("sweep conj --id 2 --pmax 13 --per-order-cap 3", "conj2 takes no --per-order-cap"),
    ("sweep conj --id 10 --pmin 24 --pmax 28 --per-order-cap 3",  # no prime: refused all the same
     "conj10 takes no --per-order-cap"),
    ("check conj --id 5 --p 7 --per-order-cap -3", "per-order-cap must be >= 0, got -3"),
    ("sweep conj --id 5 --pmax 7 --per-order-cap -3", "per-order-cap must be >= 0, got -3"),
    ("sweep dp-theorem --pmax 13 --variant two_two --cmax 3", "variant two_two takes no c"),
    ("sweep dp-theorem --pmin 24 --pmax 28 --variant six_six --cmax 3",  # no prime
     "variant six_six takes no c"),
    ("check conj --id 3 --p 1000003", "conj3 takes --p up to 1000000, got 1000003"),
    ("check reflection --p 1000003 --c 1 --d 2",
     "reflection takes --p up to 1000000, got 1000003"),
    ("sweep conj --id 2 --pmax 1000000000001",
     "conj2 sweep takes --pmax up to 1000000000000, got 1000000000001"),
    ("sweep dp-theorem --pmin 1000003 --pmax 1000033",
     "dp-theorem sweep takes --pmax up to 1000000, got 1000033"),
])
def test_flags_a_cell_or_grid_cannot_take_are_refused(capsys, command, message):
    """Each refusal is one error line, exit 2, and nothing on stdout (not even a CSV header)."""
    for fmt in ("jsonl", "csv"):
        code, out, err = run(capsys, *command.split(), "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_requires_bound(capsys):
    code, _, err = run(capsys, "sweep", "eq15")
    assert code == 2
    assert "pmax" in err


def test_sweep_tty_summary_line(capsys):
    code, out, _ = run(capsys, "sweep", "conj", "--id", "10", "--pmax", "11")
    assert code == 0
    assert out.endswith("4 checks: 2 pass, 0 fail, 0 inconclusive, 2 not-applicable\n")


# ---------------------------------------------------------------------------
# argparse plumbing


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        cli.main(["transmogrify"])
    assert e.value.code == 2


def test_unknown_engine_exits_two(remark_file):
    with pytest.raises(SystemExit) as e:
        cli.main(["det", remark_file, "--engine", "cofactor"])
    assert e.value.code == 2


def _subparser(parser, *names):
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


COMMAND_NAMES = ["build", "det", "per", "check", "sweep"]


def test_commands_are_listed_in_help_order():
    assert list(cli.COMMANDS) == COMMAND_NAMES


@pytest.mark.parametrize("names", [(name,) for name in COMMAND_NAMES] + [("build", "quadform")],
                         ids=" ".join)
def test_a_named_command_parses_as_the_full_parser(names):
    named = _subparser(cli.build_parser(names[0]), *names)
    full = _subparser(cli.build_parser(), *names)
    assert named.format_help() == full.format_help()
    assert named.format_usage() == full.format_usage()


def test_a_named_command_registers_no_other():
    sub = next(a for a in cli.build_parser("sweep")._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["sweep"]


def test_unrecognized_argument_usage_names_every_command(capsys, monkeypatch):
    # main builds only the sweep parser here; the usage line still lists all five
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        cli.main(["sweep", "conj", "--id", "2", "--pmax", "7", "--bogus"])
    assert e.value.code == 2
    assert capsys.readouterr().err == (
        "usage: congruence-lab [-h] {build,det,per,check,sweep} ...\n"
        "congruence-lab: error: unrecognized arguments: --bogus\n"
    )


def test_main_imports_no_module():
    # an import deferred into main would be paid inside every timed CLI call
    code = "\n".join([
        "import contextlib, io, sys",
        "from congruence_lab import cli",
        "before = set(sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    cli.main(['sweep', 'conj', '--id', '3', '--pmax', '13', '--format', 'jsonl'])",
        "    cli.main(['check', 'p3', '--c', '1', '--d', '2'])",
        "print(sorted(set(sys.modules) - before))",
    ])
    assert _fresh_interpreter(code) == "[]\n"
