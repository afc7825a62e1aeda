"""CSV command-line front end: headers, determinism, exit codes."""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import kickedtop.cli as cli
from kickedtop import (
    KickedTopParams,
    NumericalError,
    SpinQuantum,
    analytic_concurrence_series,
    concurrence_series,
    dicke_concurrence_closed,
    lyapunov_running,
    wootters,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_cli_traced(capsys, *argv):
    """run_cli plus the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def parse(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def per_value_csv(header, rows):
    """The CSV text by the per-value rule: integers as str(int(v)), the rest to 12 digits."""

    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return "{:.12g}".format(float(value))

    lines = [",".join(header)] + [",".join(map(fmt, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def test_dicke_header_and_column_agreement(capsys):
    code, out, err = run_cli(capsys, "dicke", "--N", "6,4")
    assert code == 0 and err == ""
    header, rows = parse(out)
    assert header == ["N", "M", "C_closed", "C_numeric"]
    assert len(rows) == 5 + 7  # all valid M for N=4 then N=6
    for n, m, closed, numeric in rows:
        assert abs(float(closed) - float(numeric)) <= 1e-9
    # N column is sorted, M ascending within each N
    assert [r[0] for r in rows] == ["4"] * 5 + ["6"] * 7
    assert [float(r[1]) for r in rows[:5]] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_dicke_m_window(capsys):
    code, out, _ = run_cli(capsys, "dicke", "--N", "6", "--M-min", "0", "--M-max", "2")
    assert code == 0
    _, rows = parse(out)
    assert [float(r[1]) for r in rows] == [0.0, 1.0, 2.0]


def test_dicke_rejects_single_qubit(capsys):
    code, out, err = run_cli(capsys, "dicke", "--N", "1")
    assert code == 2
    assert out == ""
    assert err == "error: N must be >= 2, got 1\n"


def test_dicke_at_a_thousand_qubits_matches_the_closed_form(capsys):
    code, out, err = run_cli(capsys, "dicke", "--N", "1000")
    assert code == 0 and err == ""
    _, rows = parse(out)
    assert len(rows) == 1001
    for n, m, _, numeric in rows:
        assert abs(float(numeric) - dicke_concurrence_closed(int(n), float(m))) <= 1e-10


def test_dicke_memory_stays_bounded_at_two_thousand_qubits(capsys):
    code, out, err, peak = run_cli_traced(capsys, "dicke", "--N", "2000")
    assert code == 0 and err == ""
    assert out.count("\n") == 1 + 2001
    assert peak < 16 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ("qkt-series", "--j", "1.5", "--kappa0", "1", "--theta0", "nan", "--n-max", "3"),
        ("qkt-series", "--j", "1.5", "--kappa0", "1", "--phi0", "inf", "--n-max", "3"),
        ("qkt-sweep", "--j", "2", "--theta0=-inf", "--n-max", "3"),
        ("coherent", "--N", "5", "--eta", "nan"),
        ("coherent", "--N", "5", "--eta", "0.5,inf"),
        ("analytic3", "--kappa0", "nan", "--n-max", "3"),
        ("lyapunov", "--kappa0", "nan", "--steps", "1000"),
        ("dicke", "--N", "2", "--M-min", "nan"),
        ("dicke", "--N", "2", "--M-max", "nan"),
        ("qkt-series", "--j", "nan", "--kappa0", "1", "--n-max", "3"),
        ("qkt-sweep", "--j", "inf", "--n-max", "3"),
    ],
)
def test_non_finite_inputs_exit_two(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("qkt-series", "--j", "1.5", "--kappa0", "8e307", "--n-max", "2"),
        ("qkt-sweep", "--j", "100", "--kappa0", "1,1e306", "--n-max", "5"),
    ],
)
def test_torsion_overflow_exits_two(capsys, argv):
    # kappa0 is finite but kappa0 j^2, which the torsion phases form, is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: kappa0 * j^2 = ") and err.endswith(" overflows the float range\n")
    assert err.count("\n") == 1


def test_a_negative_value_with_an_exponent_needs_the_equals_form(capsys):
    argv = ("qkt-series", "--j", "1.5", "--kappa0", "1", "--n-max", "3")
    code, out, err = run_cli(capsys, *argv, "--theta0=-1e-3")
    assert code == 0 and err == "" and out.count("\n") == 4
    assert run_cli(capsys, *argv, "--theta0", "-0.001") == (0, out, "")
    # argparse reads a separate "-inf" as an option name on every version
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--phi0", "-inf"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, noun, text",
    [
        (("epr", "--N", ","), "integers", "','"),
        (("dicke", "--N", ","), "integers", "','"),
        (("coherent", "--N", "4", "--eta", ","), "numbers", "','"),
        (("lyapunov", "--kappa0", "1", "--steps", "1000", "--seeds", ","), "integers", "','"),
        (("lyapunov", "--kappa0", " , ", "--steps", "1000"), "numbers", "' , '"),
        (("qkt-sweep", "--j", "2", "--kappa", "", "--n-max", "3"), "numbers", "''"),
        (("qkt-series", "--j", "1.5", "--kappa0", ",", "--n-max", "3"), "numbers", "','"),
    ],
)
def test_an_empty_list_exits_two(capsys, argv, noun, text):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: expected comma-separated {noun}, got none in {text}\n")


@pytest.mark.parametrize("command", ["qkt-series", "qkt-sweep"])
@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_no_kicks_exits_two_naming_n_max(capsys, command, n_max):
    code, out, err = run_cli(capsys, command, "--j", "1.5", "--kappa0", "1", "--n-max", n_max)
    assert (code, out, err) == (2, "", f"error: n_max must be >= 1, got {n_max}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("qkt-series", "--j", "1.5", "--kappa0", "1,2", "--n-max", "2"),
        ("analytic3", "--kappa", "0.1,0.2", "--n-max", "2"),
    ],
)
def test_a_second_twist_strength_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: expected a single twist strength, got 2\n")


def test_a_single_qubit_spin_exits_two_with_the_count_message(capsys):
    code, out, err = run_cli(capsys, "qkt-series", "--j", "0.5", "--kappa0", "1", "--n-max", "2")
    assert (code, out, err) == (2, "", "error: n_qubits must be >= 2, got 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("qkt-series", "--j", "2048.5", "--kappa0", "1", "--n-max", "3"),
        ("qkt-sweep", "--j", "1e6", "--n-max", "3"),
        ("dicke", "--N", "4,4097"),
        ("epr", "--N", "1,100000000"),
        ("coherent", "--N", "4097", "--eta", "1"),
        ("qkt-series", "--j", "1e308", "--kappa0", "1", "--n-max", "2"),
    ],
)
def test_sizes_above_the_cap_exit_two_before_allocating(capsys, argv):
    assert cli.MAX_QUBITS == 4096
    code, out, err, peak = run_cli_traced(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the cap of 4096" in err
    assert peak < 4 << 20


@pytest.mark.parametrize(
    "j, message",
    [
        ("2048.5", "4097 qubits exceeds the cap of 4096"),
        ("3000", "6000 qubits exceeds the cap of 4096"),
        ("5000", "10000 qubits exceeds the cap of 4096"),
        ("1e308", "inf qubits exceeds the cap of 4096"),
        ("2048.25", "j = 2048.25 is not a positive half-integer"),
    ],
)
def test_the_spin_cap_names_the_qubit_count(capsys, j, message):
    code, out, err = run_cli(capsys, "qkt-series", "--j", j, "--kappa0", "1", "--n-max", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("qkt-series", "--j", "1.5", "--kappa0", "1", "--n-max", "10000000000000"),
        ("qkt-sweep", "--j", "1.5", "--n-max", "10000001"),
        ("analytic3", "--kappa0", "1", "--n-max", "10000000000000"),
        ("lyapunov", "--kappa0", "1", "--steps", "10000001"),
        # the caps on the totals: kappa0 count x seed count x steps, kappa0 count x kicks
        ("lyapunov", "--kappa0", "1,2", "--steps", "5000001"),
        ("qkt-sweep", "--j", "1.5", "--n-max", "400001"),
    ],
)
def test_counts_above_the_step_cap_exit_two_before_allocating(capsys, argv):
    assert cli.MAX_STEPS == 10**7
    code, out, err, peak = run_cli_traced(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the cap of 10000000" in err
    assert peak < 4 << 20


def test_sizes_at_the_cap_are_accepted(capsys):
    code, out, err = run_cli(capsys, "epr", "--N", "4096")
    assert code == 0 and err == ""
    assert out == "N,C\n4096,{:.12g}\n".format(1.0 / 4096)


@pytest.mark.parametrize(
    "argv",
    [
        ("lyapunov", "--kappa0", "-1", "--steps", "1000"),
        ("lyapunov", "--kappa0", "1,-0.5", "--steps", "1000"),
        ("analytic3", "--kappa0", "-1", "--n-max", "2"),
        ("analytic3", "--kappa", "-0.1", "--n-max", "2"),
        ("qkt-series", "--j", "1.5", "--kappa0", "-1", "--n-max", "2"),
    ],
)
def test_negative_kappa0_exits_two_everywhere(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and ">= 0" in err


@pytest.mark.parametrize(
    "argv, given",
    [
        (("qkt-series", "--j", "1.5", "--kappa", "-0.1", "--n-max", "2"), "-0.1"),
        (("qkt-sweep", "--j", "1.5", "--kappa", "0.1,nan", "--n-max", "2"), "nan"),
        (("analytic3", "--kappa=-inf", "--n-max", "2"), "-inf"),
        (("lyapunov", "--kappa", "0.1,-2", "--steps", "3"), "-2.0"),
    ],
)
def test_a_bad_kappa_is_named_with_the_value_given(capsys, argv, given):
    # --kappa is kappa0 / 6: the message names the value typed, not six times it
    assert run_cli(capsys, *argv) == (2, "", f"error: kappa must be finite and >= 0, got {given}\n")


def test_epr_values_at_full_precision(capsys):
    code, out, _ = run_cli(capsys, "epr", "--N", "1,2,3,10")
    assert code == 0
    header, rows = parse(out)
    assert header == ["N", "C"]
    for n_text, c_text in rows:
        assert c_text == "{:.12g}".format(1.0 / int(n_text))


def test_epr_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "epr", "--N", "0")
    assert code == 2 and err == "error: N must be >= 1, got 0\n"


def test_coherent_emits_non_positive_c_lambda(capsys):
    code, out, _ = run_cli(capsys, "coherent", "--N", "12", "--eta", "0,0.3,1,2.5")
    assert code == 0
    header, rows = parse(out)
    assert header == ["eta", "c_lambda"]
    assert len(rows) == 4
    assert all(float(c) <= 0.0 for _, c in rows)


@pytest.mark.parametrize("n_qubits", ["68", "80", "2000"])
def test_coherent_at_large_n_is_exactly_separable(capsys, n_qubits):
    # binom(N, n) passes 2^64 at N = 68 and the float range near
    # N = 1030; the amplitudes must not go through either
    code, out, err = run_cli(capsys, "coherent", "--N", n_qubits, "--eta", "1")
    assert code == 0 and err == ""
    _, rows = parse(out)
    assert rows == [["1", "0"]]


def test_qkt_series_from_a_near_pole_start_at_large_j(capsys):
    # at theta0 = 0.05 the lowest amplitude of the 200-qubit start is
    # subnormal; no step may divide by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "qkt-series", "--j", "100", "--kappa0", "1",
            "--theta0", "0.05", "--phi0", "0.3", "--n-max", "2",
        )
    assert code == 0 and err == ""
    _, rows = parse(out)
    assert [r[0] for r in rows] == ["1", "2"]
    assert all(0.0 <= float(c) <= 1.0 for _, c in rows)


def test_qkt_series_adds_analytic_column_for_three_qubits(capsys):
    code, out, _ = run_cli(
        capsys, "qkt-series", "--j", "1.5", "--kappa0", "1.2", "--n-max", "30"
    )
    assert code == 0
    header, rows = parse(out)
    assert header == ["n", "C", "C_analytic"]
    assert [int(r[0]) for r in rows] == list(range(1, 31))
    for _, c, ana in rows:
        assert abs(float(c) - float(ana)) <= 1e-9
    values = analytic_concurrence_series(30, 1.2)
    for (n, _, ana) in rows:
        assert float(ana) == pytest.approx(values[int(n) - 1], abs=1e-11)


def test_qkt_series_plain_columns_for_other_spins(capsys):
    code, out, _ = run_cli(
        capsys, "qkt-series", "--j", "2.5", "--kappa0", "1.2", "--n-max", "5"
    )
    assert code == 0
    header, _ = parse(out)
    assert header == ["n", "C"]


POLE_SERIES_ARGV = ("qkt-series", "--j", "1.5", "--kappa0", "2.3", "--phi0", "1.1", "--n-max", "6")
# the bytes of POLE_SERIES_ARGV from the top pole, pinned
POLE_SERIES_CSV = (
    "n,C,C_analytic\n"
    "1,0.313940146225,0.313940146225\n"
    "2,0.313940146225,0.313940146225\n"
    "3,0.123900468282,0.123900468282\n"
    "4,0.123900468282,0.123900468282\n"
    "5,0.150781237155,0.150781237155\n"
    "6,0.150781237155,0.150781237155\n"
)


@pytest.mark.parametrize("theta0", ["0", repr(math.pi), "0.7"])
def test_qkt_series_prints_the_closed_form_only_from_a_pole(capsys, theta0):
    # the closed form is the series of the |000> start; G takes it to the
    # bottom pole by one-qubit rotations, so it holds there too, and it
    # misses a tilted start by up to 0.31 within these 6 kicks
    code, out, err = run_cli(capsys, *POLE_SERIES_ARGV, "--theta0", theta0)
    assert (code, err) == (0, "")
    header, rows = parse(out)
    c = np.array([float(r[1]) for r in rows])
    analytic = np.array(analytic_concurrence_series(6, 2.3))
    if theta0 == "0.7":
        assert header == ["n", "C"]
        assert np.abs(c - analytic).max() > 0.3
    else:
        assert header == ["n", "C", "C_analytic"]
        assert [r[1] for r in rows] == [r[2] for r in rows]
        assert np.abs(c - analytic).max() <= 1e-11
    if theta0 == "0":
        assert out == POLE_SERIES_CSV


def test_qkt_series_rejects_bad_spin_and_kappa_combinations(capsys):
    code, _, err = run_cli(capsys, "qkt-series", "--j", "1.3", "--kappa0", "1", "--n-max", "5")
    assert code == 2 and "half-integer" in err
    code, out, err = run_cli(capsys, "qkt-series", "--j=-1e308", "--kappa0", "1", "--n-max", "2")
    assert code == 2 and out == "" and err.startswith("error: ") and "half-integer" in err
    code, _, err = run_cli(
        capsys, "qkt-series", "--j", "1.5", "--kappa0", "1", "--kappa", "1", "--n-max", "5"
    )
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "qkt-series", "--j", "1.5", "--n-max", "5")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(
        capsys, "qkt-series", "--j", "1.5", "--kappa0", "abc", "--n-max", "5"
    )
    assert code == 2


def test_kappa_is_one_sixth_of_kappa0(capsys):
    # the exact same float gives the exact same bytes
    _, out_a, _ = run_cli(
        capsys, "qkt-series", "--j", "1.5", "--kappa", "0.2", "--n-max", "25"
    )
    _, out_b, _ = run_cli(
        capsys, "qkt-series", "--j", "1.5", "--kappa0", repr(6.0 * 0.2), "--n-max", "25"
    )
    assert out_a == out_b
    # the nominal value 1.2 differs from 6*0.2 by one ulp; the series
    # must agree to far better than the CSV tolerance anyway
    _, out_c, _ = run_cli(
        capsys, "qkt-series", "--j", "1.5", "--kappa0", "1.2", "--n-max", "25"
    )
    for row_b, row_c in zip(parse(out_b)[1], parse(out_c)[1], strict=True):
        assert abs(float(row_b[1]) - float(row_c[1])) <= 1e-9


def test_analytic3_matches_library_values(capsys):
    code, out, _ = run_cli(capsys, "analytic3", "--kappa0", "2.4", "--n-max", "12")
    assert code == 0
    header, rows = parse(out)
    assert header == ["n", "C_analytic"]
    values = analytic_concurrence_series(12, 2.4)
    for n_text, c_text in rows:
        assert float(c_text) == pytest.approx(values[int(n_text) - 1], abs=1e-11)


def test_qkt_sweep_default_grid(capsys):
    code, out, _ = run_cli(capsys, "qkt-sweep", "--j", "1.5", "--n-max", "8")
    assert code == 0
    header, rows = parse(out)
    assert header == ["kappa0", "C_timeavg"]
    assert len(rows) == cli.SWEEP_GRID_POINTS
    grid = [float(r[0]) for r in rows]
    assert grid == sorted(grid)
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.5 * math.pi, abs=1e-9)


def test_qkt_sweep_rejects_a_negative_burn_in(capsys):
    code, out, err = run_cli(capsys, "qkt-sweep", "--j", "1.5", "--n-max", "5", "--burn-in", "-3")
    assert code == 2 and out == ""
    assert err == "error: burn_in must be >= 0, got -3\n"


@pytest.mark.parametrize(
    "burn_in, message",
    [("-3", "burn_in must be >= 0, got -3"), ("5", "burn_in 5 leaves no entries out of 5")],
)
def test_qkt_sweep_checks_the_burn_in_before_the_sweep(burn_in, message, capsys, monkeypatch):
    def sweep_not_reached(*args, **kwargs):
        raise AssertionError("the sweep ran before the burn-in was checked")

    monkeypatch.setattr(cli, "concurrence_sweep", sweep_not_reached)
    code, out, err = run_cli(capsys, "qkt-sweep", "--j", "1.5", "--n-max", "5", "--burn-in", burn_in)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_lyapunov_rows_and_running_column(capsys):
    code, out, _ = run_cli(
        capsys, "lyapunov", "--kappa0", "0,6", "--steps", "1000", "--seeds", "0"
    )
    assert code == 0
    header, rows = parse(out)
    assert header == ["kappa0", "seed", "n", "lambda_running"]
    assert len(rows) == 2000
    k0_zero = [r for r in rows if float(r[0]) == 0.0]
    assert [int(r[2]) for r in k0_zero] == list(range(1, 1001))
    assert abs(float(k0_zero[-1][3])) < 1e-6
    k0_six = [r for r in rows if float(r[0]) == 6.0]
    assert float(k0_six[-1][3]) > 0.3


def test_lyapunov_rejects_small_step_counts(capsys):
    code, _, err = run_cli(capsys, "lyapunov", "--kappa0", "1", "--steps", "500")
    assert code == 2 and "steps must be >= 1000" in err


# "1,1e155": a later kappa0 fails after the first has all its rows
@pytest.mark.parametrize("kappa0", ["1e155", "1e300", "1,1e155"])
def test_lyapunov_tangent_overflow_exits_three(tmp_path, capsys, kappa0):
    argv = ("lyapunov", "--kappa0", kappa0, "--steps", "1000")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: tangent norm left the float range")
    code, out, _ = run_cli(capsys, "--out", str(tmp_path / "lyapunov.csv"), *argv)
    assert code == 3 and out == ""
    assert list(tmp_path.iterdir()) == []  # no target and no .tmp-* file


def test_deterministic_byte_identical_reruns(capsys):
    for argv in (
        ("dicke", "--N", "5"),
        ("qkt-series", "--j", "1.5", "--kappa", "0.4", "--n-max", "40"),
        ("lyapunov", "--kappa0", "2.4", "--steps", "1000"),
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second and first.endswith("\n")


def test_out_file_matches_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, out, _ = run_cli(
        capsys,
        "--out", str(target),
        "qkt-series", "--j", "1.5", "--kappa0", "6.012", "--n-max", "20",
    )
    assert code == 0
    assert out == ""  # everything went to the file
    _, stdout_run, _ = run_cli(
        capsys, "qkt-series", "--j", "1.5", "--kappa0", "6.012", "--n-max", "20"
    )
    assert target.read_text() == stdout_run
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]


@pytest.mark.parametrize("target", ["missing/x.csv", "dir"])
def test_an_unwritable_out_path_exits_two(tmp_path, capsys, target):
    # a missing directory fails in mkstemp, an existing directory in os.replace
    (tmp_path / "dir").mkdir()
    path = tmp_path / target
    code, out, err = run_cli(capsys, "--out", str(path), "epr", "--N", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and str(path) in err
    assert err.count("\n") == 1
    assert list(path.parent.glob(".tmp-*")) == []


def test_writer_matches_the_per_value_rule(tmp_path, capsys):
    header = ["i", "j", "a", "b", "c", "d", "e", "f", "g", "h"]
    rows = [
        (7, np.int64(-3), 0.1, np.float64(2.0 / 3.0), -0.0, 5e-324, 1e-300, 1e300, math.inf, math.nan),
        (-12, np.int64(2**62), 1.0, np.float64(-1e-5), 0.0, -5e-324, 123456789.0123, -1e300, -math.inf, 2.5),
    ]
    expected = per_value_csv(header, rows)
    assert expected.splitlines()[1] == "7,-3,0.1,0.666666666667,-0,4.94065645841e-324,1e-300,1e+300,inf,nan"
    # a lead is formatted by the same rule, and an empty first block writes nothing
    lead = (np.int64(5), -0.0)
    with_lead = per_value_csv(["k", "z"] + header, [lead + row for row in rows])
    assert with_lead.splitlines()[1].startswith("5,-0,7,-3,0.1,")
    header_only = "i,j,a,b,c,d,e,f,g,h\n"
    columns = tuple(zip(*rows))
    empty = ((),) * len(header)
    cases = [
        (header, [((), columns)], expected),
        (["k", "z"] + header, [(lead, empty), (lead, columns)], with_lead),
        (header, [], header_only),
        (header, [((), empty), ((), empty)], header_only),
    ]
    target = tmp_path / "rows.csv"
    for case_header, blocks, text in cases:
        cli._emit(case_header, iter(blocks), None)
        assert capsys.readouterr().out == text
        cli._emit(case_header, iter(blocks), str(target))
        assert target.read_bytes() == text.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_writer_chunk_boundaries_keep_the_per_value_bytes(tmp_path, capsys, monkeypatch):
    # with 3-row chunks, blocks of 0..7 rows end before, on and past a chunk boundary
    monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
    sizes = (0, 1, 2, 3, 4, 7)

    def columns(size):
        return range(1, size + 1), [n / 7.0 for n in range(1, size + 1)]

    cases = [(["n", "x"], [((), columns(size))]) for size in sizes]
    cases.append((["k", "s", "n", "x"], [((size / 3.0, np.int64(size)), columns(size)) for size in sizes]))
    cases.append((["k", "s", "n", "x"], [((size / 3.0, np.int64(size)), columns(size)) for size in sizes[::-1]]))
    target = tmp_path / "rows.csv"
    for header, blocks in cases:
        text = per_value_csv(header, [lead + row for lead, cols in blocks for row in zip(*cols)])
        cli._emit(header, iter(blocks), None)
        assert capsys.readouterr().out == text
        cli._emit(header, iter(blocks), str(target))
        assert target.read_bytes() == text.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


@pytest.mark.parametrize(
    "blocks",
    [[((), ((1,), (0.5,))), ((), ((1,), (0.5,), (2.0,)))]],
    ids=["first-row-of-a-later-block"],
)
def test_writer_rejects_a_row_of_another_width(tmp_path, capsys, monkeypatch, blocks):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
    with pytest.raises(TypeError):
        cli._emit(["n", "x"], blocks, None)
    capsys.readouterr()
    with pytest.raises(TypeError):
        cli._emit(["n", "x"], blocks, str(tmp_path / "rows.csv"))
    assert list(tmp_path.iterdir()) == []  # no target and no .tmp-* file


@pytest.mark.parametrize(
    "blocks",
    [
        # with 3-row chunks: short at the end of a partial chunk, long past
        # a full chunk, and short in a block after a complete one
        [((), (range(1, 6), [0.5] * 4))],
        [((), ([1, 2, 3], [0.5] * 4))],
        [((), (range(1, 3), [0.5] * 2)), ((), (range(1, 2), [0.5] * 2))],
    ],
    ids=["short-last-column", "long-last-column", "short-column-in-a-later-block"],
)
def test_writer_rejects_columns_of_different_lengths(tmp_path, capsys, monkeypatch, blocks):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
    message = r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"
    with pytest.raises(ValueError, match=message):
        cli._emit(["n", "x"], blocks, None)
    capsys.readouterr()
    with pytest.raises(ValueError, match=message):
        cli._emit(["n", "x"], blocks, str(tmp_path / "rows.csv"))
    assert list(tmp_path.iterdir()) == []  # no target and no .tmp-* file


def test_a_short_column_fails_the_command_instead_of_dropping_rows(tmp_path, capsys, monkeypatch):
    # one closed-form value short of the n_max kicks
    monkeypatch.setattr(
        cli, "analytic_concurrence_series", lambda n_max, kappa0: analytic_concurrence_series(n_max - 1, kappa0)
    )
    argv = ["qkt-series", "--j", "1.5", "--kappa0", "1", "--n-max", "5"]
    with pytest.raises(ValueError, match=r"^zip\(\) argument 3 is shorter"):
        cli.main(argv)
    capsys.readouterr()
    with pytest.raises(ValueError, match=r"^zip\(\) argument 3 is shorter"):
        cli.main(["--out", str(tmp_path / "series.csv")] + argv)
    assert list(tmp_path.iterdir()) == []  # no target and no .tmp-* file


def expected_lyapunov_csv(steps):
    start = (math.sin(2.25), 0.0, math.cos(2.25))
    rows = [
        (kappa0, seed, n, lam)
        for kappa0 in (0.0, 1.2)
        for seed in (0, 3)
        for n, lam in enumerate(lyapunov_running(kappa0, math.pi / 2, start, steps, seed=seed), 1)
    ]
    return per_value_csv(["kappa0", "seed", "n", "lambda_running"], rows)


def expected_qkt_series_csv(kappa0, n_max):
    series = concurrence_series(KickedTopParams(SpinQuantum(3), kappa0), 0.0, 0.0, n_max)
    analytic = analytic_concurrence_series(n_max, kappa0)
    rows = [(n, c, analytic[n - 1]) for n, c in series.entries]
    return per_value_csv(["n", "C", "C_analytic"], rows)


# 1000 steps fill less than one writer chunk after each block's first row,
# 3000 steps two full chunks and a partial one
@pytest.mark.parametrize(
    "argv, expected",
    [
        (("lyapunov", "--kappa0", "0,1.2", "--seeds", "0,3", "--steps", "1000"), (expected_lyapunov_csv, 1000)),
        (("lyapunov", "--kappa0", "0,1.2", "--seeds", "0,3", "--steps", "3000"), (expected_lyapunov_csv, 3000)),
        (("qkt-series", "--j", "1.5", "--kappa0", "2.1", "--n-max", "50"), (expected_qkt_series_csv, 2.1, 50)),
        # kappa0 j^2 = 1.78e308, just below the float range
        (("qkt-series", "--j", "1.5", "--kappa0", "7.9e307", "--n-max", "2"), (expected_qkt_series_csv, 7.9e307, 2)),
    ],
    ids=["lyapunov", "lyapunov-chunks", "qkt-series", "qkt-series-edge-of-range"],
)
def test_csv_bytes_match_the_library_values(tmp_path, capsys, argv, expected):
    build, *args = expected
    text = build(*args)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == text
    target = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "--out", str(target), *argv)
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == text.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_lyapunov_body_is_the_concatenation_of_its_single_runs(capsys):
    # one block per (kappa0, seed), in sorted order, each with its own lead
    code, out, err = run_cli(capsys, "lyapunov", "--kappa0", "0,1.2", "--seeds", "0,3", "--steps", "1000")
    assert (code, err) == (0, "")
    header, body = out.split("\n", 1)
    singles = []
    for kappa0 in ("0", "1.2"):
        for seed in ("0", "3"):
            code, single, err = run_cli(
                capsys, "lyapunov", "--kappa0", kappa0, "--seeds", seed, "--steps", "1000"
            )
            assert (code, err) == (0, "")
            single_header, single_body = single.split("\n", 1)
            assert single_header == header == "kappa0,seed,n,lambda_running"
            singles.append(single_body)
    assert body == "".join(singles)
    assert body.count("\n") == 4000


def test_an_empty_dicke_block_writes_nothing(capsys):
    # N = 2 has no level with M >= 1.5, so only the N = 6 block is written
    code, both, err = run_cli(capsys, "dicke", "--N", "2,6", "--M-min", "1.5")
    assert (code, err) == (0, "")
    code, alone, err = run_cli(capsys, "dicke", "--N", "6", "--M-min", "1.5")
    assert (code, err) == (0, "")
    assert both == alone
    assert [row[:2] for row in parse(alone)[1]] == [["6", "2"], ["6", "3"]]


def test_numerical_failures_map_to_exit_three(monkeypatch, capsys):
    def boom(n_max, kappa0):
        raise NumericalError("deliberate")

    monkeypatch.setattr(cli, "analytic_concurrence_series", boom)
    code, _, err = run_cli(capsys, "analytic3", "--kappa0", "1", "--n-max", "4")
    assert code == 3 and err == "numerical failure: deliberate\n"


@pytest.mark.parametrize("solver, call", [("svd", wootters)])
def test_lapack_failures_are_numerical_errors(monkeypatch, capsys, solver, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(NumericalError, match=f"^{solver} did not converge$"):
        call(np.eye(4) / 4)
    code, out, err = run_cli(capsys, "qkt-series", "--j", "1.5", "--kappa0", "1", "--n-max", "5")
    assert (code, out, err) == (3, "", f"numerical failure: {solver} did not converge\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("qkt-series", "--j", "1.5", "--kappa0", "1", "--n-max", "200"),
        ("qkt-sweep", "--j", "100", "--kappa0", "0,3", "--n-max", "30"),
        ("dicke", "--N", "6,13"),
        ("coherent", "--N", "17", "--eta", "0.5,2"),
        ("epr", "--N", "1,2,64"),
    ],
)
def test_the_pair_path_needs_no_eigh(monkeypatch, capsys, argv):
    # from_matrix factors each pair matrix by pivoted Cholesky, and wootters
    # reuses that factor, so no invocation reaches a Hermitian eigensolver
    code, want, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")

    def fail(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert run_cli(capsys, *argv) == (0, want, "")


def run_child(*argv):
    # the child imports the same kickedtop as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from kickedtop.cli import main; sys.exit(main())", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_missing_required_flag_exits_two_with_usage():
    proc = run_child("lyapunov", "--kappa0", "1")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
    assert "--steps" in proc.stderr


def test_console_entry_point_end_to_end():
    proc = run_child("epr", "--N", "2")
    assert proc.returncode == 0
    assert proc.stdout == "N,C\n2,0.5\n"


def test_subcommands_in_one_process_match_separate_runs(capsys):
    invocations = [
        ("analytic3", "--kappa0", "1.9", "--n-max", "20"),
        ("qkt-sweep", "--j", "2", "--kappa0", "0.5,3", "--n-max", "6"),
        ("dicke", "--N", "4", "--M-min", "0"),
        ("analytic3", "--kappa0", "1.9", "--n-max", "20"),
    ]
    in_process = []
    for argv in invocations:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        in_process.append(out)
    for argv, out in zip(invocations, in_process):
        proc = run_child(*argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == out
