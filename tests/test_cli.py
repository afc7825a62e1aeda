"""CSV command-line front end: headers, determinism, exit codes."""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

import kickedtop.cli as cli
from kickedtop import NumericalFailure, analytic_concurrence_series, dicke_concurrence_closed


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


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
    assert "N must be >= 2" in err


def test_dicke_at_a_thousand_qubits_matches_the_closed_form(capsys):
    code, out, err = run_cli(capsys, "dicke", "--N", "1000")
    assert code == 0 and err == ""
    _, rows = parse(out)
    assert len(rows) == 1001
    for n, m, _, numeric in rows:
        assert abs(float(numeric) - dicke_concurrence_closed(int(n), float(m))) <= 1e-10


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
        ("qkt-series", "--j", "2048.5", "--kappa0", "1", "--n-max", "3"),
        ("qkt-sweep", "--j", "1e6", "--n-max", "3"),
        ("dicke", "--N", "4,4097"),
        ("epr", "--N", "1,100000000"),
        ("coherent", "--N", "4097", "--eta", "1"),
    ],
)
def test_sizes_above_the_cap_exit_two_before_allocating(capsys, argv):
    assert cli.MAX_QUBITS == 4096
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the cap of 4096" in err
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


def test_epr_values_at_full_precision(capsys):
    code, out, _ = run_cli(capsys, "epr", "--N", "1,2,3,10")
    assert code == 0
    header, rows = parse(out)
    assert header == ["N", "C"]
    for n_text, c_text in rows:
        assert c_text == "{:.12g}".format(1.0 / int(n_text))


def test_epr_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "epr", "--N", "0")
    assert code == 2 and "N must be >= 1" in err


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


def test_qkt_series_rejects_bad_spin_and_kappa_combinations(capsys):
    code, _, err = run_cli(capsys, "qkt-series", "--j", "1.3", "--kappa0", "1", "--n-max", "5")
    assert code == 2 and "half-integer" in err
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
    for row_b, row_c in zip(parse(out_b)[1], parse(out_c)[1]):
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


def test_numerical_failures_map_to_exit_three(monkeypatch, capsys):
    def boom(n_max, kappa0):
        raise NumericalFailure("deliberate")

    monkeypatch.setattr(cli, "analytic_concurrence_series", boom)
    code, _, err = run_cli(capsys, "analytic3", "--kappa0", "1", "--n-max", "4")
    assert code == 3 and "numerical failure" in err


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
