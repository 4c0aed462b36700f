"""End-to-end tests of the command-line front end.

Each subcommand is exercised in-process through ``cli.main`` so exit codes
and emitted text are checked exactly as a shell user would see them.
"""

import json
import os
import re
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from kitaev_chain import KitaevParams, cli, folding


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(text):
    """Split CSV output into (comments dict, header list, row lists)."""
    comments = {}
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestSpectrum:
    def test_two_site_sweet_spot(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spectrum", "--n", "2", "--w", "1", "--mu", "0", "--delta", "1"]
        )
        assert code == 0
        comments, header, rows = csv_body(out)
        assert header == ["mode", "epsilon"]
        assert [row[1] for row in rows] == ["2.000000", "0.000000"]
        assert comments["ground_energy"] == "-1.000000"
        assert comments["degenerate"] == "true"

    def test_atomic_limit_ground_energy(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spectrum", "--n", "4", "--w", "0", "--mu", "2", "--delta", "0"]
        )
        assert code == 0
        comments, _, rows = csv_body(out)
        assert [row[1] for row in rows] == ["2.000000"] * 4
        assert comments["ground_energy"] == "-4.000000"

    def test_periodic_reports_analytic_deviation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--n", "10", "--w", "1", "--mu", "0", "--delta", "1",
             "--boundary", "periodic", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["max_deviation"] < 1e-10
        assert len(data["rows"]) == 10
        assert {"mode", "epsilon", "epsilon_analytic", "deviation"} <= set(data["rows"][0])

    def test_modes_are_one_based_and_descending(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--n", "6", "--w", "1.3", "--mu", "0.7"])
        assert code == 0
        _, _, rows = csv_body(out)
        assert [row[0] for row in rows] == [str(k) for k in range(1, 7)]
        eps = [float(row[1]) for row in rows]
        assert eps == sorted(eps, reverse=True)


class TestZscan:
    def test_published_spot_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["zscan", "--mu-grid=-1,0", "--two-w-grid=-4,3", "--n-schedule", "8:48:8"],
        )
        assert code == 0
        _, header, rows = csv_body(out)
        assert header == [
            "mu", "two_w", "z", "converged", "n_used", "z_analytic", "abs_difference", "error",
        ]
        table = {(row[0], row[1]): row for row in rows}
        # deterministic order: mu descending, then 2w ascending
        assert [(row[0], row[1]) for row in rows] == [
            ("0.000000", "-4.000000"),
            ("0.000000", "3.000000"),
            ("-1.000000", "-4.000000"),
            ("-1.000000", "3.000000"),
        ]
        assert table[("0.000000", "3.000000")][2] == "0.960"
        assert table[("-1.000000", "-4.000000")][2] == "0.833"
        assert all(row[3] == "true" for row in rows)

    def test_csv_is_deterministic_with_lf_endings(self, capsys, tmp_path):
        argv = ["zscan", "--mu-grid", "3", "--two-w-grid", "1", "--n-schedule", "8,16,24"]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        path = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, argv + ["--out", str(path)])
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        assert raw.decode() == first

    def test_json_round_trip_keeps_full_precision(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["zscan", "--mu-grid", "0", "--two-w-grid", "3", "--n-schedule", "8:48:8",
             "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"config", "rows", "summary"}
        (row,) = data["rows"]
        assert isinstance(row["z"], float)
        assert abs(row["z"] - row["z_analytic"]) < 1e-3
        assert row["z"] != round(row["z"], 3)  # full precision, not the 3-decimal print
        assert data["summary"]["failed"] == 0

    def test_jobs_flag_preserves_output(self, capsys):
        argv = ["zscan", "--mu-grid", "3,4", "--two-w-grid", "1", "--n-schedule", "8,16,24"]
        code, sequential, _ = run_cli(capsys, argv)
        assert code == 0
        code, pooled, _ = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 0
        assert pooled == sequential

    def test_point_failure_recorded_in_row(self, capsys):
        # mu=0, 2w=0.5 at N=48: the target state itself needs 264 Schmidt values,
        # more than the default bond cap (the default schedule converges at N=40)
        code, out, _ = run_cli(
            capsys, ["zscan", "--mu-grid", "0", "--two-w-grid", "0.5", "--n-schedule", "48"]
        )
        assert code == 0
        comments, _, rows = csv_body(out)
        (row,) = rows
        assert row[2] == "" and "bond" in row[7]
        assert comments["failed"] == "1"


class TestEnergyAccuracy:
    def test_small_grid_matches_shortcut(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["energy-accuracy", "--mu-grid", "0,0.5,1.5", "--w-grid", "1", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["max_abs_difference"] < 1e-8
        assert set(data["summary"]) == {"points", "max_abs_difference"}

    def test_degenerate_point_is_flagged_and_built(self, capsys):
        # periodic N=10, w=2, mu=4 has an exact zero single-body energy; the built
        # state is still an eigenstate of the ground level
        code, out, _ = run_cli(
            capsys, ["energy-accuracy", "--mu-grid", "4", "--w-grid", "2", "--format", "json"]
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["degenerate"] is True
        assert row["error"] == ""
        assert row["abs_difference"] < 1e-9

    def test_every_degenerate_row_is_filled(self, capsys):
        # the phase boundaries |mu| = |2w| of this grid and mu = w = 0 carry zero modes
        argv = ["energy-accuracy", "--mu-grid=-4:4:2", "--w-grid=-2:2:1", "--format", "json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert sum(row["degenerate"] for row in rows) == 9
        assert all(row["error"] == "" and row["abs_difference"] < 1e-9 for row in rows)

    def test_summary_without_a_tensor_energy_is_null(self, capsys, monkeypatch):
        def fail(schurs):
            return [RuntimeError("replay failed") for _ in schurs]

        monkeypatch.setattr(cli, "build_eigenstates", fail)
        argv = ["energy-accuracy", "--mu-grid", "0,1", "--w-grid", "1"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert "# max_abs_difference=\n" in out
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["max_abs_difference"] is None
        assert [row["error"] for row in data["rows"]] == ["replay failed"] * 2


class TestParticles:
    def test_deep_trivial_extremes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["particles", "--mu-grid=-4,4", "--w-grid", "0.1", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        by_mu = {row["mu"]: row for row in rows}
        assert by_mu[-4.0]["mean_particles"] < 0.5
        assert by_mu[4.0]["mean_particles"] > 9.5
        assert by_mu[-4.0]["parity"] == "even"

    def test_filling_non_decreasing_in_mu(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["particles", "--mu-grid=-3,-1,1,3", "--w-grid", "0.5", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        filling = [row["mean_particles"] for row in rows]
        assert [row["mu"] for row in rows] == [-3.0, -1.0, 1.0, 3.0]
        assert all(a <= b + 1e-9 for a, b in zip(filling, filling[1:]))

    def test_degeneracy_does_not_depend_on_the_coupling_scale(self, capsys):
        outputs = []
        for w, mu in (("1", "0.5"), ("1e-200", "5e-201")):
            argv = ["particles", "--n", "6", "--w-grid", w, "--mu-grid", mu, "--delta", w]
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            outputs.append(csv_body(out)[2][0][2:])
        assert outputs[0] == outputs[1] == ["3.377304", "odd", "false", ""]


class TestVerify:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "6", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["failures"] == 0
        statuses = {row["status"] for row in data["rows"]}
        assert statuses <= {"pass", "skipped"}
        # the built-in grid includes the degenerate sweet spot
        assert data["summary"]["skipped"] == 2

    def test_degenerate_point_skips_overlap_check(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--n", "2", "--w", "1", "--mu", "0", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        by_check = {row["check"]: row for row in rows}
        assert by_check["ground_overlap"]["status"] == "skipped"
        assert by_check["z_value"]["status"] == "skipped"
        assert by_check["spectrum_multiset"]["status"] == "pass"
        # the end-pair contraction is defined from three sites up
        assert by_check["rdm_ends"]["status"] == "skipped"

    def test_delta_alone_selects_one_point(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--delta", "0.5", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert {(row["w"], row["mu"], row["delta"]) for row in data["rows"]} == {(1.0, 0.0, 0.5)}
        assert {key: data["config"][key] for key in ("w", "mu", "delta")} == {
            "w": 1.0, "mu": 0.0, "delta": 0.5,
        }

    def test_default_grid_config_names_no_point(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "3", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert {row["delta"] for row in data["rows"]} == {0.6, 1.0}
        assert not {"w", "mu", "delta"} & data["config"].keys()

    @pytest.mark.parametrize("scale,mu", [("1e-200", "5e-201"), ("1e6", "5e5")])
    def test_point_passes_at_any_coupling_scale(self, capsys, scale, mu):
        argv = ["verify", "--n", "6", "--w", scale, "--delta", scale, "--mu", mu]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        comments, _, _ = csv_body(out)
        assert comments["failures"] == "0" and comments["skipped"] == "0"

    def test_spectrum_off_by_a_relative_part_per_million_fails(self, capsys, monkeypatch):
        exact = cli.eigenenergy
        monkeypatch.setattr(cli, "eigenenergy", lambda eps, occ: exact(eps, occ) * (1.0 + 1e-6))
        code, out, _ = run_cli(capsys, ["verify", "--n", "6", "--w", "1e6", "--delta", "1e6",
                                        "--mu", "5e5", "--format", "json"])
        assert code == 1
        by_check = {row["check"]: row["status"] for row in json.loads(out)["rows"]}
        assert by_check["spectrum_multiset"] == "fail"

    def test_n_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--n", "12"])
        assert code == 2
        assert "--n" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--delta", "-1"],
            ["zscan", "--n-schedule", "8:0:-4"],
            ["zscan", "--n-schedule", "abc"],
            ["zscan", "--mu-grid", "4:0:1"],
            ["zscan", "--tol", "0"],
            ["spectrum", "--n", "1"],
            ["spectrum", "--w", "nan"],
            ["spectrum", "--mu", "inf"],
            ["zscan", "--mu-grid", "nan"],
            ["zscan", "--two-w-grid=-inf"],
            ["zscan", "--mu-grid", "0:inf:1"],
            ["zscan", "--mu-grid", "0:1:1e-300"],
            ["zscan", "--n-schedule", "3:1000000000:1"],
            ["zscan", "--n-schedule", "1,2"],
            ["zscan", "--n-schedule", "16,8"],
            ["zscan", "--tol", "nan"],
            ["particles", "--delta", "-1"],
            ["particles", "--delta", "nan"],
            ["particles", "--n", "1"],
            ["energy-accuracy", "--w-grid", "inf"],
            ["particles", "--mu-grid", "1,1", "--w-grid", "1"],
            ["particles", "--jobs", "0"],
            ["zscan", "--jobs", "-2"],
            ["spectrum", "--n", "2049"],
            ["spectrum", "--n", "1000000000"],
            ["particles", "--n", "100000"],
            ["energy-accuracy", "--n", "4096"],
            ["energy-accuracy", "--n", "2"],
            ["zscan", "--n-schedule", "8,2049"],
            ["zscan", "--n-schedule", "8:100000:50000"],
            ["particles", "--out", "no-such-directory/out.csv"],
            ["spectrum", "--out", "."],
            ["spectrum", "--n", "4", "--w", "1e308", "--delta", "1e308"],
            ["spectrum", "--n", "4", "--w", "1e308", "--mu", "1e308"],
            ["zscan", "--two-w-grid", "2e306", "--delta", "1e306", "--n-schedule", "8,96"],
        ],
        ids=" ".join,
    )
    def test_exit_code_two(self, capsys, monkeypatch, argv):
        if "--out" in argv:
            monkeypatch.setattr(cli, "make_params", None)  # building a point would exit 1, not 2
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["zscan", "--n", "99"],
            ["spectrum", "--trunc", "-1"],
            ["zscan", "--trunc", "inf"],
            ["particles", "--trunc", "nan"],
            ["verify", "--trunc", "-1"],
            ["particles", "--trunc", "1.5"],
            ["zscan", "--trunc", "1"],
            ["energy-accuracy", "--trunc", "1.5"],
            ["verify", "--trunc", "1.5"],
            ["spectrum", "--jobs", "-3"],
            ["zscan", "--n-sched", "8,16"],
            ["particles", "--mu", "0:1:1"],
            ["zscan", "--phi", "0.3"],
            ["zscan", "--boundary", "periodic"],
            ["particles", "--boundary", "open"],
            ["energy-accuracy", "--boundary", "open"],
        ],
        ids=" ".join,
    )
    def test_removed_and_abbreviated_flags_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["spectrum", "--bogus"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2


class TestParsers:
    def test_schedule_forms(self):
        assert cli.parse_schedule("8,16,24") == (8, 16, 24)
        assert cli.parse_schedule("8:48:8") == (8, 16, 24, 32, 40, 48)

    def test_grid_forms(self):
        assert cli.parse_grid("-4:4:2") == (-4.0, -2.0, 0.0, 2.0, 4.0)
        assert cli.parse_grid("-4:4:1") == tuple(float(k) for k in range(-4, 5))
        assert cli.parse_grid("-4:4:0.5") == tuple(k / 2 for k in range(-8, 9))
        # a range never passes its max, and rounding in (max - min) / step loses no point
        assert cli.parse_grid("0:1:0.35") == (0.0, 0.35, 0.7)
        assert cli.parse_grid("0:1:0.6") == (0.0, 0.6)
        assert cli.parse_grid("0:0.3:0.1") == (0.0, 0.1, 0.2, 0.3)
        assert cli.parse_grid("0.5") == (0.5,)
        assert np.allclose(cli.parse_grid("-1,0,2.5"), [-1.0, 0.0, 2.5])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1:2",
            "1:0:1",
            "x,y",
            "0:inf:1",
            "0:1:inf",
            "nan:1:1",
            "-1e308:1e308:1",
            "0:1:1e-300",
            "0:1e-11:1e-12",  # eleven values that all round to 0.0
            "0,0",
            "1,0.5,1",
        ],
    )
    def test_bad_grids_raise(self, text):
        with pytest.raises(cli.UsageError):
            cli.parse_grid(text)

    @pytest.mark.parametrize("text", ["3:1000000000:1", "1,2", "2,8", "16,8", "8,8", "8:0:4", "abc"])
    def test_bad_schedules_raise(self, text):
        with pytest.raises(cli.UsageError):
            cli.parse_schedule(text)

    def test_axis_cap_is_inclusive(self, monkeypatch):
        cap = cli.MAX_AXIS_POINTS
        monkeypatch.setattr(cli, "MAX_SITES", cap + 2)  # a full schedule's longest chain
        assert len(cli.parse_grid(f"1:{cap}:1")) == cap
        assert len(cli.parse_schedule(f"3:{cap + 2}:1")) == cap
        with pytest.raises(cli.UsageError):
            cli.parse_grid(f"0:{cap}:1")
        with pytest.raises(cli.UsageError):
            cli.parse_schedule(",".join(str(n) for n in range(3, cap + 4)))

    def test_site_cap_is_inclusive(self):
        cap = cli.MAX_SITES
        assert cli.parse_schedule(f"8,{cap}") == (8, cap)
        with pytest.raises(cli.UsageError, match=f"longer than {cap} sites"):
            cli.parse_schedule(f"8,{cap + 1}")

    def test_grid_cap_is_checked_before_any_point(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
        monkeypatch.setattr(cli, "make_params", None)  # building a point would exit 1, not 2
        for argv in (
            ["zscan", "--mu-grid", "0,1,2", "--two-w-grid", "1,2"],
            ["particles", "--mu-grid", "0,1", "--w-grid", "1,2,3"],
            ["energy-accuracy", "--mu-grid", "0:5:1", "--w-grid", "1"],
        ):
            code, _, err = run_cli(capsys, argv)
            assert code == 2
            assert err == "error: grid has 6 points, more than 5\n"
        assert cli.grid_product((1.0, 2.0, 3.0, 4.0, 5.0), (6.0,))[-1] == (5.0, 6.0)  # inclusive


def fail_at_mu(original, mu):
    """Wrap a library call so it raises when its parameters have one chemical potential."""

    def wrapper(*args, **kwargs):
        params = next(arg for arg in args if isinstance(arg, KitaevParams))
        if params.chemical_potential == mu:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    return wrapper


F3, F6, F12 = (rf"-?\d+\.\d{{{k}}}" for k in (3, 6, 12))
BOOL = "(true|false)"

# argv, (library call, mu) to fail at, summary patterns, header, row patterns
FORMAT_CASES = {
    "spectrum": (
        ["spectrum", "--n", "3", "--boundary", "periodic"],
        None,
        {"degenerate": BOOL, "ground_energy": F6, "max_deviation": F12},
        "mode,epsilon,epsilon_analytic,deviation",
        [rf"{mode},{F6},{F6},{F12}" for mode in (1, 2, 3)],
    ),
    "zscan": (
        ["zscan", "--mu-grid", "3,4", "--two-w-grid", "1", "--n-schedule", "8,16"],
        ("z_saturated", 4.0),
        {"failed": "1", "points": "2", "unconverged": "[01]"},
        "mu,two_w,z,converged,n_used,z_analytic,abs_difference,error",
        [
            rf"4\.000000,1\.000000,,,,{F3},,injected failure",
            rf"3\.000000,1\.000000,{F3},{BOOL},(8|16),{F3},{F6},",
        ],
    ),
    "energy-accuracy": (
        ["energy-accuracy", "--mu-grid", "0,1,4", "--w-grid", "2"],
        ("energy_expectation", 1.0),
        {"max_abs_difference": F12, "points": "3"},
        "mu,w,energy_tensor,energy_reference,abs_difference,degenerate,error",
        [
            rf"0\.000000,2\.000000,{F6},{F6},{F12},false,",
            rf"1\.000000,2\.000000,,{F6},,false,injected failure",
            rf"4\.000000,2\.000000,{F6},{F6},{F12},true,",
        ],
    ),
    "particles": (
        ["particles", "--mu-grid", "0,4", "--w-grid", "1"],
        ("build_coupling_matrix", 4.0),
        {"failed": "1", "points": "2"},
        "mu,w,mean_particles,parity,degenerate,error",
        [rf"0\.000000,1\.000000,{F6},(even|odd),{BOOL},", r"4\.000000,1\.000000,,,,injected failure"],
    ),
    "verify": (
        ["verify", "--n", "2", "--w", "1", "--mu", "0"],
        None,
        {"checks": "4", "failures": "0", "skipped": "3"},
        "w,mu,delta,check,status,residual,detail",
        [
            rf"1\.000000,0\.000000,1\.000000,spectrum_multiset,pass,{F12},",
            r"1\.000000,0\.000000,1\.000000,ground_overlap,skipped,,degenerate ground level",
            r"1\.000000,0\.000000,1\.000000,rdm_ends,skipped,,end-pair contraction needs 3 sites",
            r"1\.000000,0\.000000,1\.000000,z_value,skipped,,degenerate ground level",
        ],
    ),
}


@pytest.mark.parametrize("command", sorted(FORMAT_CASES))
def test_output_columns(capsys, monkeypatch, command):
    """Pin each subcommand's CSV header, per-column format and JSON keys."""
    argv, failing, summary, header, rows = FORMAT_CASES[command]
    if failing:
        name, mu = failing
        monkeypatch.setattr(cli, name, fail_at_mu(getattr(cli, name), mu))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    expected = [f"# {key}={value}" for key, value in sorted(summary.items())]
    expected += [re.escape(header)] + rows
    lines = out.splitlines()
    assert len(lines) == len(expected)
    for pattern, line in zip(expected, lines):
        assert re.fullmatch(pattern, line), (pattern, line)

    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert set(data["summary"]) == set(summary)
    assert [set(row) for row in data["rows"]] == [set(header.split(","))] * len(rows)
    for row, line in zip(data["rows"], lines[-len(rows):]):
        # a blank CSV cell is null in JSON, except the empty strings of text columns
        blanks = {name for name, cell in zip(header.split(","), line.split(",")) if cell == ""}
        assert {name for name, value in row.items() if value in (None, "")} == blanks


@pytest.mark.parametrize(
    "argv, points",
    [
        (["energy-accuracy", "--n", "4", "--mu-grid", "0,1,4", "--w-grid", "2"], 3),
        (["verify", "--n", "3"], 6),
    ],
)
def test_one_schur_per_point(capsys, monkeypatch, argv, points):
    """Each point's state is built from the decomposition the point already holds."""
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    original = cli.schur_decompose
    monkeypatch.setattr(cli, "schur_decompose", counted)
    monkeypatch.setattr(folding, "schur_decompose", counted)
    assert run_cli(capsys, argv)[0] == 0
    assert len(calls) == points


def serial_pool(record):
    """A stand-in for ``ProcessPoolExecutor`` that maps in this process.

    ``record(event, *args)`` sees the constructor's arguments ("init") and each map
    ("map"); an exception it raises surfaces as a worker failure would."""

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            record("init", max_workers, mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            record("map")
            return map(fn, items)

    return SerialPool


class TestJobs:
    def test_jobs_clamped_to_cpus_and_points(self, capsys, monkeypatch):
        created = []

        def record(event, *args):
            if event == "init":
                created.append(args[0])

        monkeypatch.setattr(futures, "ProcessPoolExecutor", serial_pool(record))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        grid = ["verify", "--n", "3"]  # six built-in points
        for jobs, workers in (("1000000", 4), ("3", 3)):
            assert run_cli(capsys, grid + ["--jobs", jobs])[0] == 0
            assert created[-1] == workers
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert run_cli(capsys, grid + ["--jobs", "1000000"])[0] == 0
        assert created[-1] == 6
        single = grid + ["--w", "1", "--mu", "0.5", "--jobs", "1000000"]
        assert run_cli(capsys, single)[0] == 0
        assert len(created) == 3  # one point runs in this process

    def test_workers_spawn_with_one_blas_thread(self, capsys, monkeypatch):
        """Forked workers would inherit the parent's BLAS threads; spawned ones load BLAS
        under the worker environment, and the parent's environment comes back after."""
        seen = []

        def record(event, *args):
            if event == "init":
                seen.append(args[1].get_start_method())
            else:
                seen.append({key: os.environ.get(key) for key in cli.WORKER_ENVIRONMENT})

        monkeypatch.setattr(futures, "ProcessPoolExecutor", serial_pool(record))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert run_cli(capsys, ["verify", "--n", "3", "--jobs", "2"])[0] == 0
        assert seen == ["spawn", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_environment_is_restored_when_a_worker_fails(self, capsys, monkeypatch):
        def record(event, *args):
            if event == "map":
                raise RuntimeError("worker lost")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", serial_pool(record))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        code, _, err = run_cli(capsys, ["verify", "--n", "3", "--jobs", "2"])
        assert code == 1 and "worker lost" in err
        assert os.environ["OMP_NUM_THREADS"] == "8"
        assert "OPENBLAS_NUM_THREADS" not in os.environ


def run_python(*args):
    """Run a fresh interpreter that imports this package from its source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def test_module_runs_as_script():
    result = run_python("-m", "kitaev_chain.cli", "spectrum", "--n", "2")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[2] == "mode,epsilon"


# The body of the entry-point script an installer writes for ``kitaev-chain``.
ENTRY_SCRIPT = """import sys
from kitaev_chain.cli import run
if __name__ == "__main__":
    sys.exit(run())
"""


@pytest.mark.parametrize("entry", ["module", "script"])
def test_spawned_workers_match_serial_output(entry, tmp_path):
    """A spawned worker re-imports the main module; both ways of starting the
    command must survive that and print what one process prints."""
    if entry == "module":
        command = ["-m", "kitaev_chain.cli"]
    else:
        script = tmp_path / "kitaev-chain"
        script.write_text(ENTRY_SCRIPT, encoding="utf-8")
        command = [str(script)]
    argv = ["particles", "--n", "6", "--mu-grid", "0,1,3", "--w-grid", "0.5,1"]
    serial = run_python(*command, *argv)
    pooled = run_python(*command, *argv, "--jobs", "2")
    assert serial.returncode == pooled.returncode == 0, serial.stderr + pooled.stderr
    assert pooled.stdout == serial.stdout


@pytest.mark.parametrize("command", ["particles", "energy-accuracy"])
def test_pooled_batches_match_serial_output(command):
    """A grid of more points than one batch holds is built batch by batch; mapped
    over two spawned workers, its output equals the serial run's byte for byte."""
    count = cli.batch_size(10) + 5
    mu_grid = ",".join(repr(round(0.1 * k, 1)) for k in range(count))
    argv = ["-m", "kitaev_chain.cli", command, "--mu-grid", mu_grid, "--w-grid", "1,-0.5"]
    serial = run_python(*argv)
    pooled = run_python(*argv, "--jobs", "2")
    assert serial.returncode == pooled.returncode == 0, serial.stderr + pooled.stderr
    assert pooled.stdout == serial.stdout
    rows = [line for line in serial.stdout.splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 2 * count and all(row.endswith(",") for row in rows)  # no error text


def test_surface_batches_are_bounded_by_memory(capsys, monkeypatch):
    """particles hands consecutive points to its worker in batches of batch_size(N)."""
    sizes = []
    worker = cli._particles_rows

    def recording(points):
        sizes.append(len(points))
        return worker(points)

    monkeypatch.setattr(cli, "_particles_rows", recording)
    assert run_cli(capsys, ["particles", "--n", "10"])[0] == 0
    batch = cli.batch_size(10)
    assert sizes == [batch] * (289 // batch) + [289 % batch] * (289 % batch > 0)
    assert [cli.batch_size(n) for n in (10, 14, 15, 96, cli.MAX_SITES)] == [48, 3, 1, 1, 1]


def test_cli_import_loads_no_scipy():
    # every CLI process pays the start-up time and memory of each package it imports,
    # so the import may load only the declared dependency, numpy, beside the library;
    # __mp_main__ is multiprocessing's alias of the main module, not a package
    probe = (
        "import sys; before = set(sys.modules); import kitaev_chain.cli; "
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'__mp_main__'}))"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['kitaev_chain', 'numpy']\n"


def test_cli_import_loads_no_process_pool():
    # only --jobs above 1 uses a process pool, so its modules load in that branch alone
    probe = (
        "import sys; import kitaev_chain.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
