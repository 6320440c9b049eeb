"""Command-line interface: records, formats, exit codes, sweeps."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from casmat import casimir2d, casimir4d, cli
from casmat.casimir2d import force_imag_axis
from casmat.casimir4d import PlanarMirrorModel
from casmat.quadrature import QuadratureSpec
from casmat.scattering import (CavityConfig, MirrorModel, lorentzian_mirror,
                               perfect_mirror, tabulated_mirror)

HEADER = "param,q,T,value,error,method,converged,roundtrips"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows, "no records emitted"
    return rows


@pytest.fixture
def mirror_table(tmp_path):
    xi = np.geomspace(1e-4, 4e4, 400)
    path = tmp_path / "mirror.tab"
    with open(path, "w") as f:
        for a in xi:
            f.write("%.17g %.17g\n" % (a, -1e3 / (1e3 + a)))
    return str(path)


def test_perfect_force_uses_closed_form(capsys):
    code, out, _ = run_cli(["force2d", "--q", "1", "--output", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == HEADER
    rec = parse_csv(out)[0]
    assert rec["method"] == "closed-form"
    assert float(rec["value"]) == math.pi / 24.0
    assert rec["converged"] == "True"


def test_explicit_method_is_respected(capsys):
    code, out, _ = run_cli(["force2d", "--method", "imag-axis",
                            "--output", "csv"], capsys)
    assert code == 0
    rec = parse_csv(out)[0]
    assert rec["method"] == "imag-axis"
    assert float(rec["value"]) == pytest.approx(math.pi / 24.0, rel=1e-8)


def test_json_output_is_bit_exact(capsys):
    args = ["force2d", "--model", "lorentzian", "--omega1", "1.5",
            "--q", "0.8"]
    code, out, _ = run_cli(args + ["--output", "json"], capsys)
    assert code == 0
    rec = json.loads(out)[0]
    cfg = CavityConfig(lorentzian_mirror(1.5), lorentzian_mirror(1.5), 0.8)
    assert rec["value"] == force_imag_axis(cfg).value
    assert rec["q"] == 0.8


def test_plain_output_has_aligned_columns(capsys):
    code, out, _ = run_cli(["energy4d"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == HEADER.split(",")
    assert "imag-axis" in lines[1]


def test_force4d_thermal_needs_r0(capsys):
    code, _, err = run_cli(["force4d", "--model", "lorentzian", "--omega1",
                            "1", "--T", "0.5"], capsys)
    assert code == 3
    assert "r0" in err


def test_force4d_high_temperature(capsys):
    code, out, _ = run_cli(["force4d", "--method", "high-T", "--r0", "1",
                            "--T", "1", "--output", "csv"], capsys)
    assert code == 0
    rec = parse_csv(out)[0]
    assert float(rec["value"]) == pytest.approx(
        1.2020569031595942854 / (4.0 * math.pi), rel=1e-12)


def test_free_energy_record(capsys):
    code, out, _ = run_cli(["free-energy2d", "--T", "0.2", "--output", "csv"],
                           capsys)
    assert code == 0
    rec = parse_csv(out)[0]
    assert float(rec["value"]) == pytest.approx(-0.018326699828579577933,
                                                rel=1e-10)
    # a series record carries its term count, the library call's
    res = casimir2d.free_energy(
        CavityConfig(perfect_mirror(), perfect_mirror(), 1.0, temperature=0.2))
    assert rec["roundtrips"] == str(res.roundtrips_used)


def test_free_energy_rejects_zero_temperature(capsys):
    code, _, err = run_cli(["free-energy2d", "--T", "0"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_tabulated_model(mirror_table, capsys):
    code, out, _ = run_cli(["force2d", "--model", "tabulated", "--table",
                            mirror_table, "--output", "csv"], capsys)
    assert code == 0
    rec = parse_csv(out)[0]
    # a cutoff 1000 separations away costs a fraction of a percent
    assert float(rec["value"]) == pytest.approx(math.pi / 24.0, rel=5e-3)
    assert rec["method"] == "imag-axis"


@pytest.mark.parametrize("command", ["force2d", "energy2d", "force4d",
                                     "energy4d"])
def test_tabulated_pair_evaluates_its_table_once_per_point(
        mirror_table, capsys, monkeypatch, command):
    # the tabulated model puts one mirror at both ends, wrapped once for the
    # plane geometry: each loop reflection evaluates the interpolant once
    # and squares it
    counts = {"loop": 0, "mirror": 0}

    def spy(name, method):
        def counted(self, xi):
            counts[name] += 1
            return method(self, xi)
        return counted

    monkeypatch.setattr(CavityConfig, "loop_r_imag",
                        spy("loop", CavityConfig.loop_r_imag))
    monkeypatch.setattr(MirrorModel, "r_imag",
                        spy("mirror", MirrorModel.r_imag))
    code, _, _ = run_cli([command, "--model", "tabulated", "--table",
                          mirror_table, "--method", "imag-axis"], capsys)
    assert code == 0
    assert counts["mirror"] == counts["loop"] > 0


@pytest.mark.parametrize("units", ["absolute", "q-relative"])
def test_tabulated_sweep_records_equal_single_calls(units, mirror_table,
                                                    capsys):
    if units == "q-relative":
        with open(mirror_table) as fh:
            text = fh.read()
        with open(mirror_table, "w") as fh:
            fh.write("units: q-relative  # column 1 holds xi*q\n" + text)
    code, out, _ = run_cli(["sweep", "--command", "force2d", "--param", "q",
                            "--from", "0.5", "--to", "2", "--points", "4",
                            "--spacing", "log", "--model", "tabulated",
                            "--table", mirror_table, "--output", "csv"],
                           capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len({r["value"] for r in rows}) == 4
    for row in rows:
        code, one, _ = run_cli(["force2d", "--model", "tabulated", "--table",
                                mirror_table, "--q", row["q"], "--output",
                                "csv"], capsys)
        assert code == 0
        assert {**parse_csv(one)[0], "param": row["param"]} == row


def test_a_rewritten_table_is_read_again(tmp_path, capsys):
    # fixed-width rows, so the rewrite keeps the file's size
    path = tmp_path / "mirror.tab"
    xi = np.geomspace(1e-4, 4e4, 400)
    for cutoff in (1.0, 3.0):
        r = -cutoff / (cutoff + xi)
        path.write_text("".join("%.9e %.9e\n" % row for row in zip(xi, r)))
        code, out, _ = run_cli(["force2d", "--model", "tabulated", "--table",
                                str(path), "--q", "0.7", "--output", "json"],
                               capsys)
        assert code == 0
        mirror = tabulated_mirror(*np.loadtxt(path, unpack=True))
        want = force_imag_axis(CavityConfig(mirror, mirror, 0.7)).value
        assert json.loads(out)[0]["value"] == want


def test_tabulated_model_cannot_do_thermal_roundtrips(mirror_table, capsys):
    code, _, err = run_cli(["force2d", "--model", "tabulated", "--table",
                            mirror_table, "--T", "0.5"], capsys)
    assert code == 3


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    # one parser serves every call of a process, with the output, errors
    # and exit codes that a freshly built parser gives each call
    config = tmp_path / "run.cfg"
    config.write_text("model = lorentzian\nomega1 = 1.3\nq = 0.7\n")
    calls = [
        ["force2d", "--q", "0.9"],
        ["sweep", "--command", "force2d", "--param", "q", "--from", "0.5",
         "--to", "2", "--points", "3", "--output", "csv"],
        ["energy2d", "--config", str(config), "--output", "json"],
        ["force2d", "--no-such-flag"],
        ["force2d", "--q", "0.9"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0]

    cli._parser.cache_clear()
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: built.append(1) or build())
    assert [run(argv) for argv in calls] == fresh
    assert len(built) == 1
    # _build_parser itself stays a factory: wrappers that patch the parsers
    # it returns must not find a patched one again
    assert build() is not build()


def test_missing_table_file(capsys):
    code, _, err = run_cli(["force2d", "--model", "tabulated", "--table",
                            "/nonexistent/mirror.tab"], capsys)
    assert code == 5


def test_lorentzian_requires_cutoff(capsys):
    code, _, err = run_cli(["force2d", "--model", "lorentzian"], capsys)
    assert code == 2


def test_nonconverged_run_exits_4_but_reports(capsys):
    code, out, _ = run_cli(["force2d", "--model", "lorentzian", "--omega1",
                            "1", "--method", "roundtrip", "--max-roundtrips",
                            "4", "--output", "csv"], capsys)
    assert code == 4
    rec = parse_csv(out)[0]
    assert rec["converged"] == "False"
    assert rec["roundtrips"] == "4"


@pytest.mark.parametrize("argv", [
    ["force2d", "--q", "1e-200"],
    ["oracle", "--q", "1e-200"],
    ["force4d", "--q", "1e-100"],
    ["force2d", "--r0", "0.5", "--q", "1e-200"],
    ["force2d", "--model", "lorentzian", "--omega1", "1", "--q", "1e-200"],
    ["force4d", "--r0", "0.5", "--q", "1e-100", "--T", "0.1"],
    # the adaptive fallback's exact panel sum overflows: a ValueError
    ["force4d", "--method", "roundtrip", "--q", "1e-80"],
])
def test_results_that_are_not_finite_exit_2(argv, capsys):
    # a value that overflows at a tiny q is a parameter error: one error
    # line and no record, not a traceback or an infinity marked converged
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_sweep_param_column_and_values(capsys):
    code, out, _ = run_cli(["sweep", "--command", "force2d", "--param", "q",
                            "--from", "0.5", "--to", "2", "--points", "3",
                            "--spacing", "log", "--output", "csv"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["param"] for r in rows] == ["q=0.5", "q=1.0", "q=2.0"]
    got = [float(r["value"]) for r in rows]
    want = [math.pi / 24.0 / q ** 2 for q in (0.5, 1.0, 2.0)]
    assert got == pytest.approx(want, rel=1e-12)


def test_sweep_validates_range(capsys):
    code, _, err = run_cli(["sweep", "--command", "force2d", "--param", "q",
                            "--from", "2", "--to", "1"], capsys)
    assert code == 2


def test_config_file_flags_lose_to_cli(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("# sweep defaults\nmodel=lorentzian\nomega1=1.0\n"
                    "q=1.0\noutput=csv\n")
    code, out, _ = run_cli(["force2d", "--config", str(path), "--q", "2.0"],
                           capsys)
    assert code == 0
    rec = parse_csv(out)[0]
    assert rec["q"] == "2.0"
    assert rec["method"] == "imag-axis"


def test_tolerance_flags_are_the_spec_fields(tmp_path, capsys):
    # the parser takes the flags and their defaults from QuadratureSpec,
    # and a config file still sets them
    args = cli._build_parser().parse_args(["force2d"])
    assert cli._spec(args) == QuadratureSpec()
    path = tmp_path / "run.cfg"
    path.write_text("max_roundtrips=4\n")
    code, out, _ = run_cli(["force2d", "--T", "0.2", "--method", "roundtrip",
                            "--config", str(path), "--output", "csv"], capsys)
    assert code == 4
    rec = parse_csv(out)[0]
    assert rec["roundtrips"] == "4" and rec["converged"] == "False"


def test_validate_model_command(capsys):
    code, out, _ = run_cli(["validate-model", "--model", "lorentzian",
                            "--omega1", "1"], capsys)
    assert code == 0
    assert "model ok" in out
    assert "unitarity" in out


@pytest.mark.parametrize("flags", [
    ["--r0", "0.5"],
    ["--T", "3"],
    ["--method", "roundtrip"],
    ["--method", "imag-axis"],
    ["--r0", "0.5", "--T", "3", "--method", "roundtrip"],
])
def test_validate_model_rejects_flags_it_cannot_honour(capsys, flags):
    code, out, err = run_cli(["validate-model", "--model", "lorentzian",
                              "--omega1", "1"] + flags, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_oracle_command(capsys):
    code, out, _ = run_cli(["oracle", "--dimension", "4", "--output", "csv"],
                           capsys)
    assert code == 0
    rec = parse_csv(out)[0]
    assert float(rec["value"]) == math.pi ** 2 / 240.0


@pytest.mark.parametrize("flags", [
    ["--model", "lorentzian", "--omega1", "1"],
    ["--T", "0.3"],
    ["--method", "roundtrip"],
    ["--method", "imag-axis"],
    ["--r0", "0.5"],
    ["--q", "0.9", "--T", "0.3", "--model", "lorentzian", "--omega1", "1",
     "--method", "roundtrip"],
])
def test_oracle_rejects_flags_it_cannot_honour(capsys, flags):
    code, out, err = run_cli(["oracle"] + flags, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "casmat.cli", "force2d",
                           "--q", "1", "--output", "csv"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == HEADER


# routes that load none of scipy's heavy submodules; the test process has
# imported them already, so a fresh interpreter runs the calls
SCIPY_FREE_CALLS = [
    [command] + model for command in ("force2d", "force4d", "energy2d",
                                      "energy4d")
    for model in ([], ["--model", "lorentzian", "--omega1", "1"])] + [
    ["force2d", "--method", "large-distance", "--r0", "0.5"],
    ["force4d", "--method", "high-T", "--r0", "0.5", "--T", "2"],
    ["oracle", "--dimension", "4"],
    ["validate-model", "--model", "lorentzian", "--omega1", "1"],
    ["force2d", "--T", "0.1"]]
FRESH_PROCESS = """
import contextlib, io, json, sys
from casmat import casimir2d, casimir4d, cli

def loaded():
    return [name for name in ("scipy.special", "scipy.linalg",
                              "scipy.interpolate") if name in sys.modules]

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--output", "csv"])
    return code, out.getvalue()

free, using = json.loads(sys.argv[1])
after_import = loaded()
codes = [run(argv)[0] for argv in free]
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_calls": loaded(),
                  "records": [run(argv) + (loaded(),) for argv in using]}))
"""


def test_scipy_submodules_load_only_where_a_route_uses_them(mirror_table,
                                                            capsys):
    # a split pair's roundtrip loads scipy.special (its delay densities
    # and tail fits) but not scipy.linalg (its Gauss rules take numpy's
    # eigh), a tabulated mirror then scipy.interpolate, which imports
    # scipy.linalg; each on first use, and both print the same records as
    # in a process that loaded them at start
    using = [["force2d", "--model", "lorentzian", "--omega1", "1",
              "--omega2", "2", "--method", "roundtrip"],
             ["force2d", "--model", "tabulated", "--table", mirror_table]]
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS,
                           json.dumps([SCIPY_FREE_CALLS, using])],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    assert fresh["after_import"] == []
    assert fresh["codes"] == [0] * len(SCIPY_FREE_CALLS)
    assert fresh["after_calls"] == []
    assert [loaded for _, _, loaded in fresh["records"]] == [
        ["scipy.special"],
        ["scipy.special", "scipy.linalg", "scipy.interpolate"]]
    for argv, (code, out, _) in zip(using, fresh["records"]):
        assert (code, out) == run_cli(argv + ["--output", "csv"],
                                      capsys)[:2]
        assert code == 0


def test_non_finite_separation_exits_2(capsys):
    for argv in (["force2d", "--q", "nan"],
                 ["force2d", "--method", "large-distance", "--r0", "0.5",
                  "--q", "nan"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


MODELS = {"perfect": (["--q", "0.9"], lambda: (perfect_mirror(),
                                               perfect_mirror())),
          "lorentzian": (["--model", "lorentzian", "--omega1", "1.3",
                          "--omega2", "0.7", "--q", "0.9"],
                         lambda: (lorentzian_mirror(1.3),
                                  lorentzian_mirror(0.7)))}


def _cfg(model, T=0.0, planar=False):
    m1, m2 = MODELS[model][1]()
    if planar:
        m1, m2 = PlanarMirrorModel(m1), PlanarMirrorModel(m2)
    return CavityConfig(m1, m2, 0.9, temperature=T)


def _case(model, head, route, call):
    return pytest.param(head + MODELS[model][0], route, call,
                        id=" ".join([model] + head))


# the routes of the CLI's table by an explicit --method ...
ROUTE_CASES = [
    _case("lorentzian", ["force2d", "--method", "imag-axis"], "imag-axis",
          lambda: casimir2d.force_imag_axis(_cfg("lorentzian"))),
    _case("lorentzian", ["force2d", "--method", "roundtrip", "--T", "0.2"],
          "roundtrip", lambda: casimir2d.force_roundtrip_time(
              _cfg("lorentzian", 0.2))),
    _case("lorentzian", ["force2d", "--method", "large-distance", "--T",
                         "0.2"], "large-distance",
          lambda: casimir2d.force_large_distance(1.0, 0.9, temperature=0.2)),
    _case("lorentzian", ["force4d", "--method", "imag-axis"], "imag-axis",
          lambda: casimir4d.pressure_imag_axis(_cfg("lorentzian",
                                                    planar=True))),
    _case("lorentzian", ["force4d", "--method", "roundtrip"], "roundtrip",
          lambda: casimir4d.pressure_roundtrip(_cfg("lorentzian",
                                                    planar=True))),
    _case("lorentzian", ["force4d", "--method", "large-distance", "--T",
                         "0.2"], "large-distance",
          lambda: casimir4d.pressure_thermal_large_distance(1.0, 0.9, 0.2)),
    _case("lorentzian", ["force4d", "--method", "high-T", "--r0", "0.5",
                         "--T", "0.2"], "high-T",
          lambda: casimir4d.pressure_high_temperature(0.5, 0.9, 0.2)),
    _case("perfect", ["force4d", "--method", "large-distance"], "closed-form",
          lambda: casimir4d.mode_sum_oracle_4d(0.9)),
    _case("lorentzian", ["energy2d", "--method", "imag-axis"], "imag-axis",
          lambda: casimir2d.casimir_energy(_cfg("lorentzian"))),
    _case("lorentzian", ["energy2d", "--method", "roundtrip", "--T", "0.2"],
          "roundtrip", lambda: casimir2d.internal_energy_thermal(
              _cfg("lorentzian", 0.2))),
    _case("lorentzian", ["energy4d", "--method", "imag-axis"], "imag-axis",
          lambda: casimir4d.energy_4d(_cfg("lorentzian", planar=True))),
    _case("lorentzian", ["free-energy2d", "--method", "roundtrip", "--T",
                         "0.2"], "roundtrip",
          lambda: casimir2d.free_energy(_cfg("lorentzian", 0.2))),
    # ... and each resolution of --method auto
    _case("perfect", ["force2d"], "closed-form",
          lambda: casimir2d.mode_sum_oracle_2d(0.9)),
    _case("perfect", ["force2d", "--T", "0.2"], "roundtrip",
          lambda: casimir2d.force_roundtrip_time(_cfg("perfect", 0.2))),
    _case("lorentzian", ["force2d"], "imag-axis",
          lambda: casimir2d.force_imag_axis(_cfg("lorentzian"))),
    _case("lorentzian", ["force2d", "--T", "0.2"], "roundtrip",
          lambda: casimir2d.force_roundtrip_time(_cfg("lorentzian", 0.2))),
    _case("lorentzian", ["force2d", "--r0", "0.5"], "large-distance",
          lambda: casimir2d.force_large_distance(0.5, 0.9)),
    _case("perfect", ["force4d"], "closed-form",
          lambda: casimir4d.mode_sum_oracle_4d(0.9)),
    _case("perfect", ["force4d", "--T", "0.2"], "large-distance",
          lambda: casimir4d.pressure_thermal_large_distance(1.0, 0.9, 0.2)),
    _case("lorentzian", ["force4d", "--r0", "0.5"], "large-distance",
          lambda: casimir4d.pressure_thermal_large_distance(0.5, 0.9, 0.0)),
    _case("lorentzian", ["force4d"], "imag-axis",
          lambda: casimir4d.pressure_imag_axis(_cfg("lorentzian",
                                                    planar=True))),
    _case("lorentzian", ["energy2d"], "imag-axis",
          lambda: casimir2d.casimir_energy(_cfg("lorentzian"))),
    _case("lorentzian", ["energy2d", "--T", "0.2"], "roundtrip",
          lambda: casimir2d.internal_energy_thermal(_cfg("lorentzian", 0.2))),
    _case("lorentzian", ["energy4d"], "imag-axis",
          lambda: casimir4d.energy_4d(_cfg("lorentzian", planar=True))),
    _case("lorentzian", ["free-energy2d", "--T", "0.2"], "roundtrip",
          lambda: casimir2d.free_energy(_cfg("lorentzian", 0.2))),
]


def test_route_cases_cover_the_table():
    covered = {(case.values[0][0], case.values[1]) for case in ROUTE_CASES}
    assert covered == {(command, route) for command, routes
                       in cli._ROUTES.items() for route in routes}


@pytest.mark.parametrize("argv, route, call", ROUTE_CASES)
def test_route_record_equals_library_call(argv, route, call, capsys):
    args = cli._build_parser().parse_args(argv)
    assert cli._route(args.command_name, args) == route
    code, out, _ = run_cli(argv + ["--output", "json"], capsys)
    res = call()
    assert code == (0 if res.converged else 4)
    rt = getattr(res, "roundtrips_used", None)
    assert json.loads(out) == [{
        "param": "", "q": 0.9, "T": args.T, "value": res.value,
        "error": res.error_estimate,
        "method": "closed-form" if route == "closed-form" else res.method,
        "converged": res.converged, "roundtrips": "" if rt is None else rt}]


@pytest.mark.parametrize("argv", [
    ["energy2d", "--r0", "0.5"],
    ["sweep", "--command", "energy4d", "--param", "r0", "--from", "0.2",
     "--to", "0.9", "--points", "3"],
    ["force2d", "--method", "imag-axis", "--model", "lorentzian",
     "--omega1", "1", "--r0", "0.5"]])
def test_r0_on_a_route_that_ignores_it_exits_2(argv, capsys):
    # only the large-distance and high-T routes read --r0; any other route
    # would print a value that does not depend on it
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "--r0" in err


@pytest.mark.parametrize("command, method", [
    ("force2d", "high-T"), ("energy2d", "large-distance"),
    ("energy2d", "high-T"), ("energy4d", "roundtrip"),
    ("energy4d", "large-distance"), ("energy4d", "high-T"),
    ("free-energy2d", "imag-axis"), ("free-energy2d", "large-distance"),
    ("free-energy2d", "high-T")])
def test_unsupported_method_exits_2(command, method, capsys):
    code, out, err = run_cli([command, "--method", method, "--T", "0.2",
                              "--r0", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s supports --method" % command)


@pytest.mark.parametrize("argv, code, says", [
    (["oracle", "--dimension", "2", "--output", "csv"], 0,
     ",0.1308996938995747,0.0,mode-sum-oracle,True,"),
    (["validate-model", "--output", "json"], 0, '"unitarity": {'),
    (["validate-model", "--model", "tabulated", "--table", "{table}"], 0,
     "skipped (model has no real-frequency axis)"),
    (["sweep", "--command", "force2d", "--param", "q", "--from", "1",
      "--to", "2", "--points", "0"], 2, "sweep needs at least one point"),
    (["sweep", "--command", "force2d", "--param", "omega1", "--from", "1",
      "--to", "2"], 2, "sweeping omega1 requires the lorentzian model"),
    (["force2d", "--config", "{config}"], 2,
     "config line 'omega1' is not key=value"),
    (["force2d", "--model", "tabulated"], 2,
     "--table is required for the tabulated model"),
], ids=["oracle-2d", "validate-json", "validate-table", "sweep-no-points",
        "sweep-cutoff-of-perfect", "config-without-equals",
        "tabulated-without-table"])
def test_less_used_paths_exit_and_report(argv, code, says, mirror_table,
                                         tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model=lorentzian\nomega1\n")
    argv = [a.format(table=mirror_table, config=config) for a in argv]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert says in (out if code == 0 else err)
