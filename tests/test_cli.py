"""Command-line interface: records, formats, exit codes, sweeps."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from casmat import cli
from casmat.casimir2d import force_imag_axis
from casmat.scattering import CavityConfig, lorentzian_mirror

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
    # energy records carry no roundtrip count; the column stays empty
    assert rec["roundtrips"] == ""


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


def test_tabulated_model_cannot_do_thermal_roundtrips(mirror_table, capsys):
    code, _, err = run_cli(["force2d", "--model", "tabulated", "--table",
                            mirror_table, "--T", "0.5"], capsys)
    assert code == 3


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


def test_validate_model_command(capsys):
    code, out, _ = run_cli(["validate-model", "--model", "lorentzian",
                            "--omega1", "1"], capsys)
    assert code == 0
    assert "model ok" in out
    assert "unitarity" in out


def test_oracle_command(capsys):
    code, out, _ = run_cli(["oracle", "--dimension", "4", "--output", "csv"],
                           capsys)
    assert code == 0
    rec = parse_csv(out)[0]
    assert float(rec["value"]) == math.pi ** 2 / 240.0


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "casmat.cli", "force2d",
                           "--q", "1", "--output", "csv"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == HEADER
