import json
import os

import numpy as np
import pytest

from debondwave.cli import main
from debondwave.errors import CompatibilityViolated, MissingRequired, TypeMismatch, UnknownKey
from debondwave.runner import write_csv
from debondwave.scenarios import parse_scenario

SQ2 = np.sqrt(2.0)

MINIMAL = """\
[scenario]
name = minimal
"""

MOVING = """\
[scenario]
name = moving
kind = wave

[motion]
kind = one_d_scaling
profile = Affine(1.0, 0.5)
horizon = 0.5

[data]
u0 = SineMode(1.0, 1)
u1 = Compatible

[numerics]
solver = grid
grid = 128
dt = 0.0025
"""

COUPLED = f"""\
[scenario]
name = coupled
kind = coupled

[motion]
horizon = 0.8

[data]
u0_prime = Const(-2.0)
u1 = Const({float(SQ2)!r})
kappa = Const(1.0)

[coupled]
l0 = 1.0

[numerics]
front_grid = 192
store_every = 16
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_defaults(tmp_path):
    sc = parse_scenario(_write(tmp_path, "a.scn", MINIMAL))
    assert sc.name == "minimal"
    assert sc.kind == "wave"
    assert sc.numerics["modes"] == 32
    assert sc.numerics["dt"] == 1e-3
    assert sc.motion["kind"] == "identity"


def test_unknown_key_names_line(tmp_path):
    text = "[scenario]\nname = oops\n[data]\ntouhgness = Const(1.0)\n"
    with pytest.raises(UnknownKey) as err:
        parse_scenario(_write(tmp_path, "bad.scn", text))
    assert "line 4" in str(err.value)


def test_type_mismatch_and_duplicates(tmp_path):
    with pytest.raises(TypeMismatch):
        parse_scenario(_write(tmp_path, "b.scn", "[scenario]\nname = x\n[numerics]\ndt = soon\n"))
    with pytest.raises(TypeMismatch):
        parse_scenario(_write(tmp_path, "c.scn", "[scenario]\nname = x\nname = y\n"))
    with pytest.raises(MissingRequired):
        parse_scenario(_write(tmp_path, "d.scn", "[numerics]\ndt = 0.001\n"))


def test_coupled_parse_checks_compatibility(tmp_path):
    sc = parse_scenario(_write(tmp_path, "e.scn", COUPLED))
    assert sc.coupled["verdict"] == "ActivatedStart"
    bad = COUPLED.replace("Const(-2.0)", "Const(-0.5)").replace(f"Const({float(SQ2)!r})", "Const(1.0)")
    with pytest.raises(CompatibilityViolated):
        parse_scenario(_write(tmp_path, "f.scn", bad))


def test_manifest_round_trips_every_field(tmp_path):
    sc = parse_scenario(_write(tmp_path, "g.scn", MOVING))
    man = sc.manifest()
    from debondwave.scenarios import _SCHEMA

    for section, keys in _SCHEMA.items():
        blob = man["scenario"] if section == "scenario" else man[section]
        for key in keys:
            if section == "scenario":
                assert key in ("name", "kind")
            else:
                assert key in blob


def test_run_identity_header_contract(tmp_path, capsys):
    path = _write(tmp_path, "ident.scn",
                  "[scenario]\nname = ident\n[data]\nu0 = SineMode(1.0, 1)\n"
                  "[numerics]\nmodes = 8\ndt = 0.005\n")
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 0
    header = open(tmp_path / "out" / "ident" / "ledger.csv").readline().strip()
    assert header == "t,kinetic,potential,work,residual_fixed"


def test_run_moving_ledger_columns_and_determinism(tmp_path):
    path = _write(tmp_path, "mov.scn", MOVING)
    assert main(["run", path, "--out", str(tmp_path / "o1")]) == 0
    assert main(["run", path, "--out", str(tmp_path / "o2")]) == 0
    a = open(tmp_path / "o1" / "moving" / "ledger.csv", "rb").read()
    b = open(tmp_path / "o2" / "moving" / "ledger.csv", "rb").read()
    assert a == b
    header = a.decode().splitlines()[0]
    assert "boundary_dissipation" in header and "residual_moving" in header


def test_run_coupled_front_speed_column(tmp_path):
    path = _write(tmp_path, "cpl.scn", COUPLED)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    lines = open(tmp_path / "out" / "coupled" / "front.csv").read().splitlines()
    assert lines[0].split(",")[2] == "speed"
    speeds = [float(row.split(",")[2]) for row in lines[1:]]
    assert abs(np.median(speeds) - 0.70711) < 1e-3


def test_exit_codes(tmp_path):
    bad = _write(tmp_path, "bad.scn", "[scenario]\nname = x\n[data]\ntouhgness = Const(1)\n")
    assert main(["validate", bad]) == 2
    assert main(["verify", "not-a-suite"]) == 2
    cfl = _write(tmp_path, "cfl.scn",
                 "[scenario]\nname = cfl\n[numerics]\nsolver = grid\ngrid = 128\ndt = 0.05\n")
    assert main(["run", cfl, "--out", str(tmp_path / "out")]) == 3


RADIAL = """\
[scenario]
name = radial
kind = coupled_radial

[motion]
horizon = 0.4

[data]
u0 = Poly(-48.0, 80.0, -44.0, 8.0)
u1 = Poly(-113.137084989848, 203.646752981726, -118.79393923934, 22.6274169979695)

[coupled]
rho0 = 0.5

[numerics]
front_grid = 128
taper = 0.0
"""


@pytest.mark.parametrize("text, key", [
    (MINIMAL + "[motion]\nhorizon = 0\n", "horizon"),
    (MINIMAL + "[motion]\nhorizon = -1\n", "horizon"),
    (MINIMAL + "[motion]\nlength = -1\n", "length"),
    (MINIMAL + "[numerics]\nsolver = grid\ngrid = 4\n", "grid"),
    (MINIMAL + "[numerics]\nstore_every = 7\n", "store_every"),  # 1000 steps
    (COUPLED.replace("horizon = 0.8", "horizon = 0"), "horizon"),
    (COUPLED.replace("l0 = 1.0", "l0 = -1"), "l0"),
    (RADIAL.replace("rho0 = 0.5", "rho0 = 0"), "rho0"),
], ids=["horizon-0", "horizon-neg", "length-neg", "grid-4", "store-every-7",
        "coupled-horizon-0", "l0-neg", "rho0-0"])
def test_run_rejects_out_of_range_values(tmp_path, capsys, text, key):
    path = _write(tmp_path, "range.scn", text)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(key + " ="))
    assert f"line {line}: {key}" in err and "Traceback" not in err


def test_verify_suite_exit_zero():
    assert main(["verify", "griffith", "--seed", "1", "--tol-scale", "2"]) == 0


def test_sweep_runs_all(tmp_path):
    _write(tmp_path, "a.scn", MINIMAL.replace("minimal", "s-a")
           + "[numerics]\nmodes = 8\ndt = 0.005\n")
    _write(tmp_path, "b.scn", MINIMAL.replace("minimal", "s-b")
           + "[numerics]\nmodes = 8\ndt = 0.005\n")
    assert main(["sweep", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert os.path.isdir(tmp_path / "out" / "s-a")
    assert os.path.isdir(tmp_path / "out" / "s-b")


@pytest.mark.parametrize("workers", ["0", "2"])
def test_sweep_carries_on_past_failing_files(tmp_path, capsys, workers):
    _write(tmp_path, "a_bad.scn", "[scenario]\nname = x\n[data]\ntouhgness = Const(1)\n")
    _write(tmp_path, "b_good.scn", MINIMAL.replace("minimal", "s-good")
           + "[numerics]\nmodes = 8\ndt = 0.005\n")
    argv = ["sweep", str(tmp_path), "--out", str(tmp_path / "out"), "--workers", workers]
    assert main(argv) == 2  # a parse error, as a lone run of a_bad.scn gives
    assert os.path.isfile(tmp_path / "out" / "s-good" / "ledger.csv")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"FAIL {tmp_path / 'a_bad.scn'}: UnknownKey: line 4")
    assert lines[1] == "done s-good"
    # a numerical failure outranks a parse error
    _write(tmp_path, "c_cfl.scn", "[scenario]\nname = cfl\n[numerics]\nsolver = grid\n"
           "grid = 128\ndt = 0.05\n")
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["FAIL", "done", "FAIL"]
    assert "CflViolation" in lines[2]


RADIAL_SCN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                          "debonding_radial.scn")


def test_radial_taper_must_be_zero(tmp_path):
    with open(RADIAL_SCN, encoding="utf-8") as fh:
        radial = fh.read()
    assert "taper = 0.0\n" in radial
    assert parse_scenario(_write(tmp_path, "r0.scn", radial)).numerics["taper"] == 0.0
    untapered = radial.replace("taper = 0.0\n", "")
    assert parse_scenario(_write(tmp_path, "r1.scn", untapered)).numerics["taper"] == 0.5
    tapered = radial.replace("taper = 0.0", "taper = 0.35")
    line = tapered.splitlines().index("taper = 0.35") + 1
    with pytest.raises(TypeMismatch) as err:
        parse_scenario(_write(tmp_path, "r2.scn", tapered))
    assert f"line {line}:" in str(err.value)
    # the 1d coupled run does taper its data
    sc = parse_scenario(_write(tmp_path, "c.scn", COUPLED + "taper = 0.35\n"))
    assert sc.numerics["taper"] == 0.35


@pytest.mark.parametrize("kind", ["coupled", "coupled_radial"])
def test_coupled_dt_is_rejected_on_its_line(tmp_path, kind):
    if kind == "coupled":
        text = COUPLED
    else:
        with open(RADIAL_SCN, encoding="utf-8") as fh:
            text = fh.read()
    # the default dt does not count: only a line that sets it
    assert parse_scenario(_write(tmp_path, "a.scn", text)).numerics["dt"] == 1e-3
    text = text.replace("[numerics]\n", "[numerics]\ndt = 0.001\n")
    line = text.splitlines().index("dt = 0.001") + 1
    with pytest.raises(TypeMismatch) as err:
        parse_scenario(_write(tmp_path, "b.scn", text))
    assert f"line {line}:" in str(err.value)
    assert f"{kind} runs take dt from cfl" in str(err.value)


def test_manifest_written_and_sorted(tmp_path):
    path = _write(tmp_path, "m.scn", MINIMAL + "[numerics]\nmodes = 8\ndt = 0.005\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    man = json.load(open(tmp_path / "out" / "minimal" / "manifest.json"))
    assert man["scenario"]["name"] == "minimal"
    assert "version" in man and "backend" in man


def test_parser_edge_cases(tmp_path):
    with pytest.raises(UnknownKey):  # unknown section
        parse_scenario(_write(tmp_path, "s1.scn", "[scenario]\nname = x\n[plotting]\n"))
    with pytest.raises(UnknownKey):  # key before any section
        parse_scenario(_write(tmp_path, "s2.scn", "name = x\n"))
    with pytest.raises(TypeMismatch):  # malformed line
        parse_scenario(_write(tmp_path, "s3.scn", "[scenario]\nname  x\n"))
    with pytest.raises(TypeMismatch):  # enum violation
        parse_scenario(_write(tmp_path, "s4.scn", "[scenario]\nname = x\nkind = banana\n"))
    with pytest.raises(UnknownKey) as err:  # the deleted cylinder partition count
        parse_scenario(_write(tmp_path, "s5.scn", MINIMAL + "[numerics]\npartitions = 32\n"))
    assert "line 4:" in str(err.value) and "'partitions'" in str(err.value)
    for key in ("reference", "radius", "extents", "normal", "dim"):  # the n-d reference keys
        with pytest.raises(UnknownKey) as err:
            parse_scenario(_write(tmp_path, f"{key}.scn", MINIMAL + f"[motion]\n{key} = 1.0\n"))
        assert "line 4:" in str(err.value) and f"'{key}'" in str(err.value)


def test_unknown_level_kind_names_its_line(tmp_path):
    text = ("[scenario]\nname = x\n[motion]\nkind = sublevel_flow\n"
            "level_kind = affine\nprofile = Const(0.5)\n")
    with pytest.raises(TypeMismatch) as err:
        parse_scenario(_write(tmp_path, "lk.scn", text))
    assert "line 5:" in str(err.value)
    assert "['radial', 'reflected']" in str(err.value)


def test_verify_scenario_file_target(tmp_path):
    path = _write(tmp_path, "v.scn", MINIMAL + "[numerics]\nmodes = 8\ndt = 0.005\n")
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 0


def test_write_csv_matches_per_value_formatter(tmp_path):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0 / 3.0, -2.5e-310, 1e300])
    columns = [("t", np.arange(8) * 0.1), ("x", special), ("k", np.arange(-3, 5)),
               ("flag", special > 0.0), ("y", special[::-1])]
    path = tmp_path / "out.csv"
    write_csv(str(path), columns)
    # the per-value formatter the table-at-once writer replaced
    lines = [",".join(name for name, _ in columns)]
    for i in range(8):
        lines.append(",".join(f"{float(np.asarray(a)[i]):.17g}" for _, a in columns))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_tol_scale_belongs_to_suites_only(tmp_path):
    # run and sweep take no --tol-scale and write no tol_scale key;
    # verify <suite> scales its tolerances with it; verify <file> refuses it
    path = _write(tmp_path, "m.scn", MINIMAL)
    assert main(["run", "--tol-scale", "2", path]) == 2
    assert main(["sweep", str(tmp_path), "--tol-scale", "2"]) == 2
    assert main(["verify", path, "--tol-scale", "2"]) == 2
    assert main(["verify", path, "--seed", "1"]) == 2
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "minimal" / "manifest.json", encoding="utf-8") as fh:
        assert "tol_scale" not in json.load(fh)
