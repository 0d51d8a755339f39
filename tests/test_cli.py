import json
import os
import tracemalloc

import numpy as np
import pytest

from debondwave.cli import main
from debondwave.errors import MissingRequired, TypeMismatch, UnknownKey
from debondwave.runner import _BLOCK_ROWS, run_scenario, write_csv
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


def test_coupled_parse_checks_compatibility(tmp_path, capsys):
    sc = parse_scenario(_write(tmp_path, "e.scn", COUPLED))
    assert sc.coupled["verdict"] == "ActivatedStart"
    bad = COUPLED.replace("Const(-2.0)", "Const(-0.5)").replace(f"Const({float(SQ2)!r})", "Const(1.0)")
    with pytest.raises(TypeMismatch, match="^line 11: .* compatibility conditions"):
        parse_scenario(_write(tmp_path, "f.scn", bad))
    with pytest.raises(TypeMismatch, match="^line 11: kappa must be positive"):
        parse_scenario(_write(tmp_path, "g.scn", COUPLED.replace("kappa = Const(1.0)",
                                                                 "kappa = Const(-1.0)")))
    # kappa = sin(pi l0) is 0 up to round-off at the front: a bad file, not a
    # numerical failure, for run and sweep alike
    (tmp_path / "sweep").mkdir()
    sine = _write(tmp_path / "sweep", "h.scn",
                  COUPLED.replace("kappa = Const(1.0)", "kappa = SineMode(1.0, 1)"))
    capsys.readouterr()
    assert main(["run", sine, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: line 11: ")
    assert main(["sweep", str(tmp_path / "sweep"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out.startswith(f"FAIL {sine}: TypeMismatch: line 11: ")


def test_sweep_refuses_a_file(capsys):
    assert main(["sweep", RADIAL_SCN]) == 2
    assert capsys.readouterr().err == f"error: {RADIAL_SCN} is not a directory\n"


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
    (MINIMAL + "[motion]\nkind = homothetic\nprofile = Affine(2.0, 0.5)\n", "profile"),
    (RADIAL.replace("rho0 = 0.5", "R = 0.5\nrho0 = 0.5"), "R"),
    (RADIAL.replace("rho0 = 0.5", "R = 0.3\nrho0 = 0.5"), "R"),
], ids=["horizon-0", "horizon-neg", "length-neg", "grid-4", "store-every-7",
        "coupled-horizon-0", "l0-neg", "rho0-0", "homothetic-profile-0", "R-eq-rho0",
        "R-below-rho0"])
def test_run_rejects_out_of_range_values(tmp_path, capsys, text, key):
    path = _write(tmp_path, "range.scn", text)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(key + " ="))
    assert f"line {line}: {key}" in err and "Traceback" not in err


def test_verify_suite_exit_zero():
    assert main(["verify", "griffith"]) == 0
    # verify takes a suite name only: no option loosens a check or redraws its data
    assert main(["verify", "griffith", "--tol-scale", "2"]) == 2
    assert main(["verify", "griffith", "--seed", "1"]) == 2


def test_sweep_runs_all(tmp_path):
    _write(tmp_path, "a.scn", MINIMAL.replace("minimal", "s-a")
           + "[numerics]\nmodes = 8\ndt = 0.005\n")
    _write(tmp_path, "b.scn", MINIMAL.replace("minimal", "s-b")
           + "[numerics]\nmodes = 8\ndt = 0.005\n")
    assert main(["sweep", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert os.path.isdir(tmp_path / "out" / "s-a")
    assert os.path.isdir(tmp_path / "out" / "s-b")


def test_sweep_carries_on_past_failing_files(tmp_path, capsys):
    _write(tmp_path, "a_bad.scn", "[scenario]\nname = x\n[data]\ntouhgness = Const(1)\n")
    _write(tmp_path, "b_good.scn", MINIMAL.replace("minimal", "s-good")
           + "[numerics]\nmodes = 8\ndt = 0.005\n")
    argv = ["sweep", str(tmp_path), "--out", str(tmp_path / "out")]
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
    # the radial run does not taper its data, so its row has no taper key
    with open(RADIAL_SCN, encoding="utf-8") as fh:
        tapered = fh.read().replace("[numerics]\n", "[numerics]\ntaper = 0.35\n")
    line = tapered.splitlines().index("taper = 0.35") + 1
    with pytest.raises(UnknownKey) as err:
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
    # the coupled runs take their step from cfl, so their rows have no dt key
    text = text.replace("[numerics]\n", "[numerics]\ndt = 0.001\n")
    line = text.splitlines().index("dt = 0.001") + 1
    with pytest.raises(UnknownKey) as err:
        parse_scenario(_write(tmp_path, "b.scn", text))
    assert f"line {line}:" in str(err.value)


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


def test_verify_scenario_file_is_an_unknown_suite(tmp_path, capsys):
    path = _write(tmp_path, "v.scn", MINIMAL + "[numerics]\nmodes = 8\ndt = 0.005\n")
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert f"unknown suite {path!r}" in err and "'griffith'" in err
    assert not os.path.exists(tmp_path / "out")


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0 / 3.0, -2.5e-310, 1e300])


def _per_value_csv(columns, rows):
    """The per-value formatter the table-at-once writer replaced."""
    lines = [",".join(name for name, _ in columns)]
    for i in range(rows):
        lines.append(",".join(f"{float(np.asarray(a)[i]):.17g}" for _, a in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_write_csv_matches_per_value_formatter(tmp_path):
    special = SPECIAL
    columns = [("t", np.arange(8) * 0.1), ("x", special), ("k", np.arange(-3, 5)),
               ("flag", special > 0.0), ("y", special[::-1])]
    path = tmp_path / "out.csv"
    write_csv(str(path), columns)
    assert path.read_bytes() == _per_value_csv(columns, 8)


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                  3 * _BLOCK_ROWS + 5])
def test_write_csv_blocks_keep_the_per_value_bytes(tmp_path, rows):
    # tables shorter than, equal to and across the writer's row blocks
    special = np.resize(SPECIAL, rows)
    columns = [("t", np.arange(rows) * 0.1), ("x", special), ("k", np.arange(rows) - 3),
               ("flag", special > 0.0), ("y", special[::-1])]
    path = tmp_path / "out.csv"
    write_csv(str(path), columns)
    assert path.read_bytes() == _per_value_csv(columns, rows)


def _write_csv_at_once(path, columns):
    """The writer before row blocks: the whole table formatted in one string."""
    table = np.column_stack([np.asarray(c[1], dtype=float) for c in columns])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(c[0] for c in columns) + "\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


def test_write_csv_transient_stays_a_quarter_of_the_table_at_once_writer(tmp_path):
    # a coupled run's 6145-row table: formatted whole it traced about 2.4 MiB
    table = np.random.default_rng(3).standard_normal((6145, 6))
    columns = [(f"c{k}", table[:, k].copy()) for k in range(6)]
    peaks = []
    for writer in (_write_csv_at_once, write_csv):
        path = tmp_path / f"{writer.__name__}.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            writer(str(path), columns)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert (tmp_path / "write_csv.csv").read_bytes() == \
        (tmp_path / "_write_csv_at_once.csv").read_bytes()
    assert peaks[1] < 0.25 * peaks[0], peaks


def test_write_csv_transient_does_not_grow_with_the_row_count(tmp_path):
    # each block is stacked from its slices of the columns: a table four
    # times longer than the coupled run's traces the same peak (stacked
    # whole, the 6145 x 6 table alone was 0.28 MiB of 0.38 MiB)
    peaks = []
    for rows in (6145, 4 * 6145):
        table = np.random.default_rng(3).standard_normal((rows, 6))
        columns = [(f"c{k}", table[:, k].copy()) for k in range(6)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_csv(str(tmp_path / f"{rows}.csv"), columns)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096, peaks


def test_streamed_grid_run_memory_is_bounded(tmp_path):
    # moving_interval.scn streams its n = 400 grid run into its ledger a
    # solver block at a time: 2.46 MiB traced with blocks of 2^15
    # node-steps, about 1.4 MiB with 2^13
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "moving_interval.scn")
    run_scenario(parse_scenario(path), str(tmp_path / "warm"))
    tracemalloc.start()
    try:
        run_scenario(parse_scenario(path), str(tmp_path / "out"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_tol_scale_belongs_to_suites_only(tmp_path):
    # run and sweep take no --tol-scale and write no tol_scale key
    path = _write(tmp_path, "m.scn", MINIMAL)
    assert main(["run", "--tol-scale", "2", path]) == 2
    assert main(["sweep", str(tmp_path), "--tol-scale", "2"]) == 2
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "minimal" / "manifest.json", encoding="utf-8") as fh:
        assert "tol_scale" not in json.load(fh)


SINE = "SineMode(1.0, 1)"
WAVE = MINIMAL + "[numerics]\nmodes = 8\ndt = 0.005\n"
COUPLED_REST = COUPLED.replace(f"u1 = Const({float(SQ2)!r})", "u1 = Const(0.0)")
RADIAL_REST = RADIAL.replace("u1 = Poly(-113.137084989848, 203.646752981726, -118.79393923934, "
                             "22.6274169979695)", "u1 = Const(0.0)")


@pytest.mark.parametrize("text, code", [
    (WAVE + f"[data]\nf = {SINE}\n", 0),
    (WAVE + f"[data]\nf = Const(1.0)\nf_time = {SINE}\n", 0),
    (WAVE + f"[data]\nw = Affine(1.0, -1.0)\nw_time = {SINE}\n", 0),
    (WAVE + f"[motion]\nkind = one_d_scaling\nprofile = {SINE}\n", 2),  # l(0) = 0: bad data
    (COUPLED + f"[data]\nf = {SINE}\n", 0),
    (COUPLED.replace("kappa = Const(1.0)", f"kappa = {SINE}"), 2),  # kappa(l0) = 0: bad data
    (COUPLED_REST.replace("u0_prime = Const(-2.0)", f"u0_prime = {SINE}"), 0),
    (COUPLED_REST.replace("u0_prime = Const(-2.0)", "u0_prime = Const(-1.0)")
     .replace("u1 = Const(0.0)", f"u1 = {SINE}"), 0),
    (RADIAL + f"[data]\nf = {SINE}\n", 0),
    (RADIAL + "[data]\nkappa = SineMode(1.4142135623730951, 1)\n", 0),  # kappa(R - rho0) = 1
    (RADIAL_REST.replace("u0 = Poly(-48.0, 80.0, -44.0, 8.0)", f"u0 = {SINE}"), 0),
], ids=["wave-f", "wave-f_time", "wave-w_time", "wave-profile", "coupled-f", "coupled-kappa",
        "coupled-u0_prime", "coupled-u1", "radial-f", "radial-kappa", "radial-u0"])
def test_sine_mode_runs_in_every_field(tmp_path, capsys, text, code):
    path = _write(tmp_path, "sine.scn", text)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_expressions_bound_to_run_lengths(tmp_path):
    # spatial fields bind to profile(0) = 1.5, not to profile(horizon) = 1.9
    wave = parse_scenario(_write(tmp_path, "w.scn", (
        "[scenario]\nname = w\n[motion]\nkind = one_d_scaling\nprofile = Affine(1.5, 0.5)\n"
        f"horizon = 0.8\n[data]\nf = {SINE}\nf_time = {SINE}\nkappa = {SINE}\n"
        "[numerics]\ndt = 0.001\n")))
    assert [wave.data[k].length for k in ("u0", "f", "kappa")] == [1.5] * 3
    assert wave.data["f_time"].length == 0.8
    # a boundary load must vanish on the moving end, so w is checked on a
    # constant profile, whose end stays at 1.5 where the bound w vanishes
    loaded = parse_scenario(_write(tmp_path, "l.scn", (
        "[scenario]\nname = l\n[motion]\nkind = one_d_scaling\nprofile = Const(1.5)\n"
        f"horizon = 0.8\n[data]\nw = {SINE}\nw_time = {SINE}\n[numerics]\ndt = 0.001\n")))
    assert loaded.data["w"].length == 1.5
    assert loaded.data["w_time"].length == 0.8
    homothetic = parse_scenario(_write(tmp_path, "h.scn", MINIMAL + (
        "[motion]\nkind = homothetic\nlength = 2.5\nprofile = Affine(1.0, 0.5)\n")))
    assert homothetic.data["u0"].length == 2.5
    radial = parse_scenario(_write(tmp_path, "r.scn", RADIAL + (
        "[data]\nkappa = SineMode(1.4142135623730951, 1)\n")))
    assert radial.data["kappa"].length == 2.0  # R: vanishes on the fixed outer circle


@pytest.mark.parametrize("series", ["ledgr", "front", "ledger, griffith", ""])
def test_series_outside_the_kind_names_its_line(tmp_path, capsys, series):
    text = WAVE + f"[output]\nseries = {series}\n"
    assert main(["run", _write(tmp_path, "s.scn", text), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"line {len(text.splitlines())}: series must list names from " in err
    assert not os.path.exists(tmp_path / "out")


def _table(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_run_radial_scenario_writes_coupled_tables(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", RADIAL_SCN, "--out", str(out)]) == 0
    run_dir = out / "debonding-radial"
    assert capsys.readouterr().out.splitlines() == [
        str(run_dir / f) for f in ("front.csv", "griffith.csv", "ledger.csv", "manifest.json")]
    headers = {"front": "t,position,speed,trace,kappa",
               "griffith": "t,speed,G,kappa,activation,complementarity",
               "ledger": "t,kinetic,potential,work,debond_dissipation,residual_moving"}
    for name, header in headers.items():
        got, table = _table(run_dir / f"{name}.csv")
        assert ",".join(got) == header and np.all(np.isfinite(table))


FORCED = """\
[scenario]
name = forced

[motion]
kind = one_d_scaling
profile = Affine(1.0, 0.5)

[data]
f = Poly(0.0, 1.0, -1.0)
f_time = Affine(0.0, 1.0)

[numerics]
solver = grid
grid = 200
dt = 2e-3
"""


def test_run_forced_wave_ledger_books_the_work(tmp_path):
    assert main(["run", _write(tmp_path, "f.scn", FORCED), "--out", str(tmp_path)]) == 0
    header, table = _table(tmp_path / "forced" / "ledger.csv")
    col = {name: np.abs(table[:, i]) for i, name in enumerate(header)}
    assert col["work"].max() > 0.05  # 0.104 measured
    assert col["residual_fixed"].max() < 2e-3  # 1.05e-3 measured
    assert col["residual_moving"].max() < 9e-3  # 4.4e-3 measured


def test_run_boundary_load_balances_the_fixed_ledger(tmp_path):
    text = WAVE.replace("modes = 8\ndt = 0.005", "modes = 16\ndt = 2e-3") + (
        "[data]\nu0 = Affine(1.0, -1.0)\nw = Affine(1.0, -1.0)\nw_time = Affine(1.0, 0.5)\n")
    assert main(["run", _write(tmp_path, "w.scn", text), "--out", str(tmp_path)]) == 0
    header, table = _table(tmp_path / "minimal" / "ledger.csv")
    assert header == ["t", "kinetic", "potential", "work", "residual_fixed"]
    assert table[:, 1].max() > 1e-2  # the load drives the string
    assert np.abs(table[:, 4]).max() < 1e-8  # 2.6e-9 measured


def test_run_writes_trajectory_series(tmp_path, capsys):
    text = FORCED + "\n[output]\nseries = ledger, trajectory\n"
    assert main(["run", _write(tmp_path, "t.scn", text), "--out", str(tmp_path)]) == 0
    assert [os.path.basename(f) for f in capsys.readouterr().out.splitlines()] == [
        "ledger.csv", "trajectory.csv", "manifest.json"]
    header, table = _table(tmp_path / "forced" / "trajectory.csv")
    assert header == ["t"] + [f"c{k}" for k in range(201)]  # one column per node
    assert table.shape == (501, 202)
    np.testing.assert_allclose(table[0, 1:], np.sin(np.pi * np.linspace(0.0, 1.0, 201)),
                               atol=1e-15)


SPECTRAL = MOVING.replace("solver = grid\ngrid = 128", "solver = spectral\nmodes = 16")


@pytest.mark.parametrize("text, name", [(MOVING, "moving"), (FORCED, "forced"),
                                        (SPECTRAL, "moving")], ids=["moving", "forced", "spectral"])
def test_streamed_and_stored_grid_runs_write_the_same_ledger(tmp_path, text, name):
    # without trajectory in series the run, grid or spectral, hands its rows
    # to the ledger as it makes them; with it, the ledger reads the stored run
    for series in ("ledger", "ledger, trajectory"):
        out = tmp_path / series.replace(", ", "-")
        path = _write(tmp_path, f"{out.name}.scn", text + f"\n[output]\nseries = {series}\n")
        assert main(["run", path, "--out", str(out)]) == 0
    streamed = (tmp_path / "ledger" / name / "ledger.csv").read_bytes()
    assert streamed == (tmp_path / "ledger-trajectory" / name / "ledger.csv").read_bytes()
    assert not (tmp_path / "ledger" / name / "trajectory.csv").exists()


def test_homothetic_run_matches_interval_scaling(tmp_path):
    homothetic = MOVING.replace("kind = one_d_scaling", "kind = homothetic\nlength = 1.0")
    for name, text in (("scaling", MOVING), ("homothetic", homothetic)):
        assert main(["run", _write(tmp_path, f"{name}.scn", text),
                     "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "scaling" / "moving" / "ledger.csv").read_bytes()
    assert a == (tmp_path / "homothetic" / "moving" / "ledger.csv").read_bytes()


def test_validate_echoes_the_manifest_as_json(tmp_path, capsys):
    assert main(["validate", _write(tmp_path, "v.scn", MOVING)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["scenario"] == {"name": "moving", "kind": "wave"}
    assert manifest["motion"]["profile"] == "Affine(1, 0.5)"
