"""The keys each scenario kind reads: a file sets only keys of its run's
row, and the manifest echoes exactly that row."""

import glob
import json
import os
import warnings

import numpy as np
import pytest

from debondwave.cli import main
from debondwave.errors import (BoundaryMismatch, DebondWaveError, RunTooLarge, TypeMismatch,
                               UnknownKey)
from debondwave.expressions import Const, SineMode, SpaceTimeField
from debondwave.runner import run_scenario
from debondwave.scenarios import parse_scenario
from debondwave.transform import lift_dirichlet

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
WAVE_FILE = "[scenario]\nname = w\n[numerics]\nmodes = 8\ndt = 0.005\n"

EVERY_RUN = {"scenario.name", "scenario.kind", "motion.horizon", "data.u1", "data.f",
             "data.f_time", "numerics.store_every", "output.directory"}
WAVE = EVERY_RUN | {"motion.kind", "data.u0", "data.w", "data.w_time", "numerics.solver",
                    "numerics.dt", "output.series"}
MOTION = {
    "identity": {"motion.length"},
    "one_d_scaling": {"motion.profile", "data.kappa"},
    "homothetic": {"motion.profile", "motion.length", "data.kappa"},
    "sublevel_flow": {"motion.profile", "motion.level", "motion.level_kind", "data.kappa"},
}
SOLVER = {"spectral": {"numerics.modes"}, "grid": {"numerics.grid"}}
COUPLED = EVERY_RUN | {"data.kappa", "numerics.front_grid", "numerics.cfl", "output.series"}

ROWS = {f"wave-{m}-{s}": WAVE | MOTION[m] | SOLVER[s] for m in MOTION for s in SOLVER}
ROWS["coupled"] = COUPLED | {"data.u0_prime", "coupled.l0", "numerics.taper"}
ROWS["coupled_radial"] = COUPLED | {"data.u0", "coupled.R", "coupled.rho0"}
SIZES = {"identity": 17, "one_d_scaling": 18, "homothetic": 19, "sublevel_flow": 20,
         "coupled": 15, "coupled_radial": 15}

# a valid value for every key any run reads, and keys no run reads
SAMPLE = {
    "scenario.name": "x", "scenario.kind": "wave",
    "motion.kind": "identity", "motion.length": "1.0", "motion.profile": "Affine(1.0, 0.5)",
    "motion.level": "4.0", "motion.level_kind": "reflected", "motion.horizon": "1.0",
    "data.u0": "SineMode(1.0, 1)", "data.u1": "Const(0.0)", "data.u0_prime": "Const(-2.0)",
    "data.f": "Const(0.0)", "data.f_time": "Const(1.0)", "data.w": "Const(0.0)",
    "data.w_time": "Const(1.0)", "data.kappa": "Const(1.0)",
    "coupled.l0": "1.0", "coupled.R": "2.0", "coupled.rho0": "0.5",
    "numerics.solver": "grid", "numerics.modes": "8", "numerics.grid": "64",
    "numerics.dt": "0.001", "numerics.store_every": "1", "numerics.front_grid": "128",
    "numerics.taper": "0.0", "numerics.cfl": "0.45",
    "output.directory": "out", "output.series": "ledger",
}
UNREAD = {"numerics.quad_nodes": "10", "numerics.partitions": "32", "coupled.verdict": "x"}


def _text(row_id):
    """A minimal file of the row: the keys that pick it and the required ones."""
    if row_id == "coupled":
        return ("[scenario]\nname = c\nkind = coupled\n[data]\nu0_prime = Const(-2.0)\n"
                "u1 = Const(1.4142135623730951)\n")
    if row_id == "coupled_radial":
        with open(os.path.join(SCENARIOS, "debonding_radial.scn"), encoding="utf-8") as fh:
            return fh.read()
    _, motion, solver = row_id.split("-")
    profile = "" if motion == "identity" else "profile = Affine(1.0, 0.5)\n"
    if motion == "sublevel_flow":  # rho stays below the default level R = 1
        profile = "profile = Affine(0.2, 0.1)\n"
    return (f"[scenario]\nname = w\n[motion]\nkind = {motion}\n{profile}"
            f"[numerics]\nsolver = {solver}\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _echoed(manifest):
    """The keys a manifest echoes; the coupled front verdict is a parse
    result, not a key."""
    keys = {f"{s}.{k}" for s, d in manifest.items() if isinstance(d, dict) for k in d}
    return keys - {"coupled.verdict"}


@pytest.mark.parametrize("row_id", sorted(ROWS))
def test_validate_echoes_exactly_the_row(tmp_path, capsys, row_id):
    assert len(ROWS[row_id]) == SIZES[row_id.split("-")[1] if "-" in row_id else row_id]
    assert main(["validate", _write(tmp_path, "v.scn", _text(row_id))]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert _echoed(manifest) == ROWS[row_id]
    assert ("verdict" in manifest.get("coupled", {})) == (not row_id.startswith("wave"))


@pytest.mark.parametrize("row_id", sorted(ROWS))
def test_every_key_of_the_row_may_be_set(tmp_path, row_id):
    kind, motion, solver = row_id.split("-") if row_id.startswith("wave") else (row_id, 0, 0)
    values = {**SAMPLE, "scenario.kind": kind, "motion.kind": motion, "numerics.solver": solver,
              "data.kappa": "Const(3.0)"}  # a front at rest for u1 = 0
    text = "".join("[{}]\n{} = {}\n".format(*key.split("."), values[key])
                   for key in sorted(ROWS[row_id]))
    sc = parse_scenario(_write(tmp_path, "all.scn", text))
    assert _echoed(sc.manifest()) == ROWS[row_id]


@pytest.mark.parametrize("row_id", sorted(ROWS))
def test_every_key_outside_the_row_is_refused_on_its_line(tmp_path, row_id):
    assert set().union(*ROWS.values()) == set(SAMPLE)  # the 29 keys of all rows
    base = _text(row_id)
    outside = sorted(set(SAMPLE) - ROWS[row_id]) + sorted(UNREAD)
    for key in outside:
        section, name = key.split(".")
        text = base + f"[{section}]\n{name} = {SAMPLE.get(key, UNREAD.get(key))}\n"
        with pytest.raises(UnknownKey) as err:
            parse_scenario(_write(tmp_path, "out.scn", text))
        message = str(err.value)
        assert message.startswith(f"line {len(text.splitlines())}: unknown key {name!r} "
                                  f"in section [{section}]"), (key, message)


@pytest.mark.parametrize("name", ["a.b", "", "a b", "1a"])
def test_a_key_name_that_is_no_identifier_is_refused_on_its_line(tmp_path, capsys, name):
    text = WAVE_FILE + f"[numerics]\n{name} = 1\n"
    path = _write(tmp_path, "d.scn", text)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == (f"error: line {len(text.splitlines())}: unknown key "
                                       f"{name!r} in section [numerics]\n")


COUPLED_FILE = _text("coupled")
RADIAL_FILE = _text("coupled_radial")


@pytest.mark.parametrize("text, key", [
    # a coupled file: none of these reaches the coupled run
    (COUPLED_FILE + "[data]\nw = Const(1.0)\n", "w"),
    (COUPLED_FILE + "[motion]\nkind = one_d_scaling\n", "kind"),
    (COUPLED_FILE + "[motion]\nprofile = Affine(1.0, 0.5)\n", "profile"),
    (COUPLED_FILE + "[numerics]\nmodes = 64\n", "modes"),
    (COUPLED_FILE + "[numerics]\ngrid = 64\n", "grid"),
    (COUPLED_FILE + "[numerics]\nsolver = grid\n", "solver"),
    (COUPLED_FILE + "[numerics]\nquad_nodes = 10\n", "quad_nodes"),
    # a wave file without kind or solver: an identity motion, a spectral solve
    (WAVE_FILE + "[motion]\nprofile = Affine(1.0, 0.5)\n", "profile"),
    (WAVE_FILE + "[numerics]\ngrid = 64\n", "grid"),
    # keys the radial manifest used to record although the run never read them
    (RADIAL_FILE + "[numerics]\ndt = 0.001\n", "dt"),
    (RADIAL_FILE + "[numerics]\nsolver = spectral\n", "solver"),
    (RADIAL_FILE + "[numerics]\nmodes = 32\n", "modes"),
    (RADIAL_FILE + "[coupled]\nl0 = 1.0\n", "l0"),
], ids=["coupled-w", "coupled-motion-kind", "coupled-profile", "coupled-modes",
        "coupled-grid", "coupled-solver", "coupled-quad-nodes", "wave-profile-identity",
        "wave-grid-spectral", "radial-dt", "radial-solver", "radial-modes", "radial-l0"])
def test_keys_a_run_ignores_exit_2_on_their_line(tmp_path, capsys, text, key):
    path = _write(tmp_path, "trap.scn", text)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {len(text.splitlines())}: unknown key {key!r}")
    assert not os.path.exists(tmp_path / "out")


def test_coupled_runs_write_every_table_by_default_and_only_what_series_lists(tmp_path):
    assert parse_scenario(_write(tmp_path, "a.scn", COUPLED_FILE)).series == [
        "front", "griffith", "ledger"]
    text = COUPLED_FILE + "[motion]\nhorizon = 0.2\n[numerics]\nfront_grid = 64\n" \
        "[output]\nseries = ledger\n"
    assert main(["run", _write(tmp_path, "b.scn", text), "--out", str(tmp_path / "out")]) == 0
    assert sorted(os.listdir(tmp_path / "out" / "c")) == ["ledger.csv", "manifest.json"]


def test_boundary_load_not_vanishing_on_the_moving_end_names_the_w_line(tmp_path, capsys):
    text = WAVE_FILE + "[data]\nw = Const(1.0)\nw_time = SineMode(1.0, 1)\n"
    path = _write(tmp_path, "w.scn", text)
    with pytest.raises(TypeMismatch, match="^line 7: W does not vanish on the moving boundary"):
        parse_scenario(path)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: line 7: ")
    assert not os.path.exists(tmp_path / "out")
    # the library keeps its own check
    sine = SineMode(1.0, 1).bound(1.0)
    ts = np.linspace(0.0, 1.0, 9)
    with pytest.raises(BoundaryMismatch):
        lift_dirichlet(SpaceTimeField(Const(1.0), sine), sine, Const(0.0), [0.0],
                       moving_points=(ts, np.ones_like(ts)))


def test_every_scenario_file_echoes_its_row():
    files = sorted(glob.glob(os.path.join(SCENARIOS, "*.scn")))
    assert len(files) == 4
    for path in files:
        sc = parse_scenario(path)
        if sc.kind == "wave":
            row_id = f"wave-{sc.motion['kind']}-{sc.numerics['solver']}"
        else:
            row_id = sc.kind
        assert _echoed(sc.manifest()) == ROWS[row_id], path


def test_a_loaded_motion_that_cannot_be_built_names_the_profile_line(tmp_path, capsys):
    # every wave motion is built at parse, so a profile that is not positive
    # on the horizon is refused there on its line, before the load is checked
    text = ("[scenario]\nname = n\n[motion]\nkind = one_d_scaling\nprofile = Affine(-1.0, 0.5)\n"
            "[data]\nw = Const(0.0)\n")
    assert main(["validate", _write(tmp_path, "n.scn", text)]) == 2
    assert capsys.readouterr().err.startswith("error: line 5: ")


def test_a_motion_that_cannot_be_built_names_the_profile_line(tmp_path, capsys):
    # with no boundary load as well: bad data, not a numerical failure (exit 3)
    text = "[scenario]\nname = n\n[motion]\nkind = one_d_scaling\nprofile = Affine(-1.0, 0.5)\n"
    path = _write(tmp_path, "n.scn", text)
    with pytest.raises(TypeMismatch, match=r"^line 5: l\(t\) must stay positive on the horizon"):
        parse_scenario(path)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: line 5: ")
    assert not os.path.exists(tmp_path / "out")


def test_w_time_without_w_names_its_line(tmp_path, capsys):
    # w_time scales the load w; alone it would be dropped and the run unloaded
    path = _write(tmp_path, "t.scn", WAVE_FILE + "[data]\nw_time = Const(5.0)\n")
    with pytest.raises(TypeMismatch, match="^line 7: w_time needs a boundary load w"):
        parse_scenario(path)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: line 7: ")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("name, old, new, line", [
    # about 6e15 steps of the 1025-node front grid
    ("debonding_constant.scn", "l0 = 1.0", "l0 = 1e-12", 7),
    # about 1e303 modal steps
    ("standing_wave.scn", "horizon = 1.0", "horizon = 1e300", 8),
])
def test_a_run_beyond_the_step_bound_is_refused_before_it_allocates(tmp_path, capsys, name,
                                                                    old, new, line):
    # these raised MemoryError in np.arange and a bare ValueError in half_steps;
    # parse refuses them at the horizon line
    with open(os.path.join(SCENARIOS, name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = _write(tmp_path, name, text.replace(old, new))
    with pytest.raises(TypeMismatch, match=f"^line {line}: .* steps exceed MAX_STEPS"):
        parse_scenario(path)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # l0 = 1e300 overflows before it blows up
@pytest.mark.parametrize("name, old, new, code", [
    # one step of T: a modal step of 1 runs, a grid step of 1 breaks the CFL bound
    ("standing_wave.scn", "dt = 0.001", "dt = 1e300", 0),
    ("moving_interval.scn", "dt = 0.001", "dt = 1e300", 3),
    ("debonding_constant.scn", "l0 = 1.0", "l0 = 1e300", 3),
    ("debonding_constant.scn", "store_every = 16", "store_every = 1\ncfl = 1e300", 0),
])
def test_a_step_longer_than_the_horizon_is_one_step_of_it(tmp_path, capsys, name, old, new,
                                                          code):
    # these divided by zero in the step count: validate printed a traceback
    # and exited 1, and sweep took the file for a defect
    with open(os.path.join(SCENARIOS, name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = _write(tmp_path, name, text.replace(old, new))
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_a_step_bound_error_without_a_horizon_line_names_the_dt_line(tmp_path):
    # the file keeps the default horizon, so the step it sets is what to change
    path = _write(tmp_path, "t.scn", WAVE_FILE.replace("dt = 0.005", "dt = 1e-300"))
    with pytest.raises(TypeMismatch, match="^line 5: .* steps exceed MAX_STEPS"):
        parse_scenario(path)


def test_the_run_time_step_bound_still_refuses_a_run_parse_did_not_check(tmp_path):
    # the solvers keep their own check_steps: a parsed scenario changed
    # afterwards is refused before it allocates, at its stage
    for name, section, key, value, stage in (
            ("debonding_constant.scn", "coupled", "l0", 1e-12, "[stage: coupled] "),
            ("standing_wave.scn", "motion", "horizon", 1e300, "[stage: wave] [stage: solve] ")):
        sc = parse_scenario(os.path.join(SCENARIOS, name))
        getattr(sc, section)[key] = value
        with pytest.raises(RunTooLarge) as err:
            run_scenario(sc, str(tmp_path / "out"))
        assert str(err.value).startswith(stage)


# the fuzz's grids: each case runs in tens of milliseconds at most
FUZZ_GRIDS = {"front_grid": "64", "grid": "40", "modes": "8"}
# no value gives a run near kernels.MAX_STEPS: a step count past it is
# refused at parse, and the rest stay far below it at these grids
FUZZ_VALUES = ("0", "-1", "1e-12", "1e300", "nan", "inf", "", "Const(1.0)", "Const(nan)",
               "SineMode(1.0, 1)", "Affine(1.0, 0.5)", "Poly(1.0, -2.0)", "Poly(0.0, 1.0, -1.0)")


def test_every_one_line_mutation_of_the_scenario_files_runs_or_is_typed(tmp_path):
    # a fixed table, not a random draw: each value in turn on each key line
    # of the four scenarios/ files, on small grids
    untyped, cases = [], 0
    for path in sorted(glob.glob(os.path.join(SCENARIOS, "*.scn"))):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines = [f"{ln.split(' =')[0]} = {FUZZ_GRIDS[ln.split(' =')[0]]}"
                 if ln.split(" =")[0] in FUZZ_GRIDS else ln for ln in lines]
        for i, line in enumerate(lines):
            if "=" not in line or line.startswith("#"):
                continue
            for value in FUZZ_VALUES:
                mutated = lines[:i] + [f"{line.split(' =')[0]} = {value}"] + lines[i + 1:]
                case = _write(tmp_path, os.path.basename(path), "\n".join(mutated) + "\n")
                cases += 1
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        run_scenario(parse_scenario(case), str(tmp_path / "out"))
                except DebondWaveError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the finding is its type
                    untyped.append((os.path.basename(path), line, value, repr(exc)))
    assert cases > 400
    assert untyped == []
