"""Scenario execution and deterministic artifact emission.

CSV layout: comma separated, '.' decimal, mandatory header row, times in
the first column, 17 significant digits.  The manifest echoes the fully
resolved scenario so a run can be reproduced byte for byte.

A wave run's [output] series alone picks its reader, for either solver:
without ``trajectory`` listed the run hands its rows to an
``energy.Ledger`` as it makes them and stores none; with it, ``Rows``
stores the run and ``ledger_transformed`` reads it, with the same bits.
"""

import contextlib
import json
import os

import numpy as np

from .characteristics import CharScenario
from .energy import Ledger, ledger_transformed
from .errors import TypeMismatch
from .expressions import Const, SpaceTimeField
from .fd import solve_fd
from .galerkin import Rows, solve_transformed_modal
from .griffith import CoupledNumerics, evolve_coupled_1d, evolve_coupled_radial
from .scenarios import SERIES, Scenario, SlopeField, build_motion, lift_boundary_load
from .transform import PulledBackProblem, pullback_initial


def write_csv(path, columns):
    """columns: list of (name, array); deterministic 17-digit format."""
    names = [c[0] for c in columns]
    table = np.column_stack([np.asarray(c[1], dtype=float) for c in columns])
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


class RunArtifacts:
    def __init__(self, directory, manifest, files):
        self.directory = directory
        self.manifest = manifest
        self.files = files


@contextlib.contextmanager
def _stage(name):
    """Tag propagated numerical failures with the pipeline stage."""
    from .errors import DebondWaveError, ScenarioError

    try:
        yield
    except ScenarioError:
        raise
    except DebondWaveError as exc:
        raise type(exc)(f"[stage: {name}] {exc}") from exc


def run_scenario(sc: Scenario, out_dir=None):
    """Execute a parsed scenario and write its artifacts: the CSVs its
    [output] series asks for, in the kind's SERIES order, then the manifest."""
    out_root = out_dir or sc.output["directory"]
    directory = os.path.join(out_root, sc.name)
    os.makedirs(directory, exist_ok=True)

    with _stage(sc.kind):
        tables = _run_wave(sc) if sc.kind == "wave" else _run_coupled(sc)
    wanted = sc.series
    files = []
    for name in SERIES[sc.kind]:
        if name in wanted:
            path = os.path.join(directory, f"{name}.csv")
            write_csv(path, tables[name])
            files.append(path)

    manifest = sc.manifest()
    mpath = os.path.join(directory, "manifest.json")
    with open(mpath, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    files.append(mpath)
    return RunArtifacts(directory, manifest, files)


def _forcing_field(sc):
    f = sc.data["f"]
    if isinstance(f, Const) and f.c == 0.0 and sc.data["f_time"] is None:
        return None
    return SpaceTimeField(f, sc.data["f_time"])


def _run_wave(sc):
    """Columns of the wave run's tables, keyed by series name."""
    fam = build_motion(sc.motion)
    if fam.dim != 1:
        raise TypeMismatch("the run pipeline solves 1d scenarios; "
                           "higher dimensions are verification-only")
    L = fam.reference.length
    u0 = sc.data["u0"]
    if sc.data["u1"] == "compatible":
        def u1(y):
            y = np.asarray(y, dtype=float)
            pd = fam.phi_dot(0.0, y.reshape(-1, 1))[:, 0]
            return -pd * np.asarray(u0.deriv(y), dtype=float)
    else:
        u1 = sc.data["u1"]
    forcing = _forcing_field(sc)

    if sc.data["w"] is not None:
        # nonzero load on the fixed end: lift to homogeneous data
        f_lift, u0, u1 = lift_boundary_load(sc, fam, u0, u1)
        base = forcing
        if base is None:
            forcing = f_lift
        else:
            def forcing(t, x, _base=base, _lift=f_lift):
                return np.asarray(_base(t, x), dtype=float) + _lift(t, x)

    problem = PulledBackProblem(fam, forcing)
    data = pullback_initial(fam, u0, u1)
    num = sc.numerics
    kappa = sc.data.get("kappa")
    # without a trajectory table, the ledger sums the rows as the run makes them
    keep = "trajectory" in sc.series
    reader = Rows() if keep else Ledger(fam, forcing, kappa, problem)
    with _stage("solve"):
        if num["solver"] == "spectral":
            out = solve_transformed_modal(
                problem, L, data.v0, data.v1, m=num["modes"], dt=num["dt"],
                T=fam.horizon, store_every=num["store_every"], reader=reader)
        else:
            out = solve_fd(problem, L, num["grid"], data.v0, data.v1, dt=num["dt"],
                           T=fam.horizon, store_every=num["store_every"], reader=reader)
    traj, led = (out, None) if keep else (None, out)
    if keep:
        with _stage("ledger"):
            led = ledger_transformed(traj, fam, forcing=forcing, kappa=kappa, problem=problem)

    moving = sc.motion["kind"] != "identity"

    cols = [("t", led.times), ("kinetic", led.kinetic), ("potential", led.potential),
            ("work", led.work)]
    if moving:
        cols += [("boundary_dissipation", led.boundary_dissipation)]
        if led.debond_dissipation is not None:
            cols += [("debond_dissipation", led.debond_dissipation)]
        cols += [("residual_moving", led.residual_moving)]
    cols += [("residual_fixed", led.residual_fixed)]
    if traj is None:
        return {"ledger": cols}
    trajectory = [("t", traj.times)] + [
        (f"c{k}", traj.values[:, k]) for k in range(traj.values.shape[1])]
    return {"ledger": cols, "trajectory": trajectory}


def _run_coupled(sc):
    """Columns of a coupled run's tables (1d or radial), keyed by series name."""
    num = sc.numerics
    taper = {"taper": num["taper"]} if "taper" in num else {}  # the radial run has none
    numerics = CoupledNumerics(n=num["front_grid"], cfl=num["cfl"],
                               store_every=num["store_every"], **taper)
    u1 = Const(0.0) if sc.data["u1"] == "compatible" else sc.data["u1"]
    horizon, forcing = sc.motion["horizon"], _forcing_field(sc)
    if sc.kind == "coupled":
        l0 = sc.coupled["l0"]
        char = CharScenario(l0=l0, u0=SlopeField(sc.data["u0_prime"], l0), u1=u1,
                            kappa=sc.data["kappa"], horizon=horizon, forcing=forcing)
        run = evolve_coupled_1d(char, numerics)
    else:  # u0 is a radial profile of r; it must vanish at both circles
        run = evolve_coupled_radial(sc.coupled["R"], sc.coupled["rho0"], sc.data["u0"], u1,
                                    sc.data["kappa"], horizon=horizon, numerics=numerics,
                                    forcing=forcing)
    front, rep, led = run.front, run.report, run.ledger
    return {
        "front": [("t", front.times), ("position", front.position), ("speed", front.speed),
                  ("trace", front.trace), ("kappa", front.kappa)],
        "griffith": [("t", rep.times), ("speed", rep.speed), ("G", rep.G),
                     ("kappa", rep.kappa), ("activation", rep.activation.astype(float)),
                     ("complementarity", rep.complementarity)],
        "ledger": [("t", led.times), ("kinetic", led.kinetic), ("potential", led.potential),
                   ("work", led.work), ("debond_dissipation", led.debond_dissipation),
                   ("residual_moving", led.residual_moving)],
    }
