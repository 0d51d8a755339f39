"""Scenario execution and deterministic artifact emission.

CSV layout: comma separated, '.' decimal, mandatory header row, times in
the first column, 17 significant digits.  The manifest echoes the fully
resolved scenario so a run can be reproduced byte for byte.
"""

import contextlib
import json
import os

import numpy as np

from .characteristics import CharScenario
from .domains import Interval
from .energy import ledger_transformed
from .errors import TypeMismatch
from .expressions import Const, SpaceTimeField
from .fd import solve_fd
from .galerkin import solve_transformed_modal
from .griffith import CoupledNumerics, evolve_coupled_1d, evolve_coupled_radial
from .motion import (
    SublevelFlowMotion,
    homothetic,
    identity_motion,
    one_d_scaling,
)
from .scenarios import Scenario, SlopeField
from .transform import PulledBackProblem, lift_dirichlet, pullback_initial


def build_motion(motion):
    """Motion family from a resolved [motion] section; identity and
    homothetic act on the interval (0, length)."""
    kind = motion["kind"]
    T = motion["horizon"]
    if kind == "identity":
        return identity_motion(Interval(motion["length"]), T, 1e-9)
    if kind == "one_d_scaling":
        return one_d_scaling(motion["profile"], T)
    if kind == "homothetic":
        return homothetic(motion["profile"], Interval(motion["length"]), T)
    if kind == "sublevel_flow":
        return SublevelFlowMotion(motion["level_kind"], motion["level"], motion["profile"], T)
    raise TypeMismatch(f"unknown motion kind {kind!r}")


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
    """Execute a parsed scenario and write its artifacts."""
    out_root = out_dir or sc.output["directory"]
    directory = os.path.join(out_root, sc.name)
    os.makedirs(directory, exist_ok=True)
    files = []

    with _stage(sc.kind):
        if sc.kind == "wave":
            files += _run_wave(sc, directory)
        elif sc.kind == "coupled":
            files += _run_coupled(sc, directory)
        else:
            files += _run_coupled_radial(sc, directory)

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


def _run_wave(sc, directory):
    fam = build_motion(sc.motion)
    if fam.dim != 1:
        raise TypeMismatch("the run pipeline solves 1d scenarios; "
                           "higher dimensions are verification-only")
    L = fam.reference.length
    u0 = sc.data["u0"].bound(L)
    if sc.data["u1"] == "compatible":
        def u1(y):
            y = np.asarray(y, dtype=float)
            pd = fam.phi_dot(0.0, y.reshape(-1, 1))[:, 0]
            return -pd * np.asarray(u0.deriv(y), dtype=float)
    else:
        u1 = sc.data["u1"].bound(L)
    forcing = _forcing_field(sc)

    if sc.data["w"] is not None:
        # nonzero load on the fixed end: lift to homogeneous data
        W = SpaceTimeField(sc.data["w"].bound(L), sc.data["w_time"])
        ts = np.linspace(0.0, fam.horizon, 9)
        moving = (ts, fam.domain_measure(ts))
        f_lift, u0, u1 = lift_dirichlet(W, u0, u1, fixed_points=[0.0],
                                        moving_points=moving)
        base = forcing
        if base is None:
            forcing = f_lift
        else:
            def forcing(t, x, _base=base, _lift=f_lift):
                return np.asarray(_base(t, x), dtype=float) + _lift(t, x)

    problem = PulledBackProblem(fam, forcing)
    data = pullback_initial(fam, u0, u1)
    num = sc.numerics
    with _stage("solve"):
        if num["solver"] == "spectral":
            traj = solve_transformed_modal(
                problem, L, data.v0, data.v1, m=num["modes"], dt=num["dt"],
                T=fam.horizon, nodes=num["quad_nodes"], store_every=num["store_every"])
        else:
            traj = solve_fd(problem, L, num["grid"], data.v0, data.v1,
                            dt=num["dt"], T=fam.horizon, store_every=num["store_every"])

    moving = sc.motion["kind"] != "identity"
    kappa = sc.data["kappa"].bound(L) if moving else None
    with _stage("ledger"):
        led = ledger_transformed(traj, fam, forcing=forcing, kappa=kappa, problem=problem)

    cols = [("t", led.times), ("kinetic", led.kinetic), ("potential", led.potential),
            ("work", led.work)]
    if moving:
        cols += [("boundary_dissipation", led.boundary_dissipation)]
        if led.debond_dissipation is not None:
            cols += [("debond_dissipation", led.debond_dissipation)]
        cols += [("residual_moving", led.residual_moving)]
    cols += [("residual_fixed", led.residual_fixed)]

    files = []
    series = [s.strip() for s in sc.output["series"].split(",") if s.strip()]
    if "ledger" in series:
        path = os.path.join(directory, "ledger.csv")
        write_csv(path, cols)
        files.append(path)
    if "trajectory" in series:
        path = os.path.join(directory, "trajectory.csv")
        vals = [("t", traj.times)] + [
            (f"c{k}", traj.values[:, k]) for k in range(traj.values.shape[1])]
        write_csv(path, vals)
        files.append(path)
    return files


def _coupled_files(run, directory, series):
    files = []
    if "front" in series:
        path = os.path.join(directory, "front.csv")
        write_csv(path, [("t", run.front.times), ("position", run.front.position),
                         ("speed", run.front.speed), ("trace", run.front.trace),
                         ("kappa", run.front.kappa)])
        files.append(path)
    if "griffith" in series:
        path = os.path.join(directory, "griffith.csv")
        rep = run.report
        write_csv(path, [("t", rep.times), ("speed", rep.speed), ("G", rep.G),
                         ("kappa", rep.kappa),
                         ("activation", rep.activation.astype(float)),
                         ("complementarity", rep.complementarity)])
        files.append(path)
    if "ledger" in series:
        path = os.path.join(directory, "ledger.csv")
        led = run.ledger
        write_csv(path, [("t", led.times), ("kinetic", led.kinetic),
                         ("potential", led.potential), ("work", led.work),
                         ("debond_dissipation", led.debond_dissipation),
                         ("residual_moving", led.residual_moving)])
        files.append(path)
    return files


def _coupled_numerics(sc):
    num = sc.numerics
    return CoupledNumerics(n=num["front_grid"], cfl=num["cfl"],
                           store_every=num["store_every"], taper=num["taper"])


def _run_coupled(sc, directory):
    l0 = sc.coupled["l0"]
    u0p = sc.data["u0_prime"]
    u0 = SlopeField(u0p, l0)
    u1 = Const(0.0) if sc.data["u1"] == "compatible" else sc.data["u1"]
    char = CharScenario(l0=l0, u0=u0, u1=u1, kappa=sc.data["kappa"],
                        horizon=sc.motion["horizon"], forcing=_forcing_field(sc))
    run = evolve_coupled_1d(char, _coupled_numerics(sc))
    series = [s.strip() for s in sc.output["series"].split(",") if s.strip()]
    if not series or series == ["ledger"]:
        series = ["ledger", "front", "griffith"]
    return _coupled_files(run, directory, series)


def _run_coupled_radial(sc, directory):
    R = sc.coupled["R"]
    rho0 = sc.coupled["rho0"]
    u0 = sc.data["u0"]  # radial profile of r; must vanish at both circles
    u1 = sc.data["u1"]
    if u1 == "compatible":
        u1 = Const(0.0)
    run = evolve_coupled_radial(R, rho0, u0, u1, sc.data["kappa"],
                                horizon=sc.motion["horizon"],
                                numerics=_coupled_numerics(sc),
                                forcing=_forcing_field(sc))
    series = [s.strip() for s in sc.output["series"].split(",") if s.strip()]
    if not series or series == ["ledger"]:
        series = ["ledger", "front", "griffith"]
    return _coupled_files(run, directory, series)
