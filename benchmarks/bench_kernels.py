"""Time the RK4 wave stepper in its two call patterns, the modal RK4, the
cylinder scheme, the coupled front solvers, the grid ledger, the grid
solver and the measure identity.

Each per-step row is timed in PROCESSES fresh processes (--row NAME):
each process prints its best of three timings, and the row shows the
median and quartiles of those bests, in seconds and in microseconds per
RK4 step, since one process's timing drifts by up to 2x from the next on
a shared machine.  The rows: one long unforced run of a kernels.Stepper
on 2 nsteps + 1 precomputed half-step coefficient rows
(kernels.coefficient_rows: [B | a | b] a slot), with the a term and
without it (rows [B | b], the path solve_fd takes when lam'' = 0 over the
run); 6144 chained single steps (kernels.RK4.step) of one unforced
kernels.Stepper at n = 1024 on three coefficient rows (as the coupled
front solver makes them for scenarios/debonding_constant.scn; the solver
also refills the rows in place before each step, which is not timed
here); one solve_transformed_modal call on the criterion-4 problem (l(t)
= 1 + t/2, v0 = sin(pi y), m = 64, dt = 5e-4, T = 1, assembly and
projection included); one solve_cylinder call on the same problem at 64
partitions of the 768-cell grid (640 inner steps of kernels.UnitStepper,
the count the partition rule gives; only the 65 partition-end states are
stored); and one whole coupled run of scenarios/debonding_constant.scn
(n = 1024, 6144 steps) and of scenarios/debonding_radial.scn (n = 512),
as ``debondwave run`` makes it without the CSVs: front trace, flow rule,
coefficient fill, step and ledger, per step.  The two grid-ledger rows
time one energy.Ledger (start, 1000 stored rows fed in chunks of 100,
finish) at n = 400 and n = 800 on the criterion-4 motion, per stored row:
the sampling of v_dot and v_y at the quadrature nodes and the block sums.
The geometry row times energy.measure_identity_residual over the seven
families of verify._builtin_families() the same way (the identities
suite's measure identity: boundary_kinematics at 201 times of each
family's faces at resolution 128), with the time per family, and then the
tracemalloc peak of that call on the homothetic box and on the sublevel
annulus.  Then the tracemalloc peak of the cylinder call.  Then, for one
solve_fd call on the same problem at n = 800, dt = 5e-4 (coefficient fill
included), the median of three wall times and the tracemalloc peak of a
fourth call, with the bytes of the returned trajectory it includes; then
the peak of one call that stores only t = 0 and t = 1 (store_every =
2000).  Then the tracemalloc peak of ledger_transformed on the every-step
n = 800 trajectory, without and with the fixed-domain balance (problem=),
beside the trajectory it reads.  Then the peak of the whole n = 800 run
with its ledger, stored (solve_fd, then ledger_transformed on the
trajectory) beside streamed (solve_fd with reader=energy.Ledger, which
stores no trajectory), and streamed with problem=.  Last, the
tracemalloc peak in MiB of each `debondwave run` on a scenarios/ file
(parse and run, CSVs written to a temporary directory), of the verify
suites transform-equivalence, energy and coupled-1d and of the m = 64
Galerkin assembly alone (GalerkinSystem, on the criterion-4 problem), and
the import footprint: over PROCESSES fresh interpreters, the wall time and peak
resident set (VmHWM) of ``import debondwave.cli`` and the public numpy
submodules it loaded, so a heavy import such as numpy.polynomial shows
here.  Usage:

    python benchmarks/bench_kernels.py [--steps N] [--grid N]
"""

import argparse
import gc
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import debondwave
from debondwave.cylinder import INNER_CFL, solve_cylinder
from debondwave.energy import Ledger, ledger_transformed, measure_identity_residual
from debondwave.expressions import Affine
from debondwave.fd import solve_fd
from debondwave.galerkin import GalerkinSystem, SineBasis, solve_transformed_modal
from debondwave.kernels import Stepper, coefficient_rows
from debondwave.motion import one_d_scaling
from debondwave.runner import _run_coupled, run_scenario
from debondwave.scenarios import parse_scenario
from debondwave.transform import PulledBackProblem
from debondwave.verify import _builtin_families, run_suite

# fresh processes a per-step row is timed in
PROCESSES = 5
SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scenarios")


def bench_fd(n, nsteps, repeats=3, a_term=True):
    h = 1.0 / n
    dt = 0.7 * h
    rng = np.random.default_rng(0)
    y = np.linspace(0.0, 1.0, n + 1)
    B, a, b = coefficient_rows(2 * nsteps + 1, n, with_a=a_term)
    B[:] = 1.0 - 0.2 * np.sin(np.pi * 0.5 * (y[:-1] + y[1:]))
    if a_term:
        a[:] = 0.1 * y[1:-1]
    b[:] = 0.2 * y[1:-1]
    best = np.inf
    for _ in range(repeats):
        stepper = Stepper(h, dt, B, a, b)
        v, vd = stepper.state
        v[:] = np.sin(np.pi * y)
        vd[:] = rng.standard_normal(n + 1) * 0.01
        v[0] = v[-1] = vd[0] = vd[-1] = 0.0
        t0 = time.perf_counter()
        stepper.run(nsteps)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_chain(n, nsteps, repeats=3):
    """nsteps chained single steps of one Stepper, the coupled solvers' pattern."""
    h = 1.0 / n
    dt = 0.45 * h
    y = np.linspace(0.0, 1.0, n + 1)
    ym = 0.5 * (y[:-1] + y[1:])
    B, a, b = coefficient_rows(3, n)
    B[:], a[:], b[:] = 1.0 - 0.2 * ym ** 2, -0.1 * y[1:-1], 0.2 * y[1:-1]
    best = np.inf
    for _ in range(repeats):
        stepper = Stepper(h, dt, B, a, b)
        v, vd = stepper.state
        v[:] = np.sin(np.pi * y)
        vd[:] = 0.0
        step = stepper.step
        t0 = time.perf_counter()
        for _ in range(nsteps):
            step(0)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_coupled(name, repeats=3):
    """(best time, steps) of the coupled run of a scenarios/ file, tables
    built and no CSV written."""
    sc = parse_scenario(os.path.join(SCENARIOS, name))
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        tables = _run_coupled(sc)
        best = min(best, time.perf_counter() - t0)
    return best, len(tables["front"][0][1]) - 1


def bench_modal(m, nsteps, repeats=3):
    """One modal solve of the criterion-4 problem over T = 1."""
    problem = PulledBackProblem(one_d_scaling(Affine(1.0, 0.5), 1.0))
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve_transformed_modal(problem, 1.0, lambda y: np.sin(np.pi * y),
                                lambda y: np.zeros_like(y), m=m, dt=1.0 / nsteps, T=1.0)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_cylinder(inner_n, partitions, repeats=3):
    """One cylinder solve of the criterion-4 problem over T = 1; returns
    (best time, inner steps, tracemalloc peak of one more solve).  Each
    partition takes ceil(width / (INNER_CFL h)) steps, h = l(1) / inner_n."""
    fam = _criterion4_problem().fam

    def u0(x):
        return np.sin(np.pi * np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

    def u1(x):
        x = np.asarray(x, dtype=float)
        return -(x / 2.0) * np.pi * np.cos(np.pi * x)

    def solve():
        return solve_cylinder(fam, u0, u1, partitions=partitions, inner_n=inner_n)

    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve()
        best = min(best, time.perf_counter() - t0)
    h = fam.domain_measure(1.0) / inner_n
    steps = int(np.sum(np.ceil(np.diff(np.linspace(0.0, 1.0, partitions + 1)) / (INNER_CFL * h))))
    return best, steps, _traced_peak(solve)[1]


def bench_identities(repeats=3):
    """(best time, families) of measure_identity_residual over the built-in
    families, after one untimed call each."""
    fams = list(_builtin_families().values())
    for fam in fams:
        measure_identity_residual(fam)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for fam in fams:
            measure_identity_residual(fam)
        best = min(best, time.perf_counter() - t0)
    return best, len(fams)


def identity_peaks():
    """tracemalloc peaks of measure_identity_residual on the homothetic box
    and on the sublevel annulus, each after one untimed call."""
    fams = _builtin_families()
    peaks = []
    for name in ("homothetic_box", "sublevel_annulus"):
        measure_identity_residual(fams[name])
        peaks.append(_traced_peak(lambda: measure_identity_residual(fams[name]))[1])
    return peaks


def bench_ledger(n, rows=1000, chunk=100, repeats=3):
    """(best time, stored rows) of one energy.Ledger on the criterion-4
    motion over rows stored grid rows at n cells, fed chunk rows at a time
    as a streamed run feeds them (the same chunk each time)."""
    fam = _criterion4_problem().fam
    x = np.linspace(0.0, 1.0, n + 1)
    times = np.arange(rows) * (1.0 / rows)
    phase = np.linspace(0.0, 1.0, chunk)[:, None]
    V, Vd = np.sin(np.pi * x) * np.cos(phase), np.sin(np.pi * x) * np.sin(phase)
    best = np.inf
    for _ in range(repeats):
        led = Ledger(fam)
        t0 = time.perf_counter()
        led.start(times, "grid", 1.0, x=x)
        for _ in range(rows // chunk):
            led.feed(V, Vd)
        led.finish()
        best = min(best, time.perf_counter() - t0)
    return best, rows


def _criterion4_problem():
    return PulledBackProblem(one_d_scaling(Affine(1.0, 0.5), 1.0))


def _traced_peak(fn):
    """(result, tracemalloc peak above the memory traced before the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def _solve(problem, n, store_every=1, reader=None):
    return solve_fd(problem, 1.0, n, lambda y: np.sin(np.pi * y), np.zeros_like,
                    dt=5e-4, T=1.0, store_every=store_every, reader=reader)


def bench_solve_fd(n, repeats=3):
    """(median wall time, tracemalloc peak, trajectory bytes) of solve_fd on
    the criterion-4 problem over T = 1 at dt = 5e-4."""
    problem = _criterion4_problem()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _solve(problem, n)
        times.append(time.perf_counter() - t0)
    traj, peak = _traced_peak(lambda: _solve(problem, n))
    held = sum(a.nbytes for a in (traj.times, traj.values, traj.velocities, traj.x))
    return statistics.median(times), peak, held


def bench_memory(n):
    """tracemalloc peaks of solve_fd storing only both ends (store_every =
    2000), of ledger_transformed without and with problem= on the
    every-step trajectory (already allocated, so not counted), and of the
    every-step run with its ledger: stored, streamed, streamed with problem=."""
    problem = _criterion4_problem()
    fam = problem.fam
    _, sparse = _traced_peak(lambda: _solve(problem, n, store_every=2000))
    traj = _solve(problem, n)
    _, plain = _traced_peak(lambda: ledger_transformed(traj, fam))
    _, fixed = _traced_peak(lambda: ledger_transformed(traj, fam, problem=problem))
    del traj
    _, stored = _traced_peak(lambda: ledger_transformed(_solve(problem, n), fam))
    _, streamed = _traced_peak(lambda: _solve(problem, n, reader=Ledger(fam)))
    _, streamed_fixed = _traced_peak(
        lambda: _solve(problem, n, reader=Ledger(fam, problem=problem)))
    return sparse, plain, fixed, stored, streamed, streamed_fixed


def run_peaks():
    """(name, tracemalloc peak) of each scenarios/ run, of the verify
    suites transform-equivalence, energy and coupled-1d, and of the m = 64
    Galerkin assembly alone (GalerkinSystem on the criterion-4 problem),
    each after a full garbage collection (cyclic garbage left by earlier
    calls would move the peaks)."""
    peaks = []
    with tempfile.TemporaryDirectory() as out:
        for path in sorted(glob.glob(os.path.join(SCENARIOS, "*.scn"))):
            gc.collect()
            peak = _traced_peak(lambda: run_scenario(parse_scenario(path), out))[1]
            peaks.append((f"run {os.path.basename(path)}", peak))
    for suite in ("transform-equivalence", "energy", "coupled-1d"):
        gc.collect()
        peaks.append((f"verify {suite}", _traced_peak(lambda: run_suite(suite))[1]))
    problem = _criterion4_problem()
    gc.collect()
    peaks.append(("GalerkinSystem m=64",
                  _traced_peak(lambda: GalerkinSystem(SineBasis(1.0, 64), problem))[1]))
    return peaks


# VmHWM, not ru_maxrss: on Linux a child's ru_maxrss keeps the resident
# peak of the process that spawned it (exec carries it over), so from here
# it reads this script's own peak; VmHWM is the peak of the child's memory
IMPORT_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import debondwave.cli
wall = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
numpy = sorted(m for m in sys.modules if m.startswith("numpy.") and m.count(".") == 1
               and not m.startswith("numpy._"))
print(json.dumps([wall, hwm, numpy]))
"""


def import_footprint():
    """(wall quartiles in s, peak resident set quartiles in KiB, numpy
    submodules) of ``import debondwave.cli`` over PROCESSES fresh
    interpreters."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(debondwave.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    walls, peaks, loaded = [], [], set()
    for _ in range(PROCESSES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, env=env,
                             capture_output=True, text=True).stdout
        wall, hwm, numpy = json.loads(out)
        walls.append(wall)
        peaks.append(hwm)
        loaded.update(numpy)
    return (statistics.quantiles(walls, n=4, method="inclusive"),
            statistics.quantiles(peaks, n=4, method="inclusive"), sorted(loaded))


def step_rows(args):
    """Per-step rows: name -> a function returning (best time, RK4 steps or,
    for the grid-ledger rows, stored rows)."""
    return {
        "wave stepper": lambda: (bench_fd(args.grid, args.steps), args.steps),
        "wave stepper, a = 0": lambda: (bench_fd(args.grid, args.steps, a_term=False),
                                        args.steps),
        "1-step chain": lambda: (bench_chain(1024, 6144), 6144),
        "modal RK4": lambda: (bench_modal(64, 2000), 2000),
        "cylinder 64 x 768": lambda: bench_cylinder(768, 64)[:2],
        "coupled 1d n=1024": lambda: bench_coupled("debonding_constant.scn"),
        "coupled radial n=512": lambda: bench_coupled("debonding_radial.scn"),
        "grid ledger n=400": lambda: bench_ledger(400),
        "grid ledger n=800": lambda: bench_ledger(800),
    }


GEOMETRY = "measure identity"


def fresh_processes(name, args):
    """(median, q1, q3, count) of a row's best times over PROCESSES fresh
    processes; count is the row's RK4 steps, stored rows or families."""
    cmd = [sys.executable, os.path.abspath(__file__), "--row", name,
           "--steps", str(args.steps), "--grid", str(args.grid)]
    bests = []
    for _ in range(PROCESSES):
        best, count = subprocess.run(cmd, check=True, capture_output=True,
                                     text=True).stdout.split()
        bests.append(float(best))
    q1, med, q3 = statistics.quantiles(bests, n=4, method="inclusive")
    return med, q1, q3, int(count)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=4000)
    ap.add_argument("--grid", type=int, default=800)
    ap.add_argument("--row", help="time one row in this process and print it")
    args = ap.parse_args()
    rows = step_rows(args)
    if args.row is not None:
        best, count = bench_identities() if args.row == GEOMETRY else rows[args.row]()
        print(best, count)
        return

    print(f"per-step rows: median [quartiles] of {PROCESSES} processes' best of 3")
    print(f"{'kernel':<22} {'time (s)':>24} {'us / step or row':>22}")
    for name in rows:
        med, q1, q3, steps = fresh_processes(name, args)
        us = [1e6 * x / steps for x in (med, q1, q3)]
        print(f"{name:<22} {med:>14.4f} [{q1:.4f}, {q3:.4f}] {us[0]:>10.1f} "
              f"[{us[1]:.1f}, {us[2]:.1f}]")
    med, q1, q3, fams = fresh_processes(GEOMETRY, args)
    ms = [1e3 * x / fams for x in (med, q1, q3)]
    print(f"{GEOMETRY:<22} {med:>14.4f} [{q1:.4f}, {q3:.4f}] {ms[0]:>10.2f} "
          f"[{ms[1]:.2f}, {ms[2]:.2f}] ms / family ({fams} families)")
    box, annulus = identity_peaks()
    print(f"measure identity: tracemalloc peak {box / 2 ** 20:.2f} MiB homothetic box, "
          f"{annulus / 2 ** 20:.2f} MiB sublevel annulus")
    peak = bench_cylinder(768, 64, repeats=1)[2]
    print(f"solve_cylinder 64 x 768: tracemalloc peak {peak / 1e6:.2f} MB")
    median, peak, held = bench_solve_fd(args.grid)
    print(f"solve_fd n={args.grid}: median {median:.4f} s of 3, tracemalloc peak "
          f"{peak / 1e6:.1f} MB ({held / 1e6:.1f} MB of it the returned trajectory)")
    sparse, plain, fixed, stored, streamed, streamed_fixed = bench_memory(args.grid)
    print(f"solve_fd n={args.grid} store_every=2000: tracemalloc peak {sparse / 1e6:.1f} MB")
    print(f"ledger_transformed on that n={args.grid} trajectory: tracemalloc peak "
          f"{plain / 1e6:.1f} MB, {fixed / 1e6:.1f} MB with problem=")
    print(f"solve_fd n={args.grid} with its ledger: tracemalloc peak {stored / 1e6:.1f} MB "
          f"stored, {streamed / 1e6:.1f} MB streamed (Ledger), "
          f"{streamed_fixed / 1e6:.1f} MB streamed with problem=")
    for name, peak in run_peaks():
        print(f"{name:<28} tracemalloc peak {peak / 2 ** 20:6.2f} MiB")
    (w1, wall, w3), (r1, rss, r3), numpy = import_footprint()
    print(f"import debondwave.cli: median [quartiles] of {PROCESSES} interpreters "
          f"{1e3 * wall:.1f} ms [{1e3 * w1:.1f}, {1e3 * w3:.1f}], VmHWM "
          f"{rss / 1024:.2f} MiB [{r1 / 1024:.2f}, {r3 / 1024:.2f}]; numpy submodules: "
          + ", ".join(numpy))


if __name__ == "__main__":
    main()
