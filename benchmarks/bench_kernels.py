"""Time the RK4 wave stepper in its two call patterns, the modal RK4, the
cylinder scheme and the grid solver.

Prints the best of three timings, and that time per RK4 step in
microseconds, for one long unforced run of a kernels.Stepper on
2 nsteps + 1 precomputed half-step coefficient rows (kernels.coefficient_rows:
[B | a | b] a slot), with the a term and without it (rows [B | b], the
path solve_fd takes when lam'' = 0 over the run), for 6144 chained
single-step runs of one unforced kernels.Stepper at n = 1024 on three
coefficient rows (as the coupled front solver makes them for
scenarios/debonding_constant.scn; the solver also refills the rows in
place before each step, which is not timed here), for one
solve_transformed_modal call on the criterion-4 problem (l(t) = 1 + t/2,
v0 = sin(pi y), m = 64, dt = 5e-4, T = 1, assembly and projection
included) and for one solve_cylinder call on the same problem at 64
partitions of the 768-cell grid (640 inner steps of kernels.UnitStepper,
the count the partition rule gives; only the 65 partition-end states are
stored), with the tracemalloc peak of that call.  Then, for one solve_fd
call on the same problem at n = 800, dt = 5e-4 (coefficient fill
included), the median of three wall times and the tracemalloc peak of a
fourth call, with the bytes of the returned trajectory it includes; then
the peak of one call that stores only t = 0 and t = 1 (store_every =
2000).  Then the tracemalloc peak of ledger_transformed on the every-step
n = 800 trajectory, without and with the fixed-domain balance (problem=),
beside the trajectory it reads.  Last, the peak of the whole n = 800 run
with its ledger, stored (solve_fd, then ledger_transformed on the
trajectory) beside streamed (solve_fd with reader=energy.Ledger, which
stores no trajectory), and streamed with problem=.  Usage:

    python benchmarks/bench_kernels.py [--steps N] [--grid N]
"""

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from debondwave.cylinder import INNER_CFL, solve_cylinder
from debondwave.energy import Ledger, ledger_transformed
from debondwave.expressions import Affine
from debondwave.fd import solve_fd
from debondwave.galerkin import solve_transformed_modal
from debondwave.kernels import Stepper, coefficient_rows
from debondwave.motion import one_d_scaling
from debondwave.transform import PulledBackProblem


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
    """nsteps single-step runs of one Stepper, the coupled solvers' pattern."""
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
        t0 = time.perf_counter()
        for _ in range(nsteps):
            stepper.run(1)
        best = min(best, time.perf_counter() - t0)
    return best


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


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=4000)
    ap.add_argument("--grid", type=int, default=800)
    args = ap.parse_args()

    cases = (("wave stepper", bench_fd, args.grid, args.steps),
             ("wave stepper, a = 0", lambda n, steps: bench_fd(n, steps, a_term=False),
              args.grid, args.steps),
             ("1-step chain", bench_chain, 1024, 6144),
             ("modal RK4", bench_modal, 64, 2000))
    print(f"{'kernel':<22} {'best time (s)':>14} {'us / step':>10}")
    for name, bench, n, steps in cases:
        best = bench(n, steps)
        print(f"{name:<22} {best:>14.4f} {1e6 * best / steps:>10.1f}")
    best, steps, peak = bench_cylinder(768, 64)
    print(f"{'cylinder 64 x 768':<22} {best:>14.4f} {1e6 * best / steps:>10.1f}")
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

if __name__ == "__main__":
    main()
