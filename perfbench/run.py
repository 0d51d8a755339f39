"""Benchmark entry point: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` reports the end-to-end metrics (wall_adj_s,
setup_s, peak_rss_mb, pass_ratio).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``layers.py``.  The last
line of standard output is the result; a fuller record, spans included, goes
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# one compute thread: the pass runs in the main thread and BLAS starts no workers
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# while untraced passes run, a probe slice of PROBE_SLICE_S seconds every
# PROBE_GAP_S seconds of wall time measures the machine's current speed
PROBE_GAP_S = 0.4
PROBE_SLICE_S = 0.1
# wall_adj_s and setup_s scale a time to the speed at which a probe unit
# takes PROBE_REF_UNIT_S, by (PROBE_REF_UNIT_S / measured unit) ** PROBE_POWER.
# Passes slow down less than the probe when the machine slows; of the powers
# 0, 0.5, 0.75 and 1, 0.75 left the least run-to-run spread on the
# workload where it was largest (see README.md).  The same scaling applies to both sides of a
# comparison, so the power changes the noise and not what a gain reads.
PROBE_REF_UNIT_S = 2.5e-3
PROBE_POWER = 0.75
# fresh-interpreter set-up samples, half before and half after the timed
# passes, so that they see the same machine load as the passes do
SETUP_PROBES = 6
# the keys of workloads.WORKLOADS; that module imports numpy, which must
# not load before the thread settings above are in the environment
WORKLOAD_NAMES = ("scenario-runs", "cross-solver", "identities", "sublevel-run")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up the workload, print 'ready' and exit")
    ap.add_argument("--workdir", help="internal: the probe's scratch directory")
    return ap.parse_args(argv)


def import_package():
    import debondwave

    where = os.path.dirname(os.path.abspath(debondwave.__file__))
    if where != os.path.join(SRC, "debondwave"):
        raise RuntimeError(f"imported debondwave from {where}, not from {SRC}")
    return debondwave


def setup_probe(args):
    """What a fresh process does before its first pass; the parent times it."""
    import workloads

    import_package()
    workloads.WORKLOADS[args.workload](ROOT, args.seed, args.workdir).setup()
    print("ready", flush=True)
    return 0


def measure_setup(args, workdir, count):
    """(seconds from spawning a fresh interpreter to its 'ready' line, probe
    seconds per unit over a slice just before and one just after) of each
    of ``count`` spawns."""
    import probe

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    probe.unit()  # the first call's one-off costs fall outside any slice
    samples = []
    for _ in range(count):
        before = probe.window(PROBE_SLICE_S)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        samples.append((seconds, unit_seconds([before, probe.window(PROBE_SLICE_S)])))
    return samples


def checked_pass(wl, tally, tracer=None, sampler=None):
    """Run one pass (traced if a tracer is given), check it, and return its
    seconds without the probe slices a sampler took during it."""
    if tracer is not None:
        tracer.install()
        tracer.begin("pass")
    spent = sampler.spent if sampler is not None else 0.0
    try:
        t0 = time.perf_counter()
        results = wl.run_pass()
        seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.end()
            tracer.uninstall()
    if sampler is not None:
        seconds -= sampler.spent - spent
    wl.check(results, tally)
    return seconds


def timed_passes(wl, tally, seconds):
    """Untraced passes, with probe slices taken throughout, until the next
    pass would overrun ``seconds``.

    Returns (pass seconds without the slices, slices, pass slices), where a
    slice is (elapsed seconds, probe units) and pass slices[i] is the (start,
    stop) range of the slices taken during pass i.
    """
    import probe

    sampler = probe.Sampler(PROBE_GAP_S, PROBE_SLICE_S)
    times, spans, owned = [], [], []
    start = time.perf_counter()
    with sampler:
        while not spans or time.perf_counter() - start + statistics.median(spans) <= seconds:
            t0, first = time.perf_counter(), len(sampler.slices)
            times.append(checked_pass(wl, tally, sampler=sampler))
            spans.append(time.perf_counter() - t0)
            owned.append((first, len(sampler.slices)))
    if not sampler.slices:
        sampler.slices.append(probe.window(PROBE_SLICE_S))
    return times, sampler.slices, owned


def unit_seconds(slices):
    """The probe's mean seconds per unit over some slices."""
    return sum(e for e, _ in slices) / sum(n for _, n in slices)


def at_reference_speed(seconds, unit_s):
    """``seconds`` measured while a probe unit took ``unit_s``, scaled to
    the reference speed."""
    return seconds * (PROBE_REF_UNIT_S / unit_s) ** PROBE_POWER


def adjusted_times(times, slices, owned):
    """Each pass's seconds at the reference speed, from the probe's speed
    during the pass (the whole run's, for a pass too short to hold a slice)."""
    return [at_reference_speed(seconds, unit_seconds(slices[a:b] or slices))
            for seconds, (a, b) in zip(times, owned)]


def traced_passes(wl, tally, seconds, tracer):
    """(untraced times, traced times, per-layer metrics of each traced pass)."""
    plain, traced, layer = [], [], []
    start = time.perf_counter()
    while not plain or (time.perf_counter() - start + statistics.median(plain)
                        + statistics.median(traced) <= seconds):
        plain.append(checked_pass(wl, tally))
        tracer.reset()
        tracer.pass_id = len(traced) + 1
        traced.append(checked_pass(wl, tally, tracer))
        layer.append(tracer.metrics())
    return plain, traced, layer


def tail(times):
    """(percentile, value) with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "debondwave", "__init__.py")):
        print(f"perfbench: no debondwave sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)

    import environment
    import layers
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_probes": SETUP_PROBES}
    try:
        if not args.trace:
            record["setup_samples"] = measure_setup(args, workdir, SETUP_PROBES // 2)
        import_package()
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        wl.setup()
        wl.prepare()
        tally = workloads.Tally()
        if wl.warmup:
            record["warmup_s"] = checked_pass(wl, tally)
        if args.trace:
            tracer = layers.Tracer()
            plain, traced, layer = traced_passes(wl, tally, args.seconds, tracer)
            metrics = {name: statistics.median(p[name] for p in layer)
                       for name in layer[0]}
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
            units = {name: unit for name, (unit, _) in layers.METRICS.items()}
            record.update(untraced_pass_s=plain, traced_pass_s=traced, absent=tracer.absent,
                          hits=tracer.hits, self_s=tracer.self_time, spans=tracer.spans)
        else:
            times, slices, owned = timed_passes(wl, tally, args.seconds)
            adj = adjusted_times(times, slices, owned)
            record["setup_samples"] += measure_setup(args, workdir, SETUP_PROBES - SETUP_PROBES // 2)
            setup = [at_reference_speed(t, u) for t, u in record["setup_samples"]]
            metrics = {
                "wall_adj_s": statistics.median(adj),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_ratio": tally.green / tally.attempted,
            }
            units = {"wall_adj_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                     "pass_ratio": "ratio"}
            record.update(pass_s=times, wall_tail=tail(times), pass_adj_s=adj,
                          adj_tail=tail(adj), probe_slices=slices, pass_slices=owned,
                          probe_unit_s=unit_seconds(slices))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(environment=environment.stamp(ROOT, args.seed),
                  attempted=tally.attempted, failed=tally.failed, green=tally.green,
                  known_red=tally.known_red, problems=tally.problems, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    report(record)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def report(record):
    """Human-readable lines that precede the result line."""
    wl = record["workload"]
    print(f"perfbench {wl} seed={record['seed']} trace={record['trace']}  "
          f"env: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed, "
          f"{record['known_red']} red by design (fail_ratio with reds counted: "
          f"{record['failed'] + record['known_red']}/{record['attempted']})")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    if "pass_s" in record:
        times = record["pass_s"]
        warm = "warm-up pass untimed" if "warmup_s" in record else "no warm-up pass"
        tail_txt = ("p{:.0f} {:.4f} s".format(*record["wall_tail"]) if record["wall_tail"]
                    else "tail percentile n/a below 11 samples")
        slices = record["probe_slices"]
        print(f"  wall_s: median {statistics.median(times):.4f} s over n={len(times)} "
              f"timed passes ({warm}); {tail_txt}")
        adj_tail = ("p{:.0f} {:.4f} s".format(*record["adj_tail"]) if record["adj_tail"]
                    else "tail n/a")
        print(f"  probe: {1e3 * record['probe_unit_s']:.3f} ms per unit over {len(slices)} "
              f"slices ({sum(e for e, _ in slices):.2f} s, not in wall_s); wall_adj_s: median "
              f"{statistics.median(record['pass_adj_s']):.4f} s over n={len(times)} passes; "
              f"{adj_tail}")
        setup = record["setup_samples"]
        print(f"  setup: median {statistics.median(t for t, _ in setup):.4f} s unscaled over "
              f"n={len(setup)} fresh interpreters")
    if "self_s" in record:
        layer_self = {k: v for k, v in record["self_s"].items() if k != "pass"}
        top = max(layer_self, key=layer_self.get)
        print(f"  largest self time of a layer span (last traced pass): {top} "
              f"{layer_self[top]:.4f} s; outside any layer span: {record['self_s']['pass']:.4f} s")
    if record.get("absent"):
        print(f"  absent hooks (metrics read 0): {', '.join(record['absent'])}")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g}")


if __name__ == "__main__":
    sys.exit(main())
