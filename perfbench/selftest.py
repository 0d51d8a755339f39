"""Self-test of the traced run: the layer table of README.md as assertions.

    python3 perfbench/selftest.py

For each workload it makes two traced runs with different seeds (one
untraced and one traced pass each, at ``--seconds 1``) and checks:

- each run is correct and reports every per-layer metric;
- every hook fires at least once on each workload in its ``most_work_on``
  list, unless its target no longer exists;
- ``motion.flow_calls`` is 0 on scenario-runs, and on cross-solver the
  flow map takes under a tenth of the traced pass (its sublevel families
  are built and checked for ellipticity, 142 ``flow_map`` calls);
- the work counters repeat exactly between the two runs, so the seed
  changes inputs but not the amount of work;
- a hook whose target does not exist is reported absent and installs
  without raising.

Exits 1 and names every failed assertion.  Takes about four minutes on a
2-CPU machine with the numpy backend.
"""

import json
import os
import subprocess
import sys

import layers
import run

REPEATING = ("transform.line_calls", "kernels.fd_node_steps", "motion.flow_point_steps",
             "galerkin.matrices_calls")
NO_FLOW = (layers.SCN,)
LITTLE_FLOW = {layers.CROSS: 0.1}  # workload -> largest share of motion.flow_s in a pass
SEEDS = (1, 2)
SECONDS = 1.0  # each run makes one pass of each kind, whatever its length


def traced_run(workload, seed):
    """(result line, run record) of one traced run."""
    cmd = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=run.ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.OUT, f"{workload}-seed{seed}-trace1.json"), encoding="utf-8") as fh:
        return result, json.load(fh)


def check_workload(workload):
    errors = []
    runs = [traced_run(workload, seed) for seed in SEEDS]
    for seed, (result, record) in zip(SEEDS, runs):
        where = f"{workload} seed {seed}"
        if not result["correct"]:
            errors.append(f"{where}: incorrect outputs {record['problems']}")
        missing = sorted(set(layers.METRICS) - set(result["metrics"]))
        if missing:
            errors.append(f"{where}: metrics missing {missing}")
        for hook in layers.HOOKS:
            if (workload in hook.most_work_on and hook.target not in record["absent"]
                    and not record["hits"].get(hook.span)):
                errors.append(f"{where}: hook {hook.span} ({hook.target}) never fired")
        if workload in NO_FLOW and result["metrics"]["motion.flow_calls"]["value"] != 0:
            errors.append(f"{where}: motion.flow_calls is not 0")
        if workload in LITTLE_FLOW:
            share = result["metrics"]["motion.flow_s"]["value"] / min(record["traced_pass_s"])
            if share > LITTLE_FLOW[workload]:
                errors.append(f"{where}: motion.flow_s is {share:.1%} of the traced pass")
    first, second = (r["metrics"] for r, _ in runs)
    for name in REPEATING:
        if first[name]["value"] != second[name]["value"]:
            errors.append(f"{workload}: {name} differs between runs: "
                          f"{first[name]['value']} != {second[name]['value']}")
    return errors


def check_absent_hook():
    """A deleted target must not break the traced run."""
    sys.path.insert(0, run.SRC)
    run.import_package()
    gone = layers.Hook("gone.flow", "debondwave.kernels:no_such_kernel", (layers.IDENT,))
    tracer = layers.Tracer(layers.HOOKS + (gone,))
    tracer.install()
    tracer.uninstall()
    if tracer.absent != [gone.target]:
        return [f"absent hooks {tracer.absent} != [{gone.target!r}]"]
    return []


def main():
    errors = check_absent_hook()
    for workload in run.WORKLOAD_NAMES:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        errors += found
    for error in errors:
        print(f"  {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
