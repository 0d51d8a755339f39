"""Regenerate the stored reference values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/scenario-runs.json`` (sampled CSV rows of every
file in ``scenarios/``) and ``perfbench/reference/verify.json`` (the
tolerance of every check in the suites the benchmark runs, and the checks
that are red by design).  Run it only when a change to the program is meant
to move these values, and say so where the change is recorded.
"""

import json
import os
import shutil
import sys
import tempfile

import run

# red at the commit that defined the benchmark, and meant to be:
# the frozen-domain scheme's first-order domain lag (criterion 4), and the
# 2 s Jacobian budget that the numpy flow-map integrator cannot meet
EXPECTED_RED = (
    "transform-equivalence.cross-modal-cylinder",
    "transform-equivalence.cross-grid-cylinder",
    "identities.jacobian-runtime",
)


def main():
    sys.path.insert(0, run.SRC)
    import workloads

    run.import_package()
    from debondwave.verify import run_suite

    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    try:
        wl = workloads.ScenarioRuns(run.ROOT, 0, workdir)
        wl.setup()
        scenarios = {}
        for path, art in sorted(wl.run_pass(), key=lambda result: result[0]):
            if isinstance(art, Exception):
                raise SystemExit(f"{os.path.basename(path)} raised {type(art).__name__}: {art}")
            scenarios[os.path.basename(path)] = {os.path.basename(f): workloads.sample_csv(f)
                                                 for f in sorted(art.files) if f.endswith(".csv")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tolerances = {}
    reds = []
    for cls in (workloads.CrossSolver, workloads.Identities):
        for suite in cls.suites:
            checks = run_suite(suite)
            tolerances[suite] = {c.name: c.tol for c in checks}
            reds += [f"{suite}.{c.name}" for c in checks if not c.passed]
    unexpected = sorted(set(reds) - set(EXPECTED_RED))
    if unexpected:
        raise SystemExit(f"red checks outside the expected list: {unexpected}")

    for name, data in (("scenario-runs.json", scenarios),
                       ("verify.json", {"expected_red": list(EXPECTED_RED),
                                        "tolerances": tolerances})):
        with open(os.path.join(workloads.REFERENCE, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    main()
