"""The benchmark workloads: inputs from a seed, one pass, output checks.

Each workload is a batch job driven by one caller in a closed loop.  An
operation is one scenario run or one verify ``CheckResult``.  ``setup``
does what a fresh process does before its first pass (import, parse or
generate inputs); ``run_pass`` is the timed pass and only calls the public
API; ``check`` judges a pass's outputs outside the timed region.
"""

import hashlib
import json
import os
import random

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

# a stored value may drift by this share of its column's largest magnitude,
# or by REFERENCE_ATOL where that is larger: far above a removed O(1e-9)
# finite-difference truncation, far below what a wrong solver or ledger
# produces, also in the small residual columns
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-8
# the sublevel flow ledger against its closed-form twin; measured at most
# 2.8e-10 (mode 3), the RK4 flow map's error
ORACLE_TOL = 1e-8


class Tally:
    """Operations attempted, failed (raised or wrong output) and green."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.green = 0
        self.known_red = 0
        self.problems = []

    def ok(self):
        self.attempted += 1
        self.green += 1

    def red(self):
        """A verify check that is red by design (listed in the baseline)."""
        self.attempted += 1
        self.known_red += 1

    def fail(self, name, why):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{name}: {why}")


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path):
    """(header, rows) of a debondwave CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def compare_csv(path, ref):
    """None if the CSV at path matches a stored reference entry, else why."""
    header, rows = read_csv(path)
    if header != ref["header"]:
        return f"header {header} != {ref['header']}"
    if len(rows) != ref["rows"]:
        return f"{len(rows)} rows != {ref['rows']}"
    want = np.asarray(ref["values"], dtype=float)
    got = rows[ref["index"]]
    tol = np.maximum(REFERENCE_RTOL * np.max(np.abs(want), axis=0), REFERENCE_ATOL)
    err = np.max(np.abs(got - want), axis=0)
    bad = np.flatnonzero(~(err <= tol))
    if bad.size:
        j = int(bad[0])
        return f"column {header[j]}: max abs difference {err[j]:.3g} > {tol[j]:.3g}"
    return None


def sample_csv(path, keep=65):
    """Reference entry for a CSV: header, row count and evenly spaced rows."""
    header, rows = read_csv(path)
    index = sorted(set(np.linspace(0, len(rows) - 1, min(keep, len(rows))).round().astype(int).tolist()))
    return {"header": header, "rows": len(rows), "index": index,
            "values": rows[index].tolist()}


class _ScenarioFiles:
    """Shared pass/check logic for workloads that run scenario files."""

    warmup = True

    def __init__(self, root, seed, workdir):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "runs")
        self._verdicts = {}  # file name -> (digests, verdict) of its first pass

    def run_pass(self):
        import debondwave

        results = []
        for path in self.files:
            try:
                sc = debondwave.parse_scenario(path)
                results.append((path, debondwave.run_scenario(sc, out_dir=self.outdir)))
            except Exception as exc:  # a failing run is a counted failure
                results.append((path, exc))
        return results

    def check(self, results, tally):
        for path, art in results:
            name = os.path.basename(path)
            if isinstance(art, Exception):
                tally.fail(name, f"{type(art).__name__}: {art}")
                continue
            digests = {os.path.basename(f): _digest(f) for f in art.files}
            first = self._verdicts.get(name)
            if first is None:
                why = self.check_first(name, art)
                self._verdicts[name] = (digests, why)
            elif digests == first[0]:
                why = first[1]  # the same bytes earn the first pass's verdict
            else:
                why = "outputs differ from the first pass"
            if why is None:
                tally.ok()
            else:
                tally.fail(name, why)


class ScenarioRuns(_ScenarioFiles):
    """The files in scenarios/, in an order drawn from the seed."""

    name = "scenario-runs"

    def setup(self):
        import debondwave

        files = sorted(os.path.join(self.root, "scenarios", f)
                       for f in os.listdir(os.path.join(self.root, "scenarios"))
                       if f.endswith(".scn"))
        random.Random(self.seed).shuffle(files)
        self.files = files
        for path in files:
            debondwave.parse_scenario(path)

    def prepare(self):
        with open(os.path.join(REFERENCE, "scenario-runs.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def check_first(self, name, art):
        ref = self.reference.get(name)
        if ref is None:
            return "no stored reference"
        csvs = {os.path.basename(f): f for f in art.files if f.endswith(".csv")}
        if sorted(csvs) != sorted(ref):
            return f"wrote {sorted(csvs)}, reference has {sorted(ref)}"
        for csv_name, path in sorted(csvs.items()):
            why = compare_csv(path, ref[csv_name])
            if why is not None:
                return f"{csv_name}: {why}"
        return None


SUBLEVEL_SCN = """\
[scenario]
name = {name}

[motion]
kind = {kind}
{level}profile = Affine(1.0, 0.5)
horizon = 0.1

[data]
u0 = SineMode(1.0, {mode})
u1 = Compatible

[numerics]
solver = grid
grid = 20
dt = 0.025
"""


class SublevelRun(_ScenarioFiles):
    """A 1d sublevel-flow scenario; its oracle is the same run as one_d_scaling."""

    name = "sublevel-run"

    def _write(self, name, kind, level):
        path = os.path.join(self.workdir, f"{name}.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SUBLEVEL_SCN.format(name=name, kind=kind, level=level, mode=1 + self.seed % 3))
        return path

    def setup(self):
        import debondwave

        os.makedirs(self.workdir, exist_ok=True)
        self.files = [self._write("sublevel-run", "sublevel_flow",
                                  "level_kind = reflected\nlevel = 4.0\n")]
        debondwave.parse_scenario(self.files[0])

    def prepare(self):
        """Run the closed-form twin once, outside any timed pass."""
        import debondwave

        oracle = debondwave.parse_scenario(self._write("sublevel-oracle", "one_d_scaling", ""))
        art = debondwave.run_scenario(oracle, out_dir=os.path.join(self.workdir, "oracle"))
        self.oracle = read_csv(os.path.join(art.directory, "ledger.csv"))

    def check_first(self, name, art):
        header, rows = read_csv(os.path.join(art.directory, "ledger.csv"))
        want_header, want = self.oracle
        if header != want_header or rows.shape != want.shape:
            return f"ledger layout {header} {rows.shape} != oracle {want_header} {want.shape}"
        err = float(np.max(np.abs(rows - want)))
        if not err <= ORACLE_TOL:
            return f"ledger differs from the one_d_scaling oracle by {err:.3g} > {ORACLE_TOL:g}"
        return None


class _Suites:
    """Verify suites through run_suite; every CheckResult is one operation."""

    warmup = False
    suites = ()

    def __init__(self, root, seed, workdir):
        self.root = root
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        from debondwave.verify import run_suite  # noqa: F401  (the CLI's import)

    def prepare(self):
        with open(os.path.join(REFERENCE, "verify.json"), encoding="utf-8") as fh:
            self.baseline = json.load(fh)

    def run_pass(self):
        from debondwave.verify import run_suite

        results = []
        for suite in self.suites:
            try:
                results.append((suite, run_suite(suite)))
            except Exception as exc:  # a raising suite is a counted failure
                results.append((suite, exc))
        return results

    def check(self, results, tally):
        expected_red = set(self.baseline["expected_red"])
        for suite, checks in results:
            tols = self.baseline["tolerances"][suite]
            if isinstance(checks, Exception):
                for name in tols:
                    tally.fail(f"{suite}.{name}", f"suite raised {type(checks).__name__}: {checks}")
                continue
            seen = set()
            for res in checks:
                key = f"{suite}.{res.name}"
                seen.add(res.name)
                if res.name in tols and res.tol != tols[res.name]:
                    tally.fail(key, f"tolerance {res.tol:g} != baseline {tols[res.name]:g}")
                elif res.passed:
                    tally.ok()
                elif key in expected_red:
                    tally.red()
                else:
                    tally.fail(key, f"red: value {res.value:.6g} tol {res.tol:.6g}")
            for name in sorted(set(tols) - seen):
                tally.fail(f"{suite}.{name}", "check missing from the suite")


class CrossSolver(_Suites):
    """Criteria 3-7: three solvers and both ledgers at the larger sizes."""

    name = "cross-solver"
    suites = ("transform-equivalence", "energy")


class Identities(_Suites):
    """Criteria 1, 2 and 12: motion maps and domain geometry in bulk."""

    name = "identities"
    suites = ("identities",)


WORKLOADS = {cls.name: cls for cls in (ScenarioRuns, CrossSolver, Identities, SublevelRun)}
