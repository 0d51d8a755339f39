"""Traced runs: spans around the public calls of each debondwave layer.

A ``Hook`` names one public callable, the span it records and the counters
it adds.  ``Tracer.install`` wraps every hook target where its callers look
it up: a module-level function is replaced in every loaded ``debondwave``
module that binds it (so ``from .fd import solve_fd`` in ``runner`` and
``verify`` is covered), a method is replaced on its class.  A hook whose
target no longer exists is recorded as absent and its metrics read 0.

Spans are kept in memory as (id, name, start, end, parent id, pass id) and
written out by the caller when the run ends.  A span's self time is its
duration minus the time its direct child spans cover.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass

SCN, CROSS, IDENT, SUB = "scenario-runs", "cross-solver", "identities", "sublevel-run"


@dataclass(frozen=True)
class Hook:
    """One wrapped public call.

    ``span`` is the span name; ``target`` is ``module:attr`` or
    ``module:Class.method``; ``subclasses`` also wraps the method on every
    subclass that defines its own; ``count`` maps the bound arguments of one
    call to counter increments.  ``most_work_on`` lists the workloads on
    which the self-test requires the hook to fire.
    """

    span: str
    target: str
    most_work_on: tuple = ()
    subclasses: bool = False
    count: object = None


def _flow_counts(args):
    Y = args["Y"]
    points = int(Y.shape[0]) if getattr(Y, "ndim", 0) == 2 else 1  # as np.atleast_2d
    return {"motion.flow_point_steps": points * int(args["nsteps"])}


def _fd_counts(args):
    return {"kernels.fd_node_steps": int(args["v"].shape[0]) * int(args["nsteps"])}


def _csv_bytes(args):
    return {"runner.csv_bytes": os.path.getsize(args["path"])}


HOOKS = (
    Hook("scenarios.parse", "debondwave.scenarios:parse_scenario", (SCN, SUB)),
    Hook("motion.build", "debondwave.motion:MotionFamily.__init__", (IDENT, SUB),
         subclasses=True),
    Hook("motion.flow", "debondwave.kernels:flow_map", (IDENT, SUB), count=_flow_counts),
    Hook("motion.validate", "debondwave.motion:validate", (IDENT,)),
    Hook("motion.kinematics", "debondwave.motion:boundary_kinematics", (IDENT,)),
    Hook("transform.line", "debondwave.transform:PulledBackProblem.line", (SUB, SCN, CROSS)),
    Hook("fd.solve", "debondwave.fd:solve_fd", (SCN, CROSS, SUB)),
    Hook("kernels.fd", "debondwave.kernels:fd_run", (SCN, CROSS), count=_fd_counts),
    Hook("galerkin.solve", "debondwave.galerkin:solve_transformed_modal", (CROSS,)),
    Hook("galerkin.matrices", "debondwave.galerkin:GalerkinSystem.matrices", (CROSS,)),
    Hook("cylinder.solve", "debondwave.cylinder:solve_cylinder", (CROSS,)),
    Hook("energy.ledger", "debondwave.energy:ledger_transformed", (SCN, CROSS, SUB)),
    Hook("energy.balance_fixed", "debondwave.energy:balance_residual_fixed", (SCN, CROSS, SUB)),
    Hook("energy.measure_identity", "debondwave.energy:measure_identity_residual", (IDENT,)),
    Hook("griffith.coupled", "debondwave.griffith:evolve_coupled_1d", (SCN,)),
    Hook("griffith.coupled", "debondwave.griffith:evolve_coupled_radial", (SCN,)),
    Hook("griffith.flow_rule", "debondwave.griffith:flow_rule", (SCN,)),
    Hook("runner.csv", "debondwave.runner:write_csv", (SCN, SUB), count=_csv_bytes),
)

# per-layer metric -> (unit, hook span that produces it); a *_calls metric
# counts that span, a *_self_s metric is its self time
METRICS = {
    "scenarios.parse_s": ("s", "scenarios.parse"),
    "motion.build_s": ("s", "motion.build"),
    "motion.flow_s": ("s", "motion.flow"),
    "motion.flow_calls": ("count", "motion.flow"),
    "motion.flow_point_steps": ("count", "motion.flow"),
    "motion.validate_s": ("s", "motion.validate"),
    "motion.kinematics_s": ("s", "motion.kinematics"),
    "transform.line_s": ("s", "transform.line"),
    "transform.line_self_s": ("s", "transform.line"),
    "transform.line_calls": ("count", "transform.line"),
    "fd.solve_s": ("s", "fd.solve"),
    "kernels.fd_s": ("s", "kernels.fd"),
    "kernels.fd_calls": ("count", "kernels.fd"),
    "kernels.fd_node_steps": ("count", "kernels.fd"),
    "kernels.fd_node_steps_per_s": ("1/s", "kernels.fd"),
    "galerkin.solve_s": ("s", "galerkin.solve"),
    "galerkin.matrices_s": ("s", "galerkin.matrices"),
    "galerkin.matrices_calls": ("count", "galerkin.matrices"),
    "cylinder.solve_s": ("s", "cylinder.solve"),
    "energy.ledger_s": ("s", "energy.ledger"),
    "energy.balance_fixed_s": ("s", "energy.balance_fixed"),
    "energy.measure_identity_s": ("s", "energy.measure_identity"),
    "griffith.coupled_s": ("s", "griffith.coupled"),
    "griffith.flow_rule_calls": ("count", "griffith.flow_rule"),
    "runner.csv_s": ("s", "runner.csv"),
    "runner.csv_bytes": ("bytes", "runner.csv"),
    "trace.overhead_ratio": ("ratio", None),
}


def _resolve(target):
    """(owner, attr, original) for 'module:attr' or 'module:Class.attr', or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Span recorder plus the hook wrappers that feed it."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []       # (id, name, start, end, parent, pass id)
        self.pass_id = None
        self._next_id = 0
        self._stack = []      # [span id, name, start, child seconds]
        self._patches = []    # (owner, attr, original)
        self.absent = sorted({h.target for h in hooks if _resolve(h.target) is None})
        self.reset()

    def reset(self):
        """Clear the per-pass sums (spans are kept)."""
        self.inclusive = {}
        self.self_time = {}
        self.hits = {}
        self.counts = {}

    # spans ------------------------------------------------------------------
    def begin(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self):
        sid, name, start, child = self._stack.pop()
        stop = time.perf_counter()
        dur = stop - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, name, start, stop, parent[0] if parent else None, self.pass_id))
        self.hits[name] = self.hits.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if not any(frame[1] == name for frame in self._stack):
            self.inclusive[name] = self.inclusive.get(name, 0.0) + dur

    def _count(self, increments):
        for key, inc in increments.items():
            self.counts[key] = self.counts.get(key, 0) + inc

    # hooks ------------------------------------------------------------------
    def _wrap(self, hook, fn):
        signature = inspect.signature(getattr(fn, "py_func", fn))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(hook.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook.count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._count(hook.count(bound.arguments))
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every hook target that exists; undo with ``uninstall``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "debondwave" or name.startswith("debondwave."))]
        for hook in self.hooks:
            found = _resolve(hook.target)
            if found is None:
                continue
            owner, attr, original = found
            if isinstance(owner, type):
                owners = [owner]
                if hook.subclasses:
                    owners += [c for c in _subclasses(owner) if attr in vars(c)]
                for cls in owners:
                    self._patch(cls, attr, self._wrap(hook, vars(cls)[attr]))
                continue
            wrapper = self._wrap(hook, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # metrics ----------------------------------------------------------------
    def metrics(self):
        """Per-layer metrics of the spans and counts since the last reset."""
        out = {}
        for metric, (unit, span) in METRICS.items():
            if span is None:
                continue
            if metric.endswith("_calls"):
                value = self.hits.get(span, 0)
            elif metric.endswith("_self_s"):
                value = self.self_time.get(span, 0.0)
            elif unit == "s":
                value = self.inclusive.get(span, 0.0)
            elif metric == "kernels.fd_node_steps_per_s":
                fd_s = self.inclusive.get("kernels.fd", 0.0)
                value = self.counts.get("kernels.fd_node_steps", 0) / fd_s if fd_s > 0 else 0.0
            else:
                value = self.counts.get(metric, 0)
            out[metric] = value
        return out
