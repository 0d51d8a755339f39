"""Scenario files: strict line-oriented ``key = value`` format.

Sections in square brackets, ``#`` comments, decimal numbers with optional
exponent, expressions from the fixed catalog (``Const(c)``, ``Affine(a,b)``,
``SineMode(A,k)``, ``Poly(c0,c1,...)``).  A file sets only keys its run
reads: ``ROW`` holds them, each with its default, keyed by scenario kind
and, for a wave run, refined by motion kind and solver.  Any other key is
an error, and every error names its line.  The format describes 1d wave
runs and the coupled runs; the n-d domain families are library and
``verify`` features only.  The keys and their defaults are part of the
format contract (``required`` has no default, ``unset`` is optional):

    every run       [scenario] name = required, kind = wave
                    [motion]   horizon = 1.0
                    [data]     u1 = Const(0.0), f = Const(0.0), f_time = unset
                    [numerics] store_every = 1
                    [output]   directory = out
    wave            [motion]   kind = identity
                    [data]     u0 = SineMode(1.0, 1), w = unset, w_time = unset
                    [numerics] solver = spectral, dt = 1e-3
                    [output]   series = ledger
      identity      [motion]   length = 1.0
      one_d_scaling [motion]   profile = required; [data] kappa = Const(1.0)
      homothetic    [motion]   profile = required, length = 1.0;
                    [data]     kappa = Const(1.0)
      sublevel_flow [motion]   profile = required, level = 1.0,
                               level_kind = radial; [data] kappa = Const(1.0)
      spectral      [numerics] modes = 32
      grid          [numerics] grid = 400
    coupled         [data]     u0_prime = required, kappa = Const(1.0)
                    [coupled]  l0 = 1.0
                    [numerics] front_grid = 1024, cfl = 0.45, taper = 0.5
                    [output]   series = front, griffith, ledger
    coupled_radial  [data]     u0 = SineMode(1.0, 1), kappa = Const(1.0)
                    [coupled]  R = 2.0, rho0 = 0.5
                    [numerics] front_grid = 1024, cfl = 0.45
                    [output]   series = front, griffith, ledger

The identity and homothetic motions act on the interval (0, length); a
radial sublevel flow is 2d, so it validates but does not run.  length,
horizon, l0, rho0, dt, cfl and the counts must be positive, grid at least
``fd.MIN_CELLS`` and taper in [0, 1), and a wave file's store_every must
divide the step count that ``kernels.step_count`` gives for dt and horizon.
No run may take more than ``kernels.MAX_STEPS`` steps (a coupled run's
count is ``kernels.cfl_step_count``'s); a file that asks for more, or
whose count is not finite, is an error at its horizon line.
The special token ``u1 = Compatible`` requests the initial velocity that
makes the transformed problem start at rest, u1 = -Phi_dot(0,.) . grad u0.
A radial R <= rho0 is an error, and so is a motion that cannot be built
(a profile not positive on the horizon, a homothetic profile(0) != 1), a
w_time without w or a boundary load w w_time that does not vanish on the
moving end.
``series`` lists tables of the kind (``SERIES``).  Expressions are bound
at parse (only SineMode reads it): time profiles to the horizon, spatial
fields to ``length`` (identity, homothetic), profile(0) (one_d_scaling,
sublevel_flow), l0 (coupled) or R (coupled_radial).
"""

from dataclasses import dataclass

import numpy as np

from .characteristics import Verdict, compatibility_check
from .domains import Interval
from .errors import (
    BoundaryMismatch,
    DebondWaveError,
    MissingRequired,
    RunTooLarge,
    TypeMismatch,
    UnknownKey,
)
from .expressions import SpaceTimeField, parse_expression
from .fd import MIN_CELLS
from .kernels import cfl_step_count, step_count
from .motion import homothetic, identity_motion, interval_flow, one_d_scaling, radial_annulus_flow
from .transform import lift_dirichlet

_EXPR = "expr"  # a catalog expression; the other types are float, int and str
REQUIRED = "required"

SECTIONS = ("scenario", "motion", "data", "coupled", "numerics", "output")

SERIES = {
    "wave": ("ledger", "trajectory"),
    "coupled": ("front", "griffith", "ledger"),
    "coupled_radial": ("front", "griffith", "ledger"),
}

# A key maps to (type, default) or (type, default, rule).  A rule is a
# range check (predicate, message) or, for a key that selects, a dict from
# each allowed value to the keys that value adds to the row.
_POSITIVE = (lambda v: v > 0, "must be positive")
_PROFILE = {"motion.profile": (_EXPR, REQUIRED)}
_LENGTH = {"motion.length": (float, 1.0, _POSITIVE)}
_KAPPA = {"data.kappa": (_EXPR, "Const(1.0)")}
_LEVEL_KINDS = {"radial": radial_annulus_flow, "reflected": interval_flow}
_EVERY_RUN = {
    "motion.horizon": (float, 1.0, _POSITIVE),
    "data.u1": (_EXPR, "Const(0.0)"),
    "data.f": (_EXPR, "Const(0.0)"),
    "data.f_time": (_EXPR, None),
    "numerics.store_every": (int, 1, _POSITIVE),
    "output.directory": (str, "out"),
}
_COUPLED = {
    **_EVERY_RUN,
    **_KAPPA,
    "numerics.front_grid": (int, 1024, _POSITIVE),
    "numerics.cfl": (float, 0.45, _POSITIVE),
    "output.series": (str, ", ".join(SERIES["coupled"])),
}

ROW = {
    "scenario.name": (str, REQUIRED),
    "scenario.kind": (str, "wave", {
        "wave": {
            **_EVERY_RUN,
            "motion.kind": (str, "identity", {
                "identity": _LENGTH,
                "one_d_scaling": {**_PROFILE, **_KAPPA},
                "homothetic": {**_PROFILE, **_LENGTH, **_KAPPA},
                "sublevel_flow": {
                    **_PROFILE, **_KAPPA,
                    "motion.level": (float, 1.0),
                    "motion.level_kind": (str, "radial",
                                          dict.fromkeys(_LEVEL_KINDS, {})),
                },
            }),
            "data.u0": (_EXPR, "SineMode(1.0, 1)"),
            "data.w": (_EXPR, None),
            "data.w_time": (_EXPR, None),
            "numerics.solver": (str, "spectral", {
                "spectral": {"numerics.modes": (int, 32, _POSITIVE)},
                "grid": {"numerics.grid": (int, 400, (lambda v: v >= MIN_CELLS,
                                                         f"must be at least {MIN_CELLS}"))},
            }),
            "numerics.dt": (float, 1.0e-3, _POSITIVE),
            "output.series": (str, "ledger"),
        },
        "coupled": {
            **_COUPLED,
            "data.u0_prime": (_EXPR, REQUIRED),
            "coupled.l0": (float, 1.0, _POSITIVE),
            "numerics.taper": (float, 0.5, (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")),
        },
        "coupled_radial": {
            **_COUPLED,
            "data.u0": (_EXPR, "SineMode(1.0, 1)"),
            "coupled.R": (float, 2.0),
            "coupled.rho0": (float, 0.5, _POSITIVE),
        },
    }),
}


@dataclass
class Scenario:
    """Fully resolved scenario: every key of its run's row is present."""

    name: str
    kind: str
    motion: dict
    data: dict
    coupled: dict
    numerics: dict
    output: dict

    @property
    def series(self):
        """The names listed in [output] series."""
        return [s.strip() for s in self.output["series"].split(",") if s.strip()]

    def manifest(self):
        from . import __version__
        from .kernels import backend_name

        def _enc(v):
            return v.spec() if hasattr(v, "spec") else v

        out = {"scenario": {"name": self.name, "kind": self.kind},
               "version": __version__, "backend": backend_name()}
        for section in SECTIONS[1:]:
            keys = getattr(self, section)
            if keys:
                out[section] = {k: _enc(v) for k, v in keys.items()}
        return out


def _row(found):
    """The keys the file's run reads, and the values of the keys that
    picked them."""
    row, picks, pending = {}, {}, list(ROW.items())
    while pending:
        key, spec = pending.pop(0)
        row[key] = spec
        choices = spec[2] if len(spec) > 2 else None
        if isinstance(choices, dict):
            value, lineno = found.get(key, (spec[1], None))
            if value not in choices:
                raise TypeMismatch(f"{key.split('.')[1]} must be one of {sorted(choices)}, "
                                   f"got {value!r}", lineno)
            picks[key] = value
            pending.extend(choices[value].items())
    return row, picks


def _convert(key, spec, raw, lineno):
    typ, name = spec[0], key.split(".")[1]
    if typ is str:  # the choices of a selecting key are checked by _row
        return raw
    if typ == _EXPR:
        if raw.lower() == "compatible" and name == "u1":
            return "compatible"
        return parse_expression(raw, lineno)
    try:
        v = typ(raw)
    except ValueError:
        what = "a number" if typ is float else "an integer"
        raise TypeMismatch(f"{name} expects {what}, got {raw!r}", lineno) from None
    if not np.isfinite(v):
        raise TypeMismatch(f"{name} must be finite", lineno)
    ok, rule = spec[2] if len(spec) > 2 else (None, None)
    if ok is not None and not ok(v):
        raise TypeMismatch(f"{name} {rule}, got {raw}", lineno)
    return v


def parse_scenario(path):
    """Parse and fully resolve a scenario file: every key of its run's row,
    from the file or by default; a key outside the row is an error."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    found = {}  # "section.key" -> (raw value, line), in file order
    section = None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in SECTIONS:
                raise UnknownKey(f"unknown section [{name}]", lineno)
            section = name
            continue
        if "=" not in stripped:
            raise TypeMismatch(f"expected 'key = value', got {stripped!r}", lineno)
        if section is None:
            raise UnknownKey("key outside any section", lineno)
        name, _, value = stripped.partition("=")
        name = name.strip()
        if not name.isidentifier():  # a dotted name would break "section.key"
            raise UnknownKey(f"unknown key {name!r} in section [{section}]", lineno)
        if f"{section}.{name}" in found:
            raise TypeMismatch(f"duplicate key {name!r}", lineno)
        found[f"{section}.{name}"] = (value.strip(), lineno)

    row, picks = _row(found)
    kind = picks["scenario.kind"]
    resolved = {s: {} for s in SECTIONS}
    for key, (raw, lineno) in found.items():
        section, name = key.split(".")
        if key not in row:
            run = ", ".join("[{}] {} = {}".format(*k.split("."), v) for k, v in picks.items())
            raise UnknownKey(f"unknown key {name!r} in section [{section}] for {run}", lineno)
        resolved[section][name] = _convert(key, row[key], raw, lineno)
    for key, (typ, default, *_) in row.items():
        section, name = key.split(".")
        if name in resolved[section]:
            continue
        if default == REQUIRED:
            raise MissingRequired(f"a {kind} run requires [{section}] {name}")
        if typ == _EXPR and default is not None:
            default = parse_expression(default)
        resolved[section][name] = default
    line_of = {key: lineno for key, (_, lineno) in found.items()}

    _bind_lengths(resolved, kind)
    if kind == "coupled_radial" and resolved["coupled"]["R"] <= resolved["coupled"]["rho0"]:
        raise TypeMismatch("R must exceed rho0",
                           line_of.get("coupled.R", line_of.get("coupled.rho0")))

    sc = Scenario(name=resolved["scenario"]["name"], kind=kind,
                  **{s: resolved[s] for s in SECTIONS[1:]})
    series = sc.series
    if not series or not set(series) <= set(SERIES[kind]):
        raise TypeMismatch(f"series must list names from {list(SERIES[kind])}, "
                           f"got {sc.output['series']!r}", line_of["output.series"])
    _early_checks(sc, line_of)
    return sc


def _bind_lengths(resolved, kind):
    """Bind every expression to its length (see the module notes)."""
    motion, data = resolved["motion"], resolved["data"]
    horizon = motion["horizon"]
    if "profile" in motion:
        motion["profile"] = motion["profile"].bound(horizon)
    if kind == "coupled":
        length = resolved["coupled"]["l0"]
    elif kind == "coupled_radial":
        length = resolved["coupled"]["R"]
    elif "length" in motion:
        length = motion["length"]
    else:
        length = float(motion["profile"](0.0))
    for key, expr in data.items():
        if hasattr(expr, "bound"):  # not None or the token "compatible"
            data[key] = expr.bound(horizon if key.endswith("_time") else length)


def build_motion(motion):
    """Motion family from a resolved wave [motion] section; identity and
    homothetic act on the interval (0, length)."""
    kind = motion["kind"]
    T = motion["horizon"]
    if kind == "identity":
        return identity_motion(Interval(motion["length"]), T)
    if kind == "one_d_scaling":
        return one_d_scaling(motion["profile"], T)
    if kind == "homothetic":
        return homothetic(motion["profile"], Interval(motion["length"]), T)
    return _LEVEL_KINDS[motion["level_kind"]](motion["level"], motion["profile"], T)


def lift_boundary_load(sc, fam, u0, u1):
    """``lift_dirichlet`` of the file's load W = w_time(t) w(x) on the fixed
    end of a 1d run, checked on the moving end at 9 times: (f, u0, u1)."""
    W = SpaceTimeField(sc.data["w"], sc.data["w_time"])
    ts = np.linspace(0.0, fam.horizon, 9)
    return lift_dirichlet(W, u0, u1, fixed_points=[0.0],
                          moving_points=(ts, fam.domain_measure(ts)))


def _check_step_count(sc, line_of):
    """The run's step count, from kernels.step_count for a wave run (whose
    store_every must divide it, else an error at the store_every line) and
    kernels.cfl_step_count for a coupled one; a count they refuse is
    reported at the horizon line (or, when the file keeps the default
    horizon, at the first line that sets the step)."""
    num, horizon = sc.numerics, sc.motion["horizon"]
    try:
        if sc.kind == "wave":
            keys = ("motion.horizon", "numerics.dt")
            try:
                step_count(num["dt"], horizon, num["store_every"])
            except ValueError as exc:  # store_every = 1 always divides, so its line exists
                raise TypeMismatch(f"{exc} (dt = {num['dt']:g}, horizon = {horizon:g})",
                                   line_of["numerics.store_every"]) from None
        else:
            length = "l0" if sc.kind == "coupled" else "rho0"
            keys = ("motion.horizon", f"coupled.{length}", "numerics.front_grid", "numerics.cfl")
            cfl_step_count(sc.coupled[length] / num["front_grid"], num["cfl"], horizon)
    except RunTooLarge as exc:
        raise TypeMismatch(str(exc), next((line_of[k] for k in keys if k in line_of),
                                          None)) from None


def _early_checks(sc, line_of):
    """Checks promised at parse time: the step count (``_check_step_count``);
    a wave run's motion (at the profile line) and its boundary load against
    it (at the w or w_time line); the coupled front compatibility
    conditions, reported at the line of the first of kappa, u1 and the
    slope key that the file sets."""
    _check_step_count(sc, line_of)
    if sc.kind == "wave":
        try:
            fam = build_motion(sc.motion)
        except DebondWaveError as exc:  # e.g. a homothetic profile(0) != 1
            raise TypeMismatch(str(exc), line_of.get("motion.profile")) from None
        if sc.data["w"] is None:
            if "data.w_time" in line_of:
                raise TypeMismatch("w_time needs a boundary load w", line_of["data.w_time"])
            return
        if fam.dim == 1:  # the run refuses the rest
            try:
                lift_boundary_load(sc, fam, sc.data["u0"], sc.data["u1"])
            except BoundaryMismatch as exc:
                raise TypeMismatch(str(exc), line_of["data.w"]) from None
        return
    u1 = sc.data["u1"]
    kap = sc.data["kappa"]
    if sc.kind == "coupled":
        front = sc.coupled["l0"]
        p0 = float(sc.data["u0_prime"](front))
        slope_key = "u0_prime"
    else:
        front = sc.coupled["R"] - sc.coupled["rho0"]
        p0 = -float(sc.data["u0"].deriv(front))
        slope_key = "u0"
    line = next((line_of[k] for k in ("data.kappa", "data.u1", f"data.{slope_key}")
                 if k in line_of), None)
    u1v = 0.0 if u1 == "compatible" else float(u1(front))
    kv = float(kap(front))
    if kv <= 0.0:
        raise TypeMismatch(f"kappa must be positive at the front {front:g}, got {kv}", line)
    verdict = compatibility_check(p0, u1v, kv)
    if verdict is Verdict.INCOMPATIBLE:
        raise TypeMismatch(f"data {slope_key}, u1 and kappa fail the front compatibility "
                           f"conditions at the front {front:g}", line)
    sc.coupled["verdict"] = verdict.value


class SlopeField:
    """u0 reconstructed from its slope expression with u0(anchor) = 0."""

    def __init__(self, slope, anchor):
        self.slope = slope
        self.anchor = float(anchor)

    def __call__(self, x):
        return self.slope.antiderivative(x) - self.slope.antiderivative(self.anchor)

    def deriv(self, x):
        return self.slope(x)

    def spec(self):
        return f"integral of {self.slope.spec()} anchored at {self.anchor:g}"
