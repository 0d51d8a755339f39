"""Scenario files: strict line-oriented ``key = value`` format.

Sections in square brackets, ``#`` comments, decimal numbers with optional
exponent, expressions from the fixed catalog (``Const(c)``, ``Affine(a,b)``,
``SineMode(A,k)``, ``Poly(c0,c1,...)``).  Unknown keys are errors and every
error names its line.  The format describes 1d wave runs and the coupled
runs; the n-d domain families are library and ``verify`` features only.
Defaults below are part of the format contract:

    [scenario] kind = wave
    [motion]   kind = identity, length = 1.0, horizon = 1.0, level = 1.0,
               level_kind = radial
    [data]     u0 = SineMode(1.0, 1), u1 = Const(0.0), f = Const(0.0),
               kappa = Const(1.0); optional: u0_prime (coupled slope),
               f_time, w and w_time (boundary load and its time profile)
    [coupled]  l0 = 1.0, R = 2.0, rho0 = 0.5
    [numerics] solver = spectral, modes = 32, grid = 400, dt = 1e-3,
               quad_nodes = 10, store_every = 1, front_grid = 1024,
               taper = 0.5, cfl = 0.45
    [output]   directory = out, series = ledger

The identity and homothetic motions act on the interval (0, length); a
radial sublevel flow is 2d, so it validates but does not run.  length,
horizon, l0, rho0, dt, cfl and the counts must be positive, grid at least
``fd.MIN_CELLS`` and taper in [0, 1), and a wave file's store_every must
divide the step count that ``kernels.step_count`` gives for dt and horizon.
The special token ``u1 = Compatible`` requests the initial velocity that
makes the transformed problem start at rest, u1 = -Phi_dot(0,.) . grad u0.
Only the 1d coupled run tapers its data, so a ``coupled_radial`` file that
sets a nonzero ``taper`` is an error.  The coupled runs take their step
from ``cfl``, so a ``coupled`` or ``coupled_radial`` file that sets ``dt``
is an error too, and so is a radial R <= rho0 or a homothetic profile(0) != 1.
``series`` lists tables of the kind (``SERIES``); a coupled run whose
series is just ``ledger`` writes all three.  Expressions are bound at parse
(only SineMode reads it): time profiles to the horizon, spatial fields to
``length`` (identity, homothetic), profile(0) (one_d_scaling,
sublevel_flow), l0 (coupled) or R (coupled_radial).
"""

from dataclasses import dataclass

import numpy as np

from .characteristics import Verdict, compatibility_check
from .errors import MissingRequired, TypeMismatch, UnknownKey
from .expressions import parse_expression
from .fd import MIN_CELLS
from .kernels import step_count
from .motion import SublevelFlowMotion

_FLOAT = "float"
_INT = "int"
_STR = "str"
_EXPR = "expr"

_SCHEMA = {
    "scenario": {"name": (_STR, None), "kind": (_STR, "wave")},
    "motion": {
        "kind": (_STR, "identity"),
        "length": (_FLOAT, 1.0),
        "profile": (_EXPR, None),
        "level": (_FLOAT, 1.0),
        "level_kind": (_STR, "radial"),
        "horizon": (_FLOAT, 1.0),
    },
    "data": {
        "u0": (_EXPR, "SineMode(1.0, 1)"),
        "u1": (_EXPR, "Const(0.0)"),
        "u0_prime": (_EXPR, None),
        "f": (_EXPR, "Const(0.0)"),
        "f_time": (_EXPR, None),
        "w": (_EXPR, None),
        "w_time": (_EXPR, None),
        "kappa": (_EXPR, "Const(1.0)"),
    },
    "coupled": {"l0": (_FLOAT, 1.0), "R": (_FLOAT, 2.0), "rho0": (_FLOAT, 0.5)},
    "numerics": {
        "solver": (_STR, "spectral"),
        "modes": (_INT, 32),
        "grid": (_INT, 400),
        "dt": (_FLOAT, 1.0e-3),
        "quad_nodes": (_INT, 10),
        "store_every": (_INT, 1),
        "front_grid": (_INT, 1024),
        "taper": (_FLOAT, 0.5),
        "cfl": (_FLOAT, 0.45),
    },
    "output": {"directory": (_STR, "out"), "series": (_STR, "ledger")},
}

_ENUMS = {
    ("scenario", "kind"): {"wave", "coupled", "coupled_radial"},
    ("motion", "kind"): {"identity", "one_d_scaling", "homothetic", "sublevel_flow"},
    ("motion", "level_kind"): SublevelFlowMotion.level_kinds,
    ("numerics", "solver"): {"spectral", "grid"},
}

SERIES = {
    "wave": ("ledger", "trajectory"),
    "coupled": ("front", "griffith", "ledger"),
    "coupled_radial": ("front", "griffith", "ledger"),
}

_POSITIVE = (lambda v: v > 0, "must be positive")
_RANGES = {
    **{("motion", k): _POSITIVE for k in ("length", "horizon")},
    **{("coupled", k): _POSITIVE for k in ("l0", "rho0")},
    **{("numerics", k): _POSITIVE
       for k in ("modes", "dt", "quad_nodes", "store_every", "front_grid", "cfl")},
    ("numerics", "grid"): (lambda v: v >= MIN_CELLS, f"must be at least {MIN_CELLS}"),
    ("numerics", "taper"): (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
}


@dataclass
class Scenario:
    """Fully resolved scenario: every schema key is present."""

    name: str
    kind: str
    motion: dict
    data: dict
    coupled: dict
    numerics: dict
    output: dict
    source: str = ""

    @property
    def series(self):
        """The names listed in [output] series."""
        return [s.strip() for s in self.output["series"].split(",") if s.strip()]

    def manifest(self):
        from . import __version__
        from .kernels import backend_name

        def _enc(v):
            return v.spec() if hasattr(v, "spec") else v

        return {
            "scenario": {"name": self.name, "kind": self.kind},
            "motion": {k: _enc(v) for k, v in self.motion.items()},
            "data": {k: _enc(v) for k, v in self.data.items()},
            "coupled": {k: _enc(v) for k, v in self.coupled.items()},
            "numerics": {k: _enc(v) for k, v in self.numerics.items()},
            "output": {k: _enc(v) for k, v in self.output.items()},
            "version": __version__,
            "backend": backend_name(),
        }


def _convert(section, key, raw, lineno):
    typ, _ = _SCHEMA[section][key]
    if typ == _STR:
        val = raw.strip()
        allowed = _ENUMS.get((section, key))
        if allowed and val not in allowed:
            raise TypeMismatch(f"{key} must be one of {sorted(allowed)}, got {val!r}", lineno)
        return val
    if typ == _EXPR:
        if raw.strip().lower() == "compatible" and key == "u1":
            return "compatible"
        return parse_expression(raw, lineno)
    number, what = (float, "a number") if typ == _FLOAT else (int, "an integer")
    try:
        v = number(raw)
    except ValueError:
        raise TypeMismatch(f"{key} expects {what}, got {raw!r}", lineno) from None
    if not np.isfinite(v):
        raise TypeMismatch(f"{key} must be finite", lineno)
    ok, rule = _RANGES.get((section, key), (None, None))
    if ok is not None and not ok(v):
        raise TypeMismatch(f"{key} {rule}, got {raw}", lineno)
    return v


def parse_scenario(path):
    """Parse and fully resolve a scenario file; strict about unknown keys."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    raw = {s: {} for s in _SCHEMA}
    line_of = {}
    section = None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise UnknownKey(f"unknown section [{name}]", lineno)
            section = name
            continue
        if "=" not in stripped:
            raise TypeMismatch(f"expected 'key = value', got {stripped!r}", lineno)
        if section is None:
            raise UnknownKey("key outside any section", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise UnknownKey(f"unknown key {key!r} in section [{section}]", lineno)
        if key in raw[section]:
            raise TypeMismatch(f"duplicate key {key!r}", lineno)
        raw[section][key] = _convert(section, key, value.strip(), lineno)
        line_of[section, key] = lineno

    resolved = {}
    for section, keys in _SCHEMA.items():
        out = {}
        for key, (typ, default) in keys.items():
            if key in raw[section]:
                out[key] = raw[section][key]
            elif typ == _EXPR and isinstance(default, str):
                out[key] = parse_expression(default)
            else:
                out[key] = default
        resolved[section] = out

    if resolved["scenario"]["name"] is None:
        raise MissingRequired("scenario requires a name ([scenario] name = ...)")
    kind = resolved["scenario"]["kind"]
    if kind == "wave":
        if resolved["motion"]["kind"] != "identity" and resolved["motion"]["profile"] is None:
            raise MissingRequired("non-identity motion requires a profile expression")
    elif kind == "coupled":
        if resolved["data"]["u0_prime"] is None:
            raise MissingRequired("coupled scenarios require data u0_prime")
    elif raw["numerics"].get("taper", 0.0) != 0.0:
        raise TypeMismatch("coupled_radial runs do not taper their data; "
                           "set taper = 0.0 or drop the line", line_of["numerics", "taper"])
    _bind_lengths(resolved, kind)
    if kind == "coupled_radial" and resolved["coupled"]["R"] <= resolved["coupled"]["rho0"]:
        raise TypeMismatch("R must exceed rho0",
                           line_of.get(("coupled", "R"), line_of.get(("coupled", "rho0"))))
    if kind != "wave" and "dt" in raw["numerics"]:
        raise TypeMismatch(f"{kind} runs take dt from cfl; drop the dt line",
                           line_of["numerics", "dt"])
    if kind == "wave":
        motion, num = resolved["motion"], resolved["numerics"]
        horizon = motion["horizon"]
        if motion["kind"] == "homothetic" and abs(float(motion["profile"](0.0)) - 1.0) > 1e-12:
            raise TypeMismatch("profile of a homothetic motion must satisfy profile(0) = 1",
                               line_of["motion", "profile"])
        try:
            step_count(num["dt"], horizon, num["store_every"])
        except ValueError as exc:  # store_every = 1 always divides, so its line exists
            raise TypeMismatch(f"{exc} (dt = {num['dt']:g}, horizon = {horizon:g})",
                               line_of["numerics", "store_every"]) from None

    sc = Scenario(
        name=resolved["scenario"]["name"],
        kind=kind,
        motion=resolved["motion"],
        data=resolved["data"],
        coupled=resolved["coupled"],
        numerics=resolved["numerics"],
        output=resolved["output"],
        source=str(path),
    )
    series = sc.series
    if not series or not set(series) <= set(SERIES[kind]):
        raise TypeMismatch(f"series must list names from {list(SERIES[kind])}, "
                           f"got {sc.output['series']!r}", line_of["output", "series"])
    _early_checks(sc, line_of)
    return sc


def _bind_lengths(resolved, kind):
    """Bind every expression to its length (see the module notes)."""
    motion, data = resolved["motion"], resolved["data"]
    horizon = motion["horizon"]
    if motion["profile"] is not None:
        motion["profile"] = motion["profile"].bound(horizon)
    if kind == "coupled":
        length = resolved["coupled"]["l0"]
    elif kind == "coupled_radial":
        length = resolved["coupled"]["R"]
    elif motion["kind"] in ("identity", "homothetic"):
        length = motion["length"]
    else:
        length = float(motion["profile"](0.0))
    for key, expr in data.items():
        if hasattr(expr, "bound"):  # not None or the token "compatible"
            data[key] = expr.bound(horizon if key.endswith("_time") else length)


def _early_checks(sc, line_of):
    """Checks promised at parse time: the coupled front compatibility
    conditions, reported at the line of the first of kappa, u1 and the
    slope key that the file sets."""
    if sc.kind not in ("coupled", "coupled_radial"):
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
    line = next((line_of[k] for k in (("data", "kappa"), ("data", "u1"), ("data", slope_key))
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
