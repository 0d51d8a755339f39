"""Property tests of the closed-form 1d pullback over random stretch profiles."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from debondwave.errors import LevelOutOfRange, NonPositiveScale  # noqa: E402
from debondwave.expressions import Poly  # noqa: E402
from debondwave.motion import interval_flow, one_d_scaling  # noqa: E402
from debondwave.transform import PulledBackProblem  # noqa: E402

FIXED = settings(derandomize=True, max_examples=60, deadline=None)

coefficient = st.floats(-0.4, 0.4, allow_nan=False, allow_infinity=False)


def _family(c0, c1, c2, c3, kind):
    """one_d_scaling or interval_flow of a cubic profile kept above 0.2."""
    prof = Poly(c0, c1, c2, c3)
    assume(np.min(prof(np.linspace(-0.01, 1.01, 103))) > 0.2)
    try:
        return one_d_scaling(prof, 1.0) if kind == "scaling" else interval_flow(4.0, prof, 1.0)
    except (NonPositiveScale, LevelOutOfRange):
        assume(False)


@FIXED
@given(c0=st.floats(0.8, 2.0), c1=coefficient, c2=coefficient, c3=coefficient,
       kind=st.sampled_from(["scaling", "flow"]), t=st.floats(0.01, 0.99))
def test_closed_form_rates_match_central_differences(c0, c1, c2, c3, kind, t):
    fam = _family(c0, c1, c2, c3, kind)
    pb = PulledBackProblem(fam)
    ys = np.linspace(0.0, fam.reference.length, 11)
    dB, divb = pb.line_rates(t, ys)

    h = 1e-5
    Bp, _, _, _ = pb.line(t + h, ys)
    Bm, _, _, _ = pb.line(t - h, ys)
    assert np.max(np.abs(dB - (Bp - Bm) / (2 * h))) <= 1e-6 * (1.0 + np.max(np.abs(dB)))

    _, _, bp, _ = pb.line(t, ys + h)
    _, _, bm, _ = pb.line(t, ys - h)
    assert np.max(np.abs(divb - (bp - bm) / (2 * h))) <= 1e-8 * (1.0 + np.max(np.abs(divb)))


@FIXED
@given(c0=st.floats(0.8, 2.0), c1=coefficient, c2=coefficient, c3=coefficient,
       kind=st.sampled_from(["scaling", "flow"]), t=st.floats(0.0, 1.0))
def test_line_matches_the_paper_formula(paper_formula, c0, c1, c2, c3, kind, t):
    fam = _family(c0, c1, c2, c3, kind)
    ys = np.linspace(0.0, fam.reference.length, 11)
    B, a, b, _ = PulledBackProblem(fam).line(t, ys)
    Bp, ap, bp = paper_formula(fam, t, ys.reshape(-1, 1))
    assert np.max(np.abs(B - Bp[:, 0, 0])) <= 1e-12 * (1.0 + np.max(np.abs(B)))
    assert np.max(np.abs(b - bp[:, 0])) <= 1e-12 * (1.0 + np.max(np.abs(b)))
    assert np.max(np.abs(a - ap[:, 0])) <= 1e-6 * (1.0 + np.max(np.abs(a)))
