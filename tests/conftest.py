import numpy as np
import pytest


def _paper_formula(fam, t, Y, h=1.0e-5):
    """B (P,N,N), a (P,N), b (P,N) of the pullback from a family's map fields.

    B = K K^T - w (x) w, b = -w and a = -(B^T grad det DPhi
    + d/dt[b det DPhi]) / det DPhi with K = DPsi(t, Phi), w = Psi_dot(t, Phi);
    the time derivative is a central difference with step h.
    """
    K = fam.dpsi_at_phi(t, Y)
    w = fam.psi_dot_at_phi(t, Y)
    B = np.einsum("pij,pkj->pik", K, K) - w[:, :, None] * w[:, None, :]

    def b_detj(s):
        return -fam.psi_dot_at_phi(s, Y) * fam.det_dphi(s, Y)[:, None]

    dbd = (b_detj(t + h) - b_detj(t - h)) / (2.0 * h)
    a = -(np.einsum("pji,pj->pi", B, fam.grad_det_dphi(t, Y)) + dbd) / fam.det_dphi(t, Y)[:, None]
    return B, a, -w


@pytest.fixture(scope="session")
def paper_formula():
    """The paper's coefficient formula, as an oracle independent of line()."""
    return _paper_formula
