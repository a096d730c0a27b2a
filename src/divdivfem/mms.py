"""Manufactured solutions for the Einstein-Bianchi runs.

Two stock families:
  * trig: smooth trigonometric spatial shapes (generic, for rate studies);
  * poly: spatial parts inside the discrete spaces and quadratic-in-time
    factors, which the Crank-Nicolson scheme must reproduce exactly.

Forcing is derived at the weak level (see eb_solver), so nothing here needs
boundary compatibility; the spatial derivative factors (divdiv E, symcurl B)
are supplied analytically per term.
"""

from __future__ import annotations

import numpy as np

from . import poly
from . import tensor_calc as tc
from .eb_solver import EBTerm, ManufacturedEB
from .fields import PolyField


def _global_field(f: PolyField):
    return lambda ci, pts: f.eval(pts)


# ---------------------------------------------------------------------------
# trigonometric solution
# ---------------------------------------------------------------------------

_A_SYM = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]) / 4.0
_C_TF = np.array([[1.0, 2.0, 0.5], [0.0, -2.0, 1.0], [1.5, 0.0, 1.0]]) / 3.0
assert abs(np.trace(_C_TF)) < 1e-14


def _sinprod(pts):
    return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]) * np.sin(np.pi * pts[:, 2])


def _sinprod_hess(pts):
    """Hessian of sin(pi x) sin(pi y) sin(pi z): (p, 3, 3)."""
    s = [np.sin(np.pi * pts[:, d]) for d in range(3)]
    c = [np.cos(np.pi * pts[:, d]) for d in range(3)]
    H = np.empty((len(pts), 3, 3))
    pi2 = np.pi ** 2
    H[:, 0, 0] = -pi2 * s[0] * s[1] * s[2]
    H[:, 1, 1] = -pi2 * s[0] * s[1] * s[2]
    H[:, 2, 2] = -pi2 * s[0] * s[1] * s[2]
    H[:, 0, 1] = H[:, 1, 0] = pi2 * c[0] * c[1] * s[2]
    H[:, 0, 2] = H[:, 2, 0] = pi2 * c[0] * s[1] * c[2]
    H[:, 1, 2] = H[:, 2, 1] = pi2 * s[0] * c[1] * c[2]
    return H


def _cosprod(pts):
    return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1]) * np.cos(np.pi * pts[:, 2])


def _cosprod_grad(pts):
    s = [np.sin(np.pi * pts[:, d]) for d in range(3)]
    c = [np.cos(np.pi * pts[:, d]) for d in range(3)]
    g = np.empty((len(pts), 3))
    g[:, 0] = -np.pi * s[0] * c[1] * c[2]
    g[:, 1] = -np.pi * c[0] * s[1] * c[2]
    g[:, 2] = -np.pi * c[0] * c[1] * s[2]
    return g


def trig_mms() -> ManufacturedEB:
    """sigma = cos(t) u, E = cos(1.3t) u A, B = sin(0.9t) v C."""

    def sigma_shape(ci, pts):
        return _sinprod(pts)

    def e_shape(ci, pts):
        return _sinprod(pts)[:, None, None] * _A_SYM

    def e_divdiv(ci, pts):
        return np.einsum("pij,ij->p", _sinprod_hess(pts), _A_SYM)

    def b_shape(ci, pts):
        return _cosprod(pts)[:, None, None] * _C_TF

    def b_symcurl(ci, pts):
        g = _cosprod_grad(pts)
        curl = np.cross(g[:, None, :], _C_TF[None, :, :])  # rows: grad v x c_i
        return 0.5 * (curl + np.swapaxes(curl, -1, -2))

    return ManufacturedEB(
        sigma_terms=[EBTerm(np.cos, lambda t: -np.sin(t), sigma_shape)],
        E_terms=[EBTerm(lambda t: np.cos(1.3 * t), lambda t: -1.3 * np.sin(1.3 * t),
                        e_shape, e_divdiv)],
        B_terms=[EBTerm(lambda t: np.sin(0.9 * t), lambda t: 0.9 * np.cos(0.9 * t),
                        b_shape, b_symcurl)],
        label="trig")


# ---------------------------------------------------------------------------
# polynomial (space-exact) solution
# ---------------------------------------------------------------------------

def poly_mms(k: int = 3, seed: int = 7, time_degree: int = 2) -> ManufacturedEB:
    """Spatial parts in P_{k-2} x P_k(S) x P_{k+1}(T), time factors polynomial.

    With time_degree <= 2 the trapezoid averages in Crank-Nicolson are exact,
    so the discrete solution must match to solver precision.
    """
    rng = np.random.default_rng(seed)
    cell = poly.reference_cell("tet")

    s_f, e_f, b_f = (PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)), gens)
                     for basis, gens in ((cell.basis(k - 2), poly.RANGE_GENERATORS["scalar"]),
                                         (cell.basis(k), poly.RANGE_GENERATORS["S"]),
                                         (cell.basis(k + 1), poly.RANGE_GENERATORS["T"])))
    e_dd = e_f.div().div()
    b_sc = tc.field_sym(b_f.curl())

    def poly_time(coeffs):
        c = np.array(coeffs[: time_degree + 1], dtype=float)
        g = np.polynomial.Polynomial(c)
        return (lambda t: float(g(t))), (lambda t: float(g.deriv()(t)))

    gs, gsd = poly_time([0.3, 1.0, -0.5, 0.9])
    ge, ged = poly_time([1.0, -0.7, 0.25, -1.1])
    gb, gbd = poly_time([0.5, 0.4, 0.6, 0.7])

    return ManufacturedEB(
        sigma_terms=[EBTerm(gs, gsd, _global_field(s_f))],
        E_terms=[EBTerm(ge, ged, _global_field(e_f), _global_field(e_dd))],
        B_terms=[EBTerm(gb, gbd, _global_field(b_f), _global_field(b_sc))],
        label="poly")


def make_mms(name: str, k: int = 3) -> ManufacturedEB:
    if name == "trig":
        return trig_mms()
    if name == "poly":
        return poly_mms(k)
    raise ValueError(f"unknown mms {name!r}")
