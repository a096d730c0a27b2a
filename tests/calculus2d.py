"""Plane calculus and DOF evaluation read only by the tests: the 2-D rot and
eps of PolyFields (the oracle for poly.OPS's rot_f and eps_f), the
restriction of a field to a sub-simplex, and the checked DOF evaluation of
a 2-D element."""

import numpy as np

from divdivfem import tensor_calc as tc
from divdivfem.dofcommon import Element
from divdivfem.fields import PolyField, Simplex


def rot2(f: PolyField) -> PolyField:
    """Vector v -> dx v2 - dy v1; matrices row-wise."""
    if not f.vshape or f.vshape[-1] != 2:
        raise ValueError("rot2 needs a trailing 2-vector axis")
    px, py = f.partial(0), f.partial(1)
    return PolyField(px.basis, px.coeffs[..., 1] - py.coeffs[..., 0], f.vshape[:-1])


def eps2(f: PolyField) -> PolyField:
    if f.vshape != (2,):
        raise ValueError("eps2 acts on 2-vector fields")
    return tc.field_sym(f.grad())


def restrict(f: PolyField, local_vertices) -> PolyField:
    """f on the sub-simplex spanned by local_vertices (in that order).

    Bernstein members supported away from the facet vanish there, so the
    restriction is a coefficient selection, exact by construction."""
    basis, lv = f.basis, list(local_vertices)
    sub = Simplex(basis.simplex.vertices[lv]).basis(basis.degree)
    others = [j for j in range(basis.simplex.nvert) if j not in lv]
    R = np.zeros((sub.N, basis.N))
    for i, a in enumerate(basis.alphas):
        if not any(a[j] for j in others):
            R[sub._index[tuple(a[lv])], i] = 1.0
    coeffs = np.moveaxis(np.tensordot(R, f.coeffs, axes=(1, f.nax)), 0, f.nax)
    return PolyField(sub, coeffs, f.vshape)


def dof_eval(elem: Element, field: PolyField) -> np.ndarray:
    """All DOF functionals applied to a polynomial field."""
    if field.basis.degree > elem.basis.degree:
        raise ValueError("field degree exceeds the shape space degree")
    if field.vshape != elem.vshape:
        raise ValueError("field range does not match the element range")
    return elem.dof_values(field)
