import numpy as np
import pytest
import scipy.sparse as sp

from divdivfem import mesh, poly
from divdivfem import tensor_calc as tc
from divdivfem.complex_asm import (GlobalSpace, assemble_diff, build_complex,
                                   cell_operators, complex_audit, condensed_rank,
                                   sparse_rank)
from divdivfem.dofcommon import Element
from divdivfem.eb_solver import EBSystem
from divdivfem.fields import PolyField
from divdivfem.linalg import qr_rank, svd_rank


def test_single_tet_dims(complexes):
    (V, L, S, Q), _ = complexes("single_tet")
    assert (V.dim, L.dim, S.dim, Q.dim) == (168, 280, 120, 4)


def test_kuhn1_dims_from_attachment_tallies(complexes):
    (V, L, S, Q), _ = complexes("kuhn_cube(1)")
    m = mesh.load("kuhn_cube(1)")
    # entity-weighted counts (independent constraint-counting oracle)
    assert S.dim == 6 * m.num_vertices + 6 * m.num_edges + 7 * m.num_faces + 32 * m.num_cells
    assert L.dim == 32 * m.num_vertices + 10 * m.num_edges + 12 * m.num_faces + 44 * m.num_cells
    assert V.dim == 30 * m.num_vertices + 0 * m.num_edges + 9 * m.num_faces + 12 * m.num_cells
    assert Q.dim == 6 * poly.dim_P(3, 1) == 24
    for space in (V, L, S, Q):
        # brute force: the union of (entity, slot) constraints over cells
        seen = np.unique(np.concatenate(space.cell_maps))
        assert len(seen) == space.dim
        assert seen[0] == 0 and seen[-1] == space.dim - 1
        assert sum(space.attachment_counts().values()) == space.dim


def test_single_tet_ranks_match_polynomial_audit(complexes):
    _, (d1, d2, d3) = complexes("single_tet")
    assert sparse_rank(d1) == 164
    assert sparse_rank(d2) == 116
    assert sparse_rank(d3) == 4


@pytest.mark.parametrize("spec", ["single_tet", "two_tets", "kuhn_cube(1)"])
def test_complex_audit(spec, complexes):
    m = mesh.load(spec)
    rows = complex_audit(m, 3)
    for r in rows:
        assert r["pass"], (spec, r)


def test_complex_audit_k4_two_tets():
    rows = complex_audit(mesh.two_tets(), 4)
    for r in rows:
        assert r["pass"], r


@pytest.mark.parametrize("spec", ["single_tet", "two_tets", "kuhn_cube(1)"])
def test_condensed_ranks_match_dense_oracles(spec, complexes):
    """Cell blocks plus the reduced interface matrix give the rank of the
    whole matrix, as decided by dense QR and by dense SVD."""
    (V, L, S, Q), (d1, d2, d3) = complexes(spec)
    for d, src, dst in ((d1, V, L), (d2, L, S), (d3, S, Q)):
        dense = d.toarray()
        assert condensed_rank(d, src, dst) == qr_rank(dense) == svd_rank(dense)


@pytest.mark.parametrize("where", ["interface row", "other cell's interior row"])
def test_condensed_rank_rejects_interior_column_leaving_its_cell(where, complexes):
    (V, L, S, Q), (d1, _, _) = complexes("two_tets")
    col = V.cell_maps[0, V.elements[0].interior][0]
    row = (L.cell_maps[0, ~L.elements[0].interior][0] if where == "interface row"
           else L.cell_maps[1, L.elements[0].interior][0])
    planted = d1 + sp.csr_matrix(([1e-6 * abs(d1).max()], ([row], [col])), shape=d1.shape)
    with pytest.raises(ValueError, match="leave their cells"):
        condensed_rank(planted, V, L)
    assert condensed_rank(d1, V, L) == V.dim - 4


def test_compositions_zero_k4_two_tets():
    (V, L, S, Q), (d1, d2, d3) = build_complex(mesh.two_tets(), 4)
    s21 = abs(d1).max() * abs(d2).max()
    assert np.abs((d2 @ d1).toarray()).max() <= 1e-11 * s21
    s32 = abs(d2).max() * abs(d3).max()
    assert np.abs((d3 @ d2).toarray()).max() <= 1e-11 * s32
    assert sparse_rank(d1) == V.dim - 4


def test_assemble_diff_rejects_wrong_pair(complexes):
    (V, L, S, Q), _ = complexes("single_tet")
    with pytest.raises(ValueError):
        assemble_diff(cell_operators("devgrad", L, S), L, S)
    with pytest.raises(ValueError):
        assemble_diff(cell_operators("unknown", V, L), V, L)


def test_interpolation_reproduces_in_space_fields(rng, complexes):
    (V, L, S, Q), (d1, d2, d3) = complexes("kuhn_cube(1)")
    cell = poly.reference_cell("tet")

    pts = rng.random((8, 3))
    for space, deg, rng_name in ((V, 5, "V3"), (L, 4, "T"), (S, 3, "S"), (Q, 1, "scalar")):
        basis, gens = cell.basis(deg), poly.RANGE_GENERATORS[rng_name]
        fld = PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)), gens)
        coeffs = space.interpolate(fld, check_shared=True)
        for ci in (0, 3):
            vals = space.eval_cells(coeffs, ci, pts)
            scale = max(np.abs(fld.eval(pts)).max(), 1.0)
            assert np.abs(vals - fld.eval(pts)).max() <= 1e-10 * scale


def test_interpolate_constant_symmetric_matrix(complexes):
    (V, L, S, Q), _ = complexes("two_tets")
    cell = poly.reference_cell("tet")
    const = PolyField(cell.basis(0), np.array([[[2.0, 1.0, 0.0],
                                                [1.0, 3.0, 0.5],
                                                [0.0, 0.5, 1.0]]]), (3, 3))
    coeffs = S.interpolate(const, check_shared=True)
    vals = S.eval_cells(coeffs, 1, np.array([[0.4, 0.3, 0.2]]))
    assert np.abs(vals[0] - const.coeffs[0]).max() <= 1e-11


def test_interpolated_devgrad_satisfies_operator_relation(rng, complexes):
    """interpolate(Lambda, devgrad v) equals D_devgrad @ interpolate(V, v)."""
    (V, L, S, Q), (d1, d2, d3) = complexes("two_tets")
    cell = poly.reference_cell("tet")
    sp = poly.space(cell, 5, "V3")
    coords = rng.standard_normal(sp.dim)
    f = sp.fields()
    v = PolyField(f.basis, np.tensordot(coords.reshape(f.basis.N, 3), np.eye(3),
                                        axes=(1, 0)), (3,))
    dv = tc.field_dev(v.grad())
    lhs = L.interpolate(dv, check_shared=True)
    rhs = d1 @ V.interpolate(v, check_shared=True)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(np.abs(lhs).max(), 1.0)


def test_interpolate_rt_killed_by_devgrad(complexes):
    (V, L, S, Q), (d1, _, _) = complexes("two_tets")
    rt = poly.rt_space("tet")
    for i in range(4):
        coeffs = V.interpolate(rt.member(i))
        assert np.abs(d1 @ coeffs).max() <= 1e-11


def test_interpolate_rejects_non_polynomial(complexes):
    (V, _, _, _), _ = complexes("single_tet")
    with pytest.raises(TypeError):
        V.interpolate(lambda x: x)


def test_audit_requires_simply_connected():
    # all builtin meshes have chi == 1, so exercise the guard synthetically
    class Fake:
        euler_characteristic = 0

    with pytest.raises(ValueError):
        complex_audit(Fake(), 3)


def test_deterministic_assembly(complexes):
    m = mesh.load("two_tets")
    a = GlobalSpace(m, "hdivdiv_S", 3)
    b = GlobalSpace(m, "hdivdiv_S", 3)
    q = GlobalSpace(m, "dg_scalar", 3)
    da = assemble_diff(cell_operators("divdiv", a, q), a, q)
    db = assemble_diff(cell_operators("divdiv", b, q), b, q)
    assert (da != db).nnz == 0


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_global_operator_restricts_to_every_cell_operator(spec, complexes):
    """Each row of D comes from its owner cell; conformity makes every other
    cell that lists the DOF agree, so D restricted to any cell is d_c."""
    spaces, diffs = complexes(spec)
    for op, src, dst, D in zip(("devgrad", "symcurl", "divdiv"), spaces, spaces[1:], diffs):
        ops = cell_operators(op, src, dst)
        for c, d_c in enumerate(ops):
            local = D[dst.cell_maps[c]][:, src.cell_maps[c]].toarray()
            assert np.abs(local - d_c).max() <= 1e-10 * np.abs(d_c).max(), (op, c)


def test_each_cell_operator_computed_once(monkeypatch):
    """cell_operators forms each cell's generator fields once per operator."""
    calls = []
    generator_fields = Element.generator_fields

    def counting(self):
        calls.append(1)
        return generator_fields(self)

    monkeypatch.setattr(Element, "generator_fields", counting)
    EBSystem(mesh.two_tets(), 3).skew_block()
    assert len(calls) == 2 * 2          # divdiv and symcurl on two cells
    calls.clear()
    build_complex(mesh.two_tets(), 3)
    assert len(calls) == 3 * 2          # devgrad, symcurl and divdiv
