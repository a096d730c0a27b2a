import copy
import gc
import json

import numpy as np
import pytest
import scipy.sparse as sp

from divdivfem import complex_asm, eb_solver, fe3d, mesh, poly
from divdivfem import tensor_calc as tc
from divdivfem.complex_asm import (CellTree, GlobalSpace, assemble_diff,
                                   build_complex, cell_operators, complex_audit,
                                   condensed_rank, sparse_rank)
from divdivfem.dofcommon import Element
from divdivfem.eb_solver import EBSystem
from divdivfem.fe3d import FAMILIES, EntityCache, build_element, element_3d
from divdivfem.fields import PolyField, Simplex
from divdivfem.linalg import product_max, qr_rank, svd_rank

from conftest import APART, EDGE_MEETING


def test_single_tet_dims(complexes):
    (V, L, S, Q), _ = complexes("single_tet")
    assert (V.dim, L.dim, S.dim, Q.dim) == (168, 280, 120, 4)


def _attachment_counts(space) -> dict[str, int]:
    """The DOFs attached to all vertices, edges, faces and cell interiors."""
    m, tags = space.mesh, space.elements[0].tags
    nums = {"vertex": ("v", m.num_vertices), "edge": ("e", m.num_edges),
            "face": ("f", m.num_faces), "interior": ("c", m.num_cells)}
    return {name: sum(tag[:2] == (kind, 0) for tag in tags) * n
            for name, (kind, n) in nums.items()}


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
        assert sum(_attachment_counts(space).values()) == space.dim


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


@pytest.mark.parametrize("spec, k", [
    pytest.param("single_tet", 3, id="single_tet"),
    pytest.param("two_tets", 3, id="two_tets"),
    pytest.param("kuhn_cube(1)", 3, id="kuhn_cube(1)"),
    pytest.param("two_tets", 4, id="two_tets-k4"),
    pytest.param(EDGE_MEETING, 3, id="edge_meeting"),
    pytest.param(APART, 3, id="apart"),
])
def test_condensed_ranks_match_dense_oracles(spec, k, complexes):
    """The fronts of the cells' bisection tree give the rank of the whole
    matrix, as decided by dense QR and by dense SVD: also where tree nodes
    own nothing and pass their fronts up whole."""
    (V, L, S, Q), (d1, d2, d3) = (complexes(spec, k) if isinstance(spec, str)
                                  else build_complex(mesh.TetMesh(*spec), k))
    for d, src, dst in ((d1, V, L), (d2, L, S), (d3, S, Q)):
        dense = d.toarray()
        assert condensed_rank(d, src, dst) == qr_rank(dense) == svd_rank(dense)


def _plant(d, row, col):
    return d + sp.csr_matrix(([1e-6 * abs(d).max()], ([row], [col])), shape=d.shape)


@pytest.mark.parametrize("where", ["interface row", "other cell's interior row",
                                   "row outside a non-leaf node"])
def test_condensed_rank_rejects_interior_column_leaving_its_cell(where, complexes):
    """An entry of a column outside the rows of its node's subtree breaks the
    identity the elimination rests on: ValueError, not a silently dropped entry."""
    spec = "kuhn_cube(1)" if where == "row outside a non-leaf node" else "two_tets"
    (V, L, S, Q), (d1, _, _) = complexes(spec)
    if where == "row outside a non-leaf node":
        tree = CellTree(V.mesh)
        cnode, rnode = tree.dof_nodes(V.cell_maps), tree.dof_nodes(L.cell_maps)
        node = next(n for n in range(len(tree.lo))
                    if 1 < tree.hi[n] - tree.lo[n] < V.mesh.num_cells
                    and np.any(cnode == n))
        col = np.flatnonzero(cnode == node)[0]
        row = np.flatnonzero(~tree.within(rnode, np.full_like(rnode, node)))[0]
    else:
        col = V.cell_maps[0, V.elements[0].interior][0]
        # interface: a row both cells list
        row = (np.intersect1d(L.cell_maps[0], L.cell_maps[1])[0] if where == "interface row"
               else L.cell_maps[1, L.elements[0].interior][0])
    with pytest.raises(ValueError, match="leave their cells"):
        condensed_rank(_plant(d1, row, col), V, L)
    assert condensed_rank(d1, V, L) == V.dim - 4


def test_condensed_rank_d1_drop_below_tighter_bound(complexes):
    """devgrad's cell operators read their target coordinates exactly, and
    the DOFs are dimensionless, so the entries the bubble identity drops on
    kuhn_cube(2) stay below 1e-11 max|d| (6.8e-12; 5.3e-11 with physical
    DOFs), a hundredth of the default bound, and the rank is unchanged."""
    (V, L, _, _), (d1, _, _) = complexes("kuhn_cube(2)")
    assert condensed_rank(d1, V, L, rtol=1e-11) == 2462


def test_condensed_rank_keeps_an_entry_inside_its_cell(complexes):
    """A boundary row listed by the column's cell alone lies in that leaf's
    front: an entry there is kept, and the rank is the dense rank of the
    changed matrix."""
    (V, L, S, Q), (d1, _, _) = complexes("two_tets")
    col = V.cell_maps[0, V.elements[0].interior][0]
    row = np.setdiff1d(L.cell_maps[0, ~L.elements[0].interior], L.cell_maps[1])[0]
    planted = _plant(d1, row, col)
    dense = planted.toarray()
    assert condensed_rank(planted, V, L) == qr_rank(dense) == svd_rank(dense)


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)", "kuhn_cube(2)"])
def test_cell_tree_and_ranks_repeat_across_builds(spec):
    """The tree depends on the mesh alone: two builds of one mesh give the
    same leaf order, node ranges and DOF nodes, and the same ranks."""
    trees, ranks = [], []
    for _ in range(2):
        m = mesh.load(spec)
        (V, L, S, Q), ds = build_complex(m, 3)
        tree = CellTree(m)
        trees.append((tree.order, tree.lo, tree.hi, tree.anc,
                      tree.dof_nodes(V.cell_maps), tree.dof_nodes(L.cell_maps)))
        ranks.append([condensed_rank(d, a, b) for d, a, b in zip(ds, (V, L, S), (L, S, Q))])
    assert all(np.array_equal(a, b) for a, b in zip(*trees))
    assert ranks[0] == ranks[1]


def test_cell_tree_splits_down_to_single_cells():
    """Every node's leaves are the union of its children's, and each leaf is one cell."""
    m = mesh.load("kuhn_cube(2)")
    tree = CellTree(m)
    assert sorted(tree.order) == list(range(m.num_cells))
    assert len(tree.lo) == 2 * m.num_cells - 1
    for n, kids in enumerate(tree.kids):
        if kids:
            a, b = kids
            assert (tree.lo[a], tree.hi[a], tree.hi[b]) == (tree.lo[n], tree.lo[b], tree.hi[n])
            assert abs((tree.hi[a] - tree.lo[a]) - (tree.hi[b] - tree.lo[b])) <= 1
        else:
            assert tree.hi[n] - tree.lo[n] == 1
    # a DOF's node holds every cell that lists it, and no child of it does
    (V, _, _, _), _ = build_complex(m, 3)
    nodes = tree.dof_nodes(V.cell_maps)
    leaves = tree.position[:, None].repeat(V.cell_maps.shape[1], axis=1)
    lo, hi = np.full(V.dim, m.num_cells), np.zeros(V.dim, dtype=int)
    np.minimum.at(lo, V.cell_maps, leaves)
    np.maximum.at(hi, V.cell_maps, leaves + 1)
    assert np.all((tree.lo[nodes] <= lo) & (hi <= tree.hi[nodes]))
    for n in np.unique(nodes):
        for c in tree.kids[n]:
            mine = nodes == n
            assert not np.any((tree.lo[c] <= lo[mine]) & (hi[mine] <= tree.hi[c]))


def _median_tree(m, monkeypatch):
    """The tree of the median cut that the fewest-shared-vertices cut
    replaced: every node split at n // 2 of its ordered cells."""
    with monkeypatch.context() as p:
        p.setattr(complex_asm, "_cut", lambda verts: len(verts) // 2)
        return CellTree(m)


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)", "kuhn_cube(2)", "kuhn_cube(4)"])
def test_cell_tree_keeps_the_median_tree_where_it_cuts_between_layers(spec, monkeypatch):
    """Where the median cut already falls between cells that share the
    fewest vertices, the tree is array-identical to the median tree."""
    m = mesh.load(spec)
    tree, median = CellTree(m), _median_tree(m, monkeypatch)
    for key in ("order", "lo", "hi", "anc"):
        assert np.array_equal(getattr(tree, key), getattr(median, key))
    assert tree.kids == median.kids


def test_cell_tree_cuts_kuhn_cube_3_between_layers(monkeypatch):
    """kuhn_cube(3)'s 162 cells lie in three layers of cubes, and the median
    cut runs through the middle one.  The root cut falls between two layers
    instead (54 and 108 cells on either side of the plane x = 1/3, sharing
    the 16 vertices of that plane against 28), and the root separator of the
    CN interface shrinks from 2686 to 1478 unknowns."""
    m = mesh.load("kuhn_cube(3)")
    tree, median = CellTree(m), _median_tree(m, monkeypatch)
    cent = m.vertices[m.cells].mean(axis=1)
    a, b = (tree.order[tree.lo[c]:tree.hi[c]] for c in tree.kids[-1])
    assert (len(a), len(b)) == (54, 108)
    assert cent[a, 0].max() < 1 / 3 < cent[b, 0].min()
    assert len(np.intersect1d(m.cells[a], m.cells[b])) == 16
    a, b = (median.order[median.lo[c]:median.hi[c]] for c in median.kids[-1])
    assert len(np.intersect1d(m.cells[a], m.cells[b])) == 28
    sys = eb_solver.EBSystem(m, 3)
    maps, ni = sys._maps[:, sys._order], sys._ni
    assert len(eb_solver.Fronts(tree, maps, ni).own[-1]) == 1478
    assert len(eb_solver.Fronts(median, maps, ni).own[-1]) == 2686


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


def _coo_assembled(ops, src, dst):
    """assemble_diff as it was built through COO triplets: the reference."""
    vals = ops[src.cell_class[dst.owner], dst.owner_local]
    cols = src.cell_maps[dst.owner]
    rows = np.broadcast_to(np.arange(dst.ndof)[:, None], cols.shape)
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(dst.ndof, src.ndof))


@pytest.mark.parametrize("spec, k", [("kuhn_cube(1)", 3), ("two_tets", 4)])
def test_assemble_diff_is_bitwise_the_coo_assembly(spec, k, complexes):
    """The CSR built in place equals the COO-built one bit for bit: indptr,
    indices and data, with the same index dtype."""
    spaces, diffs = complexes(spec, k)
    for op, src, dst, D in zip(("devgrad", "symcurl", "divdiv"), spaces, spaces[1:], diffs):
        ref = _coo_assembled(cell_operators(op, src, dst), src, dst)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(D, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (op, name)


def _rounding_bound(A, B):
    """Twice the worst-case rounding of any entry of A B summed in any order:
    2 n eps max (|A| |B|), n the longest row of A."""
    n = int(np.diff(A.indptr).max())
    return 2 * n * np.finfo(float).eps * abs(abs(A) @ abs(B)).max()


@pytest.mark.parametrize("spec, k", [("kuhn_cube(1)", 3), ("two_tets", 4)])
def test_compositions_by_owner_blocks_match_the_sparse_product(spec, k, complexes):
    (V, L, S, Q), (d1, d2, d3) = complexes(spec, k)
    for A, B, owner in ((d2, d1, S.owner), (d3, d2, Q.owner)):
        want = abs(A @ B).max()
        assert abs(product_max(A, B, owner) - want) <= _rounding_bound(A, B)


def test_planted_entry_fails_the_composition_row(complexes, monkeypatch):
    """An entry planted in d1 (inside its cell, so the ranks still run) shows
    in max|d2 d1| as in the sparse product, and the row fails."""
    spaces, (d1, d2, d3) = complexes("two_tets")
    V, L, S, _ = spaces
    col = V.cell_maps[0, V.elements[0].interior][0]
    row = np.setdiff1d(L.cell_maps[0, ~L.elements[0].interior], L.cell_maps[1])[0]
    planted = _plant(d1, row, col)
    monkeypatch.setattr(complex_asm, "build_complex", lambda m, k: (spaces, (planted, d2, d3)))
    rows = {r["name"]: r for r in complex_audit(mesh.two_tets(), 3)}
    comp = rows["symcurl o devgrad = 0"]
    scale = abs(planted).max() * abs(d2).max()
    assert abs(comp["computed"] * scale - abs(d2 @ planted).max()) <= _rounding_bound(d2, planted)
    assert comp["computed"] > 1e-11 and not comp["pass"]
    assert rows["divdiv o symcurl = 0"]["pass"]


def _no_sparse_product(*args, **kwargs):
    raise AssertionError("a sparse x sparse product was formed")


def test_complex_audit_forms_no_sparse_product(monkeypatch):
    """The compositions come from dense owner blocks: with scipy's sparse x
    sparse product raising, complex_audit still passes every row."""
    for cls in type(sp.csr_matrix((1, 1))).__mro__:
        if "_matmul_sparse" in vars(cls):
            monkeypatch.setattr(cls, "_matmul_sparse", _no_sparse_product)
    with pytest.raises(AssertionError, match="sparse x sparse"):
        sp.eye(2, format="csr") @ sp.eye(2, format="csr")
    rows = complex_audit(mesh.load("kuhn_cube(1)"), 3)
    assert all(r["pass"] for r in rows)


def _cell_field(space, coeffs, ci) -> PolyField:
    """The discrete field coeffs of space on cell ci: its class element's
    shape functions, on the cell's own simplex."""
    elem = space.elements[space.cell_class[ci]]
    basis = space.mesh.cell_simplices[ci].basis(elem.basis.degree)
    return PolyField.from_coords(basis, coeffs[space.cell_maps[ci]] @ elem.Vinv.T,
                                 elem.comp_gens)


def _eval_cells(space, coeffs, ci, pts):
    """Values of the discrete field coeffs of space on cell ci at physical points."""
    return _cell_field(space, coeffs, ci).eval(pts)


def test_interpolation_reproduces_in_space_fields(rng, complexes):
    (V, L, S, Q), (d1, d2, d3) = complexes("kuhn_cube(1)")
    cell = poly.reference_cell("tet")

    pts = rng.random((8, 3))
    for space, deg, rng_name in ((V, 5, "V3"), (L, 4, "T"), (S, 3, "S"), (Q, 1, "scalar")):
        basis, gens = cell.basis(deg), poly.RANGE_GENERATORS[rng_name]
        fld = PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)), gens)
        coeffs = space.interpolate(fld)
        for ci in (0, 3):
            vals = _eval_cells(space, coeffs, ci, pts)
            scale = max(np.abs(fld.eval(pts)).max(), 1.0)
            assert np.abs(vals - fld.eval(pts)).max() <= 1e-10 * scale


def test_interpolate_constant_symmetric_matrix(complexes):
    (V, L, S, Q), _ = complexes("two_tets")
    cell = poly.reference_cell("tet")
    const = PolyField(cell.basis(0), np.array([[[2.0, 1.0, 0.0],
                                                [1.0, 3.0, 0.5],
                                                [0.0, 0.5, 1.0]]]), (3, 3))
    coeffs = S.interpolate(const)
    vals = _eval_cells(S, coeffs, 1, np.array([[0.4, 0.3, 0.2]]))
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
    lhs = L.interpolate(dv)
    rhs = d1 @ V.interpolate(v)
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
        for c, d_c in enumerate(ops[src.cell_class]):
            local = D[dst.cell_maps[c]][:, src.cell_maps[c]].toarray()
            assert np.abs(local - d_c).max() <= 1e-10 * np.abs(d_c).max(), (op, c)


def test_each_cell_operator_computed_once(monkeypatch, fresh_class_data):
    """cell_operators differentiates each cell's generators once per operator."""
    calls = []
    diff = poly.diff

    def counting(op, src):
        calls.append(op)
        return diff(op, src)

    monkeypatch.setattr(poly, "diff", counting)
    EBSystem(mesh.two_tets(), 3).skew_block()
    assert len(calls) == 2 * 2          # divdiv and symcurl on two cells
    calls.clear()
    build_complex(mesh.two_tets(), 3)
    assert len(calls) == 3 * 2          # devgrad, symcurl and divdiv


# ---------------------------------------------------------------------------
# one element per translation class
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, builds", [("kuhn_cube(2)", 6), ("two_tets", 2)])
def test_one_element_built_per_translation_class(spec, builds, monkeypatch,
                                                fresh_class_data):
    """kuhn_cube(2) has 48 cells in 6 translation classes; two_tets has one
    class per cell.  Each family runs finalize once per class, on the class's
    cell of the unit mesh."""
    calls = []
    finalize = Element.finalize
    monkeypatch.setattr(Element, "finalize",
                        lambda self: calls.append(self.family) or finalize(self))
    m = mesh.load(spec)
    cache = EntityCache(m.unit, 3)
    for family in FAMILIES:
        space = GlobalSpace(m, family, 3, cache)
        assert calls.count(family) == builds, family
        assert len(space.class_reps) == len(space.elements) == builds
        for elem, ci in zip(space.elements, space.class_reps):
            assert elem.simplex is m.unit.cell_simplices[ci]


def test_classes_numbering_their_dofs_differently_are_rejected(monkeypatch,
                                                               fresh_class_data):
    """cell_maps gathers every cell's global numbers from one tag table, so a
    class element whose DOF tags differ from the first one's is an error."""
    build = complex_asm.build_element

    def reordered(family, k, m, ci, cache):
        elem = build(family, k, m, ci, cache)
        elem.tags = elem.tags[::-1] if ci else elem.tags
        return elem

    monkeypatch.setattr(complex_asm, "build_element", reordered)
    with pytest.raises(ValueError, match="order their DOFs differently"):
        GlobalSpace(mesh.two_tets(), "dg_scalar", 3)


def test_eb_system_builds_one_element_per_class_and_family(monkeypatch, fresh_class_data):
    """EBSystem on kuhn_cube(2) builds 18 elements, 6 translation classes
    times 3 families, all on the classes' cells: none for the other 42."""
    built = []
    build_groups = fe3d._build_groups
    monkeypatch.setattr(fe3d, "_build_groups",
                        lambda family, k, m, ci, cache: built.append((family, ci))
                        or build_groups(family, k, m, ci, cache))
    sys = EBSystem(mesh.load("kuhn_cube(2)"), 3)
    assert len(built) == 18
    assert {ci for _, ci in built} == set(sys.space_E.class_reps)


def _class_stacks(sys) -> list[np.ndarray]:
    return [np.stack([e.Vinv for e in space.elements])
            for space in (sys.space_q, sys.space_E, sys.space_B)]


def test_systems_share_class_data_across_kuhn_meshes(monkeypatch, fresh_class_data):
    """The unit meshes of kuhn_cube(2) and (3) have kuhn_cube(1)'s 6 class
    keys: built while kuhn_cube(1)'s system is alive, their systems call
    build_element zero times and hold kuhn_cube(1)'s class Vinv, bit for bit.
    kuhn_cube(2)'s physical stacks are the unit ones times powers of h = 1/2,
    exact: masses h^3, symcurl h^-1, divdiv h^-2.  Once every system is
    dropped, the process cache holds nothing."""
    base = EBSystem(mesh.load("kuhn_cube(1)"), 3)
    calls = []
    build = complex_asm.build_element
    monkeypatch.setattr(complex_asm, "build_element",
                        lambda *args: calls.append(args[:2]) or build(*args))
    finer = [EBSystem(mesh.load(spec), 3) for spec in ("kuhn_cube(2)", "kuhn_cube(3)")]
    assert calls == []
    want = _class_stacks(base)
    for sys in finer:
        assert all(np.array_equal(a, b) for a, b in zip(_class_stacks(sys), want))
    (d3, d2), masses = finer[0]._cell_diff, finer[0]._cell_mass
    assert np.array_equal(d3, 4.0 * base._cell_diff[0])
    assert np.array_equal(d2, 2.0 * base._cell_diff[1])
    assert all(np.array_equal(m, 0.125 * m1) for m, m1 in zip(masses, base._cell_mass))
    assert len(fresh_class_data) > 0
    del base, finer, sys, d3, d2, masses
    gc.collect()
    assert len(fresh_class_data) == 0


def test_complex_audit_reuses_the_elements_a_system_holds(monkeypatch, fresh_class_data):
    """A system keeps the Vandermonde V of its class elements, which is all
    that a cell operator reads of its target.  While kuhn_cube(1)'s system
    lives, the audits on kuhn_cube(1) and (2) build the h1_vec3 elements
    only, which no live space holds: 6 per audit, none of the 18 the system
    holds.  Their rows are those of the same audits with no system alive,
    and the devgrad class stack from the kept V is the one from fresh
    functionals, bit for bit."""
    meshes = [mesh.load(spec) for spec in ("kuhn_cube(1)", "kuhn_cube(2)")]
    alone = [json.dumps(complex_audit(m, 3)) for m in meshes]
    sys = EBSystem(meshes[0], 3)
    calls = []
    build = complex_asm.build_element
    monkeypatch.setattr(complex_asm, "build_element",
                        lambda *args: calls.append(args[0]) or build(*args))
    for m, want in zip(meshes, alone):
        calls.clear()
        assert json.dumps(complex_audit(m, 3)) == want
        assert calls == ["h1_vec3"] * 6
    kept = cell_operators("devgrad", GlobalSpace(meshes[0], "h1_vec3", 3), sys.space_B)
    fresh_class_data.clear()
    cache = EntityCache(meshes[0].unit, 3)
    fresh = cell_operators("devgrad", GlobalSpace(meshes[0], "h1_vec3", 3, cache),
                           GlobalSpace(meshes[0], "hsymcurl_T", 3, cache))
    assert np.array_equal(kept, fresh)


def _d1_drop(spec: str) -> np.ndarray:
    """The entries of devgrad on spec that condensed_rank drops (the rows
    outside the subtree of their column's node), over max|d1|."""
    (V, L, _, _), (d1, _, _) = build_complex(mesh.load(spec), 3)
    tree = CellTree(V.mesh)
    d = d1.tocsr()
    d.sum_duplicates()
    rows = np.repeat(tree.dof_nodes(L.cell_maps), np.diff(d.indptr))
    kept = tree.within(rows, tree.dof_nodes(V.cell_maps)[d.indices])
    return d.data[~kept] / np.abs(d.data).max()


def test_refinement_does_not_degrade_the_basis(fresh_class_data):
    """With dimensionless DOFs every class Vandermonde of kuhn_cube(2), built
    on its own unit mesh, has kuhn_cube(1)'s condition number (with physical
    DOFs h1_vec3's grew from 2.2e5 to 6.9e6), and the devgrad entries that
    condensed_rank drops stay at kuhn_cube(1)'s size: the largest, and their
    root mean square, at most twice kuhn_cube(1)'s.  Their Frobenius norm,
    the check's measure, grows with their count (2.6e-12 to 6.8e-12 for 5.6
    times as many) and stays far below the 1e-9 bound."""
    conds = {}
    for spec in ("kuhn_cube(1)", "kuhn_cube(2)"):
        fresh_class_data.clear()
        spaces = [GlobalSpace(mesh.load(spec), family, 3) for family in FAMILIES]
        conds[spec] = [np.linalg.cond(e.V) for space in spaces for e in space.functionals]
    assert len(conds["kuhn_cube(1)"]) == 4 * 6
    assert conds["kuhn_cube(2)"] == conds["kuhn_cube(1)"]
    coarse, fine = _d1_drop("kuhn_cube(1)"), _d1_drop("kuhn_cube(2)")
    assert np.abs(fine).max() <= np.abs(coarse).max()
    assert np.sqrt(np.mean(fine ** 2)) <= 2.0 * np.sqrt(np.mean(coarse ** 2))
    assert np.sqrt(np.sum(fine ** 2)) <= 1e-10


def scaled(f: PolyField, h: float) -> PolyField:
    """The field x -> f(h x): the same coefficients on the simplex divided by h."""
    simplex = Simplex(f.basis.simplex.vertices / h)
    return PolyField(simplex.basis(f.degree), f.coeffs, f.vshape)


def translated(f: PolyField, t) -> PolyField:
    """The field x -> f(x + t): the same coefficients on the simplex moved
    by -t, since Bernstein coefficients are barycentric."""
    simplex = Simplex(f.basis.simplex.vertices - np.asarray(t, dtype=float))
    return PolyField(simplex.basis(f.degree), f.coeffs, f.vshape)


def _interpolate_per_cell(space, field: PolyField) -> np.ndarray:
    """Oracle of GlobalSpace.interpolate, one cell at a time: each cell's
    class element's DOFs of the field in units of h, translated by the
    cell's offset on the unit mesh from the element's cell, each DOF taken
    from its owner cell."""
    unit, field, elements = space.mesh.unit, scaled(field, space.h), space.functionals
    corner = unit.vertices[unit.cells[:, 0]]
    offsets = corner - np.array([elem.simplex.vertices[0] for elem in elements])[space.cell_class]
    per_cell = np.stack([elements[r].dof_values(translated(field, t) if t.any() else field)
                         for r, t in zip(space.cell_class, offsets)])
    return per_cell[space.owner, space.owner_local]


def _random_shape_fields(rng):
    """A random field of each family's shape range, at the family's degree."""
    cell = poly.reference_cell("tet")
    for family, deg, rng_name in (("h1_vec3", 5, "V3"), ("hsymcurl_T", 4, "T"),
                                  ("hdivdiv_S", 3, "S"), ("dg_scalar", 1, "scalar")):
        basis, gens = cell.basis(deg), poly.RANGE_GENERATORS[rng_name]
        yield family, PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)),
                                            gens)


@pytest.mark.parametrize("spec", ["kuhn_cube(2)", "kuhn_cube(3)"])
def test_batched_interpolation_matches_the_per_cell_path(spec, rng):
    """interpolate evaluates all translates of a class at once; the per-cell
    path translates the field and evaluates one cell at a time.  kuhn_cube(2)
    has 8 cells a class, kuhn_cube(3) 27."""
    m = mesh.load(spec)
    cache = EntityCache(m.unit, 3)
    for family, fld in _random_shape_fields(rng):
        space = GlobalSpace(m, family, 3, cache)
        got, want = space.interpolate(fld), _interpolate_per_cell(space, fld)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), family


def test_interpolation_with_elements_built_on_another_mesh(rng, fresh_class_data):
    """kuhn_cube(2) moved by (3, -2, 1) has kuhn_cube(1)'s unit class keys, so
    its spaces take kuhn_cube(1)'s elements, built at the origin; each cell
    is translated from the element's own cell, and the interpolant equals,
    to rounding, the one of spaces built on the moved mesh alone and the
    per-cell oracle."""
    m = mesh.kuhn_cube(2)
    moved = mesh.TetMesh(m.vertices + [3.0, -2.0, 1.0], m.cells)
    fields = dict(_random_shape_fields(rng))
    held = [GlobalSpace(mesh.kuhn_cube(1), family, 3) for family in FAMILIES]
    shared = [GlobalSpace(moved, family, 3) for family in FAMILIES]
    assert all(a is b for base, space in zip(held, shared)
               for a, b in zip(base.functionals, space.functionals))
    fresh_class_data.clear()
    for space in shared:
        fld = fields[space.family]
        got, alone = space.interpolate(fld), GlobalSpace(moved, space.family, 3).interpolate(fld)
        for want in (alone, _interpolate_per_cell(space, fld)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), space.family


@pytest.mark.parametrize("spec", ["kuhn_cube(1)", "kuhn_cube(2)"])
def test_batched_field_interpolates_like_its_members(spec, complexes):
    """The four RT fields as one batched PolyField interpolate to the four
    single interpolations, stacked."""
    (V, _, _, _), _ = complexes(spec)
    rt = poly.rt_space("tet")
    got = V.interpolate(rt.fields())
    want = np.stack([V.interpolate(rt.member(i)) for i in range(4)])
    assert got.shape == want.shape == (4, V.dim)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_cell_masses_from_the_kronecker_factor(spec):
    """The masses W^T W from the factors of Gram and G G^T equal
    Vinv^T kron(Gram, G G^T) Vinv to 1e-13 relative, and are symmetric."""
    m = mesh.load(spec)
    cache = EntityCache(m, 3)
    for family in ("dg_scalar", "hdivdiv_S", "hsymcurl_T"):
        space = GlobalSpace(m, family, 3, cache)
        for elem, M in zip(space.elements, space.cell_masses()):
            gens = np.asarray(elem.comp_gens, dtype=float).reshape(len(elem.comp_gens), -1)
            want = elem.Vinv.T @ np.kron(elem.basis.gram(), gens @ gens.T) @ elem.Vinv
            assert np.abs(M - want).max() <= 1e-13 * np.abs(want).max(), family
            assert np.array_equal(M, M.T)


def test_interpolate_rejects_disagreeing_shared_dofs(rng, complexes):
    """Two cells of different classes swap their rows of cell_maps: each
    then lists DOFs the other owns, their values disagree, and the shared-DOF
    check raises."""
    (_, _, S, _), _ = complexes("kuhn_cube(2)")
    fld = dict(_random_shape_fields(rng))["hdivdiv_S"]
    S.interpolate(fld)
    bad = copy.copy(S)
    a, b = 0, int(np.flatnonzero(S.cell_class != S.cell_class[0])[0])
    bad.cell_maps = S.cell_maps.copy()
    bad.cell_maps[[a, b]] = S.cell_maps[[b, a]]
    with pytest.raises(ValueError, match="shared DOFs disagree"):
        bad.interpolate(fld)


def _check_classes_against_cells_alone(m: mesh.TetMesh, spaces, rng):
    """For every cell of each space, the element built on that cell of the
    unit mesh alone (its own entity data, tests and points) has its class
    element's V to rounding, and its DOFs of a random field in units of h
    equal the interpolated ones, its class element's DOFs of the translated
    field, to 1e-12."""
    cell = poly.reference_cell("tet")
    degree = {"h1_vec3": (5, "V3"), "hsymcurl_T": (4, "T"), "hdivdiv_S": (3, "S"),
              "dg_scalar": (1, "scalar")}
    for space in spaces:
        deg, rng_name = degree[space.family]
        basis, gens = cell.basis(deg), poly.RANGE_GENERATORS[rng_name]
        fld = PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)), gens)
        per_cell = space.interpolate(fld)[space.cell_maps]
        for ci, r in enumerate(space.cell_class):
            alone = build_element(space.family, 3, m.unit, ci, EntityCache(m.unit, 3))
            V = space.functionals[r].V
            assert np.abs(V - alone.V).max() <= 1e-12 * np.abs(alone.V).max(), \
                (space.family, ci)
            want = alone.dof_values(scaled(fld, m.h))
            assert np.abs(per_cell[ci] - want).max() <= 1e-12 * np.abs(want).max(), \
                (space.family, ci)


def test_shared_vandermonde_matches_the_cell_alone(rng, complexes):
    """kuhn_cube(2), 8 translates a class: every cell's class V and its
    interpolation by translation match the element built on the cell alone."""
    spaces, _ = complexes("kuhn_cube(2)")
    assert all(len(space.elements) == 6 for space in spaces)
    _check_classes_against_cells_alone(mesh.load("kuhn_cube(2)"), spaces, rng)


def test_interpolation_by_translation_on_classes_of_unequal_size(rng):
    """The same on kuhn_cube(2) with its centre vertex moved, which mixes 24
    classes of one cell (no translation) and 6 of four."""
    m = mesh.kuhn_cube(2)
    v = m.vertices.copy()
    v[np.argmin(np.linalg.norm(v - 0.5, axis=1))] += [0.01, -0.02, 0.015]
    m = mesh.TetMesh(v, m.cells)
    spaces = [GlobalSpace(m, family, 3) for family in FAMILIES]
    assert all(len(space.elements) == 30 for space in spaces)
    _check_classes_against_cells_alone(m, spaces, rng)


@pytest.mark.parametrize("family", FAMILIES)
def test_translated_single_tet_has_the_same_vandermonde(family):
    """The position enters every DOF relative to an entity vertex, so a
    translate of the cell has the same V (the tests at absolute positions
    moved the H(divdiv) and H(symcurl) ones by 0.4 %)."""
    ref = poly.reference_cell("tet")
    V0 = element_3d(family, 3, ref).V
    V1 = element_3d(family, 3, Simplex(ref.vertices + [0.3, -1.7, 2.5])).V
    assert np.abs(V1 - V0).max() <= 1e-12 * np.abs(V0).max()


def test_conformity_jump_across_faces_between_classes(rng, complexes):
    """On a face shared by cells of two classes, neither of which is its
    class's representative (the cell its element was built on), matching DOFs
    force continuity of n x tau + (n x tau)^T."""
    m = mesh.load("kuhn_cube(2)")
    (_, L, _, _), _ = complexes("kuhn_cube(2)")
    reps = set(L.class_reps)
    fid, (c0, c1) = next(
        (f, cs) for f, cs in enumerate(m.face_cells)
        if len(cs) == 2 and L.cell_class[cs[0]] != L.cell_class[cs[1]]
        and not reps & set(cs))
    g = rng.standard_normal(L.dim)
    tau0, tau1 = _cell_field(L, g, c0), _cell_field(L, g, c1)
    lam = rng.random((20, 3))
    lam = 0.1 + 0.8 * lam / lam.sum(axis=1, keepdims=True)
    lam /= lam.sum(axis=1, keepdims=True)
    pts = lam @ m.vertices[m.faces[fid]]
    n = m.face_frames[fid].n

    def trace(tau):
        nx = np.einsum("pij,jk->pik", tau.eval(pts), tc.mspn(n).T)  # n x tau row-wise
        return nx + np.swapaxes(nx, -1, -2)

    scale = max(np.abs(tau0.eval(pts)).max(), 1.0)
    assert np.abs(trace(tau0) - trace(tau1)).max() <= 1e-9 * scale


def test_interpolation_on_shared_elements_kuhn_cube_2(rng, complexes):
    """Random fields of each shape space interpolate on kuhn_cube(2) (the
    shared-DOF check inside interpolate passes) and are reproduced on cells
    of every class."""
    (V, L, S, Q), _ = complexes("kuhn_cube(2)")
    cell = poly.reference_cell("tet")
    for space, deg, rng_name in ((V, 5, "V3"), (L, 4, "T"), (S, 3, "S"), (Q, 1, "scalar")):
        basis, gens = cell.basis(deg), poly.RANGE_GENERATORS[rng_name]
        fld = PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)), gens)
        coeffs = space.interpolate(fld)
        for c in range(len(space.class_reps)):
            ci = np.flatnonzero(space.cell_class == c)[-1]
            pts = rng.random((4, 4))
            pts = ((pts / pts.sum(axis=1, keepdims=True))
                   @ space.mesh.cell_simplices[ci].vertices)
            scale = max(np.abs(fld.eval(pts)).max(), 1.0)
            assert np.abs(_eval_cells(space, coeffs, ci, pts) - fld.eval(pts)).max() \
                <= 1e-10 * scale, (space.family, ci)


def test_translated_field_is_the_field_shifted(rng):
    """translated(f, t) is x -> f(x + t), derivatives included."""
    cell = poly.reference_cell("tet")
    basis, gens = cell.basis(4), poly.RANGE_GENERATORS["T"]
    f = PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)), gens)
    t = np.array([0.5, -1.25, 2.0])
    pts = rng.random((10, 3))
    ft = translated(f, t)
    for got, want in ((ft, f), (ft.grad(), f.grad()), (ft.hess(), f.hess())):
        want = want.eval(pts + t)
        assert np.abs(got.eval(pts) - want).max() <= 1e-12 * np.abs(want).max()


def test_scaled_field_is_the_field_at_scaled_points(rng):
    """scaled(f, h) is x -> f(h x): its derivatives of order j are h^j f's."""
    cell = poly.reference_cell("tet")
    basis, gens = cell.basis(4), poly.RANGE_GENERATORS["T"]
    f = PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)), gens)
    h = 1.0 / 3.0
    pts = rng.random((10, 3))
    fs = scaled(f, h)
    for j, (got, want) in enumerate(((fs, f), (fs.grad(), f.grad()), (fs.hess(), f.hess()))):
        want = h ** j * want.eval(h * pts)
        assert np.abs(got.eval(pts) - want).max() <= 1e-12 * np.abs(want).max()

