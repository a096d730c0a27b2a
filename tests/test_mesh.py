import numpy as np
import pytest

from divdivfem import mesh
from divdivfem.fe3d import EntityCache

from frames import make_edge_frame, make_face_frame


@pytest.mark.parametrize("name,counts", [
    ("single_tet", (4, 6, 4, 1)),
    ("two_tets", (5, 9, 7, 2)),
    ("kuhn_cube(1)", (8, 19, 18, 6)),
])
def test_builtin_counts(name, counts):
    m = mesh.load(name)
    assert (m.num_vertices, m.num_edges, m.num_faces, m.num_cells) == counts
    assert m.euler_characteristic == 1


def test_kuhn_refinement_preserves_euler():
    for n in (1, 2):
        assert mesh.kuhn_cube(n).euler_characteristic == 1
    assert mesh.kuhn_cube(2).num_cells == 48


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kuhn_cube_has_six_translation_classes(n):
    """Every lattice point i h and every difference of two is exact, so
    translated cells have bitwise equal vertex differences and share a class
    (kuhn_cube(3) had 48 classes with vertices at i/3)."""
    assert len(EntityCache(mesh.kuhn_cube(n), 3).class_reps) == 6


@pytest.mark.parametrize("n", [1, 2, 4])
def test_kuhn_cube_vertices_are_lattice_points_over_n(n):
    """For n a power of two the lattice step is 1/n exactly."""
    lattice = np.array([[i, j, k] for i in range(n + 1) for j in range(n + 1)
                        for k in range(n + 1)], dtype=float)
    assert np.array_equal(mesh.kuhn_cube(n).vertices, lattice / n)


def barycentric(m: mesh.TetMesh, cell: int, point) -> np.ndarray:
    """The barycentric coordinates of point in the given cell of m."""
    return m.cell_simplices[cell].barycentric(point)[0]


def test_barycentric_examples():
    m = mesh.single_tet()
    c = m.cell_simplices[0].vertices.mean(axis=0)
    assert np.allclose(barycentric(m, 0, c), 0.25)
    assert np.allclose(barycentric(m, 0, m.vertices[2]), [0, 0, 1, 0])


def test_barycentric_affine_reconstruction(rng):
    m = mesh.two_tets()
    for ci in range(2):
        lam = rng.random((10, 4))
        lam /= lam.sum(axis=1, keepdims=True)
        pts = lam @ m.cell_simplices[ci].vertices
        back = np.vstack([barycentric(m, ci, p) for p in pts])
        rec = back @ m.cell_simplices[ci].vertices
        assert np.abs(rec - pts).max() <= 1e-13


def test_flipped_cell_rejected():
    with pytest.raises(mesh.MeshError, match="inverted"):
        mesh.TetMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 2, 1, 3]])


def test_dangling_vertex_rejected():
    with pytest.raises(mesh.MeshError, match="dangling"):
        mesh.TetMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 5]],
                     [[0, 1, 2, 3]])


def test_nonmanifold_face_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]]
    cells = [[0, 1, 2, 3], [0, 2, 1, 4], [0, 1, 2, 5]]
    with pytest.raises(mesh.MeshError, match="non-manifold"):
        mesh.TetMesh(verts, cells)


@pytest.mark.parametrize("cells, fourth", [
    ([[0, 1, 2, 3], [0, 1, 2, 3]], []),                  # a cell listed twice
    ([[0, 1, 2, 3], [0, 1, 2, 4]], [[0.2, 0.2, 0.2]]),   # folded over face 0 1 2
], ids=["repeated", "folded"])
def test_cells_on_one_side_of_a_face_rejected(cells, fourth):
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]] + fourth
    with pytest.raises(mesh.MeshError, match="both cells on one side"):
        mesh.TetMesh(verts, cells)


def test_valid_meshes_pass_the_face_side_check():
    """Every interior face of these meshes separates its two cells,
    including the kuhn_cube(2) with its centre vertex moved."""
    for spec in ("two_tets", "kuhn_cube(1)", "kuhn_cube(2)", "kuhn_cube(3)"):
        assert mesh.load(spec).num_cells > 0
    m = mesh.kuhn_cube(2)
    v = m.vertices.copy()
    v[np.argmin(np.linalg.norm(v - 0.5, axis=1))] += [0.01, -0.02, 0.015]
    assert mesh.TetMesh(v, m.cells).num_cells == 48


def test_file_round_trip(tmp_path):
    m = mesh.kuhn_cube(1)
    path = tmp_path / "cube.mesh"
    m.save(path)
    text = path.read_text().splitlines()
    assert text[0] == "tetmesh 8 6"
    m2 = mesh.load(str(path))
    assert np.array_equal(m2.cells, m.cells)
    assert np.array_equal(m2.vertices, m.vertices)


def test_bad_header_rejected(tmp_path):
    p = tmp_path / "bad.mesh"
    p.write_text("trimesh 3 1\n")
    with pytest.raises(mesh.MeshError, match="header"):
        mesh.load(str(p))


_SINGLE_TET_FILE = "tetmesh 4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3\n"


def test_surplus_lines_rejected(tmp_path):
    """Lines past the header's counts are an error, not silently dropped."""
    p = tmp_path / "surplus.mesh"
    p.write_text(_SINGLE_TET_FILE + "0 1 3 2\n9 9 9 9\n")
    with pytest.raises(mesh.MeshError, match="beyond"):
        mesh.load(str(p))
    p.write_text(_SINGLE_TET_FILE + "\n  \n")
    assert mesh.load(str(p)).num_cells == 1


def test_shared_entity_frames_identical_across_cells():
    m = mesh.two_tets()
    # every edge/face frame is a function of global data: rebuilding from the
    # incident cells' vantage points must give bitwise-equal frames
    for eid, e in enumerate(m.edges):
        fr = m.edge_frames[eid]
        again = make_edge_frame(e, m.vertices[e])
        assert np.array_equal(fr.t, again.t)
        assert np.array_equal(fr.n1, again.n1)
    for fid, f in enumerate(m.faces):
        fr = m.face_frames[fid]
        for sh in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            again = make_face_frame(f[sh], m.vertices[f][sh])
            assert np.array_equal(fr.n, again.n)
            assert np.array_equal(fr.t1, again.t1)
