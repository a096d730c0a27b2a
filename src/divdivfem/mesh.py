"""Tetrahedral meshes: derived edge/face topology, frames, reference maps.

Entity keys are sorted global-vertex-id tuples and entity numbering is
lexicographic in those keys, so runs are reproducible and every frame is a
function of global data only (shared-entity DOFs then match across cells by
construction).

ASCII format: header "tetmesh <#V> <#T>", then #V lines "x y z", then #T
lines "v0 v1 v2 v3" (0-based); only blank lines may follow.
"""

from __future__ import annotations

import copy
import itertools
import re

import numpy as np

from .fields import Simplex
from .tensor_calc import edge_frames, face_frames

LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


class MeshError(ValueError):
    pass


class TetMesh:
    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be (nv, 3)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 4:
            raise MeshError("cells must be (nt, 4)")
        self._validate_cells()
        self._build_topology()
        self._build_frames()
        self.cell_simplices = [Simplex(self.vertices[c]) for c in self.cells]
        self._h = None
        self._unit = None

    # -- validation ---------------------------------------------------------
    def _validate_cells(self):
        nv = len(self.vertices)
        if self.cells.min(initial=0) < 0 or (len(self.cells) and self.cells.max() >= nv):
            raise MeshError("cell refers to a nonexistent vertex")
        v = self.vertices[self.cells]
        det = np.linalg.det(np.swapaxes(v[:, 1:] - v[:, :1], 1, 2))
        bad = np.flatnonzero(~(np.isfinite(det) & (det > 0.0)))
        if len(bad):
            raise MeshError(f"inverted or degenerate cells: {bad.tolist()}")
        used = np.zeros(nv, dtype=bool)
        used[self.cells.ravel()] = True
        if not used.all():
            raise MeshError(f"dangling vertices: {list(np.nonzero(~used)[0])}")

    def _build_topology(self):
        # entity keys: sorted vertex ids, numbered in lexicographic order
        keys = np.sort(self.cells[:, np.array(LOCAL_EDGES)], axis=2).reshape(-1, 2)
        self.edges, inv = np.unique(keys, axis=0, return_inverse=True)
        self.cell_edges = inv.reshape(-1, 6)
        keys = np.sort(self.cells[:, np.array(LOCAL_FACES)], axis=2).reshape(-1, 3)
        self.faces, inv = np.unique(keys, axis=0, return_inverse=True)
        self.cell_faces = inv.reshape(-1, 4)
        self.face_cells = [[] for _ in range(len(self.faces))]
        for ci, cf in enumerate(self.cell_faces):
            for fi in cf:
                self.face_cells[fi].append(ci)
        over = [fi for fi, cs in enumerate(self.face_cells) if len(cs) > 2]
        if over:
            raise MeshError(f"non-manifold faces (more than 2 incident cells): {over}")
        # the cells of an interior face lie on its two sides: the signed volumes
        # of their opposite vertices (cell id sum - face id sum) differ in sign
        inner = np.array([fi for fi, cs in enumerate(self.face_cells) if len(cs) == 2], dtype=int)
        pair = np.array([self.face_cells[fi] for fi in inner], dtype=int).reshape(-1, 2)
        opposite = self.cells[pair].sum(axis=2) - self.faces[inner].sum(axis=1)[:, None]
        f = self.vertices[self.faces[inner]]
        normal = np.cross(f[:, 1] - f[:, 0], f[:, 2] - f[:, 0])
        side = np.sign(np.einsum("nj,nkj->nk", normal, self.vertices[opposite] - f[:, :1]))
        folded = inner[side[:, 0] == side[:, 1]]
        if len(folded):
            raise MeshError(f"interior faces with both cells on one side: {folded.tolist()}")

    def _build_frames(self):
        # every frame of each kind in one batched pass; frames[i] is entity i's
        self.edge_frames = edge_frames(self.edges, self.vertices[self.edges])
        self.face_frames = face_frames(self.faces, self.vertices[self.faces])

    # -- queries --------------------------------------------------------------
    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def h(self) -> float:
        """The length unit of the dimensionless DOFs: the shortest edge (1 on
        the unit copy, by definition)."""
        if self._h is None:
            d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
            self._h = float(np.sqrt(np.einsum("ij,ij->i", d, d).min()))
        return self._h

    @property
    def unit(self) -> "TetMesh":
        """The mesh in units of h: its vertices divided by h, the same topology,
        frames and simplices of the scaled vertices.  Itself when h is 1.  On
        kuhn_cube(n) every vertex becomes an integer lattice point, so the
        cells of every n fall into kuhn_cube(1)'s 6 classes."""
        if self.h == 1.0:
            return self
        if self._unit is None:
            unit = copy.copy(self)
            unit.vertices = self.vertices / self.h
            unit._build_frames()
            unit.cell_simplices = [Simplex(unit.vertices[c]) for c in unit.cells]
            unit._h, unit._unit = 1.0, None
            self._unit = unit
        return self._unit

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces - self.num_cells

    def barycentric(self, cell: int, point) -> np.ndarray:
        return self.cell_simplices[cell].barycentric(point)[0]

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(f"tetmesh {self.num_vertices} {self.num_cells}\n")
            for v in self.vertices:
                fh.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
            for c in self.cells:
                fh.write(" ".join(str(int(x)) for x in c) + "\n")


# ---------------------------------------------------------------------------
# builtins and loading
# ---------------------------------------------------------------------------

def single_tet() -> TetMesh:
    return TetMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   [[0, 1, 2, 3]])


def two_tets() -> TetMesh:
    return TetMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                   [[0, 1, 2, 3], [1, 2, 3, 4]])


def kuhn_cube(n: int) -> TetMesh:
    """Kuhn/Freudenthal split of the unit cube into 6 n^3 tetrahedra.

    Lattice index i sits at i h, with h = 1/n rounded to
    53 - ceil(log2(n + 1)) significant bits: then every i h with i <= n and
    every difference of two of them is exact, so translated cells have
    bitwise equal vertex differences and fall into one translation class
    (6 classes for every n).  For n a power of two, h = 1/n exactly.
    """
    if n < 1:
        raise MeshError("kuhn_cube needs n >= 1")
    m = n + 1
    idx = lambda i, j, k: (i * m + j) * m + k
    frac, exp = np.frexp(1.0 / n)
    bits = 53 - n.bit_length()                # n.bit_length() = ceil(log2(n + 1))
    h = np.ldexp(np.round(np.ldexp(frac, bits)), exp - bits)
    verts = np.array([[i, j, k] for i in range(m) for j in range(m) for k in range(m)],
                     dtype=float) * h
    cells = []
    for cx, cy, cz in itertools.product(range(n), repeat=3):
        corner = np.array([cx, cy, cz])
        for perm in itertools.permutations(range(3)):
            path = [corner.copy()]
            for ax in perm:
                nxt = path[-1].copy()
                nxt[ax] += 1
                path.append(nxt)
            tet = [idx(*p) for p in path]
            v = verts[tet]
            if np.linalg.det((v[1:] - v[0]).T) < 0:
                tet[2], tet[3] = tet[3], tet[2]
            cells.append(tet)
    return TetMesh(verts, cells)


_BUILTIN_RE = re.compile(r"^kuhn_cube\((\d+)\)$")


def load(spec: str) -> TetMesh:
    """Load a builtin mesh by name or a mesh file by path."""
    if spec == "single_tet":
        return single_tet()
    if spec == "two_tets":
        return two_tets()
    m = _BUILTIN_RE.match(spec)
    if m:
        return kuhn_cube(int(m.group(1)))
    return load_file(spec)


def load_file(path) -> TetMesh:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "tetmesh":
            raise MeshError(f"{path}: expected header 'tetmesh <#V> <#T>'")
        nv, nt = int(header[1]), int(header[2])
        verts = [list(map(float, fh.readline().split())) for _ in range(nv)]
        cells = [list(map(int, fh.readline().split())) for _ in range(nt)]
        if any(line.strip() for line in fh):
            raise MeshError(f"{path}: lines beyond the {nv} vertices and {nt} cells "
                            "of the header")
    if any(len(v) != 3 for v in verts) or any(len(c) != 4 for c in cells):
        raise MeshError(f"{path}: malformed vertex or cell line")
    return TetMesh(verts, cells)
