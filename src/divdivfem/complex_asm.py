"""Global spaces, sparse discrete differentials, and the global exactness audit.

Shared DOFs get one global slot; because every functional is built from global
entity data, the same slot evaluates identically from all incident cells, so
signs are +1 everywhere and assembly is a plain scatter.  Discrete operators
are built by interpolating the differential of each source basis function into
the target space (legitimate since the differentials land in the target space
cellwise and conformingly).

Every DOF is dimensionless: spaces are built on the mesh in units of its
shortest edge h (TetMesh.unit), so a vertex derivative of order j reads
h^j times the physical one and a moment the physical one over h^dim.  The
class elements of every kuhn_cube(n) are then kuhn_cube(1)'s, and are built
once per process; masses and operators come back physical, as h powers
times the unit ones.
"""

from __future__ import annotations

import dataclasses
import heapq
import weakref

import numpy as np
import scipy.sparse as sp

from . import poly
from .dofcommon import Element
from .fe3d import EntityCache, build_element
from .fields import PolyField, Simplex
from .linalg import frobenius, front_rank, one_blas_thread, product_max, qr_rank, svd_rank
from .mesh import TetMesh
from .report import check

_KINDS = ("v", "e", "f", "c")

# The class data of every space in the process: the elements with and
# without their DOF groups, keyed by (what, family, k, exact unit class
# key), and the stacks of unit masses and unit cell operators, keyed by
# (what, family, k, every class key).  The values are weak references: an
# entry lives while a space holds it (GlobalSpace.class_data, class_stack).
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared(key, make):
    """The process's object of key, made by make() unless a live space holds it."""
    obj = _SHARED.get(key)
    if obj is None:
        obj = _SHARED[key] = make()
    return obj


@one_blas_thread()
def _unit_mass(elem: Element) -> np.ndarray:
    """The mass matrix of elem in its DOF order.  The generator Gram matrix
    is kron(Gram, G G^T) (basis a, component c at a * C + c).  With
    Gram = L L^T and G G^T = H H^T, the mass is W^T W for
    W = (L kron H)^T Vinv, taken by two small contractions."""
    gens = np.asarray(elem.comp_gens, dtype=float).reshape(len(elem.comp_gens), -1)
    L = np.linalg.cholesky(elem.basis.gram())
    H = np.linalg.cholesky(gens @ gens.T)
    Vinv = elem.Vinv.reshape(elem.basis.N, len(gens), -1)          # (N, C, ndof)
    W = H.T @ (L.T @ Vinv.reshape(elem.basis.N, -1)).reshape(Vinv.shape)
    W = W.reshape(-1, W.shape[2])
    return W.T @ W


def assemble_cells(rmaps: np.ndarray, cmaps: np.ndarray, blocks: np.ndarray,
                   shape) -> sp.csr_matrix:
    """Sum over cells c of P_r^T X_c P_s: the dense cell blocks X_c, stacked
    as blocks (ncells, r, s), scattered to the global rows rmaps (ncells, r)
    and columns cmaps (ncells, s); entries that meet in one slot are added.
    """
    # 32-bit indices halve the memory of the scatter (the B mass of
    # kuhn_cube(2) has 3.8 M entries before duplicates are summed)
    rows = np.broadcast_to(rmaps[:, :, None], blocks.shape).astype(np.int32)
    cols = np.broadcast_to(cmaps[:, None, :], blocks.shape).astype(np.int32)
    return sp.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=shape)


class GlobalSpace:
    """A global space on the unit geometry mesh.unit: one finalized element
    per translation class, in class order (cell c's is class cell_class[c]),
    and the global numbers of every cell's DOFs.  Every DOF is
    translation-covariant, so a cell is its class's element moved by one
    vector; and dimensionless, so a class's element is the same on every
    mesh whose unit cells have its exact key, and one element of each key
    serves every space of the process.  mesh is the physical mesh, h its
    length unit; cache is an EntityCache of mesh.unit."""

    def __init__(self, mesh: TetMesh, family: str, k: int,
                 cache: EntityCache | None = None):
        self.mesh = mesh
        self.family = family
        self.k = k
        self.h = mesh.h
        self.cache = cache if cache is not None else EntityCache(mesh.unit, k)
        if self.cache.mesh is not mesh.unit:
            raise ValueError("a space's EntityCache is built on mesh.unit")
        self.cell_class, self.class_reps = self.cache.cell_class, self.cache.class_reps
        self.class_keys = self.cache.class_keys
        self._held: dict[str, list | np.ndarray] = {}
        tags = self.elements[0].tags
        if any(elem.tags != tags for elem in self.elements[1:]):
            raise ValueError(f"{family}: translation classes order their DOFs differently")
        # DOFs per vertex, edge, face and cell: those tagged on a cell's first one
        counts = {kind: sum(tag[:2] == (kind, 0) for tag in tags) for kind in _KINDS}
        nums = (mesh.num_vertices, mesh.num_edges, mesh.num_faces, mesh.num_cells)
        sizes = [counts[kind] * n for kind, n in zip(_KINDS, nums)]
        offsets = dict(zip(_KINDS, np.cumsum([0] + sizes)))
        self.ndof = sum(sizes)
        # global numbers of each cell's local DOFs, (ncells, ndof per cell):
        # local DOF (kind, idx, j) is slot j of the cell's idx-th entity of kind
        ents = np.hstack([mesh.cells, mesh.cell_edges, mesh.cell_faces,
                          np.arange(mesh.num_cells)[:, None]])
        column = {"v": 0, "e": 4, "f": 10, "c": 14}                # of ents
        col, stride, slot = np.array([(column[kind] + idx, counts[kind], offsets[kind] + j)
                                      for kind, idx, j in tags]).T
        self.cell_maps = slot + ents[:, col] * stride
        # the first cell that lists a DOF owns it, at its place in that cell
        dofs, first = np.unique(self.cell_maps.ravel(), return_index=True)
        if len(dofs) != self.ndof:
            raise ValueError(f"{self.ndof - len(dofs)} DOFs are listed by no cell")
        self.owner, self.owner_local = np.divmod(first, self.cell_maps.shape[1])

    @property
    def dim(self) -> int:
        return self.ndof

    # -- class data, shared across the process -----------------------------------
    def class_data(self, what: str, make) -> list:
        """Per class r, the process's object (what, family, k, class key r),
        made by make(r) unless a live space holds it; from then on this
        space holds the list too."""
        if what not in self._held:
            self._held[what] = [_shared((what, self.family, self.k, key), lambda r=r: make(r))
                                for r, key in enumerate(self.class_keys)]
        return self._held[what]

    def class_stack(self, what: str, make) -> np.ndarray:
        """make(r) of every class r, stacked and read-only: the process's
        object (what, family, k, every class key), made unless a live space
        holds it; from then on this space holds it too.  One array, so that
        a mesh with h = 1 takes it as its physical stack without a copy."""
        def stacked():
            out = np.stack([make(r) for r in range(len(self.class_keys))])
            out.flags.writeable = False
            return out

        if what not in self._held:
            self._held[what] = _shared((what, self.family, self.k, tuple(self.class_keys)),
                                       stacked)
        return self._held[what]

    @property
    def functionals(self) -> list[Element]:
        """Per class, the element with its DOF functionals (its groups, which
        interpolate reads), built on the class's cell of mesh.unit."""
        if self.cache is None:
            raise ValueError(f"{self.family}: this space's DOF functionals were dropped "
                             "once its cell operators were built (drop_functionals); "
                             "interpolate on a GlobalSpace built for it")
        return self.class_data("functionals", lambda r: build_element(
            self.family, self.k, self.cache.mesh, int(self.class_reps[r]), self.cache))

    @property
    def elements(self) -> list[Element]:
        """Per class, the element without its DOF groups: the basis,
        generators, V, Vinv and tags that masses, cell operators, loads and
        evaluations read.  V is the size of Vinv."""
        return self.class_data("elements", lambda r: dataclasses.replace(
            self.functionals[r], groups=None))

    # -- linear algebra --------------------------------------------------------
    def cell_masses(self) -> np.ndarray:
        """Mass matrix of each translation class in its cells' local DOF order:
        (nclasses, ndof, ndof); cell c's is the entry cell_class[c].  h^3
        times the unit masses (read-only: the shared stack itself when h = 1)."""
        unit = self.class_stack("mass", lambda r: _unit_mass(self.elements[r]))
        return unit if self.h == 1.0 else self.h ** 3 * unit

    def mass(self, cell_masses: np.ndarray) -> sp.csr_matrix:
        """The global mass matrix, from the class stack of cell_masses()."""
        return assemble_cells(self.cell_maps, self.cell_maps, cell_masses[self.cell_class],
                              (self.ndof, self.ndof))

    def drop_functionals(self):
        """Release what only builds the elements and interpolates: this
        space's hold on the elements with their DOF groups (the test arrays
        they hold), and the entity cache.  Shared elements stay whole for the
        other spaces that hold them.  The space keeps elements, V included,
        the masses and operators it made, and the maps, all that masses, cell
        operators, loads and evaluations read; interpolate then raises."""
        self._held.pop("functionals", None)
        self.cache = None

    def interpolate(self, field: PolyField) -> np.ndarray:
        """Canonical interpolation: each DOF evaluated on every cell that holds
        it, its owner cell's value taken, and the others checked against it.
        The DOFs read the field in units of h, x -> field(h x) on mesh.unit.
        A cell's DOFs are its class element's on that field translated by the
        cell's offset t from the element's cell, x -> field(h (x + t)); each
        class evaluates all its cells' translates at once.  A batched field
        (*batch) gives (*batch, ndof), each field checked on its own scale."""
        if not isinstance(field, PolyField):
            raise TypeError("interpolation needs a PolyField: the vertex DOFs "
                            "take exact point derivatives")
        elements = self.functionals
        if self.h != 1.0:           # the same Bernstein coefficients on the simplex / h
            simplex = Simplex(field.basis.simplex.vertices / self.h)
            field = PolyField(simplex.basis(field.degree), field.coeffs, field.vshape)
        unit = self.cache.mesh
        corner = unit.vertices[unit.cells[:, 0]]
        per_cell = np.empty((*field.batch, *self.cell_maps.shape))
        for r, elem in enumerate(elements):
            cells = np.flatnonzero(self.cell_class == r)
            offsets = corner[cells] - elem.simplex.vertices[0]
            per_cell[..., cells, :] = elem.dof_values(field, offsets)
        out = per_cell[..., self.owner, self.owner_local]
        worst = np.abs(per_cell - out[..., self.cell_maps]).max(axis=(-2, -1), initial=0.0)
        scale = np.maximum(np.abs(out).max(axis=-1, initial=0.0), 1.0)
        if np.any(worst > 1e-8 * scale):
            raise ValueError(f"shared DOFs disagree across cells: {float(worst.max()):.3e}")
        return out


# operator -> (source family, target family, source range, derivative
# order); the operator itself is poly.diff's
_OP_TABLE = {
    "devgrad": ("h1_vec3", "hsymcurl_T", "V3", 1),
    "symcurl": ("hsymcurl_T", "hdivdiv_S", "T", 1),
    "divdiv": ("hdivdiv_S", "dg_scalar", "S", 2),
}


@one_blas_thread()
def _unit_operator(op: str, rng_src: str, es: Element, ed: Element) -> np.ndarray:
    """The matrix of op from the DOFs of es to those of ed, one class's."""
    gmat = poly.diff(op, poly.space(es.simplex, es.basis.degree, rng_src)).mat
    return ed.V @ gmat.T @ es.Vinv                          # (ndof_dst, ndof_src)


def cell_operators(op: str, src: GlobalSpace, dst: GlobalSpace) -> np.ndarray:
    """The matrix of op from the src to the dst DOFs of each translation
    class, stacked (nclasses, ndof_dst, ndof_src); cell c's is the entry
    cell_class[c].  h^-order times the unit ones, which dst holds (read-only:
    the shared stack itself when h = 1)."""
    if op not in _OP_TABLE:
        raise ValueError(f"unknown operator {op!r}")
    fam_src, fam_dst, rng_src, order = _OP_TABLE[op]
    if src.family != fam_src or dst.family != fam_dst:
        raise ValueError(f"{op} maps {fam_src} -> {fam_dst}, "
                         f"got {src.family} -> {dst.family}")
    if src.class_keys != dst.class_keys:
        raise ValueError(f"{op}: the spaces' translation classes differ")
    unit = dst.class_stack(op, lambda r: _unit_operator(
        op, rng_src, src.elements[r], dst.elements[r]))
    return unit if dst.h == 1.0 else dst.h ** -order * unit


def assemble_diff(ops: np.ndarray, src: GlobalSpace, dst: GlobalSpace) -> sp.csr_matrix:
    """Sparse operator mapping src coefficients to dst coefficients, from the
    cell operators ops of cell_operators: the row of each dst DOF is the one
    of its owner cell (conformity makes every cell that lists it agree).
    The CSR arrays are built in place: every row holds its owner cell's
    source DOFs, in ascending order."""
    perm = np.argsort(src.cell_maps, axis=1)                # each cell's columns, sorted
    cols = np.take_along_axis(src.cell_maps, perm, axis=1).astype(np.int32)[dst.owner]
    vals = ops[src.cell_class[dst.owner][:, None], dst.owner_local[:, None], perm[dst.owner]]
    indptr = np.arange(0, cols.size + 1, cols.shape[1], dtype=np.int32)
    return sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(dst.ndof, src.ndof))


def sparse_rank(A: sp.spmatrix, rtol: float = 1e-9) -> int:
    """Rank by dense column-pivoted QR; SVD cross-check on small matrices.
    The dense reference that condensed_rank is tested against."""
    r = qr_rank(A, rtol)
    if max(A.shape) <= 1200:
        r2 = svd_rank(A.toarray() if sp.issparse(A) else A, rtol=1e-10)
        if r2 != r:
            raise ValueError(f"rank oracle disagreement: QR {r} vs SVD {r2}")
    return r


def _cut(verts: np.ndarray) -> int:
    """Where to split cells given in order by their vertices verts (n, 4):
    the h in n/4 <= h <= 3n/4 whose halves cells[:h] and cells[h:] share
    the fewest vertices, the one nearest the median n // 2 among equals."""
    n = len(verts)
    _, vertex = np.unique(verts.ravel(), return_inverse=True)
    cell = np.repeat(np.arange(n), verts.shape[1])
    first = np.full(vertex.max() + 1, n)
    last = np.zeros_like(first)
    np.minimum.at(first, vertex, cell)
    np.maximum.at(last, vertex, cell)
    # a vertex is shared by the halves at h when first < h <= last
    shared = np.cumsum(np.bincount(first + 1, minlength=n + 1)
                       - np.bincount(last + 1, minlength=n + 1))
    quarter = -(-n // 4)
    h = np.arange(quarter, n - quarter + 1)
    return int(h[np.lexsort((np.abs(h - n // 2), shared[h]))[0]])


class CellTree:
    """Bisection tree of a mesh's cells.  A node orders its cells by their
    centroids along their longest extent and splits them where the two
    halves share the fewest vertices, each half keeping at least a quarter
    of the cells (_cut), down to single cells: on a lattice the cut falls
    between layers of cells, not through one (George, SIAM J. Numer. Anal.
    1973).  The leaves are laid out in `order`, so node n holds the leaves
    lo[n]:hi[n]; nodes are numbered children first, the root last."""

    def __init__(self, mesh: TetMesh):
        cent = mesh.vertices[mesh.cells].mean(axis=1)
        order, lo, hi, depth, self.kids = [], [], [], [], []

        def split(cells, level):
            start = len(order)
            if len(cells) == 1:
                order.append(cells[0])
                kids = ()
            else:
                pts = cent[cells]
                axis = int(np.argmax(np.ptp(pts, axis=0)))
                cells = cells[np.argsort(pts[:, axis], kind="stable")]
                cut = _cut(mesh.cells[cells])
                kids = (split(cells[:cut], level + 1), split(cells[cut:], level + 1))
            lo.append(start)
            hi.append(len(order))
            depth.append(level)
            self.kids.append(kids)
            return len(lo) - 1

        split(np.arange(mesh.num_cells), 0)
        self.order, self.lo, self.hi = np.array(order), np.array(lo), np.array(hi)
        self.position = np.argsort(self.order)                  # cell -> leaf
        # anc[t, leaf]: the node at depth t on the leaf's path from the root,
        # the leaf itself below its own depth (parents are written first)
        self.anc = np.empty((max(depth) + 1, len(order)), dtype=int)
        for n in reversed(range(len(lo))):
            self.anc[depth[n]:, lo[n]:hi[n]] = n

    def dof_nodes(self, cell_maps: np.ndarray) -> np.ndarray:
        """The node of each DOF: the lowest node that holds every cell listing
        it, the common ancestor of its first and last listing leaf."""
        dofs = cell_maps.ravel()
        leaf = np.repeat(self.position, cell_maps.shape[1])
        first = np.full(dofs.max() + 1, len(self.order))
        last = np.zeros_like(first)
        np.minimum.at(first, dofs, leaf)
        np.maximum.at(last, dofs, leaf)
        depth = np.sum(self.anc[:, first] == self.anc[:, last], axis=0)
        return self.anc[depth - 1, first]

    def dof_groups(self, cell_maps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(node, order, start): the node of each DOF (dof_nodes) and the DOFs
        grouped by node, node n's ascending in order[start[n]:start[n + 1]]."""
        node = self.dof_nodes(cell_maps)
        order = np.argsort(node, kind="stable")
        return node, order, np.searchsorted(node[order], np.arange(len(self.lo) + 1))

    def within(self, inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
        """Whether node inner lies in the subtree of node outer, elementwise."""
        return (self.lo[outer] <= self.lo[inner]) & (self.hi[inner] <= self.hi[outer])


class Fronts:
    """The symbolic elimination of the interface unknowns over the cells'
    bisection tree: what each front holds and where it passes its update,
    which depend on the tree and the cells' unknowns alone.  So one Fronts
    serves every factor on the same unknowns (CN, the projection, the
    inf-sup masses of eb_solver) and the rank of a differential
    (condensed_rank, on its source unknowns with ni = 0).

    maps (ncells, n) gives the global numbers of each cell's unknowns, its
    ni interior ones first; every other unknown is interface, numbered in
    iface order, and cell_iface gives each cell's interface numbers.  Each
    interface unknown u belongs to its tree node node[u]
    (CellTree.dof_groups): node n's own unknowns own[n] are those that
    every cell listing them holds.  Its front holds own[n] and then bnd[n],
    the unknowns of n's ancestors that its cells reach, in elimination
    order: by node, children first, ascending within a node.  A leaf's are
    its cell's interface unknowns, the cell's local slots perm[n]; another
    node's are its children's boundaries, whose places in its front are
    pos[child].  A node's own unknowns precede its ancestors', so every
    pos[child] ascends, and runs[child] splits it into its runs of
    consecutive places, as pairs of slices (slots of the child's boundary,
    places in the parent's front): 8.9 runs on average and at most 20 on
    kuhn_cube(2), none for a child with an empty boundary.  Nodes are
    numbered children first, the root last, and the root has no boundary.
    A node that owns nothing (its cells
    share only unknowns that cells outside it list too, as two cells meeting
    at an edge do) passes its front up whole.

    The nodes below the root that own unknowns are batched by height (one
    more than their children's greatest, 0 at a leaf) and by how many
    unknowns they own and reach: batches (nodes, own, bnd), each a stack
    over its nodes, by ascending height.  Nodes of one height are not each
    other's ancestors, so a batch is solved at once; slot[n] is node n's
    (batch, place in it).  Subtrees are contiguous in that numbering, and
    each front's estimated cost (cost, work) deals them out to the workers
    of a factor (shares)."""

    # the time of a front entry in flops: an entry is zeroed and added run
    # by run, or gathered at a leaf, outside BLAS.  Least-squares fits of
    # the fronts' times (assembly and elimination, the least of 3-5
    # factors) on kuhn_cube(3), one BLAS thread, read 1.6-1.75e-11 s a flop
    # and 4.1-5.1e-9 s an entry, 247-315 flops an entry over six fits
    ENTRY_COST = 260.0

    def __init__(self, tree: CellTree, maps: np.ndarray, ni: int):
        self.tree = tree
        self.interior = maps[:, :ni]
        n = maps.max() + 1
        self.iface = np.setdiff1d(np.arange(n), self.interior)
        number = np.empty(n, dtype=int)
        number[self.iface] = np.arange(len(self.iface))
        self.cell_iface = number[maps[:, ni:]]
        node, order, start = tree.dof_groups(self.cell_iface)
        self.node, self.own = node, np.split(order, start[1:-1])
        elim = np.empty_like(order)             # each unknown's place in elimination order
        elim[order] = np.arange(len(order))
        nnodes = len(tree.lo)
        self.bnd, self.perm, self.pos, self.runs = [None] * nnodes, {}, {}, {}
        where = np.empty(len(self.iface), dtype=int)
        height = np.zeros(nnodes, dtype=int)
        self.first = np.arange(nnodes)
        for i in range(nnodes):
            if tree.kids[i]:
                height[i] = 1 + height[list(tree.kids[i])].max()
                self.first[i] = self.first[tree.kids[i][0]]
                # the front: own[i] first, as node i precedes its ancestors
                front = order[np.unique(elim[np.concatenate([self.bnd[c] for c in tree.kids[i]])])]
                self.bnd[i] = front[len(self.own[i]):]
                where[front] = np.arange(len(front))
                for c in tree.kids[i]:
                    pos = self.pos[c] = where[self.bnd[c]]
                    start = np.flatnonzero(np.diff(pos, prepend=-2) != 1).tolist()
                    self.runs[c] = [(slice(a, b), slice(p, p + b - a)) for a, b, p in
                                    zip(start, start[1:] + [len(pos)], pos[start].tolist())]
            else:
                u = self.cell_iface[tree.order[tree.lo[i]]]
                self.perm[i] = np.argsort(elim[u])
                self.bnd[i] = u[self.perm[i]][len(self.own[i]):]
        batches = {}
        for i in range(nnodes - 1):
            if len(self.own[i]):
                key = (height[i], len(self.own[i]), len(self.bnd[i]))
                batches.setdefault(key, []).append(i)
        self.batches = [(np.array(nodes), np.stack([self.own[i] for i in nodes]),
                         np.stack([self.bnd[i] for i in nodes]))
                        for nodes in (batches[key] for key in sorted(batches))]
        self.slot = {n: (b, j) for b, (nodes, _, _) in enumerate(self.batches)
                     for j, n in enumerate(nodes)}
        # nodes are numbered children first, so node n's subtree is the nodes
        # first[n]..n; cost[n] is the estimated time of front n, the flops of
        # its own block's inverse, X and its refinement, and update and its
        # entries, and work[n] that of its subtree
        o, nb = (np.array([len(x) for x in sets], dtype=float) for sets in (self.own, self.bnd))
        self.cost = 8 / 3 * o ** 3 + 6 * o * o * nb + 2 * o * nb * nb + self.ENTRY_COST * (o + nb) ** 2
        total = np.concatenate([[0.0], np.cumsum(self.cost)])
        self.work = total[1:] - total[self.first]

    def shares(self, workers: int) -> tuple[list[list[int]], list[int]]:
        """The subtrees below the root dealt to at most `workers` workers, and
        the nodes above them: (shares, top).  Each share is a nonempty list
        of subtree roots, ascending; top lists the other nodes below the
        root, ascending, so that a node follows its children.

        Proportional mapping (Pothen & Sun, SIAM J. Sci. Comput. 1993) with
        LPT bins: starting from the root's children, the costliest subtree is
        split into its children, its own front moving to top, until the cut
        holds 8 subtrees per worker or only leaves; each cut is dealt
        costliest first to the least loaded worker, and the cut whose top
        plus busiest worker costs least is kept.  One worker gets the root's
        children whole."""
        kids = self.tree.kids
        cut, top, top_cost = list(kids[-1]), [], 0.0
        best = None
        while True:
            loads, bins = [(0.0, w) for w in range(workers)], [[] for _ in range(workers)]
            for s in sorted(cut, key=lambda s: -self.work[s]):
                load, w = heapq.heappop(loads)
                bins[w].append(s)
                heapq.heappush(loads, (load + self.work[s], w))
            span = top_cost + max(loads)[0]
            if best is None or span < best[0]:
                best = span, [sorted(b) for b in bins if b], sorted(top)
            inner = [s for s in cut if kids[s]]
            if workers == 1 or not inner or len(cut) >= 8 * workers:
                return best[1:]
            s = max(inner, key=lambda s: self.work[s])
            cut.remove(s)
            cut += kids[s]
            top.append(s)
            top_cost += self.cost[s]


def condensed_rank(d: sp.csr_matrix, src: GlobalSpace, dst: GlobalSpace,
                   rtol: float = 1e-9) -> int:
    """rank d by orthogonal elimination on the fronts of the cells'
    bisection tree, those of the factors: Fronts(tree, src.cell_maps, 0).

    Each source column and target row belongs to its CellTree node.  The
    differential of a field supported in a node's cells is supported there,
    so a column vanishes outside the rows of its node's subtree: the bubble
    identity of the cells, on every level.  The entries it drops must be
    rounding: ValueError if their Frobenius norm exceeds rtol max|d|.
    Bottom-up, front n stacks its own rows of d on its children's
    contributions, each at its places pos[child], over the columns own[n]
    and then bnd[n], and eliminates own[n] by a column-pivoted QR
    (linalg.front_rank); rank d is the sum of the front ranks.  One
    threshold tau = rtol max_j |d[:, j]|_2 decides every front, and each
    decision is certified where it is made.

    A front's columns hold every column its rows reach: a kept entry's
    column is listed by its row's owner cell, a cell of n, and belongs to n
    or an ancestor, so lies in own[n] or bnd[n].  They hold no other (one
    would be a zero column, which changes no rank): each leaf's rows reach
    its whole bnd, since its cell's interior target DOFs are among them
    (the targets of devgrad, symcurl and divdiv have cell interiors at
    k >= 3) and assemble_diff stores each row dense over its owner cell's
    source DOFs, explicit zeros included; so each front's rows reach its
    children's bnd.
    """
    tree = CellTree(src.mesh)
    fronts = Fronts(tree, src.cell_maps, 0)
    # rows grouped by node: node n's are [rstart[n], rstart[n + 1])
    rnode, rorder, rstart = tree.dof_groups(dst.cell_maps)
    if not d.has_canonical_format:              # rows sorted and summed
        d = d.copy()
        d.sum_duplicates()
    kept = tree.within(np.repeat(rnode, np.diff(d.indptr)), fronts.node[d.indices])
    dropped, scale = frobenius(d.data[~kept]), np.abs(d.data).max(initial=0.0)
    if dropped > rtol * scale:
        raise ValueError(f"columns leave their cells: |E|_F = {dropped:.3e}, "
                         f"max|d| = {scale:.3e}")
    colsq = np.bincount(d.indices, d.data ** 2, minlength=d.shape[1])
    tau = rtol * float(np.sqrt(colsq.max(initial=0.0)))
    # the kept entries, rows grouped by node
    A = sp.csr_matrix((d.data[kept], d.indices[kept], np.r_[0, np.cumsum(kept)][d.indptr]),
                      shape=d.shape)[rorder]
    where = np.empty(src.ndof, dtype=int)       # a column's place in the current front
    contrib = {}                                # node -> the rows it passes up
    rank = 0
    for n, kids in enumerate(tree.kids):        # children first
        own, bnd = fronts.own[n], fronts.bnd[n]
        where[own], where[bnd] = np.arange(len(own)), len(own) + np.arange(len(bnd))
        ptr = A.indptr[rstart[n]:rstart[n + 1] + 1]
        blocks = [contrib.pop(c) for c in kids]
        F = np.zeros((len(ptr) - 1 + sum(len(b) for b in blocks), len(own) + len(bnd)),
                     order="F")
        F[np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)),
          where[A.indices[ptr[0]:ptr[-1]]]] = A.data[ptr[0]:ptr[-1]]
        top = len(ptr) - 1
        for c, b in zip(kids, blocks):
            F[top:top + len(b), fronts.pos[c]] = b
            top += len(b)
        r, contrib[n] = front_rank(F, len(own), tau)
        rank += r
    return rank


def build_complex(mesh: TetMesh, k: int):
    """All four global spaces plus the three discrete differentials."""
    cache = EntityCache(mesh.unit, k)
    V = GlobalSpace(mesh, "h1_vec3", k, cache)
    L = GlobalSpace(mesh, "hsymcurl_T", k, cache)
    S = GlobalSpace(mesh, "hdivdiv_S", k, cache)
    Q = GlobalSpace(mesh, "dg_scalar", k, cache)
    d1 = assemble_diff(cell_operators("devgrad", V, L), V, L)
    d2 = assemble_diff(cell_operators("symcurl", L, S), L, S)
    d3 = assemble_diff(cell_operators("divdiv", S, Q), S, Q)
    return (V, L, S, Q), (d1, d2, d3)


def _formula_rank_symcurl(mesh: TetMesh, k: int) -> int:
    return (2 * mesh.num_vertices + (3 * k + 1) * mesh.num_edges
            + (k * k - k - 3) * mesh.num_faces
            + (5 * k**3 + 12 * k**2 - 17 * k) // 6 * mesh.num_cells + 4)


def _formula_ker_divdiv(mesh: TetMesh, k: int) -> int:
    return (6 * mesh.num_vertices + (3 * k - 3) * mesh.num_edges
            + (k * k - k + 1) * mesh.num_faces
            + (5 * k**3 + 12 * k**2 - 17 * k - 24) // 6 * mesh.num_cells)


@one_blas_thread()
def complex_audit(mesh: TetMesh, k: int) -> list[dict]:
    """Global exactness: inclusions, zero compositions, rank/nullity chain,
    surjectivity of divdiv, and the Euler-consistency of the dimension formulas."""
    if mesh.euler_characteristic != 1:
        raise ValueError("audit expects a simply connected mesh (chi = 1)")
    # ranks and every check are relative, so scale-invariant: the audit
    # reads the differentials on the unit geometry, in the dimensionless basis
    (V, L, S, Q), (d1, d2, d3) = build_complex(mesh.unit, k)
    comp21 = float(product_max(d2, d1, S.owner) / max(abs(d1).max() * abs(d2).max(), 1e-300))
    comp32 = float(product_max(d3, d2, Q.owner) / max(abs(d2).max() * abs(d3).max(), 1e-300))
    r1 = condensed_rank(d1, V, L)
    r2 = condensed_rank(d2, L, S)
    r3 = condensed_rank(d3, S, Q)
    rank_formula, ker_formula = _formula_rank_symcurl(mesh, k), _formula_ker_divdiv(mesh, k)
    # RT fields interpolate into V and are killed by the discrete devgrad
    coeffs = V.interpolate(poly.rt_space("tet").fields())          # (4, ndof)
    return [
        check("symcurl o devgrad = 0", 0.0, comp21, "trivial", tol=1e-11),
        check("divdiv o symcurl = 0", 0.0, comp32, "trivial", tol=1e-11),
        check("rank devgrad = dim V - 4 (kernel RT)", V.dim - 4, r1, "paper"),
        check("exactness at symcurl space", r1, L.dim - r2, "derived"),
        check("exactness at divdiv space", r2, S.dim - r3, "derived"),
        check("divdiv onto P_{k-2}(T)", Q.dim, r3, "paper"),
        check("rank symcurl matches proof formula", rank_formula, r2, "paper"),
        check("ker divdiv matches proof formula", ker_formula, S.dim - r3, "paper"),
        check("formulas consistent iff Euler (integer identity)",
              4 * (mesh.euler_characteristic - 1), ker_formula - rank_formula, "paper"),
        check("devgrad of interpolated RT fields = 0", 0.0, float(np.abs(d1 @ coeffs.T).max()),
              "trivial", tol=1e-10)]
