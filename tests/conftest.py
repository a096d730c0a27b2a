import weakref

import numpy as np
import pytest

from divdivfem import complex_asm, eb_solver, mesh

# meshes (vertices, cells) whose bisection trees have nodes that own nothing:
# two cells meeting only at the edge (0, 1) that a third cell lists too, the
# fourth sharing a face with the third, so that the tree pairs the first two
# in a node that owns nothing
EDGE_MEETING = ([[0, 0, 0], [0, 0, 1], [-1, 1, 0], [-2, 1, 1], [-1, -1, 0], [-2, -1, 1],
                 [1, 0, 0], [1, 1, 1], [2, 0, 1]],
                [[0, 1, 2, 3], [1, 0, 4, 5], [0, 1, 6, 7], [1, 6, 7, 8]])
# two cells apart: the root owns nothing
APART = ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 0, 0], [6, 0, 0], [5, 1, 0], [5, 0, 1]],
         [[0, 1, 2, 3], [4, 5, 6, 7]])


@pytest.fixture(scope="session")
def eb_systems():
    """Session-wide cache of assembled EBSystems keyed by (mesh spec, k)."""
    cache = {}

    def get(spec, k=3):
        key = (spec, k)
        if key not in cache:
            cache[key] = eb_solver.EBSystem(mesh.load(spec), k)
        return cache[key]

    get.cache = cache
    return get


@pytest.fixture(scope="session")
def complexes():
    """Session-wide cache of (spaces, operators) per (mesh spec, k)."""
    from divdivfem.complex_asm import build_complex
    cache = {}

    def get(spec, k=3):
        key = (spec, k)
        if key not in cache:
            cache[key] = build_complex(mesh.load(spec), k)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def fresh_class_data(monkeypatch):
    """An empty process-wide class-data cache for one test, so that what the
    test counts is built in it, whatever the other tests' spaces hold."""
    shared = weakref.WeakValueDictionary()
    monkeypatch.setattr(complex_asm, "_SHARED", shared)
    return shared
