import weakref

import numpy as np
import pytest

from divdivfem import complex_asm, eb_solver, mesh


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
