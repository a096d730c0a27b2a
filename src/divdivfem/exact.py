"""Integer differentiation matrices on the reference tetrahedron.

On the reference tetrahedron the barycentric gradients are integers, so the
Bernstein derivative tables and the range generators `poly.RANGE_GENERATORS`
are integer-valued.  `_op_matrix_3d(op, k)` is `poly.op_matrix`, the one
contraction behind `poly.diff`, taken in int64 on scale * the probe: 3
devgrad (3 dev has integer entries), 2 symcurl (2 sym has) and divdiv.  It
equals `poly.diff(op, ...).mat` times the scale, and its rank over Q
(`rank_3d`) certifies the floating-point rank decisions of the reference
complex audit.
"""

from __future__ import annotations

import numpy as np

from . import poly
from .linalg import rank_exact

# op -> (source degree - k, source range, scale making op's map integer-valued)
_OPS = {"devgrad": (2, "V3", 3), "symcurl": (1, "T", 2), "divdiv": (0, "S", 1)}


def _op_matrix_3d(op: str, k: int) -> np.ndarray:
    """scale * op from source generator to target generator coordinates."""
    if op not in _OPS:
        raise ValueError(f"no exact matrix for operator {op!r}")
    shift, src, scale = _OPS[op]
    basis = poly.reference_cell("tet").basis(k + shift)
    return poly.op_matrix(op, basis, src, scale, exact=True)


def rank_3d(op: str, k: int) -> int:
    """Exact rank over Q of devgrad / symcurl / divdiv on the reference tet."""
    return rank_exact(_op_matrix_3d(op, k))
