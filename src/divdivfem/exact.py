"""Integer differentiation matrices on the reference tetrahedron.

On the reference tetrahedron the barycentric gradients are integers, so the
Bernstein differentiation tables `BernsteinBasis.diff_ops` and the range
generators `poly.RANGE_GENERATORS` are integer-valued.  `_op_matrix_3d(op, k)`
is scale * op between generator coordinates, in int64: 3 devgrad (3 dev has
integer entries), 2 symcurl (2 sym has) and divdiv, so it equals
`poly.diff(op, ...).mat` times the scale.  Its rank over Q (`rank_3d`)
certifies the floating-point rank decisions of the reference complex audit.
"""

from __future__ import annotations

import numpy as np

from . import poly
from .linalg import rank_exact

# op -> (source degree - k, source range, target range)
_OPS = {"devgrad": (2, "V3", "T"), "symcurl": (1, "T", "S"), "divdiv": (0, "S", "scalar")}


def _int(table) -> np.ndarray:
    out = np.rint(table).astype(np.int64)
    assert np.array_equal(out, table), "table is not integer-valued"
    return out


def _gens(rng: str) -> tuple[np.ndarray, np.ndarray]:
    """Integer generators (C, entries) and, per generator, the value entry
    where it alone is nonzero: that entry of a member is its coordinate."""
    table = poly.RANGE_GENERATORS[rng]
    gens = _int(table).reshape(len(table), -1)
    alone = (gens != 0) & ((gens != 0).sum(axis=0) == 1)
    entries = alone.argmax(axis=1)
    assert np.array_equal(gens[:, entries], np.eye(len(gens))), f"no coordinates for {rng!r}"
    return gens, entries


def _op_matrix_3d(op: str, k: int) -> np.ndarray:
    """scale * op from source generator to target generator coordinates."""
    if op not in _OPS:
        raise ValueError(f"no exact matrix for operator {op!r}")
    shift, src, dst = _OPS[op]
    cell = poly.reference_cell("tet")
    D = _int(cell.basis(k + shift).diff_ops)  # (j, b, a): d_j, degree a -> b
    G = _int(poly.RANGE_GENERATORS[src])
    if op == "devgrad":  # 3 grad v - tr(grad v) I
        g = np.einsum("jba,ci->acbij", D, G)
        img = 3 * g - np.trace(g, axis1=-2, axis2=-1)[..., None, None] * np.eye(3, dtype=np.int64)
    elif op == "symcurl":  # curl A + (curl A)^T, row-wise: (i, l) = eps_ljk d_j A_ik
        g = np.einsum("jba,cik->acbikj", D, G)
        curl = np.stack([g[..., (l + 2) % 3, (l + 1) % 3] - g[..., (l + 1) % 3, (l + 2) % 3]
                         for l in range(3)], axis=-1)
        img = curl + np.swapaxes(curl, -1, -2)
    else:  # d_i d_j S_ij
        D2 = _int(cell.basis(k - 1).diff_ops)
        img = np.einsum("ibm,jma,cij->acb", D2, D, G)
    gens, entries = _gens(dst)
    img = img.reshape(img.shape[0] * img.shape[1], img.shape[2], -1)
    coords = img[..., entries]
    assert np.array_equal(coords @ gens, img), f"{op} image leaves range {dst!r}"
    return coords.reshape(len(coords), -1)


def rank_3d(op: str, k: int) -> int:
    """Exact rank over Q of devgrad / symcurl / divdiv on the reference tet."""
    return rank_exact(_op_matrix_3d(op, k))
