"""Entity frames one at a time, and their orthonormality checks, read only by
the tests: the one-entity batches of tensor_calc.edge_frames and face_frames."""

import numpy as np

from divdivfem import tensor_calc as tc

FRAME_TOL = 1e-14


def make_edge_frame(global_ids, coords) -> tc.EdgeFrame:
    """The frame of one edge: the one-edge batch of edge_frames."""
    return tc.edge_frames([global_ids], [coords])[0]


def make_face_frame(global_ids, coords) -> tc.FaceFrame:
    """The frame of one face: the one-face batch of face_frames."""
    return tc.face_frames([global_ids], [coords])[0]


def validate(fr) -> None:
    """An edge frame is orthonormal with n1 x n2 = t; a face frame has a unit
    normal with t1 x t2 = n."""
    if isinstance(fr, tc.EdgeFrame):
        for a, b in ((fr.t, fr.n1), (fr.t, fr.n2), (fr.n1, fr.n2)):
            assert abs(np.dot(a, b)) < FRAME_TOL
        for a in (fr.t, fr.n1, fr.n2):
            assert abs(np.linalg.norm(a) - 1.0) < FRAME_TOL
        assert np.linalg.norm(np.cross(fr.n1, fr.n2) - fr.t) < FRAME_TOL
    else:
        assert abs(np.linalg.norm(fr.n) - 1.0) < FRAME_TOL
        assert np.linalg.norm(np.cross(fr.t1, fr.t2) - fr.n) < FRAME_TOL
