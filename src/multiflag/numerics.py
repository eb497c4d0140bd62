"""Dense linear-algebra helpers used by the field and flag machinery."""

from __future__ import annotations

import numpy as np


def _rank(s: np.ndarray, tol: float) -> int:
    """Count of the descending singular values `s` above tol * largest."""
    return int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] else 0


def svd_rank(mat: np.ndarray, tol: float = 1e-8) -> int:
    """Rank of the row span: count singular values above tol * largest."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return _rank(np.linalg.svd(mat, compute_uv=False), tol) if mat.size else 0


class RowSpan:
    """One SVD of a matrix, from which its rank and an orthonormal basis of
    its row space are read at any relative threshold."""

    def __init__(self, mat: np.ndarray):
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        self.s, self.vt = np.zeros(0), np.zeros((0, mat.shape[1]))
        if mat.size:
            _, self.s, self.vt = np.linalg.svd(mat, full_matrices=False)

    def rank(self, tol: float = 1e-8) -> int:
        return _rank(self.s, tol)

    def rows(self, tol: float = 1e-8) -> np.ndarray:
        """Orthonormal rows of the singular directions kept at tol."""
        return self.vt[:self.rank(tol)]


def orthonormal_rows(mat: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of `mat`."""
    return RowSpan(mat).rows(tol)


def subspace_angle(a, b, tol: float = 1e-8) -> float:
    """Largest principal angle (radians) between the row spans of a and b,
    each a matrix or its `RowSpan`.

    Computed through the sine of the angle, which stays accurate when the
    spans nearly coincide (arccos loses half the digits there).
    """
    qa, qb = ((x if isinstance(x, RowSpan) else RowSpan(x)).rows(tol)
              for x in (a, b))
    if qa.shape[0] == 0 and qb.shape[0] == 0:
        return 0.0
    if qa.shape[0] == 0 or qb.shape[0] == 0:
        return float(np.pi / 2)

    def one_sided(q1: np.ndarray, q2: np.ndarray) -> float:
        resid = q2 - (q2 @ q1.T) @ q1
        s = np.linalg.svd(resid, compute_uv=False)
        top = float(s[0]) if s.size else 0.0
        return float(np.arcsin(min(1.0, top)))

    return max(one_sided(qa, qb), one_sided(qb, qa))
