"""Dense linear-algebra helpers used by the field and flag machinery."""

from __future__ import annotations

import numpy as np


def svd_rank(mat: np.ndarray, tol: float = 1e-8) -> int:
    """Rank of the row span: count singular values above tol * largest."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def rank_and_rows(mat: np.ndarray, tol: float = 1e-8,
                  rows_tol: float = 1e-8) -> tuple[int, np.ndarray]:
    """`svd_rank(mat, tol)` and `orthonormal_rows(mat, rows_tol)` from one
    decomposition."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0, np.zeros((0, mat.shape[1] if mat.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, np.zeros((0, mat.shape[1]))
    return (int(np.count_nonzero(s > tol * s[0])),
            vt[:int(np.count_nonzero(s > rows_tol * s[0]))])


def orthonormal_rows(mat: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of `mat`."""
    return rank_and_rows(mat, tol, tol)[1]


def subspace_angle(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> float:
    """Largest principal angle (radians) between the row spans of a and b.

    Computed through the sine of the angle, which stays accurate when the
    spans nearly coincide (arccos loses half the digits there).
    """
    qa = orthonormal_rows(a, tol)
    qb = orthonormal_rows(b, tol)
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
