"""Dense linear-algebra helpers used by the field and flag machinery.

Every helper takes one matrix or a stack of them (..., r, D) and decomposes
a stack with one stacked call, which gives each member exactly the numbers
its own call would.  A span is read off its SVD as masked rows: the right
singular vectors, each zeroed unless its singular value exceeds tol times
the largest (of the matrix, or of the whole matrix a block belongs to), so
members of a stack whose ranks differ need no grouping.  A matrix with an
inf or nan entry is refused with LinAlgError before LAPACK sees it.
"""

from __future__ import annotations

import numpy as np


def _scalar(x: np.ndarray, kind):
    """A 0-d result as a plain `kind`, a stacked one as the array."""
    return kind(x) if np.ndim(x) == 0 else x


def _kept(s: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the descending singular values `s` (..., K) above tol *
    largest (none where the largest is 0)."""
    return s > tol * s[..., :1]


def _finite_matrix(mat: np.ndarray) -> np.ndarray:
    """`mat` as a float matrix or stack of them (..., r, D), refused with
    LinAlgError if an entry is inf or nan: dgesdd never returns on some
    matrices with an inf entry, and returns nan on others."""
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    return np.atleast_2d(mat) if mat.ndim < 2 else mat


def singular_values(mat: np.ndarray) -> np.ndarray:
    """The descending singular values (..., K) of a matrix or of each
    matrix of a stack, without the singular vectors (LAPACK's values-only
    dgesdd, which may differ from `RowSpan(mat).s` in the last bits)."""
    return np.linalg.svd(_finite_matrix(mat), compute_uv=False)


def svd_rank(mat: np.ndarray, tol: float = 1e-8):
    """Rank of the row span: count singular values above tol * largest."""
    return RowSpan(mat).rank(tol)


class RowSpan:
    """One SVD (s, vt) of a matrix or of each matrix of a stack, whose
    rows are kept at any threshold relative to the largest singular value
    (the flag pass reads a block against that of its whole matrix)."""

    def __init__(self, mat: np.ndarray):
        mat = _finite_matrix(mat)
        lead = mat.shape[:-2]
        self.s = np.zeros(lead + (0,))
        self.vt = np.zeros(lead + (0, mat.shape[-1]))
        if mat.size:
            _, self.s, self.vt = np.linalg.svd(mat, full_matrices=False)

    def rank(self, tol: float = 1e-8):
        return _scalar(np.count_nonzero(_kept(self.s, tol), axis=-1), int)


def orthonormal_rows(mat: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of `mat` kept at tol,
    or of each matrix of a stack of them sharing one rank."""
    span = RowSpan(mat)
    ranks = np.reshape(span.rank(tol), -1)
    if np.any(ranks != ranks[:1]):
        raise ValueError("stack members differ in rank")
    return span.vt[..., :int(ranks[0]) if ranks.size else 0, :]


def span_angle(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Largest principal angle (radians) between the spans of orthonormal
    rows qa (..., ra, D) and qb (..., rb, D), a zero row standing for a
    dropped direction, one angle per member of the leading axes.

    Each side's angle is read through its sine where the spans nearly
    coincide: the top singular value of the residual R of one basis off the
    other, the root of the top eigenvalue of R R^T.  Past a sine of 0.5 it
    is read through its cosine, which near pi/2 keeps the digits arcsin
    loses (an ulp of the sine is 1e-8 there): the smallest singular value
    of the bases' cross matrix, each dropped row at cosine 1.  An empty
    span is at pi/2 from a nonempty one and at 0 from another empty one.
    """
    lead = qa.shape[:-2]
    qa, qb = (q.reshape((int(np.prod(lead)),) + q.shape[-2:])
              for q in (qa, qb))

    def one_sided(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
        if not q2.shape[1]:
            return np.zeros(len(q2))
        resid = q2 - (q2 @ q1.swapaxes(1, 2)) @ q1
        gram = resid @ resid.swapaxes(1, 2)
        sine = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        angle = np.arcsin(np.minimum(1.0, sine))
        big = sine > 0.5
        if big.any():
            q1, q2 = q1[big], q2[big]
            dropped = np.eye(q2.shape[1]) * ~q2.any(axis=2)[:, :, None]
            cross = np.concatenate([q2 @ q1.swapaxes(1, 2), dropped], axis=2)
            angle[big] = np.arccos(np.minimum(1.0, singular_values(
                cross)[:, -1]))
        return angle

    return np.maximum(one_sided(qa, qb), one_sided(qb, qa)).reshape(lead)


def subspace_angle(a, b, tol: float = 1e-8):
    """Largest principal angle (radians) between the row spans of a and b,
    each a matrix or its `RowSpan`, or a stack of them (one angle each),
    with the rows of each span kept at tol (`span_angle`)."""
    sa, sb = (x if isinstance(x, RowSpan) else RowSpan(x) for x in (a, b))
    return _scalar(span_angle(*(x.vt * _kept(x.s, tol)[..., None]
                                for x in (sa, sb))), float)
