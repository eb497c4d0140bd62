"""Dense linear-algebra helpers used by the field and flag machinery.

Every helper takes one matrix or a stack of them (..., r, D) and decomposes
a stack with one stacked call, which gives each member exactly the numbers
its own call would: an SVD, run on the R factor of a QR when the stack is
tall, and for principal-angle sines the top eigenvalue of a small Gram
matrix.  Members whose ranks differ are read in groups of equal rank
(`rank_groups`), so each still gets exactly its own kept rows.  A matrix
with an inf or nan entry is refused with LinAlgError before LAPACK sees it.
"""

from __future__ import annotations

import numpy as np


def _ranks(s: np.ndarray, tol: float) -> np.ndarray:
    """Count of the descending singular values `s` (..., K) above tol *
    largest, over the leading axes (0 where the largest is 0)."""
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def _scalar(x: np.ndarray, kind):
    """A 0-d result as a plain `kind`, a stacked one as the array."""
    return kind(x) if np.ndim(x) == 0 else x


def rank_groups(*ranks: np.ndarray):
    """Yield (ranks, indices) per distinct tuple of the given per-member
    rank arrays, in increasing order; a lone group's are `slice(None)`."""
    keys = np.stack(ranks, axis=-1)
    if np.all(keys == keys[:1]):  # the usual case: one group
        yield tuple(int(r) for r in keys[0]), slice(None)
        return
    keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    for g, key in enumerate(keys):
        yield tuple(int(r) for r in key), np.flatnonzero(inverse == g)


def _finite_matrix(mat: np.ndarray) -> np.ndarray:
    """`mat` as a float matrix or stack of them (..., r, D), refused with
    LinAlgError if an entry is inf or nan: dgesdd never returns on some
    matrices with an inf entry, and returns nan on others."""
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    return np.atleast_2d(mat) if mat.ndim < 2 else mat


def svd_rank(mat: np.ndarray, tol: float = 1e-8):
    """Rank of the row span: count singular values above tol * largest."""
    mat = _finite_matrix(mat)
    if not mat.size:
        return _scalar(np.zeros(mat.shape[:-2], dtype=int), int)
    return _scalar(_ranks(np.linalg.svd(mat, compute_uv=False), tol), int)


class RowSpan:
    """One SVD of a matrix or of each matrix of a stack, from which ranks
    and orthonormal bases of the row spaces are read at any relative
    threshold.

    A stack at least twice as tall as wide (r >= 2D) is first reduced to
    its (D, D) factor R by a QR, and the SVD is taken of R (Chan's R-SVD).
    LAPACK's dgesdd takes the same QR-first route from r >= 11D/6, so s
    and vt are bit for bit those of the SVD of the stack itself; the
    (r, D) factors Q and U are never formed.
    """

    def __init__(self, mat: np.ndarray):
        mat = _finite_matrix(mat)
        lead = mat.shape[:-2]
        self.s = np.zeros(lead + (0,))
        self.vt = np.zeros(lead + (0, mat.shape[-1]))
        if mat.size:
            if mat.shape[-2] >= 2 * mat.shape[-1]:
                mat = np.linalg.qr(mat, mode="r")
            _, self.s, self.vt = np.linalg.svd(mat, full_matrices=False)

    def rank(self, tol: float = 1e-8):
        return _scalar(_ranks(self.s, tol), int)

    def rows(self, tol: float = 1e-8) -> np.ndarray:
        """Orthonormal rows (..., r, D) of the singular directions kept at
        tol; the members of a stack must share the rank r."""
        ranks = _ranks(self.s, tol).reshape(-1)
        if np.any(ranks != ranks[:1]):
            raise ValueError("stack members differ in rank; read them by "
                             "rank_groups")
        return self.vt[..., :int(ranks[0]) if ranks.size else 0, :]


def orthonormal_rows(mat: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of `mat`, or of each
    matrix of a stack of them sharing one rank."""
    return RowSpan(mat).rows(tol)


def subspace_angle(a, b, tol: float = 1e-8):
    """Largest principal angle (radians) between the row spans of a and b,
    each a matrix or its `RowSpan`, or a stack of them (one angle each).

    Computed through the sine of the angle, which stays accurate when the
    spans nearly coincide (arccos loses half the digits there).  Each side's
    sine is the largest singular value of the residual R of one basis off
    the other, read as the square root of the top eigenvalue of the (r, r)
    Gram matrix R R^T.  A rank group in which some sine exceeds 0.5 takes
    it from the SVD of R instead: near 1, arcsin turns an ulp of the sine
    into about 1e-8.  An empty span makes the angle pi/2 against a
    nonempty one and 0 against another empty one.
    """
    sa, sb = (x if isinstance(x, RowSpan) else RowSpan(x) for x in (a, b))
    ra, rb = sa.rank(tol), sb.rank(tol)
    angles = np.empty(np.size(ra))

    def one_sided(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
        resid = q2 - (q2 @ q1.swapaxes(-1, -2)) @ q1
        gram = resid @ resid.swapaxes(-1, -2)
        sine = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        if np.any(sine > 0.5):
            sine = np.linalg.svd(resid, compute_uv=False)[:, 0]
        return np.arcsin(np.minimum(1.0, sine))

    for (r1, r2), sel in rank_groups(np.reshape(ra, -1), np.reshape(rb, -1)):
        if r1 == 0 or r2 == 0:
            angles[sel] = 0.0 if r1 == r2 else np.pi / 2
            continue
        qa = sa.vt.reshape((-1,) + sa.vt.shape[-2:])[sel, :r1]
        qb = sb.vt.reshape((-1,) + sb.vt.shape[-2:])[sel, :r2]
        angles[sel] = np.maximum(one_sided(qa, qb), one_sided(qb, qa))
    return _scalar(angles.reshape(np.shape(ra)), float)
