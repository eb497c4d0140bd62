"""The decompositions of `numerics` against plain numpy routes.

`RowSpan` is one stacked SVD and `singular_values` one values-only SVD,
the flag pass's blocks together carry the singular values of the whole
derived stacks, and `subspace_angle` reads small angles from the top
eigenvalue of a Gram matrix and large ones from a cosine; these tests pin
them to the direct routes.
"""

import numpy as np
import pytest
from multiflag import arm
from multiflag import flags as fg
from multiflag import sampling
from multiflag.numerics import (RowSpan, singular_values, subspace_angle,
                               svd_rank)
from test_flags import dense_brackets, pair_number, pairs


def svd_route_angle(a, b, tol=1e-8):
    """Largest principal angle between the row spans of two matrices, each
    side's sine the top singular value of its residual."""
    def rows(mat):
        _, s, vt = np.linalg.svd(mat, full_matrices=False)
        return vt[:np.count_nonzero(s > tol * s[0])]

    qa, qb = rows(a), rows(b)

    def one_sided(q1, q2):
        resid = q2 - (q2 @ q1.T) @ q1
        return np.arcsin(min(1.0, np.linalg.svd(resid, compute_uv=False)[0]))

    return max(one_sided(qa, qb), one_sided(qb, qa))


def cosine_route_angle(a, b):
    """Largest principal angle between the row spans of two full-rank
    matrices: pi/2 if their ranks differ, else the arccos of the smallest
    cosine, a singular value of the product of their bases."""
    qa, qb = (np.linalg.svd(m, full_matrices=False)[2] for m in (a, b))
    if len(qa) != len(qb):
        return np.pi / 2
    return np.arccos(min(1.0, np.linalg.svd(qa @ qb.T,
                                            compute_uv=False)[-1]))


def sweep_stacks(dims, seed):
    """A verify-sweep batch of 20 regular and 2 singular points, and the
    derived stacks (B, rows, D) of all pairs of each level, level 0
    first, from the all-pairs brackets of `dense_brackets`."""
    rng = np.random.default_rng(seed)
    qs = ([sampling.random_regular_config(dims, rng) for _ in range(20)]
          + [sampling.singular_config(dims, rng, index=i) for i in (1, 2)])
    points = np.stack([q.flat() for q in qs])
    fields = fg._family(dims, "projected")[0]
    values = np.stack([f(points) for f in fields], axis=1)
    dense = dense_brackets(fields, points, np.stack([q.z for q in qs]))
    number = pair_number(len(fields))
    stacks = []
    for m in range(dims.n + 1):
        idx = fg._d_index(dims, m + 1)
        stacks.append(np.concatenate([values[:, idx], dense[:, [
            number[pair] for pair in zip(*(x.tolist() for x in pairs(idx)))]]],
                                     axis=1))
    return qs, stacks


class TestRowSpan:
    @pytest.mark.parametrize("k,n,tall", [(2, 2, 1), (3, 4, 3)])
    def test_derived_stacks_match_the_direct_svd(self, k, n, tall,
                                                 monkeypatch):
        # `tall` of the derived stacks of all pairs are at least twice as
        # tall as wide; the flag pass decomposes none of them, only blocks
        # of at most k+1 rows, whose singular values together are those of
        # the direct SVD of each stack
        dims = arm.ArmDims(k, n)
        qs, stacks = sweep_stacks(dims, seed=k + n)
        assert sum(st.shape[1] >= 2 * st.shape[2] for st in stacks) == tall
        spans = []
        monkeypatch.setattr(fg, "RowSpan", lambda mat: (
            spans.append(RowSpan(mat)), spans[-1])[1])
        fg.verify_flags(qs)
        assert max(sp.vt.shape[-2] for sp in spans) == k + 1
        # in the order of `_verify_block`: tangents, sphere blocks of the
        # derived stacks, coupled blocks
        _, sphere, coupled = spans[:3]
        for m, st in enumerate(stacks):
            want = np.linalg.svd(st, compute_uv=False)
            got = np.concatenate([coupled.s[:, m], sphere.s[:, m:].reshape(
                len(qs), -1)], axis=1)
            got = -np.sort(-got, axis=1)
            bound = 1e-14 * want[:, :1]
            assert np.all(np.abs(got - want[:, :got.shape[1]]) <= bound)
            assert np.all(want[:, got.shape[1]:] <= bound)

    @pytest.mark.parametrize("cols", [1, 2, 5, 12, 24])
    @pytest.mark.parametrize("extra", [0, -1])
    def test_at_the_tall_threshold(self, cols, extra):
        # on either side of r = 2D, where LAPACK's SVD takes a QR first,
        # a span has the numbers of the direct SVD, and `singular_values`
        # those of the values-only one, also on low-rank and zero-row stacks
        rng = np.random.default_rng(cols)
        rows = 2 * cols + extra
        full = rng.normal(size=(4, rows, cols))
        low = (rng.normal(size=(4, rows, max(1, cols // 2)))
               @ rng.normal(size=(4, max(1, cols // 2), cols)))
        zeros = full.copy()
        zeros[:, rng.random(rows) < 0.6] = 0.0
        for st in (full, low, zeros, full[0]):
            _, s, vt = np.linalg.svd(st, full_matrices=False)
            span = RowSpan(st)
            assert np.array_equal(span.s, s)
            assert np.array_equal(span.vt, vt)
            assert np.array_equal(singular_values(st),
                                  np.linalg.svd(st, compute_uv=False))

    @pytest.mark.parametrize("shape", [(6, 2), (3, 4, 2), (2, 3), (3, 3)])
    def test_nan_input_raises(self, shape):
        # in a tall stack as in a wide one
        mat = np.ones(shape)
        mat[..., 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            RowSpan(mat)
        with pytest.raises(np.linalg.LinAlgError):
            subspace_angle(mat, np.ones(shape))
        with pytest.raises(np.linalg.LinAlgError):
            singular_values(mat)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (3, 5), (2, 3),
                                       (6, 2), (2, 3, 3)])
    def test_non_finite_input_refused_before_lapack(self, shape,
                                                    monkeypatch):
        # dgesdd never returns on the square and wide shapes with an inf
        # entry; the refusal comes first, so no decomposition sees one
        for name in ("svd", "qr"):
            routine = getattr(np.linalg, name)

            def finite_only(mat, *args, _routine=routine, **kwargs):
                assert np.isfinite(mat).all(), "LAPACK reached"
                return _routine(mat, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, finite_only)
        for bad in (np.inf, -np.inf, np.nan):
            mat = np.ones(shape)
            mat[..., 0, 0] = bad
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                RowSpan(mat)
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                svd_rank(mat)
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                singular_values(mat)
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                subspace_angle(np.ones(shape), mat)
        assert np.all(svd_rank(np.ones(shape)) == 1)


class TestSubspaceAngle:
    @pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-11, 1e-8, 1e-5, 1e-2])
    def test_near_coincident_spans_match_the_svd_route(self, eps):
        rng = np.random.default_rng(7)
        for r, d in [(1, 4), (3, 7), (6, 24), (13, 24)]:
            a = rng.normal(size=(r, d))
            b = a + eps * rng.normal(size=(r, d))
            got = subspace_angle(a, b)
            assert abs(got - svd_route_angle(a, b)) <= 1e-15
            stacked = subspace_angle(np.stack([a, b]), np.stack([b, a]))
            assert np.all(np.abs(stacked - got) <= 1e-15)

    def test_identical_spans_give_zero(self):
        e = np.eye(5)[:3]
        for b in (e, e[::-1]):
            got = subspace_angle(e, b)
            assert got == 0.0 and not np.signbit(got)
        assert np.array_equal(subspace_angle(np.stack([e, 2 * e]),
                                             np.stack([e[::-1], e])), [0, 0])

    def test_large_sines_keep_the_svd_route(self):
        # a sine over 0.5 takes its angle from an SVD, of the cross matrix
        # of the bases (the cosine): orthogonal spans of unequal rank are at
        # pi/2 exactly, an angle near pi/2 keeps the digits its sine,
        # 1 - delta^2/2, loses, and spans far apart get the cosine route's
        # angle
        e = np.eye(6)
        assert subspace_angle(e[:2], e[2:5]) == np.pi / 2
        assert subspace_angle(e[:3], e[3:4]) == np.pi / 2
        for delta in (1e-4, 1e-8, 1e-12):
            theta = np.pi / 2 - delta
            b = np.cos(theta) * e[:1] + np.sin(theta) * e[1:2]
            assert abs(subspace_angle(e[:1], b) - theta) <= 1e-15
            assert abs(subspace_angle(b, e[:2]) - np.pi / 2) <= 1e-15
        rng = np.random.default_rng(11)
        for r1, r2 in [(1, 1), (2, 2), (3, 3), (2, 3), (4, 2)] * 4:
            a, b = rng.normal(size=(r1, 6)), rng.normal(size=(r2, 6))
            got = subspace_angle(a, b)
            assert np.sin(got) > 0.5
            assert abs(got - cosine_route_angle(a, b)) <= 1e-15

    def test_one_large_sine_moves_its_group_alone(self, monkeypatch):
        # member 1, of rank 1, is orthogonal to its partner and alone takes
        # the cosine route; the other members keep the Gram route
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: (
            calls.append(kw.get("compute_uv", True)), svd(*a, **kw))[1])
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 2, 5))
        b = a + 1e-6 * rng.normal(size=(3, 2, 5))
        a[1] = np.outer([1.0, 2.0], np.eye(5)[0])
        b[1] = np.outer([3.0, 1.0], np.eye(5)[1])
        got = subspace_angle(a, b)
        assert calls.count(False) == 2  # the two sides of member 1
        assert got[1] == svd_route_angle(a[1], b[1]) == np.pi / 2
        for j in (0, 2):
            assert abs(got[j] - svd_route_angle(a[j], b[j])) <= 1e-15

    def test_empty_spans(self):
        zero, line = np.zeros((2, 4)), np.eye(4)[:1]
        assert subspace_angle(zero, line) == np.pi / 2
        assert subspace_angle(line, zero) == np.pi / 2
        assert subspace_angle(zero, zero) == 0.0
        assert subspace_angle(np.zeros((0, 4)), line) == np.pi / 2
        mixed = subspace_angle(np.stack([zero, np.eye(4)[:2]]),
                               np.stack([zero, np.eye(4)[1:3]]))
        assert mixed[0] == 0.0 and mixed[1] == np.pi / 2
