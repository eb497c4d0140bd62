"""The decompositions of `numerics` against plain numpy routes.

`RowSpan` reduces a tall stack to the R of a QR before its SVD, and
`subspace_angle` takes most sines from the top eigenvalue of a Gram
matrix; these tests pin both to the direct routes they replace.
"""

import numpy as np
import pytest
from multiflag import arm
from multiflag import flags as fg
from multiflag import sampling
from multiflag.numerics import RowSpan, subspace_angle, svd_rank


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


def derived_stacks(dims, seed):
    """The derived stacks (B, rows, D) of a verify-sweep batch of 20
    regular and 2 singular points, level 0 first."""
    rng = np.random.default_rng(seed)
    qs = ([sampling.random_regular_config(dims, rng) for _ in range(20)]
          + [sampling.singular_config(dims, rng, index=i) for i in (1, 2)])
    z = np.stack([q.z for q in qs])
    pb = fg._PairBrackets(fg._family(dims, "projected"),
                          np.stack([q.flat() for q in qs]), z)
    return [pb.derived_stack(fg._d_index(dims, m + 1))
            for m in range(dims.n + 1)]


class TestRowSpan:
    @pytest.mark.parametrize("k,n,tall", [(2, 2, 1), (3, 4, 3)])
    def test_derived_stacks_match_the_direct_svd(self, k, n, tall):
        stacks = derived_stacks(arm.ArmDims(k, n), seed=k + n)
        assert sum(st.shape[1] >= 2 * st.shape[2] for st in stacks) == tall
        for st in stacks:
            _, s, vt = np.linalg.svd(st, full_matrices=False)
            span = RowSpan(st)
            assert np.array_equal(span.s, s)
            assert np.array_equal(span.vt, vt)

    @pytest.mark.parametrize("cols", [1, 2, 5, 12, 24])
    @pytest.mark.parametrize("extra", [0, -1])
    def test_at_the_tall_threshold(self, cols, extra):
        # r = 2D takes the QR first, r = 2D-1 does not; both give the
        # numbers of the direct SVD, also on low-rank and zero-row stacks
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

    @pytest.mark.parametrize("shape", [(6, 2), (3, 4, 2), (2, 3), (3, 3)])
    def test_nan_input_raises(self, shape):
        # through the QR route as through the direct SVD
        mat = np.ones(shape)
        mat[..., 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            RowSpan(mat)
        with pytest.raises(np.linalg.LinAlgError):
            subspace_angle(mat, np.ones(shape))

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
        # orthogonal spans of unequal rank, and spans far apart: the group
        # reads its sines from the SVD of the residual, bit for bit
        e = np.eye(6)
        assert subspace_angle(e[:2], e[2:5]) == np.pi / 2
        assert subspace_angle(e[:3], e[3:4]) == np.pi / 2
        rng = np.random.default_rng(11)
        for r1, r2 in [(1, 1), (2, 2), (3, 3), (2, 3), (4, 2)] * 4:
            a, b = rng.normal(size=(r1, 6)), rng.normal(size=(r2, 6))
            got = subspace_angle(a, b)
            assert np.sin(got) > 0.5
            assert got == svd_route_angle(a, b)

    def test_one_large_sine_moves_its_group_alone(self, monkeypatch):
        # member 1, of rank 1, is orthogonal to its partner and takes its
        # rank group to the SVD route; the rank-2 group keeps the Gram route
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
        assert calls.count(False) == 2  # the two sides of the rank-1 group
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
