"""Numerical verification of the nested bracket-generated structure of the
arm's control distribution.

At a sampled configuration the levels are generated by the steering field
of joint m plus the sphere-tangent fields of all spheres above it; dropping
the steering field gives the integrable sublevel.  The checks are all
distribution-level (ranks, spans of brackets, inclusion residuals), so any
smooth generating family with the same pointwise span may be used: the
default family replaces the chart coordinate fields on each sphere with
projections of fixed ambient axes, which stay smooth across chart
boundaries.  The chart fields themselves remain available (`basis="chart"`)
and must agree wherever both are defined.

All span computations run on embedded coordinates with tangency to the
sphere factors enforced on bracket values; Jacobians for brackets use
central differences.  A field is named by calling its constructor in
`fields`; `bracket_field` is the single-pair bracket, evaluated at a point
of the fields' space with `.at(point)`, and nesting it builds higher
brackets.

`verify_flag` makes one pass per point: each field value, Jacobian and
bracket is computed once, one SVD of each level matrix or derived stack
gives its rank, span and angle side, and the sandwich test reuses them.
Its report carries every per-level number (ranks, involutivity and
inclusion residuals, derived ranks and angles, sandwich indices);
`build_level` gives the generating fields of (D^m, E^m) themselves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from . import fields as fl
from . import hyperspherical as hs
from .arm import AngularConfig, ArmDims
from .fields import Field, field_jacobian
from .numerics import RowSpan, orthonormal_rows, subspace_angle, svd_rank

RESIDUAL_TOL = 1e-6   # involutivity / inclusion gate
EPS_SING = 1e-9       # |A_i| below this marks the configuration singular
BRACKET_H = 1e-5      # central-difference step for bracket Jacobians


def expected_rank_d(dims: ArmDims, m: int) -> int:
    """Rank of level m at any point: (n-m+2)k+1 (level 0 is the whole
    tangent space)."""
    return (dims.n - m + 2) * dims.k + 1


def expected_rank_e(dims: ArmDims, m: int) -> int:
    return (dims.n - m + 2) * dims.k


# ---------------------------------------------------------------------------
# bracket engine
# ---------------------------------------------------------------------------

def bracket_field(x: Field, y: Field, h: float = BRACKET_H) -> Field:
    """[X, Y] = DY.X - DX.Y with central-difference Jacobians, as a field
    itself, so brackets nest: bracket_field(bracket_field(x, y), z)."""
    if x.mode != y.mode or x.dim != y.dim:
        raise ValueError("bracket needs two fields on the same space")

    def fn(pts: np.ndarray) -> np.ndarray:
        out = np.empty_like(pts)
        for row, p in enumerate(pts):
            jx = field_jacobian(x, p, h)
            jy = field_jacobian(y, p, h)
            out[row] = jy @ x.at(p) - jx @ y.at(p)
        return out

    return Field(x.mode, x.dim, fn, f"[{x.label},{y.label}]")


# ---------------------------------------------------------------------------
# generating family and its pairwise brackets at one point
# ---------------------------------------------------------------------------

class _FlagContext:
    """The (n+1)(k+1) generating fields at one configuration, indexed as
    the steering fields X_0^0..X_n^0 followed by k tangent fields for each
    sphere 0..n.  Levels are index lists into `fields`."""

    def __init__(self, q: AngularConfig, basis: str = "projected"):
        if basis not in ("projected", "chart"):
            raise ValueError("basis must be 'projected' or 'chart'")
        dims = q.dims
        self.dims = dims
        if basis == "projected":
            spheres = [fl.sphere_tangent_fields(dims, j, q)
                       for j in range(dims.n + 1)]
        else:
            spheres = [[fl.xi_field(dims, j, i)
                        for i in range(1, dims.k + 1)]
                       for j in range(dims.n + 1)]
        self.fields: list[Field] = (
            [fl.x0_field(dims, m) for m in range(dims.n + 1)]
            + [f for sphere in spheres for f in sphere])

    def e_index(self, m: int) -> list[int]:
        """Generators of the integrable sublevel: sphere tangents m-1..n."""
        if not 1 <= m <= self.dims.n + 1:
            raise IndexError("level needs 1 <= m <= n+1")
        first = self.dims.n + 1 + (m - 1) * self.dims.k
        return list(range(first, len(self.fields)))

    def d_index(self, m: int) -> list[int]:
        """Generators of level m: the steering field of joint m plus the
        sphere tangents above it."""
        return [m - 1] + self.e_index(m)


def _pairs(idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Both members of every pair a < b of `idx`, in row-major order."""
    idx = np.asarray(idx, dtype=int)
    upper = np.triu_indices(idx.size, 1)
    return idx[upper[0]], idx[upper[1]]


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcast over the others.

    A stacked `@`, so each product goes through the same BLAS kernel as
    `x @ y` on single rows and the batched residuals keep the rounding of
    the one-pair-at-a-time arithmetic.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _tangent_project(vecs: np.ndarray, q: AngularConfig) -> np.ndarray:
    """Remove, in place, the radial component on each sphere block of the
    last axis of `vecs` (finite-difference noise: every field is tangent
    to the spheres)."""
    dims = q.dims
    blocks = vecs.reshape(*vecs.shape[:-1], dims.joints,
                          dims.ambient)[..., 1:, :]
    blocks -= _rowdot(blocks, q.z)[..., None] * q.z
    return vecs


def _tangent_basis(q: AngularConfig) -> np.ndarray:
    """Orthonormal rows spanning the whole tangent space at q."""
    dims = q.dims
    k1 = dims.ambient
    rows = [np.eye(dims.cartesian_dim)[:k1]]
    for i, zi in enumerate(q.z, start=1):
        basis = orthonormal_rows(np.eye(k1) - np.outer(zi, zi))
        rows.append(np.zeros((basis.shape[0], dims.cartesian_dim)))
        rows[-1][:, k1 * i:k1 * (i + 1)] = basis
    return np.vstack(rows)


class _PairBrackets:
    """Values, central-difference Jacobians and every pairwise bracket of a
    field family at one configuration.

    With V (F, D) the stacked values and J (F, D, D) the Jacobians,
    `brackets[a, b] = J_b V_a - J_a V_b` is built as one tensor, tangent to
    every sphere block.
    """

    def __init__(self, flds: Sequence[Field], q: AngularConfig, h: float):
        point = q.flat()
        self.values = np.vstack([f.at(point) for f in flds])
        jacs = np.stack([field_jacobian(f, point, h) for f in flds])
        # jv[a, b] = J_b V_a
        jv = np.matmul(jacs[None], self.values[:, None, :, None])[..., 0]
        self.brackets = _tangent_project(jv - jv.transpose(1, 0, 2), q)
        self.norms = np.sqrt(_rowdot(self.values, self.values))

    def worst_residual(self, idx: Sequence[int], span_q: np.ndarray) -> float:
        """Worst normalized component of a bracket of two fields of `idx`
        outside the row span of the orthonormal rows `span_q`.

        Normalization floors at the product of the generator norms so that
        commuting pairs (bracket = pure finite-difference noise) report
        noise, not noise divided by noise.
        """
        a, b = _pairs(idx)
        if a.size == 0:
            return 0.0
        br = self.brackets[a, b]
        resid = br - (br[:, None, :] @ span_q.T @ span_q)[:, 0]
        scale = np.maximum(np.maximum(np.sqrt(_rowdot(br, br)),
                                      self.norms[a] * self.norms[b]), 1e-300)
        return float(np.max(np.sqrt(_rowdot(resid, resid)) / scale))

    def derived_stack(self, idx: Sequence[int]) -> np.ndarray:
        """The fields of `idx` together with all their pairwise brackets."""
        a, b = _pairs(idx)
        return np.vstack([self.values[idx], self.brackets[a, b]])


# ---------------------------------------------------------------------------
# generating fields of one level
# ---------------------------------------------------------------------------

def build_level(q: AngularConfig, m: int, basis: str = "projected"
                ) -> tuple[list[Field], list[Field]]:
    """Generating fields of (D^m, E^m) at q, for m = 1..n+1.

    E^m spans the sphere tangents of spheres m-1..n; D^m adds the steering
    field of joint m in front.  basis="chart" uses the chart coordinate
    fields as the sphere-tangent family and fails at degenerate charts.
    """
    ctx = _FlagContext(q, basis=basis)
    flds = [ctx.fields[i] for i in ctx.d_index(m)]
    return flds, flds[1:]


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointClassification:
    singular: bool
    indices: tuple[int, ...]   # i with A_i ~ 0, 1-based
    a_values: np.ndarray

    @property
    def verdict(self) -> str:
        return "singular" if self.singular else "regular"


def classify_point(q: AngularConfig) -> PointClassification:
    """Singular iff some consecutive segments are (numerically) orthogonal:
    |A_i| < EPS_SING."""
    a = fl.a_values(q)
    idx = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(a) < EPS_SING))
    return PointClassification(singular=bool(idx), indices=idx, a_values=a)


# ---------------------------------------------------------------------------
# full verification
# ---------------------------------------------------------------------------

@dataclass
class LevelReport:
    m: int
    rank_d: int
    rank_e: int
    expected_rank_d: int
    expected_rank_e: int
    involutivity_e: float
    cauchy_residual: Optional[float]  # None at the top level

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "rank_D": self.rank_d,
            "rank_E": self.rank_e,
            "expected_rank_D": self.expected_rank_d,
            "expected_rank_E": self.expected_rank_e,
            "involutivity_E": self.involutivity_e,
            "cauchy_residual": self.cauchy_residual,
        }


@dataclass
class DerivedReport:
    m: int                 # target level: brackets of level m+1 vs level m
    rank: int
    expected_rank: int
    angle: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FlagReport:
    """Everything `verify_flag` measured at one configuration; the verdicts
    are recomputable from the recorded numbers alone."""

    dims: ArmDims
    point: dict
    a_values: list
    verdict: str
    singular_indices: tuple
    sandwich_indices: tuple
    levels: list[LevelReport]
    derived: list[DerivedReport]
    delta_involutivity: float
    basis: str
    svd_tol: float
    bracket_h: float
    passed: bool
    failures: list[str] = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "k": self.dims.k,
            "n": self.dims.n,
            "point": self.point,
            "A": self.a_values,
            "verdict": self.verdict,
            "singular_indices": list(self.singular_indices),
            "sandwich_indices": list(self.sandwich_indices),
            "levels": [lv.to_dict() for lv in self.levels],
            "derived": [dv.to_dict() for dv in self.derived],
            "delta_involutivity": self.delta_involutivity,
            "basis": self.basis,
            "tolerances": {"svd": self.svd_tol, "bracket_h": self.bracket_h,
                           "residual": RESIDUAL_TOL},
            "passed": self.passed,
            "failures": self.failures,
        }

    def render(self) -> str:
        """Text sandwich diagram with the measured ranks per level."""
        n = self.dims.n
        top = "  ".join([f"D^{m}" for m in range(n + 1, 0, -1)] + ["D^0=TM"])
        down = sorted(self.levels, key=lambda l: -l.m)
        ranks_d = "  ".join([f"{lv.rank_d:3d}" for lv in down]
                            + [f"{expected_rank_d(self.dims, 0):3d}"])
        bottom = "  ".join([f"E^{m}" for m in range(n + 1, 0, -1)])
        ranks_e = "  ".join(f"{lv.rank_e:3d}" for lv in down)
        lines = [
            f"flag report (k={self.dims.k}, n={self.dims.n}, "
            f"basis={self.basis})",
            f"  {top}",
            f"  {ranks_d}",
            f"  {bottom}",
            f"  {ranks_e}",
            f"  verdict: {self.verdict}"
            + (f" at indices {list(self.singular_indices)}"
               if self.singular_indices else ""),
            f"  derived spans: " + ", ".join(
                f"[{d.m + 1}]->{d.m}: rank {d.rank} angle {d.angle:.2e}"
                for d in self.derived),
            f"  involutivity: max {max(lv.involutivity_e for lv in self.levels):.2e}"
            f"; top-level non-involutivity {self.delta_involutivity:.2e}",
            f"  {'PASS' if self.passed else 'FAIL: ' + '; '.join(self.failures)}",
        ]
        return "\n".join(lines)


def verify_flag(q: AngularConfig, tol: float = 1e-8, h: float = BRACKET_H,
                basis: str = "projected") -> FlagReport:
    """Measure ranks, derived spans, involutivity and inclusion residuals at
    q, classify the point, and aggregate pass/fail per condition.

    The structural conditions are asserted by the caller only at regular
    points; singular points get the same measurements recorded with a
    `singular` verdict and never raise.
    """
    dims = q.dims
    ctx = _FlagContext(q, basis=basis)
    pb = _PairBrackets(ctx.fields, q, h)
    cls = classify_point(q)

    failures: list[str] = []
    levels: list[LevelReport] = []
    # one SVD per level matrix: ranks at tol, residual spans at 1e-8; the
    # D^m spans are also the targets of the derived-span angles
    spans_d = [RowSpan(pb.values[ctx.d_index(m)])
               for m in range(1, dims.n + 2)]
    for m, span_d in enumerate(spans_d, start=1):
        e_idx = ctx.e_index(m)
        span_e = RowSpan(pb.values[e_idx])
        rank_d, rank_e = span_d.rank(tol), span_e.rank(tol)
        inv = pb.worst_residual(e_idx, span_e.rows())
        cauchy = (pb.worst_residual(ctx.d_index(m + 1), span_d.rows())
                  if m <= dims.n else None)
        lv = LevelReport(m=m, rank_d=rank_d, rank_e=rank_e,
                         expected_rank_d=expected_rank_d(dims, m),
                         expected_rank_e=expected_rank_e(dims, m),
                         involutivity_e=inv, cauchy_residual=cauchy)
        levels.append(lv)
        if rank_d != lv.expected_rank_d:
            failures.append(f"rank D^{m} = {rank_d} != {lv.expected_rank_d}")
        if rank_e != lv.expected_rank_e:
            failures.append(f"rank E^{m} = {rank_e} != {lv.expected_rank_e}")
        if inv >= RESIDUAL_TOL:
            failures.append(f"E^{m} involutivity residual {inv:.2e}")
        if cauchy is not None and cauchy >= RESIDUAL_TOL:
            failures.append(f"Cauchy inclusion at level {m}: {cauchy:.2e}")
    # top-level non-involutivity (bracket-generating witness, not a gate)
    delta_inv = pb.worst_residual(ctx.d_index(dims.n + 1), spans_d[-1].rows())
    # sandwich test: index l fails when the steering field of joint l
    # already lies in E^l (no rank increase); at k = 1 the A_i decide
    sandwich = (tuple(l for l in range(1, dims.n + 1)
                      if svd_rank(pb.values[ctx.e_index(l) + [l]], tol)
                      == levels[l - 1].rank_e)
                if dims.k >= 2 else cls.indices)

    derived: list[DerivedReport] = []
    for m in range(dims.n, -1, -1):
        stack = RowSpan(pb.derived_stack(ctx.d_index(m + 1)))
        rank = stack.rank(tol)
        target = spans_d[m - 1] if m >= 1 else _tangent_basis(q)
        angle = subspace_angle(stack, target, tol)
        dv = DerivedReport(m=m, rank=rank,
                           expected_rank=expected_rank_d(dims, m),
                           angle=angle)
        derived.append(dv)
        if rank != dv.expected_rank:
            failures.append(
                f"derived rank of [D^{m + 1},D^{m + 1}] = {rank} "
                f"!= {dv.expected_rank}")
        if angle >= RESIDUAL_TOL:
            failures.append(f"derived span angle at level {m}: {angle:.2e}")

    return FlagReport(
        dims=dims,
        point={"x0": q.x0.tolist(), "z": q.z.tolist()},
        a_values=cls.a_values.tolist(),
        verdict=cls.verdict,
        singular_indices=cls.indices,
        sandwich_indices=sandwich,
        levels=levels,
        derived=sorted(derived, key=lambda d: d.m),
        delta_involutivity=delta_inv,
        basis=basis,
        svd_tol=tol,
        bracket_h=h,
        passed=not failures,
        failures=failures)


# ---------------------------------------------------------------------------
# chart-built basis of the steering plane (used by tests as a cross-check)
# ---------------------------------------------------------------------------

def chart_delta_basis(q: AngularConfig, m: int) -> np.ndarray:
    """The k+1 combinations (k+1, D) of {X_{m-1}^0, X_{m-1}^r} with
    chart-frame coefficients that span the steering plane of joint m-1; the
    span is what matters (coefficient normalization drops out of it)."""
    if not 1 <= m <= q.dims.n:
        raise IndexError("needs 1 <= m <= n")
    dims = q.dims
    point = q.flat()
    theta = q.angles(m - 1)
    val, jac = hs.unit_and_jacobian(theta)
    norms = hs.frame_norms(theta)
    x0v = fl.x0_field(dims, m - 1).at(point)
    xiv = [fl.xi_field(dims, m - 1, i).at(point) for i in range(1, dims.k + 1)]
    vecs = []
    for j in range(dims.k + 1):
        v = val[0][j] * x0v
        for r in range(dims.k):
            v = v + (jac[0][j, r] / norms[r]) * xiv[r]
        vecs.append(v)
    return np.vstack(vecs)
