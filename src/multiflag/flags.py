"""Numerical verification of the nested bracket-generated structure of the
arm's control distribution.

At a sampled configuration level m is generated by the steering field of
joint m plus the sphere-tangent fields of all spheres above it; dropping
the steering field gives the integrable sublevel.  The checks are all
distribution-level (ranks, spans of brackets, inclusion residuals), so any
smooth generating family with the same pointwise span serves: the default
projects fixed ambient axes onto each sphere, smooth across chart
boundaries, and the chart fields (`basis="chart"`) must agree wherever both
are defined.  Spans are computed on embedded coordinates, with tangency to
the spheres enforced on bracket values.  Both families are analytic, so
their brackets take complex-step derivatives, exact to rounding;
`bracket_field`, the single-pair bracket, takes central differences, since
it nests: bracket_field(bracket_field(x, y), z).

Each field declares the ambient blocks it reads and writes, and J_c V_a is
0 unless a writes a block that c reads.  Tangent fields of different
spheres therefore commute, and the steering field X_m^0, which reads
spheres 0..m, brackets nonzero inside a level only with the tangents of
sphere m; the engine holds only the pairs some level reads that have such
a term, and every other pair a level reads is one shared zero row.

`verify_flags` measures the points of one shape together, one block of
points at a time: each field is evaluated in one call at the block's
points and in one at the probe rows of the terms it enters, every held
bracket is computed once, and one stacked SVD of each level matrix or
derived stack gives every point its rank, span and angle side; the
sandwich test reuses them.  Points whose ranks differ are read in groups
of equal rank, so each gets exactly the numbers it gets alone.
`verify_flag` is the one-point call; a report carries every per-level
number, and `build_level` gives the generating fields of (D^m, E^m)
themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from . import fields as fl
from .arm import AngularConfig, ArmDims
from .fields import Field, field_jacobian
from .numerics import (RowSpan, orthonormal_rows, rank_groups, subspace_angle,
                       svd_rank)

RESIDUAL_TOL = 1e-6   # involutivity / inclusion gate
EPS_SING = 1e-9       # |A_i| below this marks the configuration singular
BRACKET_H = 1e-5      # central-difference step of bracket_field
COMPLEX_STEP = 1e-30  # imaginary step of the flag pass's brackets
# Byte budget of the level-1 derived stack of one block of points.
BLOCK_BYTES = 576 * 1024


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

    return Field(x.mode, x.dim, fn, f"[{x.label},{y.label}]",
                 x.reads | y.reads, x.writes | y.writes)


# ---------------------------------------------------------------------------
# generating family and its pairwise brackets at a batch of points
# ---------------------------------------------------------------------------

class _FlagContext:
    """The generating family of one (k,n) shape at a batch of
    configurations with segment rows z (B, n+1, k+1).

    Each sample's family is (n+1)(k+1) fields: the steering fields
    X_0^0..X_n^0 followed by k tangent fields for each sphere 0..n.  Levels
    are index lists into that family.  `fields` holds every field any
    sample uses; `keep` (B, F) gives each sample's family as indices into
    it.  The projected basis holds all k+1 axes of each sphere and keeps,
    per sample, the k of `fields.tangent_axes`.  `probe`, `pair` and
    `held` are the family's `_support_table`.
    """

    def __init__(self, dims: ArmDims, z: np.ndarray,
                 basis: str = "projected"):
        if basis not in ("projected", "chart"):
            raise ValueError("basis must be 'projected' or 'chart'")
        self.dims = dims
        n1, k = dims.n + 1, dims.k
        steering = [fl.x0_field(dims, m) for m in range(n1)]
        if basis == "projected":
            self.fields = steering + [fl.sphere_axis_field(dims, j, a)
                                      for j in range(n1)
                                      for a in range(k + 1)]
            spheres = (n1 + (k + 1) * np.arange(n1)[:, None]
                       + fl.tangent_axes(z)).reshape(len(z), -1)
        else:
            self.fields = steering + [fl.xi_field(dims, j, i)
                                      for j in range(n1)
                                      for i in range(1, k + 1)]
            spheres = np.broadcast_to(np.arange(n1, len(self.fields)),
                                      (len(z), n1 * k))
        self.keep = np.hstack([np.broadcast_to(np.arange(n1), (len(z), n1)),
                               spheres])
        # the fields a position holds share their blocks in every sample
        family = [self.fields[i] for i in self.keep[0]]
        self.probe, self.pair, self.held = _support_table(
            tuple(f.reads for f in family), tuple(f.writes for f in family),
            tuple(tuple(self.d_index(m)) for m in range(1, n1 + 1)))

    def e_index(self, m: int) -> list[int]:
        """Generators of the integrable sublevel: sphere tangents m-1..n."""
        if not 1 <= m <= self.dims.n + 1:
            raise IndexError("level needs 1 <= m <= n+1")
        first = self.dims.n + 1 + (m - 1) * self.dims.k
        return list(range(first, self.keep.shape[1]))

    def d_index(self, m: int) -> list[int]:
        """Generators of level m: the steering field of joint m plus the
        sphere tangents above it."""
        return [m - 1] + self.e_index(m)


@functools.lru_cache(maxsize=None)
def _upper(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(size, 1)


@functools.lru_cache(maxsize=None)
def _support_table(reads: tuple, writes: tuple, levels: tuple
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """The bracket terms a family can make nonzero, from the blocks
    reads[p] and writes[p] of each position p and the level index lists.

    `probe` (F, F) marks the terms J_c V_a, c != a, that some level reads
    and that can be nonzero: a writes a block c reads.  `number` (F, F)
    numbers each pair: the `held` pairs with such a term 0..held-1, in the
    row-major order of `_pairs`; the other pairs a level reads `held`, the
    one zero row; pairs no level reads held+1, so that reading one raises.
    """
    size = len(reads)
    a, b = _upper(size)
    read = np.zeros((size, size), dtype=bool)
    for idx in levels:
        read[np.ix_(idx, idx)] = True
    np.fill_diagonal(read, False)
    probe = read & np.array([[not rc.isdisjoint(wa) for wa in writes]
                             for rc in reads])
    has_term = (probe | probe.T)[a, b]
    held = int(has_term.sum())
    number = np.zeros((size, size), dtype=int)
    number[a, b] = number[b, a] = np.where(
        has_term, np.cumsum(has_term) - 1, np.where(read[a, b], held,
                                                     held + 1))
    probe.setflags(write=False)  # cached: every block shares them
    number.setflags(write=False)
    return probe, number, held


def _pairs(idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Both members of every pair a < b of `idx`, in row-major order."""
    idx = np.asarray(idx, dtype=int)
    upper = _upper(idx.size)
    return idx[upper[0]], idx[upper[1]]


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcast over the others.

    A stacked `@`, so each product goes through the same BLAS kernel as
    `x @ y` on single rows and the batched residuals keep the rounding of
    the one-pair-at-a-time arithmetic.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _tangent_project(vecs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Remove, in place, the radial component on each sphere block of the
    last axis of `vecs` (B, ..., D), with segment rows z (B, n+1, k+1)
    (derivative noise: every field is tangent to the spheres)."""
    b, spheres, k1 = z.shape
    blocks = vecs.reshape(vecs.shape[:-1] + (spheres + 1, k1))[..., 1:, :]
    z = z.reshape((b,) + (1,) * (vecs.ndim - 2) + (spheres, k1))
    blocks -= _rowdot(blocks, z)[..., None] * z
    return vecs


def _tangent_basis(dims: ArmDims, z: np.ndarray) -> np.ndarray:
    """Orthonormal rows (B, angular_dim, D) spanning the whole tangent
    space at each configuration of segment rows z (B, n+1, k+1)."""
    k, k1 = dims.k, dims.ambient
    sphere = orthonormal_rows(np.eye(k1) - z[..., :, None] * z[..., None, :])
    out = np.zeros((len(z), dims.angular_dim, dims.cartesian_dim))
    out[:, :k1, :k1] = np.eye(k1)
    for i in range(dims.n + 1):
        out[:, k1 + k * i:k1 + k * (i + 1),
            k1 * (i + 1):k1 * (i + 2)] = sphere[:, i]
    return out


class _PairBrackets:
    """Values, directional derivatives and the pairwise brackets a level
    can make nonzero of the generating family at a batch of points (B, D).

    With V (B, F, D) the family's values and J_c the Jacobian of field c,
    the bracket of the pair a < b is J_b V_a - J_a V_b, tangent to every
    sphere block.  J_c V_a is 0 unless a writes a block that c reads
    (`Field.reads`, `Field.writes`), so `brackets` (B, held+1, D) holds
    only the pairs with such a term, numbered by `pair` in the row-major
    order of `_pairs`, and every other pair a level reads is the one
    all-zero row `held`.  At (k,n) = (3,4) that is 30 of the 150 pairs the
    levels read (190 in all): the tangent pairs of one sphere and each
    steering field X_m^0 with the tangents of sphere m.  Each field is
    evaluated in one call at the points that keep it (none: no call) and
    in one at the complex rows p + i t V_a of each term it enters, which
    give J_c V_a = Im X_c / t, exact to rounding (complex step,
    Squire-Trapp 1998); the terms go straight into their pairs.
    """

    def __init__(self, ctx: _FlagContext, points: np.ndarray, z: np.ndarray):
        b, d = points.shape
        kept = [np.nonzero(ctx.keep == c) for c in range(len(ctx.fields))]
        self.values = np.empty(ctx.keep.shape + (d,))
        for fld, (rows, pos) in zip(ctx.fields, kept):
            if rows.size:
                self.values[rows, pos] = fld(points[rows])
        self.pair, self.held = ctx.pair, ctx.held
        self.brackets = np.zeros((b, ctx.held + 1, d))
        for fld, (rows, pos) in zip(ctx.fields, kept):
            at, other = np.nonzero(ctx.probe[pos])
            if not at.size:
                continue
            rows, pos = rows[at], pos[at]
            jv = fld(points[rows] + 1j * COMPLEX_STEP
                     * self.values[rows, other]).imag / COMPLEX_STEP
            # J_c V_a enters the pair of a and c with + if a < c, else
            # with -; a pair is 0 + J_b V_a - J_a V_b in either order,
            # which rounds like the difference itself
            jv[other > pos] *= -1.0
            self.brackets[rows, self.pair[other, pos]] += jv
        _tangent_project(self.brackets, z)
        self.norms = np.sqrt(_rowdot(self.values, self.values))

    def worst_residual(self, idx: Sequence[int], span: RowSpan) -> np.ndarray:
        """Per point, the worst normalized component of a bracket of two
        fields of `idx` outside the span's rows kept at 1e-8.

        Normalization floors at the product of the generator norms so that
        commuting pairs (bracket = pure derivative noise) report noise, not
        noise divided by noise.
        """
        a, b = _pairs(idx)
        rows = self.pair[a, b]
        # a pair without a term adds 0 to the maximum
        held = rows < self.held
        a, b, rows = a[held], b[held], rows[held]
        if a.size == 0:
            return np.zeros(len(self.values))
        br = self.brackets[:, rows]
        scale = np.maximum(np.maximum(np.sqrt(_rowdot(br, br)),
                                      self.norms[:, a] * self.norms[:, b]),
                           1e-300)
        for (r,), sel in rank_groups(span.rank()):
            q = span.vt[sel, :r]
            br[sel] -= (br[sel][:, :, None, :] @ q.swapaxes(1, 2)[:, None]
                        @ q[:, None])[:, :, 0]
        return np.max(np.sqrt(_rowdot(br, br)) / scale, axis=1)

    def derived_stack(self, idx: Sequence[int]) -> np.ndarray:
        """The fields of `idx` together with all their pairwise brackets."""
        a, b = _pairs(idx)
        return np.concatenate([self.values[:, idx],
                               self.brackets[:, self.pair[a, b]]], axis=1)


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
    ctx = _FlagContext(q.dims, q.z[None], basis=basis)
    flds = [ctx.fields[i] for i in ctx.keep[0, ctx.d_index(m)]]
    return flds, flds[1:]


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
        return {"m": self.m, "rank_D": self.rank_d, "rank_E": self.rank_e,
                "expected_rank_D": self.expected_rank_d,
                "expected_rank_E": self.expected_rank_e,
                "involutivity_E": self.involutivity_e,
                "cauchy_residual": self.cauchy_residual}


@dataclass
class DerivedReport:
    m: int                 # target level: brackets of level m+1 vs level m
    rank: int
    expected_rank: int
    angle: float

    def to_dict(self) -> dict:
        return {"m": self.m, "rank": self.rank,
                "expected_rank": self.expected_rank, "angle": self.angle}


@dataclass
class FlagReport:
    """Everything `verify_flags` measured at one configuration; the
    verdicts are recomputable from the recorded numbers alone."""

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
            "tolerances": {"svd": self.svd_tol, "residual": RESIDUAL_TOL,
                           "bracket_derivative": "complex-step"},
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


def verify_flags(qs: Sequence[AngularConfig], tol: float = 1e-8,
                 basis: str = "projected") -> list[FlagReport]:
    """Measure ranks, derived spans, involutivity and inclusion residuals at
    each configuration of one (k,n) shape, classify the points, and
    aggregate pass/fail per condition; one report per configuration.

    The points are measured together, in blocks sized by BLOCK_BYTES.  The
    caller asserts the conditions only at regular points; singular ones get
    the same measurements recorded with a `singular` verdict and never
    raise.
    """
    qs = list(qs)
    if not qs:
        return []
    dims = qs[0].dims
    if any(q.dims != dims for q in qs):
        raise ValueError("verify_flags needs configurations of one shape")
    rows = (dims.n + 1) * dims.k + 1
    size = max(1, BLOCK_BYTES // (4 * rows * (rows + 1) * dims.cartesian_dim))
    return [rep for start in range(0, len(qs), size)
            for rep in _verify_block(qs[start:start + size], tol, basis)]


def verify_flag(q: AngularConfig, tol: float = 1e-8,
                basis: str = "projected") -> FlagReport:
    """`verify_flags` at the one configuration q."""
    return verify_flags([q], tol=tol, basis=basis)[0]


def _verify_block(qs: list[AngularConfig], tol: float,
                  basis: str) -> list[FlagReport]:
    dims = qs[0].dims
    n = dims.n
    z = np.stack([q.z for q in qs])
    ctx = _FlagContext(dims, z, basis=basis)
    pb = _PairBrackets(ctx, np.stack([q.flat() for q in qs]), z)

    # one stacked SVD per level matrix: ranks at tol, residual spans at
    # 1e-8; the D^m spans are also the targets of the derived-span angles
    spans_d = [RowSpan(pb.values[:, ctx.d_index(m)]) for m in range(1, n + 2)]
    spans_e = [RowSpan(pb.values[:, ctx.e_index(m)]) for m in range(1, n + 2)]
    ranks_d = [s.rank(tol) for s in spans_d]
    ranks_e = [s.rank(tol) for s in spans_e]
    inv = [pb.worst_residual(ctx.e_index(m), spans_e[m - 1])
           for m in range(1, n + 2)]
    cauchy = [pb.worst_residual(ctx.d_index(m + 1), spans_d[m - 1])
              for m in range(1, n + 1)]
    # top-level non-involutivity (bracket-generating witness, not a gate)
    delta_inv = pb.worst_residual(ctx.d_index(n + 1), spans_d[-1])
    # sandwich test: index l fails when the steering field of joint l
    # already lies in E^l (no rank increase); at k = 1 the A_i decide
    stalls = ([svd_rank(pb.values[:, ctx.e_index(l) + [l]], tol)
               == ranks_e[l - 1] for l in range(1, n + 1)]
              if dims.k >= 2 else None)
    # brackets of level m+1 against level m (level 0: the tangent space)
    stacks = [RowSpan(pb.derived_stack(ctx.d_index(m + 1)))
              for m in range(n + 1)]
    derived_rank = [s.rank(tol) for s in stacks]
    derived_angle = [subspace_angle(s, spans_d[m - 1] if m else
                                    _tangent_basis(dims, z), tol)
                     for m, s in enumerate(stacks)]

    # the one singular-point rule: the i (1-based) with |A_i| < EPS_SING
    a_values = fl.a_chain(z)
    sing = [tuple(int(i) + 1 for i in np.flatnonzero(row))
            for row in np.abs(a_values) < EPS_SING]
    reports = []
    for j, q in enumerate(qs):
        levels = [LevelReport(m, int(ranks_d[m - 1][j]),
                              int(ranks_e[m - 1][j]),
                              expected_rank_d(dims, m),
                              expected_rank_e(dims, m), float(inv[m - 1][j]),
                              float(cauchy[m - 1][j]) if m <= n else None)
                  for m in range(1, n + 2)]
        derived = [DerivedReport(m, int(derived_rank[m][j]),
                                 expected_rank_d(dims, m),
                                 float(derived_angle[m][j]))
                   for m in range(n + 1)]
        failures = _failures(levels, derived)
        reports.append(FlagReport(
            dims, {"x0": q.x0.tolist(), "z": q.z.tolist()},
            a_values[j].tolist(), "singular" if sing[j] else "regular",
            sing[j], (tuple(l for l in range(1, n + 1) if stalls[l - 1][j])
                      if stalls is not None else sing[j]),
            levels, derived, float(delta_inv[j]), basis, tol,
            not failures, failures))
    return reports


def _failures(levels: list[LevelReport],
              derived: list[DerivedReport]) -> list[str]:
    """The failed conditions: level by level, then the derived spans from
    the top level down."""
    out = []
    for lv in levels:
        m, cauchy = lv.m, lv.cauchy_residual
        if lv.rank_d != lv.expected_rank_d:
            out.append(f"rank D^{m} = {lv.rank_d} != {lv.expected_rank_d}")
        if lv.rank_e != lv.expected_rank_e:
            out.append(f"rank E^{m} = {lv.rank_e} != {lv.expected_rank_e}")
        if lv.involutivity_e >= RESIDUAL_TOL:
            out.append(f"E^{m} involutivity residual {lv.involutivity_e:.2e}")
        if cauchy is not None and cauchy >= RESIDUAL_TOL:
            out.append(f"Cauchy inclusion at level {m}: {cauchy:.2e}")
    for dv in derived[::-1]:
        m = dv.m
        if dv.rank != dv.expected_rank:
            out.append(f"derived rank of [D^{m + 1},D^{m + 1}] = {dv.rank} "
                       f"!= {dv.expected_rank}")
        if dv.angle >= RESIDUAL_TOL:
            out.append(f"derived span angle at level {m}: {dv.angle:.2e}")
    return out
