"""Numerical verification of the nested bracket-generated structure of the
arm's control distribution.

At a sampled configuration level D^m is generated by the steering field of
joint m plus the sphere-tangent fields of all spheres above it; dropping
the steering field gives the integrable sublevel E^m.  The checks are
distribution-level (ranks, spans of brackets, inclusion residuals), so
each shape and basis has one fixed generating family (`_family`), evaluated
sphere by sphere (its frame of k tangents and its steering field), whose
brackets the pass takes by complex step (`_PairBrackets`); `bracket_field`,
the single-pair bracket, takes central differences, since it nests.

`verify_flags` measures the points of one shape in the calling thread, a
block of points at a time.  Every matrix it decomposes is block diagonal
over the ambient blocks the fields declare they write (`_family`), so it
takes one stacked SVD per kind of block for all points and levels, never
one of a whole level matrix or derived stack: a rank counts the blocks'
singular values above tol times the largest of the whole matrix, a span is
the blocks' kept singular directions, and a derived-span angle is the
largest of its blocks' angles.  `verify_flag` is the one-point call, and
`build_level` gives the generating fields of (D^m, E^m).

The level rank gates are close to structural: E^m's rank is the sum of its
spheres' ranks, k each wherever the tangent fields span, and D^m adds
X_{m-1}^0, which writes none of their blocks.  What is particular to the
arm lies in the bracket gates: the derived spans, the involutivity of E^m
and the derived inclusion [D^{m+1}, D^{m+1}] in D^m.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii as _json_string
from typing import Optional, Sequence

import numpy as np

from . import fields as fl
from .arm import AngularConfig, ArmDims
from .fields import Field, field_jacobian
from .numerics import (RowSpan, orthonormal_rows, singular_values, span_angle,
                       subspace_angle, svd_rank)

# unused by the pass, wrapped here by name by bench/tracing.py
_WRAPPED = (svd_rank, orthonormal_rows, subspace_angle)

RESIDUAL_TOL = 1e-6   # involutivity / inclusion gate
EPS_SING = 1e-9       # |A_i| below this marks the configuration singular
BRACKET_H = 1e-5      # central-difference step of bracket_field
COMPLEX_STEP = 1e-30  # imaginary step of the flag pass's brackets
# Byte budget of the bracket array (points x rows x dimension, float64) of
# one block of points: 22 points at (3,4), 151 at (2,2).
BLOCK_BYTES = 128 * 1024


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

def _e_index(dims: ArmDims, m: int) -> list[int]:
    """Family positions of the integrable sublevel E^m: the tangents of
    spheres m-1..n."""
    if not 1 <= m <= dims.n + 1:
        raise IndexError("level needs 1 <= m <= n+1")
    first = dims.n + 1 + (m - 1) * dims.k
    return list(range(first, (dims.n + 1) * (dims.k + 1)))


def _d_index(dims: ArmDims, m: int) -> list[int]:
    """Family positions of level D^m: the steering field of joint m plus
    the sphere tangents above it."""
    return [m - 1] + _e_index(dims, m)


@functools.lru_cache(maxsize=None)
def _family(dims: ArmDims, basis: str) -> tuple:
    """The generating family of one (k,n) shape and basis, the calls that
    evaluate it, and its bracket rows: (fields, frames, tangent, cols,
    inner, steer, ends).

    The (n+1)(k+1) fields are the steering fields X_0^0..X_n^0 followed by
    k tangent fields for each sphere 0..n, at family positions tangent[j]:
    the slots of `fields.sphere_axis_frame`, which pick their axes at the
    point, or the chart fields.  Levels are the position lists `_d_index`
    and `_e_index`.  frames[j] evaluates sphere j's tangents in one call,
    values (B, k, D): its `sphere_axis_frame`, or its k chart fields
    stacked.  The tangents write the one block of columns cols[j], read
    off their declared `writes`.  The brackets a level can make nonzero
    are those among one sphere's tangents and those of X_j^0 with sphere
    j's tangents, so the rows are numbered sphere by sphere: inner[j] the
    k(k-1)/2 tangent pairs a < c, then steer[j] the k pairs of X_j^0 with
    the tangents; ends (rows, 2) gives each row's two family positions.
    X_m^0 and these brackets write blocks 0..m, none of a sphere m..n, so
    each matrix of the pass is one block per sphere beside one of X_m^0,
    and a sphere's block with its brackets is the same at every level.
    """
    if basis not in ("projected", "chart"):
        raise ValueError("basis must be 'projected' or 'chart'")
    n1, k, k1 = dims.n + 1, dims.k, dims.ambient
    if basis == "projected":
        tangents = [fl.sphere_axis_field(dims, j, slot) for j in range(n1)
                    for slot in range(k)]
        frames = [fl.sphere_axis_frame(dims, j) for j in range(n1)]
    else:
        tangents = [fl.xi_field(dims, j, slot + 1) for j in range(n1)
                    for slot in range(k)]
        frames = [lambda y, fs=tuple(tangents[j * k:(j + 1) * k]):
                  np.stack([f(y) for f in fs], axis=1) for j in range(n1)]
    fields = tuple([fl.x0_field(dims, m) for m in range(n1)] + tangents)
    tangent = np.arange(n1, n1 * (k + 1)).reshape(n1, k)
    writes = [set().union(*(fields[i].writes for i in row)) for row in tangent]
    cols = np.array([k1 * blk + np.arange(k1) for (blk,) in writes])
    a, c = np.triu_indices(k, 1)
    rows = np.arange(n1 * k * (k + 1) // 2).reshape(n1, -1)
    inner, steer = rows[:, :a.size], rows[:, a.size:]
    steering = np.repeat(np.arange(n1)[:, None], k, axis=1)
    ends = np.stack([np.hstack([tangent[:, a], steering]),
                     np.hstack([tangent[:, c], tangent])], axis=-1
                    ).reshape(-1, 2)
    for arr in (tangent, cols, inner, steer, ends):
        arr.setflags(write=False)  # cached: every block shares them
    return fields, tuple(frames), tangent, cols, inner, steer, ends


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


class _PairBrackets:
    """Values, directional derivatives and the pairwise brackets a level
    can make nonzero of a shape's `_family` at a batch of points (B, D).

    With V (B, F, D) the family's values and J_c the Jacobian of field c,
    the bracket of the pair a < c is J_c V_a - J_a V_c, tangent to every
    sphere block.  J_c V_a is 0 unless a writes a block that c reads
    (`Field.reads`, `Field.writes`), so a level's other pairs are 0 and
    `brackets` (B, rows, D) holds the rows of `_family`: at (k,n) = (3,4)
    30 of the 150 pairs the levels read.  Sphere by sphere, its frame and
    X_j^0 are called once at all the points and once at the k complex rows
    p + i t V_a of its tangents, which give J_c V_a = Im X_c / t, exact to
    rounding (complex step, Squire-Trapp 1998).  Each row accumulates on
    zeros, a tangent pair as 0 + J_c V_a - J_a V_c and a steering pair as
    0 - J_X V_a (no tangent of sphere j reads a block X_j^0 writes), which
    rounds like the difference itself.
    """

    def __init__(self, family: tuple, points: np.ndarray, z: np.ndarray):
        fields, frames, tangent, _, inner, steer, self.ends = family
        (b, d), k = points.shape, tangent.shape[1]
        a, c = np.triu_indices(k, 1)
        self.values = np.empty((b, len(fields), d))
        self.brackets = np.zeros((b, self.ends.shape[0], d))
        for j, frame in enumerate(frames):
            x = fields[j]
            self.values[:, j] = x(points)
            self.values[:, tangent[j]] = frame(points)
            probes = (points[:, None] + 1j * COMPLEX_STEP
                      * self.values[:, tangent[j]]).reshape(-1, d)
            jt = frame(probes).imag.reshape(b, k, k, d) / COMPLEX_STEP
            jx = x(probes).imag.reshape(b, k, d) / COMPLEX_STEP
            self.brackets[:, inner[j]] += jt[:, a, c]
            self.brackets[:, inner[j]] -= jt[:, c, a]
            self.brackets[:, steer[j]] -= jx
        _tangent_project(self.brackets, z)
        self.norms = np.sqrt(_rowdot(self.values, self.values))

    def worst_residual(self, rows: np.ndarray, span: np.ndarray
                       ) -> np.ndarray:
        """Per point, the worst normalized component of the bracket rows
        `rows` outside the span of the orthonormal rows `span` (B, r, D),
        zero rows standing for dropped directions.

        Normalization floors at the product of the generator norms so that
        commuting pairs (bracket = pure derivative noise) report noise, not
        noise divided by noise.
        """
        if rows.size == 0:
            return np.zeros(len(self.values))
        a, c = self.ends[rows].T
        br = self.brackets[:, rows]
        scale = np.maximum(np.maximum(np.sqrt(_rowdot(br, br)),
                                      self.norms[:, a] * self.norms[:, c]),
                           1e-300)
        br -= (br[:, :, None, :] @ span.swapaxes(1, 2)[:, None]
               @ span[:, None])[:, :, 0]
        return np.max(np.sqrt(_rowdot(br, br)) / scale, axis=1)


# ---------------------------------------------------------------------------
# generating fields of one level
# ---------------------------------------------------------------------------

def build_level(dims: ArmDims, m: int, basis: str = "projected"
                ) -> tuple[list[Field], list[Field]]:
    """Generating fields of (D^m, E^m) for the shape dims, m = 1..n+1:
    members of its family, the same fields at every configuration.

    E^m spans the sphere tangents of spheres m-1..n; D^m adds the steering
    field of joint m in front.  basis="chart" uses the chart coordinate
    fields as the sphere-tangent family and fails at degenerate charts.
    """
    fields = _family(dims, basis)[0]
    flds = [fields[i] for i in _d_index(dims, m)]
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
    # derived inclusion [D^{m+1}, D^{m+1}] in D^m (not the Cauchy
    # characteristic); None at the top level
    cauchy_residual: Optional[float]

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

    def json_text(self) -> str:
        """The text of `json.dumps(self.to_dict(), sort_keys=True)`, as one
        `%` fill of the template of its shape, basis and svd tol
        (`_report_template`), for a report as `verify_flags` makes it:
        plain floats and ints and the levels of its shape.  A report whose
        floats do not sum to a finite Python float, as one holding a nan,
        an infinity or a numpy float, is encoded whole: %r writes `nan`
        where json writes `NaN`."""
        head = [*self.a_values, self.delta_involutivity]
        for dv in self.derived:
            head += (dv.angle, dv.rank)
        levels = []
        for lv in self.levels:
            levels += (lv.cauchy_residual, lv.involutivity_e, lv.rank_d,
                       lv.rank_e)
        del levels[-4]  # the top level's cauchy_residual is a literal null
        point = list(self.point["x0"])
        for row in self.point["z"]:
            point += row
        total = sum(head) + sum(levels) + sum(point)
        if type(total) is not float or not math.isfinite(total):
            return json.dumps(self.to_dict(), sort_keys=True)
        return _report_template(self.dims, self.basis, self.svd_tol) % (
            *head, "[%s]" % ", ".join(map(_json_string, self.failures)),
            *levels, "true" if self.passed else "false", *point,
            str(list(self.sandwich_indices)),
            str(list(self.singular_indices)), _json_string(self.verdict))

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


# typed: a tol of 1 is written `1`, one of 1.0 `1.0`
@functools.lru_cache(maxsize=None, typed=True)
def _report_template(dims: ArmDims, basis: str, svd_tol: float) -> str:
    """The text of `json.dumps(FlagReport.to_dict(), sort_keys=True)` for a
    report of one shape, basis and svd tol, with %r for each float, %d for
    each rank and %s for the verdict, passed, failures and index lists, in
    the order of sorted keys that `FlagReport.json_text` fills them in; the
    keys, the levels' expected ranks and the tolerances are literal."""
    f, d, s = "\0r", "\0d", "\0s"
    n1, k1 = dims.n + 1, dims.ambient
    levels = [LevelReport(m, d, d, expected_rank_d(dims, m),
                          expected_rank_e(dims, m), f, f if m < n1 else None)
              for m in range(1, n1 + 1)]
    derived = [DerivedReport(m, d, expected_rank_d(dims, m), f)
               for m in range(n1)]
    skeleton = FlagReport(dims, {"x0": [f] * k1, "z": [[f] * k1] * n1},
                          [f] * dims.n, s, (), (), levels, derived, f, basis,
                          svd_tol, s, s).to_dict()
    skeleton["sandwich_indices"] = skeleton["singular_indices"] = s
    text = json.dumps(skeleton, sort_keys=True).replace("%", "%%")
    for mark in (f, d, s):
        text = text.replace(json.dumps(mark), "%" + mark[1])
    return text


def verify_flags(qs: Sequence[AngularConfig], tol: float = 1e-8,
                 basis: str = "projected") -> list[FlagReport]:
    """Measure ranks, derived spans, involutivity and inclusion residuals at
    each configuration of one (k,n) shape, classify the points, and
    aggregate pass/fail per condition; one report per configuration.

    The points are measured in blocks whose bracket array (`_PairBrackets`:
    points x (n+1)k(k+1)/2 rows x dimension, float64) fits BLOCK_BYTES.  The
    caller asserts the conditions only at regular points; singular ones get
    the same measurements recorded with a `singular` verdict.
    """
    qs = list(qs)
    if not qs:
        return []
    dims = qs[0].dims
    if any(q.dims != dims for q in qs):
        raise ValueError("verify_flags needs configurations of one shape")
    rows = len(_family(dims, basis)[-1])
    size = max(1, BLOCK_BYTES // (8 * rows * dims.cartesian_dim))
    return [rep for start in range(0, len(qs), size)
            for rep in _verify_block(qs[start:start + size], tol, basis)]


def verify_flag(q: AngularConfig, tol: float = 1e-8,
                basis: str = "projected") -> FlagReport:
    """`verify_flags` at the one configuration q."""
    return verify_flags([q], tol=tol, basis=basis)[0]


def _kept_from(s: np.ndarray, thr: np.ndarray, first: int = 0) -> np.ndarray:
    """Masks (B, L, n+1, r): for each l, the singular values s[:, j]
    (B, n+1, r) of the spheres j >= first + l above thr[:, l] (B, L)."""
    after = (np.arange(s.shape[1])
             >= first + np.arange(thr.shape[1])[:, None])
    return (s[:, None] > thr[:, :, None, None]) & after[:, :, None]


def _verify_block(qs: list[AngularConfig], tol: float,
                  basis: str) -> list[FlagReport]:
    dims = qs[0].dims
    n, n1, k = dims.n, dims.n + 1, dims.k
    z = np.stack([q.z for q in qs])
    points = np.stack([q.flat() for q in qs])
    b, d = points.shape
    family = _family(dims, basis)
    _, _, tangent, cols, inner, steer, _ = family
    pb = _PairBrackets(family, points, z)

    # one stacked SVD per kind of block for all points and levels: each
    # sphere's tangents on its block, the same with their brackets, and
    # X_m^0 with its brackets with sphere m's tangents; X_m^0 alone has the
    # one singular value |X_m^0|
    on_block = cols[None, :, None]
    tangents = pb.values[:, tangent]
    t = RowSpan(np.take_along_axis(tangents, on_block, axis=-1))
    s = RowSpan(np.take_along_axis(np.concatenate(
        [tangents, pb.brackets[:, inner]], axis=2), on_block, axis=-1))
    c = RowSpan(np.concatenate([pb.values[:, :n1, None],
                                pb.brackets[:, steer]], axis=2))
    x = pb.norms[:, :n1]
    x_rows = pb.values[:, :n1] / np.where(x > 0, x, 1.0)[..., None]
    t_rows = np.zeros((b, n1, k, d))
    np.put_along_axis(t_rows, on_block, t.vt, axis=-1)

    # a rank counts the blocks' singular values above tol times the largest
    # of the whole matrix: E^m and D^m at index m-1, the derived stack of
    # level m+1 at index m (the largest over the spheres from each on)
    top_e = np.maximum.accumulate(t.s[:, ::-1, 0], axis=1)[:, ::-1]
    top_d = np.maximum(x, top_e)
    top_dv = np.maximum(c.s[..., 0], np.maximum.accumulate(
        s.s[:, ::-1, 0], axis=1)[:, ::-1])
    keep_t, keep_x = _kept_from(t.s, tol * top_d), x > tol * top_d
    keep_c = c.s > tol * top_dv[..., None]
    keep_s = _kept_from(s.s, tol * top_dv)
    ranks_e = _kept_from(t.s, tol * top_e).sum(axis=(2, 3))
    ranks_d = keep_t.sum(axis=(2, 3)) + keep_x
    derived_rank = keep_c.sum(axis=-1) + keep_s.sum(axis=(2, 3))

    # the residuals project onto E^m and D^m kept at 1e-8: ambient rows,
    # each dropped one zeroed
    def rows(keep: np.ndarray, i: int) -> np.ndarray:
        return (t_rows * keep[:, i, ..., None]).reshape(b, -1, d)

    keep_e, keep_d = (_kept_from(t.s, 1e-8 * top) for top in (top_e, top_d))
    x_kept = x_rows * (x > 1e-8 * top_d)[..., None]

    # the bracket rows of E^{m+1} are inner[m:], those of D^{m+1} also steer[m]
    def d_rows(m: int) -> np.ndarray:
        return np.concatenate([steer[m], inner[m:].ravel()])

    inv = [pb.worst_residual(inner[i:].ravel(), rows(keep_e, i))
           for i in range(n1)]
    spans_d = [np.concatenate([x_kept[:, i, None], rows(keep_d, i)], axis=1)
               for i in range(n1)]
    cauchy = [pb.worst_residual(d_rows(m), spans_d[m - 1])
              for m in range(1, n + 1)]
    # top-level non-involutivity (bracket-generating witness, not a gate)
    delta_inv = pb.worst_residual(d_rows(n), spans_d[n])

    # a derived-span angle is the largest of its blocks' angles: X_m^0 with
    # its brackets against X_{m-1}^0 beside sphere m-1's tangents (at m = 0
    # the whole base block), and each sphere m..n against its tangents (at
    # m = 0 its tangent plane, at sine |Q z| from k kept rows Q)
    on = np.arange(n)
    target = np.zeros((b, n1, k + 1, d))
    target[:, 0] = np.eye(d)[:k + 1]
    target[:, 1:, 0] = x_rows[:, :n] * keep_x[:, :n, None]
    target[:, 1:, 1:] = t_rows[:, :n] * keep_t[:, on, on, :, None]
    angle = span_angle(c.vt * keep_c[..., None], target)
    # at level l >= 1 only the spheres j >= l have rows on either side
    lv, sp = np.triu_indices(n, 1, n1)
    sphere = np.zeros((b, n, n1))
    sphere[:, lv, sp] = span_angle(
        s.vt[:, sp] * keep_s[:, lv + 1, sp, :, None],
        t.vt[:, sp] * (t.s[:, sp] > tol * top_d[:, lv, None])[..., None])
    angle[:, 1:] = np.maximum(angle[:, 1:], sphere.max(axis=2))
    qz = (s.vt * keep_s[:, 0, ..., None] @ points[:, cols, None])[..., 0]
    angle[:, 0] = np.maximum(angle[:, 0], np.where(
        keep_s[:, 0].sum(axis=-1) == k,
        np.arcsin(np.minimum(1.0, np.sqrt(_rowdot(qz, qz)))),
        np.pi / 2).max(axis=1))

    # sandwich test: index l fails when the steering field of joint l
    # already lies in E^l (no rank increase); at k = 1 the A_i decide
    stalls = None
    if k >= 2 and n:
        w = singular_values(pb.values[:, np.column_stack([np.arange(1, n1),
                                                          tangent[:-1]])])
        top_w = np.maximum(w[..., 0], top_e[:, 1:])
        stalls = ((w > tol * top_w[..., None]).sum(axis=-1)
                  + _kept_from(t.s, tol * top_w, 1).sum(axis=(2, 3))
                  == ranks_e[:, :n])

    # the one singular-point rule: the i (1-based) with |A_i| < EPS_SING
    a_values = fl.a_chain(z)
    sing = [tuple(i + 1 for i, low in enumerate(row) if low)
            for row in (np.abs(a_values) < EPS_SING).tolist()]
    sandwich = sing if stalls is None else [
        tuple(l + 1 for l, stall in enumerate(row) if stall)
        for row in stalls.tolist()]
    # the reports read plain numbers, one conversion per block array
    ranks_d, ranks_e, derived_rank, angle, delta_inv = (
        x.tolist() for x in (ranks_d, ranks_e, derived_rank, angle,
                             delta_inv))
    inv, cauchy = ([x.tolist() for x in xs] for xs in (inv, cauchy))
    x0s, zs = points[:, :k + 1].tolist(), z.tolist()
    a_values = a_values.tolist()
    reports = []
    for j in range(b):
        levels = [LevelReport(m, ranks_d[j][m - 1], ranks_e[j][m - 1],
                              expected_rank_d(dims, m),
                              expected_rank_e(dims, m), inv[m - 1][j],
                              cauchy[m - 1][j] if m <= n else None)
                  for m in range(1, n + 2)]
        derived = [DerivedReport(m, derived_rank[j][m],
                                 expected_rank_d(dims, m), angle[j][m])
                   for m in range(n + 1)]
        failures = _failures(levels, derived)
        reports.append(FlagReport(
            dims, {"x0": x0s[j], "z": zs[j]}, a_values[j],
            "singular" if sing[j] else "regular", sing[j], sandwich[j],
            levels, derived, delta_inv[j], basis, tol, not failures,
            failures))
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
