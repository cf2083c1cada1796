"""Exactly representable discontinuous self-maps and their jump measure.

A map on an interval is stored as affine pieces with declared
breakpoints, each interior breakpoint owned by exactly one adjacent
piece.  One-sided limits at any point are therefore exact, and the
distribution-valued measure of discontinuity -- the worst pointwise
infimum of the norm profile of f(p) minus a limit value -- is an exact
finite computation.

Both map kinds, `PiecewiseMap1D` and the lattice-sampled `SampledMap`,
answer the same questions, so no caller asks which kind it holds: `dim`
and `box`, `eval_points` (one row per point), `grids` (the grid steps a
search or the estimator may use), `candidates` (the search points of a
grid), `lattice_images` (the images of a uniform lattice and its step)
and `limit_values` (one-sided limits, or the images of the adjacent
lattice nodes).  Only the exact routes, which need the pieces, look at
the kind.

A grid estimator of the same quantity, driven only by point evaluations
of the map, recovers it from below through a schedule of shrinking
neighborhoods.  Its single rule, for either map kind: over the lattice
images of each grid, the estimate at delta is the profile of

    the largest |f(p) - f(p + d)| over node pairs p, p + d, for every
    nonzero lattice offset d whose length puts p + d in the strong
    delta-neighborhood of p.

Offsets d and -d give the same gap, so one of each pair is scanned.
The offset d = 0 is excluded.  Including it would collapse every
estimate to the maximal element (the profile of the null vector), since
the grid, unlike the continuum, has no points other than p in every
neighborhood.  This is the single most consequential discretization
decision in the module.  The neighborhoods are nested, so the largest
gap only shrinks as the schedule descends; the code asserts that
monotonicity on every run instead of assuming it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .ddf import (DOMAIN_SLACK, FIXED_POINT_SLACK, LIMIT_MERGE_TOL, MONOTONE_SLACK,
                  SAMPLED_IMAGE_SLACK, VALUE_TOL, Ddf, sibley_distance)
from .errors import InvalidArgumentError, PnkitError
from .pn_space import PnSpace, Vector, as_vector, norm_profile, profile_at, vec_norms

# Largest node count of a grid of step h; a finer grid is refused before
# anything is allocated.
MAX_GRID_NODES = 1 << 20

DEFAULT_DELTA_SCHEDULE: tuple[float, ...] = tuple(0.2 * 2.0 ** -k for k in range(7))
DEFAULT_GRID_RESOLUTIONS: tuple[float, ...] = (1.0 / 1024.0,)
DEFAULT_T_GRID: tuple[float, ...] = tuple(k / 1024.0 for k in range(1, 1025))


def grid_nodes(lo: float, hi: float, h: float) -> np.ndarray:
    """The uniform grid on [lo, hi] whose step is nearest h, at least one
    cell; refused when it would hold more than MAX_GRID_NODES nodes."""
    n = max(1, int(round((hi - lo) / h)))
    if n + 1 > MAX_GRID_NODES:
        raise InvalidArgumentError(
            f"grid step h={h!r} needs {n + 1} nodes, more than MAX_GRID_NODES={MAX_GRID_NODES}")
    return np.linspace(lo, hi, n + 1)


def lattice_nodes(box, shape: Sequence[int]) -> np.ndarray:
    """Nodes of the lattice with shape[k] evenly spaced nodes along box[k],
    one row each, in lexicographic order."""
    ticks = [np.linspace(a, b, n) for (a, b), n in zip(box, shape)]
    return np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1).reshape(-1, len(ticks))


@dataclass(frozen=True)
class Piece:
    """One affine piece a*x + b on [lo, hi]; `closed` names the end this
    piece owns at interior breakpoints ("left" means [lo, hi))."""

    lo: float
    hi: float
    closed: str
    slope: float
    intercept: float

    def __post_init__(self):
        for name in ("lo", "hi", "slope", "intercept"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidArgumentError(f"piece field {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.closed not in ("left", "right"):
            raise InvalidArgumentError(f"piece closed flag must be 'left' or 'right', got {self.closed!r}")
        if not self.hi > self.lo:
            raise InvalidArgumentError(f"piece must have positive width, got [{self.lo}, {self.hi}]")

    def value(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PiecewiseMap1D:
    """A piecewise-affine self-map of [lo, hi] with declared breakpoints.

    Pieces partition the domain exactly: consecutive pieces meet at a
    shared breakpoint owned by exactly one of them, the first piece owns
    the left domain endpoint and the last the right one.  The image of
    every piece must stay inside the domain (checked at piece endpoints,
    which suffices for affine pieces).
    """

    domain: tuple[float, float]
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        lo, hi = (float(v) for v in self.domain)
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise InvalidArgumentError(f"domain must be a nondegenerate interval, got {self.domain!r}")
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise InvalidArgumentError("map needs at least one piece")
        if self.pieces[0].lo != lo or self.pieces[-1].hi != hi:
            raise InvalidArgumentError("pieces must start and end exactly at the domain endpoints")
        for k, (a, b) in enumerate(zip(self.pieces, self.pieces[1:])):
            if a.hi != b.lo:
                raise InvalidArgumentError(
                    f"pieces {k} and {k + 1} do not meet: {a.hi!r} != {b.lo!r}")
            left_owns = a.closed == "right"
            right_owns = b.closed == "left"
            if left_owns == right_owns:
                raise InvalidArgumentError(
                    f"breakpoint {a.hi!r} must be owned by exactly one adjacent piece")
        for k, p in enumerate(self.pieces):
            for x in (p.lo, p.hi):
                y = p.value(x)
                if y < lo - DOMAIN_SLACK or y > hi + DOMAIN_SLACK:
                    raise InvalidArgumentError(
                        f"piece {k} maps {x!r} to {y!r}, outside the domain [{lo}, {hi}]")

    dim = 1

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        return (self.domain,)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(p.hi for p in self.pieces[:-1])

    @cached_property
    def _breaks_np(self) -> np.ndarray:
        return np.array(self.breakpoints, dtype=float)

    @cached_property
    def _slopes_np(self) -> np.ndarray:
        return np.array([p.slope for p in self.pieces], dtype=float)

    @cached_property
    def _icepts_np(self) -> np.ndarray:
        return np.array([p.intercept for p in self.pieces], dtype=float)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; callers must keep xs inside the domain."""
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self._breaks_np, xs, side="right")
        for i, br in enumerate(self.breakpoints):
            if self.pieces[i].closed == "right":  # breakpoint owned by the left piece
                idx[xs == br] = i
        return self._slopes_np[idx] * xs + self._icepts_np[idx]

    def eval(self, x: float) -> float:
        x = float(x)
        self._check_in_domain(x)
        return float(self.eval_many(np.array([x]))[0])

    def _check_in_domain(self, x: float) -> None:
        lo, hi = self.domain
        if math.isnan(x) or x < lo or x > hi:
            raise InvalidArgumentError(f"point {x!r} outside the domain [{lo}, {hi}]")

    def eval_points(self, P) -> np.ndarray:
        """f at each row of an (n, 1) array of domain points, as (n, 1)."""
        xs = np.asarray(P, dtype=float)[:, 0]
        lo, hi = self.domain
        outside = ~((xs >= lo) & (xs <= hi))
        if np.any(outside):
            self._check_in_domain(float(xs[np.argmax(outside)]))
        return self.eval_many(xs)[:, None]

    def grids(self, steps: Sequence[float]) -> tuple[float, ...]:
        """Every step asked for: the map has a grid of any step."""
        return tuple(steps)

    def candidates(self, h: float) -> np.ndarray:
        """Search points, (n, 1) and ascending: the grid of step h, the
        breakpoints and the fixed points of the pieces."""
        extras = np.array(self.breakpoints + self.piece_fixed_points(), dtype=float)
        return np.unique(np.concatenate([grid_nodes(*self.domain, h), extras]))[:, None]

    def lattice_images(self, h: float) -> tuple[np.ndarray, float]:
        """Images of the grid of step h, (n, 1), and its exact step."""
        xs = grid_nodes(*self.domain, h)
        lo, hi = self.domain
        return self.eval_many(xs)[:, None], (hi - lo) / (len(xs) - 1)

    def limit_values(self, p) -> tuple[Vector, ...]:
        """The one-sided limits at p as 1-vectors, those within
        LIMIT_MERGE_TOL of each other counted once."""
        x = float(p[0])
        self._check_in_domain(x)
        lo, hi = self.domain
        vals: list[float] = []
        if x > lo:
            vals.append(self.left_limit(x))
        if x < hi:
            r = self.right_limit(x)
            if all(abs(r - v) > LIMIT_MERGE_TOL for v in vals):
                vals.append(r)
        return tuple((v,) for v in vals)

    def left_limit(self, x: float) -> float:
        """Limit from below, read off the piece covering (.., x]."""
        for p in self.pieces:
            if p.lo < x <= p.hi:
                return p.value(x)
        raise InvalidArgumentError(f"no piece approaches {x!r} from the left")

    def right_limit(self, x: float) -> float:
        """Limit from above, read off the piece covering [x, ..)."""
        for p in self.pieces:
            if p.lo <= x < p.hi:
                return p.value(x)
        raise InvalidArgumentError(f"no piece approaches {x!r} from the right")

    def sup_abs_on_interval(self, a: float, b: float) -> float:
        """sup of |f| over the clipped interval [a, b]; exact because the
        absolute value of an affine function peaks at segment endpoints."""
        lo, hi = self.domain
        a, b = max(a, lo), min(b, hi)
        if b < a:
            raise InvalidArgumentError("interval does not meet the domain")
        best = 0.0
        for p in self.pieces:
            s, e = max(a, p.lo), min(b, p.hi)
            if s <= e:
                best = max(best, abs(p.value(s)), abs(p.value(e)))
        return best

    def piece_fixed_points(self) -> tuple[float, ...]:
        """Exact fixed points of individual affine pieces that land in
        the domain; used to enrich search grids."""
        out: list[float] = []
        lo, hi = self.domain
        for p in self.pieces:
            if p.slope == 1.0:
                if p.intercept == 0.0:
                    out.append(0.5 * (p.lo + p.hi))
                continue
            x = p.intercept / (1.0 - p.slope)
            if p.lo - FIXED_POINT_SLACK <= x <= p.hi + FIXED_POINT_SLACK and lo <= x <= hi:
                out.append(min(max(x, p.lo), p.hi))
        return tuple(out)

    def to_json_obj(self) -> dict:
        return {
            "domain": [self.domain[0], self.domain[1]],
            "pieces": [
                {"from": p.lo, "to": p.hi, "closed": p.closed,
                 "affine": [p.slope, p.intercept]}
                for p in self.pieces
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PiecewiseMap1D":
        if not isinstance(obj, dict) or "domain" not in obj or "pieces" not in obj:
            raise InvalidArgumentError("map spec must be an object with 'domain' and 'pieces'")
        dom = obj["domain"]
        if not isinstance(dom, (list, tuple)) or len(dom) != 2:
            raise InvalidArgumentError("map domain must be a [lo, hi] pair")
        pieces = []
        for k, entry in enumerate(obj["pieces"]):
            try:
                a, b = entry["affine"]
                pieces.append(Piece(lo=entry["from"], hi=entry["to"],
                                    closed=entry["closed"], slope=a, intercept=b))
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidArgumentError(f"pieces[{k}]: {exc}") from exc
        return cls(domain=(float(dom[0]), float(dom[1])), pieces=tuple(pieces))


def constant_map(domain: tuple[float, float], value: float) -> PiecewiseMap1D:
    """Single-piece constant self-map; the value must lie in the domain."""
    return PiecewiseMap1D(domain=domain,
                          pieces=(Piece(domain[0], domain[1], "left", 0.0, float(value)),))


@dataclass(frozen=True)
class LimitSet:
    """One-sided limit values of a map at a point, with the attained
    value flagged separately (it belongs to the set only when some
    sequence of other points reaches it, which for piecewise-affine maps
    means it equals a one-sided limit)."""

    values: tuple[float, ...]
    attained: float

    def __post_init__(self):
        if not self.values:
            raise InvalidArgumentError("limit set must be nonempty")


def limit_set(pw: PiecewiseMap1D, p: float) -> LimitSet:
    """Exact one-sided limits of the map at p, with the value attained there."""
    return LimitSet(values=tuple(v for (v,) in pw.limit_values((p,))), attained=pw.eval(p))


def _hull_2d(points: Sequence[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def convex_hull(values):
    """Convex hull of a finite value set.

    Accepts a LimitSet or an iterable; returns the closed interval
    (min, max) for scalars and the counter-clockwise vertex tuple for
    planar points.
    """
    pts = list(values.values) if isinstance(values, LimitSet) else list(values)
    if not pts:
        raise InvalidArgumentError("cannot take the hull of an empty set")
    first = pts[0]
    if isinstance(first, (int, float)):
        xs = [float(v) for v in pts]
        return (min(xs), max(xs))
    if len(first) == 1:
        xs = [float(v[0]) for v in pts]
        return (min(xs), max(xs))
    if len(first) == 2:
        return _hull_2d([(float(a), float(b)) for a, b in pts])
    raise InvalidArgumentError("hulls are supported in dimension 1 and 2 only")


@dataclass(frozen=True, eq=False)
class SampledMap:
    """A self-map of a compact box known only on a full uniform lattice.

    `images` is given as one image per lattice node, in lexicographic
    node order, and kept as one read-only array of shape `shape + (dim,)`.
    Point evaluation snaps to the nearest lattice node; this is the
    desk-scale stand-in for maps with no exact piecewise model (and the
    only 2-d map representation here).
    """

    box: tuple[tuple[float, float], ...]
    resolution: float
    images: np.ndarray

    def __post_init__(self):
        box = tuple((float(a), float(b)) for a, b in self.box)
        if not box or any(not (math.isfinite(a) and math.isfinite(b) and b > a) for a, b in box):
            raise InvalidArgumentError(f"box must be nondegenerate, got {self.box!r}")
        if len(box) > 2:
            raise InvalidArgumentError("sampled maps are supported in dimension 1 and 2 only")
        res = float(self.resolution)
        if not (math.isfinite(res) and res > 0.0):
            raise InvalidArgumentError(f"resolution must be positive, got {self.resolution!r}")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", res)
        imgs = np.array(self.images, dtype=float)
        count = math.prod(self.shape)
        if imgs.shape != (count, len(box)):
            raise InvalidArgumentError(
                f"expected {count} images of dimension {len(box)} for the full lattice, "
                f"got an array of shape {imgs.shape}")
        lo, hi = np.array(box).T
        # NaN compares false, so a non-finite coordinate escapes too.
        inside = (imgs >= lo - SAMPLED_IMAGE_SLACK) & (imgs <= hi + SAMPLED_IMAGE_SLACK)
        escapes = ~np.all(inside, axis=1)
        if np.any(escapes):
            raise InvalidArgumentError(
                f"image {tuple(imgs[np.argmax(escapes)].tolist())!r} escapes the box")
        imgs = imgs.reshape(self.shape + (len(box),))
        imgs.flags.writeable = False
        object.__setattr__(self, "images", imgs)

    @property
    def dim(self) -> int:
        return len(self.box)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(round((b - a) / self.resolution)) + 1 for a, b in self.box)

    def _snap(self, P) -> np.ndarray:
        """Index of the lattice node nearest each row of P, clipped into
        the lattice; halves round to even."""
        lo = np.array([a for a, _ in self.box])
        idx = np.rint((np.asarray(P, dtype=float) - lo) / self.resolution)
        return np.clip(idx, 0, np.array(self.shape) - 1).astype(np.intp)

    def eval_points(self, P) -> np.ndarray:
        """The image of the node nearest each row of an (n, dim) array."""
        P = np.asarray(P, dtype=float)
        if not np.all(np.isfinite(P)):
            raise InvalidArgumentError("point coordinates must be finite")
        return self.images[tuple(self._snap(P).T)]

    def grids(self, steps: Sequence[float]) -> tuple[float, ...]:
        """The lattice step alone: the map has no other grid."""
        return (self.resolution,)

    def candidates(self, h: float) -> np.ndarray:
        """Every lattice node, (n, dim), in lexicographic order."""
        return lattice_nodes(self.box, self.shape)

    def lattice_images(self, h: float) -> tuple[np.ndarray, float]:
        return self.images, self.resolution

    def limit_values(self, p) -> tuple[Vector, ...]:
        return self.neighbor_images(p)

    def neighbor_images(self, p) -> tuple[Vector, ...]:
        """Images of the lattice nodes adjacent to p (p's own node
        excluded): the grid surrogate for limit values at p."""
        base = self._snap(as_vector(p, self.dim))
        out = []
        for d in itertools.product((-1, 0, 1), repeat=self.dim):
            idx = tuple(int(b) + x for b, x in zip(base, d))
            if any(d) and all(0 <= i < n for i, n in zip(idx, self.shape)):
                out.append(tuple(self.images[idx].tolist()))
        return tuple(out)

    @classmethod
    def from_function(cls, fn: Callable, box, resolution: float) -> "SampledMap":
        box = tuple((float(a), float(b)) for a, b in box)
        nodes = lattice_nodes(box, [int(round((b - a) / float(resolution))) + 1 for a, b in box])
        images = [as_vector(fn(tuple(p)), len(box)) for p in nodes.tolist()]
        return cls(box=box, resolution=float(resolution), images=images)

    def to_json_obj(self) -> dict:
        return {"box": [[a, b] for a, b in self.box],
                "resolution": self.resolution,
                "images": self.images.reshape(-1, self.dim).tolist()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SampledMap":
        try:
            return cls(box=tuple((float(a), float(b)) for a, b in obj["box"]),
                       resolution=float(obj["resolution"]),
                       images=obj["images"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"sampled map spec: {exc}") from exc


def map_eval_vec(m, p) -> Vector:
    """Evaluate either map kind at one coordinate tuple."""
    return tuple(m.eval_points([as_vector(p, m.dim)])[0].tolist())


def discontinuity_exact(space: PnSpace, pw: PiecewiseMap1D) -> Ddf:
    """Exact measure of discontinuity of a 1-d piecewise-affine map.

    Over the breakpoints (continuity points contribute the maximal
    element and drop out of the infimum), take the pointwise infimum of
    the norm profiles of f(b) minus each one-sided limit: the profile of
    the largest gap, exactly, for any generator.
    """
    if space.dimension != 1 or not isinstance(pw, PiecewiseMap1D):
        raise InvalidArgumentError("exact route needs a piecewise map in a 1-d space")
    worst = 0.0
    for b in pw.breakpoints:
        fb = pw.eval(b)
        for q in limit_set(pw, b).values:
            worst = max(worst, abs(fb - q))
    return norm_profile(space, worst)


@dataclass(frozen=True)
class RefinementLevel:
    grid_h: float
    delta: float
    largest_pair_gap: float | None  # None when the level was skipped

    def to_json_obj(self) -> dict:
        return {"grid_h": self.grid_h, "delta": self.delta,
                "largest_pair_gap": self.largest_pair_gap}


@dataclass(frozen=True)
class DiscontinuityEstimate:
    """Grid estimate of the discontinuity measure with refinement history.

    `ddf` is the final (finest-grid, smallest-delta) estimate.  For each
    t in `t_grid`, `values` holds the final per-t estimate and
    `brackets` the last two refinement values, a convergence bracket in
    place of an error bound.
    """

    ddf: Ddf
    t_grid: tuple[float, ...]
    values: tuple[float, ...]
    brackets: tuple[tuple[float, float], ...]
    levels: tuple[RefinementLevel, ...]

    def to_json_obj(self) -> dict:
        return {
            "ddf": self.ddf.to_json_obj(),
            "t_grid": list(self.t_grid),
            "values": list(self.values),
            "brackets": [list(b) for b in self.brackets],
            "levels": [lv.to_json_obj() for lv in self.levels],
        }


def _validate_positive(name: str, values: Iterable[float]) -> tuple[float, ...]:
    vals = tuple(map(float, values))
    if not vals:
        raise InvalidArgumentError(f"{name} must be nonempty")
    if not all(0.0 < v < math.inf for v in vals):  # NaN fails too
        raise InvalidArgumentError(f"{name} entries must be positive and finite")
    return vals


def _validate_descending(name: str, values: Iterable[float]) -> tuple[float, ...]:
    vals = _validate_positive(name, values)
    if not all(a > b for a, b in zip(vals, vals[1:])):
        raise InvalidArgumentError(f"{name} must be strictly descending")
    return vals


def _validate_ascending(name: str, values: Iterable[float]) -> tuple[float, ...]:
    """The t-grid rule: nonempty, positive, finite and strictly ascending."""
    vals = _validate_positive(name, values)
    if not all(a < b for a, b in zip(vals, vals[1:])):
        raise InvalidArgumentError(f"{name} must be strictly ascending")
    return vals


def _largest_gaps(space: PnSpace, images: np.ndarray, step: float,
                  deltas: Sequence[float]) -> list[float | None]:
    """Per delta, the largest image displacement between lattice nodes
    at an offset admitted to the strong delta-neighborhood, or None when
    none is; `images` has the lattice shape plus a coordinate axis."""
    shape = images.shape[:-1]
    offsets = lattice_nodes([(1 - n, n - 1) for n in shape], [2 * n - 1 for n in shape])
    # Lexicographic order pairs each offset with its negation across the
    # zero offset in the middle: keep the half after it.
    offsets = offsets[len(offsets) // 2 + 1:].astype(np.intp)
    r = step * vec_norms(offsets)
    admitted = np.array([profile_at(space, r, d) > 1.0 - d for d in deltas])
    gaps = np.zeros(len(offsets))
    for k in np.flatnonzero(np.any(admitted, axis=0)):
        src = tuple(slice(max(x, 0), n + min(x, 0)) for x, n in zip(offsets[k], shape))
        dst = tuple(slice(max(-x, 0), n + min(-x, 0)) for x, n in zip(offsets[k], shape))
        gaps[k] = np.max(vec_norms(images[src] - images[dst]))
    return [float(np.max(gaps[row])) if np.any(row) else None for row in admitted]


def discontinuity_estimate(space: PnSpace, m, *,
                           delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                           grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS,
                           t_grid: Sequence[float] = DEFAULT_T_GRID) -> DiscontinuityEstimate:
    """Estimate the discontinuity measure from point evaluations only.

    Profiles are ordered by their norms, so the double infimum at each
    t is the profile of the largest displacement between neighborhood
    pairs: the code tracks that one scalar per refinement level and
    rebuilds the per-t curves from it exactly.

    A refinement level whose neighborhood contains no lattice point
    besides p itself is skipped with a warning (grid too coarse for that
    delta).  Per-level largest gaps may only shrink as delta descends;
    that is checked, not assumed.
    """
    deltas = _validate_descending("delta_schedule", delta_schedule)
    grids = _validate_descending("grid_resolutions", grid_resolutions)
    ts = _validate_ascending("t_grid", t_grid)
    if m.dim != space.dimension:
        raise InvalidArgumentError(
            f"map dimension {m.dim} does not match space dimension {space.dimension}")

    levels: list[RefinementLevel] = []
    final_gap: float | None = None
    prev_final_gap: float | None = None

    for h in m.grids(grids):
        images, step = m.lattice_images(h)
        level_gap_prev = None
        for delta, gap in zip(deltas, _largest_gaps(space, images, step, deltas)):
            if gap is None:
                warnings.warn(
                    f"delta={delta} admits no lattice neighbors at grid step; level skipped",
                    RuntimeWarning, stacklevel=2)
                levels.append(RefinementLevel(h, delta, None))
                continue
            if level_gap_prev is not None and gap > level_gap_prev + MONOTONE_SLACK:
                raise PnkitError(
                    "neighborhood infimum decreased under refinement; "
                    "nested-neighborhood monotonicity is broken")
            level_gap_prev = gap
            levels.append(RefinementLevel(h, delta, gap))
            prev_final_gap = final_gap
            final_gap = gap

    if final_gap is None:
        raise InvalidArgumentError(
            "every refinement level was below the grid resolution; nothing estimated")

    est = norm_profile(space, final_gap)
    prev = norm_profile(space, prev_final_gap) if prev_final_gap is not None else est
    ts_np = np.array(ts, dtype=float)
    vals = est.eval_many(ts_np)
    prev_vals = prev.eval_many(ts_np)
    return DiscontinuityEstimate(
        ddf=est,
        t_grid=ts,
        values=tuple(float(v) for v in vals),
        brackets=tuple((float(a), float(b)) for a, b in zip(prev_vals, vals)),
        levels=tuple(levels),
    )


def discontinuity_measure(space: PnSpace, m, *,
                          delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                          grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS,
                          t_grid: Sequence[float] = DEFAULT_T_GRID
                          ) -> tuple[Ddf, DiscontinuityEstimate | None]:
    """The discontinuity measure by the best available route:
    (exact measure, None) for a piecewise map in a 1-d space, else
    (estimate.ddf, estimate) from the grid estimator."""
    if isinstance(m, PiecewiseMap1D) and space.dimension == 1:
        return discontinuity_exact(space, m), None
    est = discontinuity_estimate(space, m, delta_schedule=delta_schedule,
                                 grid_resolutions=grid_resolutions, t_grid=t_grid)
    return est.ddf, est


@dataclass(frozen=True)
class RouteComparison:
    """Agreement report between the exact route and the grid estimator."""

    exact: Ddf
    estimate: DiscontinuityEstimate
    distance: float
    bound: float

    @property
    def agree(self) -> bool:
        return self.distance <= self.bound + VALUE_TOL

    def to_json_obj(self) -> dict:
        return {"exact": self.exact.to_json_obj(),
                "estimate": self.estimate.ddf.to_json_obj(),
                "distance": self.distance,
                "bound": self.bound,
                "agree": self.agree}


def compare_discontinuity_routes(space: PnSpace, pw: PiecewiseMap1D, *,
                                 delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                                 grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS,
                                 t_grid: Sequence[float] = DEFAULT_T_GRID) -> RouteComparison:
    """Compute the discontinuity measure along both routes (exact limit
    gaps vs. grid estimation) and report their metric distance, which
    must stay within twice the finest grid resolution."""
    exact = discontinuity_exact(space, pw)
    est = discontinuity_estimate(space, pw, delta_schedule=delta_schedule,
                                 grid_resolutions=grid_resolutions, t_grid=t_grid)
    dist = sibley_distance(est.ddf, exact)
    return RouteComparison(exact=exact, estimate=est, distance=dist,
                           bound=2.0 * min(grid_resolutions))
