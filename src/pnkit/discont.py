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
and `limit_values` (k per point: the one-sided limits, or the images
of the adjacent lattice nodes).  Only the exact routes, which need the
pieces, look at the kind.

`limit_values` returns its (n, k, dim) array in slot-major (Fortran)
order: its transpose is a C-contiguous (dim, k, n) array, one row of n
points per coordinate and slot.  The hull search reduces over the k
slots of every point at once, and in this order each such reduction
runs along contiguous rows; on a row-major array it would run along the
short slot axis, one point at a time.

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
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .ddf import (DOMAIN_SLACK, FIXED_POINT_SLACK, HULL_PRUNE_SLACK, LIMIT_MERGE_TOL,
                  MONOTONE_SLACK, SAMPLED_IMAGE_SLACK, VALUE_TOL, Ddf, sibley_distance)
from .errors import InvalidArgumentError, PnkitError
from .pn_space import PnSpace, Vector, as_vector, in_neighborhood, norm_profile, vec_norms

# Largest node count of a grid of step h; a finer grid is refused before
# anything is allocated.
MAX_GRID_NODES = 1 << 20

# Rows the planar hull distance measures at once.  Each holds a value per
# segment and per fan triangle of its points (28 and 21 for 8 points) in
# every work array, so its memory stays bounded however many rows it takes.
HULL_BLOCK_ROWS = 256

DEFAULT_DELTA_SCHEDULE: tuple[float, ...] = tuple(0.2 * 2.0 ** -k for k in range(7))
DEFAULT_GRID_RESOLUTIONS: tuple[float, ...] = (1.0 / 1024.0,)
DEFAULT_T_GRID: tuple[float, ...] = tuple(k / 1024.0 for k in range(1, 1025))


def grid_node_count(lo: float, hi: float, h: float) -> int:
    """The node count of the uniform grid on [lo, hi] whose step is
    nearest h, at least one cell, counted without building the grid;
    refused when it exceeds MAX_GRID_NODES."""
    cells = (hi - lo) / h
    n = max(1, round(cells)) + 1 if math.isfinite(cells) else math.inf
    if n > MAX_GRID_NODES:
        raise InvalidArgumentError(
            f"grid step h={h!r} needs {n} nodes, more than MAX_GRID_NODES={MAX_GRID_NODES}")
    return n


def grid_nodes(lo: float, hi: float, h: float) -> np.ndarray:
    """The uniform grid on [lo, hi] whose step is nearest h, at least one
    cell; refused when it would hold more than MAX_GRID_NODES nodes."""
    return np.linspace(lo, hi, grid_node_count(lo, hi, h))


def lattice_nodes(box, shape: Sequence[int]) -> np.ndarray:
    """Nodes of the lattice with shape[k] evenly spaced nodes along box[k],
    one row each, in lexicographic order."""
    ticks = [np.linspace(a, b, n) for (a, b), n in zip(box, shape)]
    return np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1).reshape(-1, len(ticks))


def _lattice_shape(box, resolution: float) -> tuple[int, ...]:
    """Nodes along each axis of the lattice of step `resolution` on `box`,
    the nearest whole number of steps plus one.  A step that is not
    positive, or that gives infinitely many cells, is refused."""
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise InvalidArgumentError(f"resolution must be positive, got {resolution!r}")
    cells = [(b - a) / resolution for a, b in box]
    if not all(map(math.isfinite, cells)):
        raise InvalidArgumentError(
            f"resolution {resolution!r} gives a lattice of infinitely many cells on box {box!r}")
    return tuple(int(round(c)) + 1 for c in cells)


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
        # Scalar checks: the array path of eval_points costs twice as much a call.
        x = float(x)
        lo, hi = self.domain
        if not lo <= x <= hi:  # NaN fails too
            raise InvalidArgumentError(f"point {x!r} outside the domain [{lo}, {hi}]")
        return float(self.eval_many(np.array([x]))[0])

    def _domain_xs(self, P) -> np.ndarray:
        xs = np.asarray(P, dtype=float)[:, 0]
        lo, hi = self.domain
        outside = ~((xs >= lo) & (xs <= hi))  # NaN lies outside too
        if np.any(outside):
            raise InvalidArgumentError(
                f"point {float(xs[np.argmax(outside)])!r} outside the domain [{lo}, {hi}]")
        return xs

    def eval_points(self, P) -> np.ndarray:
        """f at each row of an (n, 1) array of domain points, as (n, 1)."""
        return self.eval_many(self._domain_xs(P))[:, None]

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

    def limit_values(self, P) -> np.ndarray:
        """The (left, right) limits at each row of an (n, 1) array of domain
        points, as (n, 2, 1) in slot-major order.  A limit missing at a
        domain end, or within LIMIT_MERGE_TOL of the left one, is a copy of
        the other one."""
        xs = self._domain_xs(P)
        lo, hi = self.domain
        # Piece k covers (.., breaks[k]] from the left, [breaks[k-1], ..) from the right.
        kl = np.searchsorted(self._breaks_np, xs, "left")
        kr = np.searchsorted(self._breaks_np, xs, "right")
        left = self._slopes_np[kl] * xs + self._icepts_np[kl]
        right = self._slopes_np[kr] * xs + self._icepts_np[kr]
        left = np.where(xs > lo, left, right)
        right = np.where((xs < hi) & (np.abs(right - left) > LIMIT_MERGE_TOL), right, left)
        return np.stack([left, right])[None].T

    def sup_abs_on_interval(self, a, b) -> np.ndarray:
        """sup of |f| over each clipped interval [a, b], broadcast over `a`
        and `b` with one (intervals x pieces) work array; exact because the
        absolute value of an affine function peaks at segment endpoints."""
        lo, hi = self.domain
        a = np.maximum(np.asarray(a, dtype=float), lo)[..., None]
        b = np.minimum(np.asarray(b, dtype=float), hi)[..., None]
        if not np.all(a <= b):  # NaN fails too
            raise InvalidArgumentError("interval does not meet the domain")
        edges = np.concatenate(([lo], self._breaks_np, [hi]))
        s, e = np.maximum(a, edges[:-1]), np.minimum(b, edges[1:])
        ends = np.maximum(np.abs(self._slopes_np * s + self._icepts_np),
                          np.abs(self._slopes_np * e + self._icepts_np))
        return np.max(np.where(s <= e, ends, 0.0), axis=-1)

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
    return LimitSet(values=tuple(dict.fromkeys(pw.limit_values([[p]])[0, :, 0].tolist())),
                    attained=pw.eval(p))


def convex_hull(values):
    """Convex hull of a finite value set.

    Accepts a LimitSet or an iterable of scalars, 1-vectors or 2-vectors;
    returns the closed interval (min, max) in 1-d and the counter-clockwise
    vertex tuple, by Andrew's monotone chain, in 2-d.
    """
    if isinstance(values, LimitSet):
        values = values.values
    pts = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    if pts.size == 0:
        raise InvalidArgumentError("cannot take the hull of an empty set")
    pts = pts.reshape(len(pts), -1)
    if pts.shape[1] == 1:
        xs = pts[:, 0].tolist()
        return (min(xs), max(xs))
    if pts.shape[1] != 2:
        raise InvalidArgumentError("hulls are supported in dimension 1 and 2 only")
    ordered = sorted(set(map(tuple, pts.tolist())))
    if len(ordered) <= 2:
        return tuple(ordered)
    vertices: list = []
    for seq in (ordered, ordered[::-1]):  # the lower chain, then the upper
        chain: list = []
        for q in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (q[1] - ay) - (by - ay) * (q[0] - ax) > 0:
                    break
                chain.pop()
            chain.append(q)
        vertices += chain[:-1]
    return tuple(vertices)


def _norms(dx, dy):
    """Euclidean lengths of planar vectors given by coordinate arrays,
    with `vec_norms`' arithmetic."""
    return np.sqrt(dx * dx + dy * dy)


@lru_cache
def _hull_indices(k: int):
    """Slot indices (i, j), i < j, of the segments between k points, and
    (i, j), 0 < i < j, of the fan triangles (0, i, j); read-only, as
    every caller shares them."""
    pairs = np.triu_indices(k, 1)
    fan = tuple(ix + 1 for ix in np.triu_indices(k - 1, 1))
    for ix in pairs + fan:
        ix.flags.writeable = False
    return pairs, fan


def _planar_hull_block(px, py, x, y) -> np.ndarray:
    """`hull_distances` of n planar points (px, py) to the hulls of k
    points each, given by (k, n) coordinate arrays x, y."""
    (i, j), (b, c) = _hull_indices(len(x))
    ax, ay = x[i], y[i]
    abx, aby, apx, apy = x[j] - ax, y[j] - ay, px - ax, py - ay
    len2, dot = abx * abx + aby * aby, apx * abx + apy * aby
    s = np.clip(dot / np.where(len2 > 0.0, len2, 1.0), 0.0, 1.0)
    nearest = np.minimum(_norms(px - x[0], py - y[0]),
                         np.min(_norms(apx - s * abx, apy - s * aby), axis=0, initial=np.inf))
    inside = np.any((len2 > 0.0) & (abx * apy - aby * apx == 0.0)
                    & (dot >= 0.0) & (dot <= len2), axis=0)
    x0, y0, bx, by, cx, cy = x[0], y[0], x[b], y[b], x[c], y[c]
    area = (bx - x0) * (cy - y0) - (by - y0) * (cx - x0)
    sign = np.sign(area)
    # A degenerate triangle counts by its segments alone.
    holds = area != 0.0
    for ux, uy, vx, vy in ((bx - x0, by - y0, px - x0, py - y0),
                           (cx - bx, cy - by, px - bx, py - by),
                           (x0 - cx, y0 - cy, px - cx, py - cy)):
        holds &= sign * (ux * vy - uy * vx) >= 0.0
    # The hull lies in the bounding box of its points, and these float
    # comparisons are exact: no rounded sign takes in a point outside it.
    in_box = ((x.min(axis=0) <= px) & (px <= x.max(axis=0))
              & (y.min(axis=0) <= py) & (py <= y.max(axis=0)))
    return np.where(in_box & (inside | np.any(holds, axis=0)), 0.0, nearest)


def hull_distances(P, Q) -> np.ndarray:
    """Distance from each row p of an (n, dim) array P to the convex hull
    of the matching row of an (n, k, dim) array Q: max(0, lo - x, x - hi)
    in 1-d.  In 2-d, 0 when p lies in the bounding box of the points and
    on a segment between two of them or in a triangle of the first point
    and two others (these cover the hull, star-shaped about that point),
    by the signs of the computed cross products; else the least distance
    to such a segment, exact as the hull edges are among them.  Where a
    cross product rounds to the wrong sign, the result is off by at most
    that rounding.  Every segment and fan triangle of a row is measured
    at once, HULL_BLOCK_ROWS rows at a time.

    The work runs on the (dim, k, n) planes `Q.T`: contiguous rows and no
    copy for the slot-major arrays `limit_values` returns, and the same
    values, a little slower, for Q in any other order."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if P.shape[-1] == 1:
        x, lo, hi = P[:, 0], Q.T[0].min(axis=0), Q.T[0].max(axis=0)
        return np.maximum(np.maximum(0.0, lo - x), x - hi)
    px, py, (x, y) = P[:, 0], P[:, 1], Q.T
    out = np.empty(len(P))
    for lo in range(0, len(P), HULL_BLOCK_ROWS):
        rows = slice(lo, lo + HULL_BLOCK_ROWS)
        out[rows] = _planar_hull_block(px[rows], py[rows], x[:, rows], y[:, rows])
    return out


def nearest_to_hull(P, Q) -> tuple[int, float]:
    """The first row of least `hull_distances(P, Q)`, and that distance.

    In 2-d only the rows that can be it are measured.  The distance L
    from p to the bounding box of its row is a lower bound on its hull
    distance, and the least distance U from any p to a point of its own
    row bounds the winner's.  A row with L > U + HULL_PRUNE_SLACK * S,
    for S the largest coordinate size (at least 1), is farther than the
    winner whatever the rounding: it lies outside its bounding box, where
    no inside test holds.  The kept rows go through `hull_distances`."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if P.shape[-1] == 1:
        dist = hull_distances(P, Q)
        i = int(np.argmin(dist))
        return i, float(dist[i])
    x, y = Q.T
    px, py = P[:, 0], P[:, 1]
    box = _norms(np.maximum(np.maximum(0.0, x.min(axis=0) - px), px - x.max(axis=0)),
                 np.maximum(np.maximum(0.0, y.min(axis=0) - py), py - y.max(axis=0)))
    scale = max(1.0, float(np.max(np.abs(Q))), float(np.max(np.abs(P))))
    bound = float(np.min(_norms(px - x, py - y))) + HULL_PRUNE_SLACK * scale
    rows = np.flatnonzero(~(box > bound))  # a NaN row is kept
    # Gathered along the last axis of Q.T, the kept rows stay slot-major.
    dist = hull_distances(P[rows], Q.T[..., rows].T)
    j = int(np.argmin(dist))
    return int(rows[j]), float(dist[j])


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
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", float(self.resolution))
        count = math.prod(self.shape)
        imgs = np.array(self.images, dtype=float)
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
        return _lattice_shape(self.box, self.resolution)

    def _snap(self, P) -> np.ndarray:
        """Index of the lattice node nearest each row of P, clipped into
        the lattice; halves round to even."""
        P = np.asarray(P, dtype=float)
        if not np.all(np.isfinite(P)):
            raise InvalidArgumentError("point coordinates must be finite")
        lo = np.array([a for a, _ in self.box])
        idx = np.rint((P - lo) / self.resolution)
        return np.clip(idx, 0, np.array(self.shape) - 1).astype(np.intp)

    def eval_points(self, P) -> np.ndarray:
        """The image of the node nearest each row of an (n, dim) array."""
        return self.images[tuple(self._snap(P).T)]

    def grids(self, steps: Sequence[float]) -> tuple[float, ...]:
        """The lattice step alone: the map has no other grid."""
        return (self.resolution,)

    def candidates(self, h: float) -> np.ndarray:
        """Every lattice node, (n, dim), in lexicographic order."""
        return lattice_nodes(self.box, self.shape)

    def lattice_images(self, h: float) -> tuple[np.ndarray, float]:
        return self.images, self.resolution

    def limit_values(self, P) -> np.ndarray:
        """Images of the 3^dim - 1 lattice nodes around the node nearest
        each row of an (n, dim) array, as (n, 3^dim - 1, dim) in slot-major
        order.  A node past the lattice edge is mirrored onto another one,
        whose image it repeats."""
        if min(self.shape) < 2:
            raise InvalidArgumentError(
                f"limit values need two lattice nodes along every axis, got shape {self.shape}")
        # Coordinates first, with a border of mirrored nodes around the
        # lattice (np.pad's "reflect" rule, at a third of its cost): every
        # neighbour is then a fixed shift of its node in the flat layout.
        planes = np.moveaxis(self.images, -1, 0)
        for axis in range(1, self.dim + 1):
            planes = np.concatenate([planes.take([1], axis), planes, planes.take([-2], axis)],
                                    axis)
        offsets = [d for d in itertools.product((-1, 0, 1), repeat=self.dim) if any(d)]
        strides = np.array([math.prod(planes.shape[j + 2:]) for j in range(self.dim)])
        nodes = (self._snap(P) + 1) @ strides
        shifts = np.array(offsets) @ strides
        return planes.reshape(self.dim, -1).take(nodes + shifts[:, None], axis=1).T

    def neighbor_images(self, p) -> tuple[Vector, ...]:
        """Images of the lattice nodes adjacent to p's, in lexicographic order."""
        base = self._snap([as_vector(p, self.dim)])[0]
        window = self.images[tuple(slice(max(b - 1, 0), b + 2) for b in base)]
        own = np.ravel_multi_index(tuple(np.minimum(base, 1)), window.shape[:-1])
        return tuple(map(tuple, np.delete(window.reshape(-1, self.dim), own, axis=0).tolist()))

    @classmethod
    def from_function(cls, fn: Callable, box, resolution: float) -> "SampledMap":
        box = tuple((float(a), float(b)) for a, b in box)
        nodes = lattice_nodes(box, _lattice_shape(box, float(resolution)))
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


def _exact_route(space: PnSpace, m) -> bool:
    """Whether the exact measure applies: a piecewise map in a 1-d space."""
    return isinstance(m, PiecewiseMap1D) and space.dimension == 1


def discontinuity_exact(space: PnSpace, pw: PiecewiseMap1D) -> Ddf:
    """Exact measure of discontinuity of a 1-d piecewise-affine map.

    Over the breakpoints (continuity points contribute the maximal
    element and drop out of the infimum), take the pointwise infimum of
    the norm profiles of f(b) minus each one-sided limit: the profile of
    the largest gap, exactly, for any generator.
    """
    if not _exact_route(space, pw):
        raise InvalidArgumentError("exact route needs a piecewise map in a 1-d space")
    bs = pw._breaks_np[:, None]
    gaps = np.abs(pw.eval_points(bs)[:, None, :] - pw.limit_values(bs))
    return norm_profile(space, float(np.max(gaps, initial=0.0)))


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

    `ddf` is the final (finest-grid, smallest-delta) estimate and
    `previous` the estimate of the admitted level before it, or `ddf`
    itself when only one level was admitted.  At each t the two bracket
    the final value, in place of an error bound.  `to_json_obj(t_grid)`
    evaluates both on the t-grid a report prints.
    """

    ddf: Ddf
    previous: Ddf
    levels: tuple[RefinementLevel, ...]

    def to_json_obj(self, t_grid: Sequence[float]) -> dict:
        ts = _validate_ascending("t_grid", t_grid)
        arr = np.array(ts, dtype=float)
        vals = self.ddf.eval_many(arr).tolist()
        return {
            "ddf": self.ddf.to_json_obj(),
            "t_grid": list(ts),
            "values": vals,
            "brackets": [list(b) for b in zip(self.previous.eval_many(arr).tolist(), vals)],
            "levels": [lv.to_json_obj() for lv in self.levels],
        }


def _validate_positive(name: str, values: Iterable[float]) -> tuple[tuple[float, ...], np.ndarray]:
    """`values` as a tuple of floats and as an array, refused unless they
    are nonempty, positive and finite."""
    vals = tuple(map(float, values))
    if not vals:
        raise InvalidArgumentError(f"{name} must be nonempty")
    arr = np.fromiter(vals, float, len(vals))
    if not (arr.min() > 0.0 and arr.max() < math.inf):  # NaN fails too
        raise InvalidArgumentError(f"{name} entries must be positive and finite")
    return vals, arr


def _validate_descending(name: str, values: Iterable[float]) -> tuple[float, ...]:
    vals, arr = _validate_positive(name, values)
    if not (arr[:-1] > arr[1:]).all():
        raise InvalidArgumentError(f"{name} must be strictly descending")
    return vals


def _validate_ascending(name: str, values: Iterable[float]) -> tuple[float, ...]:
    """The t-grid rule: nonempty, positive, finite and strictly ascending."""
    vals, arr = _validate_positive(name, values)
    if not (arr[:-1] < arr[1:]).all():
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
    admitted = in_neighborhood(space, r, np.array(deltas)[:, None])
    cols = np.flatnonzero(np.any(admitted, axis=0))
    # In 2-d the largest squared length per offset, rooted once at the end:
    # the sum is `vec_norms`' own, and sqrt is correctly rounded, so monotone.
    # In 1-d the length is |d|, whose square could underflow.  Slices are
    # built from Python ints: numpy scalars would cost as much as the gaps.
    planes = np.ascontiguousarray(np.moveaxis(images, -1, 0))
    gaps = np.zeros(len(offsets))
    for k, offset in zip(cols.tolist(), offsets[cols].tolist()):
        src = tuple([slice(max(x, 0), n + min(x, 0)) for x, n in zip(offset, shape)])
        dst = tuple([slice(max(-x, 0), n + min(-x, 0)) for x, n in zip(offset, shape)])
        d = [c[src] - c[dst] for c in planes]
        if len(d) == 1:
            gaps[k] = np.abs(d[0]).max()
        else:
            dx, dy = d
            dx *= dx
            dy *= dy
            dx += dy
            gaps[k] = dx.max()
    if len(planes) == 2:
        gaps = np.sqrt(gaps)
    return [float(np.max(gaps[row])) if np.any(row) else None for row in admitted]


def _caller_stacklevel() -> int:
    """`warnings.warn`'s stacklevel, for its caller, of the first frame outside pnkit."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


def discontinuity_estimate(space: PnSpace, m, *,
                           delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                           grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS
                           ) -> DiscontinuityEstimate:
    """Estimate the discontinuity measure from point evaluations only.

    Profiles are ordered by their norms, so the double infimum at each
    t is the profile of the largest displacement between neighborhood
    pairs: the code tracks that one scalar per refinement level and keeps
    the profiles of the last two; `DiscontinuityEstimate.to_json_obj`
    evaluates them on the t-grid a report prints.

    A refinement level whose neighborhood contains no lattice point
    besides p itself is skipped with a warning (grid too coarse for that
    delta).  Per-level largest gaps may only shrink as delta descends;
    that is checked, not assumed.
    """
    deltas = _validate_descending("delta_schedule", delta_schedule)
    grids = _validate_descending("grid_resolutions", grid_resolutions)
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
                    RuntimeWarning, stacklevel=_caller_stacklevel())
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
    return DiscontinuityEstimate(ddf=est, previous=prev, levels=tuple(levels))


def discontinuity_measure(space: PnSpace, m, *,
                          delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                          grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS
                          ) -> tuple[Ddf, DiscontinuityEstimate | None]:
    """The discontinuity measure by the best available route:
    (exact measure, None) for a piecewise map in a 1-d space, else
    (estimate.ddf, estimate) from the grid estimator, a whole d.d.f.
    either way: callers evaluate it on the t-grid they check or print."""
    if _exact_route(space, m):
        return discontinuity_exact(space, m), None
    est = discontinuity_estimate(space, m, delta_schedule=delta_schedule,
                                 grid_resolutions=grid_resolutions)
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


def compare_discontinuity_routes(space: PnSpace, pw: PiecewiseMap1D, *,
                                 delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                                 grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS
                                 ) -> RouteComparison:
    """Compute the discontinuity measure along both routes (exact limit
    gaps vs. grid estimation) and report their metric distance, which
    must stay within twice the finest grid resolution.  The estimate's
    per-t curves are `estimate.to_json_obj(t_grid)`'s."""
    exact = discontinuity_exact(space, pw)
    est = discontinuity_estimate(space, pw, delta_schedule=delta_schedule,
                                 grid_resolutions=grid_resolutions)
    dist = sibley_distance(est.ddf, exact)
    return RouteComparison(exact=exact, estimate=est, distance=dist,
                           bound=2.0 * min(grid_resolutions))
