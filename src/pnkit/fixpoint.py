"""Search and verification for approximate fixed points.

Two searches, both exhaustive over a grid enriched with the map's
breakpoints and the exact fixed points of its affine pieces (so the
existence results they exercise become falsifiable tests rather than
heuristics):

  * a candidate whose residual profile dominates the map's
    discontinuity measure -- a point displaced by no more than the
    map's own jumping;
  * a candidate contained in (or within one grid cell of) the convex
    hull of its own one-sided limit values: `discont.nearest_to_hulls`
    finds, for each map, the first of least exact hull distance on a
    whole grid at once, measuring in 2-d only the candidates whose
    bounding-box distance does not already rule them out.

Existence of both is guaranteed for self-maps of a compact interval, and
each search scans exactly one grid: step h, or a sampled map's lattice.
A piecewise map's candidates already hold the witnesses (every
breakpoint lies in the hull of its one-sided limits when g(x) = f(x) - x
changes sign across it, and every piece's exact fixed point is a
candidate), so a search that finds none raises at once instead of
reporting quietly: that outcome signals a defect, not bad luck.

Residual profiles are ordered by the displacement |f(p) - p| (see
`pn_space`); the dominance search therefore minimizes that displacement
and checks dominance on the winner by exact step-function comparison.

`verify_batch` runs both searches and the inequality chain between
them on a list of maps that share a space, t-grid, schedules and h.  It
validates the t-grid and the schedules once and concatenates the maps'
candidates, with the first row of each map, into one (candidates,
images, limit values) triple that both searches and the chain read.
The piecewise maps of a 1-d space take it in one pass
(`discont.piecewise_triples`), which also gives each map's exact
discontinuity measure: every breakpoint is a candidate.  Any other map
takes the grid estimate and is verified alone, its limit values built
only after its dominance search has passed.  Every map's search winners
are taken per segment of rows by the rules `find_approx_fixed_point` and
`kakutani_search` also call, and its chain profiles in one `profile_at`
call for all.  Errors come in map order: the first failing map raises,
and within one map the measure's error comes first, then dominance,
then the hull.  `verify_approx_fixed_point` is its one-map call.  A `VerifyResult` holds the typed results themselves, which the
CLI writes as CSV curves, and `to_json_obj()`, the scenario entry of a
`pnkit verify-t34` report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import discont
from .ddf import VALUE_TOL, Ddf, ddf_leq_witness
from .discont import (DEFAULT_DELTA_SCHEDULE, DEFAULT_GRID_RESOLUTIONS, DEFAULT_T_GRID,
                      DiscontinuityEstimate, _exact_route, _validate_ascending,
                      _validate_descending, convex_hull, discontinuity_measure, grid_nodes,
                      nearest_to_hull, nearest_to_hulls, piecewise_triples)
from .errors import InvalidArgumentError, TheoremViolationError
from .pn_space import PnSpace, Vector, norm_profile, profile_at, vec_norms

@dataclass(frozen=True)
class FixPointReport:
    """Best candidate of the dominance search.

    `margin` is the largest pointwise excess of the discontinuity
    measure over the residual profile on the shared probe set; with
    step functions it is 0 when dominated (the two agree near 0) and a
    whole mass quantum when violated, so dominance holds iff the margin
    is at most the comparison tolerance.
    """

    candidate: Vector
    displacement: float
    residual_ddf: Ddf
    psi: Ddf
    dominance: bool
    margin: float
    # The search scans one grid and never refines; the benchmark's traced
    # counter `fixpoint.find_approx_fixed_point.refinements` reads it.
    refinements = 0

    def to_json_obj(self) -> dict:
        return {
            "candidate": list(self.candidate),
            "displacement": self.displacement,
            "residual": self.residual_ddf.to_json_obj(),
            "psi": self.psi.to_json_obj(),
            "dominance": self.dominance,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class KakutaniResult:
    point: Vector
    hull: tuple
    distance: float

    def to_json_obj(self) -> dict:
        return {"point": list(self.point), "hull": np.asarray(self.hull).tolist(),
                "distance": self.distance}


def _search_grid(m, h: float) -> tuple[float, np.ndarray]:
    """The step of the one grid a search scans, h or a sampled map's
    lattice step, and the grid's candidates."""
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise InvalidArgumentError(f"grid resolution must be positive, got {h!r}")
    h = m.grids((h,))[0]
    return h, m.candidates(h)


def _dominance(space: PnSpace, psi: Ddf, cands, disp) -> FixPointReport:
    """The dominance search on candidates of displacement `disp`: the
    first of least displacement, and whether its residual profile
    dominates `psi`."""
    i = int(np.argmin(disp))  # ties resolve to the first candidate in order
    d = float(disp[i])
    residual = norm_profile(space, d)
    margin, _ = ddf_leq_witness(psi, residual)
    return FixPointReport(candidate=tuple(cands[i].tolist()), displacement=d,
                          residual_ddf=residual, psi=psi, dominance=margin <= VALUE_TOL,
                          margin=margin)


def _require_dominance(report: FixPointReport) -> FixPointReport:
    if not report.dominance:
        raise TheoremViolationError(
            f"no candidate dominates the discontinuity measure "
            f"(best displacement {report.displacement!r} at {report.candidate!r})",
            report=report)
    return report


def _own_hull(cands, limits, row: int, dist: float) -> KakutaniResult:
    """The hull search's winner, at `row` of the candidates and their
    limit values, `dist` from its hull."""
    return KakutaniResult(point=tuple(cands[row].tolist()), hull=convex_hull(limits[row]),
                          distance=dist)


def _require_hull(best: KakutaniResult, h: float) -> KakutaniResult:
    if best.distance > h:
        raise TheoremViolationError(
            f"no candidate within {h!r} of its own limit hull "
            f"(best distance {best.distance!r} at {best.point!r})",
            report=best)
    return best


def find_approx_fixed_point(space: PnSpace, m, psi: Ddf, h: float) -> FixPointReport:
    """Scan the candidate set for the point of least displacement and
    check that its residual profile dominates `psi`.

    When `psi` comes from the exact route a dominating candidate must
    exist among the candidates of the one grid searched, so a miss
    raises with the failing report attached.
    """
    h, cands = _search_grid(m, h)
    if m.dim != space.dimension:
        raise InvalidArgumentError("map and space dimensions must agree")
    return _require_dominance(
        _dominance(space, psi, cands, vec_norms(m.eval_points(cands) - cands)))


def kakutani_search(m, h: float) -> KakutaniResult:
    """Find the first candidate of least distance to the convex hull of
    its own limit values, on the one grid searched: step h, or the
    lattice of a sampled map.  That step is the tolerance: existence is
    guaranteed, so a best distance above it raises.
    """
    h, cands = _search_grid(m, h)
    limits = m.limit_values(cands)
    return _require_hull(_own_hull(cands, limits, *nearest_to_hull(cands, limits)), h)


@dataclass(frozen=True)
class VerifyResult:
    """One map's verification: the two searches, and the least slack of
    each link of the inequality chain over `t_grid`, least at `worst_t`."""

    space: PnSpace
    map: object
    estimate: DiscontinuityEstimate | None
    fixpoint: FixPointReport
    kakutani: KakutaniResult
    t_grid: tuple[float, ...]
    worst_t: float
    residual_minus_mid_min: float
    mid_minus_psi_min: float

    @property
    def chain_holds(self) -> bool:
        return self.residual_minus_mid_min >= -VALUE_TOL and self.mid_minus_psi_min >= -VALUE_TOL

    def to_json_obj(self) -> dict:
        obj = {
            "space": self.space.to_json_obj(),
            "map": self.map.to_json_obj(),
            "psi_route": "exact" if self.estimate is None else "estimate",
            "psi": self.fixpoint.psi.to_json_obj(),
            "fixpoint": self.fixpoint.to_json_obj(),
            "kakutani": self.kakutani.to_json_obj(),
            "chain": {
                "holds": self.chain_holds,
                "checked_t": len(self.t_grid),
                "worst_t": self.worst_t,
                "residual_minus_mid_min": self.residual_minus_mid_min,
                "mid_minus_psi_min": self.mid_minus_psi_min,
            },
        }
        if self.estimate is not None:
            obj["psi_levels"] = [lv.to_json_obj() for lv in self.estimate.levels]
        return obj


def verify_batch(space: PnSpace, maps: Sequence, *,
                 t_grid: Sequence[float] = DEFAULT_T_GRID,
                 delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                 grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS
                 ) -> list[VerifyResult]:
    """End-to-end verification of each map, in order: discontinuity
    measure (exact route when available), dominance search,
    hull-containment search, and the inequality chain at the
    hull-containment point p*

        residual(t) >= profile(far + d)(t),   profile(far)(t) >= measure(t)

    for every t in the grid, where far is the largest |f(p*) - q| over
    the limit values q (profile(far) is the least of their profiles) and
    d is the hull distance of p*.  Both searches scan the grid of the
    finest of `grid_resolutions` and the chain reads p*'s row of it;
    anomalies in the searches propagate as exceptions, the first failing
    map's first.
    """
    t_grid, ts = _validate_ascending("t_grid", t_grid)
    grid_resolutions = _validate_descending("grid_resolutions", grid_resolutions)
    h = min(grid_resolutions)
    results: list[VerifyResult] = []
    for batch in _batches(space, maps, h, 3 * len(ts) * len(space.generator.jumps)):
        if batch[0][1] is None:
            m = batch[0][0]
            # Also refuses a map of another dimension than the space's.
            psi, estimate = discontinuity_measure(space, m, delta_schedule=delta_schedule,
                                                  grid_resolutions=grid_resolutions)
            step, cands = _search_grid(m, h)
            results += _verify_rows(space, [m], [step], [psi], [estimate], t_grid, ts, cands,
                                    [0], m.eval_points(cands), None)
            continue
        maps_in = [m for m, _ in batch]
        cands, starts, images, limits, gaps = piecewise_triples(maps_in, [x for _, x in batch])
        results += _verify_rows(space, maps_in, [h] * len(batch),
                                [norm_profile(space, g) for g in gaps],
                                [None] * len(batch), t_grid, ts, cands, starts, images, limits)
    return results


def _batches(space: PnSpace, maps: Sequence, h: float, chain_cells: int) -> Iterator[list]:
    """The maps in order, as the batches `verify_batch` verifies at once:
    (map, candidates) pairs of exact-route maps, with no more than
    MAX_GRID_NODES candidates, or chain cells (thresholds x generator
    jumps x 3), in one batch unless a single map holds more; and every
    other map alone, as (map, None).  Each distinct domain's grid is
    built once.  The generator is lazy, and a batch ends before a map
    whose next step could warn or raise (an estimate, a new grid), so
    every batch is verified before that step runs."""
    batch: list = []
    size = 0
    grids: dict = {}
    for m in maps:
        exact = _exact_route(space, m)
        if batch and not (exact and m.domain in grids):
            yield batch
            batch, size = [], 0
        if not exact:
            yield [(m, None)]
            continue
        if m.domain not in grids:
            grids[m.domain] = grid_nodes(*m.domain, h)
        cands = m._candidates_on(grids[m.domain])
        cost = max(len(cands), chain_cells)
        if batch and size + cost > discont.MAX_GRID_NODES:
            yield batch
            batch, size = [], 0
        batch.append((m, cands))
        size += cost
    if batch:
        yield batch


def _verify_rows(space: PnSpace, maps: Sequence, steps: Sequence[float], psis: Sequence[Ddf],
                 estimates: Sequence, t_grid: tuple[float, ...], ts: np.ndarray,
                 cands: np.ndarray, starts: Sequence[int], images: np.ndarray,
                 limits: np.ndarray | None) -> list[VerifyResult]:
    """`verify_batch` on the candidates of `maps`, concatenated, map k's
    from row starts[k], with their images and limit values.  `limits` is
    None for one map alone, whose limit values are built after its
    dominance search has passed.  Every map's searches run before any
    raises, and the first failing map raises its first error."""
    disp = vec_norms(images - cands)
    ends = [*starts[1:], len(cands)]
    fps = [_dominance(space, psi, cands[a:b], disp[a:b])
           for psi, a, b in zip(psis, starts, ends)]
    if limits is None:  # one map alone: its limit values come after its dominance check
        _require_dominance(fps[0])
        limits = maps[0].limit_values(cands)
    hulls = nearest_to_hulls(cands, limits, starts)
    kks = [_own_hull(cands, limits, *hull) for hull in hulls]
    for fp, kk, step in zip(fps, kks, steps):
        _require_dominance(fp)
        _require_hull(kk, step)
    rows = [i for i, _ in hulls]

    # The least limit profile is the farthest limit value's.  Only the upper
    # link takes the hull distance d as slack: |f(p) - p| <= max_q |f(p) - q|
    # + dist(p, co Q), by the triangle inequality and convexity of the norm.
    far = np.max(vec_norms(images[rows][:, None, :] - limits[rows]), axis=1)
    norms = np.array([disp[rows], far + [kk.distance for kk in kks], far])
    residual, mid, least = profile_at(space, norms[..., None], ts)
    upper = residual - mid
    lower = least - np.array([psi.eval_many(ts) for psi in psis])
    worst = ts[np.argmin(np.minimum(upper, lower), axis=1)].tolist()
    return [VerifyResult(space=space, map=m, estimate=est, fixpoint=fp, kakutani=kk,
                         t_grid=t_grid, worst_t=w, residual_minus_mid_min=u, mid_minus_psi_min=v)
            for m, est, fp, kk, w, u, v in zip(maps, estimates, fps, kks, worst,
                                               upper.min(axis=1).tolist(),
                                               lower.min(axis=1).tolist())]


def verify_approx_fixed_point(space: PnSpace, m, *,
                              t_grid: Sequence[float] = DEFAULT_T_GRID,
                              delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                              grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS
                              ) -> VerifyResult:
    """`verify_batch` on one map."""
    return verify_batch(space, [m], t_grid=t_grid, delta_schedule=delta_schedule,
                        grid_resolutions=grid_resolutions)[0]
