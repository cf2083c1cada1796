"""Search and verification for approximate fixed points.

Two searches, both exhaustive over a grid enriched with the map's
breakpoints and the exact fixed points of its affine pieces (so the
existence results they exercise become falsifiable tests rather than
heuristics):

  * a candidate whose residual profile dominates the map's
    discontinuity measure -- a point displaced by no more than the
    map's own jumping;
  * a candidate contained in (or within one grid cell of) the convex
    hull of its own one-sided limit values.

Existence of both is guaranteed for self-maps of a compact interval, so
a search that still fails after one grid refinement raises instead of
reporting quietly: that outcome signals a defect, not bad luck.

Residual profiles are ordered by the displacement |f(p) - p| (see
`pn_space`); the dominance search therefore minimizes that displacement
and checks dominance on the winner by exact step-function comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddf import Ddf, VALUE_TOL, ddf_leq_witness
from .discont import (DEFAULT_DELTA_SCHEDULE, DEFAULT_GRID_RESOLUTIONS,
                      DEFAULT_T_GRID, convex_hull, discontinuity_measure,
                      hull_distance_1d, map_eval_vec)
from .errors import InvalidArgumentError, TheoremViolationError
from .pn_space import PnSpace, Vector, prob_norm, profile_at, vec_norm, vec_norms, vec_sub


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
    grid_h: float
    refinements: int

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

    def hull_json(self):
        if isinstance(self.hull[0], tuple):
            return [list(v) for v in self.hull]
        return [self.hull[0], self.hull[1]]

    def to_json_obj(self) -> dict:
        return {"point": list(self.point), "hull": self.hull_json(),
                "distance": self.distance}


def _search_steps(m, h: float, max_refinements: int) -> tuple[float, ...]:
    """The grid steps a search tries in turn: h, halved up to `max_refinements` times."""
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise InvalidArgumentError(f"grid resolution must be positive, got {h!r}")
    return m.grids(tuple(h * 0.5 ** k for k in range(max_refinements + 1)))


def find_approx_fixed_point(space: PnSpace, m, psi: Ddf, h: float,
                            max_refinements: int = 1) -> FixPointReport:
    """Scan the candidate set for the point of least displacement and
    check that its residual profile dominates `psi`.

    When `psi` comes from the exact route a dominating candidate must
    exist; a grid miss triggers one refinement by halving h, after which
    a persistent miss raises with the failing report attached.
    """
    steps = _search_steps(m, h, max_refinements)
    if m.dim != space.dimension:
        raise InvalidArgumentError("map and space dimensions must agree")

    report = None
    for attempt, cur_h in enumerate(steps):
        cands = m.candidates(cur_h)
        diffs = m.eval_points(cands) - cands
        disp = vec_norms(diffs)
        i = int(np.argmin(disp))  # ties resolve to the first candidate in order
        candidate: Vector = tuple(cands[i].tolist())
        displacement = float(disp[i])
        diff = tuple(diffs[i].tolist())

        residual = prob_norm(space, diff)
        margin, _ = ddf_leq_witness(psi, residual)
        dominance = margin <= VALUE_TOL
        report = FixPointReport(candidate=candidate, displacement=displacement,
                                residual_ddf=residual, psi=psi, dominance=dominance,
                                margin=margin, grid_h=cur_h, refinements=attempt)
        if dominance:
            return report
    raise TheoremViolationError(
        f"no candidate dominates the discontinuity measure "
        f"(best displacement {report.displacement!r} at {report.candidate!r})",
        report=report)


def _hull_distance(p: Vector, hull) -> float:
    if len(p) == 1:
        return hull_distance_1d(p[0], hull)
    # Planar hulls stay desk-scale; the distance to the vertex set is a
    # usable upper bound and exact for containment checks on segments.
    if _point_in_hull_2d(p, hull):
        return 0.0
    return min(vec_norm(vec_sub(p, v)) for v in hull)


def _point_in_hull_2d(p: Vector, hull) -> bool:
    if len(hull) == 1:
        return vec_norm(vec_sub(p, hull[0])) == 0.0
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull
        cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
        if abs(cross) > 1e-12:
            return False
        dot = (p[0] - x0) * (x1 - x0) + (p[1] - y0) * (y1 - y0)
        return 0.0 <= dot <= (x1 - x0) ** 2 + (y1 - y0) ** 2
    n = len(hull)
    for i in range(n):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % n]
        if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) < -1e-12:
            return False
    return True


def kakutani_search(m, h: float, tol: float | None = None,
                    max_refinements: int = 1) -> KakutaniResult:
    """Find a candidate within `tol` of the convex hull of its own limit
    values, preferring exact containment.

    tol defaults to one cell of the first grid searched: h, or the
    lattice step of a sampled map, whose lattice is its only candidate
    set.  Existence is guaranteed, so a miss after refinement raises.
    """
    steps = _search_steps(m, h, max_refinements)
    tol = float(steps[0] if tol is None else tol)
    if tol < 0.0:
        raise InvalidArgumentError(f"tolerance must be nonnegative, got {tol!r}")

    best: KakutaniResult | None = None
    for cur_h in steps:
        for p in map(tuple, m.candidates(cur_h).tolist()):
            hull = convex_hull(m.limit_values(p))
            d = _hull_distance(p, hull)
            if best is None or d < best.distance:
                best = KakutaniResult(point=p, hull=hull, distance=d)
                if d == 0.0:
                    break
        if best is not None and best.distance <= tol:
            return best
    raise TheoremViolationError(
        f"no candidate within {tol!r} of its own limit hull "
        f"(best distance {best.distance!r} at {best.point!r})",
        report=best)


def verify_approx_fixed_point(space: PnSpace, m, *,
                              search_h: float | None = None,
                              t_grid: Sequence[float] = DEFAULT_T_GRID,
                              delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                              grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS) -> dict:
    """End-to-end verification on one map: discontinuity measure (exact
    route when available), dominance search, hull-containment search,
    and the inequality chain

        residual(t) >= min over limit values q of profile(f(p*) - q)(t)
                    >= measure(t)

    at the hull-containment point for every t in the grid.  Returns a
    JSON-ready report; anomalies in the sub-searches propagate as
    exceptions.
    """
    psi, estimate_obj = discontinuity_measure(space, m, delta_schedule=delta_schedule,
                                              grid_resolutions=grid_resolutions,
                                              t_grid=t_grid)
    h = float(search_h) if search_h is not None else float(min(grid_resolutions))
    fp = find_approx_fixed_point(space, m, psi, h)
    kk = kakutani_search(m, h)

    ts = np.array(t_grid, dtype=float)
    if not np.all(ts >= 0.0):
        raise InvalidArgumentError("t_grid entries must be nonnegative")
    # The minimum over the limit profiles is the profile of the farthest
    # limit value.
    pk = kk.point
    fk = map_eval_vec(m, pk)
    far = max(vec_norm(vec_sub(fk, q)) for q in m.limit_values(pk))
    mid = profile_at(space, far, ts)
    upper = profile_at(space, vec_norm(vec_sub(fk, pk)), ts) - mid
    lower = mid - psi.eval_many(ts)
    worst_upper = float(np.min(upper, initial=math.inf))
    worst_lower = float(np.min(lower, initial=math.inf))
    chain_holds = worst_upper >= -VALUE_TOL and worst_lower >= -VALUE_TOL

    report = {
        "space": space.to_json_obj(),
        "map": m.to_json_obj(),
        "psi_route": "exact" if estimate_obj is None else "estimate",
        "psi": psi.to_json_obj(),
        "fixpoint": fp.to_json_obj(),
        "kakutani": kk.to_json_obj(),
        "chain": {
            "holds": chain_holds,
            "checked_t": len(ts),
            "worst_t": float(ts[np.argmin(np.minimum(upper, lower))]) if len(ts) else None,
            "residual_minus_mid_min": worst_upper,
            "mid_minus_psi_min": worst_lower,
        },
    }
    if estimate_obj is not None:
        report["psi_levels"] = [lv.to_json_obj() for lv in estimate_obj.levels]
    return report
