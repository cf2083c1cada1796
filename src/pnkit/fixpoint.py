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
a search that still fails after MAX_REFINEMENTS halvings of its grid
step raises instead of reporting quietly: that outcome signals a defect,
not bad luck.

Residual profiles are ordered by the displacement |f(p) - p| (see
`pn_space`); the dominance search therefore minimizes that displacement
and checks dominance on the winner by exact step-function comparison.

`verify_approx_fixed_point` runs both searches and the inequality chain
between them on one map and returns a `VerifyResult`: the typed results
themselves, which the CLI writes as CSV curves, and `to_json_obj()`, the
scenario entry of a `pnkit verify-t34` report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddf import HULL_CROSS_SLACK, VALUE_TOL, Ddf, ddf_leq_witness
from .discont import (DEFAULT_DELTA_SCHEDULE, DEFAULT_GRID_RESOLUTIONS, DEFAULT_T_GRID,
                      DiscontinuityEstimate, _validate_ascending, _validate_descending,
                      convex_hull, discontinuity_measure)
from .errors import InvalidArgumentError, TheoremViolationError
from .pn_space import PnSpace, Vector, prob_norm, profile_at, vec_norm, vec_norms

# How many times a search halves its grid step after a miss before the
# miss counts as a defect.
MAX_REFINEMENTS = 1


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

    def to_json_obj(self) -> dict:
        return {"point": list(self.point), "hull": np.asarray(self.hull).tolist(),
                "distance": self.distance}


def _search_steps(m, h: float) -> tuple[float, ...]:
    """The grid steps a search tries in turn: h, halved up to MAX_REFINEMENTS times."""
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise InvalidArgumentError(f"grid resolution must be positive, got {h!r}")
    return m.grids(tuple(h * 0.5 ** k for k in range(MAX_REFINEMENTS + 1)))


def find_approx_fixed_point(space: PnSpace, m, psi: Ddf, h: float) -> FixPointReport:
    """Scan the candidate set for the point of least displacement and
    check that its residual profile dominates `psi`.

    When `psi` comes from the exact route a dominating candidate must
    exist; a grid miss triggers one refinement by halving h, after which
    a persistent miss raises with the failing report attached.
    """
    steps = _search_steps(m, h)
    if m.dim != space.dimension:
        raise InvalidArgumentError("map and space dimensions must agree")

    report = None
    for attempt, cur_h in enumerate(steps):
        cands = m.candidates(cur_h)
        diffs = m.eval_points(cands) - cands
        disp = vec_norms(diffs)
        i = int(np.argmin(disp))  # ties resolve to the first candidate in order
        residual = prob_norm(space, diffs[i])
        margin, _ = ddf_leq_witness(psi, residual)
        dominance = margin <= VALUE_TOL
        report = FixPointReport(candidate=tuple(cands[i].tolist()), displacement=float(disp[i]),
                                residual_ddf=residual, psi=psi, dominance=dominance,
                                margin=margin, refinements=attempt)
        if dominance:
            return report
    raise TheoremViolationError(
        f"no candidate dominates the discontinuity measure "
        f"(best displacement {report.displacement!r} at {report.candidate!r})",
        report=report)


def _hull_distance(p: Vector, hull) -> float:
    if len(p) == 1:
        lo, hi = hull
        return max(0.0, lo - p[0], p[0] - hi)
    # Planar hulls stay desk-scale; the distance to the vertex set is a
    # usable upper bound and exact for containment checks on segments.
    if _point_in_hull_2d(p, hull):
        return 0.0
    return min(vec_norm((p[0] - x, p[1] - y)) for x, y in hull)


def _point_in_hull_2d(p: Vector, hull) -> bool:
    # Scalar arithmetic: one numpy call per candidate costs about three
    # times this whole test on the planar hulls of at most 8 vertices.
    if len(hull) == 1:
        (x0, y0), = hull
        return vec_norm((p[0] - x0, p[1] - y0)) == 0.0
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull
        cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
        if abs(cross) > HULL_CROSS_SLACK:
            return False
        dot = (p[0] - x0) * (x1 - x0) + (p[1] - y0) * (y1 - y0)
        return 0.0 <= dot <= (x1 - x0) ** 2 + (y1 - y0) ** 2
    n = len(hull)
    for i in range(n):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % n]
        if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) < -HULL_CROSS_SLACK:
            return False
    return True


def kakutani_search(m, h: float, tol: float | None = None) -> KakutaniResult:
    """Find a candidate within `tol` of the convex hull of its own limit
    values, preferring exact containment.

    tol defaults to one cell of the first grid searched: h, or the
    lattice step of a sampled map, whose lattice is its only candidate
    set.  Existence is guaranteed, so a miss after refinement raises.
    """
    steps = _search_steps(m, h)
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


def verify_approx_fixed_point(space: PnSpace, m, *,
                              t_grid: Sequence[float] = DEFAULT_T_GRID,
                              delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
                              grid_resolutions: Sequence[float] = DEFAULT_GRID_RESOLUTIONS
                              ) -> VerifyResult:
    """End-to-end verification on one map: discontinuity measure (exact
    route when available), dominance search, hull-containment search,
    and the inequality chain

        residual(t) >= min over limit values q of profile(f(p*) - q)(t)
                    >= measure(t)

    at the hull-containment point for every t in the grid.  Both
    searches use the finest of `grid_resolutions`; anomalies in them
    propagate as exceptions.
    """
    t_grid = _validate_ascending("t_grid", t_grid)
    grid_resolutions = _validate_descending("grid_resolutions", grid_resolutions)
    psi, estimate = discontinuity_measure(space, m, delta_schedule=delta_schedule,
                                          grid_resolutions=grid_resolutions, t_grid=t_grid)
    h = float(min(grid_resolutions))
    fp = find_approx_fixed_point(space, m, psi, h)
    kk = kakutani_search(m, h)

    # The minimum over the limit profiles is the profile of the farthest
    # limit value.
    ts = np.array(t_grid)
    p = np.array(kk.point)
    fk = m.eval_points(p[None])[0]
    far = float(np.max(vec_norms(fk - np.array(m.limit_values(kk.point)))))
    mid = profile_at(space, far, ts)
    upper = profile_at(space, vec_norms(fk - p), ts) - mid
    lower = mid - psi.eval_many(ts)
    return VerifyResult(space=space, map=m, estimate=estimate, fixpoint=fp, kakutani=kk,
                        t_grid=t_grid,
                        worst_t=float(ts[np.argmin(np.minimum(upper, lower))]),
                        residual_minus_mid_min=float(np.min(upper)),
                        mid_minus_psi_min=float(np.min(lower)))
