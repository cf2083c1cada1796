"""Search and verification for approximate fixed points.

Two searches, both exhaustive over a grid enriched with the map's
breakpoints and the exact fixed points of its affine pieces (so the
existence results they exercise become falsifiable tests rather than
heuristics):

  * a candidate whose residual profile dominates the map's
    discontinuity measure -- a point displaced by no more than the
    map's own jumping;
  * a candidate contained in (or within one grid cell of) the convex
    hull of its own one-sided limit values: `discont.nearest_to_hull`
    finds the first of least exact hull distance on a whole grid at
    once, measuring in 2-d only the candidates whose bounding-box
    distance does not already rule them out.

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

from .ddf import VALUE_TOL, Ddf, ddf_leq_witness
from .discont import (DEFAULT_DELTA_SCHEDULE, DEFAULT_GRID_RESOLUTIONS, DEFAULT_T_GRID,
                      DiscontinuityEstimate, _validate_ascending, _validate_descending,
                      convex_hull, discontinuity_measure, nearest_to_hull)
from .errors import InvalidArgumentError, TheoremViolationError
from .pn_space import PnSpace, Vector, prob_norm, profile_at, vec_norms

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


def _search_step(m, h: float) -> float:
    """The one grid step a search scans: h, or a sampled map's lattice step."""
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise InvalidArgumentError(f"grid resolution must be positive, got {h!r}")
    return m.grids((h,))[0]


def find_approx_fixed_point(space: PnSpace, m, psi: Ddf, h: float) -> FixPointReport:
    """Scan the candidate set for the point of least displacement and
    check that its residual profile dominates `psi`.

    When `psi` comes from the exact route a dominating candidate must
    exist among the candidates of the one grid searched, so a miss
    raises with the failing report attached.
    """
    h = _search_step(m, h)
    if m.dim != space.dimension:
        raise InvalidArgumentError("map and space dimensions must agree")

    cands = m.candidates(h)
    diffs = m.eval_points(cands) - cands
    disp = vec_norms(diffs)
    i = int(np.argmin(disp))  # ties resolve to the first candidate in order
    residual = prob_norm(space, diffs[i])
    margin, _ = ddf_leq_witness(psi, residual)
    report = FixPointReport(candidate=tuple(cands[i].tolist()), displacement=float(disp[i]),
                            residual_ddf=residual, psi=psi, dominance=margin <= VALUE_TOL,
                            margin=margin)
    if not report.dominance:
        raise TheoremViolationError(
            f"no candidate dominates the discontinuity measure "
            f"(best displacement {report.displacement!r} at {report.candidate!r})",
            report=report)
    return report


def kakutani_search(m, h: float) -> KakutaniResult:
    """Find the first candidate of least distance to the convex hull of
    its own limit values, on the one grid searched: step h, or the
    lattice of a sampled map.  That step is the tolerance: existence is
    guaranteed, so a best distance above it raises.
    """
    h = _search_step(m, h)
    cands = m.candidates(h)
    limits = m.limit_values(cands)
    i, dist = nearest_to_hull(cands, limits)
    best = KakutaniResult(point=tuple(cands[i].tolist()), hull=convex_hull(limits[i]),
                          distance=dist)
    if dist > h:
        raise TheoremViolationError(
            f"no candidate within {h!r} of its own limit hull "
            f"(best distance {dist!r} at {best.point!r})",
            report=best)
    return best


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
    and the inequality chain at the hull-containment point p*

        residual(t) >= profile(far + d)(t),   profile(far)(t) >= measure(t)

    for every t in the grid, where far is the largest |f(p*) - q| over
    the limit values q (profile(far) is the least of their profiles) and
    d is the hull distance of p*.  Both searches use the finest of
    `grid_resolutions`; anomalies in them propagate as exceptions.
    """
    t_grid = _validate_ascending("t_grid", t_grid)
    grid_resolutions = _validate_descending("grid_resolutions", grid_resolutions)
    psi, estimate = discontinuity_measure(space, m, delta_schedule=delta_schedule,
                                          grid_resolutions=grid_resolutions)
    h = float(min(grid_resolutions))
    fp = find_approx_fixed_point(space, m, psi, h)
    kk = kakutani_search(m, h)

    # The least limit profile is the farthest limit value's.  Only the upper
    # link takes the hull distance d as slack: |f(p) - p| <= max_q |f(p) - q|
    # + dist(p, co Q), by the triangle inequality and convexity of the norm.
    ts = np.array(t_grid)
    p = np.array(kk.point)[None]
    fk = m.eval_points(p)
    far = float(np.max(vec_norms(fk - m.limit_values(p)[0])))
    norms = [[vec_norms(fk[0] - p[0])], [far + kk.distance], [far]]
    residual, mid, least = profile_at(space, norms, ts)
    upper = residual - mid
    lower = least - psi.eval_many(ts)
    return VerifyResult(space=space, map=m, estimate=estimate, fixpoint=fp, kakutani=kk,
                        t_grid=t_grid,
                        worst_t=float(ts[np.argmin(np.minimum(upper, lower))]),
                        residual_minus_mid_min=float(np.min(upper)),
                        mid_minus_psi_min=float(np.min(lower)))
