"""Strong neighborhoods, probabilistic diameter, and continuity testing.

The strong neighborhood of p at threshold t collects the points whose
difference profile exceeds 1 - t at t; `pn_space.in_neighborhood`
decides that for every check here, and makes it the ball of radius
t / a(t) for every generator.  The probabilistic diameter of a finite
point set is the left-continuous regularization of the pointwise infimum
of the members' norm profiles -- a radius about the origin, not a
pairwise spread; it is implemented exactly as defined.

The continuity scan looks for the existential threshold  "some smaller
neighborhood has a well-concentrated image" on a finite descending
schedule; each point either receives a witness threshold or the scan is
inconclusive (reported as such, never as disproof).  A piecewise map is
decided exactly under every generator: the image supremum over the
closed ball is a finite computation.  The closed ball is conservative,
since it refuses a ball whose boundary sits exactly on a jump.  A
sampled map's neighborhoods are approximated by a probe lattice, and
its scan remains a semi-decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddf import Ddf, left_limit_of_infimum
from .discont import PiecewiseMap1D, _validate_descending, lattice_nodes
from .errors import InvalidArgumentError
from .pn_space import (PnSpace, Vector, as_vector, in_neighborhood, level_location, prob_norm,
                       profile_at, vec_norms)
from .tnorms import TNormKind

# Largest probe lattice of the continuity scan, and largest work array it
# takes on (levels x probe points x generator jumps, and levels x pieces of
# a piecewise map); so its work arrays of floats stay within 128 MB.
MAX_PROBE_BUDGET = 1 << 16
MAX_SCAN_CELLS = 1 << 24


@dataclass(frozen=True)
class PointSet:
    """A nonempty finite set of vectors of one dimension; duplicates are
    deduplicated at construction."""

    points: tuple[Vector, ...]

    def __post_init__(self):
        pts = [as_vector(p) for p in self.points]
        if not pts:
            raise InvalidArgumentError("point set must be nonempty")
        dim = len(pts[0])
        for p in pts:
            if len(p) != dim:
                raise InvalidArgumentError("point set mixes dimensions")
        object.__setattr__(self, "points", tuple(dict.fromkeys(pts)))

    @property
    def dimension(self) -> int:
        return len(self.points[0])


def _threshold(t) -> float:
    """A neighborhood threshold as a float, refused unless 1 - t < 1 (so
    t > 2**-54), the bound under which the centre is its own member."""
    t = float(t)
    if not (1.0 - t < 1.0):  # NaN fails too
        raise InvalidArgumentError(f"threshold must exceed 2**-54 (1 - t < 1), got {t!r}")
    return t


def in_strong_neighborhood(space: PnSpace, p, t: float, q) -> bool:
    """Membership of q in the strong neighborhood of p at threshold t > 0."""
    t = _threshold(t)
    diff = np.subtract(as_vector(p, space.dimension), as_vector(q, space.dimension))
    return bool(in_neighborhood(space, vec_norms(diff), t))


def prob_diameter(space: PnSpace, A: PointSet) -> Ddf:
    """Probabilistic diameter of a finite set: the left-continuous
    regularization of the pointwise infimum of the members' profiles.
    Dominated by every member's own profile."""
    if A.dimension != space.dimension:
        raise InvalidArgumentError(
            f"point set dimension {A.dimension} does not match space dimension {space.dimension}")
    return left_limit_of_infimum([prob_norm(space, p) for p in A.points])


@dataclass(frozen=True)
class ContinuityWitness:
    point: Vector
    witness_tprime: float | None

    def to_json_obj(self) -> dict:
        return {"p": list(self.point), "witness_tprime": self.witness_tprime}


@dataclass(frozen=True)
class ContinuityReport:
    """Per-point witness thresholds; `passed` iff every point has one.

    A missing witness is inconclusive on the probed schedule, not a
    disproof of continuity.
    """

    t: float
    entries: tuple[ContinuityWitness, ...]

    @property
    def passed(self) -> bool:
        return all(e.witness_tprime is not None for e in self.entries)

    def to_json_obj(self) -> dict:
        return {"t": self.t,
                "points": [e.to_json_obj() for e in self.entries],
                "pass": self.passed}


def default_tprime_schedule(t: float) -> tuple[float, ...]:
    """Descending geometric schedule of 21 levels t, t/2, ..., t / 2^20."""
    return tuple(t * 2.0 ** -k for k in range(21))


def _probe_shape(space: PnSpace, m, levels: int, budget: int, name: str) -> tuple[int, ...]:
    """The probe lattice shape of a continuity scan, refused before anything
    is allocated when `budget` is out of range or a work array would pass
    MAX_SCAN_CELLS for a `levels`-level threshold schedule called `name`;
    for both map kinds, though only a sampled map's scan builds the lattice."""
    if not 1 <= budget <= MAX_PROBE_BUDGET:
        raise InvalidArgumentError(
            f"probe_budget must be in [1, {MAX_PROBE_BUDGET}], got {budget!r}")
    shape = (budget if m.dim == 1 else max(2, int(math.isqrt(budget))),) * m.dim
    points = math.prod(shape)
    cells = levels * points * len(space.generator.jumps)
    if cells > MAX_SCAN_CELLS:
        raise InvalidArgumentError(
            f"{name}: {levels} levels x {points} probe points x {len(space.generator.jumps)} "
            f"generator jumps is {cells} cells, more than MAX_SCAN_CELLS={MAX_SCAN_CELLS}")
    if isinstance(m, PiecewiseMap1D) and levels * len(m.pieces) > MAX_SCAN_CELLS:
        raise InvalidArgumentError(
            f"{name}: {levels} levels x {len(m.pieces)} map pieces is "
            f"{levels * len(m.pieces)} cells, more than MAX_SCAN_CELLS={MAX_SCAN_CELLS}")
    return shape


def strong_t_continuity_test(space: PnSpace, m, domain_sample: PointSet, t: float,
                             tprime_schedule: Sequence[float] | None = None,
                             probe_budget: int = 512) -> ContinuityReport:
    """Scan a descending threshold schedule for the first t' whose strong
    t'-neighborhood of each sample point has an image with diameter value
    above 1 - t at t.

    A piecewise map is decided exactly under every generator, with no
    probe lattice: the neighborhood is the closed ball of radius
    t' / a(t') (the whole domain when a(t') = 0), conservative in that it
    refuses a ball whose boundary sits exactly on a jump.  A sampled map's
    neighborhoods are probed with a lattice of `probe_budget` points, and
    its scan remains a semi-decision.
    """
    t = _threshold(t)
    schedule = _validate_descending("threshold schedule", tprime_schedule
                                    if tprime_schedule is not None else default_tprime_schedule(t))
    if domain_sample.dimension != m.dim or m.dim != space.dimension:
        raise InvalidArgumentError("sample, map, and space dimensions must agree")
    shape = _probe_shape(space, m, len(schedule), probe_budget, "threshold schedule")
    tprimes = np.array(schedule)
    exact = isinstance(m, PiecewiseMap1D)
    if exact:
        values = m._domain_xs(domain_sample.points)  # the points' coordinates
        with np.errstate(divide="ignore", over="ignore"):  # an infinite radius: the whole domain
            radii = tprimes / level_location(space, tprimes)
    else:
        lattice = lattice_nodes(m.box, shape)
        image_norms = vec_norms(m.eval_points(lattice))
        values = vec_norms(m.eval_points(domain_sample.points))  # their image norms

    entries = []
    for p, v in zip(domain_sample.points, values):
        # Row k: the largest image norm over the t'_k-neighborhood of p:
        # exact on the closed ball, else over p and the lattice points inside.
        if exact:
            worst = m.sup_abs_on_interval(v - radii, v + radii)
        else:
            members = in_neighborhood(space, vec_norms(lattice - p), tprimes[:, None])
            worst = np.max(np.where(members, image_norms, 0.0), axis=1, initial=v)
        ok = in_neighborhood(space, worst, t)
        entries.append(ContinuityWitness(p, schedule[np.argmax(ok)] if ok.any() else None))
    return ContinuityReport(t=t, entries=tuple(entries))


@dataclass(frozen=True)
class PairwiseViolation:
    p: Vector
    q: Vector
    value: float

    def to_json_obj(self) -> dict:
        return {"p": list(self.p), "q": list(self.q), "value": self.value}


@dataclass(frozen=True)
class PairwiseReport:
    t: float
    checked: int
    violations: tuple[PairwiseViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {"t": self.t, "checked": self.checked, "passed": self.passed,
                "violations": [v.to_json_obj() for v in self.violations]}


def check_pairwise_image_separation(space: PnSpace, m, pairs: Sequence[tuple], t: float,
                                    report: ContinuityReport) -> PairwiseReport:
    """For a map certified at threshold t (minimum-t-norm spaces only),
    verify that every distinct sampled pair has a difference profile
    above 1 - t at t.

    The certification report is a precondition: a map that failed (or
    was certified at a different threshold) is rejected before any pair
    is checked.
    """
    if space.tau is not TNormKind.M:
        raise InvalidArgumentError("pairwise separation requires the minimum t-norm on tau")
    t = _threshold(t)
    if m.dim != space.dimension:
        raise InvalidArgumentError("map and space dimensions must agree")
    if report.t != t:
        raise InvalidArgumentError(
            f"continuity report was computed at t={report.t!r}, not t={t!r}")
    if not report.passed:
        raise InvalidArgumentError("map is not certified: continuity report has unwitnessed points")

    checked_pairs = []
    for raw_p, raw_q in pairs:
        p = as_vector(raw_p, space.dimension)
        q = as_vector(raw_q, space.dimension)
        if p == q:
            raise InvalidArgumentError(f"pairs must be distinct, got {p!r} twice")
        checked_pairs.append((p, q))
    ends = np.reshape(checked_pairs, (len(checked_pairs), 2, space.dimension))
    gaps = vec_norms(m.eval_points(ends[:, 0]) - m.eval_points(ends[:, 1]))
    violations = tuple(PairwiseViolation(*checked_pairs[i], float(profile_at(space, gaps[i], t)))
                       for i in np.flatnonzero(~in_neighborhood(space, gaps, t)))
    return PairwiseReport(t=t, checked=len(checked_pairs), violations=violations)
