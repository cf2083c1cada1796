"""Distance distribution functions as exact finite step functions.

The central type stores a nondecreasing, left-continuous function F on
[0, +inf] with F(0) = 0 and F(+inf) = 1 as a finite tuple of
(location, mass) jumps.  Mass not carried by any finite jump sits
implicitly at +inf and is never stored.  Every operation below is an
exact finite computation on jump lists; nothing is sampled or
interpolated.

Evaluation follows the left-continuous convention: F(x) is the total
mass strictly below x, so a jump at location a is not yet counted at
x = a.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError

# Jump locations closer than this are merged at construction, and probe
# logic treats knots within this distance as coincident.
KNOT_MERGE_TOL = 1e-12

# Pointwise value comparisons share this tolerance; differences below it
# are float dust on the same scale as the knot merge.
VALUE_TOL = 1e-12

# Absolute tolerance of the bisection in sibley_distance.
SIBLEY_TOL = 1e-9

# One-sided limits of a map closer than this are one limit value.
LIMIT_MERGE_TOL = 1e-12

# How far past its domain a piecewise map's piece may reach, at a piece
# endpoint, before the map is refused as not a self-map.
DOMAIN_SLACK = 1e-12

# How far past its box a sampled map's image may lie before it is refused.
SAMPLED_IMAGE_SLACK = 1e-9

# How much a refinement level's largest pair gap may exceed the previous
# level's before nested-neighbourhood monotonicity counts as broken.
MONOTONE_SLACK = 1e-15

# How far a space's generator mass may differ from 1.
GENERATOR_MASS_TOL = 1e-9

# How far past its piece an affine piece's fixed point may fall and still
# be a search candidate, clamped onto the piece.
FIXED_POINT_SLACK = 1e-12

# How far outside a planar hull edge, by its cross product, a point may lie
# and still count as inside the hull.
HULL_CROSS_SLACK = 1e-12


def _cluster_representatives(sorted_vals: Sequence[float],
                             tol: float = KNOT_MERGE_TOL) -> list[float]:
    """Collapse sorted values into clusters, each holding the values
    within `tol` of its smallest one (its head), and return the heads:
    the same rule `_canonical_jumps` merges knots by."""
    reps: list[float] = []
    for v in sorted_vals:
        if not reps or v - reps[-1] > tol:
            reps.append(v)
    return reps


def _canonical_jumps(pairs: Iterable) -> tuple[tuple[float, float], ...]:
    cleaned: list[tuple[float, float]] = []
    for entry in pairs:
        loc, mass = entry
        loc = float(loc)
        mass = float(mass)
        if not math.isfinite(loc) or loc < 0.0:
            raise InvalidArgumentError(
                f"jump location must be finite and >= 0, got {loc!r}")
        if not math.isfinite(mass) or mass <= 0.0:
            raise InvalidArgumentError(
                f"jump mass must be finite and > 0, got {mass!r}")
        cleaned.append((loc, mass))
    cleaned.sort()
    merged: list[list[float]] = []
    for loc, mass in cleaned:
        if merged and loc - merged[-1][0] <= KNOT_MERGE_TOL:
            merged[-1][1] += mass
        else:
            merged.append([loc, mass])
    total = math.fsum(m for _, m in merged)
    if total > 1.0 + VALUE_TOL:
        raise InvalidArgumentError(f"total jump mass {total!r} exceeds 1")
    return tuple((loc, mass) for loc, mass in merged)


@dataclass(frozen=True)
class Ddf:
    """A distance distribution function with finitely many jumps.

    `jumps` is canonicalized at construction: pairs are sorted by
    location, locations within 1e-12 are merged (masses added), and the
    invariants (locations finite and nonnegative, masses positive, total
    mass at most 1) are enforced.  Instances are immutable and may be
    shared freely between threads.
    """

    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "jumps", _canonical_jumps(self.jumps))

    @cached_property
    def _locs(self) -> list[float]:
        return [loc for loc, _ in self.jumps]

    @cached_property
    def _cums(self) -> list[float]:
        # _cums[i] is the value on the interval right of the i-th knot;
        # a leading 0.0 covers everything below the first knot.
        out = [0.0]
        running = 0.0
        for _, mass in self.jumps:
            running = min(running + mass, 1.0)
            out.append(running)
        return out

    @cached_property
    def _locs_np(self) -> np.ndarray:
        return np.array(self._locs, dtype=float)

    @cached_property
    def _cums_np(self) -> np.ndarray:
        return np.array(self._cums, dtype=float)

    @property
    def total_mass(self) -> float:
        """Total finite mass; 1 - total_mass sits at +inf."""
        return self._cums[-1]

    def eval(self, x) -> float:
        """Value at x: the mass strictly below x, or 1 at +inf."""
        x = float(x)
        if math.isnan(x) or x < 0.0:
            raise InvalidArgumentError(f"evaluation point must be >= 0, got {x!r}")
        if math.isinf(x):
            return 1.0
        return self._cums[bisect_left(self._locs, x)]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized `eval` for finite nonnegative points."""
        idx = np.searchsorted(self._locs_np, xs, side="left")
        return self._cums_np[idx]

    def scale_locations(self, c: float) -> "Ddf":
        """The function x -> F(x / c): every jump location scaled by c > 0."""
        c = float(c)
        if not math.isfinite(c) or c <= 0.0:
            raise InvalidArgumentError(f"scale factor must be finite and > 0, got {c!r}")
        return Ddf(tuple((loc * c, mass) for loc, mass in self.jumps))

    def to_json_obj(self) -> list[list[float]]:
        return [[loc, mass] for loc, mass in self.jumps]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj) -> "Ddf":
        if not isinstance(obj, (list, tuple)):
            raise InvalidArgumentError("ddf JSON must be an array of [location, mass] pairs")
        pairs = []
        for k, entry in enumerate(obj):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InvalidArgumentError(f"ddf JSON entry {k} must be a [location, mass] pair")
            try:
                pairs.append((float(entry[0]), float(entry[1])))
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(f"ddf JSON entry {k}: {exc}") from exc
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if b <= a:
                raise InvalidArgumentError("ddf JSON locations must be strictly ascending")
        return cls(tuple(pairs))

    @classmethod
    def from_json(cls, text: str) -> "Ddf":
        return cls.from_json_obj(json.loads(text))


def make_epsilon(a: float) -> Ddf:
    """The unit step at a: 0 on [0, a], 1 on (a, +inf].

    Models a deterministic distance a; make_epsilon(0) is the maximal
    element of the pointwise order and the identity of every triangle
    function.
    """
    a = float(a)
    if not math.isfinite(a) or a < 0.0:
        raise InvalidArgumentError(f"step location must be finite and >= 0, got {a!r}")
    return Ddf(((a, 1.0),))


def comparison_probes(*fns: Ddf) -> list[float]:
    """Points at which pointwise comparisons of step functions are decided.

    Knot union (clustered within 1e-12), midpoints between consecutive
    clusters, and one point beyond the last knot.  Step functions agree
    everywhere iff they agree on these probes; regions narrower than the
    cluster tolerance are deliberately invisible.
    """
    knots = sorted({loc for F in fns for loc, _ in F.jumps})
    reps = _cluster_representatives(knots)
    if not reps:
        return [1.0]
    probes = list(reps)
    probes.extend((a + b) / 2.0 for a, b in zip(reps, reps[1:]))
    probes.append(reps[-1] + 1.0)
    probes.sort()
    return probes


def ddf_leq_witness(F: Ddf, G: Ddf) -> tuple[float, float]:
    """Largest pointwise excess of F over G and a probe attaining it.

    Returns (gap, x).  gap <= 0 certifies F <= G on the probe set; a
    positive gap comes with the probe x where F(x) - G(x) is maximal.
    """
    probes = comparison_probes(F, G)
    xs = np.array(probes)
    gaps = F.eval_many(xs) - G.eval_many(xs)
    i = int(np.argmax(gaps))  # the first maximum, the smallest such probe
    return float(gaps[i]), probes[i]


def ddf_leq(F: Ddf, G: Ddf, atol: float = VALUE_TOL) -> bool:
    """Pointwise partial order: F(x) <= G(x) everywhere on [0, +inf].

    Exact for step functions up to the shared knot/value tolerance.
    """
    gap, _ = ddf_leq_witness(F, G)
    return gap <= atol


def _shift_check(A: Ddf, B: Ddf, h: float) -> bool:
    # A(x) <= B(x + h) + h for all x in (0, 1/h); both sides are
    # left-continuous step functions of x, so the supremum of the
    # difference is attained at a breakpoint or at the right endpoint.
    xmax = 1.0 / h
    probes = [xmax]
    for loc, _ in A.jumps:
        if 0.0 < loc < xmax:
            probes.append(loc)
    for loc, _ in B.jumps:
        c = loc - h
        if 0.0 < c < xmax:
            probes.append(c)
    return all(A.eval(x) <= B.eval(x + h) + h for x in probes)


def sibley_distance(F: Ddf, G: Ddf) -> float:
    """Modified Levy metric between two step d.d.f.s.

    The infimal h > 0 such that G(x) <= F(x+h) + h and
    F(x) <= G(x+h) + h for all x in (0, 1/h), found by bisection to
    absolute tolerance 1e-9.  Metrizes weak convergence; h = 1 always
    satisfies the condition, so the distance is at most 1.

    This is a test and reporting utility, not a public-contract metric.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > SIBLEY_TOL:
        mid = 0.5 * (lo + hi)
        if _shift_check(F, G, mid) and _shift_check(G, F, mid):
            hi = mid
        else:
            lo = mid
    return hi


def left_limit_of_infimum(family: Iterable[Ddf]) -> Ddf:
    """Left-continuous regularization of the pointwise infimum of a family.

    For a finite family of left-continuous step functions the pointwise
    minimum is itself left-continuous, so this amounts to reading the
    minimum back off as a jump list.  Values are recovered at machine
    precision (the reconstruction re-derives masses from level
    differences).
    """
    fams = list(family)
    if not fams:
        raise InvalidArgumentError("family must be nonempty")
    knots = sorted({loc for F in fams for loc, _ in F.jumps})
    reps = _cluster_representatives(knots)
    jumps: list[tuple[float, float]] = []
    prev = 0.0
    for i, rep in enumerate(reps):
        probe = (rep + reps[i + 1]) / 2.0 if i + 1 < len(reps) else rep + 1.0
        v = min(F.eval(probe) for F in fams)
        if v - prev > 0.0:
            jumps.append((rep, v - prev))
            prev = v
    return Ddf(tuple(jumps))
