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
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError, converted

# Jump locations closer than this are merged at construction, and probe
# logic treats knots within this distance as coincident.
KNOT_MERGE_TOL = 1e-12

# Pointwise value comparisons share this tolerance; differences below it
# are float dust on the same scale as the knot merge.
VALUE_TOL = 1e-12

# Absolute tolerance of the interval halving in sibley_distance.
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

# How much farther than the nearest limit value, per unit of coordinate
# size, a point's distance to the bounding box of its limit values must be
# before the hull search skips measuring its hull distance.
HULL_PRUNE_SLACK = 1e-9


def _cluster_representatives(sorted_vals: Sequence[float]) -> list[float]:
    """Collapse sorted values into clusters, each holding the values
    within KNOT_MERGE_TOL of its smallest one (its head), and return the
    heads: the same rule the `Ddf` constructor merges knots by."""
    reps: list[float] = []
    for v in sorted_vals:
        if not reps or v - reps[-1] > KNOT_MERGE_TOL:
            reps.append(v)
    return reps


def head_probes(heads: np.ndarray, last: np.ndarray) -> np.ndarray:
    """A probe right of each ascending cluster head, where `last` marks a
    head that no head follows: between heads a and b, (a + b) / 2 where it
    is finite, else a / 2 + b / 2; past a last head r, r + 1.0 where it
    exceeds r, else the next float above r (from 2**53 on, r + 1.0 rounds
    back to r).  A step function whose knots all lie among the clusters
    is constant from just after a head up to its probe, up to the
    cluster tolerance.

    a / 2 + b / 2 is (a + b) / 2 bit for bit wherever that is finite:
    halving is exact down to the smallest normal numbers, and a head below
    them is absorbed into the next one, at least 1e-12, in both forms.  So
    it is taken everywhere, and never overflows."""
    probes = heads / 2.0
    probes[:-1] += probes[1:]
    tail = heads[last]
    past = tail + 1.0
    with np.errstate(over="ignore"):  # the float after the maximum is +inf
        probes[last] = np.where(past > tail, past, np.nextafter(tail, np.inf))
    return probes


def _cluster_probes(knots: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """The cluster heads of `knots`, given in any order, and the probe
    right of each by `head_probes`."""
    heads = np.array(_cluster_representatives(sorted(knots)), dtype=float)
    last = np.zeros(len(heads), dtype=bool)
    last[-1:] = True
    return heads, head_probes(heads, last)


def _from_levels(reps: Sequence[float], levels: Sequence[float]) -> "Ddf":
    """The step function that rises to levels[i] just after reps[i], for
    ascending cluster heads and nondecreasing levels: one jump per rise."""
    jumps: list[tuple[float, float]] = []
    prev = 0.0
    for rep, v in zip(reps, levels):
        if v - prev > 0.0:
            jumps.append((rep, v - prev))
            prev = v
    return Ddf(tuple(jumps))


@dataclass(frozen=True)
class Ddf:
    """A distance distribution function with finitely many jumps.

    `jumps` is canonicalized at construction: each pair is checked
    (location finite and >= 0, mass > 0), pairs are sorted by location,
    each location within 1e-12 of its cluster's head merges into it
    (masses added in order), and the total mass must be at most 1.
    Instances are immutable and may be shared freely between threads.
    """

    jumps: tuple[tuple[float, float], ...] = ()
    # The knot locations, and the value right of each knot after a
    # leading 0.0 for everything below the first: read-only arrays built
    # once from the canonical jumps.  `eval_many` reads them through
    # `_eval_locs` and `_eval_cums`, the same arrays with one more knot at
    # the float maximum where the value reaches 1: past every finite
    # point, so only +inf reads it.  `_locs` and `_cums` are views of those.
    _locs: np.ndarray = field(init=False, repr=False, compare=False)
    _cums: np.ndarray = field(init=False, repr=False, compare=False)
    _eval_locs: np.ndarray = field(init=False, repr=False, compare=False)
    _eval_cums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cleaned: list[tuple[float, float]] = []
        for loc, mass in self.jumps:
            loc, mass = float(loc), float(mass)
            if not math.isfinite(loc) or loc < 0.0:
                raise InvalidArgumentError(f"jump location must be finite and >= 0, got {loc!r}")
            if not math.isfinite(mass) or mass <= 0.0:
                raise InvalidArgumentError(f"jump mass must be finite and > 0, got {mass!r}")
            cleaned.append((loc, mass))
        cleaned.sort()
        # Each knot within KNOT_MERGE_TOL of its cluster's head joins it.
        locs: list[float] = []
        masses: list[float] = []
        for loc, mass in cleaned:
            if locs and loc - locs[-1] <= KNOT_MERGE_TOL:
                masses[-1] += mass
            else:
                locs.append(loc)
                masses.append(mass)
        total = math.fsum(masses)
        if total > 1.0 + VALUE_TOL:
            raise InvalidArgumentError(f"total jump mass {total!r} exceeds 1")
        knots = np.array([*locs, sys.float_info.max])
        # The running mass, clamped at 1 from the first sum that exceeds it.
        cums = np.array([0.0, *accumulate(masses), 1.0])
        np.minimum(cums, 1.0, out=cums)
        knots.flags.writeable = cums.flags.writeable = False
        object.__setattr__(self, "jumps", tuple(zip(locs, masses)))
        object.__setattr__(self, "_locs", knots[:-1])
        object.__setattr__(self, "_cums", cums[:-1])
        object.__setattr__(self, "_eval_locs", knots)
        object.__setattr__(self, "_eval_cums", cums)

    @property
    def total_mass(self) -> float:
        """Total finite mass; 1 - total_mass sits at +inf."""
        return float(self._cums[-1])

    def eval(self, x) -> float:
        """Value at x: the mass strictly below x, or 1 at +inf."""
        x = float(x)
        if math.isnan(x) or x < 0.0:
            raise InvalidArgumentError(f"evaluation point must be >= 0, got {x!r}")
        return float(self.eval_many(x))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized `eval` for nonnegative points, 1 at +inf included."""
        return self._eval_cums[np.searchsorted(self._eval_locs, xs, side="left")]

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
            pairs.append(converted(f"ddf JSON entry {k}", lambda e: tuple(map(float, e)), entry))
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
    return _comparison_probes(fns).tolist()


def _comparison_probes(fns: Sequence[Ddf]) -> np.ndarray:
    """`comparison_probes` as an ascending array: each head, then its probe."""
    heads, probes = _cluster_probes(loc for F in fns for loc in F._locs.tolist())
    if not len(heads):
        return np.ones(1)
    xs = np.empty(2 * len(heads))
    xs[0::2], xs[1::2] = heads, probes
    return xs


def ddf_leq_witness(F: Ddf, G: Ddf) -> tuple[float, float]:
    """Largest pointwise excess of F over G and a probe attaining it.

    Returns (gap, x).  gap <= 0 certifies F <= G on the probe set; a
    positive gap comes with the probe x where F(x) - G(x) is maximal.
    """
    xs = _comparison_probes((F, G))
    gaps = F.eval_many(xs) - G.eval_many(xs)
    i = int(np.argmax(gaps))  # the first maximum, the smallest such probe
    return float(gaps[i]), float(xs[i])


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
    xs = np.concatenate([A._locs, B._locs - h])
    xs = np.append(xs[(xs > 0.0) & (xs < xmax)], xmax)
    return bool(np.all(A.eval_many(xs) <= B.eval_many(xs + h) + h))


def sibley_distance(F: Ddf, G: Ddf) -> float:
    """Modified Levy metric between two step d.d.f.s.

    The infimal h > 0 such that G(x) <= F(x+h) + h and
    F(x) <= G(x+h) + h for all x in (0, 1/h), found by interval halving to
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
    reps, xs = _cluster_probes(loc for F in fams for loc in F._locs.tolist())
    return _from_levels(reps.tolist(), np.min([F.eval_many(xs) for F in fams], axis=0).tolist())
