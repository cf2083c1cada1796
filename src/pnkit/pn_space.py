"""Concrete probabilistic-normed spaces over R^d and an axiom checker.

The instance family implemented here is the simple space built from a
generator d.d.f. G: the probabilistic norm of a point p is the profile
G(t / r) of its Euclidean norm r, that is G with every jump location
scaled by r (the unit step at 0 when r = 0).  This module owns that rule
for the whole package, in one rounding form: a jump at a counts at t
when the product a * r is strictly below t.  `profile_at` evaluates it
on arrays and `norm_profile` builds it as a Ddf; the two agree unless
scaled jumps fall within 1e-12 of each other and merge.  A larger norm
gives a smaller profile, so an infimum of profiles is the largest norm's.
It also owns the strong-neighborhood rule, profile > 1 - t at t, which
`in_neighborhood` decides for every caller as r * a(t) < t.
With the minimum t-norm on both slots this family satisfies all four
axioms, which the checker verifies on seeded samples by exact
step-function comparisons:

    N1  norm profile is the unit step at 0 iff the point is null
    N2  negation leaves the profile unchanged
    N3  profile of a sum dominates the triangle function of the profiles
    N4  profile of p is dominated by tau*(profile of lam*p, profile of (1-lam)*p)

A failed check is a counterexample; a passed check is evidence.  For
single-step generators N3/N4 reduce provably to scalar inequalities of
the Euclidean norm, so a pass there is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .ddf import GENERATOR_MASS_TOL, VALUE_TOL, Ddf, ddf_leq_witness, make_epsilon
from .errors import InvalidArgumentError, converted
from .tnorms import TNormKind, tau_apply

Vector = tuple[float, ...]

DEFAULT_LAMBDAS: tuple[float, ...] = tuple(k / 10.0 for k in range(11))

# Largest number of sample pairs `random_vector_pairs` draws, and of
# coordinates in them (pairs x 2 x dimension); more is refused before
# anything is allocated.
MAX_SAMPLE_PAIRS = 10_000
MAX_SAMPLE_COORDS = 1 << 22


def as_vector(coords, dim: int | None = None) -> Vector:
    v = tuple(float(c) for c in coords)
    if not v:
        raise InvalidArgumentError("vector must have at least one coordinate")
    if any(not math.isfinite(c) for c in v):
        raise InvalidArgumentError(f"vector coordinates must be finite, got {v!r}")
    if dim is not None and len(v) != dim:
        raise InvalidArgumentError(f"expected dimension {dim}, got vector of length {len(v)}")
    return v


def vec_norm(v: Vector) -> float:
    if len(v) == 1:
        return abs(v[0])
    return math.sqrt(math.fsum(c * c for c in v))


def vec_norms(points) -> np.ndarray:
    """Row-wise Euclidean norms of an (..., d) array, equal to `vec_norm`
    of each row: for d <= 2 the sum of squares takes a single rounding,
    as `math.fsum` does; longer rows go through `vec_norm` itself."""
    a = np.asarray(points, dtype=float)
    if a.shape[-1] == 1:
        return np.abs(a[..., 0])
    if a.shape[-1] == 2:
        return np.sqrt(a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1])
    rows = a.reshape(-1, a.shape[-1])
    return np.array([vec_norm(v) for v in rows], dtype=float).reshape(a.shape[:-1])


@dataclass(frozen=True)
class PnSpace:
    """A simple probabilistic-normed space over R^dimension.

    The generator must carry total finite mass 1 on at least one jump
    (otherwise no point could have a full norm profile and N1 would be
    unverifiable).  Instances are immutable; all derived operations are
    pure.
    """

    dimension: int
    generator: Ddf = field(default_factory=lambda: make_epsilon(1.0))
    tau: TNormKind = TNormKind.M
    tau_star: TNormKind = TNormKind.M

    def __post_init__(self):
        if (not isinstance(self.dimension, (int, float))
                or not float(self.dimension).is_integer() or self.dimension < 1):
            raise InvalidArgumentError(f"dimension must be a positive integer, got {self.dimension!r}")
        object.__setattr__(self, "dimension", int(self.dimension))
        if not self.generator.jumps:
            raise InvalidArgumentError("generator must have at least one finite jump")
        if abs(self.generator.total_mass - 1.0) > GENERATOR_MASS_TOL:
            raise InvalidArgumentError(
                f"generator must carry total finite mass 1, got {self.generator.total_mass!r}")

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "generator": self.generator.to_json_obj(),
            "tau": self.tau.value,
            "tau_star": self.tau_star.value,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PnSpace":
        if not isinstance(obj, dict):
            raise InvalidArgumentError("space spec must be a JSON object")
        dim = obj.get("dimension", 1)
        gen = Ddf.from_json_obj(obj["generator"]) if "generator" in obj else make_epsilon(1.0)
        tau = converted("tau", TNormKind, obj.get("tau", "M"))
        tau_star = converted("tau_star", TNormKind, obj.get("tau_star", "M"))
        return cls(dimension=dim, generator=gen, tau=tau, tau_star=tau_star)


def profile_at(space: PnSpace, norms, t) -> np.ndarray:
    """The profile G(t / r) of each norm r at each threshold t >= 0,
    broadcast over `norms` and `t`: the generator mass whose scaled
    location a * r lies strictly below t, and the unit step at 0 where
    r == 0 (1 for every t > 0)."""
    r, t = np.asarray(norms, dtype=float), np.asarray(t, dtype=float)
    gen = space.generator
    below = np.count_nonzero(r[..., None] * gen._locs < t[..., None], axis=-1)
    return np.where(r == 0.0, (t > 0.0).astype(float), gen._cums[below])


def level_location(space: PnSpace, t) -> np.ndarray:
    """a(t), broadcast over `t`: the generator location of the first level
    above 1 - t; 0 when 1 - t < 0, +inf when no level passes."""
    first = np.searchsorted(space.generator._cums, 1.0 - np.asarray(t, dtype=float), "right")
    return np.concatenate(([0.0], space.generator._locs, [math.inf]))[first]


def in_neighborhood(space: PnSpace, norms, t) -> np.ndarray:
    """`profile_at(space, r, t) > 1 - t` bit for bit, broadcast over `norms` and
    `t`, as r * a(t) < t (the same rounded product); r == 0 is in where 1 - t < 1."""
    r, t = np.asarray(norms, dtype=float), np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # r == 0 decides 0 * inf
        return np.where(r == 0.0, 1.0 - t < 1.0, r * level_location(space, t) < t)


def norm_profile(space: PnSpace, r: float) -> Ddf:
    """The profile of norm r as a Ddf: the generator with every jump
    location scaled by r > 0, or the unit step at 0 when r == 0."""
    return make_epsilon(0.0) if r == 0.0 else space.generator.scale_locations(r)


def prob_norm(space: PnSpace, p) -> Ddf:
    """Norm profile of a point: the profile of its Euclidean norm."""
    return norm_profile(space, vec_norm(as_vector(p, space.dimension)))


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    checked: int
    worst: dict | None = None

    def to_json_obj(self) -> dict:
        return {"axiom": self.axiom, "passed": self.passed,
                "checked": self.checked, "worst": self.worst}


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[AxiomResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __getitem__(self, axiom: str) -> AxiomResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def to_json_obj(self) -> dict:
        return {"all_passed": self.all_passed,
                "results": [r.to_json_obj() for r in self.results]}


def check_axioms(space: PnSpace,
                 samples: Sequence[tuple],
                 lambdas: Sequence[float] = DEFAULT_LAMBDAS) -> AxiomReport:
    """Check N1-N4 on sample vector pairs and a grid of scalars in [0, 1].

    N1 is checked at the null vector and at every nonzero sample
    coordinate vector; N2 by jump-list equality; N3 and N4 by exact
    step-function comparison of the triangle-function outputs.  The
    worst violating sample (with the probe x where the gap is largest)
    is recorded per axiom.
    """
    if len(samples) == 0:
        raise InvalidArgumentError("samples must be nonempty")
    for lam in lambdas:
        if not (0.0 <= lam <= 1.0):
            raise InvalidArgumentError(f"lambda {lam!r} outside [0, 1]")

    dim = space.dimension
    pairs = np.array([(as_vector(p, dim), as_vector(q, dim)) for p, q in samples])
    # Each distinct sample vector once, in order of first appearance, and
    # its profile, which N1, N2 and N4 share.
    vectors = np.array(list(dict.fromkeys(map(tuple, pairs.reshape(-1, dim).tolist()))))
    norm = partial(prob_norm, space)
    profiles = list(map(norm, vectors))

    eps0 = make_epsilon(0.0)
    theta = np.zeros(dim)

    # N1: null vector maps to the maximal element, nothing else does.
    n1_worst = None
    if norm(theta).jumps != eps0.jumps:
        n1_worst = {"p": theta.tolist(), "note": "null vector profile differs from unit step at 0"}
    nonnull = np.any(vectors != 0.0, axis=1).tolist()
    for v, nu_v, nonzero in zip(vectors, profiles, nonnull):
        if nonzero and n1_worst is None and nu_v.jumps == eps0.jumps:
            n1_worst = {"p": v.tolist(), "note": "nonzero vector has maximal profile"}
    n1 = AxiomResult("N1", n1_worst is None, 1 + sum(nonnull), n1_worst)

    # N2: negation symmetry, exact jump-list equality.
    n2_worst = None
    for v, nu_v in zip(vectors, profiles):
        if nu_v.jumps != norm(-v).jumps:
            n2_worst = {"p": v.tolist(), "note": "profile changed under negation"}
            break
    n2 = AxiomResult("N2", n2_worst is None, len(vectors), n2_worst)

    # N3: the profile of a sum dominates tau of the profiles.
    n3 = _dominance("N3", ((tau_apply(space.tau, norm(p), norm(q)), norm(p + q),
                            {"p": p.tolist(), "q": q.tolist()}) for p, q in pairs))
    # N4: the profile of v is dominated by tau* of its lambda split.
    n4 = _dominance("N4", ((nu_v, tau_apply(space.tau_star, norm(lam * v), norm((1.0 - lam) * v)),
                            {"p": v.tolist(), "lambda": lam})
                           for v, nu_v in zip(vectors, profiles) for lam in lambdas))
    return AxiomReport((n1, n2, n3, n4))


def _dominance(axiom: str, cases: Iterable[tuple[Ddf, Ddf, dict]]) -> AxiomResult:
    """An axiom of the form F <= G over `cases` of (F, G, where): it
    fails when the largest gap passes VALUE_TOL, and then reports the
    first case of that gap, its `where` with the probe x and the gap."""
    worst_gap, worst, checked = -math.inf, None, 0
    for F, G, where in cases:
        gap, x = ddf_leq_witness(F, G)
        checked += 1
        if gap > worst_gap:
            worst_gap, worst = gap, dict(where, x=x, gap=gap)
    passed = worst_gap <= VALUE_TOL
    return AxiomResult(axiom, passed, checked, None if passed else worst)


def random_vector_pairs(dim: int, count: int, seed: int) -> np.ndarray:
    """Seeded standard-normal vector pairs for sample-based checks, as a
    (count, 2, dim) array."""
    if not 1 <= count <= MAX_SAMPLE_PAIRS:
        raise InvalidArgumentError(f"count must be in [1, {MAX_SAMPLE_PAIRS}], got {count!r}")
    if 2 * count * dim > MAX_SAMPLE_COORDS:
        raise InvalidArgumentError(
            f"{count} pairs in dimension {dim} need more than "
            f"MAX_SAMPLE_COORDS={MAX_SAMPLE_COORDS} coordinates")
    return np.random.default_rng(seed).standard_normal((count, 2, dim))
