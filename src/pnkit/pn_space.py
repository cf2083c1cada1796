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
from typing import Callable, Sequence

import numpy as np

from .ddf import GENERATOR_MASS_TOL, KNOT_MERGE_TOL, VALUE_TOL, Ddf, make_epsilon
from .errors import InvalidArgumentError, converted
from .tnorms import MAX_PAIR_SUMS, TNormKind, dominance_rows, tau_apply

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

    All N3 cases (and all N4 cases) share the generator's masses, and so
    run as rows of one `tnorms.dominance_rows` pass on their norms, a
    zero norm's unit step at 0 among them.  A case whose scaled knots
    merge runs alone on its profiles; within the pass, a row whose pair
    sums chain past the tolerance is clustered by the `Ddf` loop.
    """
    if len(samples) == 0:
        raise InvalidArgumentError("samples must be nonempty")
    lambdas = tuple(lambdas)
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
    p, q = pairs[:, 0], pairs[:, 1]
    with np.errstate(over="ignore"):  # an infinite sum is refused by its profile
        sums = p + q
        n3_norms = vec_norms(p), vec_norms(q), vec_norms(sums)
    n3 = _dominance("N3", space, space.tau, n3_norms, True,
                    lambda k: {"p": p[k].tolist(), "q": q[k].tolist()},
                    lambda k: norm(sums[k]))
    # N4: the profile of v is dominated by tau* of its lambda split.
    lam = np.array(lambdas, dtype=float)[:, None]
    n4_norms = (vec_norms(lam * vectors[:, None]).ravel(),
                vec_norms((1.0 - lam) * vectors[:, None]).ravel(),
                np.repeat(vec_norms(vectors), len(lambdas)))
    n4 = _dominance("N4", space, space.tau_star, n4_norms, False,
                    lambda k: {"p": vectors[k // len(lambdas)].tolist(),
                               "lambda": lambdas[k % len(lambdas)]},
                    lambda k: profiles[k // len(lambdas)])
    return AxiomReport((n1, n2, n3, n4))


def _dominance(axiom: str, space: PnSpace, kind: TNormKind, norms: tuple, tau_below: bool,
               where: Callable[[int], dict], profile: Callable[[int], Ddf]) -> AxiomResult:
    """An axiom of the form F <= G over cases k, each tau of the profiles
    of norms[0][k] and norms[1][k] against `profile(k)`, the profile of
    norms[2][k] (tau's side is F when `tau_below`, G otherwise).  It fails
    when the largest gap passes VALUE_TOL, and then reports the first
    case of that gap: `where(k)` with the probe x and the gap.

    The cases run in one `dominance_rows` pass: a profile is the
    generator's knots scaled by the norm, with the generator's masses,
    and a zero norm's the unit step at 0, its one knot repeated.  A case
    whose scaled knots fall within 1e-12 of each other has merged
    masses, and runs alone on its profiles, as does every case when the
    repeated unit steps would pass MAX_PAIR_SUMS.  The first case that
    `tau_apply` or its profile refuses raises that refusal first."""
    cases = len(norms[0])
    if cases == 0:
        return AxiomResult(axiom, True, 0, None)
    gen = space.generator
    n = len(gen.jumps)
    r = np.array(norms)[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        knots = np.where(r == 0.0, 0.0, r * gen._locs)
        merged = ((r[..., 0] != 0.0) & np.any(knots[..., 1:] - knots[..., :-1] <= KNOT_MERGE_TOL,
                                                axis=2)).any(axis=0)
    # The cases that may be refused, in order: tau_apply first, then the profile.
    suspect = ((np.where(r[:2, :, 0] == 0.0, 1, n).prod(axis=0) > MAX_PAIR_SUMS)
               | ~np.isfinite(knots[2, :, -1]))
    for k in np.flatnonzero(suspect).tolist():
        tau_apply(kind, *(norm_profile(space, float(v[k])) for v in norms[:2]))
        profile(k)

    gaps, xs = np.empty(cases), np.empty(cases)
    alone = merged | (n * n > MAX_PAIR_SUMS)
    rows = np.flatnonzero(~alone)
    if len(rows):
        cums = np.where(r[:, rows] == 0.0, np.minimum(np.arange(n + 1), 1.0), gen._cums)
        gaps[rows], xs[rows] = dominance_rows(kind, *zip(knots[:, rows], cums), tau_below)
    for k in np.flatnonzero(alone).tolist():
        FGH = (*(norm_profile(space, float(v[k])) for v in norms[:2]), profile(k))
        gaps[k], xs[k] = (v[0] for v in dominance_rows(
            kind, *((D._locs[None], D._cums[None]) for D in FGH), tau_below))
    k = int(np.argmax(gaps))  # the first case of the largest gap
    gap = float(gaps[k])
    passed = gap <= VALUE_TOL
    return AxiomResult(axiom, passed, cases, None if passed else dict(where(k), x=float(xs[k]), gap=gap))


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
