"""Triangular norms and the triangle functions they induce on step d.d.f.s.

Three t-norms are provided: W (Lukasiewicz), Prod, and M (minimum).
Each induces a binary operation on distance distribution functions,

    (F, G) -> sup over u + v = x of T(F(u), G(v)),

computed here exactly.  For step inputs with jumps at a_i and b_j the
output is a step function whose jumps lie among the pair sums a_i + b_j.
Because T is nondecreasing and the inputs are constant between knots,
the output just right of a sum s is the largest T(F+_i, G+_j) over the
pairs with a_i + b_j < s (F+_i is F's value just after its i-th jump),
which one sort of the pair sums and a running maximum of their T values
give for every s at once: about n^2 log n for n jumps on each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .ddf import VALUE_TOL, Ddf, _cluster_representatives
from .errors import InvalidArgumentError

# Largest number of input jump pairs tau_apply takes on; the pair sums
# and their T values are held in memory at once.
MAX_PAIR_SUMS = 1 << 20


class TNormKind(Enum):
    W = "W"        # max(a + b - 1, 0)
    PROD = "Prod"  # a * b
    M = "M"        # min(a, b)


def tnorm_apply(kind: TNormKind, a: float, b: float) -> float:
    """Apply the t-norm to a pair in [0, 1]."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= 1.0) or not (0.0 <= b <= 1.0):
        raise InvalidArgumentError(f"t-norm arguments must lie in [0, 1], got {a!r}, {b!r}")
    if kind is TNormKind.W:
        return max(a + b - 1.0, 0.0)
    if kind is TNormKind.PROD:
        return a * b
    if kind is TNormKind.M:
        return min(a, b)
    raise InvalidArgumentError(f"unknown t-norm kind {kind!r}")


def tnorm_apply_np(kind: TNormKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized t-norm on arrays already known to lie in [0, 1]."""
    if kind is TNormKind.W:
        return np.maximum(a + b - 1.0, 0.0)
    if kind is TNormKind.PROD:
        return a * b
    if kind is TNormKind.M:
        return np.minimum(a, b)
    raise InvalidArgumentError(f"unknown t-norm kind {kind!r}")


@dataclass(frozen=True)
class TriangleFn:
    """The triangle function induced by a t-norm.

    Commutativity, monotonicity, and the identity at the unit step at 0
    are consequences of the t-norm axioms; the test suite checks them
    rather than assuming them.
    """

    kind: TNormKind

    def __call__(self, F: Ddf, G: Ddf) -> Ddf:
        return tau_apply(self.kind, F, G)


def tau_apply(kind: TNormKind, F: Ddf, G: Ddf) -> Ddf:
    """Exact sup-convolution of two step d.d.f.s under the given t-norm.

    The output level just right of a pair sum s is the largest
    T(F+_i, G+_j) over the pairs with a_i + b_j < s, where F+_i is F's
    value just after its i-th jump: T is nondecreasing and both inputs
    are constant between knots.  The pairs are sorted once by their
    exact sum, a running maximum of the T values in that order gives
    every such level, and each clustered sum reads its level at the
    midpoint to the next cluster (one past the last), counting the
    pairs whose exact sum lies below it: rounding a_i + b_j to a float
    never moves a pair across a probe.  The jump list is rebuilt from
    the level increases.  Zero-mass entries are pruned and knots within
    1e-12 merge.  Cost: n*m log(n*m) for n and m input jumps; more than
    MAX_PAIR_SUMS pairs is refused before any work.
    """
    if not F.jumps or not G.jumps:
        # One side carries all mass at +inf; every finite supremum is
        # T(., 0) = 0.
        return Ddf(())
    if len(F.jumps) * len(G.jumps) > MAX_PAIR_SUMS:
        raise InvalidArgumentError(
            f"tau_apply of {len(F.jumps)}-jump and {len(G.jumps)}-jump d.d.f.s "
            f"needs more than {MAX_PAIR_SUMS} pair sums")
    a, b = F._locs_np[:, None], G._locs_np[None, :]
    sums = a + b
    # Two-sum: sums + err == a + b exactly.  A pair lies below a probe
    # exactly when its key, the float sum moved one step down where it
    # was rounded up, does.
    b_part = sums - a
    err = ((a - (sums - b_part)) + (b - b_part)).ravel()
    sums = sums.ravel()
    keys = np.where(err < 0.0, np.nextafter(sums, -np.inf), sums)
    vals = tnorm_apply_np(kind, F._cums_np[1:, None], G._cums_np[None, 1:]).ravel()
    order = np.lexsort((err, sums))  # by exact sum; sums and keys both ascend
    sorted_sums = sums[order]
    running = np.maximum.accumulate(vals[order])
    reps = np.array(_cluster_representatives(sorted_sums.tolist()))
    probes = np.append((reps[:-1] + reps[1:]) / 2.0, reps[-1] + 1.0)
    below = np.searchsorted(keys[order], probes, side="left") - 1
    levels = np.where(below >= 0, running[below], 0.0)
    jumps: list[tuple[float, float]] = []
    prev = 0.0
    for rep, v in zip(reps.tolist(), levels.tolist()):
        if v - prev > 0.0:
            jumps.append((rep, v - prev))
            prev = v
    return Ddf(tuple(jumps))


@dataclass(frozen=True)
class TNormAxiomReport:
    """Maximal per-axiom violation over a sample of triples."""

    kind: TNormKind
    commutativity: float
    associativity: float
    monotonicity: float
    identity: float
    samples: int
    tolerance: float = VALUE_TOL

    @property
    def passed(self) -> bool:
        return max(self.commutativity, self.associativity,
                   self.monotonicity, self.identity) <= self.tolerance

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "commutativity": self.commutativity,
            "associativity": self.associativity,
            "monotonicity": self.monotonicity,
            "identity": self.identity,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_tnorm_axioms(kind: TNormKind, samples: Iterable) -> TNormAxiomReport:
    """Measure axiom residuals (commutativity, associativity,
    monotonicity in each place, identity at 1) over sample triples in
    [0, 1]^3."""
    comm = assoc = mono = ident = 0.0
    n = 0
    for triple in samples:
        a, b, c = (float(v) for v in triple)
        for v in (a, b, c):
            if not (0.0 <= v <= 1.0):
                raise InvalidArgumentError(f"sample value {v!r} outside [0, 1]")
        comm = max(comm, abs(tnorm_apply(kind, a, b) - tnorm_apply(kind, b, a)))
        assoc = max(assoc, abs(tnorm_apply(kind, a, tnorm_apply(kind, b, c))
                               - tnorm_apply(kind, tnorm_apply(kind, a, b), c)))
        lo, hi = min(a, b), max(a, b)
        mono = max(mono, tnorm_apply(kind, lo, c) - tnorm_apply(kind, hi, c))
        ident = max(ident, abs(tnorm_apply(kind, a, 1.0) - a))
        n += 1
    return TNormAxiomReport(kind=kind, commutativity=comm, associativity=assoc,
                            monotonicity=mono, identity=ident, samples=n)
