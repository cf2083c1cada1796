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
from functools import partial
from typing import Iterable

import numpy as np

from .ddf import VALUE_TOL, Ddf, _cluster_probes, _from_levels
from .errors import InvalidArgumentError

# Largest number of input jump pairs tau_apply takes on; the pair sums
# and their T values are held in memory at once.
MAX_PAIR_SUMS = 1 << 20


class TNormKind(Enum):
    W = "W"        # max(a + b - 1, 0)
    PROD = "Prod"  # a * b
    M = "M"        # min(a, b)


def tnorm_apply(kind: TNormKind, a: float, b: float) -> float:
    """Apply the t-norm to a pair in [0, 1], by `tnorm_apply_np`."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= 1.0) or not (0.0 <= b <= 1.0):
        raise InvalidArgumentError(f"t-norm arguments must lie in [0, 1], got {a!r}, {b!r}")
    return float(tnorm_apply_np(kind, a, b))


def tnorm_apply_np(kind: TNormKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized t-norm on arrays already known to lie in [0, 1]."""
    if kind is TNormKind.W:
        return np.maximum(a + b - 1.0, 0.0)
    if kind is TNormKind.PROD:
        return a * b
    if kind is TNormKind.M:
        return np.minimum(a, b)
    raise InvalidArgumentError(f"unknown t-norm kind {kind!r}")


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
    a, b = F._locs[:, None], G._locs[None, :]
    sums = a + b
    # Two-sum: sums + err == a + b exactly.  A pair lies below a probe
    # exactly when its key, the float sum moved one step down where it
    # was rounded up, does.
    b_part = sums - a
    err = ((a - (sums - b_part)) + (b - b_part)).ravel()
    sums = sums.ravel()
    keys = np.where(err < 0.0, np.nextafter(sums, -np.inf), sums)
    vals = tnorm_apply_np(kind, F._cums[1:, None], G._cums[None, 1:]).ravel()
    order = np.lexsort((err, sums))  # by exact sum; sums and keys both ascend
    running = np.maximum.accumulate(vals[order])
    reps, probes = _cluster_probes(sums[order].tolist())
    below = np.searchsorted(keys[order], probes, side="left") - 1
    return _from_levels(reps, np.where(below >= 0, running[below], 0.0).tolist())


@dataclass(frozen=True)
class TNormAxiomReport:
    """Maximal per-axiom violation over a sample of triples."""

    kind: TNormKind
    commutativity: float
    associativity: float
    monotonicity: float
    identity: float
    samples: int
    tolerance = VALUE_TOL  # a class constant, not a field

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
    [0, 1]^3, all triples at once with `tnorm_apply`'s arithmetic.  The
    first value outside [0, 1] in row-major order, NaN included, is
    refused."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidArgumentError(f"samples must be triples, got an array of shape {arr.shape}")
    bad = ~((arr >= 0.0) & (arr <= 1.0))
    if np.any(bad):
        raise InvalidArgumentError(f"sample value {float(arr.flat[np.argmax(bad)])!r} outside [0, 1]")
    a, b, c = arr.T
    T = partial(tnorm_apply_np, kind)

    def worst(residuals) -> float:
        # Python's max keeps the initial 0.0 against a -0.0, as the loop did.
        return max(0.0, float(np.max(residuals, initial=0.0)))

    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return TNormAxiomReport(kind=kind,
                            commutativity=worst(np.abs(T(a, b) - T(b, a))),
                            associativity=worst(np.abs(T(a, T(b, c)) - T(T(a, b), c))),
                            monotonicity=worst(T(lo, c) - T(hi, c)),
                            identity=worst(np.abs(T(a, 1.0) - a)),
                            samples=len(arr))
