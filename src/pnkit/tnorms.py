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

The kernel takes many such pairs at once, as rows of knots with running
masses: every row is sorted, clustered and read in the same (rows x n*m)
array passes, in chunks of at most MAX_PAIR_SUMS pair sums.  A row whose
chained clusters of pair sums span more than 1e-12 is clustered by the
`Ddf` loop.  `tau_apply` is its one-row call, and `dominance_rows` reads
each row's output against a third step function at the comparison
probes, as `ddf_leq_witness` does, with no `Ddf` built per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable

import numpy as np

from .ddf import KNOT_MERGE_TOL, VALUE_TOL, Ddf, _cluster_representatives
from .errors import InvalidArgumentError

# Largest number of input jump pairs tau_apply takes on; the pair sums
# and their T values are held in memory at once, and dominance_rows holds
# no more pairs than this at a time.
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
    """Exact sup-convolution of two step d.d.f.s under the given t-norm:
    the one-row call of `_tau_rows`.  Cost: n*m log(n*m) for n and m
    input jumps; more than MAX_PAIR_SUMS pairs is refused before any work.
    """
    if not F.jumps or not G.jumps:
        # One side carries all mass at +inf; every finite supremum is
        # T(., 0) = 0.
        return Ddf(())
    if len(F.jumps) * len(G.jumps) > MAX_PAIR_SUMS:
        raise InvalidArgumentError(
            f"tau_apply of {len(F.jumps)}-jump and {len(G.jumps)}-jump d.d.f.s "
            f"needs more than {MAX_PAIR_SUMS} pair sums")
    _, locs, masses = _tau_rows(kind, (F._locs[None], F._cums[None]),
                                (G._locs[None], G._cums[None]))
    return Ddf(tuple(zip(locs.tolist(), masses.tolist())))


def dominance_rows(kind: TNormKind, F: tuple, G: tuple, H: tuple,
                   tau_below: bool) -> tuple[np.ndarray, np.ndarray]:
    """`ddf_leq_witness` of the triangle function of F and G against H,
    row by row: (gaps, xs), the largest excess of tau(F_k, G_k) over H_k
    (of H_k over tau(F_k, G_k) unless `tau_below`) and the smallest
    comparison probe attaining it.  Each side is (knots, cums), a step
    function per row: ascending knots and the value after each, as
    `Ddf._locs` and `Ddf._cums` hold them.  A knot may repeat with no
    rise, so rows of fewer knots fit in.

    The outputs of `_tau_rows` are merged with H's knots, clustered, and
    read at `comparison_probes`' probes with no `Ddf` built: a head is
    read past the knots before it, the probe right of it past the knots
    of its cluster below the probe (no later knot lies below it).  The
    rows are taken in chunks of at most MAX_PAIR_SUMS pair sums."""
    rows = len(F[0])
    step = max(1, MAX_PAIR_SUMS // (F[0].shape[1] * G[0].shape[1]))
    if rows > step:
        parts = [dominance_rows(kind, *((a[k:k + step], c[k:k + step]) for a, c in (F, G, H)),
                                tau_below) for k in range(0, rows, step)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    row, locs, masses = _tau_rows(kind, F, G)
    # The outputs, padded to one width, and the value after each jump.
    counts = np.bincount(row, minlength=rows)
    col = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
    out = np.full((rows, counts.max()), np.nan)
    rises = np.zeros(out.shape)
    out[row, col], rises[row, col] = locs, masses
    sides = [(out, np.minimum(np.cumsum(rises, axis=1), 1.0)), (H[0], H[1][:, 1:])]
    if not tau_below:
        sides.reverse()
    knots = np.concatenate([k for k, _ in sides], axis=1)
    width = knots.shape[1]
    order = knots.argsort(axis=1)  # the NaN pads sort last
    from_f = order < sides[0][0].shape[1]
    order += np.arange(0, knots.size, width)[:, None]
    knots = knots.ravel()[order]
    values = np.concatenate([c for _, c in sides], axis=1).ravel()[order]
    # Each function's value past the first j sorted knots, at [row, j].
    f_past, g_past = np.zeros((2, rows, width + 1))
    f_past[:, 1:] = np.where(from_f, values, 0.0)
    g_past[:, 1:] = np.where(from_f, 0.0, values)
    f_past, g_past = (np.maximum.accumulate(p, axis=1).ravel() for p in (f_past, g_past))
    starts, first, cluster, probes = _clusters(knots)
    flat = knots.ravel()
    row_of = starts // width
    past = starts + row_of  # a head's [row, j] in the padded tables
    inside = np.add.reduceat(flat < probes[cluster], starts, dtype=np.intp)
    # A midpoint that overflows to +inf lies past every knot of its row.
    valid = counts + H[0].shape[1]
    inside = np.where(probes == np.inf, valid[row_of] + row_of * width - starts, inside)
    at_head, at_probe = ((f_past[j] - g_past[j]) for j in (past, past + inside))
    rows_at = np.flatnonzero(first)
    best = np.maximum.reduceat(np.maximum(at_head, at_probe), rows_at)
    tied = best[np.cumsum(first) - 1]
    xs = np.minimum(np.where(at_head == tied, flat[starts], np.inf),
                    np.where(at_probe == tied, probes, np.inf))
    return best, np.minimum.reduceat(xs, rows_at)


def _tau_rows(kind: TNormKind, F: tuple, G: tuple) -> tuple[np.ndarray, ...]:
    """Triangle functions of F and G, row by row, each side given as
    (knots, cums) as in `dominance_rows`.  Returns the jumps of every
    output in row-major order as flat arrays: (row, location, mass).

    The output level just right of a pair sum s is the largest
    T(F+_i, G+_j) over the pairs with a_i + b_j < s, where F+_i is F's
    value just after its i-th jump: T is nondecreasing and both inputs
    are constant between knots.  The pair sums are sorted and clustered,
    and each cluster reads its level at the midpoint to the next cluster
    (one past the last), over the pairs whose exact sum lies below it:
    every pair of an earlier cluster, and those of its own and the next
    cluster whose key, the float sum moved one step down where it was
    rounded up, lies below (no later pair's can).  Rounding a_i + b_j to
    a float never moves a pair across a probe.  The jumps are the rises
    of these levels, as `_from_levels` takes them: knots within 1e-12
    merge and zero-mass rises are pruned."""
    a, b = F[0][:, :, None], G[0][:, None, :]
    rows = len(a)
    with np.errstate(over="ignore", invalid="ignore"):
        # An infinite sum carries its mass to +inf (its two-sum error is
        # NaN).  Two-sum: sums + err == a + b exactly.
        sums = a + b
        b_part = sums - a
        err = (a - (sums - b_part)) + (b - b_part)
        keys = np.where(err < 0.0, np.nextafter(sums, -np.inf), sums).ravel()
    vals = tnorm_apply_np(kind, F[1][:, 1:, None], G[1][:, None, 1:]).ravel()
    sums = sums.reshape(rows, -1)
    order = sums.argsort(axis=1)
    order += np.arange(0, sums.size, sums.shape[1])[:, None]
    sums, keys, vals = sums.ravel()[order], keys[order].ravel(), vals[order]
    running = np.maximum.accumulate(vals, axis=1).ravel()
    vals = vals.ravel()
    starts, first, cluster, probes = _clusters(sums)
    previous = np.concatenate(([-np.inf], probes[:-1]))
    previous[first] = -np.inf
    own = np.maximum.reduceat(np.where(keys < probes[cluster], vals, 0.0), starts)
    spill = np.maximum.reduceat(np.where(keys < previous[cluster], vals, 0.0), starts)
    levels = np.maximum(running[starts - 1], own)
    levels[first] = own[first]
    levels[:-1] = np.maximum(levels[:-1], spill[1:])
    # A probe at +inf lies past every finite pair sum, and only there.
    finite = np.count_nonzero(np.isfinite(sums), axis=1)
    beyond = np.where(finite > 0, running[np.arange(rows) * sums.shape[1] + finite - 1], 0.0)
    levels = np.where(probes == np.inf, beyond[starts // sums.shape[1]], levels)
    rises = levels.copy()
    rises[1:] -= levels[:-1]
    rises[first] = levels[first]
    jumps = rises > 0.0
    return starts[jumps] // sums.shape[1], sums.ravel()[starts[jumps]], rises[jumps]


def _clusters(vals: np.ndarray) -> tuple[np.ndarray, ...]:
    """The clusters of each ascending row of `vals` by the `Ddf` rule (a
    value within KNOT_MERGE_TOL of its cluster's head joins it), on the
    row-major flattening: the index of each head, whether it starts its
    row, the cluster of every entry, and each head's probe, the midpoint
    to the next head of its row or one past the last (`_cluster_probes`).
    NaN pads at a row's end are no knots.

    A chained cluster starts wherever the step from the previous value
    passes the tolerance; where none spans more than the tolerance these
    are the clusters, and other rows take `_cluster_representatives`."""
    flat = vals.ravel()
    width = vals.shape[1]
    with np.errstate(invalid="ignore"):  # inf - inf: one cluster, as in the loop
        head = ~np.isnan(vals)
        head[:, 1:] &= vals[:, 1:] - vals[:, :-1] > KNOT_MERGE_TOL
        starts = np.flatnonzero(head)
        loose = np.fmax.reduceat(flat, starts) - flat[starts] > KNOT_MERGE_TOL
    if loose.any():
        for k in np.unique(starts[loose] // width).tolist():
            row = vals[k][~np.isnan(vals[k])]
            head[k] = False
            head[k, np.searchsorted(row, _cluster_representatives(row.tolist()))] = True
        starts = np.flatnonzero(head)
    heads = flat[starts]
    first = starts % width == 0
    last = np.concatenate((first[1:], [True]))
    with np.errstate(over="ignore"):
        probes = np.where(last, heads + 1.0, (heads + np.concatenate((heads[1:], [0.0]))) / 2.0)
    return starts, first, np.cumsum(head.ravel()) - 1, probes


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
