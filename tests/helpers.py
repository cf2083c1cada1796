"""Shared test utilities: dyadic random d.d.f.s and brute-force oracles.

Random step functions here use locations that are multiples of 2^-10
and cumulative levels that are multiples of 2^-20.  Sums, differences,
minima, and products of such levels are exactly representable in
binary floating point, so jump-list equality assertions are meaningful
wherever the algebra is exact in the reals.

The oracles recompute results along routes independent of the library
internals (dense grids, direct scans) and are deliberately slow.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from pnkit import Ddf, PiecewiseMap1D, prob_norm
from pnkit.ddf import _cluster_representatives, comparison_probes
from pnkit.discont import map_eval_vec
from pnkit.neighborhoods import (_exact_ball_confirmation, _probe_lattice,
                                 default_tprime_schedule)
from pnkit.pn_space import profile_at, vec_norm, vec_norms
from pnkit.tnorms import TNormKind, tnorm_apply, tnorm_apply_np


def dyadic_ddf(rng: np.random.Generator, max_jumps: int = 6,
               full_mass: bool | None = None) -> Ddf:
    k = int(rng.integers(1, max_jumps + 1))
    locs = np.sort(rng.choice(np.arange(1, 4097), size=k, replace=False)) * 2.0 ** -10
    if full_mass is None:
        full_mass = bool(rng.integers(0, 2))
    top = 2 ** 20 if full_mass else int(rng.integers(2 ** 18, 2 ** 20))
    if k == 1:
        levels = np.array([top], dtype=float)
    else:
        levels = np.sort(rng.choice(np.arange(1, top), size=k - 1, replace=False)).astype(float)
        levels = np.append(levels, float(top))
    levels *= 2.0 ** -20
    masses = np.diff(np.concatenate([[0.0], levels]))
    return Ddf(tuple((float(l), float(m)) for l, m in zip(locs, masses)))


def ddf_pointwise_max(F: Ddf, G: Ddf) -> Ddf:
    """Pointwise maximum of two step d.d.f.s, rebuilt as a jump list.
    Guarantees F <= result and G <= result; used to manufacture ordered
    pairs for monotonicity and transitivity checks."""
    knots = sorted({loc for D in (F, G) for loc, _ in D.jumps})
    jumps: list[tuple[float, float]] = []
    prev = 0.0
    for i, k in enumerate(knots):
        probe = (k + knots[i + 1]) / 2.0 if i + 1 < len(knots) else k + 1.0
        v = max(F.eval(probe), G.eval(probe))
        if v > prev:
            jumps.append((k, v - prev))
            prev = v
    return Ddf(tuple(jumps))


def brute_force_tau_curve(kind: TNormKind, F: Ddf, G: Ddf,
                          xs: np.ndarray, u_count: int = 4096) -> np.ndarray:
    """sup over a uniform split grid u + v = x of T(F(u), G(v)), per x.

    A lower bound of the exact supremum: any value the exact operation
    attains strictly before x - 2*(x/u_count) is seen by some grid
    split, so the curve lags the exact one by at most that shift.
    """
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        us = np.linspace(0.0, float(x), u_count)
        vals = tnorm_apply_np(kind, F.eval_many(us), G.eval_many(np.maximum(x - us, 0.0)))
        out[i] = np.max(vals)
    return out


def _fixed(v: float) -> int:
    """v * 2^1076 as an exact integer.  Every finite float is a multiple
    of 2^-1074, so sums, differences and midpoints of these integers are
    exact as well."""
    num, den = v.as_integer_ratio()
    return (num << 1076) // den


def _sup_on_split(kind: TNormKind, F: Ddf, G: Ddf, a_locs: list[int],
                  b_locs: list[int], x: float) -> float:
    # sup over u in [0, x] of T(F(u), G(x - u)).  The integrand is
    # piecewise constant with breakpoints at F's knots and at x minus
    # G's knots; boundary values never exceed adjacent piece interiors,
    # so midpoints of the pieces decide the supremum exactly.  Points
    # are exact fixed-point integers: in floats, a piece narrower than
    # one unit in the last place holds no midpoint and its value is lost.
    X = _fixed(x)
    cuts = {0, X}
    cuts.update(a for a in a_locs if 0 < a < X)
    cuts.update(X - b for b in b_locs if 0 < X - b < X)
    grid = sorted(cuts)
    best = 0.0
    for u0, u1 in zip(grid, grid[1:]):
        u = (u0 + u1) // 2
        val = tnorm_apply(kind, F._cums[bisect_left(a_locs, u)],
                          G._cums[bisect_left(b_locs, X - u)])
        if val > best:
            best = val
    return best


def midpoint_scan_tau(kind: TNormKind, F: Ddf, G: Ddf) -> Ddf:
    """Reference triangle function: one midpoint scan of the split
    u + v = x per clustered pair sum, at the midpoint to the next
    cluster (one past the last), with the jump list rebuilt from the
    level increases.  The split scans run in exact fixed point, so each
    level is exact for the given float knots and probes.  About n^3
    scalar t-norm calls for n jumps a side."""
    if not F.jumps or not G.jumps:
        return Ddf(())
    sums = sorted({a + b for a, _ in F.jumps for b, _ in G.jumps})
    reps = _cluster_representatives(sums)
    a_locs = [_fixed(a) for a in F._locs]
    b_locs = [_fixed(b) for b in G._locs]
    jumps: list[tuple[float, float]] = []
    prev = 0.0
    for i, rep in enumerate(reps):
        probe = (rep + reps[i + 1]) / 2.0 if i + 1 < len(reps) else rep + 1.0
        v = _sup_on_split(kind, F, G, a_locs, b_locs, probe)
        if v - prev > 0.0:
            jumps.append((rep, v - prev))
            prev = v
    return Ddf(tuple(jumps))


def leq_witness_loop(F: Ddf, G: Ddf) -> tuple[float, float]:
    """Reference `ddf_leq_witness`: scalar evaluation at each comparison
    probe, keeping the first probe of the largest gap."""
    worst = -np.inf
    worst_x = None
    for x in comparison_probes(F, G):
        gap = F.eval(x) - G.eval(x)
        if gap > worst:
            worst = gap
            worst_x = x
    return worst, worst_x


def sibley_scan(F: Ddf, G: Ddf, h_step: float = 1e-4, h_max: float = 1.0) -> float:
    """Smallest h on a uniform h-grid satisfying the two-sided shift
    condition, checked on a dense x-grid.  Independent of the library's
    bisection; resolution is h_step."""
    h = h_step
    while h <= h_max:
        xmax = min(1.0 / h, 8.0)
        xs = np.arange(h_step, xmax, h_step)
        ok = (np.all(G.eval_many(xs) <= F.eval_many(xs + h) + h + 1e-12) and
              np.all(F.eval_many(xs) <= G.eval_many(xs + h) + h + 1e-12))
        if ok:
            return h
        h += h_step
    return h_max


def pointwise_min_curve(fns, xs: np.ndarray) -> np.ndarray:
    """Dense-grid pointwise infimum of a family, as raw values."""
    vals = np.stack([F.eval_many(xs) for F in fns])
    return np.min(vals, axis=0)


def continuity_scan_oracle(space, m, points, t: float, probe_budget: int) -> list:
    """Reference continuity scan: each sample point's witness threshold on
    the default schedule, or None, found one point, one t' and one
    lattice point at a time with a fresh profile Ddf for every test.

    The members at t' are the lattice points whose difference profile
    from p exceeds 1 - t' at t'; t' is a witness when the profile of the
    largest image among the members and p exceeds 1 - t at t.  The probe
    lattice and the exact ball bound for single-step generators on
    piecewise maps are the library's own."""
    lattice = [tuple(float(c) for c in q) for q in _probe_lattice(m, probe_budget)]
    exact_route = isinstance(m, PiecewiseMap1D) and len(space.generator.jumps) == 1
    out = []
    for p in points:
        witness = None
        for tprime in default_tprime_schedule(t):
            members = [q for q in lattice
                       if prob_norm(space, np.subtract(p, q)).eval(tprime) > 1.0 - tprime]
            images = [map_eval_vec(m, q) for q in members + [p]]
            farthest = max(images, key=vec_norm)
            if not prob_norm(space, farthest).eval(t) > 1.0 - t:
                continue
            if exact_route and not _exact_ball_confirmation(space, m, p[0], tprime, t):
                continue
            witness = tprime
            break
        out.append(witness)
    return out


def sampled_eval_oracle(m, p) -> tuple:
    """Image of the lattice node nearest p, snapping each coordinate with
    Python's round (halves to even) and clipping into the lattice."""
    idx = tuple(min(max(int(round((c - a) / m.resolution)), 0), n - 1)
                for c, (a, _), n in zip(p, m.box, m.shape))
    return tuple(float(c) for c in m.images[idx])


def _lattice_points_oracle(m) -> list[tuple]:
    """A sampled map's lattice nodes as tuples, in lexicographic order."""
    axes = [[float(x) for x in np.linspace(a, b, n)] for (a, b), n in zip(m.box, m.shape)]
    if len(axes) == 1:
        return [(x,) for x in axes[0]]
    return [(x, y) for x in axes[0] for y in axes[1]]


def _neighbor_offsets_1d(space, delta: float, step: float, n: int) -> int:
    admitted = profile_at(space, np.arange(1, n + 1) * step, delta) > 1.0 - delta
    return int(np.count_nonzero(admitted))


def _largest_gap_1d(fv: np.ndarray, max_offset: int) -> float:
    worst = 0.0
    for j in range(1, max_offset + 1):
        worst = max(worst, float(np.max(np.abs(fv[j:] - fv[:-j]))))
    return worst


def _largest_gap_sampled(m, space, delta: float):
    img = np.asarray(m.images)
    grids = np.meshgrid(*(np.arange(1 - n, n) for n in m.shape), indexing="ij")
    offsets = np.stack(grids, axis=-1).reshape(-1, m.dim)
    offsets = offsets[np.any(offsets != 0, axis=1)]
    r = m.resolution * vec_norms(offsets)
    worst = None
    for d in offsets[profile_at(space, r, delta) > 1.0 - delta]:
        src = tuple(slice(max(x, 0), img.shape[k] + min(x, 0)) for k, x in enumerate(d))
        dst = tuple(slice(max(-x, 0), img.shape[k] + min(-x, 0)) for k, x in enumerate(d))
        diff = img[src] - img[dst]
        gap = float(np.max(np.sqrt(np.sum(diff * diff, axis=-1))))
        worst = gap if worst is None else max(worst, gap)
    return worst


def estimator_levels_oracle(space, m, deltas, grids) -> list[tuple]:
    """(grid step, delta, largest pair gap or None) per refinement level,
    by the two routines the estimator had per map kind: a prefix of
    1-d offsets on the piecewise map's grids, and every admitted nonzero
    offset, each with its own gap, on a sampled map's lattice."""
    out = []
    if isinstance(m, PiecewiseMap1D):
        lo, hi = m.domain
        for h in grids:
            n = max(1, int(round((hi - lo) / h)))
            fv = m.eval_many(np.linspace(lo, hi, n + 1))
            for delta in deltas:
                max_off = _neighbor_offsets_1d(space, delta, (hi - lo) / n, n)
                out.append((h, delta, _largest_gap_1d(fv, max_off) if max_off >= 1 else None))
    else:
        for delta in deltas:
            out.append((m.resolution, delta, _largest_gap_sampled(m, space, delta)))
    return out


def dominance_candidate_oracle(m) -> tuple:
    """The lattice node of least displacement |f(p) - p|, ties going to
    the lexicographically smallest node, by one scalar evaluation per
    node."""
    return min(_lattice_points_oracle(m),
               key=lambda p: (vec_norm(np.subtract(sampled_eval_oracle(m, p), p)), p))
