"""Tests for simple spaces and the axiom checker."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnkit import (Ddf, InvalidArgumentError, PnSpace, TNormKind,
                   check_axioms, make_epsilon, prob_norm, random_vector_pairs)
from pnkit import tnorms
from pnkit.ddf import GENERATOR_MASS_TOL, _cluster_representatives
from pnkit.neighborhoods import in_strong_neighborhood
from pnkit.pn_space import (DEFAULT_LAMBDAS, in_neighborhood, level_location, profile_at,
                            vec_norm, vec_norms)
from pnkit.tnorms import MAX_PAIR_SUMS

from helpers import dominance_loops, profile_at_ref

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def generators(draw) -> Ddf:
    """Full-mass generators with up to five jumps anywhere in [0, 10]."""
    locs = draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                         max_size=5, unique=True))
    weights = draw(st.lists(st.integers(1, 100), min_size=len(locs), max_size=len(locs)))
    total = sum(weights)
    return Ddf(tuple((loc, w / total) for loc, w in zip(locs, weights)))


@st.composite
def near_tolerance_generators(draw) -> Ddf:
    """Full-mass generators of two to six knots 1.01e-12 to 4e-12 apart:
    scaled down by a lambda split their knots merge, and scaled up their
    pair sums chain past the 1e-12 tolerance."""
    n = draw(st.integers(2, 6))
    base = draw(st.floats(min_value=0.0, max_value=4.0))
    step = draw(st.floats(min_value=1.01e-12, max_value=4e-12))
    weights = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    total = sum(weights)
    return Ddf(tuple((base + k * step, w / total) for k, w in enumerate(weights)))


@st.composite
def sample_pairs(draw, dim: int) -> np.ndarray:
    """Seeded sample pairs at one of three scales, with optional extras: a
    null vector, a repeated pair and a negated pair (the last two tie)."""
    pairs = random_vector_pairs(dim, draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 16)))
    pairs = pairs * draw(st.sampled_from([0.01, 1.0, 20.0]))
    extras = draw(st.sets(st.sampled_from(["null", "repeat", "negate"])))
    if "null" in extras:
        pairs[0, 0] = 0.0
    if "repeat" in extras:
        pairs = np.concatenate((pairs, pairs[:1]))
    if "negate" in extras:
        pairs = np.concatenate((pairs, -pairs[:1]))
    return pairs


class TestConstruction:
    def test_default_space(self):
        sp = PnSpace(dimension=1)
        assert sp.generator.jumps == make_epsilon(1.0).jumps
        assert sp.tau is TNormKind.M

    def test_rejects_partial_mass_generator(self):
        with pytest.raises(InvalidArgumentError):
            PnSpace(dimension=1, generator=Ddf(((1.0, 0.5),)))

    def test_rejects_empty_generator(self):
        with pytest.raises(InvalidArgumentError):
            PnSpace(dimension=1, generator=Ddf(()))

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidArgumentError):
            PnSpace(dimension=0)

    def test_json_roundtrip(self):
        sp = PnSpace(dimension=3, generator=Ddf(((0.5, 0.25), (1.5, 0.75))),
                     tau=TNormKind.PROD, tau_star=TNormKind.M)
        back = PnSpace.from_json_obj(sp.to_json_obj())
        assert back == sp

    def test_tau_holds_the_tnorm_kind(self):
        sp = PnSpace(dimension=1, tau=TNormKind.W)
        assert sp.tau is TNormKind.W and sp.tau_star is TNormKind.M
        assert sp.to_json_obj()["tau"] == "W"
        back = PnSpace.from_json_obj(sp.to_json_obj())
        assert back == sp and back.tau is TNormKind.W


class TestProbNorm:
    def test_scales_generator_by_norm(self):
        sp = PnSpace(dimension=1)
        assert prob_norm(sp, (2.0,)).jumps == make_epsilon(2.0).jumps

    def test_null_vector_is_maximal(self):
        for dim in (1, 2, 3):
            sp = PnSpace(dimension=dim)
            theta = tuple(0.0 for _ in range(dim))
            assert prob_norm(sp, theta).jumps == make_epsilon(0.0).jumps

    def test_negation_invariance(self):
        sp = PnSpace(dimension=3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = tuple(rng.standard_normal(3))
            neg = tuple(-c for c in p)
            assert prob_norm(sp, p).jumps == prob_norm(sp, neg).jumps

    def test_homogeneous_under_dyadic_scaling(self):
        sp = PnSpace(dimension=2, generator=Ddf(((0.5, 0.5), (2.0, 0.5))))
        rng = np.random.default_rng(5)
        for c in (0.5, 2.0, 4.0):
            for _ in range(20):
                p = tuple(rng.standard_normal(2))
                scaled = prob_norm(sp, tuple(c * x for x in p))
                expected = tuple((c * loc, m) for loc, m in prob_norm(sp, p).jumps)
                assert scaled.jumps == expected

    def test_homogeneous_under_general_scaling(self):
        sp = PnSpace(dimension=2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = float(rng.uniform(0.1, 3.0))
            p = tuple(rng.standard_normal(2))
            got = prob_norm(sp, tuple(c * x for x in p)).jumps[0][0]
            want = c * prob_norm(sp, p).jumps[0][0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        sp = PnSpace(dimension=2)
        with pytest.raises(InvalidArgumentError):
            prob_norm(sp, (1.0,))

    def test_empty_and_non_finite_vectors_rejected(self):
        sp = PnSpace(dimension=1)
        with pytest.raises(InvalidArgumentError, match="at least one coordinate"):
            prob_norm(sp, ())
        with pytest.raises(InvalidArgumentError, match="coordinates must be finite"):
            prob_norm(sp, (math.inf,))


def _float_neighbors(x: float) -> list[float]:
    return [x, float(np.nextafter(x, -math.inf)), float(np.nextafter(x, math.inf))]


@st.composite
def rule_cases(draw):
    """A space, thresholds and norms on the edges of the neighborhood rule:
    jumps at 0 and at tiny locations, total mass short of 1 by up to
    GENERATOR_MASS_TOL, t at 1 - level and its float neighbours and down
    to the least subnormal, and r == 0, r = t / a and their neighbours."""
    locs = draw(st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 1.9]),
                                   st.floats(min_value=0.0, max_value=10.0)),
                         min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 100), min_size=len(locs), max_size=len(locs)))
    short = draw(st.sampled_from([0.0, 0.0, 1e-12, GENERATOR_MASS_TOL / 2,
                                  GENERATOR_MASS_TOL * 0.99]))
    masses = [w / sum(weights) for w in weights]
    masses[-1] -= short
    sp = PnSpace(dimension=draw(st.integers(1, 2)),
                 generator=Ddf(tuple(zip(sorted(locs), masses))))
    edges = [x for c in sp.generator._cums for x in _float_neighbors(1.0 - float(c))]
    edges += [5e-324, 1e-300, 2.0 ** -54, 2.0 ** -53, 1e-17, 1e-12, GENERATOR_MASS_TOL,
              *_float_neighbors(1.0), 2.0]
    ts = draw(st.lists(st.one_of(st.sampled_from([t for t in edges if t >= 0.0]),
                                 st.floats(min_value=0.0, max_value=3.0)),
                       min_size=1, max_size=6))
    with np.errstate(over="ignore"):
        radii = [x for t in ts for a in sp.generator._locs if a > 0.0
                 for x in _float_neighbors(t / a) if 0.0 <= x < math.inf]
    norms = draw(st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e300, *radii]),
                                    st.floats(min_value=0.0, max_value=20.0)),
                          min_size=1, max_size=12))
    return sp, np.array(ts), np.array(norms)


class TestNeighborhoodRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=rule_cases())
    def test_matches_the_profile_comparison_bit_for_bit(self, case):
        sp, ts, norms = case
        with np.errstate(over="ignore"):
            want = profile_at(sp, norms[:, None], ts) > 1.0 - ts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = in_neighborhood(sp, norms[:, None], ts)
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=rule_cases(), data=st.data())
    def test_point_membership_follows_the_rule(self, case, data):
        sp, ts, _ = case
        p, q = (tuple(data.draw(st.lists(coords, min_size=sp.dimension, max_size=sp.dimension)))
                for _ in range(2))
        # Thresholds where 1 - t rounds to 1 (0 and below 2**-54 among them) are refused.
        for t in ts:
            if not 1.0 - t < 1.0:
                with pytest.raises(InvalidArgumentError, match="threshold must exceed"):
                    in_strong_neighborhood(sp, p, t, q)
                continue
            want = bool(profile_at(sp, vec_norm(np.subtract(p, q)), t) > 1.0 - t)
            assert in_strong_neighborhood(sp, p, t, q) is want

    def test_level_location_edges(self):
        sp = PnSpace(dimension=1, generator=Ddf(((0.5, 0.25), (2.0, 0.75 - 1e-10))))
        got = level_location(sp, np.array([2.0, 1.0, 0.75, 0.5, 1e-11]))
        assert got.tolist() == [0.0, 0.5, 2.0, 2.0, math.inf]


class TestProfileCore:
    @settings(max_examples=300, deadline=None)
    @given(gen=generators(), dim=st.integers(1, 3), data=st.data(),
           ts=st.lists(st.floats(min_value=0.0, max_value=1e7), min_size=1, max_size=8))
    def test_profile_at_matches_prob_norm(self, gen, dim, data, ts):
        sp = PnSpace(dimension=dim, generator=gen)
        v = tuple(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
        nu = prob_norm(sp, v)
        # The Ddf merges scaled knots within 1e-12; the core never does.
        assume(not any(v) or len(nu.jumps) == len(gen.jumps))
        got = profile_at(sp, vec_norm(v), np.array(ts))
        assert got.tolist() == [nu.eval(t) for t in ts]

    def test_profile_at_broadcasts_norms_against_thresholds(self):
        sp = PnSpace(dimension=1, generator=Ddf(((0.5, 0.25), (1.0, 0.75))))
        norms = np.array([0.0, 1.0, 2.0])
        ts = np.array([0.0, 0.5, 1.0, 1.5])
        got = profile_at(sp, norms[:, None], ts)
        want = [[prob_norm(sp, (r,)).eval(t) for t in ts] for r in norms]
        assert got.shape == (3, 4)
        assert got.tolist() == want

    @pytest.mark.parametrize("norms, ts", [
        (0.75, 0.5),                                        # scalars
        (0.0, 0.5),
        (0.0, 0.0),
        ([0.0, 0.5, 2.0], 0.75),                            # a row of norms
        (1.5, [0.0, 0.5, 1.0, 3.0]),                        # a row of thresholds
        ([[0.0], [0.5], [2.0]], 0.75),                      # a column of norms
        ([0.25, 1.0], [[0.0], [0.5], [1.5]]),               # a column of thresholds
        ([[0.25], [0.0], [3.0]], np.arange(256) / 64),      # the chain's shape
        ([[0.0], [0.0], [0.0]], np.arange(256) / 64),       # r == 0 rows
    ])
    def test_profile_at_broadcasts_as_broadcast_arrays_does(self, norms, ts):
        sp = PnSpace(dimension=2, generator=Ddf(((0.5, 0.25), (1.0, 0.5), (2.0, 0.25))))
        got, want = profile_at(sp, norms, ts), profile_at_ref(sp, norms, ts)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_vec_norms_match_vec_norm_row_by_row(self, dim, data):
        rows = data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                                  min_size=1, max_size=10))
        assert vec_norms(np.array(rows)).tolist() == [vec_norm(tuple(r)) for r in rows]


class TestAxiomChecker:
    def test_simple_space_passes_in_three_dimensions(self):
        for dim in (1, 2, 3):
            sp = PnSpace(dimension=dim)
            pairs = random_vector_pairs(dim, 200, seed=100 + dim)
            report = check_axioms(sp, pairs)
            assert report.all_passed, report.to_json_obj()

    def test_multi_jump_generator_passes_with_minimum(self):
        gen = Ddf(((0.5, 0.25), (1.0, 0.5), (3.0, 0.25)))
        sp = PnSpace(dimension=2, generator=gen)
        report = check_axioms(sp, random_vector_pairs(2, 100, seed=9))
        assert report.all_passed, report.to_json_obj()

    def test_lambda_zero_reduces_to_identity(self):
        sp = PnSpace(dimension=2)
        report = check_axioms(sp, random_vector_pairs(2, 50, seed=11), lambdas=(0.0,))
        assert report["N4"].passed
        with pytest.raises(KeyError):
            report["N5"]

    def test_degenerate_generator_fails_n1(self):
        sp = PnSpace(dimension=1, generator=make_epsilon(0.0))
        report = check_axioms(sp, random_vector_pairs(1, 20, seed=13))
        assert not report["N1"].passed
        assert report["N1"].worst is not None

    def test_lukasiewicz_upper_bound_fails_for_split_generator(self):
        # Two half-mass steps: the convexity-style upper bound with the
        # Lukasiewicz t-norm zeroes out the cross terms and drops below
        # the profile itself.
        gen = Ddf(((1.0, 0.5), (2.0, 0.5)))
        sp = PnSpace(dimension=1, generator=gen,
                     tau=TNormKind.M, tau_star=TNormKind.W)
        report = check_axioms(sp, random_vector_pairs(1, 20, seed=17),
                              lambdas=(0.0, 0.5, 1.0))
        assert report["N3"].passed
        assert not report["N4"].passed
        worst = report["N4"].worst
        assert worst is not None and worst["lambda"] == 0.5

    def test_triangle_holds_with_equality_pattern_on_unit_generator(self):
        # For a single unit step the sum profile jumps exactly at the
        # vector-sum norm while the triangle side jumps at the norm sum.
        sp = PnSpace(dimension=2)
        rng = np.random.default_rng(19)
        from pnkit.tnorms import tau_apply
        for _ in range(100):
            p = tuple(rng.standard_normal(2))
            q = tuple(rng.standard_normal(2))
            lhs = tau_apply(TNormKind.M, prob_norm(sp, p), prob_norm(sp, q))
            norm_sum = math.hypot(*p) + math.hypot(*q)
            assert lhs.jumps[0][0] == pytest.approx(norm_sum, rel=1e-12)
            sum_norm = prob_norm(sp, (p[0] + q[0], p[1] + q[1])).jumps[0][0]
            assert sum_norm <= norm_sum + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(gen=generators(), dim=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           tau=st.sampled_from(TNormKind), count=st.integers(1, 4))
    def test_dominance_matches_the_loops_on_passing_spaces(self, gen, dim, seed, tau, count):
        # tau* = M: a shorter vector has a larger profile, so N4 holds.
        sp = PnSpace(dimension=dim, generator=gen, tau=tau)
        pairs = random_vector_pairs(dim, count, seed)
        report = check_axioms(sp, pairs, (0.0, 0.3, 0.5, 1.0))
        assert report["N3"].passed and report["N4"].passed
        n3, n4 = dominance_loops(sp, pairs, (0.0, 0.3, 0.5, 1.0))
        assert report["N3"].to_json_obj() == n3 and report["N4"].to_json_obj() == n4

    @settings(max_examples=40, deadline=None)
    @given(locs=st.lists(st.integers(1, 64), min_size=2, max_size=2, unique=True),
           weight=st.integers(1, 15), dim=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           tau=st.sampled_from(TNormKind), count=st.integers(1, 4),
           lambdas=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.7, 1.0]), max_size=3))
    def test_dominance_matches_the_loops_where_n4_fails(self, locs, weight, dim, seed, tau,
                                                        count, lambdas):
        # A two-step generator under tau* = W fails N4 at lambda = 0.5:
        # W drops the cross terms of the half-length profiles.
        gen = Ddf(tuple((loc / 16.0, m) for loc, m in zip(locs, (weight / 16.0, 1 - weight / 16.0))))
        sp = PnSpace(dimension=dim, generator=gen, tau=tau, tau_star=TNormKind.W)
        pairs = random_vector_pairs(dim, count, seed)
        lams = (*lambdas, 0.5)
        report = check_axioms(sp, pairs, lams)
        assert not report["N4"].passed
        n3, n4 = dominance_loops(sp, pairs, lams)
        assert report["N3"].to_json_obj() == n3 and report["N4"].to_json_obj() == n4

    @settings(max_examples=80, deadline=None)
    @given(gen=st.one_of(near_tolerance_generators(), generators()), dim=st.integers(1, 3),
           tau=st.sampled_from(TNormKind), tau_star=st.sampled_from(TNormKind),
           lambdas=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.7]), max_size=3), data=st.data())
    def test_batched_results_match_the_loops(self, gen, dim, tau, tau_star, lambdas, data):
        # The whole JSON text, so a -0.0 or an int lambda would show.
        # Lambdas 0 and 1 split off a zero norm; a repeated 0.5 ties.
        sp = PnSpace(dimension=dim, generator=gen, tau=tau, tau_star=tau_star)
        pairs = data.draw(sample_pairs(dim))
        lams = (0.0, *lambdas, 0.5, 1, 0.5)
        report = check_axioms(sp, pairs, lams)
        n3, n4 = dominance_loops(sp, pairs, lams)
        assert json.dumps(report["N3"].to_json_obj()) == json.dumps(n3)
        assert json.dumps(report["N4"].to_json_obj()) == json.dumps(n4)

    @pytest.mark.parametrize("step", [1.2e-12, 2e-12])
    def test_chained_sums_and_merged_knots_take_the_fallbacks(self, monkeypatch, step):
        # Norms near 3 put the knots 3.6e-12 to 6e-12 apart, and their pair
        # sums chain past 1e-12; at lambda = 0.25 the knots merge.
        gen = Ddf(tuple((1.0 + k * step, w) for k, w in enumerate((0.25, 0.125, 0.375, 0.25))))
        sp = PnSpace(dimension=2, generator=gen, tau=TNormKind.PROD, tau_star=TNormKind.W)
        pairs = random_vector_pairs(2, 2, seed=3)
        lams = (0.0, 0.25, 0.5, 0.5, 1.0)
        loops = []
        monkeypatch.setattr(tnorms, "_cluster_representatives",
                            lambda vals: loops.append(vals) or _cluster_representatives(vals))
        report = check_axioms(sp, pairs, lams)
        assert loops
        assert any(len(prob_norm(sp, 0.25 * v).jumps) < 4 for v in pairs.reshape(-1, 2))
        assert report["N4"].worst["lambda"] == 0.5
        n3, n4 = dominance_loops(sp, pairs, lams)
        assert report["N3"].to_json_obj() == n3 and report["N4"].to_json_obj() == n4

    def test_more_lambdas_build_no_more_ddfs(self, monkeypatch):
        built = []
        post_init = Ddf.__post_init__
        monkeypatch.setattr(Ddf, "__post_init__", lambda self: built.append(1) or post_init(self))
        sp = PnSpace(dimension=3, generator=Ddf(((0.5, 0.25), (1.0, 0.5), (3.0, 0.25))),
                     tau=TNormKind.W, tau_star=TNormKind.PROD)
        pairs = random_vector_pairs(3, 4, seed=5)
        counts = []
        for lams in ((0.5,), DEFAULT_LAMBDAS):
            built.clear()
            check_axioms(sp, pairs, lams)
            counts.append(len(built))
        assert len(DEFAULT_LAMBDAS) == 11 and counts[1] <= counts[0]

    def test_an_overflowing_sum_profile_is_refused_without_a_warning(self):
        # Each sample profile is finite; the profile of p + q is not.
        sp = PnSpace(dimension=1, generator=Ddf(((1e308, 1.0),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="^jump location must be finite"):
                check_axioms(sp, [([0.9], [0.9])])

    def test_an_oversized_generator_is_refused_unless_every_norm_is_zero(self):
        n = 1025
        assert n * n > MAX_PAIR_SUMS
        sp = PnSpace(dimension=1, generator=Ddf(tuple((k + 1.0, 1.0 / n) for k in range(n))))
        with pytest.raises(InvalidArgumentError, match="^tau_apply of 1025-jump and 1025-jump"):
            check_axioms(sp, [([1.0], [2.0])], (0.5,))
        report = check_axioms(sp, [([0.0], [0.0])], (0.0, 1.0))
        n3, n4 = dominance_loops(sp, [([0.0], [0.0])], (0.0, 1.0))
        assert report["N3"].to_json_obj() == n3 and report["N4"].to_json_obj() == n4

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidArgumentError):
            check_axioms(PnSpace(dimension=1), [])

    def test_bad_lambda_rejected(self):
        with pytest.raises(InvalidArgumentError):
            check_axioms(PnSpace(dimension=1), random_vector_pairs(1, 5, seed=1),
                         lambdas=(1.5,))
