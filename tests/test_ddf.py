"""Tests for the step d.d.f. algebra."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (canonical_ddf_ref, cums_loop, ddf_pointwise_max, dyadic_ddf,
                     left_limit_of_infimum_loop, leq_witness_loop, pointwise_min_curve,
                     sibley_scan)
from pnkit import (Ddf, InvalidArgumentError, TNormKind, ddf_leq, ddf_leq_witness,
                   left_limit_of_infimum, make_epsilon, sibley_distance, tau_apply)
from pnkit.ddf import VALUE_TOL, comparison_probes


class TestConstruction:
    def test_canonicalizes_unsorted_input(self):
        F = Ddf(((2.0, 0.25), (1.0, 0.5)))
        assert F.jumps == ((1.0, 0.5), (2.0, 0.25))

    def test_merges_locations_within_tolerance(self):
        F = Ddf(((1.0, 0.25), (1.0 + 1e-13, 0.25)))
        assert len(F.jumps) == 1
        assert F.jumps[0][1] == 0.5

    def test_rejects_negative_location(self):
        with pytest.raises(InvalidArgumentError):
            Ddf(((-0.5, 0.5),))

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(InvalidArgumentError):
            Ddf(((0.5, 0.0),))
        with pytest.raises(InvalidArgumentError):
            Ddf(((0.5, -0.1),))

    def test_rejects_total_mass_above_one(self):
        with pytest.raises(InvalidArgumentError):
            Ddf(((0.5, 0.7), (1.0, 0.4)))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(InvalidArgumentError):
            Ddf(((math.inf, 0.5),))
        with pytest.raises(InvalidArgumentError):
            Ddf(((0.5, math.nan),))


    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_scale_locations_rejects_bad_factors(self, c):
        with pytest.raises(InvalidArgumentError, match="scale factor must be finite and > 0"):
            make_epsilon(0.5).scale_locations(c)


class TestMakeEpsilon:
    def test_step_values_around_location(self):
        F = make_epsilon(0.5)
        assert F.eval(0.5) == 0.0
        assert F.eval(0.7) == 1.0

    def test_epsilon_zero_is_one_everywhere_above_zero(self):
        F = make_epsilon(0.0)
        for x in (1e-12, 0.3, 1.0, 100.0):
            assert F.eval(x) == 1.0
        assert F.eval(0.0) == 0.0

    def test_epsilon_zero_dominates_everything(self):
        rng = np.random.default_rng(7)
        top = make_epsilon(0.0)
        for _ in range(50):
            assert ddf_leq(dyadic_ddf(rng), top)

    def test_rejects_bad_locations(self):
        with pytest.raises(InvalidArgumentError):
            make_epsilon(-1e-9)
        with pytest.raises(InvalidArgumentError):
            make_epsilon(math.inf)


class TestEval:
    def test_left_continuity_at_jump(self):
        F = Ddf(((1.0, 0.5),))
        assert F.eval(1.0) == 0.0
        assert F.eval(2.0) == 0.5
        assert F.eval(math.inf) == 1.0

    def test_zero_is_always_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert dyadic_ddf(rng).eval(0.0) == 0.0

    def test_rejects_negative_points(self):
        with pytest.raises(InvalidArgumentError):
            make_epsilon(1.0).eval(-0.1)

    def test_monotone_on_random_functions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            F = dyadic_ddf(rng)
            xs = np.sort(rng.uniform(0.0, 6.0, 64))
            vals = F.eval_many(xs)
            assert np.all(np.diff(vals) >= 0.0)

    def test_left_limit_matches_value_at_every_jump(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            F = dyadic_ddf(rng)
            for loc, _ in F.jumps:
                if loc > 0:
                    assert F.eval(loc) == F.eval(loc - 1e-12)

    def test_eval_many_matches_eval(self):
        rng = np.random.default_rng(19)
        F = dyadic_ddf(rng)
        xs = rng.uniform(0.0, 5.0, 100)
        many = F.eval_many(xs)
        assert all(many[i] == F.eval(x) for i, x in enumerate(xs))


@st.composite
def near_full_ddf(draw):
    """Up to eight jumps whose masses sum to 1 give or take a few ulps,
    or exceed 1 by up to VALUE_TOL, or fall well short of 1."""
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    total = draw(st.sampled_from([1.0, 1.0 + 1e-13, 1.0 + 5e-13, 1.0 + VALUE_TOL, 0.75]))
    locs = draw(st.lists(st.floats(0.0, 4.0), min_size=len(raw), max_size=len(raw)))
    masses = [m / math.fsum(raw) * total for m in raw]
    try:
        return Ddf(tuple(zip(locs, masses)))
    except InvalidArgumentError:  # rounding took the total past the tolerance
        return Ddf(tuple(zip(locs, [m / 2 for m in masses])))


class TestArrays:
    """The two arrays built at construction: `_cums` is the running mass
    clamped one sum at a time, bit for bit, and `eval` reads the same
    arrays as `eval_many`."""

    @settings(max_examples=300, deadline=None)
    @given(F=near_full_ddf())
    def test_cums_match_the_sequential_clamp(self, F):
        assert F._cums.tobytes() == np.array(cums_loop(F)).tobytes()
        assert F._locs.tolist() == [loc for loc, _ in F.jumps]

    def test_cums_clamp_a_total_mass_within_the_tolerance_above_one(self):
        F = Ddf(((0.5, 0.5), (1.0, 0.25), (2.0, 0.25 + 0.5 * VALUE_TOL)))
        assert math.fsum(m for _, m in F.jumps) > 1.0
        assert F._cums.tolist() == cums_loop(F) == [0.0, 0.5, 0.75, 1.0]
        assert F.total_mass == 1.0

    @settings(max_examples=300, deadline=None)
    @given(F=near_full_ddf())
    def test_eval_reads_the_arrays_of_eval_many(self, F):
        xs = [0.0]
        for loc, _ in F.jumps:
            xs += [loc, float(np.nextafter(loc, 0.0)), max(loc - 1e-12, 0.0), loc + 1e-12]
        for x in xs:
            assert F.eval(x) == F.eval_many(np.array([x]))[0]
        # At +inf both read 1 by convention, whatever the finite mass; the
        # float maximum still reads the finite mass below it.
        assert F.eval(math.inf) == F.eval_many(np.array([math.inf]))[0] == 1.0
        top = sys.float_info.max
        assert F.eval(top) == F.eval_many(np.array([top]))[0] == F.total_mass

    def test_arrays_reject_writes(self):
        F = Ddf(((0.5, 0.5), (1.0, 0.5)))
        with pytest.raises(ValueError):
            F._locs[0] = 2.0
        with pytest.raises(ValueError):
            F._cums[-1] = 0.5
        assert F.eval(0.75) == 0.5 and F.eval(2.0) == 1.0


class TestOrdering:
    def test_larger_step_location_is_smaller(self):
        assert ddf_leq(make_epsilon(0.3), make_epsilon(0.2))
        assert not ddf_leq(make_epsilon(0.2), make_epsilon(0.3))

    def test_reflexive(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            F = dyadic_ddf(rng)
            assert ddf_leq(F, F)

    def test_tail_beyond_last_knot_is_compared(self):
        # Same knots, different total masses: only points beyond the
        # last knot separate them.
        full = make_epsilon(1.0)
        half = Ddf(((1.0, 0.5),))
        assert ddf_leq(half, full)
        assert not ddf_leq(full, half)

    def test_partial_order_on_random_triples(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            F = dyadic_ddf(rng, max_jumps=4)
            if rng.integers(0, 2):
                G = ddf_pointwise_max(F, dyadic_ddf(rng, max_jumps=4))
                H = ddf_pointwise_max(G, dyadic_ddf(rng, max_jumps=4))
            else:
                G = dyadic_ddf(rng, max_jumps=4)
                H = dyadic_ddf(rng, max_jumps=4)
            assert ddf_leq(F, F)
            if ddf_leq(F, G) and ddf_leq(G, F):
                assert F.jumps == G.jumps
            if ddf_leq(F, G) and ddf_leq(G, H):
                assert ddf_leq(F, H)


def coarse_ddf(rng: np.random.Generator) -> Ddf:
    """Up to four quarter-mass jumps on the quarter-integer grid in
    [0, 2]: pointwise gaps between two of these repeat across probes."""
    k = int(rng.integers(1, 5))
    locs = rng.choice(np.arange(9) * 0.25, size=k, replace=False)
    return Ddf(tuple((float(loc), 0.25) for loc in locs))


class TestLeqWitness:
    """`ddf_leq_witness` returns what a scalar scan of the comparison
    probes returns, including the first probe among tied largest gaps."""

    def test_tied_gaps_report_the_first_probe(self):
        F = Ddf(((0.25, 0.5), (0.75, 0.5)))
        G = Ddf(((0.5, 0.5), (1.0, 0.5)))
        assert ddf_leq_witness(F, G) == (0.5, 0.375) == leq_witness_loop(F, G)
        assert ddf_leq_witness(F, F) == (0.0, 0.25) == leq_witness_loop(F, F)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           family=st.sampled_from(["dyadic", "ordered", "coarse", "equal"]))
    def test_matches_scalar_scan(self, seed, family):
        rng = np.random.default_rng(seed)
        if family == "coarse":
            F, G = coarse_ddf(rng), coarse_ddf(rng)
        else:
            F, G = dyadic_ddf(rng), dyadic_ddf(rng)
            if family == "ordered":
                G = ddf_pointwise_max(F, G)
            elif family == "equal":
                G = F
        assert ddf_leq_witness(F, G) == leq_witness_loop(F, G)
        assert ddf_leq_witness(G, F) == leq_witness_loop(G, F)


class TestSibleyDistance:
    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            F = dyadic_ddf(rng)
            assert sibley_distance(F, F) <= 2e-9

    def test_step_pair_matches_scan_oracle(self):
        F, G = make_epsilon(0.2), make_epsilon(0.3)
        d = sibley_distance(F, G)
        oracle = sibley_scan(F, G)
        assert abs(d - oracle) <= 2e-4
        assert abs(d - 0.1) <= 1e-8

    def test_symmetric_on_random_pairs(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            F, G = dyadic_ddf(rng), dyadic_ddf(rng)
            assert sibley_distance(F, G) == sibley_distance(G, F)

    def test_metrizes_convergence_of_shrinking_steps(self):
        target = make_epsilon(0.0)
        dists = [sibley_distance(make_epsilon(1.0 / n), target) for n in range(1, 101)]
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.02
        assert abs(dists[0] - 1.0) <= 1e-8


class TestLeftLimitOfInfimum:
    def test_two_steps_give_the_later_one(self):
        out = left_limit_of_infimum([make_epsilon(1.0), make_epsilon(2.0)])
        assert out.jumps == make_epsilon(2.0).jumps

    def test_singleton_is_recovered(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            F = dyadic_ddf(rng)
            assert left_limit_of_infimum([F]).jumps == F.jumps

    def test_identical_members_are_idempotent(self):
        e0 = make_epsilon(0.0)
        assert left_limit_of_infimum([e0, e0]).jumps == e0.jumps

    def test_matches_dense_grid_minimum(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            fam = [dyadic_ddf(rng) for _ in range(int(rng.integers(1, 5)))]
            out = left_limit_of_infimum(fam)
            xs = np.sort(rng.uniform(0.0, 6.0, 400))
            assert np.allclose(out.eval_many(xs), pointwise_min_curve(fam, xs), atol=1e-12)

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidArgumentError):
            left_limit_of_infimum([])


class TestKnotClustering:
    # F and G alternate 0.9e-12 apart: each knot is within the merge
    # tolerance of its neighbour, but a cluster may not grow past 1e-12
    # from its head, so the 2000 knots form 1000 clusters, not one.
    F = Ddf(tuple((2 * k * 0.9e-12, 1e-3) for k in range(1000)))
    G = Ddf(tuple(((2 * k + 1) * 0.9e-12, 1e-3) for k in range(1000)))

    def test_probes_keep_one_cluster_per_pair(self):
        probes = comparison_probes(self.F, self.G)
        assert len(probes) == 2 * 1000
        assert probes[-1] > 1.79e-9

    def test_order_sees_the_alternating_excess(self):
        xs = np.linspace(0.0, 1.8e-9, 20001)
        assert np.max(self.F.eval_many(xs) - self.G.eval_many(xs)) > 1e-3 - 1e-12
        assert not ddf_leq(self.F, self.G)

    def test_infimum_stays_below_both_members(self):
        low = left_limit_of_infimum([self.F, self.G])
        x = 9e-10
        assert low.eval(x) <= min(self.F.eval(x), self.G.eval(x)) + 1e-12
        # Off the probes the two members differ by one jump on regions
        # narrower than the tolerance, which the infimum may not resolve.
        xs = np.linspace(0.0, 2e-9, 20001)
        dense_min = pointwise_min_curve([self.F, self.G], xs)
        assert np.max(np.abs(low.eval_many(xs) - dense_min)) <= 1e-3 + 1e-12


@st.composite
def near_tolerance_family(draw):
    """One to four members whose knots lie on a lattice of step near the
    merge tolerance, so clusters chain across members: the alternating
    0.9e-12 pattern among them."""
    step = draw(st.sampled_from([0.5e-12, 0.9e-12, 1e-12, 1.1e-12]))
    base = draw(st.sampled_from([0.0, 1e-9, 1.0]))
    family = []
    for _ in range(draw(st.integers(1, 4))):
        ks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True))
        mass = draw(st.sampled_from([1.0, 0.75])) / len(ks)
        family.append(Ddf(tuple((base + k * step, mass) for k in ks)))
    return family


class TestClusteredRebuild:
    """`left_limit_of_infimum`, which evaluates each member once over all
    its probes, gives the probe-by-probe loop's jump list exactly."""

    @settings(max_examples=300, deadline=None)
    @given(family=near_tolerance_family())
    def test_infimum_matches_the_probe_loop(self, family):
        assert left_limit_of_infimum(family).jumps == left_limit_of_infimum_loop(family).jumps

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 4))
    def test_infimum_matches_the_probe_loop_on_dyadic_families(self, seed, size):
        rng = np.random.default_rng(seed)
        family = [dyadic_ddf(rng) for _ in range(size)]
        assert left_limit_of_infimum(family).jumps == left_limit_of_infimum_loop(family).jumps

    def test_alternating_pattern(self):
        F, G = TestKnotClustering.F, TestKnotClustering.G
        assert left_limit_of_infimum([F, G]).jumps == left_limit_of_infimum_loop([F, G]).jumps


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            F = dyadic_ddf(rng)
            assert Ddf.from_json(F.to_json()).jumps == F.jumps

    def test_json_is_ascending_pairs(self):
        F = Ddf(((2.0, 0.25), (1.0, 0.5)))
        obj = json.loads(F.to_json())
        assert obj == [[1.0, 0.5], [2.0, 0.25]]

    def test_rejects_unsorted_locations(self):
        with pytest.raises(InvalidArgumentError):
            Ddf.from_json("[[2.0, 0.5], [1.0, 0.25]]")

    def test_rejects_malformed_entries(self):
        with pytest.raises(InvalidArgumentError):
            Ddf.from_json("[[1.0]]")
        with pytest.raises(InvalidArgumentError):
            Ddf.from_json('{"a": 1}')
        with pytest.raises(InvalidArgumentError):
            Ddf.from_json("[[1.0, 0.0]]")


def outcome(construct, pairs):
    """construct(pairs), or the message it raises."""
    try:
        return construct(pairs)
    except InvalidArgumentError as exc:
        return str(exc)


def canonical_form(F: Ddf) -> tuple[tuple, bytes, bytes]:
    return F.jumps, F._locs.tobytes(), F._cums.tobytes()


@st.composite
def raw_jump_lists(draw):
    """Unsorted jump lists with repeated locations and knots 0.9e-12 and
    1.1e-12 apart, whose masses sum to within 1e-12 of 1 or just past it;
    now and then with one invalid entry."""
    loc = draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0]))
    locs = []
    for _ in range(draw(st.integers(1, 8))):
        loc += draw(st.sampled_from([0.0, 0.9e-12, 1.1e-12, 0.25]))
        locs.append(loc)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(locs), max_size=len(locs)))
    total = draw(st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 5e-13, 1.0 + 1e-12, 1.0 + 2e-12]))
    pairs = list(zip(draw(st.permutations(locs)), [m / math.fsum(raw) * total for m in raw]))
    bad = draw(st.sampled_from([None, None, None, (-1e-300, 0.1), (0.5, 0.0), (0.5, -0.1),
                                (math.inf, 0.1), (math.nan, 0.1), (0.5, math.nan)]))
    if bad is not None:
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    return pairs


class TestOnePassConstruction:
    """The constructor gives the former two-pass construction's jumps,
    arrays and messages bit for bit (`helpers.canonical_ddf_ref`), on raw
    lists and on every list the producers hand it."""

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(pairs=raw_jump_lists())
    def test_raw_lists_match_the_two_pass_form(self, pairs):
        assert outcome(lambda p: canonical_form(Ddf(p)), pairs) == outcome(canonical_ddf_ref, pairs)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(family=near_tolerance_family(), seed=st.integers(0, 2 ** 32 - 1),
           c=st.sampled_from([1e-3, 0.5, 1.0 + 2.0 ** -52, 3.0, 1e12]))
    def test_producer_lists_match_the_two_pass_form(self, family, seed, c):
        rng = np.random.default_rng(seed)
        family = family + [dyadic_ddf(rng)]
        seen = []
        post_init = Ddf.__post_init__

        def recording(self):
            seen.append(self.jumps)
            post_init(self)
            seen.append(canonical_form(self))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Ddf, "__post_init__", recording)
            for kind in TNormKind:
                tau_apply(kind, family[0], family[-1])
            left_limit_of_infimum(family)
            for F in family:
                F.scale_locations(c)
        assert len(seen) >= 2 * (len(TNormKind) + 1 + len(family))
        for raw, got in zip(seen[::2], seen[1::2]):
            assert got == canonical_ddf_ref(raw)
