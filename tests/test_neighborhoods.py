"""Tests for strong neighborhoods, diameter, and continuity testing."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (continuity_scan_oracle, dyadic_ddf, pointwise_min_curve,
                     step_ball_confirmation_ref)
from pnkit import (Ddf, InvalidArgumentError, PiecewiseMap1D, Piece, PnSpace,
                   PointSet, TNormKind,
                   check_pairwise_image_separation, constant_map, ddf_leq,
                   default_tprime_schedule, in_strong_neighborhood,
                   make_epsilon, prob_diameter, prob_norm,
                   strong_t_continuity_test)
from pnkit.cli import ScenarioFamily, generate_scenarios
from pnkit.ddf import GENERATOR_MASS_TOL

thresholds = st.one_of(st.floats(min_value=1e-15, max_value=3.0),
                       st.sampled_from([0.5, 1.0, float(np.nextafter(1.0, 2.0)), 2.0]))


class TestPointSet:
    def test_deduplicates_preserving_order(self):
        A = PointSet(((1.0,), (2.0,), (1.0,)))
        assert A.points == ((1.0,), (2.0,))

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            PointSet(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InvalidArgumentError):
            PointSet(((1.0,), (1.0, 2.0)))


class TestStrongNeighborhood:
    def test_threshold_against_distance(self):
        sp = PnSpace(dimension=1)
        assert in_strong_neighborhood(sp, (0.0,), 0.3, (0.2,))
        assert not in_strong_neighborhood(sp, (0.0,), 0.3, (0.4,))

    def test_large_threshold_contains_everything(self):
        sp = PnSpace(dimension=1)
        for q in (0.0, 0.5, 100.0):
            assert in_strong_neighborhood(sp, (0.0,), 1.5, (q,))

    def test_center_always_member(self):
        sp = PnSpace(dimension=2)
        p = (0.3, -0.4)
        for t in (1e-6, 0.5, 2.0):
            assert in_strong_neighborhood(sp, p, t, p)

    def test_rejects_nonpositive_threshold(self):
        sp = PnSpace(dimension=1)
        with pytest.raises(InvalidArgumentError):
            in_strong_neighborhood(sp, (0.0,), 0.0, (0.1,))

    def test_center_is_a_member_down_to_the_threshold_bound(self):
        # 1 - 2**-54 rounds to 1, so no point, not even p, would be a member.
        sp = PnSpace(dimension=2)
        p = (0.3, -0.4)
        assert in_strong_neighborhood(sp, p, 2.0 ** -53, p)
        for t in (2.0 ** -54, -1.0, float("nan")):
            with pytest.raises(InvalidArgumentError, match=r"threshold must exceed 2\*\*-54"):
                in_strong_neighborhood(sp, p, t, p)

    def test_nested_in_threshold(self):
        sp = PnSpace(dimension=1)
        rng = np.random.default_rng(3)
        lattice = [(float(x),) for x in np.linspace(0.0, 1.0, 101)]
        for _ in range(50):
            p = (float(rng.uniform(0.0, 1.0)),)
            t1, t2 = sorted(rng.uniform(0.05, 1.0, 2))
            for q in lattice:
                if in_strong_neighborhood(sp, p, t1, q):
                    assert in_strong_neighborhood(sp, p, t2, q)


class TestProbDiameter:
    def test_singleton_at_origin(self):
        sp = PnSpace(dimension=1)
        assert prob_diameter(sp, PointSet(((0.0,),))).jumps == make_epsilon(0.0).jumps

    def test_pair_takes_larger_norm(self):
        sp = PnSpace(dimension=1)
        A = PointSet(((1.0,), (2.0,)))
        assert prob_diameter(sp, A).jumps == make_epsilon(2.0).jumps

    def test_dominated_by_every_member_profile(self):
        rng = np.random.default_rng(5)
        gen = Ddf(((0.5, 0.5), (1.5, 0.5)))
        sp = PnSpace(dimension=2, generator=gen)
        for _ in range(50):
            pts = tuple(tuple(rng.standard_normal(2)) for _ in range(int(rng.integers(1, 8))))
            A = PointSet(pts)
            R = prob_diameter(sp, A)
            for p in A.points:
                assert ddf_leq(R, prob_norm(sp, p))

    def test_antitone_under_set_growth(self):
        rng = np.random.default_rng(7)
        sp = PnSpace(dimension=1)
        for _ in range(30):
            small = tuple((float(x),) for x in rng.uniform(0.0, 2.0, 4))
            extra = tuple((float(x),) for x in rng.uniform(0.0, 2.0, 3))
            R_small = prob_diameter(sp, PointSet(small))
            R_big = prob_diameter(sp, PointSet(small + extra))
            assert ddf_leq(R_big, R_small)

    def test_matches_dense_minimum_of_profiles(self):
        rng = np.random.default_rng(9)
        gen = Ddf(((0.25, 0.25), (1.0, 0.75)))
        sp = PnSpace(dimension=1, generator=gen)
        pts = tuple((float(x),) for x in rng.uniform(0.1, 2.0, 5))
        R = prob_diameter(sp, PointSet(pts))
        profiles = [prob_norm(sp, p) for p in pts]
        xs = np.sort(rng.uniform(0.0, 5.0, 300))
        assert np.allclose(R.eval_many(xs), pointwise_min_curve(profiles, xs), atol=1e-12)


class TestContinuityScan:
    def test_concentrated_constant_map_witnesses_everywhere(self):
        sp = PnSpace(dimension=1)
        m = constant_map((0.0, 1.0), 0.1)
        sample = PointSet(tuple((float(x),) for x in np.linspace(0.0, 1.0, 9)))
        report = strong_t_continuity_test(sp, m, sample, t=0.5)
        assert report.passed
        assert all(e.witness_tprime == 0.5 for e in report.entries)

    def test_distant_constant_map_inconclusive(self):
        sp = PnSpace(dimension=1)
        m = constant_map((0.0, 1.0), 0.9)
        sample = PointSet(((0.2,), (0.9,)))
        report = strong_t_continuity_test(sp, m, sample, t=0.5)
        assert not report.passed
        assert all(e.witness_tprime is None for e in report.entries)

    def test_identity_needs_shrunk_neighborhoods(self):
        # Identity on a wide interval, samples near the origin: the
        # image supremum is |p| + t', so witnesses need |p| + t' < t.
        sp = PnSpace(dimension=1)
        m = PiecewiseMap1D(domain=(-1.0, 1.0), pieces=(Piece(-1.0, 1.0, "left", 1.0, 0.0),))
        sample = PointSet(((0.0,), (0.05,), (-0.1,)))
        report = strong_t_continuity_test(sp, m, sample, t=0.5)
        assert report.passed
        for entry in report.entries:
            assert entry.witness_tprime is not None
            assert entry.witness_tprime <= 0.4
            assert abs(entry.point[0]) + entry.witness_tprime < 0.5

    def test_schedule_validation(self):
        sp = PnSpace(dimension=1)
        m = constant_map((0.0, 1.0), 0.1)
        sample = PointSet(((0.5,),))
        with pytest.raises(InvalidArgumentError):
            strong_t_continuity_test(sp, m, sample, t=0.0)
        with pytest.raises(InvalidArgumentError):
            strong_t_continuity_test(sp, m, sample, t=0.5, tprime_schedule=())
        with pytest.raises(InvalidArgumentError):
            strong_t_continuity_test(sp, m, sample, t=0.5, tprime_schedule=(0.1, 0.2))

    def test_report_json_shape(self):
        sp = PnSpace(dimension=1)
        m = constant_map((0.0, 1.0), 0.1)
        report = strong_t_continuity_test(sp, m, PointSet(((0.5,),)), t=0.5)
        obj = report.to_json_obj()
        assert set(obj) == {"t", "points", "pass"}
        assert obj["points"][0]["p"] == [0.5]
        assert obj["pass"] is True

    def test_default_schedule_descends_from_t(self):
        sched = default_tprime_schedule(0.5)
        assert len(sched) == 21
        assert sched[0] == 0.5
        assert all(b < a for a, b in zip(sched, sched[1:]))

    def test_lattice_only_route_for_sampled_maps(self):
        from pnkit import SampledMap
        sp = PnSpace(dimension=1)
        concentrated = SampledMap.from_function(lambda p: (0.1,), ((0.0, 1.0),), 1.0 / 64)
        sample = PointSet(((0.25,), (0.75,)))
        assert strong_t_continuity_test(sp, concentrated, sample, t=0.5).passed
        distant = SampledMap.from_function(lambda p: (0.9,), ((0.0, 1.0),), 1.0 / 64)
        assert not strong_t_continuity_test(sp, distant, sample, t=0.5).passed

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(
               ["constant", "affine", "sampled_1d", "sampled_2d"]),
           single_step=st.booleans(), t=st.one_of(st.floats(min_value=0.05, max_value=1.5),
                                                  st.sampled_from([0.25, 0.5, 1.0])))
    def test_matches_per_point_oracle(self, seed, kind, single_step, t):
        from pnkit import SampledMap
        rng = np.random.default_rng(seed)
        gen = dyadic_ddf(rng, max_jumps=1 if single_step else 4, full_mass=True)
        dim = 2 if kind == "sampled_2d" else 1
        sp = PnSpace(dimension=dim, generator=gen)
        if kind in ("constant", "affine"):
            m = generate_scenarios(ScenarioFamily(count=1, pieces=(1, 4), kind=kind),
                                   int(rng.integers(2 ** 31)))[0]
        else:
            images = rng.uniform(0.0, 1.0, (9 ** dim, dim))
            m = SampledMap(box=((0.0, 1.0),) * dim, resolution=0.125,
                           images=tuple(map(tuple, images)))
        points = tuple(tuple(float(c) for c in rng.uniform(0.0, 1.0, dim)) for _ in range(3))
        report = strong_t_continuity_test(sp, m, PointSet(points), t, probe_budget=25)
        assert [e.witness_tprime for e in report.entries] == \
            continuity_scan_oracle(sp, m, points, t, probe_budget=25)


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["constant", "affine"]),
           loc=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.9]),
                         st.floats(min_value=0.0, max_value=4.0)),
           short=st.sampled_from([0.0, 0.0, 1e-12, GENERATOR_MASS_TOL / 2]),
           t=thresholds, tprime=thresholds)
    def test_ball_confirmation_matches_the_step_reference(self, seed, kind, loc, short,
                                                           t, tprime):
        # The reference assumes a full step: the two agree wherever 1 - t and
        # 1 - t' round below the step's mass.
        sp = PnSpace(dimension=1, generator=Ddf(((loc, 1.0 - short),)))
        assume(1.0 - t < sp.generator.total_mass and 1.0 - tprime < sp.generator.total_mass)
        m = generate_scenarios(ScenarioFamily(count=1, pieces=(1, 4), kind=kind), seed)[0]
        p = float(np.random.default_rng(seed).uniform(*m.domain))
        report = strong_t_continuity_test(sp, m, PointSet(((p,),)), t, tprime_schedule=(tprime,))
        assert ((report.entries[0].witness_tprime == tprime)
                is step_ball_confirmation_ref(sp, m, p, tprime, t))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["constant", "affine"]),
           jumps=st.integers(1, 3), t=st.one_of(st.floats(min_value=0.05, max_value=1.5),
                                                st.sampled_from([0.25, 0.5, 1.0])))
    def test_piecewise_scan_matches_the_oracle_under_every_generator(self, seed, kind, jumps, t):
        # Sample points on breakpoints and the right domain end as well: a
        # closed ball about a breakpoint holds both one-sided values.
        rng = np.random.default_rng(seed)
        sp = PnSpace(dimension=1, generator=dyadic_ddf(rng, max_jumps=jumps, full_mass=True))
        m = generate_scenarios(ScenarioFamily(count=1, pieces=(1, 4), kind=kind),
                               int(rng.integers(2 ** 31)))[0]
        points = tuple((x,) for x in (*m.breakpoints[:2], m.domain[1],
                                      float(rng.uniform(*m.domain))))
        report = strong_t_continuity_test(sp, m, PointSet(points), t, probe_budget=25)
        assert [e.witness_tprime for e in report.entries] == \
            continuity_scan_oracle(sp, m, points, t, probe_budget=25)

    @pytest.mark.parametrize("generator, witnesses", [
        (((1.5, 1.0),), [None, 2.0 ** -10]),
        (((1.5, 0.5), (2.5, 0.5)), [None, 2.0 ** -9]),
    ])
    def test_a_ball_about_a_jump_is_refused_under_every_generator(self, generator, witnesses):
        # Every ball about 0.3 holds points with |f| = 0.6, above t / a(t)
        # (1/3 and 0.2); 512 lattice probes missed them under the 2-jump generator.
        sp = PnSpace(dimension=1, generator=Ddf(generator))
        m = PiecewiseMap1D(domain=(0.0, 1.0), pieces=(Piece(0.0, 0.3, "left", 0.0, 0.6),
                                                       Piece(0.3, 1.0, "left", 0.0, 0.1)))
        report = strong_t_continuity_test(sp, m, PointSet(((0.3,), (0.301,))), 0.5,
                                          probe_budget=512)
        assert [e.witness_tprime for e in report.entries] == witnesses
        assert not report.passed

    def test_piecewise_scan_builds_no_lattice(self, monkeypatch):
        import pnkit.neighborhoods as nb
        m = constant_map((0.0, 1.0), 0.1)
        monkeypatch.setattr(nb, "lattice_nodes", None)
        monkeypatch.setattr(PiecewiseMap1D, "eval_points", None)
        report = strong_t_continuity_test(PnSpace(dimension=1), m, PointSet(((0.5,),)), 0.5)
        assert report.passed


class TestPairwiseSeparation:
    def test_constant_map_has_null_differences(self):
        sp = PnSpace(dimension=1)
        m = constant_map((0.0, 1.0), 0.1)
        sample = PointSet(((0.1,), (0.6,)))
        report = strong_t_continuity_test(sp, m, sample, t=0.5)
        pairs = [((0.1,), (0.6,)), ((0.2,), (0.9,))]
        out = check_pairwise_image_separation(sp, m, pairs, 0.5, report)
        assert out.passed
        assert out.checked == 2

    def test_certified_map_with_separated_images_reports_the_violation(self):
        # Images -0.4 and 0.4 both lie within 0.5 of the origin, so the
        # scan certifies the map at t = 0.5; their difference 0.8 does not.
        sp = PnSpace(dimension=1)
        m = PiecewiseMap1D(domain=(-1.0, 1.0), pieces=(Piece(-1.0, 0.0, "left", 0.0, -0.4),
                                                       Piece(0.0, 1.0, "left", 0.0, 0.4)))
        report = strong_t_continuity_test(sp, m, PointSet(((-0.5,), (0.0,), (0.5,))), t=0.5)
        assert report.passed
        out = check_pairwise_image_separation(sp, m, [((-0.5,), (0.5,)), ((0.25,), (0.5,))],
                                              0.5, report)
        assert out.to_json_obj() == {"t": 0.5, "checked": 2, "passed": False, "violations": [
            {"p": [-0.5], "q": [0.5], "value": 0.0}]}

    def test_rejects_a_map_of_another_dimension(self):
        m = constant_map((0.0, 1.0), 0.1)
        report = strong_t_continuity_test(PnSpace(dimension=1), m, PointSet(((0.5,),)), t=0.5)
        with pytest.raises(InvalidArgumentError, match="map and space dimensions must agree"):
            check_pairwise_image_separation(PnSpace(dimension=2), m, [((0.0,), (1.0,))], 0.5,
                                            report)

    def test_requires_minimum_tnorm(self):
        sp = PnSpace(dimension=1, tau=TNormKind.W)
        m = constant_map((0.0, 1.0), 0.1)
        report = strong_t_continuity_test(
            PnSpace(dimension=1), m, PointSet(((0.5,),)), t=0.5)
        with pytest.raises(InvalidArgumentError):
            check_pairwise_image_separation(sp, m, [((0.0,), (1.0,))], 0.5, report)

    def test_rejects_uncertified_map(self):
        sp = PnSpace(dimension=1)
        m = constant_map((0.0, 1.0), 0.9)
        report = strong_t_continuity_test(sp, m, PointSet(((0.5,),)), t=0.5)
        assert not report.passed
        with pytest.raises(InvalidArgumentError):
            check_pairwise_image_separation(sp, m, [((0.0,), (1.0,))], 0.5, report)

    def test_rejects_threshold_mismatch_and_equal_pairs(self):
        sp = PnSpace(dimension=1)
        m = constant_map((0.0, 1.0), 0.1)
        report = strong_t_continuity_test(sp, m, PointSet(((0.5,),)), t=0.5)
        with pytest.raises(InvalidArgumentError):
            check_pairwise_image_separation(sp, m, [((0.0,), (1.0,))], 0.4, report)
        with pytest.raises(InvalidArgumentError):
            check_pairwise_image_separation(sp, m, [((0.5,), (0.5,))], 0.5, report)
