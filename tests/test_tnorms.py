"""Tests for t-norms and the induced triangle functions."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_tau_curve, counting_tau, ddf_pointwise_max, dyadic_ddf,
                     midpoint_scan_tau, tnorm_axioms_loop)
from pnkit import (Ddf, InvalidArgumentError, TNormKind, check_tnorm_axioms,
                   ddf_leq, ddf_leq_witness, make_epsilon, sibley_distance, tau_apply,
                   tnorm_apply)
from pnkit.ddf import _cluster_representatives, comparison_probes, head_probes
from pnkit.tnorms import MAX_PAIR_SUMS, dominance_rows, tnorm_apply_np

ALL_KINDS = (TNormKind.W, TNormKind.PROD, TNormKind.M)

NEAR_TOL_OFFSETS = (0.0, 0.4e-12, 0.6e-12, 0.9e-12, 1.1e-12)


def random_ddf(rng: np.random.Generator, n: int, mass: float = 1.0) -> Ddf:
    """n jumps at uniform locations in [0, 3) with Dirichlet masses
    summing to `mass`; neither is dyadic."""
    locs = np.sort(rng.uniform(0.0, 3.0, n))
    masses = rng.dirichlet(np.ones(n)) * mass
    return Ddf(tuple(zip(locs.tolist(), masses.tolist())))


def near_tolerance_ddf(rng: np.random.Generator, max_jumps: int = 8) -> Ddf:
    """Knots at shared quarter-integer bases, each moved by a signed
    offset near the 1e-12 merge tolerance, so that pair sums of two such
    d.d.f.s fall into clusters of width close to the tolerance."""
    n = int(rng.integers(1, max_jumps + 1))
    bases = rng.integers(0, 6, n) * 0.25
    offsets = rng.choice(NEAR_TOL_OFFSETS, n) * rng.choice((-1.0, 1.0), n)
    locs = np.abs(bases + offsets)
    masses = rng.dirichlet(np.ones(n)) * rng.choice((1.0, float(rng.uniform(0.3, 1.0))))
    return Ddf(tuple(zip(locs.tolist(), masses.tolist())))


def ddf_pair(rng: np.random.Generator, family: str) -> tuple[Ddf, Ddf]:
    if family == "dyadic":
        return dyadic_ddf(rng), dyadic_ddf(rng)
    if family == "random":
        return (random_ddf(rng, int(rng.integers(1, 9))),
                random_ddf(rng, int(rng.integers(1, 9))))
    if family == "sub_probability":
        return (random_ddf(rng, int(rng.integers(1, 9)), float(rng.uniform(0.2, 0.95))),
                random_ddf(rng, int(rng.integers(1, 9)), float(rng.uniform(0.2, 0.95))))
    return near_tolerance_ddf(rng), near_tolerance_ddf(rng)


class TestTnormApply:
    def test_lukasiewicz_value(self):
        assert tnorm_apply(TNormKind.W, 0.7, 0.6) == pytest.approx(0.3, abs=1e-12)

    def test_minimum_value(self):
        assert tnorm_apply(TNormKind.M, 0.4, 0.9) == 0.4

    def test_product_identity(self):
        rng = np.random.default_rng(3)
        for a in rng.uniform(0.0, 1.0, 100):
            assert tnorm_apply(TNormKind.PROD, float(a), 1.0) == float(a)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scalar_form_equals_the_array_form(self, kind):
        grid = [0.0, -0.0, 2.0 ** -30, 0.1, 0.3, 0.5, 0.7, 1.0 - 2.0 ** -53, 1.0]
        a, b = np.meshgrid(grid, grid)
        table = tnorm_apply_np(kind, a, b)
        for (i, j), value in np.ndenumerate(table):
            assert tnorm_apply(kind, a[i, j], b[i, j]) == value

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(InvalidArgumentError, match="unknown t-norm kind 'X'"):
            tnorm_apply("X", 0.5, 0.5)
        with pytest.raises(InvalidArgumentError, match="unknown t-norm kind 'X'"):
            tau_apply("X", make_epsilon(0.5), make_epsilon(0.5))

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(InvalidArgumentError):
                tnorm_apply(TNormKind.M, bad, 0.5)
            with pytest.raises(InvalidArgumentError):
                tnorm_apply(TNormKind.M, 0.5, bad)


class TestAxiomChecks:
    def test_minimum_is_exact_on_seeded_triples(self):
        rng = np.random.default_rng(5)
        report = check_tnorm_axioms(TNormKind.M, rng.uniform(0.0, 1.0, (1000, 3)))
        assert report.passed
        assert report.commutativity == 0.0
        assert report.associativity == 0.0

    def test_lukasiewicz_half_triple_associates_exactly(self):
        report = check_tnorm_axioms(TNormKind.W, [(0.5, 0.5, 0.5)])
        assert report.associativity == 0.0

    def test_product_identity_residual_zero(self):
        rng = np.random.default_rng(7)
        report = check_tnorm_axioms(TNormKind.PROD, rng.uniform(0.0, 1.0, (100, 3)))
        assert report.identity == 0.0
        assert report.passed

    def test_rejects_samples_that_are_not_triples(self):
        with pytest.raises(InvalidArgumentError, match=r"triples, got an array of shape \(1, 2\)"):
            check_tnorm_axioms(TNormKind.M, [(0.5, 0.5)])

    def test_rejects_samples_outside_unit_cube(self):
        with pytest.raises(InvalidArgumentError):
            check_tnorm_axioms(TNormKind.M, [(0.5, 1.5, 0.5)])

    # Quarters give exact ties and exact T values; -0.0 passes the range check.
    unit_value = st.one_of(st.floats(0.0, 1.0), st.integers(0, 4).map(lambda k: k / 4),
                           st.just(-0.0))

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS),
           samples=st.lists(st.tuples(unit_value, unit_value, unit_value), max_size=20))
    def test_matches_the_scalar_loop(self, kind, samples):
        want = repr(tnorm_axioms_loop(kind, samples))
        assert repr(check_tnorm_axioms(kind, samples).to_json_obj()) == want
        assert repr(check_tnorm_axioms(kind, np.array(samples).reshape(-1, 3)).to_json_obj()) == want

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(st.tuples(*(st.one_of(st.floats(-0.5, 1.5), st.just(np.nan)),) * 3),
                            min_size=1, max_size=6))
    def test_refuses_the_first_bad_value_as_the_loop_does(self, samples):
        try:
            tnorm_axioms_loop(TNormKind.M, samples)
        except InvalidArgumentError as exc:
            with pytest.raises(InvalidArgumentError) as got:
                check_tnorm_axioms(TNormKind.M, samples)
            assert str(got.value) == str(exc)
        else:
            check_tnorm_axioms(TNormKind.M, samples)


class TestTauMatchesMidpointScan:
    """The running-maximum `tau_apply` gives the same jump list, bit for
    bit, as the per-knot midpoint scan run in exact arithmetic."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(ALL_KINDS),
           family=st.sampled_from(["dyadic", "random", "sub_probability", "near_tolerance"]))
    def test_identical_jumps(self, seed, kind, family):
        F, G = ddf_pair(np.random.default_rng(seed), family)
        assert tau_apply(kind, F, G).jumps == midpoint_scan_tau(kind, F, G).jumps

    @pytest.mark.parametrize("seed, kind", [
        (8086, TNormKind.W), (560, TNormKind.PROD), (2021, TNormKind.M)])
    def test_sub_ulp_corners(self, seed, kind):
        # Near-tolerance pairs where a float midpoint scan goes wrong: a
        # split piece narrower than one unit in the last place (8086), or
        # a pair sum below a probe that rounds up onto it (560, 2021).
        F, G = ddf_pair(np.random.default_rng(seed), "near_tolerance")
        assert tau_apply(kind, F, G).jumps == midpoint_scan_tau(kind, F, G).jumps

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identical_jumps_at_32(self, kind):
        rng = np.random.default_rng(41)
        F, G = random_ddf(rng, 32), random_ddf(rng, 32, mass=0.75)
        out = tau_apply(kind, F, G)
        assert len(out.jumps) > 32
        assert out.jumps == midpoint_scan_tau(kind, F, G).jumps


class TestTauMatchesTheCountingRule:
    """`tau_apply` against `counting_tau` where the midpoint scan cannot
    go: knots near the float maximum, where midpoints overflow to +inf,
    and adjacent floats above 8192, which lie more than 1e-12 apart."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(ALL_KINDS),
           family=st.sampled_from(["near_max", "adjacent_floats"]))
    def test_identical_jumps(self, seed, kind, family):
        rng = np.random.default_rng(seed)
        if family == "near_max":
            F, G = (random_ddf(rng, int(rng.integers(1, 6))).scale_locations(5e307)
                    for _ in range(2))
        else:
            ulp = np.spacing(8192.0)
            F = Ddf(tuple((8192.0 + float(k) * ulp, 0.25) for k in rng.choice(40, 4, False)))
            G = Ddf(tuple((float(k) * ulp * 0.75, 1 / 3) for k in rng.choice(40, 3, False)))
        assert tau_apply(kind, F, G).jumps == counting_tau(kind, F, G).jumps

    def test_a_sum_rounded_up_onto_the_next_cluster_counts_below_its_probe(self):
        # The midpoint between two heads one float apart rounds up onto
        # the second, where sums rounded up from below it still count.
        F = Ddf(((8192.000000000007, 0.5), (8192.00000000007, 0.5)))
        G = Ddf(((2.0463630789890885e-11, 1 / 3), (2.319211489520967e-11, 1 / 3),
                 (2.4556356947869062e-11, 1 / 3)))
        out = tau_apply(TNormKind.M, F, G)
        assert out.jumps == midpoint_scan_tau(TNormKind.M, F, G).jumps
        assert out.jumps == counting_tau(TNormKind.M, F, G).jumps


class TestDominanceRows:
    def test_probes_near_the_float_maximum_read_past_their_knots(self):
        # The midpoint of 9e307 and 1e308 would overflow, and 1e308 + 1
        # rounds back to 1e308: the probes are 9.5e307 and the float after
        # 1e308, and the second reads both totals.
        F, G, H = Ddf(((0.5, 0.25),)), make_epsilon(0.0), Ddf(((0.9e308, 0.5), (1.0e308, 0.5)))
        gaps, xs = dominance_rows(TNormKind.M, *((D._locs[None], D._cums[None]) for D in (F, G, H)),
                                  tau_below=False)
        want = ddf_leq_witness(H, tau_apply(TNormKind.M, F, G))
        assert (float(gaps[0]), float(xs[0])) == want == (0.75, math.nextafter(1.0e308, math.inf))
        assert comparison_probes(H) == [0.9e308, 0.95e308, 1.0e308, math.nextafter(1.0e308, math.inf)]


class TestProbeRule:
    """One probe rule for `ddf` and `tnorms`: between heads a and b,
    (a + b) / 2 where finite, else a / 2 + b / 2; past the last head r,
    r + 1.0 where it exceeds r, else the next float above r."""

    def test_a_sum_past_two_to_the_53_keeps_its_jump(self):
        # 1 + 1e16 rounds to 1e16, and 1e16 + 1.0 rounds back to 1e16.
        assert tau_apply(TNormKind.M, Ddf(((1.0, 1.0),)), Ddf(((1e16, 1.0),))).jumps \
            == ((1e16, 1.0),)

    def test_the_identity_keeps_knots_whose_midpoint_overflows(self):
        F = Ddf(((0.9e308, 0.5), (1.0e308, 0.5)))
        assert tau_apply(TNormKind.M, F, make_epsilon(0.0)).jumps == F.jumps

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 4.0), st.floats(2.0 ** 52, 2.0 ** 54),
                              st.floats(1e300, sys.float_info.max)), min_size=1, max_size=6))
    def test_every_finite_probe_past_its_head_stays(self, knots):
        heads = _cluster_representatives(sorted(knots))
        probes = head_probes(np.array(heads), np.arange(len(heads)) == len(heads) - 1).tolist()
        old = [(a + b) / 2.0 for a, b in zip(heads, heads[1:])] + [heads[-1] + 1.0]
        for k, (head, probe, was) in enumerate(zip(heads, probes, old)):
            assert head <= probe <= (heads + [math.inf])[k + 1]
            assert math.isfinite(probe) or head == sys.float_info.max
            if math.isfinite(was) and was > head:
                assert probe == was


class TestPairSumBudget:
    def test_oversized_inputs_are_refused(self):
        n = 1100
        assert n * n > MAX_PAIR_SUMS
        F = Ddf(tuple((k * 1e-3, 1.0 / n) for k in range(n)))
        with pytest.raises(InvalidArgumentError, match="1100-jump and 1100-jump"):
            tau_apply(TNormKind.M, F, F)

    def test_cli_exits_2_on_oversized_inputs(self, tmp_path, capsys):
        from pnkit.cli import main
        n = 1100
        path = tmp_path / "f.json"
        path.write_text(Ddf(tuple((k * 1e-3, 1.0 / n) for k in range(n))).to_json())
        assert main(["tau", "--tnorm", "W", "--f", f"@{path}", "--g", f"@{path}"]) == 2
        err = capsys.readouterr().err
        assert "1100-jump and 1100-jump" in err
        assert "Traceback" not in err


class TestTauOnSteps:
    def test_minimum_adds_step_locations(self):
        out = tau_apply(TNormKind.M, make_epsilon(0.2), make_epsilon(0.3))
        assert out.jumps == make_epsilon(0.2 + 0.3).jumps
        # Independent confirmation on a dense split grid.
        xs = np.linspace(1e-3, 2.0, 2000)
        bf = brute_force_tau_curve(TNormKind.M, make_epsilon(0.2), make_epsilon(0.3),
                                   xs, u_count=1000)
        cell = 2.0 * xs / 1000
        for x, v, c in zip(xs, bf, cell):
            assert out.eval(max(x - c, 0.0)) - 1e-12 <= v <= out.eval(x) + 1e-12

    def test_unit_step_at_zero_is_identity(self):
        rng = np.random.default_rng(11)
        e0 = make_epsilon(0.0)
        for kind in ALL_KINDS:
            for _ in range(20):
                F = dyadic_ddf(rng)
                assert tau_apply(kind, e0, F).jumps == F.jumps
                assert tau_apply(kind, F, e0).jumps == F.jumps

    def test_half_mass_self_convolution(self):
        F = Ddf(((1.0, 0.5),))
        assert tau_apply(TNormKind.W, F, F).jumps == ()
        assert tau_apply(TNormKind.M, F, F).jumps == ((2.0, 0.5),)

    def test_empty_input_absorbs(self):
        F = Ddf(())
        G = dyadic_ddf(np.random.default_rng(13))
        for kind in ALL_KINDS:
            assert tau_apply(kind, F, G).jumps == ()

    def test_commutative_exact(self):
        rng = np.random.default_rng(17)
        for kind in ALL_KINDS:
            for _ in range(30):
                F, G = dyadic_ddf(rng), dyadic_ddf(rng)
                assert tau_apply(kind, F, G).jumps == tau_apply(kind, G, F).jumps

    def test_kind_ordering_pointwise(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            F, G = dyadic_ddf(rng, max_jumps=5), dyadic_ddf(rng, max_jumps=5)
            w = tau_apply(TNormKind.W, F, G)
            p = tau_apply(TNormKind.PROD, F, G)
            m = tau_apply(TNormKind.M, F, G)
            assert ddf_leq(w, p, atol=0.0)
            assert ddf_leq(p, m, atol=0.0)

    def test_minimum_associates_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            F = dyadic_ddf(rng, max_jumps=5)
            G = dyadic_ddf(rng, max_jumps=5)
            H = dyadic_ddf(rng, max_jumps=5)
            left = tau_apply(TNormKind.M, tau_apply(TNormKind.M, F, G), H)
            right = tau_apply(TNormKind.M, F, tau_apply(TNormKind.M, G, H))
            assert len(left.jumps) == len(right.jumps)
            for (l1, m1), (l2, m2) in zip(left.jumps, right.jumps):
                assert abs(l1 - l2) <= 1e-12
                assert abs(m1 - m2) <= 1e-12

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            F = dyadic_ddf(rng, max_jumps=4)
            G = dyadic_ddf(rng, max_jumps=4)
            bigger = ddf_pointwise_max(F, dyadic_ddf(rng, max_jumps=4))
            kind = ALL_KINDS[int(rng.integers(0, 3))]
            assert ddf_leq(tau_apply(kind, F, G), tau_apply(kind, bigger, G), atol=0.0)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for kind in ALL_KINDS:
            for _ in range(10):
                F, G = dyadic_ddf(rng, max_jumps=5), dyadic_ddf(rng, max_jumps=5)
                span = F.jumps[-1][0] + G.jumps[-1][0] + 1.0
                xs = np.linspace(span / 64, span, 64)
                bf = brute_force_tau_curve(kind, F, G, xs, u_count=2048)
                exact = tau_apply(kind, F, G)
                cell = span / 64
                for x, v in zip(xs, bf):
                    assert exact.eval(max(x - cell, 0.0)) - 1e-12 <= v <= exact.eval(x) + 1e-12

    def test_weak_continuity_in_first_argument(self):
        # Shrinking steps converge to the identity element; the induced
        # outputs must converge weakly to the other operand.
        rng = np.random.default_rng(37)
        G = dyadic_ddf(rng, max_jumps=4, full_mass=True)
        dists = [sibley_distance(tau_apply(TNormKind.M, make_epsilon(1.0 / n), G), G)
                 for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 1.0 / 64 + 1e-8
