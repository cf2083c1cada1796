"""Tests for the command-line runner and scenario generator."""

import hashlib
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnkit import SampledMap, TheoremViolationError, kakutani_search
from pnkit.cli import (ScenarioFamily, generate_scenarios, load_config, main,
                       parse_config, parse_ddf_spec, run_verify, write_csv,
                       write_report)
from pnkit.errors import InvalidArgumentError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

JUMP_CONFIG = {
    "space": {"dimension": 1, "generator": [[1.0, 1.0]], "tau": "M", "tau_star": "M"},
    "map": {"domain": [0.0, 1.0], "pieces": [
        {"from": 0.0, "to": 0.5, "closed": "left", "affine": [0.0, 0.6]},
        {"from": 0.5, "to": 1.0, "closed": "left", "affine": [0.0, 0.2]},
    ]},
    "schedules": {"t_grid": {"count": 64, "max": 1.0}},
    "seed": 42,
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(JUMP_CONFIG))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestDdfSpecs:
    def test_eps_and_inline_and_file(self, tmp_path):
        assert parse_ddf_spec("eps:0.25").jumps == ((0.25, 1.0),)
        assert parse_ddf_spec("[[0.5, 1.0]]").jumps == ((0.5, 1.0),)
        p = tmp_path / "f.json"
        p.write_text("[[0.5, 0.5], [1.0, 0.5]]")
        assert parse_ddf_spec(f"@{p}").jumps == ((0.5, 0.5), (1.0, 0.5))

    @pytest.mark.parametrize("argv, spec", [
        (["tau", "--tnorm", "M", "--f", "eps:abc", "--g", "eps:0.3"], "eps:abc"),
        (["ddf", "--f", "eps:0.5", "--sibley", "eps:zz"], "eps:zz"),
    ])
    def test_malformed_eps_is_validation_error(self, capsys, argv, spec):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"d.d.f. spec '{spec}': could not convert" in err
        assert "Traceback" not in err


class TestScenarioGeneration:
    def test_deterministic_under_seed(self):
        fam = ScenarioFamily(count=5, pieces=(1, 5))
        a = [m.to_json_obj() for m in generate_scenarios(fam, 42)]
        b = [m.to_json_obj() for m in generate_scenarios(fam, 42)]
        assert a == b
        c = [m.to_json_obj() for m in generate_scenarios(fam, 43)]
        assert a != c

    def test_single_piece_family_is_continuous(self, unit_space):
        from pnkit import discontinuity_exact, make_epsilon
        fam = ScenarioFamily(count=10, pieces=(1, 1))
        for m in generate_scenarios(fam, 7):
            assert discontinuity_exact(unit_space, m).jumps == make_epsilon(0.0).jumps

    def test_generated_maps_satisfy_invariants(self):
        fam = ScenarioFamily(count=100, pieces=(1, 5))
        maps = generate_scenarios(fam, 11)
        assert len(maps) == 100
        for m in maps:
            assert 1 <= len(m.pieces) <= 5
            gaps = [b - a for a, b in zip((m.domain[0],) + m.breakpoints,
                                          m.breakpoints + (m.domain[1],))]
            assert min(gaps) >= 0.01

    def test_affine_kind_stays_inside_domain(self):
        fam = ScenarioFamily(count=20, pieces=(1, 4), kind="affine")
        for m in generate_scenarios(fam, 13):
            for p in m.pieces:
                for x in (p.lo, p.hi):
                    assert -1e-12 <= p.value(x) <= 1.0 + 1e-12

    def test_infeasible_separation_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ScenarioFamily(count=1, pieces=(1, 200), domain=(0.0, 1.0))

    def test_a_piece_count_beyond_the_float_range_is_refused(self):
        with pytest.raises(InvalidArgumentError,
                           match=r"^scenarios\.pieces: int too large to convert to float$"):
            ScenarioFamily(count=1, pieces=(1, 10 ** 400))


class TestSubcommands:
    def test_tau_prints_summed_step(self, capsys):
        assert main(["tau", "--tnorm", "M", "--f", "eps:0.2", "--g", "eps:0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 1
        assert out[0][0] == pytest.approx(0.5, abs=1e-12)
        assert out[0][1] == 1.0

    def test_ddf_eval_and_compare(self, capsys):
        code = main(["ddf", "--f", "eps:0.5", "--at", "0.5", "--at", "0.7",
                     "--leq", "eps:0.2", "--sibley", "eps:0.2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["evals"] == [{"x": 0.5, "value": 0.0}, {"x": 0.7, "value": 1.0}]
        assert out["leq"] is True
        assert out["sibley_distance"] == pytest.approx(0.3, abs=1e-8)

    def test_check_axioms(self, tmp_path, capsys):
        path = write_config(tmp_path, {"space": {"dimension": 3}, "pairs": 50})
        assert main(["check-axioms", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_passed"] is True
        assert [r["axiom"] for r in out["results"]] == ["N1", "N2", "N3", "N4"]

    def test_diameter(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["diameter", "--config", str(path), "--points", "[[1.0], [2.0]]"]) == 0
        assert json.loads(capsys.readouterr().out) == [[2.0, 1.0]]

    def test_continuity(self, tmp_path, capsys):
        cfg = {"map": {"domain": [0.0, 1.0], "pieces": [
                  {"from": 0.0, "to": 1.0, "closed": "left", "affine": [0.0, 0.1]}]},
               "t": 0.5, "sample": {"count": 5}}
        path = write_config(tmp_path, cfg)
        assert main(["continuity", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True
        assert len(out["points"]) == 5

    def test_continuity_sample_count_on_a_planar_map(self, tmp_path, capsys):
        m = SampledMap.from_function(lambda p: (p[0] / 2, p[1] / 2), ((0.0, 1.0), (0.0, 1.0)), 0.25)
        cfg = {"space": {"dimension": 2, "generator": [[1.0, 1.0]], "tau": "M", "tau_star": "M"},
               "map": {"sampled": m.to_json_obj()}, "t": 0.5}
        path = write_config(tmp_path, dict(cfg, sample={"count": 5}))
        assert main(["continuity", "--config", str(path)]) == 0
        by_count = json.loads(capsys.readouterr().out)
        lattice = [[i / 4, j / 4] for i in range(5) for j in range(5)]
        assert [pt["p"] for pt in by_count["points"]] == lattice
        path = write_config(tmp_path, dict(cfg, sample={"points": lattice}), name="points.json")
        assert main(["continuity", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == by_count

    def test_continuity_sample_lattice_over_budget_is_refused(self, tmp_path, capsys):
        # 1025 ** 2 nodes exceed MAX_GRID_NODES = 1024 ** 2; nothing is built.
        m = SampledMap.from_function(lambda p: p, ((0.0, 1.0), (0.0, 1.0)), 0.5)
        path = write_config(tmp_path, {"space": {"dimension": 2}, "map": {"sampled": m.to_json_obj()},
                                       "sample": {"count": 1025}})
        assert main(["continuity", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "sample.count" in err and "1048576" in err and "Traceback" not in err

    def test_psi_both_routes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["psi", "--config", str(path), "--route", "both"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"][0][0] == pytest.approx(0.4, abs=1e-12)
        assert out["estimate"]["ddf"][0][0] == pytest.approx(0.4, abs=1e-12)
        assert out["sibley_distance"] <= 2.0 / 1024

    def test_warnings_print_one_line_each_without_a_source_path(self, capsys):
        assert main(["psi", "--config", str(CONFIGS / "sampled.json")]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"warning: delta={d} admits no lattice neighbors at grid step; level skipped"
            for d in (0.05, 0.025, 0.0125, 0.00625, 0.003125)]
        assert ".py" not in err

    def test_continuity_on_a_subnormal_generator_prints_no_warning(self, tmp_path, capsys):
        # t' / a(t') overflows to an infinite radius: the whole-domain ball.
        path = write_config(tmp_path, {"space": {"dimension": 1, "generator": [[1e-310, 1.0]]},
                                       "t": 0.5, "sample": {"count": 3}})
        assert main(["continuity", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "warning:" not in err
        assert json.loads(out) == {
            "pass": True, "t": 0.5,
            "points": [{"p": [x], "witness_tprime": 0.5} for x in (0.0, 0.5, 1.0)]}

    def test_tau_of_overflowing_sums_prints_no_warning(self, capsys):
        # Every pair sum overflows to +inf, so all mass sits at +inf.
        assert main(["tau", "--tnorm", "Prod", "--f", "[[1e308,1]]", "--g", "[[1e308,1]]"]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == ("[]\n", "")

    def test_check_axioms_refuses_an_overflowing_profile_without_a_warning(self, tmp_path,
                                                                           capsys):
        path = write_config(tmp_path, {"space": {"dimension": 3, "generator": [[1.5e308, 1.0]]},
                                       "pairs": 5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-axioms", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: jump location must be finite and >= 0, got inf\n")

    def test_fixpoint_report_shape(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["fixpoint", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {"candidate", "residual", "psi", "dominance", "margin", "kakutani"} <= set(out)
        assert out["dominance"] is True
        assert out["kakutani"]["point"] == [0.5]
        assert out["kakutani"]["hull"] == [0.2, 0.6]

    def test_gen_scenarios_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "nested" / "maps.json"
        argv = ["gen-scenarios", "--count", "3", "--pieces", "2", "4", "--seed", "5"]
        assert main(argv + ["--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 3
        assert all("pieces" in m for m in payload)
        # The file holds the bytes the stdout form prints.
        capsys.readouterr()
        assert main(argv) == 0
        assert out_path.read_bytes() == capsys.readouterr().out.encode()


class TestRoutesAndGenerators:
    def test_psi_exact_route_prints_the_exact_measure_only(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["psi", "--config", str(path), "--route", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"exact"}
        assert out["exact"][0][0] == pytest.approx(0.4, abs=1e-12)

    def test_psi_exact_route_refuses_a_sampled_map(self, tmp_path, capsys):
        m = SampledMap.from_function(lambda p: (0.5 * p[0],), ((0.0, 1.0),), 0.25)
        path = write_config(tmp_path, {"map": {"sampled": m.to_json_obj()}})
        assert main(["psi", "--config", str(path), "--route", "exact"]) == 2
        err = capsys.readouterr().err
        assert "exact route needs a piecewise map" in err
        assert "Traceback" not in err

    def test_psi_estimate_route_prints_the_estimate_only(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["psi", "--config", str(path), "--route", "estimate"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"estimate"}
        assert out["estimate"]["ddf"][0][0] == pytest.approx(0.4, abs=1e-12)

    def test_gen_scenarios_config_matches_flag_form(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenarios": {"count": 3, "pieces": [2, 4],
                                                     "kind": "affine"}, "seed": 5})
        assert main(["gen-scenarios", "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert main(["gen-scenarios", "--count", "3", "--pieces", "2", "4",
                     "--kind", "affine", "--seed", "5"]) == 0
        assert capsys.readouterr().out == from_config
        assert len(json.loads(from_config)) == 3

    def test_gen_scenarios_config_without_scenarios_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["gen-scenarios", "--config", str(path)]) == 2
        assert "needs a 'scenarios' entry" in capsys.readouterr().err


class TestVerifyCommand:
    def test_no_output_path_prints_the_report(self, tmp_path, capsys):
        path = write_config(tmp_path)
        report, _ = run_verify(load_config(str(path)))
        assert main(["verify-t34", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "\n".join(lines[:-1]) == json.dumps(report, indent=2, sort_keys=True)
        assert lines[-1] == "scenarios: 1  dominance: 1  chain: 1"

    def test_anomalous_scenarios_exit_three(self, tmp_path, capsys, monkeypatch):
        import pnkit.cli as cli_mod

        summary = {"count": 2, "dominance_successes": 1, "chain_successes": 2,
                   "anomalies": [1]}
        monkeypatch.setattr(cli_mod, "run_verify", lambda cfg: ({"summary": summary}, []))
        path = write_config(tmp_path)
        assert main(["verify-t34", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert "scenarios: 2  dominance: 1  chain: 2" in captured.out
        assert "anomalous scenarios: [1]" in captured.err

    def test_single_map_run(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        path = write_config(tmp_path, {"output": str(out_json)})
        assert main(["verify-t34", "--config", str(path)]) == 0
        report = json.loads(out_json.read_text())
        assert report["summary"]["dominance_successes"] == 1
        assert report["summary"]["anomalies"] == []
        csv_text = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_text[0] == "scenario_id,t,psi_t,residual_t,dominance"
        assert len(csv_text) == 1 + 64

    def test_output_option_moves_the_curves(self, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        path = write_config(tmp_path, {"output": "out/report.json",
                                       "output_csv": "out/curves.csv"})
        out_json = tmp_path / "dest" / "report.json"
        assert main(["verify-t34", "--config", str(path), "--output", str(out_json)]) == 0
        curves = out_json.with_suffix(".csv").read_bytes()
        assert len(curves.splitlines()) == 1 + 64
        assert not (work / "out").exists()
        # Without --output the config's paths hold, relative to the
        # working directory.
        assert main(["verify-t34", "--config", str(path)]) == 0
        assert (work / "out" / "report.json").read_bytes() == out_json.read_bytes()
        assert (work / "out" / "curves.csv").read_bytes() == curves

    def test_scenario_batch(self, tmp_path):
        out_json = tmp_path / "batch.json"
        cfg = {"scenarios": {"count": 4, "pieces": [1, 4]}, "seed": 9,
               "output": str(out_json)}
        path = write_config(tmp_path, cfg)
        del_cfg = json.loads(path.read_text())
        del del_cfg["map"]
        path.write_text(json.dumps(del_cfg))
        assert main(["verify-t34", "--config", str(path)]) == 0
        report = json.loads(out_json.read_text())
        assert report["summary"]["count"] == 4
        assert report["summary"]["dominance_successes"] == 4

    def test_sampled_map_hull_tolerance_is_its_lattice_step(self):
        # The hull search of a sampled map scans only its own lattice, so
        # the configured grids must not set its tolerance.
        h = 1.0 / 20
        m = SampledMap.from_function(
            lambda p: (0.22, 0.31) if p[0] + p[1] < 1.0 else (0.61, 0.72),
            ((0.0, 1.0), (0.0, 1.0)), h)
        raw = {"space": {"dimension": 2}, "map": {"sampled": m.to_json_obj()},
               "schedules": {"t_grid": {"count": 64, "max": 1.0}}}
        without_grids, _ = run_verify(parse_config(raw))
        raw["schedules"]["grids"] = [h]
        with_grids, _ = run_verify(parse_config(raw))
        assert without_grids["scenarios"] == with_grids["scenarios"]
        assert kakutani_search(m, 1.0 / 1024).distance <= h

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        path = write_config(tmp_path, {"scenarios": {"count": 3, "pieces": [1, 4]},
                                       "seed": 21})
        cfg = json.loads(path.read_text())
        del cfg["map"]
        path.write_text(json.dumps(cfg))
        assert main(["verify-t34", "--config", str(path), "--output", str(a)]) == 0
        assert main(["verify-t34", "--config", str(path), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()


class TestGoldenOutputs:
    """Pinned digests of the shipped configs' report and curves: a change
    to any number the verify pipeline writes shows here."""

    @pytest.mark.parametrize("name, report_sha, csv_sha", [
        ("jump", "36e4a47355d8df73b2f73b8572b8e6db0c2bec6622fba4aaa6b2bff966fc2989",
         "0f6d9d49d7e40f4fb7810ef85ee9c48c8dd105e8e9626ba6ff7a709f0833c239"),
        ("batch", "9fe7563b1c71ef7a0115259639e8c989f3ebd239fd3c01a511cab4b5fb7b8bb9",
         "3332e48ba721b14fd81dc74e637c29e44f58037888e9b04d289217b9ec4a6b3b"),
        # A two-region map on a 21 x 21 lattice: the 2-d estimator and hull search.
        ("sampled", "e21e677952bb217c7edc31e5f0c4a6a860090ecc02fc094fde2ace71f8ae0110",
         "7f0a9dc44844be18d4764368fb266a5d10815b4f19b4352bd71da17ef273ace6"),
    ])
    def test_report_and_csv_digests(self, tmp_path, name, report_sha, csv_sha):
        config = CONFIGS / f"{name}.json"
        report, rows = run_verify(load_config(str(config)))
        write_report(report, str(tmp_path / "report.json"))
        write_csv(rows, str(tmp_path / "curves.csv"))
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest() == csv_sha


class TestGoldenPsiOutputs:
    """Pinned digests of `pnkit psi` stdout on the shipped configs: the
    estimate's per-t curves are evaluated on the config's t-grid."""

    @pytest.mark.parametrize("name, route, code, stdout_sha", [
        ("jump", "exact", 0, "573d3898f4f5792d36e86c91544258499bdcf50ba669c7c4743478a3f0ccc358"),
        ("jump", "estimate", 0, "2fa10c95edefd0d54799d083cbe70dd37d9bddb3bf15ba4bee7724794bfbb778"),
        ("jump", "both", 0, "a803173fd096d43a636c5ee1d63e27db926988bac765533eac6492a0acf31bc1"),
        ("sampled", "estimate", 0,
         "6ef139199a5e73db799415c53ede15e84a147645d4623e83e28f40f13e1d845e"),
        # No exact route for a sampled map: --route both prints the estimate alone.
        ("sampled", "both", 0, "6ef139199a5e73db799415c53ede15e84a147645d4623e83e28f40f13e1d845e"),
        ("sampled", "exact", 2, hashlib.sha256(b"").hexdigest()),
    ])
    def test_stdout_digests(self, capsys, name, route, code, stdout_sha):
        assert main(["psi", "--route", route, "--config", str(CONFIGS / f"{name}.json")]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


class TestExitCodes:
    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify-t34", "--config", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_schedule_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"schedules": {"delta": [0.1, 0.2]}})
        assert main(["verify-t34", "--config", str(path)]) == 2
        assert "descending" in capsys.readouterr().err

    def test_missing_seed_for_scenarios(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenarios": {"count": 2}})
        cfg = json.loads(path.read_text())
        del cfg["map"]
        del cfg["seed"]
        path.write_text(json.dumps(cfg))
        assert main(["verify-t34", "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, keep_map, message", [
        ("verify-t34", True, "exactly one of 'map' and 'scenarios'"),
        ("verify-t34", False, "either 'map' or 'scenarios'"),
        ("psi", False, "psi needs a 'map' config entry"),
        ("fixpoint", False, "fixpoint needs a 'map' config entry"),
        ("continuity", False, "continuity needs a 'map' config entry"),
    ])
    def test_map_entry_is_checked(self, tmp_path, capsys, command, keep_map, message):
        # verify-t34 is given both entries or neither; the others no map.
        cfg = json.loads(json.dumps(JUMP_CONFIG))
        if keep_map:
            cfg["scenarios"] = {"count": 2}
        else:
            del cfg["map"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["verify-t34", "--config", "/nonexistent/cfg.json"]) == 2

    def test_existence_failure_maps_to_exit_three(self, tmp_path, capsys, monkeypatch):
        import pnkit.cli as cli_mod

        def boom(*args, **kwargs):
            raise TheoremViolationError("forced failure")

        monkeypatch.setattr(cli_mod, "verify_approx_fixed_point", boom)
        path = write_config(tmp_path)
        assert main(["verify-t34", "--config", str(path)]) == 3
        assert "theorem violation" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, field", [
        ("verify-t34", {"scenarios": {"count": "abc"}}, "scenarios.count"),
        ("verify-t34", {"scenarios": {"count": 2, "pieces": [1]}}, "scenarios.pieces"),
        ("verify-t34", {"space": {"dimension": "two"}}, "dimension"),
        ("verify-t34", {"seed": "abc"}, "seed"),
        ("check-axioms", {"pairs": "x"}, "pairs"),
        ("check-axioms", {"lambdas": ["half"]}, "lambdas"),
        ("continuity", {"t": "x"}, "t: could not convert"),
        ("continuity", {"sample": {"count": "many"}}, "sample.count"),
        ("continuity", {"sample": {"points": [["a"]]}}, "sample.points"),
        ("continuity", {"sample": 9}, "sample"),
        ("continuity", {"probe_budget": "x"}, "probe_budget"),
        ("diameter", {"points": [["a"], [1.0]]}, "points"),
        ("continuity", {"probe_budget": -1}, "probe_budget"),
        ("continuity", {"probe_budget": 0}, "probe_budget"),
        ("continuity", {"sample": {"count": -3}}, "sample.count"),
        ("verify-t34", {"output": 5}, "output"),
        ("verify-t34", {"output_csv": ["a"]}, "output_csv"),
        ("verify-t34", {"schedules": {"t_grid": {"count": 64, "max": math.inf}}}, "schedules.t_grid"),
        ("verify-t34", {"schedules": {"t_grid": []}}, "schedules.t_grid"),
        ("verify-t34", {"schedules": {"t_grid": [0.5, 0.25]}}, "schedules.t_grid"),
        ("fixpoint", {"schedules": {"t_grid": {"count": 64, "max": math.inf}}}, "schedules.t_grid"),
        ("fixpoint", {"schedules": {"t_grid": [0.5, 0.25]}}, "schedules.t_grid"),
        ("psi", {"schedules": {"t_grid": {"count": 64, "max": math.nan}}}, "schedules.t_grid"),
        ("psi", {"schedules": {"t_grid": {"count": 10 ** 13}}}, "schedules.t_grid"),
        ("check-axioms", {"pairs": 10 ** 13}, "pairs"),
        ("continuity", {"probe_budget": 10 ** 13}, "probe_budget"),
        ("continuity", {"sample": {"count": 10 ** 13}}, "sample.count"),
        # Scan work arrays refused before anything is allocated: a long
        # threshold schedule, or a generator with many jumps.
        ("continuity", {"schedules": {"tprime": [0.5 * 0.999 ** k for k in range(3000)]},
                        "probe_budget": 65536}, "schedules.tprime"),
        ("continuity", {"space": {"dimension": 1,
                                  "generator": [[1.0 + k / 512, 1 / 512] for k in range(512)]},
                        "probe_budget": 65536}, "schedules.tprime"),
        # Found by TestConfigFuzz: an unbounded batch or sample array, and
        # values numpy refused with a traceback.
        ("verify-t34", {"scenarios": {"count": 10 ** 13}}, "count must be in [1, 16384]"),
        ("verify-t34", {"scenarios": {"count": 2, "values": [0.5, math.nan]}}, "values"),
        ("verify-t34", {"scenarios": {"count": 2, "values": [1.0, 0.0]}}, "values"),
        ("verify-t34", {"seed": -1}, "seed: must be nonnegative"),
        ("check-axioms", {"space": {"dimension": 10 ** 13}}, "MAX_SAMPLE_COORDS"),
        # Grid counts checked at load: a step too fine for the grid the
        # searches build, and the default step on a wide domain.
        ("fixpoint", {"schedules": {"grids": [2.0 ** -20]}},
         "schedules.grids: grid step h=9.5367431640625e-07 needs 1048577 nodes"),
        ("psi", {"map": {"domain": [0.0, 4096.0], "pieces": [
            {"from": 0.0, "to": 4096.0, "closed": "left", "affine": [0.0, 1.0]}]}},
         "schedules.grids: grid step h=0.0009765625 needs 4194305 nodes"),
        # N3 and N4 would need 1025 * 1025 pair sums, more than MAX_PAIR_SUMS.
        ("verify-t34", {"space": {"dimension": 1, "generator": [
            [1.0 + k / 2048, 1 / 1024 if k < 1023 else 1 / 2048] for k in range(1025)]}},
         "space.generator: 1025 jumps need 1050625 pair sums"),
        # Scenario families, map specs and dimensions refused at load or on
        # first use.
        ("verify-t34", {"scenarios": {"count": 2, "pieces": [3, 2]}},
         "pieces range must satisfy 1 <= lo <= hi, got (3, 2)"),
        ("verify-t34", {"scenarios": {"count": 2, "kind": "cubic"}},
         "kind must be 'constant' or 'affine', got 'cubic'"),
        ("verify-t34", {"scenarios": {"count": 2, "domain": [1.0, 1.0]}},
         "domain must be a nondegenerate interval, got (1.0, 1.0)"),
        ("verify-t34", {"scenarios": 5}, "scenarios spec must be an object with at least 'count'"),
        ("diameter", {}, "diameter needs --points or a 'points' config entry"),
        ("diameter", {"points": [[0.1, 0.2]]}, "point set dimension 2 does not match space dimension 1"),
        ("psi", {"map": 5}, "map spec must be an object with 'domain' and 'pieces'"),
        ("psi", {"map": {"domain": [0.0], "pieces": []}}, "map domain must be a [lo, hi] pair"),
        ("psi", {"map": {"domain": [1.0, 0.0], "pieces": []}},
         "domain must be a nondegenerate interval, got (1.0, 0.0)"),
        ("psi", {"map": {"sampled": {"box": [[0.0, 1.0]] * 3, "resolution": 0.5,
                                     "images": [[0.5] * 3] * 27}}},
         "sampled maps are supported in dimension 1 and 2 only"),
        ("psi", {"map": {"sampled": {"box": [[0.0, 1.0]], "resolution": 0.0, "images": [[0.5]]}}},
         "resolution must be positive, got 0.0"),
        ("psi", {"space": {"dimension": 2, "generator": [[1.0, 1.0]]}},
         "map dimension 1 does not match space dimension 2"),
        ("continuity", {"space": {"dimension": 2, "generator": [[1.0, 1.0]]}},
         "sample, map, and space dimensions must agree"),
        # Integer fields that JSON reads as an infinite float.
        ("verify-t34", {"seed": math.inf}, "seed: cannot convert float infinity"),
        ("check-axioms", {"seed": math.inf}, "seed: cannot convert float infinity"),
        ("psi", {"schedules": {"t_grid": {"count": math.inf}}}, "schedules.t_grid.count"),
        ("check-axioms", {"pairs": math.inf}, "pairs: cannot convert float infinity"),
        ("verify-t34", {"scenarios": {"count": math.inf}}, "scenarios.count"),
        ("verify-t34", {"scenarios": {"count": 2, "pieces": [math.inf, 3]}}, "scenarios.pieces"),
        ("verify-t34", {"scenarios": {"count": 2, "pieces": [1, math.inf]}}, "scenarios.pieces"),
        ("continuity", {"probe_budget": math.inf}, "probe_budget: cannot convert float infinity"),
        ("continuity", {"sample": {"count": math.inf}}, "sample.count"),
        # A lattice step that gives infinitely many cells.
        ("verify-t34", {"map": {"sampled": {"box": [[0.0, 1e308]], "resolution": 1e-300,
                                            "images": [[0.5]]}}},
         "resolution 1e-300 gives a lattice of infinitely many cells"),
        # Unknown keys, in each config object that has a fixed key set.
        ("verify-t34", {"colour": "red"}, "config: unknown key 'colour'"),
        ("verify-t34", {"space": {"dimension": 1, "generater": [[1.0, 1.0]]}},
         "space: unknown key 'generater'"),
        ("verify-t34", {"scenarios": {"count": 2, "peices": [3, 3], "kinds": "affine"}},
         "scenarios: unknown key 'peices'"),
        ("psi", {"schedules": {"dleta": [0.1]}}, "schedules: unknown key 'dleta'"),
        ("fixpoint", {"schedules": {"t_grid": {"count": 8, "mx": 1.0}}},
         "schedules.t_grid: unknown key 'mx'"),
        ("continuity", {"sample": {"cont": 3}}, "sample: unknown key 'cont'"),
        # A JSON integer too large for a float.
        ("verify-t34", {"space": {"dimension": 1, "generator": [[10 ** 400, 1.0]]}},
         "space: ddf JSON entry 0: int too large to convert to float"),
        # Refusals that TestConfigFuzz reaches only for some of its draws.
        ("verify-t34", {"space": {"dimension": 1, "generator": [["x", 1.0]]}},
         "ddf JSON entry 0: could not convert"),
        ("psi", {"map": {"domain": [0.0, 1.0], "pieces": [
            {"from": 0.0, "to": 1.0, "closed": "left", "affine": [math.nan, 0.5]}]}},
         "piece field slope must be finite"),
        ("psi", {"map": {"domain": [0.0, 1.0], "pieces": []}}, "map needs at least one piece"),
        ("psi", {"map": {"sampled": {"box": [[1.0, 0.0]], "resolution": 0.5, "images": [[0.5]]}}},
         "box must be nondegenerate"),
        # A piece count too large for a float, and schedule errors that name
        # their field once.
        ("verify-t34", {"scenarios": {"count": 2, "pieces": [1, 10 ** 400]}},
         "scenarios.pieces: int too large to convert to float"),
        ("verify-t34", {"schedules": {"t_grid": [0.5, 0.25]}},
         "cfg.json: schedules.t_grid must be strictly ascending"),
        ("psi", {"schedules": {"t_grid": {"count": math.inf}}},
         "cfg.json: schedules.t_grid.count: cannot convert float infinity"),
        ("fixpoint", {"schedules": {"t_grid": {"count": 8, "max": "x"}}},
         "cfg.json: schedules.t_grid.max: could not convert"),
        # A threshold for which 1 - t rounds to 1.
        ("continuity", {"t": 1e-20}, "t: threshold must exceed 2**-54"),
        # Threshold levels x map pieces over MAX_SCAN_CELLS on a piecewise map.
        ("continuity", {"map": {"domain": [0.0, 1.0], "pieces": [
            {"from": k / 4097, "to": (k + 1) / 4097, "closed": "left", "affine": [0.0, 0.5]}
            for k in range(4097)]},
                        "schedules": {"tprime": [0.5 * 0.999 ** k for k in range(4096)]},
                        "probe_budget": 1},
         "schedules.tprime: 4096 levels x 4097 map pieces is 16781312 cells"),
        # Conversion errors that name their field: a schedule entry, a map
        # domain bound and a sampled resolution.
        ("fixpoint", {"schedules": {"delta": "abc"}},
         "cfg.json: schedules.delta: could not convert string to float: 'a'"),
        ("fixpoint", {"schedules": {"grids": [10 ** 400]}},
         "cfg.json: schedules.grids: int too large to convert to float"),
        ("psi", {"map": {"domain": [0.0, 10 ** 400], "pieces": [
            {"from": 0.0, "to": 1.0, "closed": "left", "affine": [0.0, 0.5]}]}},
         "cfg.json: map: domain: int too large to convert to float"),
        ("psi", {"map": {"sampled": {"box": [[0.0, 1.0]], "resolution": 10 ** 400,
                                     "images": [[0.5]]}}},
         "cfg.json: map: sampled map spec: int too large to convert to float"),
    ])
    def test_malformed_field_is_validation_error(self, tmp_path, capsys, command,
                                                 overrides, field):
        path = write_config(tmp_path, overrides)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([JUMP_CONFIG]))
        assert main(["psi", "--config", str(path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ([], "gen-scenarios needs --seed (or a config)"),
        # Five pieces 0.01 apart fill a 0.05-wide domain only at exactly
        # even spacing, which uniform draws never hit.
        (["--seed", "1", "--count", "1", "--pieces", "5", "5", "--domain", "0", "0.05"],
         "could not place 4 breakpoints with separation 0.01 in [0.0, 0.05]"),
    ])
    def test_gen_scenarios_flag_refusals(self, capsys, argv, message):
        assert main(["gen-scenarios"] + argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("box, images, message", [
        # The identity on a line of nodes: both searches reach the lattice.
        ([[0.0, 0.1], [0.0, 1.0]], [[0.0, 0.25 * k] for k in range(5)],
         "limit values need two lattice nodes along every axis, got shape (1, 5)"),
        ([[0.0, 0.1]], [[0.05]], "nothing estimated"),
    ])
    def test_lattice_with_one_node_along_an_axis_is_validation_error(self, tmp_path, capsys,
                                                                    box, images, message):
        sampled = {"box": box, "resolution": 0.25, "images": images}
        path = write_config(tmp_path, {
            "space": {"dimension": len(box), "generator": [[0.001, 1.0]]},
            "map": {"sampled": sampled}, "schedules": {"grids": [0.25]}})
        out = str(tmp_path / "r.json")
        assert main(["verify-t34", "--config", str(path), "--output", out]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["verify-t34"], ["psi", "--route", "estimate"]])
    def test_too_fine_grid_is_validation_error(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, {"schedules": {"grids": [1e-7]}})
        assert main(argv + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "h=1e-07" in err and "10000001 nodes" in err
        assert "Traceback" not in err

    def test_grid_count_checked_on_the_scenario_domain_only_for_piecewise_maps(self):
        raw = {"scenarios": {"count": 1, "domain": [0.0, 4096.0]}, "seed": 1}
        with pytest.raises(InvalidArgumentError, match="schedules.grids: .* 4194305 nodes"):
            parse_config(raw)
        # A sampled map has its lattice and no other grid.
        m = SampledMap.from_function(lambda p: p, ((0.0, 1.0),), 0.25)
        cfg = parse_config({"map": {"sampled": m.to_json_obj()},
                            "schedules": {"grids": [1e-9]}})
        assert cfg.grid_resolutions == (1e-9,)

    def test_finest_grid_is_the_only_one_counted(self):
        # 2**-19 needs 524289 nodes, within MAX_GRID_NODES; the searches
        # build no finer grid, so the config loads.
        raw = json.loads(json.dumps(JUMP_CONFIG))
        raw["schedules"]["grids"] = [2.0 ** -19]
        assert parse_config(raw).grid_resolutions == (2.0 ** -19,)

    def test_config_validation_reports_field(self, tmp_path):
        path = write_config(tmp_path, {"map": {"domain": [0.0, 1.0], "pieces": [
            {"from": 0.0, "to": 0.4, "closed": "left", "affine": [0.0, 0.5]},
            {"from": 0.5, "to": 1.0, "closed": "left", "affine": [0.0, 0.5]},
        ]}})
        with pytest.raises(InvalidArgumentError, match="map"):
            load_config(str(path))


# The subcommand each shipped config is written for.
CONFIG_COMMANDS = {"jump": "verify-t34", "batch": "verify-t34", "sampled": "verify-t34",
                   "simple": "check-axioms"}
BAD_VALUES = [-1, 0, math.nan, "x", [], {}, 10 ** 13, math.inf]


def field_paths(obj, path=()):
    """Paths to every member of every object and to the first two items
    of every list in a JSON value."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))[:2]
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


class TestConfigFuzz:
    def test_every_shipped_config_is_fuzzed(self):
        assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(CONFIG_COMMANDS)

    # check-axioms on simple.json takes about a second, so it gets fewer examples.
    @pytest.mark.parametrize("name, examples", [("jump", 12), ("batch", 8), ("sampled", 12),
                                                ("simple", 4)])
    def test_one_bad_field_exits_cleanly(self, name, examples):
        original = json.loads((CONFIGS / f"{name}.json").read_text())
        paths = list(field_paths(original))

        @settings(max_examples=examples, deadline=None, database=None, derandomize=True)
        @given(path=st.sampled_from(paths), value=st.sampled_from(BAD_VALUES))
        def run(path, value):
            cfg = json.loads(json.dumps(original))
            with tempfile.TemporaryDirectory() as tmp:
                for field in ("output", "output_csv"):
                    if field in cfg:
                        cfg[field] = str(Path(tmp) / field)
                target = cfg
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value
                config = Path(tmp) / "config.json"
                config.write_text(json.dumps(cfg))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([CONFIG_COMMANDS[name], "--config", str(config)])
            assert code in (0, 2, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()

        run()
