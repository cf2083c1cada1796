"""Tests for the command-line runner and scenario generator."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from pnkit import SampledMap, TheoremViolationError, kakutani_search
from pnkit.cli import (ScenarioFamily, generate_scenarios, load_config, main,
                       parse_config, parse_ddf_spec, run_verify, write_csv,
                       write_report)
from pnkit.errors import InvalidArgumentError

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

    def test_psi_both_routes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["psi", "--config", str(path), "--route", "both"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"][0][0] == pytest.approx(0.4, abs=1e-12)
        assert out["estimate"]["ddf"][0][0] == pytest.approx(0.4, abs=1e-12)
        assert out["sibley_distance"] <= 2.0 / 1024

    def test_fixpoint_report_shape(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["fixpoint", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {"candidate", "residual", "psi", "dominance", "margin", "kakutani"} <= set(out)
        assert out["dominance"] is True
        assert out["kakutani"]["point"] == [0.5]
        assert out["kakutani"]["hull"] == [0.2, 0.6]

    def test_gen_scenarios_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "maps.json"
        code = main(["gen-scenarios", "--count", "3", "--pieces", "2", "4",
                     "--seed", "5", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 3
        assert all("pieces" in m for m in payload)


class TestVerifyCommand:
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
    ])
    def test_report_and_csv_digests(self, tmp_path, name, report_sha, csv_sha):
        config = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
        report, rows = run_verify(load_config(str(config)))
        write_report(report, str(tmp_path / "report.json"))
        write_csv(rows, str(tmp_path / "curves.csv"))
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest() == csv_sha


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
    ])
    def test_malformed_field_is_validation_error(self, tmp_path, capsys, command,
                                                 overrides, field):
        path = write_config(tmp_path, overrides)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["verify-t34"], ["psi", "--route", "estimate"]])
    def test_too_fine_grid_is_validation_error(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, {"schedules": {"grids": [1e-7]}})
        assert main(argv + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "h=1e-07" in err and "10000001 nodes" in err
        assert "Traceback" not in err

    def test_config_validation_reports_field(self, tmp_path):
        path = write_config(tmp_path, {"map": {"domain": [0.0, 1.0], "pieces": [
            {"from": 0.0, "to": 0.4, "closed": "left", "affine": [0.0, 0.5]},
            {"from": 0.5, "to": 1.0, "closed": "left", "affine": [0.0, 0.5]},
        ]}})
        with pytest.raises(InvalidArgumentError, match="map"):
            load_config(str(path))
