import json
import math
from pathlib import Path

import numpy as np
import pytest

from obsgrid.cli import (COMMON_KEYS, EXPERIMENT_KEYS, ConfigError, fit_rate,
                         load_config, main, validate_config)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name="cfg.json", drop=(), **overrides):
    cfg = {
        "version": 1,
        "experiment": "solve",
        "model": {"name": "dirichlet_1d", "n_max": 4},
        "grid": {"cells": 128, "gauss_order": 2},
        "L": 0.5,
        "T": 1.0,
        "N": 4,
        "seed": 0,
    }
    cfg.update(overrides)
    for key in drop:
        del cfg[key]
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestFitRate:
    def test_exact_exponential(self):
        Ts = [0.5, 1.0, 1.5, 2.0, 2.5]
        pts = [(t, math.exp(-1.5 * t)) for t in Ts]
        slope, intercept, window, saturated = fit_rate(pts, 1e-12)
        assert not saturated
        assert slope == pytest.approx(-1.5, abs=1e-9)
        assert intercept == pytest.approx(0.0, abs=1e-9)
        assert window == Ts

    def test_constant_distance(self):
        pts = [(t, 0.3) for t in (1, 2, 3, 4)]
        slope, _, _, saturated = fit_rate(pts, 1e-12)
        assert not saturated
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_floor_clips_saturated_tail(self):
        # synthetic: exponential until it hits a resolution floor
        Ts = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        floor = 0.04
        pts = [(t, max(math.exp(-2.0 * t), 0.01)) for t in Ts]
        slope, _, window, saturated = fit_rate(pts, floor)
        assert not saturated
        assert window == [0.5, 1.0, 1.5]      # rest sits below the floor
        assert slope == pytest.approx(-2.0, abs=1e-9)

    def test_all_below_floor(self):
        slope, intercept, window, saturated = fit_rate(
            [(1, 1e-6), (2, 1e-6), (3, 1e-6)], 1e-3)
        assert saturated
        assert slope is None and intercept is None and window == []


class TestConfigValidation:
    def test_unknown_top_key(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path))

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, model={"name": "dirichlet_1d", "order": 2})
        with pytest.raises(ConfigError, match="model.'order'"):
            load_config(str(path))

    def test_version_required(self, tmp_path):
        path = write_config(tmp_path, version=2)
        with pytest.raises(ConfigError, match="version"):
            load_config(str(path))

    def test_bad_experiment(self, tmp_path):
        path = write_config(tmp_path, experiment="explore")
        with pytest.raises(ConfigError, match="experiment"):
            load_config(str(path))

    def test_malformed_json_line_precise(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,\n "experiment": }\n')
        with pytest.raises(ConfigError, match=r"broken\.json:2:16"):
            load_config(str(path))

    def test_sweep_needs_four_points(self, tmp_path):
        path = write_config(tmp_path, experiment="sweep", T=[1.0, 2.0])
        with pytest.raises(ConfigError, match="T list"):
            load_config(str(path))

    def test_torus_deg_needs_torus(self, tmp_path):
        path = write_config(tmp_path, experiment="torus-deg", drop=("T", "N"))
        with pytest.raises(ConfigError, match="torus"):
            load_config(str(path))

    @pytest.mark.parametrize("opt", [{"seed": 5}, {"max_restarts": 0},
                                     {"init": "anything"}, {"method": "newton"}])
    def test_rejected_optimizer_keys(self, tmp_path, opt):
        # the runners never read these: accepting them would echo a
        # setting into report.json that the solve did not use
        path = write_config(tmp_path, optimizer=opt)
        with pytest.raises(ConfigError, match=next(iter(opt))):
            load_config(str(path))

    @pytest.mark.parametrize("opt", [
        {"max_iter": 0}, {"max_iter": -5}, {"max_iter": 2.5}, {"tol": 0.0},
        {"init": "constant"}, {"method": "frank_wolfe"},
        {"method": "projected_ascent"}])
    def test_optimizer_values_rejected(self, tmp_path, opt):
        path = write_config(tmp_path, optimizer=opt)
        with pytest.raises(ValueError, match=next(iter(opt))):
            load_config(str(path))

    @pytest.mark.parametrize("experiment,overrides,key", [
        ("sweep", {"T": [1, 2, 3, 4], "sampler": {"n_samples": 10}}, "sampler"),
        ("limit", {"drop": ("N",)}, "'T'"),
        ("limit", {"drop": ("T", "N"), "sampler": {"fresh_seed": 1}}, "fresh_seed"),
        ("limit", {"drop": ("T", "N"), "acceptance": {"require_kkt": False}},
         "require_kkt"),
        ("smallt", {"T": [1e-3, 2e-3], "N": [4, 8]}, "one T"),
        ("smallt", {"T": 1e-3, "N": 8}, "N list"),
        ("model", {"drop": ("T", "N")}, "'L'"),
    ])
    def test_keys_the_runner_does_not_read(self, tmp_path, experiment, overrides, key):
        # accepting them would echo a setting into report.json that the
        # run did not use
        path = write_config(tmp_path, experiment=experiment, **overrides)
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_take_their_keys(self, path):
        cfg = load_config(str(path))
        assert set(cfg) == set(COMMON_KEYS) | set(EXPERIMENT_KEYS[cfg["experiment"]])

    def test_smallt_defaults(self):
        cfg = validate_config({"version": 1, "experiment": "smallt",
                               "model": {"name": "dirichlet_1d"}})
        assert cfg["T"] == 1e-3
        assert cfg["N"] == [4, 8, 16]

    def test_acceptance_defaults_documented(self):
        cfg = validate_config({"version": 1, "experiment": "sweep",
                               "model": {"name": "dirichlet_1d"},
                               "T": [1, 2, 3, 4]})
        assert cfg["acceptance"]["r_final_min"] == 0.97
        assert cfg["acceptance"]["slope_max"] == -1.2


class TestResolutionGuard:
    def test_warning_on_coarse_grid(self):
        from obsgrid.cli import resolution_warning
        from obsgrid.geometry import make_grid
        from obsgrid.spectral import build_model
        model = build_model("dirichlet_1d", 8)
        coarse = make_grid(model.domain, 16, 2)    # < 8 cells per oscillation
        fine = make_grid(model.domain, 512, 2)
        assert resolution_warning(model, coarse, 8) is not None
        assert resolution_warning(model, fine, 8) is None

    def test_warning_lands_in_report(self, tmp_path, capsys):
        path = write_config(tmp_path, grid={"cells": 16, "gauss_order": 2},
                            out=str(tmp_path / "out"))
        main(["solve", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert any("resolution" in w for w in report["warnings"])


class TestMainExitCodes:
    def test_solve_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, out=str(tmp_path / "out"))
        assert main(["solve", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pass"] is True
        assert (tmp_path / "out" / "density.csv").exists()
        assert (tmp_path / "out" / "history.csv").exists()
        assert (tmp_path / "out" / "timing.json").exists()

    def test_config_error_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, bogus=2)
        assert main(["solve", "--config", str(path)]) == 1

    def test_subcommand_mismatch_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path)]) == 1

    def test_unknown_subcommand_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["explore", "--config", str(path)]) == 1

    def test_missing_config_exit_1(self, capsys):
        assert main(["solve", "--config", "/nonexistent/x.json"]) == 1

    def test_bad_max_iter_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, optimizer={"max_iter": 0},
                            out=str(tmp_path / "out"))
        assert main(["solve", "--config", str(path)]) == 1
        assert "max_iter" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_acceptance_failure_exit_2(self, tmp_path, capsys):
        # a sweep on a tiny instance cannot meet the default asymptotic
        # thresholds; the run must complete and report FAIL
        path = write_config(tmp_path, name="sweep.json", experiment="sweep",
                            T=[0.4, 0.8, 1.2, 1.6], N=4,
                            out=str(tmp_path / "out"))
        assert main(["sweep", "--config", str(path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pass"] is False


class TestReports:
    def test_sweep_csv_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, name="sweep.json", experiment="sweep",
                            T=[0.4, 0.8, 1.2, 1.6], N=4,
                            out=str(tmp_path / "out"))
        main(["sweep", "--config", str(path)])
        header = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0]
        assert header == ("T,value,fw_gap,lower_bound,upper_bound,"
                          "l1_dist,ratio,bangbang_frac")
        for T in (0.4, 0.8, 1.2, 1.6):
            assert (tmp_path / "out" / f"density_T{T:g}.csv").exists()
            assert (tmp_path / "out" / f"history_T{T:g}.csv").exists()

    @pytest.mark.parametrize("experiment", ["solve", "certify"])
    def test_records_count_solver_work(self, tmp_path, capsys, experiment):
        extra = {"certificate": {"nu": 0.99}} if experiment == "certify" else {}
        path = write_config(tmp_path, experiment=experiment,
                            out=str(tmp_path / "out"), **extra)
        main([experiment, "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rec = report["records"][0]
        assert rec["iterations"] >= 1
        assert 1 <= rec["line_search_evals"] <= 12 * rec["iterations"]

    def test_history_csv_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, out=str(tmp_path / "out"))
        main(["solve", "--config", str(path)])
        lines = (tmp_path / "out" / "history.csv").read_text().splitlines()
        assert lines[0] == "iter,value,gap"
        assert len(lines) >= 2

    def test_reports_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, name="limit.json", experiment="limit",
                            model={"name": "dirichlet_1d", "n_max": 4},
                            sampler={"n_samples": 60}, drop=("T", "N"))
        main(["limit", "--config", str(path), "--out", str(tmp_path / "r1")])
        main(["limit", "--config", str(path), "--out", str(tmp_path / "r2")])
        b1 = (tmp_path / "r1" / "report.json").read_bytes()
        b2 = (tmp_path / "r2" / "report.json").read_bytes()
        assert b1 == b2

    def test_seed_override_changes_report(self, tmp_path, capsys):
        path = write_config(tmp_path, name="limit.json", experiment="limit",
                            model={"name": "dirichlet_1d", "n_max": 4},
                            sampler={"n_samples": 60}, drop=("T", "N"))
        main(["limit", "--config", str(path), "--out", str(tmp_path / "s1")])
        main(["limit", "--config", str(path), "--out", str(tmp_path / "s2"),
              "--seed", "123"])
        r1 = json.loads((tmp_path / "s1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "s2" / "report.json").read_text())
        assert r1["config"]["seed"] != r2["config"]["seed"]
        assert r1["records"][0]["k_hat"] != r2["records"][0]["k_hat"]

    def test_unconverged_solves_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, name="smallt.json", experiment="smallt",
                            T=1e-3, N=[2, 4], optimizer={"max_iter": 3},
                            out=str(tmp_path / "out"))
        main(["smallt", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["converged"] for r in report["records"]] == [False, False]
        warns = [w for w in report["warnings"] if "unconverged" in w]
        assert len(warns) == 2
        for w, N in zip(warns, (2, 4)):
            assert f"T=0.001, N={N} " in w and "gap/value = " in w

    def test_model_subcommand_prints_spectrum(self, tmp_path, capsys):
        path = write_config(tmp_path, name="model.json", experiment="model",
                            drop=("L", "T", "N"), out=str(tmp_path / "out"))
        assert main(["model", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lambda = 1" in out and "lambda = 16" in out
        assert "p0 = 2" in out
        assert (tmp_path / "out" / "modes.csv").exists()
