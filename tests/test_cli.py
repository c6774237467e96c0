import json
import math
import re
from pathlib import Path

import pytest

from obsgrid import cli
from obsgrid.cli import (COMMON_KEYS, EXPERIMENT_KEYS, ConfigError, fit_rate,
                         load_config, main, validate_config)
from obsgrid.geometry import write_density_csv
from obsgrid.optimize import maximize_obs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# coupled_rect_2d parameters: complex numbers as [re, im] pairs
COUPLED = {"name": "coupled_rect_2d", "n_max": 4}
MU = [[1, 2], [1, -2], [3, 0]]
EYE3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
GRID2D = {"cells": [16, 16], "gauss_order": 2}


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
        # fixed settings of the runners (cli.SLIDE_SHIFTS, COMPACT_FRACTION,
        # TORUS_*, limit.SAMPLER_FAMILIES, tube_linearity's own deltas)
        ("limit", {"drop": ("T", "N"), "sampler": {"families": ["slide"]}},
         "families"),
        ("limit", {"drop": ("T", "N"), "sampler": {"h_list": [0.01]}}, "h_list"),
        ("limit", {"drop": ("T", "N"), "deltas": [0.1, 0.2]}, "deltas"),
        ("smallt", {"T": 1e-3, "N": [4, 8], "compact_fraction": 0.5},
         "compact_fraction"),
        ("cesaro", {"drop": ("L", "T"), "N": [2, 4], "compact_fraction": 3},
         "compact_fraction"),
        ("torus-deg", {"drop": ("T", "N"), "model": {"name": "torus_1d", "n_max": 6},
                       "torus_family": {"eta": 0.5, "m": 5, "n_members": 8}},
         "torus_family"),
        # acceptance thresholds (cli.SWEEP_*, CERTIFY_*, MHAT_RTOL,
        # TUBE_RESIDUAL_MAX, SMALLT_*, TORUS_*_TOL, TORUS_L1_MIN)
        ("sweep", {"T": [0.4, 0.8, 1.2, 1.6], "acceptance": {"slope_max": -1.2}},
         "acceptance"),
        ("smallt", {"T": 1e-3, "N": [2, 4], "acceptance": {"margin": 0.1}},
         "acceptance"),
        ("torus-deg", {"drop": ("T", "N"), "model": {"name": "torus_1d", "n_max": 6},
                       "acceptance": {"l1_min": 0.1}}, "acceptance"),
        ("certify", {"acceptance": {"max_rel_gap": 1e-4}}, "acceptance"),
        ("limit", {"drop": ("T", "N"), "acceptance": {"residual_max": 0.05}},
         "residual_max"),
        ("limit", {"drop": ("T", "N"), "acceptance": {"mhat_rtol": 0.05}},
         "mhat_rtol"),
    ])
    def test_keys_the_runner_does_not_read(self, tmp_path, experiment, overrides, key):
        # accepting them would echo a setting into report.json that the
        # run did not use
        path = write_config(tmp_path, experiment=experiment, **overrides)
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))

    @pytest.mark.parametrize("sampler,match", [
        ({"n_samples": 0}, "n_samples"),
        ({"n_samples": -3}, "n_samples"),
        ({"n_samples": 2.5}, "n_samples"),
        ({"n_samples": True}, "n_samples"),
    ])
    def test_sampler_values_rejected(self, tmp_path, sampler, match):
        # each of these used to fail only after limit_set had run, with a
        # message that did not name the key
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            sampler=sampler)
        with pytest.raises(ConfigError, match=match):
            load_config(str(path))

    @pytest.mark.parametrize("seed", [2.7, "x", True])
    def test_non_integer_seed_rejected(self, tmp_path, seed):
        # 2.7 used to run as seed 2 and True as seed 1
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(write_config(tmp_path, seed=seed)))

    def test_negative_seed_exit_1_before_any_work(self, tmp_path, capsys):
        # used to fail in the k_hat sampler only after limit_set had run,
        # with a message that did not name the key, leaving density_a1.csv
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            seed=-1, out=str(tmp_path / "out"))
        assert main(["limit", "--config", str(path)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "density_a1.csv").exists()

    def test_negative_seed_flag_exit_1_before_any_work(self, tmp_path, capsys):
        # --seed used to replace the validated seed without a check
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            out=str(tmp_path / "out"))
        assert main(["limit", "--config", str(path), "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "density_a1.csv").exists()

    def test_integer_seed_echoed(self, tmp_path):
        assert load_config(str(write_config(tmp_path, seed=12345)))["seed"] == 12345

    @pytest.mark.parametrize("experiment,overrides,key", [
        # 4.7 used to solve N=4 while the report echoed 4.7, and True N=1
        ("solve", {"N": 4.7}, "N"),
        ("solve", {"N": True}, "N"),
        ("solve", {"N": 0}, "N"),
        ("solve", {"N": 5}, "N"),                   # model.n_max is 4
        # True used to solve T=1.0, and NaN failed only after the model
        # and grid were built, with an OverflowError
        ("solve", {"T": True}, "T"),
        ("solve", {"T": float("nan")}, "T"),
        ("solve", {"T": float("inf")}, "T"),
        ("solve", {"T": 0}, "T"),
        ("solve", {"T": "1"}, "T"),
        ("sweep", {"T": [0.4, 0.8, 0.8, 1.6]}, "T"),
        ("sweep", {"T": [0.4, 0.8, 1.2, -1.6]}, "T"),
        ("sweep", {"T": [0.4, 0.8, 1.2, True]}, "T"),
        ("smallt", {"T": 1e-3, "N": [2.5, 4]}, "N"),  # used to solve N=2
        ("smallt", {"T": 1e-3, "N": []}, "N"),
        ("smallt", {"T": 1e-3, "N": [2, 8]}, "N"),
        ("cesaro", {"drop": ("L", "T"), "N": [2, 4.0]}, "N"),
        # smallt used to solve N=2 twice and write two equal rows; cesaro
        # failed deviation_decreasing on two equal deviations
        ("smallt", {"T": 1e-3, "N": [2, 2, 4]}, "N"),
        ("cesaro", {"drop": ("L", "T"), "N": [2, 2, 4]}, "N"),
        ("solve", {"grid": {"cells": 128.9}}, "grid.cells"),   # used to run 128
        ("solve", {"grid": {"cells": True}}, "grid.cells"),
        ("solve", {"grid": {"cells": 1}}, "grid.cells"),
        ("solve", {"grid": {"cells": []}}, "grid.cells"),
        ("solve", {"model": {"name": "dirichlet_rect_2d", "n_max": 4},
                   "grid": {"cells": [16, 16.5]}}, "grid.cells"),
        ("solve", {"grid": {"gauss_order": 2.0}}, "grid.gauss_order"),
        ("solve", {"grid": {"gauss_order": 6}}, "grid.gauss_order"),
        ("solve", {"model": {"name": "dirichlet_1d", "n_max": 4.0}}, "model.n_max"),
        ("limit", {"drop": ("T", "N"), "model": {"name": "dirichlet_1d", "n_max": 0}},
         "model.n_max"),
        # "0.5" used to fail with a TypeError that did not name the key
        ("solve", {"L": "0.5"}, "L"),
        ("solve", {"L": True}, "L"),
        ("solve", {"L": float("nan")}, "L"),
        ("solve", {"L": 1.0}, "L"),
        # a sweep with nu 5 used to drop every certificate and pass its
        # sandwich check; certify failed only after maximize_sigma1 had run
        ("sweep", {"T": [0.4, 0.8, 1.2, 1.6], "certificate": {"nu": 5}},
         "certificate.nu"),
        ("certify", {"certificate": {"nu": 5}}, "certificate.nu"),
        ("certify", {"certificate": {"nu": 0}}, "certificate.nu"),
        ("certify", {"certificate": {"nu": 1.0}}, "certificate.nu"),
        ("certify", {"certificate": {"nu": True}}, "certificate.nu"),
        ("certify", {"certificate": {"nu": "0.9"}}, "certificate.nu"),
        ("certify", {"certificate": {"nu": float("inf")}}, "certificate.nu"),
        # tol Infinity used to report converged after 0 iterations, max_iter
        # true ran one iteration, and tol "x" failed with a TypeError
        ("solve", {"optimizer": {"tol": float("inf")}}, "optimizer.tol"),
        ("solve", {"optimizer": {"tol": "x"}}, "optimizer.tol"),
        ("solve", {"optimizer": {"tol": True}}, "optimizer.tol"),
        ("solve", {"optimizer": {"max_iter": True}}, "optimizer.max_iter"),
        # dirichlet_1d used to ignore mu and u and echo them; the coupled
        # model failed with KeyError: 'mu' or a TypeError naming no key
        ("solve", {"model": {"name": "dirichlet_1d", "n_max": 4, "mu": MU}}, "model.mu"),
        ("solve", {"model": {"name": "dirichlet_1d", "n_max": 4, "u": None}}, "model.u"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "u": EYE3}}, "model.mu"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": MU}}, "model.u"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": [1, 2, 3], "u": EYE3}},
         "model.mu"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": MU[:2], "u": EYE3}},
         "model.mu"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": [[1, 2], [1, -2], [3, True]],
                                             "u": EYE3}}, "model.mu"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": MU,
                                             "u": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
         "model.u"),
        # the model's value preconditions used to fail after validation
        # with messages that named no key
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": [[1, 0], [2, 0], [3, 0]],
                                             "u": EYE3}}, "model.mu"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": [[3, 0], [3, 0], [1, 0]],
                                             "u": EYE3}}, "model.mu"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": [[-20, 1], [-20, -1], [3, 0]],
                                             "u": EYE3}}, "model.mu"),
        ("solve", {"grid": GRID2D, "model": {**COUPLED, "mu": MU,
                                             "u": [[[1, 0], [1e-6, 0], [0, 0]], *EYE3[1:]]}},
         "model.u"),
        ("model", {"drop": ("L", "T", "N"), "grid": GRID2D,
                   "model": {**COUPLED, "mu": MU, "u": [EYE3[0], EYE3[0], EYE3[2]]}},
         "model.u"),
        # "2pi" used to fail with a TypeError only after the full solve
        ("limit", {"drop": ("T", "N"), "acceptance": {"mhat_target": "2pi"}},
         "acceptance.mhat_target"),
        # a target <= 0 made the mhat check fail on every run
        ("limit", {"drop": ("T", "N"), "acceptance": {"mhat_target": -2 * math.pi}},
         "acceptance.mhat_target"),
        ("limit", {"drop": ("T", "N"), "acceptance": {"mhat_target": 0}},
         "acceptance.mhat_target"),
        # an unknown model name used to fail only once the runner built it
        ("solve", {"model": {"name": "foo", "n_max": 4}}, "model.name"),
        ("solve", {"model": {"name": 5, "n_max": 4}}, "model.name"),
    ])
    def test_bad_horizons_and_sizes_exit_1_before_any_work(self, tmp_path, capsys,
                                                           experiment, overrides, key):
        path = write_config(tmp_path, experiment=experiment,
                            out=str(tmp_path / "out"), **overrides)
        assert main([experiment, "--config", str(path)]) == 1
        assert f"{key} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out,flag", [(5, False), ("", False), (None, False),
                                          ("", True)])
    def test_bad_out_exits_1_before_any_work(self, tmp_path, monkeypatch, capsys,
                                             out, flag):
        # 5 used to fail with a TypeError only after the full solve, "" wrote
        # the outputs into the working directory, and --out "" replaced the
        # validated out without a check and did the same
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, **({} if flag else {"out": out}))
        flags = ["--out", out] if flag else []
        assert main(["solve", "--config", str(path), *flags]) == 1
        assert f"out must be a nonempty string, got {out!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_coupled_model_parameters_accepted(self, tmp_path, capsys):
        path = write_config(tmp_path, experiment="model", drop=("L", "T", "N"),
                            model={**COUPLED, "n_max": 6, "mu": MU, "u": EYE3},
                            grid=GRID2D, out=str(tmp_path / "out"))
        assert main(["model", "--config", str(path)]) == 0
        assert "lambda = 20.7392 + 2i" in capsys.readouterr().out

    def test_null_mhat_target_accepted(self, tmp_path):
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            acceptance={"mhat_target": None})
        assert load_config(str(path))["acceptance"]["mhat_target"] is None

    def test_n_lists_default_n_max_to_largest_N(self):
        # n_max 8 used to make the default smallt and cesaro configs fail
        # with "N must be in 1..8" after the grid was built
        for kind, n_max in (("smallt", 16), ("cesaro", 64)):
            cfg = validate_config({"version": 1, "experiment": kind,
                                   "model": {"name": "dirichlet_1d"}})
            assert cfg["model"]["n_max"] == max(cfg["N"]) == n_max

    def test_sampler_subset_accepted(self, tmp_path):
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            sampler={"n_samples": 1})
        assert load_config(str(path))["sampler"] == {"n_samples": 1}

    def test_readme_key_table_matches_schema(self):
        # the experiment/key table of README.md, one row per experiment:
        # | `limit` | `L`, `optimizer`, ... |  ("none" for no further keys)
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = {}
        for line in text.split("| experiment ", 1)[1].splitlines()[2:]:
            if not line.startswith("|"):
                break
            kind, keys = (c.strip() for c in line.strip("|").split("|"))
            table[kind.strip("`")] = tuple(re.findall(r"`([^`]+)`", keys))
        assert table == EXPERIMENT_KEYS

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
        # the thresholds README.md states
        assert (cli.SWEEP_R_FINAL_MIN, cli.SWEEP_SLOPE_MAX, cli.SWEEP_SANDWICH_RTOL,
                cli.SATURATION_FLOOR_CELLS) == (0.97, -1.2, 1e-6, 3.0)
        assert (cli.CERTIFY_SANDWICH_RTOL, cli.CERTIFY_MAX_REL_GAP) == (1e-3, 1e-4)
        assert (cli.MHAT_RTOL, cli.TUBE_RESIDUAL_MAX) == (0.05, 0.05)
        assert (cli.SMALLT_MARGIN, cli.SMALLT_VALUE_FLOOR_SLACK) == (0.1, 1e-6)
        assert (cli.TORUS_EQUALITY_TOL, cli.TORUS_L1_MIN,
                cli.TORUS_ATTAIN_TOL) == (1e-9, 0.1, 1e-8)
        cfg = validate_config({"version": 1, "experiment": "limit",
                               "model": {"name": "dirichlet_1d"}})
        assert cfg["acceptance"] == {"mhat_target": None}


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

    def test_bad_sampler_exit_1_before_any_work(self, tmp_path, capsys):
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            sampler={"n_samples": 0}, out=str(tmp_path / "out"))
        assert main(["limit", "--config", str(path)]) == 1
        assert "n_samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the failed checks of each shipped config: the honest failures of the
    # sweep's asymptotic targets and of the certificate at T=2
    SHIPPED_FAILURES = {
        "dirichlet1d_certify": {"lower_below_estimate"},
        "dirichlet1d_sweep": {"r_final", "rate_slope", "sandwich"},
    }

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_outcome(self, tmp_path, capsys, path):
        kind = json.loads(path.read_text())["experiment"]
        failed = self.SHIPPED_FAILURES.get(path.stem, set())
        assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == \
            (2 if failed else 0)
        checks = json.loads((tmp_path / "report.json").read_text())["checks"]
        assert {k for k, ok in checks.items() if not ok} == failed

    def test_acceptance_failure_exit_2(self, tmp_path, capsys):
        # a sweep on a tiny instance cannot meet the default asymptotic
        # thresholds; the run must complete and report FAIL
        path = write_config(tmp_path, name="sweep.json", experiment="sweep",
                            T=[0.4, 0.8, 1.2, 1.6], N=4,
                            out=str(tmp_path / "out"))
        assert main(["sweep", "--config", str(path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pass"] is False


class TestLimitRuns:
    @pytest.mark.parametrize("name", ["dirichlet1d_limit", "rect2d_limit"])
    def test_shipped_limit_needs_no_sampler(self, tmp_path, capsys, monkeypatch, name):
        # nor the box/mean projection, whose only caller is the sampler
        from obsgrid import geometry, limit

        def refuse(*args, **kwargs):
            raise AssertionError("the k_hat sampler or the projection ran")

        monkeypatch.setattr(cli, "estimate_bathtub_constant", refuse)
        monkeypatch.setattr(geometry, "project_box_mean", refuse)
        monkeypatch.setattr(limit, "project_box_mean", refuse)
        out = tmp_path / "out"
        assert main(["limit", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(out)]) == 0
        rec = json.loads((out / "report.json").read_text())["records"][0]
        lower, upper = rec["k"]
        assert 0 < lower and upper == pytest.approx(lower, rel=1e-12)
        assert rec["k_floor"] > 0 and rec["k_D"] >= rec["k_floor"]
        assert "k_hat" not in rec and "k_hat_families" not in rec
        header = (out / "density_k_witness.csv").read_text().splitlines()[0]
        assert header == (out / "density_a1.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize("model, cells", [("dirichlet_1d", 2),
                                              ("dirichlet_rect_2d", [2, 2])])
    def test_constant_psi_reported_degenerate(self, tmp_path, capsys, model, cells):
        # used to run the sampler and then exit 1 in tube_linearity
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            model={"name": model, "n_max": 4},
                            grid={"cells": cells, "gauss_order": 3},
                            out=str(tmp_path / "out"))
        assert main(["limit", "--config", str(path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["records"][0]["degenerate"] is True
        assert report["checks"] == {"kkt": False}

    def test_no_admissible_distance_fails_khat_positive(self, tmp_path, capsys):
        # the floor is 2 of the 8 cells, more than any feasible move; this
        # used to pass khat_positive on k_hat = 1.4e-16
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            grid={"cells": 8, "gauss_order": 3}, L=0.05,
                            out=str(tmp_path / "out"))
        assert main(["limit", "--config", str(path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rec = report["records"][0]
        assert rec["k"] is None and rec["k_D"] is None
        assert rec["k_floor"] == pytest.approx(2 * math.pi / 8, rel=1e-15)
        assert report["checks"]["khat_positive"] is False
        assert not (tmp_path / "out" / "density_k_witness.csv").exists()

    @pytest.mark.parametrize("L", [0.3, 0.7])
    def test_limit_set_constant_along_slide_axis(self, tmp_path, capsys, L):
        # a1 is equal across the two x-cells, so no slide moves it; this
        # used to exit 1 on a ZeroDivisionError in sliding_ratio
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            model={"name": "dirichlet_rect_2d", "n_max": 4},
                            grid={"cells": [2, 48], "gauss_order": 3}, L=L,
                            out=str(tmp_path / "out"))
        assert main(["limit", "--config", str(path)]) == 0
        rec = json.loads((tmp_path / "out" / "report.json").read_text())["records"][0]
        assert rec["degenerate"] is False and rec["kkt_pass"] is True
        assert rec["sliding_ratios"] == [None, None, None]

    def test_two_mode_cluster_reports_the_relaxed_lower_end(self, tmp_path, capsys,
                                                             monkeypatch):
        # no build_model model reaches a non-degenerate #J1 > 1 limit
        # (test_limit's test_multi_mode_heads_are_degenerate), so a
        # hand-built one stands in; the sampler must not run
        from conftest import interval_indicator, simple_cluster_solution
        from obsgrid.limit import exact_bathtub_constant

        sols = []

        def interval_solution(model, grid, L, opts):
            a1 = interval_indicator(grid, 0.3, 0.3 + 2 * math.pi * L)
            sols.append((model, grid, simple_cluster_solution(model, grid, a1)))
            return sols[-1][2]

        def refuse(*args, **kwargs):
            raise AssertionError("the k_hat sampler ran")

        monkeypatch.setattr(cli, "limit_set", interval_solution)
        monkeypatch.setattr(cli, "estimate_bathtub_constant", refuse)
        path = write_config(tmp_path, experiment="limit", drop=("T", "N"),
                            model={"name": "torus_1d", "n_max": 4}, L=0.25,
                            sampler={"n_samples": 30}, out=str(tmp_path / "out"))
        main(["limit", "--config", str(path)])
        rec = json.loads((tmp_path / "out" / "report.json").read_text())["records"][0]
        model, grid, sol = sols[0]
        bc = exact_bathtub_constant(model, grid, sol)
        assert rec["k"] == [bc.lower, None]
        assert (rec["k_floor"], rec["k_D"]) == (bc.floor, bc.D)
        assert "k_hat_families" not in rec
        assert not (tmp_path / "out" / "density_k_witness.csv").exists()


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

    def test_sweep_files_per_horizon(self, tmp_path, capsys):
        # 1.0 and 1.0000001 agree to 6 significant digits: each horizon
        # still writes its own density file, holding its own solve
        names = {0.5: "0.5", 1.0: "1", 1.0000001: "1.0000001", 2.0: "2"}
        path = write_config(tmp_path, name="sweep.json", experiment="sweep",
                            T=list(names), grid={"cells": 64, "gauss_order": 2},
                            out=str(tmp_path / "out"))
        main(["sweep", "--config", str(path)])
        out = tmp_path / "out"
        assert sorted(p.name for p in out.glob("density_T*.csv")) == \
            sorted(f"density_T{t}.csv" for t in names.values())
        cfg = load_config(str(path))
        model, grid = cli._build(cfg)
        for T, name in names.items():
            res = maximize_obs(model, grid, cfg["L"], T, cfg["N"], cli._opts(cfg))
            write_density_csv(tmp_path / "own.csv", res.a_star)
            assert (out / f"density_T{name}.csv").read_bytes() == \
                (tmp_path / "own.csv").read_bytes()

    def test_sweep_certificate_failure_warned(self, tmp_path, capsys):
        # the auto nu_T is not representable at T=0.4: the record's bounds
        # are null, which used to leave no trace in the warnings
        path = write_config(tmp_path, name="sweep.json", experiment="sweep",
                            T=[0.4, 0.8, 1.2, 1.6], N=4,
                            out=str(tmp_path / "out"))
        main(["sweep", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["lower_bound"] is None for r in report["records"]] == \
            [True, False, False, False]
        assert report["warnings"] == [
            "no certificate at T=0.4: auto nu_T is not representable inside "
            "(0,1) at this T; pass an explicit nu"]

    def test_shipped_sweep_values(self, tmp_path, capsys):
        # FW values of configs/dirichlet1d_sweep.json at T = 0.5 ... 2.5;
        # each lies within its fw_gap (<= 1e-6 relative) below the optimum
        path = CONFIGS / "dirichlet1d_sweep.json"
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        expected = {0.5: 0.5795248941058156, 1.0: 2.2062603244030137,
                    1.5: 6.647127142704895, 2.0: 18.724876198915027,
                    2.5: 51.55652869308769}
        assert [r["T"] for r in report["records"]] == list(expected)
        for rec in report["records"]:
            assert rec["converged"]
            assert rec["value"] == pytest.approx(expected[rec["T"]], rel=1e-9)

    @pytest.mark.parametrize("experiment", ["solve", "certify", "sweep", "smallt"])
    def test_records_count_solver_work(self, tmp_path, capsys, experiment):
        # every FW solve record has one schema: T, N, OptResult.as_dict()
        # and bangbang_frac, then the runner's own fields
        from obsgrid.optimize import OptResult
        extra = {"certify": {"certificate": {"nu": 0.99}},
                 "sweep": {"T": [0.4, 0.8, 1.2, 1.6]},
                 "smallt": {"T": 1e-3, "N": [2, 4], "optimizer": {"max_iter": 20}},
                 }.get(experiment, {})
        path = write_config(tmp_path, experiment=experiment,
                            out=str(tmp_path / "out"), **extra)
        main([experiment, "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        keys = {"T", "N", "bangbang_frac"} | set(OptResult(None, 0.0, 0.0, 0).as_dict())
        # small-time steps meet kinks, where the search bisects: up to
        # about log2(1 / LINE_SEARCH_XTOL) = 43 evaluations a step
        per_step = 64 if experiment == "smallt" else 12
        assert report["records"]
        for rec in report["records"]:
            assert keys <= set(rec)
            assert rec["iterations"] >= 1
            assert 1 <= rec["line_search_evals"] <= per_step * rec["iterations"]

    def test_history_csv_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, out=str(tmp_path / "out"))
        main(["solve", "--config", str(path)])
        lines = (tmp_path / "out" / "history.csv").read_text().splitlines()
        assert lines[0] == "iter,value,gap"
        assert len(lines) >= 2

    def test_reports_byte_identical(self, tmp_path, capsys):
        # the smallt solves stop unconverged, where the line search finds
        # no ascent or the budget runs out; seed 7 is echoed but read by
        # no smallt solve
        configs = {
            "limit": {"sampler": {"n_samples": 60}, "drop": ("T", "N")},
            "sweep": {"T": [0.4, 0.8, 1.2, 1.6]},
            "smallt": {"T": 1e-3, "N": [2, 4], "seed": 7,
                       "optimizer": {"max_iter": 60}},
        }
        for kind, overrides in configs.items():
            path = write_config(tmp_path, name=f"{kind}.json", experiment=kind,
                                **overrides)
            runs = [tmp_path / kind / r for r in ("r1", "r2")]
            for out in runs:
                main([kind, "--config", str(path), "--out", str(out)])
            files = sorted(p.name for p in runs[0].iterdir() if p.name != "timing.json")
            assert "report.json" in files
            assert files == sorted(p.name for p in runs[1].iterdir()
                                   if p.name != "timing.json")
            for name in files:
                assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_cesaro_does_not_depend_on_N_order(self, tmp_path, capsys):
        # the trend used to be checked in config order: [32, 16, 8] exited 2
        reports = []
        for N in ([8, 16, 32], [32, 16, 8]):
            out = tmp_path / "-".join(map(str, N))
            path = write_config(tmp_path, experiment="cesaro", drop=("L", "T"), N=N,
                                model={"name": "dirichlet_1d"},
                                grid={"cells": 256, "gauss_order": 3}, out=str(out))
            assert main(["cesaro", "--config", str(path)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
            reports[-1]["config"].pop("N")
        assert reports[0] == reports[1]
        assert [r["N"] for r in reports[0]["records"]] == [8, 16, 32]

    def test_smallt_does_not_depend_on_seed(self, tmp_path, capsys):
        # seeded FW restarts used to move the shipped smallt values by up
        # to 2%; FW has no random input now
        runs = [tmp_path / f"seed{seed}" for seed in (0, 1)]
        for seed, out in zip((0, 1), runs):
            assert main(["smallt", "--config", str(CONFIGS / "dirichlet1d_smallt.json"),
                         "--out", str(out), "--seed", str(seed)]) == 0
        reports = [json.loads((out / "report.json").read_text()) for out in runs]
        assert [r["config"].pop("seed") for r in reports] == [0, 1]
        assert reports[0] == reports[1]
        assert (runs[0] / "smallt.csv").read_bytes() == (runs[1] / "smallt.csv").read_bytes()

    def test_limit_does_not_depend_on_seed(self, tmp_path, capsys):
        # the seed fed the k_hat sampler, which a #J1 == 1 limit no longer runs
        path = write_config(tmp_path, name="limit.json", experiment="limit",
                            model={"name": "dirichlet_1d", "n_max": 4},
                            sampler={"n_samples": 60}, drop=("T", "N"))
        runs = [tmp_path / f"seed{seed}" for seed in (0, 123)]
        for seed, out in zip((0, 123), runs):
            assert main(["limit", "--config", str(path), "--out", str(out),
                         "--seed", str(seed)]) == 0
        reports = [json.loads((out / "report.json").read_text()) for out in runs]
        assert [r["config"].pop("seed") for r in reports] == [0, 123]
        assert reports[0] == reports[1]
        assert (runs[0] / "density_k_witness.csv").read_bytes() == \
            (runs[1] / "density_k_witness.csv").read_bytes()

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
