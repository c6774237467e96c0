"""Experiment harness: config-driven runs reproducing the asymptotic
claims, with JSON reports and plot-ready CSV output.

Subcommands: solve, sweep, limit, smallt, torus-deg, certify, cesaro,
model. Configs are strict JSON (schema v1); each experiment accepts only
the keys its runner reads (EXPERIMENT_KEYS), so the config echoed into
report.json states only settings the run used. Acceptance thresholds are
config data with documented defaults, not code. report.json is
byte-identical for identical (config, seed) on a fixed platform and
numpy/BLAS build; wall-clock times go to a sidecar timing.json.

Exit codes: 0 pass, 2 acceptance failure, 1 error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import DensityField, l1_distance, make_grid, write_density_csv
from .gram import get_basis
from .limit import (cesaro_mean, estimate_bathtub_constant, kkt_check,
                    limit_set, sigma1, sliding_ratio, tube_linearity)
from .optimize import (OptOptions, bang_bang_fraction, lower_bound_certificate,
                       maximize_obs, maximize_sigma1)
from .spectral import build_model, gamma_factored

SCHEMA_VERSION = 1

# Keys every experiment takes: each runner builds the model on the grid,
# and every subcommand takes --seed and --out.
COMMON_KEYS = ("version", "experiment", "model", "grid", "seed", "out")
# The further top-level keys each runner reads. A key outside this table
# is rejected, so the config echo in report.json holds only settings the
# run used.
EXPERIMENT_KEYS = {
    "solve": ("L", "T", "N", "optimizer"),
    "sweep": ("L", "T", "N", "optimizer", "certificate", "acceptance"),
    "limit": ("L", "optimizer", "sampler", "deltas", "acceptance"),
    "smallt": ("L", "T", "N", "optimizer", "compact_fraction", "acceptance"),
    "torus-deg": ("L", "optimizer", "torus_family", "acceptance"),
    "certify": ("L", "T", "N", "optimizer", "certificate", "acceptance"),
    "cesaro": ("N", "compact_fraction"),
    "model": (),
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- config


_NO_DEFAULT = object()      # accepted key that stays absent unless given

BLOCK_DEFAULTS = {
    "model": {"name": _NO_DEFAULT, "n_max": 8, "mu": _NO_DEFAULT, "u": _NO_DEFAULT},
    "grid": {"cells": 1024, "gauss_order": 3},
    "optimizer": {"max_iter": 2000, "tol": 1e-6},
    "certificate": {"nu": None},
    "sampler": {"n_samples": 1000, "families": ["slide", "bathtub", "project"],
                "h_list": [0.01, 0.03, 0.05]},
    "torus_family": {"eta": 0.1, "m": 5, "n_members": 8},
}

ACCEPTANCE_DEFAULTS = {
    "sweep": {
        "r_final_min": 0.97,          # ratio-to-limit target at the last T
        "slope_max": -1.2,            # distance decay target (gap/2 minus slack)
        "sandwich_rtol": 1e-6,        # lower <= value+gap, value <= upper
        "saturation_floor_cells": 3.0,
    },
    "certify": {"sandwich_rtol": 1e-3, "max_rel_gap": 1e-4},
    "limit": {
        "mhat_target": None,          # e.g. 2*pi for dirichlet_1d, L=0.5
        "mhat_rtol": 0.05,
        "residual_max": 0.05,
    },
    "smallt": {"margin": 0.1, "value_floor_slack": 1e-6},
    "torus-deg": {"equality_tol": 1e-9, "l1_min": 0.1, "attain_tol": 1e-8},
}

_SCALAR_DEFAULTS = {"L": 0.5, "deltas": None, "compact_fraction": 0.5}
# experiments that take a list of N, with its default
_N_LISTS = {"smallt": [4, 8, 16], "cesaro": [8, 16, 32, 64]}


def _reject_unknown(d: dict, allowed, path: str) -> None:
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown key {path}{k!r}; allowed: {sorted(allowed)}")


def _block(given, name: str, defaults: dict) -> dict:
    """One nested block: unknown keys rejected, defaults filled in."""
    given = {} if given is None else given
    if not isinstance(given, dict):
        raise ConfigError(f"{name} must be a JSON object")
    _reject_unknown(given, defaults, name + ".")
    block = {k: copy.deepcopy(v) for k, v in defaults.items() if v is not _NO_DEFAULT}
    block.update(given)
    return block


def validate_config(raw: dict) -> dict:
    """Strict validation; returns the config with defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if raw.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"config 'version' must be {SCHEMA_VERSION}")
    kind = raw.get("experiment")
    if kind not in EXPERIMENT_KEYS:
        raise ConfigError(
            f"'experiment' must be one of {tuple(EXPERIMENT_KEYS)}, got {kind!r}")
    keys = COMMON_KEYS + EXPERIMENT_KEYS[kind]
    _reject_unknown(raw, keys, "")

    cfg = {"version": SCHEMA_VERSION, "experiment": kind,
           "seed": int(raw.get("seed", 0)), "out": raw.get("out", "runs/" + kind)}
    for key in keys:
        if key == "acceptance":
            cfg[key] = _block(raw.get(key), key, ACCEPTANCE_DEFAULTS[kind])
        elif key in BLOCK_DEFAULTS:
            cfg[key] = _block(raw.get(key), key, BLOCK_DEFAULTS[key])
        elif key in _SCALAR_DEFAULTS:
            cfg[key] = raw.get(key, _SCALAR_DEFAULTS[key])
    if "name" not in cfg["model"]:
        raise ConfigError("model.name is required")
    if "L" in cfg and not 0.0 < cfg["L"] < 1.0:
        raise ConfigError("L must be in (0,1)")
    if "T" in keys:
        T = raw.get("T", 1e-3 if kind == "smallt" else 1.0)
        if kind == "sweep" and not (isinstance(T, list) and len(T) >= 4):
            raise ConfigError("sweep needs a T list with >= 4 values")
        if kind != "sweep" and isinstance(T, list):
            raise ConfigError(f"{kind} takes one T, not a list")
        cfg["T"] = T
    if "N" in keys:
        N = raw.get("N", _N_LISTS.get(kind, cfg["model"]["n_max"]))
        if isinstance(N, list) != (kind in _N_LISTS):
            want = "an N list" if kind in _N_LISTS else "one N, not a list"
            raise ConfigError(f"{kind} takes {want}")
        cfg["N"] = N
    if "optimizer" in cfg:
        OptOptions(**cfg["optimizer"])      # rejects max_iter < 1 and tol <= 0
    if kind == "torus-deg" and cfg["model"]["name"] != "torus_1d":
        raise ConfigError("torus-deg requires model.name == 'torus_1d'")
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return validate_config(raw)


def _model_params(cfg) -> dict:
    mp = cfg["model"]
    params = {}
    if mp.get("mu") is not None:
        params["mu"] = [complex(re, im) for re, im in mp["mu"]]
        params["u"] = np.array([[complex(re, im) for re, im in row] for row in mp["u"]])
    return params


def _build(cfg, n_max: int | None = None):
    mp = cfg["model"]
    model = build_model(mp["name"], n_max or mp["n_max"], **_model_params(cfg))
    cells = cfg["grid"]["cells"]
    grid = make_grid(model.domain, cells, cfg["grid"]["gauss_order"])
    return model, grid


def _opts(cfg, init=None) -> OptOptions:
    return OptOptions(**cfg["optimizer"], init=init, seed=cfg["seed"])


def _warn_unconverged(rep, res, T, N) -> None:
    """One warning per FW solve that stopped before its gap tolerance."""
    if not res.converged:
        rel = res.fw_gap / abs(res.value) if res.value else math.inf
        rep.warnings.append(f"FW solve at T={T:g}, N={N} stopped unconverged: "
                            f"gap/value = {rel:.3g}")


def _max_axis_index(model, N: int) -> int:
    """Largest per-axis mode index among the first N modes."""
    if hasattr(model, "mode_pairs"):
        return max(max(m, n) for m, n in model.mode_pairs[:N])
    if hasattr(model, "mode_triples"):
        return max(max(m, n) for m, n, _ in model.mode_triples[:N])
    if model.name == "torus_1d":
        return 2 * ((N + 1) // 2)    # cos(kx)^2 oscillates twice as fast
    return N


def resolution_warning(model, grid, N: int) -> str | None:
    """>= 8 cells per shortest oscillation of the highest mode pair."""
    idx = _max_axis_index(model, N)
    for d, ((lo, hi), n) in enumerate(zip(model.domain.bounds, grid.shape)):
        length = hi - lo
        # product of two index-idx modes oscillates with wavelength length/idx
        wavelength = length / idx
        if (length / n) > wavelength / 8:
            return (f"grid resolution below 8 cells per shortest oscillation "
                    f"of the highest mode pair (N={N}, axis {d})")
    return None


# ---------------------------------------------------------------- report


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    records: list = field(default_factory=list)
    fit: dict | None = None
    checks: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.checks.values())

    def core_dict(self) -> dict:
        config = {k: v for k, v in self.config.items() if k != "out"}
        return {"schema_version": SCHEMA_VERSION, "experiment": self.kind,
                "config": config, "records": self.records, "fit": self.fit,
                "checks": self.checks, "warnings": self.warnings,
                "pass": self.passed}

    def write(self, outdir: Path) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "report.json", "w") as fh:
            json.dump(self.core_dict(), fh, indent=2, sort_keys=True,
                      default=_json_default)
            fh.write("\n")
        with open(outdir / "timing.json", "w") as fh:
            json.dump(self.timing, fh, indent=2, sort_keys=True,
                      default=_json_default)
            fh.write("\n")


def _json_default(o):
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{v:.16g}" if isinstance(v, float) else v for v in row])


def fit_rate(points, floor: float):
    """Least-squares slope of log d vs T above the saturation floor.

    Returns (slope, intercept, window, saturated); saturated means fewer
    than 3 points stayed above the floor, in which case no fit is made.
    """
    pts = [(float(t), float(d)) for t, d in points if d > floor]
    if len(pts) < 3:
        return None, None, [], True
    ts = np.array([p[0] for p in pts])
    ds = np.log(np.array([p[1] for p in pts]))
    slope, intercept = np.polyfit(ts, ds, 1)
    return float(slope), float(intercept), [p[0] for p in pts], False


# ------------------------------------------------------------- experiments


def run_solve(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("solve", cfg)
    T, N, L = float(cfg["T"]), int(cfg["N"]), cfg["L"]
    w = resolution_warning(model, grid, N)
    if w:
        rep.warnings.append(w)
    t0 = time.perf_counter()
    res = maximize_obs(model, grid, L, T, N, _opts(cfg))
    rep.timing["solve_s"] = time.perf_counter() - t0
    _warn_unconverged(rep, res, T, N)
    rec = {"T": T, "N": N, **res.as_dict(),
           "bangbang_frac": bang_bang_fraction(res.a_star)}
    rep.records.append(rec)
    rep.checks["gap_nonnegative"] = res.fw_gap >= -1e-12
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_density_csv(out / "density.csv", res.a_star)
    _write_csv(out / "history.csv", ["iter", "value", "gap"], res.history)
    return rep


def _sweep_point(model, grid, cfg, T, a1, sigma1_max):
    L, N = cfg["L"], int(cfg["N"])
    res = maximize_obs(model, grid, L, T, N, _opts(cfg))
    try:
        cert = lower_bound_certificate(model, grid, a1, T,
                                       cfg["certificate"]["nu"], L=L)
        lower, upper = cert.lower_bound, cert.upper_bound
    except (ValueError, OverflowError):
        lower = upper = None
    g1 = gamma_factored(complex(model.eigenvalues[0]), T).value().real
    ratio = res.value / (g1 * sigma1_max)
    d = l1_distance(res.a_star, a1)
    return res, lower, upper, ratio, d


def run_sweep(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("sweep", cfg)
    L, N = cfg["L"], int(cfg["N"])
    Ts = [float(t) for t in cfg["T"]]
    acc = cfg["acceptance"]
    w = resolution_warning(model, grid, N)
    if w:
        rep.warnings.append(w)

    s1 = maximize_sigma1(model, grid, L, _opts(cfg))

    t0 = time.perf_counter()
    failures = []
    results = {}
    for T in Ts:
        try:
            results[T] = _sweep_point(model, grid, cfg, T, s1.a_star, s1.value)
        except Exception as e:           # noqa: BLE001 - per-point diagnostics
            failures.append(f"T={T}: {e}")
    rep.timing["sweep_s"] = time.perf_counter() - t0
    if not results:
        raise RuntimeError("all sweep points failed: " + "; ".join(failures))
    rep.warnings.extend(failures)

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for T in sorted(results):
        res, lower, upper, ratio, d = results[T]
        _warn_unconverged(rep, res, T, N)
        rec = {"T": T, "value": res.value, "fw_gap": res.fw_gap,
               "lower_bound": lower, "upper_bound": upper,
               "l1_dist": d, "ratio": ratio,
               "bangbang_frac": bang_bang_fraction(res.a_star),
               "converged": res.converged}
        rep.records.append(rec)
        rows.append([T, res.value, res.fw_gap,
                     lower if lower is not None else math.nan,
                     upper if upper is not None else math.nan,
                     d, ratio, rec["bangbang_frac"]])
        write_density_csv(out / f"density_T{T:g}.csv", res.a_star)
        _write_csv(out / f"history_T{T:g}.csv", ["iter", "value", "gap"], res.history)
    _write_csv(out / "sweep.csv",
               ["T", "value", "fw_gap", "lower_bound", "upper_bound",
                "l1_dist", "ratio", "bangbang_frac"], rows)

    ratios = [r["ratio"] for r in rep.records]
    dists = [r["l1_dist"] for r in rep.records]
    floor = acc["saturation_floor_cells"] * float(grid.cell_measures.max())
    slope, intercept, window, saturated = fit_rate(
        [(r["T"], r["l1_dist"]) for r in rep.records], floor)
    rep.fit = {"slope": slope, "intercept": intercept, "window": window,
               "saturated": saturated, "floor": floor}

    rep.checks["r_nondecreasing"] = all(
        b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
    rep.checks["r_final"] = ratios[-1] >= acc["r_final_min"]
    rep.checks["d_nonincreasing"] = all(
        b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
    rep.checks["rate_slope"] = (not saturated) and slope is not None \
        and slope <= acc["slope_max"]
    srtol = acc["sandwich_rtol"]
    sandwich_ok = True
    for r in rep.records:
        if r["lower_bound"] is None:
            continue
        ub_est = r["value"] + max(r["fw_gap"], 0.0)
        if r["lower_bound"] > ub_est * (1.0 + srtol) or \
                r["value"] > r["upper_bound"] * (1.0 + srtol):
            sandwich_ok = False
    rep.checks["sandwich"] = sandwich_ok
    return rep


def run_limit(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("limit", cfg)
    L = cfg["L"]
    acc = cfg["acceptance"]
    smp = cfg["sampler"]
    t0 = time.perf_counter()
    sol = limit_set(model, grid, L, _opts(cfg))
    rep.timing["limit_set_s"] = time.perf_counter() - t0
    rec = {"L": L, "sigma1": sol.sigma1_value, "mu_star": sol.mu_star,
           "alphas": [float(x) for x in sol.alphas],
           "degenerate": sol.degenerate,
           "bangbang_frac": bang_bang_fraction(sol.a1)}
    kk = kkt_check(model, grid, sol)
    rec["kkt_pass"] = kk.passed
    rec["kkt_margins"] = [kk.min_inside_minus_mu, kk.mu_minus_max_outside]

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_density_csv(out / "density_a1.csv", sol.a1)

    if not sol.degenerate:
        t0 = time.perf_counter()
        ke = estimate_bathtub_constant(model, grid, sol,
                                       n_samples=smp["n_samples"],
                                       seed=cfg["seed"],
                                       families=tuple(smp["families"]))
        rep.timing["khat_s"] = time.perf_counter() - t0
        rec["k_hat"] = ke.k_hat
        rec["k_hat_families"] = {k: v for k, v in sorted(ke.family_mins.items())}
        rec["sliding_ratios"] = [sliding_ratio(model, grid, sol, h)
                                 for h in smp["h_list"]]
        m_hat, resid = tube_linearity(model, grid, sol, cfg["deltas"])
        rec["tube_m_hat"] = m_hat
        rec["tube_residual"] = resid
        rep.checks["khat_positive"] = ke.k_hat > 0
        rep.checks["tube_residual"] = resid <= acc["residual_max"]
        if acc["mhat_target"] is not None:
            rep.checks["mhat"] = abs(m_hat - acc["mhat_target"]) \
                <= acc["mhat_rtol"] * acc["mhat_target"]
    rep.checks["kkt"] = kk.passed
    rep.records.append(rec)
    return rep


def run_smallt(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("smallt", cfg)
    L = cfg["L"]
    T = float(cfg["T"])
    Ns = sorted(int(n) for n in cfg["N"])
    acc = cfg["acceptance"]

    # descending-N warm starts keep the reported chain consistent with
    # the truncation monotonicity C^(N) >= C^(N+1)
    t0 = time.perf_counter()
    results = {}
    init = None
    for N in sorted(Ns, reverse=True):
        results[N] = maximize_obs(model, grid, L, T, N, _opts(cfg, init=init))
        init = results[N].a_star
    rep.timing["smallt_s"] = time.perf_counter() - t0

    rows = []
    for N in Ns:
        res = results[N]
        v, gap = res.value, res.fw_gap
        _warn_unconverged(rep, res, T, N)
        rep.records.append({"N": N, "v": v / T, "value": v, "fw_gap": gap,
                            "converged": res.converged})
        rows.append([N, v / T, v, gap])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "smallt.csv", ["N", "v", "value", "fw_gap"], rows)

    vs = [results[N].value / T for N in Ns]
    rep.checks["value_floor"] = all(v >= L - acc["value_floor_slack"] for v in vs)
    rep.checks["v_nonincreasing_in_N"] = all(
        b <= a + 1e-12 for a, b in zip(vs, vs[1:]))
    rep.checks["v_margin"] = vs[-1] <= L + acc["margin"]

    # Cesaro interior-compact deviation trend (needs its own mode count)
    ces_Ns = [8, 16, 32, 64]
    ces_model = build_model(cfg["model"]["name"], max(ces_Ns), **_model_params(cfg))
    devs = _cesaro_deviations(ces_model, grid, ces_Ns, cfg["compact_fraction"])
    rep.fit = {"cesaro_N": ces_Ns, "cesaro_dev": devs}
    rep.checks["cesaro_decreasing"] = all(
        b < a for a, b in zip(devs, devs[1:]))
    return rep


def _cesaro_deviations(model, grid, Ns, compact_fraction):
    """Interior-compact L1 deviation of the Cesaro mean from 1/|Omega|."""
    target = 1.0 / model.domain.measure
    mask = np.ones(grid.ncells, dtype=bool)
    for d, (lo, hi) in enumerate(model.domain.bounds):
        width = hi - lo
        pad = (1.0 - compact_fraction) / 2.0 * width
        c = grid.centers[:, d]
        mask &= (c >= lo + pad) & (c <= hi - pad)
    devs = []
    for N in Ns:
        ces = cesaro_mean(model, grid, N)
        dev = float(np.abs(ces.values[mask] - target) @ grid.cell_measures[mask])
        devs.append(dev)
    return devs


def run_cesaro(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("cesaro", cfg)
    Ns = [int(n) for n in cfg["N"]]
    devs = _cesaro_deviations(model, grid, Ns, cfg["compact_fraction"])
    for N, dev in zip(Ns, devs):
        rep.records.append({"N": N, "compact_l1_dev": dev})
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "cesaro.csv", ["N", "compact_l1_dev"],
               [[n, d] for n, d in zip(Ns, devs)])
    rep.checks["deviation_decreasing"] = all(
        b < a for a, b in zip(devs, devs[1:]))
    return rep


def _torus_family_member(model, grid, L, eta, m, rng):
    """Degeneracy family member: mean-L density with no cos2x/sin2x part."""
    x = grid.centers[:, 0]
    coefs = rng.uniform(-1.0, 1.0, size=(m + 1, 2))
    vals = np.zeros(grid.ncells)
    for k in range(1, m + 1):
        if k == 2:
            continue
        vals += coefs[k, 0] * np.cos(k * x) + coefs[k, 1] * np.sin(k * x)
    amp = np.abs(vals).max()
    scale = eta * min(L, 1.0 - L) / amp if amp > 0 else 0.0
    return DensityField(grid, np.clip(L + scale * vals, 0.0, 1.0))


def run_torus_deg(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("torus-deg", cfg)
    L = cfg["L"]
    acc = cfg["acceptance"]
    fam = cfg["torus_family"]
    rng = np.random.default_rng(cfg["seed"])

    base = DensityField(grid, np.full(grid.ncells, L))
    s_base = sigma1(model, grid, base)
    members = [_torus_family_member(model, grid, L, fam["eta"], fam["m"], rng)
               for _ in range(fam["n_members"])]
    svals = [sigma1(model, grid, a) for a in members]
    spread = max(abs(s - s_base) for s in svals)

    res = maximize_sigma1(model, grid, L, _opts(cfg))
    dists = [l1_distance(a, base) for a in members]
    far = max(dists)

    rec = {"L": L, "sigma1_base": s_base, "sigma1_family": svals,
           "family_spread": spread, "optimizer_value": res.value,
           "optimizer_degenerate": res.degenerate_flag,
           "max_l1_between_maximizers": far,
           "constant_bangbang_frac": bang_bang_fraction(base)}
    rep.records.append(rec)
    rep.checks["family_equal_sigma1"] = spread <= acc["equality_tol"]
    rep.checks["two_distinct_maximizers"] = far >= acc["l1_min"]
    rep.checks["family_attains_max"] = max(abs(s - res.value) for s in svals) \
        <= acc["attain_tol"] + res.fw_gap
    rep.checks["nonbangbang_maximizer"] = bang_bang_fraction(base) > 0.5 \
        and abs(s_base - res.value) <= acc["attain_tol"] + res.fw_gap
    rep.checks["degenerate_detected"] = res.degenerate_flag
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_density_csv(out / "density_constant.csv", base)
    write_density_csv(out / "density_member0.csv", members[0])
    return rep


def run_certify(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("certify", cfg)
    L, N = cfg["L"], int(cfg["N"])
    T = float(cfg["T"])
    acc = cfg["acceptance"]
    s1 = maximize_sigma1(model, grid, L, _opts(cfg))
    cert = lower_bound_certificate(model, grid, s1.a_star, T,
                                   cfg["certificate"]["nu"], L=L)
    t0 = time.perf_counter()
    res = maximize_obs(model, grid, L, T, N, _opts(cfg))
    rep.timing["solve_s"] = time.perf_counter() - t0
    _warn_unconverged(rep, res, T, N)
    rec = {"T": T, "N": N, "value": res.value, "fw_gap": res.fw_gap,
           "iterations": res.iterations, "line_search_evals": res.line_search_evals,
           "converged": res.converged, "certificate": cert.as_dict(),
           "bangbang_frac": bang_bang_fraction(res.a_star)}
    rep.records.append(rec)
    srtol = acc["sandwich_rtol"]
    rep.checks["rel_gap"] = res.fw_gap <= acc["max_rel_gap"] * max(res.value, 1e-300)
    rep.checks["value_below_upper"] = res.value <= cert.upper_bound * (1.0 + srtol)
    rep.checks["lower_below_estimate"] = cert.lower_bound <= \
        (res.value + max(res.fw_gap, 0.0)) * (1.0 + srtol)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_density_csv(out / "density.csv", res.a_star)
    _write_csv(out / "history.csv", ["iter", "value", "gap"], res.history)
    return rep


def run_model(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("model", cfg)
    for j in range(1, model.n_max + 1):
        lam = model.eigenvalues[j - 1]
        rec = {"j": j, "re": float(lam.real), "im": float(lam.imag),
               "in_J1": j in model.J1}
        rep.records.append(rec)
    rep.fit = {"J1": list(model.J1), "p0": model.p0, "gap": model.gap,
               "q": model.q, "measure": model.domain.measure}
    # orthonormality residual at the configured grid
    basis = get_basis(model, grid, tuple(range(1, model.n_max + 1)))
    M = basis.mass(np.ones(grid.ncells))
    resid = float(np.abs(M - np.eye(model.n_max)).max())
    rep.fit["orthonormality_residual"] = resid
    rep.checks["orthonormal"] = resid <= 1e-8
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "modes.csv", ["j", "re", "im", "in_J1"],
               [[r["j"], r["re"], r["im"], int(r["in_J1"])] for r in rep.records])
    return rep


RUNNERS = {"solve": run_solve, "sweep": run_sweep, "limit": run_limit,
           "smallt": run_smallt, "torus-deg": run_torus_deg,
           "certify": run_certify, "cesaro": run_cesaro, "model": run_model}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="obsgrid",
        description="observability-constant experiments over relaxed sensor densities")
    sub = parser.add_subparsers(dest="command")
    for name in EXPERIMENT_KEYS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:          # unknown subcommand / bad flags -> error exit
        return 0 if e.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        if cfg["experiment"] != args.command:
            raise ConfigError(
                f"config is for experiment {cfg['experiment']!r}, "
                f"subcommand was {args.command!r}")
        if args.out is not None:
            cfg["out"] = args.out
        if args.seed is not None:
            cfg["seed"] = args.seed
        t0 = time.perf_counter()
        rep = RUNNERS[cfg["experiment"]](cfg)
        rep.timing["total_s"] = time.perf_counter() - t0
        rep.write(Path(cfg["out"]))
        if cfg["experiment"] == "model":
            for r in rep.records:
                tag = " J1" if r["in_J1"] else ""
                print(f"  mode {r['j']:3d}: lambda = {r['re']:.6g}"
                      + (f" + {r['im']:.6g}i" if r["im"] else "") + tag)
            print(f"  p0 = {rep.fit['p0']}, gap = {rep.fit['gap']:.6g}, "
                  f"orthonormality residual = {rep.fit['orthonormality_residual']:.2e}")
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{cfg['experiment']}] {status}: checks="
              + json.dumps(rep.checks, sort_keys=True, default=_json_default)
              + f" -> {cfg['out']}/report.json")
        return 0 if rep.passed else 2
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:     # noqa: BLE001 - CLI boundary
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
