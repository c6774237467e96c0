"""Experiment harness: config-driven runs reproducing the asymptotic
claims, with JSON reports and plot-ready CSV output.

Subcommands: solve, sweep, limit, smallt, torus-deg, certify, cesaro,
model. Configs are strict JSON (schema v1); each experiment accepts only
the keys its runner reads (EXPERIMENT_KEYS), so the config echoed into
report.json states only settings the run used. Acceptance thresholds are
module constants; a config sets only limit's m_hat target. report.json is
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
import numbers
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import DensityField, l1_distance, make_grid, write_density_csv
from .gram import get_basis
from .limit import (cesaro_mean, exact_bathtub_constant, kkt_check, limit_set,
                    sigma1, sliding_ratio, tube_linearity)
# binding perfbench/test_tracer.py checks; no run calls the sampler
from .limit import estimate_bathtub_constant  # noqa: F401
from .optimize import (OptOptions, bang_bang_fraction, lower_bound_certificate,
                       maximize_obs, maximize_sigma1)
from .spectral import MODEL_NAMES, ConfigurationError, build_model, check_coupling, tau

SCHEMA_VERSION = 1

# Keys every experiment takes: each runner builds the model on the grid, and
# every subcommand takes --seed and --out; only torus-deg reads seed.
COMMON_KEYS = ("version", "experiment", "model", "grid", "seed", "out")
# The further top-level keys each runner reads. A key outside this table
# is rejected, so the config echo in report.json holds only settings the
# run used.
EXPERIMENT_KEYS = {
    "solve": ("L", "T", "N", "optimizer"),
    "sweep": ("L", "T", "N", "optimizer", "certificate"),
    "limit": ("L", "optimizer", "sampler", "acceptance"),
    "smallt": ("L", "T", "N", "optimizer"),
    "torus-deg": ("L", "optimizer"),
    "certify": ("L", "T", "N", "optimizer", "certificate"),
    "cesaro": ("N",),
    "model": (),
}


# Fixed settings of the runners.
SLIDE_SHIFTS = (0.01, 0.03, 0.05)   # limit: shifts h of the slid level set
COMPACT_FRACTION = 0.5              # Cesaro deviation box side / domain side
TORUS_ETA, TORUS_M, TORUS_MEMBERS = 0.5, 5, 8   # torus-deg density family

# Acceptance thresholds of the runners' checks.
SWEEP_R_FINAL_MIN = 0.97            # ratio-to-limit target at the last T
SWEEP_SLOPE_MAX = -1.2              # distance decay target (gap/2 minus slack)
SWEEP_SANDWICH_RTOL = 1e-6          # lower <= value+gap, value <= upper
SATURATION_FLOOR_CELLS = 3.0        # sweep rate fit floor, in largest cells
CERTIFY_SANDWICH_RTOL, CERTIFY_MAX_REL_GAP = 1e-3, 1e-4
MHAT_RTOL, TUBE_RESIDUAL_MAX = 0.05, 0.05       # limit
SMALLT_MARGIN, SMALLT_VALUE_FLOOR_SLACK = 0.1, 1e-6
TORUS_EQUALITY_TOL, TORUS_L1_MIN, TORUS_ATTAIN_TOL = 1e-9, 0.1, 1e-8


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- config


_NO_DEFAULT = object()      # accepted key that stays absent unless given

BLOCK_DEFAULTS = {
    "model": {"name": _NO_DEFAULT, "n_max": 8, "mu": _NO_DEFAULT, "u": _NO_DEFAULT},
    "grid": {"cells": 1024, "gauss_order": 3},
    "optimizer": {"max_iter": 2000, "tol": 1e-6},
    "certificate": {"nu": None},
    "sampler": {"n_samples": 1000},
    "acceptance": {"mhat_target": None},    # limit: e.g. 2*pi for dirichlet_1d, L=0.5
}

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


def _is_real(x) -> bool:
    """x is a finite number (bools are not numbers here)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _positive_list(xs) -> bool:
    """A nonempty list of finite numbers > 0."""
    return isinstance(xs, list) and bool(xs) and all(_is_real(x) and x > 0 for x in xs)


def _is_fraction(x) -> bool:
    """x is a finite number strictly inside (0, 1)."""
    return _positive_list([x]) and x < 1.0


def _check_int(value, key: str, lo: int = 1, hi: int | None = None) -> int:
    """value as an int in lo..hi; bools and floats are not integers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < lo or (hi is not None and value > hi):
        want = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ConfigError(f"{key} must be an integer {want}, got {value!r}")
    return int(value)


def _check_ints(value, key: str, lo: int = 1, hi: int | None = None) -> None:
    """value, or each entry of a nonempty list value, is an integer in lo..hi."""
    for x in value if isinstance(value, list) and value else [value]:
        _check_int(x, key, lo, hi)


def _check_out(out) -> str:
    """out as a nonempty string."""
    if not isinstance(out, str) or not out:
        raise ConfigError(f"out must be a nonempty string, got {out!r}")
    return out


def _check_T(T, kind: str):
    """One finite horizon > 0, or for sweep a list of >= 4 distinct ones."""
    if kind == "sweep" and not (isinstance(T, list) and len(T) >= 4):
        raise ConfigError("sweep needs a T list with >= 4 values")
    if kind != "sweep" and isinstance(T, list):
        raise ConfigError(f"{kind} takes one T, not a list")
    Ts = T if kind == "sweep" else [T]
    if not _positive_list(Ts) or len(set(Ts)) < len(Ts):
        raise ConfigError(f"T must be a finite number > 0, and distinct in a "
                          f"sweep, got {T!r}")
    return T


def _check_N(raw: dict, kind: str, model: dict):
    """The N of a run, or its N list, with model.n_max defaulted to fit a list."""
    N = raw.get("N", _N_LISTS.get(kind, model["n_max"]))
    if isinstance(N, list) != (kind in _N_LISTS):
        want = "an N list" if kind in _N_LISTS else "one N, not a list"
        raise ConfigError(f"{kind} takes {want}")
    _check_ints(N, "N")
    if isinstance(N, list) and len(set(N)) < len(N):
        raise ConfigError(f"N must not repeat an entry, got {N!r}")
    if kind in _N_LISTS and "n_max" not in (raw.get("model") or {}):
        model["n_max"] = max(N)     # the modes the largest N needs
    _check_ints(N, "N", 1, model["n_max"])
    return N


def _is_complex_array(x, shape: tuple) -> bool:
    """x is nested lists of this shape around [re, im] pairs of finite numbers."""
    if not shape:
        return isinstance(x, list) and len(x) == 2 and all(map(_is_real, x))
    return isinstance(x, list) and len(x) == shape[0] and all(
        _is_complex_array(y, shape[1:]) for y in x)


def _check_coupling(model: dict) -> None:
    """coupled_rect_2d, and only it, takes model.mu, its 3 complex coupling
    eigenvalues, and model.u, its 3x3 complex eigenvector triple; their
    values must pass `spectral.check_coupling`, as the model builder's do."""
    coupled = model["name"] == "coupled_rect_2d"
    for key, shape, form in (("mu", (3,), "3 [re, im] pairs"),
                             ("u", (3, 3), "3 rows of 3 [re, im] pairs")):
        if (key in model) != coupled:
            raise ConfigError(f"model.{key} must be given for coupled_rect_2d and "
                              f"only for it, got model.name {model['name']!r}")
        if coupled and not _is_complex_array(model[key], shape):
            raise ConfigError(f"model.{key} must be {form} of finite numbers, "
                              f"got {model[key]!r}")
    if coupled:
        try:
            check_coupling(**_model_params(model))
        except ConfigurationError as e:
            raise ConfigError(f"model.{e}") from None


def _check_sizes(model: dict, grid: dict) -> None:
    """model.n_max and the grid sizes are integers in range."""
    _check_int(model["n_max"], "model.n_max")
    _check_ints(grid["cells"], "grid.cells", 2)
    _check_int(grid["gauss_order"], "grid.gauss_order", 1, 5)


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
           "seed": _check_int(raw.get("seed", 0), "seed", 0),
           "out": _check_out(raw.get("out", "runs/" + kind))}
    for key in keys:
        if key in BLOCK_DEFAULTS:
            cfg[key] = _block(raw.get(key), key, BLOCK_DEFAULTS[key])
        elif key == "L":
            cfg[key] = raw.get(key, 0.5)
    model = cfg["model"]
    if "name" not in model:
        raise ConfigError("model.name is required")
    if model["name"] not in MODEL_NAMES:
        raise ConfigError(f"model.name must be one of {MODEL_NAMES}, got {model['name']!r}")
    _check_sizes(model, cfg["grid"])
    _check_coupling(model)
    if "L" in cfg and not _is_fraction(cfg["L"]):
        raise ConfigError(f"L must be a finite number in (0,1), got {cfg['L']!r}")
    if "T" in keys:
        cfg["T"] = _check_T(raw.get("T", 1e-3 if kind == "smallt" else 1.0), kind)
    if "N" in keys:
        cfg["N"] = _check_N(raw, kind, model)
    if "optimizer" in cfg:
        try:
            OptOptions(**cfg["optimizer"])
        except ValueError as e:
            raise ConfigError(f"optimizer.{e}") from None
    target = cfg.get("acceptance", {}).get("mhat_target")   # null: no m_hat check
    if not (target is None or _positive_list([target])):
        raise ConfigError(f"acceptance.mhat_target must be a finite number > 0 or null, "
                          f"got {target!r}")
    nu = cfg.get("certificate", {}).get("nu")      # null: the automatic nu_T
    if nu is not None and not _is_fraction(nu):
        raise ConfigError(f"certificate.nu must be null or a finite number in "
                          f"(0,1), got {nu!r}")
    if "sampler" in cfg:
        _check_int(cfg["sampler"]["n_samples"], "sampler.n_samples")
    if kind == "torus-deg" and model["name"] != "torus_1d":
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


def _model_params(mp: dict) -> dict:
    if "mu" not in mp:              # only coupled_rect_2d takes mu and u
        return {}
    return {"mu": [complex(*z) for z in mp["mu"]],
            "u": [[complex(*z) for z in row] for row in mp["u"]]}


def _build(cfg):
    mp, gp = cfg["model"], cfg["grid"]
    model = build_model(mp["name"], mp["n_max"], **_model_params(mp))
    return model, make_grid(model.domain, gp["cells"], gp["gauss_order"])


def _opts(cfg, init=None) -> OptOptions:
    return OptOptions(**cfg["optimizer"], init=init)


def resolution_warning(model, grid, N: int) -> str | None:
    """>= 8 cells per shortest oscillation of the highest mode pair."""
    idx = max(model.axis_index[:N])
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
        for name, obj in (("report.json", self.core_dict()), ("timing.json", self.timing)):
            with open(outdir / name, "w") as fh:
                json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
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


def _outdir(cfg) -> Path:
    """The run's output directory, created if missing."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{v:.16g}" if isinstance(v, float) else v for v in row])


def _write_records_csv(path, header, records) -> None:
    """One row per record: the values of the header keys, None as nan."""
    _write_csv(path, header, ([math.nan if r[k] is None else r[k] for k in header]
                              for r in records))


def _horizon(T: float) -> str:
    """T as text that reads back as T: repr without a trailing ".0"."""
    return repr(float(T)).removesuffix(".0")


def _write_solution(out: Path, res, suffix: str = "") -> None:
    """A FW solve's density{suffix}.csv and history{suffix}.csv."""
    write_density_csv(out / f"density{suffix}.csv", res.a_star)
    _write_csv(out / f"history{suffix}.csv", ["iter", "value", "gap"], res.history)


def _solve_record(rep, model, grid, T: float, N: int, res, **fields) -> None:
    """Append the record of one FW solve to rep.

    Every solve record holds T, N, res.as_dict() and bangbang_frac, then
    the runner's own fields. The grid's resolution warning for N is added
    once per report, and a solve that stopped before its gap tolerance
    adds one warning.
    """
    warning = resolution_warning(model, grid, N)
    if warning and warning not in rep.warnings:
        rep.warnings.append(warning)
    if not res.converged:
        rel = res.fw_gap / abs(res.value) if res.value else math.inf
        rep.warnings.append(f"FW solve at T={_horizon(T)}, N={N} stopped unconverged: "
                            f"gap/value = {rel:.3g}")
    rep.records.append({"T": T, "N": N, **res.as_dict(),
                        "bangbang_frac": bang_bang_fraction(res.a_star), **fields})


def _sandwich(value, gap, lower, upper, rtol):
    """(lower <= value + max(gap, 0), value <= upper), each up to the
    relative tolerance rtol; a NaN fails both forms."""
    return (lower <= (value + max(gap, 0.0)) * (1.0 + rtol),
            value <= upper * (1.0 + rtol))


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
    T, N = float(cfg["T"]), cfg["N"]
    t0 = time.perf_counter()
    res = maximize_obs(model, grid, cfg["L"], T, N, _opts(cfg))
    rep.timing["solve_s"] = time.perf_counter() - t0
    _solve_record(rep, model, grid, T, N, res)
    rep.checks["gap_nonnegative"] = res.fw_gap >= -1e-12
    _write_solution(_outdir(cfg), res)
    return rep


def _sweep_point(model, grid, cfg, T, a1, sigma1_max):
    """One sweep horizon: FW solve, certificate bounds (None with a warning
    when no certificate exists at T), ratio to the limit and distance to a1."""
    res = maximize_obs(model, grid, cfg["L"], T, cfg["N"], _opts(cfg))
    warning = None
    try:
        cert = lower_bound_certificate(model, grid, a1, T,
                                       cfg["certificate"]["nu"], L=cfg["L"])
        lower, upper = cert.lower_bound, cert.upper_bound
    except (ValueError, OverflowError) as e:
        lower = upper = None
        warning = f"no certificate at T={_horizon(T)}: {e}"
    lam1 = model.eigenvalues[0]
    g1 = tau(lam1, lam1, T).value().real
    ratio = res.value / (g1 * sigma1_max)
    d = l1_distance(res.a_star, a1)
    return res, lower, upper, ratio, d, warning


def run_sweep(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("sweep", cfg)
    s1 = maximize_sigma1(model, grid, cfg["L"], _opts(cfg))
    out = _outdir(cfg)

    # one pass in ascending T: each point is solved, recorded and written
    # before the next, so no earlier solution stays alive
    t0 = time.perf_counter()
    for T in sorted(float(t) for t in cfg["T"]):
        try:
            res, lower, upper, ratio, d, warning = _sweep_point(
                model, grid, cfg, T, s1.a_star, s1.value)
        except Exception as e:           # noqa: BLE001 - per-point diagnostics
            rep.warnings.append(f"T={T}: {e}")
            continue
        if warning:
            rep.warnings.append(warning)
        _solve_record(rep, model, grid, T, cfg["N"], res, lower_bound=lower,
                      upper_bound=upper, l1_dist=d, ratio=ratio)
        _write_solution(out, res, f"_T{_horizon(T)}")
    rep.timing["sweep_s"] = time.perf_counter() - t0
    if not rep.records:                  # the warnings are the failures
        raise RuntimeError("all sweep points failed: " + "; ".join(rep.warnings))
    _write_records_csv(out / "sweep.csv",
                       ["T", "value", "fw_gap", "lower_bound", "upper_bound",
                        "l1_dist", "ratio", "bangbang_frac"], rep.records)

    ratios = [r["ratio"] for r in rep.records]
    dists = [r["l1_dist"] for r in rep.records]
    floor = SATURATION_FLOOR_CELLS * float(grid.cell_measures.max())
    slope, intercept, window, saturated = fit_rate(
        [(r["T"], r["l1_dist"]) for r in rep.records], floor)
    rep.fit = {"slope": slope, "intercept": intercept, "window": window,
               "saturated": saturated, "floor": floor}

    rep.checks["r_nondecreasing"] = all(
        b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
    rep.checks["r_final"] = ratios[-1] >= SWEEP_R_FINAL_MIN
    rep.checks["d_nonincreasing"] = all(
        b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
    rep.checks["rate_slope"] = (not saturated) and slope is not None \
        and slope <= SWEEP_SLOPE_MAX
    rep.checks["sandwich"] = all(
        all(_sandwich(r["value"], r["fw_gap"], r["lower_bound"], r["upper_bound"],
                      SWEEP_SANDWICH_RTOL))
        for r in rep.records if r["lower_bound"] is not None)
    return rep


def run_limit(cfg) -> ExperimentReport:
    """Limit set and KKT check; if non-degenerate, the bathtub constant k,
    sliding ratios at SLIDE_SHIFTS and tube_linearity's own tube slope.

    k is [lower, upper] from exact_bathtub_constant: both exact, with the
    witness density written, when #J1 == 1; with #J1 > 1, where no
    build_model model has a non-degenerate solution, lower is the relaxed
    end and upper None. k is None when the floor on the distance leaves no
    admissible density. seed and sampler are accepted but not read.
    """
    model, grid = _build(cfg)
    rep = ExperimentReport("limit", cfg)
    L = cfg["L"]
    target = cfg["acceptance"]["mhat_target"]
    t0 = time.perf_counter()
    sol = limit_set(model, grid, L, _opts(cfg))
    rep.timing["limit_set_s"] = time.perf_counter() - t0
    rec = {"L": L, "sigma1": sol.sigma1_value, "mu_star": sol.mu_star,
           "alphas": [float(x) for x in sol.alphas],
           "degenerate": sol.degenerate,
           "bangbang_frac": bang_bang_fraction(sol.a1)}
    kk = kkt_check(grid, sol)
    rec["kkt_pass"] = kk.passed
    rec["kkt_margins"] = [kk.min_inside_minus_mu, kk.mu_minus_max_outside]

    out = _outdir(cfg)
    write_density_csv(out / "density_a1.csv", sol.a1)

    if not sol.degenerate:
        t0 = time.perf_counter()
        bc = exact_bathtub_constant(model, grid, sol)
        if bc.witness is not None:
            write_density_csv(out / "density_k_witness.csv", bc.witness)
        rep.timing["k_s"] = time.perf_counter() - t0
        rec["k"] = k = None if bc.lower is None else [bc.lower, bc.upper]
        rec["k_floor"] = bc.floor
        rec["k_D"] = bc.D
        rec["sliding_ratios"] = [sliding_ratio(model, grid, sol, h)
                                 for h in SLIDE_SHIFTS]
        m_hat, resid = tube_linearity(grid, sol)
        rec["tube_m_hat"] = m_hat
        rec["tube_residual"] = resid
        rep.checks["khat_positive"] = k is not None and k[0] > 0
        rep.checks["tube_residual"] = resid <= TUBE_RESIDUAL_MAX
        if target is not None:
            rep.checks["mhat"] = abs(m_hat - target) <= MHAT_RTOL * target
    rep.checks["kkt"] = kk.passed
    rep.records.append(rec)
    return rep


def run_smallt(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("smallt", cfg)
    L = cfg["L"]
    T = float(cfg["T"])
    Ns = sorted(cfg["N"])

    # descending-N warm starts keep the reported chain consistent with
    # the truncation monotonicity C^(N) >= C^(N+1)
    t0 = time.perf_counter()
    results = {}
    init = None
    for N in sorted(Ns, reverse=True):
        results[N] = maximize_obs(model, grid, L, T, N, _opts(cfg, init=init))
        init = results[N].a_star
    rep.timing["smallt_s"] = time.perf_counter() - t0

    for N in Ns:
        _solve_record(rep, model, grid, T, N, results[N], v=results[N].value / T)
    _write_records_csv(_outdir(cfg) / "smallt.csv", ["N", "v", "value", "fw_gap"],
                       rep.records)

    vs = [r["v"] for r in rep.records]
    rep.checks["value_floor"] = all(v >= L - SMALLT_VALUE_FLOOR_SLACK for v in vs)
    rep.checks["v_nonincreasing_in_N"] = all(
        b <= a + 1e-12 for a, b in zip(vs, vs[1:]))
    rep.checks["v_margin"] = vs[-1] <= L + SMALLT_MARGIN

    # Cesaro interior-compact deviation trend (needs its own mode count)
    ces_Ns = _N_LISTS["cesaro"]
    ces_model = build_model(cfg["model"]["name"], max(ces_Ns), **_model_params(cfg["model"]))
    devs = _cesaro_deviations(ces_model, grid, ces_Ns)
    rep.fit = {"cesaro_N": ces_Ns, "cesaro_dev": devs}
    rep.checks["cesaro_decreasing"] = all(
        b < a for a, b in zip(devs, devs[1:]))
    return rep


def _cesaro_deviations(model, grid, Ns):
    """L1 deviation of the Cesaro mean from 1/|Omega| on the interior
    compact: the centred box whose sides are COMPACT_FRACTION of the
    domain's, one value per N in Ns."""
    target = 1.0 / model.domain.measure
    mask = np.ones(grid.ncells, dtype=bool)
    for d, (lo, hi) in enumerate(model.domain.bounds):
        width = hi - lo
        pad = (1.0 - COMPACT_FRACTION) / 2.0 * width
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
    Ns = sorted(cfg["N"])
    devs = _cesaro_deviations(model, grid, Ns)
    for N, dev in zip(Ns, devs):
        rep.records.append({"N": N, "compact_l1_dev": dev})
    _write_records_csv(_outdir(cfg) / "cesaro.csv", ["N", "compact_l1_dev"],
                       rep.records)
    rep.checks["deviation_decreasing"] = all(
        b < a for a, b in zip(devs, devs[1:]))
    return rep


def _torus_family_member(grid, L, rng):
    """Degeneracy family member: mean-L density with no cos2x/sin2x part,
    frequencies up to TORUS_M and amplitude TORUS_ETA * min(L, 1 - L)."""
    x = grid.centers[:, 0]
    coefs = rng.uniform(-1.0, 1.0, size=(TORUS_M + 1, 2))
    vals = np.zeros(grid.ncells)
    for k in range(1, TORUS_M + 1):
        if k == 2:
            continue
        vals += coefs[k, 0] * np.cos(k * x) + coefs[k, 1] * np.sin(k * x)
    amp = np.abs(vals).max()
    scale = TORUS_ETA * min(L, 1.0 - L) / amp if amp > 0 else 0.0
    return DensityField(grid, np.clip(L + scale * vals, 0.0, 1.0))


def run_torus_deg(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("torus-deg", cfg)
    L = cfg["L"]
    rng = np.random.default_rng(cfg["seed"])

    base = DensityField(grid, np.full(grid.ncells, L))
    s_base = sigma1(model, grid, base)
    members = [_torus_family_member(grid, L, rng) for _ in range(TORUS_MEMBERS)]
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
    rep.checks["family_equal_sigma1"] = spread <= TORUS_EQUALITY_TOL
    rep.checks["two_distinct_maximizers"] = far >= TORUS_L1_MIN
    rep.checks["family_attains_max"] = max(abs(s - res.value) for s in svals) \
        <= TORUS_ATTAIN_TOL + res.fw_gap
    rep.checks["nonbangbang_maximizer"] = bang_bang_fraction(base) > 0.5 \
        and abs(s_base - res.value) <= TORUS_ATTAIN_TOL + res.fw_gap
    rep.checks["degenerate_detected"] = res.degenerate_flag
    out = _outdir(cfg)
    write_density_csv(out / "density_constant.csv", base)
    write_density_csv(out / "density_member0.csv", members[0])
    return rep


def run_certify(cfg) -> ExperimentReport:
    model, grid = _build(cfg)
    rep = ExperimentReport("certify", cfg)
    L, N = cfg["L"], cfg["N"]
    T = float(cfg["T"])
    s1 = maximize_sigma1(model, grid, L, _opts(cfg))
    cert = lower_bound_certificate(model, grid, s1.a_star, T,
                                   cfg["certificate"]["nu"], L=L)
    t0 = time.perf_counter()
    res = maximize_obs(model, grid, L, T, N, _opts(cfg))
    rep.timing["solve_s"] = time.perf_counter() - t0
    _solve_record(rep, model, grid, T, N, res, certificate=cert.as_dict())
    rep.checks["rel_gap"] = res.fw_gap <= CERTIFY_MAX_REL_GAP * max(res.value, 1e-300)
    rep.checks["lower_below_estimate"], rep.checks["value_below_upper"] = _sandwich(
        res.value, res.fw_gap, cert.lower_bound, cert.upper_bound, CERTIFY_SANDWICH_RTOL)
    _write_solution(_outdir(cfg), res)
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
    _write_csv(_outdir(cfg) / "modes.csv", ["j", "re", "im", "in_J1"],
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
            cfg["out"] = _check_out(args.out)
        if args.seed is not None:
            cfg["seed"] = _check_int(args.seed, "seed", 0)
        t0 = time.perf_counter()
        rep = RUNNERS[cfg["experiment"]](cfg)
        rep.timing["total_s"] = time.perf_counter() - t0
        rep.write(_outdir(cfg))
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
