"""One fresh benchmark process: set up, run one workload once, print JSON.

    python3 perfbench/child.py --root . --workload NAME --seed N --out DIR
                               --mode run|trace|setup|kernels

Modes:
  setup    time the set-up only (import obsgrid, validate the config, build
           the model, the grid and the mode basis), and record the
           environment;
  run      set up, then call the runner untraced;
  trace    set up, then call the runner with every layer wrapped;
  kernels  time ModeBasis.mass and ModeBasis.form_cells alone on a 96x96
           grid with 20 modes.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

KERNEL_CELLS, KERNEL_MODES, KERNEL_REPEAT = 96, 20, 7


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it is not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    from obsgrid import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": _blas_threads(),
            "OBSGRID_THREADS": os.environ.get("OBSGRID_THREADS"),
            "OBSGRID_BACKEND": os.environ.get("OBSGRID_BACKEND"),
            "kernel_backend": _kernels.BACKEND,
            "numba_importable": importlib.util.find_spec("numba") is not None}


def kernel_case(seed: int) -> dict:
    """Median ms of mass and form_cells at 96x96 cells, 20 modes.

    Also checks the two kernels against each other: for any density a and
    weight matrix W, sum_c a_c form_cells(W)_c = Re sum_ij W_ij M(a)_ij.
    """
    import numpy as np
    from obsgrid.geometry import make_grid
    from obsgrid.gram import ModeBasis
    from obsgrid.spectral import build_model

    model = build_model("dirichlet_rect_2d", KERNEL_MODES)
    grid = make_grid(model.domain, (KERNEL_CELLS, KERNEL_CELLS), 3)
    basis = ModeBasis(model, grid, tuple(range(1, KERNEL_MODES + 1)))
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, grid.ncells)
    b = rng.standard_normal(KERNEL_MODES) + 1j * rng.standard_normal(KERNEL_MODES)
    W = np.outer(b, b.conj())

    def timed(fn, *args):
        out, times = None, []
        for _ in range(KERNEL_REPEAT):
            t0 = time.perf_counter()
            out = fn(*args)
            times.append(time.perf_counter() - t0)
        return out, 1e3 * statistics.median(times)

    M, mass_ms = timed(basis.mass, a)
    F, form_ms = timed(basis.form_cells, W)
    lhs, rhs = float(a @ F), float(np.sum(W * M).real)
    ok = abs(lhs - rhs) <= workloads.REL_TOL * max(abs(lhs), abs(rhs))
    return {"ok": bool(ok), "metrics": {"gram.mass.k96x20_ms": mass_ms,
                                        "gram.form_cells.k96x20_ms": form_ms}}


def run(args) -> dict:
    root = Path(args.root).resolve()
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    if args.mode == "kernels":
        return kernel_case(args.seed)
    from obsgrid import cli
    from obsgrid.geometry import make_grid
    from obsgrid.gram import ModeBasis
    from obsgrid.spectral import build_model

    cfg = cli.validate_config(workloads.raw_config(root, args.workload, args.seed, args.out))
    model = build_model(cfg["model"]["name"], cfg["model"]["n_max"])
    grid = make_grid(model.domain, cfg["grid"]["cells"], cfg["grid"]["gauss_order"])
    basis = ModeBasis(model, grid, workloads.setup_modes(cfg, model))
    setup_s = time.perf_counter() - t0
    del model, grid, basis
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        out["env"] = environment()
        return out

    runner = cli.RUNNERS[cfg["experiment"]]
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer().install()
        try:
            rep = tracer.root(runner, cfg)
        finally:
            tracer.uninstall()
        out["wall_s"] = tracer.root_t1 - tracer.root_t0
    else:
        t0 = time.perf_counter()
        rep = runner(cfg)
        out["wall_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["records"] = workloads.brackets(rep)
    out["checks"] = {k: bool(v) for k, v in rep.checks.items()}
    out["tol"] = cfg["optimizer"]["tol"]
    if tracer is not None:
        out["restored"] = tracer.patched_sites_restored()
        out["metrics"] = tracer.layer_metrics(rep.timing.get("sweep_s"))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", required=True, choices=("run", "trace", "setup", "kernels"))
    args = ap.parse_args()
    try:
        result = run(args)
    except Exception:  # noqa: BLE001 - reported to the parent as a failed run
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc(limit=1).strip()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
