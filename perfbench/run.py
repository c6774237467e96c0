#!/usr/bin/env python3
"""obsgrid benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload sweep1d --seed 0 --seconds 30 --trace 0

Run from the repository root. Load is closed-loop: one caller runs the
workload in a fresh process (perfbench/child.py), waits for it, and starts
the next, until --seconds have passed. Every runner writes its CSVs into a
temporary directory under the root that is removed afterwards.

--trace 0 reports the end-to-end metrics: median wall time of the runner
call, median set-up time (at least SETUP_SAMPLES processes), median peak
RSS. --trace 1 alternates untraced and traced processes and reports the
per-layer metrics of the traced ones (medians), the tracing overhead, and
the 96x96 x 20-mode kernel case. Every runner result is checked against
perfbench/reference.json; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "spectral.build_model.s": "s",
    "geometry.make_grid.s": "s",
    "geometry.bathtub.calls": "count",
    "geometry.bathtub.busy_s": "s",
    "geometry.bathtub.p50_us": "us",
    "geometry.project_box_mean.calls": "count",
    "geometry.project_box_mean.busy_s": "s",
    "gram.basis.s": "s",
    "gram.mass.calls": "count",
    "gram.mass.busy_s": "s",
    "gram.mass.p50_us": "us",
    "gram.mass.flops": "flop",
    "gram.mass.bytes": "B",
    "gram.mass.k96x20_ms": "ms",
    "gram.form_cells.calls": "count",
    "gram.form_cells.busy_s": "s",
    "gram.form_cells.p50_us": "us",
    "gram.form_cells.flops": "flop",
    "gram.form_cells.bytes": "B",
    "gram.form_cells.k96x20_ms": "ms",
    "gram.eig.calls": "count",
    "gram.eig.busy_s": "s",
    "gram.eig.p50_us": "us",
    "gram.eig.p99_us": "us",
    "optimize.fw.iterations": "count",
    "optimize.fw.restarts": "count",
    "optimize.line_search.calls": "count",
    "optimize.line_search.busy_s": "s",
    "optimize.line_search.self_s": "s",
    "optimize.line_search.evals_per_call": "count",
    "optimize.rel_gap_max": "ratio",
    "limit.sigma1.calls": "count",
    "limit.sigma1.busy_s": "s",
    "limit.khat.busy_s": "s",
    "limit.khat.used_frac": "ratio",
    "cli.self_s": "s",
    "cli.sweep.point_max_s": "s",
    "cli.sweep.workers": "count",
    "cli.sweep.overlap": "ratio",
    "trace.thread_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
    "unconverged_frac": "ratio",
}


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, out: Path):
        self.root, self.workload, self.seed, self.out = root, workload, seed, out
        self.ref = workloads.load_reference()[workload]
        self.attempted = self.failed = 0
        self.solves = self.unconverged = 0   # solve records that passed the check
        self.correct = True
        self.n = 0

    def child(self, mode: str) -> dict | None:
        """Run one fresh process; None if it failed."""
        self.n += 1
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(self.root),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(self.out / f"{mode}{self.n}"), "--mode", mode]
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{mode} process timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or "error" in result:
            sys.stderr.write(proc.stderr)
            return None
        return result

    def runner(self, mode: str) -> dict | None:
        """One runner call, checked against the reference; None if it raised."""
        result = self.child(mode)
        n = len(self.ref["records"])
        bad = workloads.failed_records(result, self.ref)
        if result is not None and mode == "trace" and not result["restored"]:
            print("tracer left a patched name behind", file=sys.stderr)
            bad = n
        self.attempted += n
        self.failed += bad
        if bad:
            self.correct = False
        elif result is not None:
            self.solves += n
            self.unconverged += workloads.unconverged_records(result)
        return result


def _median(results, key):
    return statistics.median(r[key] for r in results)


def _loop(bench: Bench, seconds: float, modes) -> dict:
    """Closed loop over `modes` until `seconds` have passed.

    Stops early when some mode has no completed runner call after a round.
    """
    done = {mode: [] for mode in modes}
    t0 = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        rounds += 1
        for mode in modes:
            r = bench.runner(mode)
            if r is not None:
                done[mode].append(r)
        if not all(done.values()):
            break
    return done


def end_to_end(bench: Bench, seconds: float) -> dict:
    runs = _loop(bench, seconds, ("run",))["run"]
    setups = [r["setup_s"] for r in runs]
    while runs and len(setups) < SETUP_SAMPLES:
        r = bench.child("setup")
        if r is None:
            bench.correct = False
            return {}
        setups.append(r["setup_s"])
    if not runs:
        return {}
    print(f"# {len(runs)} runner processes, {len(setups)} set-up samples")
    return {"wall_s": _median(runs, "wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _median(runs, "peak_rss_mb")}


def per_layer(bench: Bench, seconds: float) -> dict:
    done = _loop(bench, seconds, ("run", "trace"))
    plain, traced = done["run"], done["trace"]
    kern = bench.child("kernels")
    bench.attempted += 1
    if kern is None or not kern["ok"]:
        bench.failed += 1
        bench.correct = False
    if not plain or not traced or kern is None:
        return {}
    print(f"# {len(plain)} untraced and {len(traced)} traced runner processes")
    m = {k: statistics.median(r["metrics"][k] for r in traced) for k in traced[0]["metrics"]}
    m.update(kern["metrics"])
    m["trace.overhead_frac"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0
    return m


def layout_problems(root: Path, workload: str) -> list[str]:
    need = [root / "src" / "obsgrid" / "cli.py", HERE / "reference.json"]
    spec = workloads.WORKLOADS.get(workload)
    if spec is None:
        return [f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}"]
    if isinstance(spec, str):
        need.append(root / spec)
    return [f"missing {p}" for p in need if not p.is_file()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    root = Path.cwd()
    problems = layout_problems(root, args.workload)
    if problems:
        print("cannot run the benchmark here: " + "; ".join(problems), file=sys.stderr)
        return 2

    out = Path(tempfile.mkdtemp(prefix=".perfbench-out-", dir=root))
    try:
        bench = Bench(root, args.workload, args.seed, out)
        warm = bench.child("setup")      # fills the bytecode caches; not timed
        if warm is None:
            return 1
        print("env " + json.dumps(warm["env"], sort_keys=True))
        if args.trace:
            metrics, units = per_layer(bench, args.seconds), LAYER_UNITS
        else:
            metrics, units = end_to_end(bench, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not metrics:
        print(f"no result: {bench.failed} of {bench.attempted} records failed",
              file=sys.stderr)
        return 1
    metrics["failed_frac"] = bench.failed / bench.attempted
    metrics["unconverged_frac"] = bench.unconverged / max(bench.solves, 1)
    for k in {**units, "failed_frac": "ratio", "unconverged_frac": "ratio"}:
        print(f"{k:36s} {metrics[k]:16.6g} {units.get(k, 'ratio')}")
    if bench.workload == "sweep1d" and args.trace:
        print("# busy_s and shares are thread time summed over sweep workers "
              "(GIL waits included); compare with trace.thread_s")
    print(json.dumps({
        "correct": bench.correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
