"""The tracer wraps every binding site, counts calls there, and restores them.

    python3 -m pytest perfbench/test_tracer.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import obsgrid  # noqa: E402
from obsgrid import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

# Sites where the library looks a name up from another module; wrapping
# only the defining module would leave these calls unseen.
IMPORTED_SITES = [
    ("obsgrid.optimize", "reduce_min_eig"), ("obsgrid.optimize", "min_eig_cluster"),
    ("obsgrid.optimize", "bathtub"), ("obsgrid.optimize", "project_box_mean"),
    ("obsgrid.limit", "bathtub"), ("obsgrid.limit", "project_box_mean"),
    ("obsgrid.cli", "sigma1"), ("obsgrid.cli", "estimate_bathtub_constant"),
]


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "obsgrid" or name.startswith("obsgrid."))}


def _small_configs(out):
    base = {"version": 1, "model": {"name": "dirichlet_1d", "n_max": 6},
            "grid": {"cells": 128, "gauss_order": 3}, "L": 0.5, "seed": 3}
    return [
        {**base, "experiment": "sweep", "T": [1.0, 1.5, 2.0, 2.5], "N": 4,
         "certificate": {"nu": 0.99}, "out": str(out / "sweep")},
        {**base, "experiment": "limit", "model": {"name": "dirichlet_rect_2d", "n_max": 4},
         "grid": {"cells": [16, 16], "gauss_order": 3}, "L": 0.3,
         "sampler": {"n_samples": 12}, "out": str(out / "limit")},
    ]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    before = _namespaces()
    methods = dict(vars(obsgrid.gram.ModeBasis))
    tracer = Tracer().install()
    try:
        def run_all():
            for raw in _small_configs(out):
                cfg = cli.validate_config(raw)
                cli.RUNNERS[cfg["experiment"]](cfg)
        tracer.root(run_all)
    finally:
        tracer.uninstall()
    return tracer, before, methods


def test_every_patched_name_is_the_original_again(traced):
    tracer, before, methods = traced
    assert tracer.patched_sites_restored()
    after = _namespaces()
    for name, ns in before.items():
        for key, value in ns.items():
            assert after[name][key] is value, f"{name}.{key} not restored"
    for key, value in methods.items():
        assert vars(obsgrid.gram.ModeBasis)[key] is value


def test_imported_bindings_are_wrapped(traced):
    tracer, _, _ = traced
    sites = set(tracer.patched_sites())
    for site in IMPORTED_SITES:
        assert site in sites


def test_layers_count_calls(traced):
    tracer, _, _ = traced
    m = tracer.layer_metrics(sweep_wall_s=1.0)
    for key in ("gram.eig.calls", "optimize.line_search.calls", "geometry.bathtub.calls",
                "geometry.project_box_mean.calls", "gram.mass.calls",
                "gram.form_cells.calls", "limit.sigma1.calls", "cli.sweep.workers"):
        assert m[key] > 0, key
    assert m["optimize.line_search.evals_per_call"] >= 2
    assert 0.0 < m["limit.khat.used_frac"] <= 1.0
    assert 0.0 <= m["cli.self_s"] <= m["trace.thread_s"]
