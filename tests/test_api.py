import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import herdfilter


def test_every_export_resolves():
    # a deleted name must not linger in any __all__
    modules = [herdfilter] + [
        importlib.import_module(f"herdfilter.{info.name}")
        for info in pkgutil.iter_modules(herdfilter.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_import_does_not_load_scipy_stats():
    # scipy.stats.qmc.Sobol would give SobolStream's bits, but importing
    # scipy.stats raised `python -c "import herdfilter"` from 0.54 s to 0.97 s
    # and from 67 to 100 MB peak RSS (2 vCPU, Python 3.11, scipy 1.17); that
    # cost lands in the benchmark's setup_s and peak_rss_mb
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import herdfilter, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_bench_tracer_patches_and_restores(monkeypatch):
    # bench/layers.py patches module attributes by name and counts the calls
    # made through them: a dropped name breaks `bench/run.py --trace 1`, and a
    # call that bypasses the module global goes uncounted
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    layers = importlib.import_module("layers")
    rng = np.random.default_rng(40)
    p = herdfilter.GaussianMixture(
        np.full(5, 0.2), rng.uniform(-2.0, 2.0, (5, 2)), np.stack([np.eye(2)] * 5)
    )
    tracer = layers.Tracer()
    try:
        tracer.install(herdfilter)
        patched = list(tracer._patches)
        trace = []
        herdfilter.fw_quad(p, herdfilter.KernelConfig(1.0, 2), 8, 200,
                           herdfilter.FwVariant.FCFW, rng_seed=3, objective_trace=trace)
        stats = tracer.take()
    finally:
        tracer.uninstall()
    assert len(trace) == 8
    assert stats["fw_quad.simplex_qp_solve.calls"] == len(trace)
    assert stats["fw_quad.fw_vertex_search.calls"] == len(trace)
    assert stats["fw_quad.fw_quad.calls"] == 1
    assert stats.get("fw_quad.qp_fallbacks", 0) == 0
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


def test_bench_workloads_build(monkeypatch):
    # building a workload checks its inputs against bench/oracles.py, among
    # them clgss_filter's hand-written joint matrices of the uncoupled model:
    # a models change that breaks one fails here, not only in bench/run.py
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    for name, build in workloads.BUILDERS.items():
        assert build(herdfilter, 0).ops, name


def test_bench_tracer_wraps_model_callables(monkeypatch):
    # bench/layers.py rebuilds StateSpaceModel and ClgssParams by field name:
    # a renamed field breaks `bench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    layers = importlib.import_module("layers")
    tracer = layers.Tracer()
    lgss = tracer.wrap_model(herdfilter.make_lgss(0, d=2, m=1)[0])
    params, joint = tracer.wrap_clgss(herdfilter.make_clgss(0, coupled=False)[1])
    lgss.transition_parts(np.zeros((3, 2)), 1)
    lgss.log_likelihood_batch(np.zeros((3, 2)), [0.0], 1)
    x = np.zeros(4)
    params.drift(x, 1)
    params.lin_trans(x)
    params.lin_obs(x)
    params.obs_offset(x)
    joint.transition_parts(np.zeros((4, 3)), 1)  # drift and lin_trans
    joint.log_likelihood_batch(np.zeros((4, 3)), [0.0], 1)  # lin_obs and obs_offset
    stats = tracer.take()
    assert stats["models.transition_parts.calls"] == 2
    assert stats["models.transition_parts.points"] == 7
    assert stats["models.log_likelihood_batch.calls"] == 2
    assert stats["models.log_likelihood_batch.points"] == 7
    assert stats["models.clgss_callable.calls"] == 8
