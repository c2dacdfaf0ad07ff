"""End-to-end acceptance gate: one test per numbered criterion.

Each test prints a single `criterion NN PASS` line (visible under -s, and
pytest -v reports pass/fail per criterion either way). Scales follow the
desk defaults; the two timed grids assert their wall-clock budgets.
"""

import csv
import time

import numpy as np
import pytest

import herdfilter.cli as cli
import herdfilter.harness as H
from herdfilter import (
    FwVariant,
    KernelConfig,
    MC_MULTINOMIAL,
    MC_STRATIFIED,
    TransitionMixture,
    WeightedParticleSet,
    fw_quad,
    grid_filter,
    jmls_exact_filter,
    kalman_run,
    make_clgss,
    make_jmls,
    make_lgss,
    mean_map_sqnorm,
    mmd,
    pf_step,
    run_filter,
    run_rbpf,
    simulate,
)
from herdfilter.fw_quad import simplex_qp_solve
from herdfilter.kernels import GaussianMixture
from herdfilter.models import LgssParams, lgss_model, uncoupled_clgss_joint


def report(num: int, detail: str) -> None:
    print(f"criterion {num:2d} PASS: {detail}")


def rmse_medians(rows):
    by = {}
    for r in rows:
        if r.metric == "rmse":
            by.setdefault((r.method, r.n), []).append(r.value)
    return {key: float(np.median(v)) for key, v in by.items()}


@pytest.fixture(scope="module")
def quad_grid():
    """Shared desk-scale quadrature grid (criteria 1 and 2)."""
    cfg = H.ExperimentConfig(
        kind="quad", out=None, samplers=("mc", "qmc", "fw", "fcfw"),
        sigma2s=(1.0,), n_grid=(10, 20, 50, 100, 200), m=20_000,
        seeds=5, batches=1, t=1,
        mixture_dim=2, mixture_components=100, mixture_seed=1,
    )
    t0 = time.perf_counter()
    rows = H.run_quad_experiment(cfg)
    return rows, time.perf_counter() - t0


def test_criterion_01_quadrature_ordering(quad_grid):
    rows, elapsed = quad_grid
    med = {}
    for r in rows:
        if r.metric == "mmd" and r.n == 100:
            med.setdefault(r.method, []).append(r.value)
    med = {meth: float(np.median(v)) for meth, v in med.items()}
    # each adjacent pair separated by at least 5% relative
    assert med["fcfw"] <= 0.95 * med["fw"]
    assert med["fw"] <= 0.95 * med["qmc"]
    assert med["qmc"] <= 0.95 * med["mc"]
    assert elapsed < 300.0
    report(1, f"N=100 medians fcfw {med['fcfw']:.4f} < fw {med['fw']:.4f}"
              f" < qmc {med['qmc']:.4f} < mc {med['mc']:.4f} ({elapsed:.0f}s)")


def test_criterion_02_mc_rate(quad_grid):
    rows, _ = quad_grid
    slope = [r.value for r in rows if r.metric == "slope" and r.method == "mc"][0]
    assert abs(slope - (-0.5)) <= 0.15
    report(2, f"mc log-log slope {slope:.3f} within -0.5 +/- 0.15")


def test_criterion_03_mc_mean_map_bound():
    p = H.sample_mixture_family(2, 20, seed=3)
    k = KernelConfig(1.0, 2)
    n = 10
    bound = (1.0 - mean_map_sqnorm(p, k)) / n
    sq = []
    for s in range(200):
        pts, comps = p.sample(n, np.random.default_rng(s))
        est = WeightedParticleSet(pts, np.full(n, 1.0 / n), comps)
        sq.append(mmd(p, est, k) ** 2)
    mean_sq = float(np.mean(sq))
    assert mean_sq <= 1.1 * bound
    report(3, f"mean MMD^2 {mean_sq:.5f} <= 1.1 x bound {1.1 * bound:.5f}")


def test_criterion_04_fw_uniform_weights():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        comps = int(rng.integers(1, 30))
        n = int(rng.integers(2, 60))
        p = H.sample_mixture_family(d, comps, seed=int(rng.integers(1 << 16)))
        out, _ = fw_quad(p, KernelConfig(1.0, d), n, 200, FwVariant.FW,
                         rng_seed=int(rng.integers(1 << 16)))
        worst = max(worst, float(np.abs(out.weights - 1.0 / out.n).max()))
    assert worst <= 1e-15
    report(4, f"FW weight deviation from uniform <= {worst:.2e} over 20 instances")


def test_criterion_05_fcfw_monotone_and_qp_kkt():
    rng = np.random.default_rng(5)
    worst_jump = -np.inf
    for _ in range(100):
        d = int(rng.integers(1, 4))
        p = H.sample_mixture_family(d, int(rng.integers(2, 20)),
                                    seed=int(rng.integers(1 << 16)))
        trace: list = []
        fw_quad(p, KernelConfig(float(rng.uniform(0.5, 2.0)), d), 10, 200,
                FwVariant.FCFW, rng_seed=int(rng.integers(1 << 16)),
                objective_trace=trace)
        jumps = np.diff(trace)
        if jumps.size:
            worst_jump = max(worst_jump, float(jumps.max()))
    assert worst_jump <= 1e-12

    # corrective QP against a dense simplex grid, k <= 3; gram matrices are
    # genuine Gaussian-kernel matrices built without touching the package
    worst_kkt = 0.0
    grid = np.linspace(0.0, 1.0, 101)
    for trial in range(200):
        k_atoms = int(rng.integers(1, 4))
        pts = rng.uniform(-2.0, 2.0, size=(k_atoms, 2))
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        gram = np.exp(-sq / (2.0 * float(rng.uniform(0.3, 2.0))))
        lin = rng.random(k_atoms)
        w, _ = simplex_qp_solve(gram, lin)
        g = 2.0 * (gram @ w - lin)
        lam = g.min()
        worst_kkt = max(worst_kkt, float((g[w > 0] - lam).max()))
        # grid-search oracle upper-bounds the optimum
        if k_atoms == 1:
            cand = np.array([[1.0]])
        elif k_atoms == 2:
            cand = np.stack([grid, 1.0 - grid], axis=1)
        else:
            aa, bb = np.meshgrid(grid, grid)
            keep = aa + bb <= 1.0 + 1e-12
            cand = np.stack([aa[keep], bb[keep], 1.0 - aa[keep] - bb[keep]], axis=1)
        vals = np.einsum("ci,ij,cj->c", cand, gram, cand) - 2.0 * (cand @ lin)
        best = float(vals.min())
        j_solver = float(w @ gram @ w - 2.0 * (lin @ w))
        assert j_solver <= best + 1e-9
    assert worst_kkt <= 1e-8
    report(5, f"FCFW objective monotone (worst jump {worst_jump:.1e});"
              f" QP KKT residual <= {worst_kkt:.1e} vs grid oracle")


@pytest.fixture(scope="module")
def lgss_grid():
    """Shared LGSS filtering grid (criterion 6)."""
    cfg = H.ExperimentConfig(
        kind="filter", out=None,
        samplers=("mc_stratified", "skh_fw", "skh_fcfw"),
        sigma2s=(1.0,), n_grid=(20, 50, 100), m=20_000,
        seeds=1, batches=10, t=50,
        model_kind="lgss", model_dim=3, model_obs_dim=1, model_seed=0,
    )
    t0 = time.perf_counter()
    rows = H.run_filter_experiment(cfg)
    return rows, time.perf_counter() - t0


def test_criterion_06_lgss_rmse_ordering(lgss_grid):
    rows, elapsed = lgss_grid
    med = rmse_medians(rows)
    for n in (20, 50, 100):
        assert med[("skh_fw", n)] <= med[("mc_stratified", n)]
        assert med[("skh_fcfw", n)] <= med[("mc_stratified", n)]
    assert elapsed < 600.0
    pairs = ", ".join(
        f"N={n}: fw {med[('skh_fw', n)]:.3f}/fcfw {med[('skh_fcfw', n)]:.3f}"
        f" <= pf {med[('mc_stratified', n)]:.3f}"
        for n in (20, 50, 100)
    )
    report(6, f"{pairs} ({elapsed:.0f}s)")


def test_criterion_07_jmls_exact_vs_bootstrap():
    model, params = make_jmls(31)
    traj = simulate(model, 10, seed=2)
    res = jmls_exact_filter(params, traj.observations)
    assert len(res.branches) == 2**10
    k = KernelConfig(1.0, model.dim_x)
    finals = np.array([
        run_filter(model, traj.observations, MC_STRATIFIED, 1_000_000, k,
                   seed=100 + s, keep_particles=False).filtered_means[-1]
        for s in range(5)
    ])
    se = finals.std(axis=0, ddof=1) / np.sqrt(finals.shape[0])
    dev = np.abs(finals.mean(axis=0) - res.filt_means[-1])
    assert np.all(dev <= 3.0 * se)
    report(7, f"2^10 branches; |exact - PF| = {dev.round(4)} <= 3 SE {(3*se).round(4)}")


def test_criterion_08_nonlinear_rmse_ordering():
    cfg = H.ExperimentConfig(
        kind="filter", out=None, samplers=("mc_stratified", "skh_fw"),
        sigma2s=(0.1,), n_grid=(100,), m=20_000,
        seeds=1, batches=10, t=50,
        model_kind="nonlinear", model_dim=1, model_obs_dim=1, model_seed=0,
    )
    rows = H.run_filter_experiment(cfg)
    med = rmse_medians(rows)
    assert med[("skh_fw", 100)] <= med[("mc_stratified", 100)]
    report(8, f"nonlinear N=100: skh_fw {med[('skh_fw', 100)]:.3f}"
              f" <= bootstrap {med[('mc_stratified', 100)]:.3f}")


def test_criterion_09_search_pool_monotone():
    p = H.sample_mixture_family(2, 20, seed=0)
    k = KernelConfig(1.0, 2)
    med = []
    for m in (100, 1000, 10000):
        errs = [fw_quad(p, k, 50, m, FwVariant.FW, rng_seed=s)[1] for s in range(10)]
        med.append(float(np.median(errs)))
    assert med[0] >= med[1] >= med[2]
    report(9, "median fw_error over M in {100,1000,10000}: "
              + " >= ".join(f"{v:.4f}" for v in med))


def test_criterion_10_stratified_count_bounds():
    rng = np.random.default_rng(10)
    k = KernelConfig(1.0, 1)
    for trial in range(1000):
        comps = int(rng.integers(2, 41))
        n = int(rng.integers(1, 301))
        raw = rng.random(comps) + 1e-9
        w = raw / raw.sum()
        mix = GaussianMixture(
            w, np.arange(comps, dtype=float)[:, None] * 100.0,
            np.full((comps, 1, 1), 1e-6),
        )
        tm = TransitionMixture(mix, np.arange(comps, dtype=np.intp))
        out, _ = pf_step(MC_STRATIFIED, tm, n, k, seed=[trial, 1])
        counts = np.bincount(out.ancestry, minlength=comps)
        scaled = n * w
        assert np.all(counts >= np.floor(scaled))
        assert np.all(counts <= np.ceil(scaled))
    report(10, "floor/ceil count bounds held on 1000 random weight vectors")


def test_criterion_11_oracle_agreement():
    # 1-d grid filter vs Kalman
    params = LgssParams(
        trans_mat=np.array([[0.7]]), obs_mat=np.array([[1.0]]),
        process_cov=np.array([[0.3]]), obs_cov=np.array([[0.1]]),
        init_mean=np.zeros(1), init_cov=np.eye(1),
    )
    model = lgss_model(params)
    traj = simulate(model, 50, seed=11)
    kt = kalman_run(params, traj.observations)
    res = grid_filter(model, traj.observations, (-8.0, 8.0, 2001))
    grid_dev = float(np.abs(kt.filt_means.ravel() - res.means.ravel()).max())
    assert grid_dev <= 1e-3

    # RBPF on the linear-collapse model vs the joint Kalman filter
    joint_model, cl = make_clgss(0, coupled=False)
    traj2 = simulate(joint_model, 20, seed=12)
    out = run_rbpf(cl, traj2.observations, MC_MULTINOMIAL, 40,
                   KernelConfig(1.0, 1), seed=0)
    ref = kalman_run(uncoupled_clgss_joint(), traj2.observations)
    z_means = np.array([gm.moments()[0] for gm in out.z_posteriors])
    rb_dev = float(np.abs(z_means - ref.filt_means[:, 1:]).max())
    rb_dev = max(rb_dev, float(
        np.abs(out.trace.filtered_means.ravel() - ref.filt_means[:, 0]).max()
    ))
    assert rb_dev <= 1e-8
    report(11, f"grid-vs-Kalman dev {grid_dev:.2e} <= 1e-3;"
               f" RBPF collapse dev {rb_dev:.2e} <= 1e-8")


def strip_runtime(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    i = rows[0].index("runtime_ms")
    return [[c for j, c in enumerate(r) if j != i] for r in rows]


def test_criterion_12_reproducible_csv(tmp_path):
    quad_ini = tmp_path / "quad.ini"
    quad_ini.write_text(
        "[experiment]\nkind = quad\n"
        "[mixture]\ndim = 2\ncomponents = 20\nseed = 0\n"
        "[methods]\nsamplers = mc, qmc, fw, fcfw\nsigma2 = 1.0\n"
        "[grid]\nn = 10, 50\nm = 2000\nseeds = 3\n",
        encoding="utf-8",
    )
    filt_ini = tmp_path / "filter.ini"
    filt_ini.write_text(
        "[experiment]\nkind = filter\n"
        "[model]\nkind = lgss\ndim = 2\nobs_dim = 1\nseed = 3\n"
        "[methods]\nsamplers = mc_stratified, skh_fw\nsigma2 = 1.0\n"
        "[grid]\nn = 20\nm = 500\nbatches = 2\nt = 10\n",
        encoding="utf-8",
    )
    for name, ini in (("quad", quad_ini), ("filter", filt_ini)):
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert cli.main([name, "--config", str(ini), "--out", str(a)]) == 0
        assert cli.main([name, "--config", str(ini), "--out", str(b)]) == 0
        assert strip_runtime(a) == strip_runtime(b)
    report(12, "two runs per config identical apart from runtime_ms")
