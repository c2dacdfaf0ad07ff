"""The benchmark's workloads: inputs made from the seed, operations, checks.

An operation is one quadrature rule or one filter run, made through
herdfilter's public API. Each operation's check judges its output against
an oracle from `oracles.py` and returns the RMSE that enters `mean_rmse`
(None for an operation kept out of it). A failed check raises CheckFailed.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle or its bounds."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable  # models dict -> program output
    check: Callable  # program output -> RMSE or None; raises CheckFailed


@dataclass
class Workload:
    ops: list
    models: dict  # the untraced models the operations run on
    warmup: Callable  # one small untimed call through each code path
    traced_models: Callable  # Tracer -> the same models with traced closures


def _oracle_kalman(hf, params, ys) -> dict:
    """The independent Kalman filter, checked against the package's kalman_run."""
    kal = oracles.kalman(params.trans_mat, params.obs_mat, params.process_cov,
                         params.obs_cov, params.init_mean, params.init_cov, ys)
    ref = hf.kalman_run(params, ys)
    dev = max(
        float(np.abs(ref.filt_means - kal["means"]).max()),
        float(np.abs(ref.log_evidence - kal["log_z"]).max()),
    )
    require(dev <= 1e-9, f"independent Kalman differs from kalman_run by {dev:.3e}")
    return kal


def _isotropic_var(cov) -> float:
    cov = np.asarray(cov, dtype=float)
    var = float(cov[0, 0])
    require(np.array_equal(cov, var * np.eye(cov.shape[0])), "covariance is not isotropic")
    return var


def _judge(means, log_z, kal, delta: float) -> float:
    """RMSE against the Kalman means, within bounds set by the Kalman spread.

    delta is the error the filter may make, in units of the Kalman spread:
    the RMSE may reach delta * sqrt(mean_t tr P_t), and the log evidence may
    miss by sum_t (delta |e_t| / sqrt(S_t) + delta^2 / 2), which is what a
    predicted observation mean off by delta sqrt(S_t) at each step costs.
    """
    require(np.all(np.isfinite(means)) and np.all(np.isfinite(log_z)), "non-finite output")
    diff = means - kal["means"]
    rmse = float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))
    spread = float(np.sqrt(np.mean(np.trace(kal["covs"], axis1=1, axis2=2))))
    require(rmse <= delta * spread, f"RMSE {rmse:.4g} above {delta:.3g} x spread {spread:.4g}")
    e, s = kal["innov"], kal["innov_cov"]
    z = np.sqrt(np.einsum("ti,tij,tj->t", e, np.linalg.inv(s), e))
    bound = float(np.sum(delta * z + 0.5 * delta * delta))
    miss = abs(float(log_z[-1]) - float(kal["log_z"][-1]))
    require(miss <= bound, f"log evidence off by {miss:.4g}, bound {bound:.4g}")
    return rmse


# ---------------------------------------------------------------------------
# quad: herding quadrature on the criterion-1 fixture

QUAD_N = (10, 20, 50, 100, 200)  # the n grid of criterion 1
QUAD_POOLS = 4  # pool seeds per run
QUAD_M = 20_000


def quad(hf, seed: int) -> Workload:
    p = hf.sample_mixture_family(2, 100, seed=1)
    k = hf.KernelConfig(1.0, 2)
    var = p.covs[p.cov_map, 0, 0]
    require(np.array_equal(p.covs[p.cov_map], var[:, None, None] * np.eye(2)),
            "criterion-1 fixture is not isotropic")
    oracle = oracles.IsoMixtureMmd(p.weights, p.means, var, k.sigma2)
    target_mean = p.weights @ p.means
    dev = p.means - target_mean
    spread = float(np.sqrt(p.weights @ (2.0 * var + np.sum(dev * dev, axis=1))))

    rng = np.random.default_rng(12345)
    pts = rng.uniform(-5.0, 5.0, size=(50, 2))
    w = rng.random(50)
    w /= w.sum()
    ref = hf.mmd(p, hf.WeightedParticleSet(pts, w), k)
    require(abs(ref - oracle(pts, w)) <= 1e-9, "independent MMD differs from mmd")

    def op(variant, n, pool_seed):
        fcfw = variant is hf.FwVariant.FCFW

        def run(models):
            trace = [] if fcfw else None
            out, err = hf.fw_quad(p, k, n, QUAD_M, variant, rng_seed=[pool_seed, n],
                                  objective_trace=trace)
            return out, err, trace

        def check(res):
            out, err, trace = res
            w = out.weights
            require(np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12, "weights off the simplex")
            if variant is hf.FwVariant.FW:
                require(np.all(w == 1.0 / out.n), "FW weights are not exactly uniform")
            mmd = oracle(out.points, w)
            require(abs(err - mmd) <= 1e-9, f"fw_error {err!r} vs independent MMD {mmd!r}")
            if fcfw:
                rise = float(np.diff(trace).max(initial=0.0))
                require(rise <= 1e-12, f"FCFW objective rose by {rise:.3e}")
            miss = float(np.linalg.norm(w @ out.points - target_mean))
            require(miss <= 3.0 * spread / np.sqrt(out.n),
                    f"mean error {miss:.4g} above three Monte Carlo standard errors")
            return miss

        return Op(f"{variant.value}/n={n}/pool={pool_seed}", run, check)

    # FCFW dominates the time, so it runs on the first pool only; the cheap
    # rules run on every pool, which steadies mean_rmse over seeds.
    variants = (hf.FwVariant.FW, hf.FwVariant.FW_LS, hf.FwVariant.FCFW)
    ops = [
        op(v, n, seed * QUAD_POOLS + j)
        for j in range(QUAD_POOLS) for v in variants for n in QUAD_N
        if j == 0 or v is not hf.FwVariant.FCFW
    ]

    def warmup(models):
        for v in variants:
            hf.fw_quad(p, k, 5, 200, v, rng_seed=0)

    return Workload(ops, {}, warmup, lambda tracer: {})


# ---------------------------------------------------------------------------
# herd_filter: the paper's filter on the criterion-6 LGSS, plus the probe

HERD_T = 50


def herd_filter(hf, seed: int) -> Workload:
    models = importlib.import_module("herdfilter.models")
    model, params = hf.make_lgss(0, d=3, m=1)
    # One trajectory, batch 0 of the criterion-6 grid; the seed picks the
    # filters' sampling streams. Over trajectories mean_rmse spreads twice
    # as wide (see README).
    ys = hf.simulate(model, HERD_T, seed=1000).observations
    kal = _oracle_kalman(hf, params, ys)
    a = np.asarray(params.trans_mat, dtype=float)
    q_var = _isotropic_var(params.process_cov)
    init_var = _isotropic_var(params.init_cov)
    init_mean = np.asarray(params.init_mean, dtype=float)
    k = hf.KernelConfig(1.0, 3)

    def herding_errors(trace):
        """fw_errors[t] is the MMD from the predictive set to its mixture."""
        for t, pred in enumerate(trace.predictive):
            if t == 0:
                w, mu, v = [1.0], init_mean[None], [init_var]
            else:
                post = trace.posterior[t - 1]
                w, mu, v = post.weights, post.points @ a.T, np.full(post.n, q_var)
            mmd = oracles.IsoMixtureMmd(w, mu, v, k.sigma2)(pred.points, pred.weights)
            require(abs(trace.fw_errors[t] - mmd) <= 1e-9,
                    f"fw_errors[{t}] {trace.fw_errors[t]!r} vs independent MMD {mmd!r}")

    def filter_op(name, sampler, n):
        def run(m):
            return hf.run_filter(m["lgss"], ys, sampler, n, k, seed=seed)

        def check(trace):
            rmse = _judge(trace.filtered_means, trace.log_evidence, kal, delta=1.0)
            if sampler.name == "skh":
                herding_errors(trace)
            return rmse

        return Op(name, run, check)

    ops = [
        filter_op("skh_fw", hf.skh(hf.FwVariant.FW, 20_000), 100),
        filter_op("skh_fcfw", hf.skh(hf.FwVariant.FCFW, 10_000), 50),
        filter_op("mc_stratified", hf.MC_STRATIFIED, 100),
        filter_op("qmc_sobol", hf.QMC_SOBOL, 100),
    ]

    # Sharp-observation probe: one exact observation far in the prior's tail.
    probe = models.LgssParams(
        trans_mat=np.eye(1), obs_mat=np.eye(1), process_cov=np.eye(1),
        obs_cov=np.array([[1e-4]]), init_mean=np.zeros(1), init_cov=np.eye(1),
    )
    probe_y = np.array([[6.0]])
    probe_kal = _oracle_kalman(hf, probe, probe_y)
    require(abs(probe_kal["log_z"][-1] + 18.92) < 0.005, "probe log Z is not -18.92")
    k1 = hf.KernelConfig(1.0, 1)

    def probe_op(sampler):
        def run(m):
            return hf.run_filter(m["probe"], probe_y, sampler, 100, k1, seed=0)

        def check(trace):
            require(np.all(np.isfinite(trace.log_evidence)), "probe log evidence not finite")
            for post in trace.posterior:
                require(abs(post.weights.sum() - 1.0) <= 1e-12, "probe weights not normalised")
            return None

        return Op(f"probe/{sampler.label}", run, check)

    probe_samplers = (hf.MC_STRATIFIED, hf.QMC_SOBOL, hf.skh(hf.FwVariant.FW, 20_000))
    ops += [probe_op(s) for s in probe_samplers]
    probe_model = models.lgss_model(probe)

    def warmup(m):
        for sampler in (hf.skh(hf.FwVariant.FW, 500), hf.skh(hf.FwVariant.FCFW, 500),
                        hf.MC_STRATIFIED, hf.QMC_SOBOL):
            hf.run_filter(m["lgss"], ys[:2], sampler, 10, k, seed=0)

    return Workload(
        ops,
        {"lgss": model, "probe": probe_model},
        warmup,
        lambda tracer: {"lgss": tracer.wrap_model(model),
                        "probe": tracer.wrap_model(probe_model)},
    )


# ---------------------------------------------------------------------------
# clgss_filter: the conditionally linear model, no herding

CLGSS_T = 20
CLGSS_N = 20_000
CLGSS_RBPF_N = 2_000


def _check_joint(jm, joint) -> None:
    """The hand-written joint matrices describe the program's joint model."""
    pts = np.random.default_rng(7).normal(size=(4, 3))
    parts = jm.transition_parts(pts, 1)
    cov = parts.cov_blocks[parts.cov_index[0]]
    require(np.allclose(parts.means[:, 0, :], pts @ joint["a"].T, rtol=0, atol=1e-12)
            and np.allclose(cov, joint["q"], rtol=0, atol=1e-15),
            "joint transition differs from the hand-written matrices")
    r = float(joint["r"][0, 0])
    resid = 0.7 - pts @ joint["c"][0]
    mine = -0.5 * (np.log(2.0 * np.pi * r) + resid * resid / r)
    lik = jm.log_likelihood_batch(pts, np.array([0.7]), 1)
    require(np.allclose(lik, mine, rtol=0, atol=1e-12),
            "joint likelihood differs from the hand-written matrices")
    init = jm.initial
    require(np.allclose(init.means[0], joint["m0"])
            and np.allclose(init.covs[init.cov_map[0]], joint["p0"]),
            "joint initial law differs from the hand-written one")


def clgss_filter(hf, seed: int) -> Workload:
    # The inputs are those of batch 0 of the CLI rbpf grid, whatever the
    # seed: at N=20000 the joint filters' RMSE is pure Monte Carlo noise
    # whose spread over trajectories is too wide to bound (see README).
    del seed
    models = importlib.import_module("herdfilter.models")
    jm, cp = hf.make_clgss(0, coupled=False)
    joint = oracles.clgss_uncoupled_joint()
    _check_joint(jm, joint)
    ys = hf.simulate(jm, CLGSS_T, seed=1000).observations
    kal = _oracle_kalman(hf, models.LgssParams(
        trans_mat=joint["a"], obs_mat=joint["c"], process_cov=joint["q"],
        obs_cov=joint["r"], init_mean=joint["m0"], init_cov=joint["p0"],
    ), ys)
    k3, k1 = hf.KernelConfig(1.0, 3), hf.KernelConfig(1.0, 1)
    delta = 2.0 * np.sqrt(CLGSS_T / CLGSS_N)  # Monte Carlo error, grown like sqrt(t)

    def joint_op(sampler):
        def run(m):
            return hf.run_filter(m["joint"], ys, sampler, CLGSS_N, k3, seed=0,
                                 keep_particles=False)

        def check(trace):
            return _judge(trace.filtered_means, trace.log_evidence, kal, delta)

        return Op(f"joint/{sampler.label}", run, check)

    def rbpf_run(m):
        return hf.run_rbpf(m["params"], ys, hf.MC_STRATIFIED, CLGSS_RBPF_N, k1, seed=0,
                           keep_particles=False)

    def rbpf_check(res):
        z = np.array([g.weights @ g.means for g in res.z_posteriors])
        est = np.hstack([res.trace.filtered_means, z])
        dev = max(float(np.abs(est - kal["means"]).max()),
                  float(np.abs(res.trace.log_evidence - kal["log_z"]).max()))
        require(dev <= 1e-8, f"RBPF differs from the exact Kalman by {dev:.3e}")
        return _judge(est, res.trace.log_evidence, kal, delta)

    ops = [joint_op(hf.MC_STRATIFIED), joint_op(hf.QMC_SOBOL),
           Op("rbpf/mc_stratified", rbpf_run, rbpf_check)]

    def warmup(m):
        for sampler in (hf.MC_STRATIFIED, hf.QMC_SOBOL):
            hf.run_filter(m["joint"], ys[:2], sampler, 50, k3, seed=0, keep_particles=False)
        hf.run_rbpf(m["params"], ys[:2], hf.MC_STRATIFIED, 50, k1, seed=0, keep_particles=False)

    def traced(tracer):
        params, joint_model = tracer.wrap_clgss(cp)
        return {"joint": joint_model, "params": params}

    return Workload(ops, {"joint": jm, "params": cp}, warmup, traced)


BUILDERS = {"quad": quad, "herd_filter": herd_filter, "clgss_filter": clgss_filter}
