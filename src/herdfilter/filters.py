"""Particle filters with a pluggable propagation step.

One template drives everything: maintain a weighted predictive particle set,
fold in the observation to get the posterior and the incremental evidence,
expand the posterior through the model dynamics into a Gaussian transition
mixture, then hand that mixture to the configured sampler to produce the next
predictive set. Plain Monte Carlo (multinomial or stratified component
choice), quasi-Monte Carlo, and kernel-herding quadrature all plug into the
same slot. A Rao-Blackwellized variant runs the same template on the
nonlinear coordinate only and carries per-particle Kalman beliefs for the
linear block. Weights and evidence are carried in log space, so a sharp but
consistent observation does not look like filter collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFilterError, NumericalError
from .exact import _as_obs_seq, _gauss_predict, _gauss_update
from .fw_quad import FwVariant, fw_quad
from .kernels import GaussianMixture, KernelConfig, WeightedParticleSet
from .models import ClgssParams, StateSpaceModel, TransitionParts
from .qmc import SobolStream, qmc_sample_mixture

__all__ = [
    "SamplerKind",
    "MC_MULTINOMIAL",
    "MC_STRATIFIED",
    "QMC_SOBOL",
    "skh",
    "TransitionMixture",
    "FilterTrace",
    "RbpfResult",
    "build_transition_mixture",
    "pf_step",
    "run_filter",
    "run_rbpf",
]

_SAMPLER_NAMES = ("mc_multinomial", "mc_stratified", "qmc_sobol", "skh")


@dataclass(frozen=True)
class SamplerKind:
    """Sampling rule for the propagation step.

    The three plain rules carry no parameters; the kernel-herding rule also
    names its Frank-Wolfe variant and the size of the search pool drawn from
    the transition mixture each step.
    """

    name: str
    variant: FwVariant | None = None
    m_search: int | None = None

    def __post_init__(self):
        if self.name not in _SAMPLER_NAMES:
            raise ValueError(f"unknown sampler {self.name!r}")
        if self.name == "skh":
            if not isinstance(self.variant, FwVariant):
                raise ValueError("skh sampler needs a Frank-Wolfe variant")
            if self.m_search is None or int(self.m_search) < 1:
                raise ValueError("skh sampler needs a search pool size >= 1")
            object.__setattr__(self, "m_search", int(self.m_search))
        elif self.variant is not None or self.m_search is not None:
            raise ValueError(f"{self.name} takes no Frank-Wolfe configuration")

    @property
    def label(self) -> str:
        if self.name == "skh":
            return f"skh_{self.variant.name.lower()}"
        return self.name


MC_MULTINOMIAL = SamplerKind("mc_multinomial")
MC_STRATIFIED = SamplerKind("mc_stratified")
QMC_SOBOL = SamplerKind("qmc_sobol")


def skh(variant: FwVariant, m_search: int) -> SamplerKind:
    """Kernel-herding sampler with the given step rule and pool size.

    Each step draws m_search pool points from the transition mixture and
    evaluates its closed-form mean map there in row tiles of about 1 MB, so
    no m_search x K block is built for a K-component mixture.
    """
    return SamplerKind("skh", variant=variant, m_search=m_search)


@dataclass(frozen=True)
class TransitionMixture:
    """One-step-ahead Gaussian mixture with its particle bookkeeping.

    mixture has K = N * C components (C transition components per source
    particle); ancestors[j] is the source particle of component j and
    new_modes[j] the discrete mode it lands in, for switching models. The
    posterior over the source particles and the log of the unnormalized
    weight sum (the log evidence increment estimate) ride along; both are
    None for the pseudo-mixture representing the initial distribution.
    """

    mixture: GaussianMixture
    ancestors: np.ndarray
    new_modes: np.ndarray | None = None
    posterior: WeightedParticleSet | None = None
    log_w_hat: float | None = None

    def __post_init__(self):
        k = self.mixture.n_components
        anc = np.ascontiguousarray(self.ancestors, dtype=np.intp)
        if anc.shape != (k,):
            raise ValueError("ancestors must hold one index per component")
        if k and (anc.min() < 0):
            raise ValueError("ancestor indices must be nonnegative")
        object.__setattr__(self, "ancestors", anc)
        if self.new_modes is not None:
            nm = np.ascontiguousarray(self.new_modes, dtype=np.intp)
            if nm.shape != (k,):
                raise ValueError("new_modes must hold one label per component")
            object.__setattr__(self, "new_modes", nm)


def build_transition_mixture(
    particles: WeightedParticleSet, model: StateSpaceModel, t: int, y
) -> TransitionMixture:
    """Reweight the particles by the observation and expand the dynamics.

    Computes the likelihood o_t at each particle, the log of the
    pre-normalization weight sum sum_i w_i o_t(x_i) (the per-step log
    evidence estimate), the
    posterior particle set, and the mixture over the next state whose
    component weights are the normalized products of posterior weight and
    per-particle transition weight.
    """
    return _expand(
        *_weigh(particles, model, t, y),
        model.transition_parts(particles.points, t, modes=particles.modes),
    )


def _weigh(particles: WeightedParticleSet, model: StateSpaceModel, t: int, y):
    """Posterior particle set and log evidence increment after folding in y."""
    log_o = model.log_likelihood_batch(particles.points, y, t, modes=particles.modes)
    return _reweigh(particles, log_o, t)


def _reweigh(particles: WeightedParticleSet, log_o, t: int):
    """Weigh the particles by their log-likelihoods.

    The log weights log w_i + log o_t(x_i) are normalized by log-sum-exp, so
    likelihoods far below the float range still give a posterior. Returns
    (posterior, log evidence increment). Raises DegenerateFilterError when
    every log weight is -inf and NumericalError on NaN or +inf.
    """
    with np.errstate(divide="ignore"):
        log_w = np.log(particles.weights) + log_o
    top = float(np.max(log_w))
    if np.isnan(top) or top == np.inf:
        raise NumericalError(f"non-finite log weight at t={t}")
    if top == -np.inf:
        raise DegenerateFilterError(t, 0.0)
    unnorm = np.exp(log_w - top)
    total = float(unnorm.sum())
    post_w = unnorm / total
    posterior = WeightedParticleSet(
        particles.points, post_w, ancestry=particles.ancestry, modes=particles.modes
    )
    return posterior, top + float(np.log(total))


def _expand(
    posterior: WeightedParticleSet, log_w_hat: float, parts: TransitionParts
) -> TransitionMixture:
    """Expand the posterior through the transition parts into the next mixture."""
    n, c = parts.comp_weights.shape
    mix = GaussianMixture(
        (posterior.weights[:, None] * parts.comp_weights).reshape(-1),
        parts.means.reshape(n * c, -1),
        parts.cov_blocks,
        np.tile(parts.cov_index, n),
    )
    return TransitionMixture(
        mixture=mix,
        ancestors=np.repeat(np.arange(n), c),
        new_modes=None if parts.new_modes is None else np.tile(parts.new_modes, n),
        posterior=posterior,
        log_w_hat=log_w_hat,
    )


def _initial_mixture(model: StateSpaceModel) -> TransitionMixture:
    """The initial distribution dressed up as a transition mixture.

    Switching models get one copy of each initial component per mode,
    weighted by the initial mode probabilities, so every sampler handles
    t=1 exactly like any other step.
    """
    init = model.initial
    if model.n_modes == 0:
        return TransitionMixture(init, np.arange(init.n_components))
    probs = np.asarray(model.initial_mode_probs, dtype=float)
    k = init.n_components
    mix = GaussianMixture(
        (probs[:, None] * init.weights[None, :]).reshape(-1),
        np.tile(init.means, (model.n_modes, 1)),
        init.covs,
        np.tile(init.cov_map, model.n_modes),
    )
    return TransitionMixture(
        mixture=mix,
        ancestors=np.arange(mix.n_components),
        new_modes=np.repeat(np.arange(model.n_modes), k),
    )


def _relabel(out: WeightedParticleSet, tm: TransitionMixture) -> WeightedParticleSet:
    """Turn out's ancestry, the mixture components its atoms were drawn
    from, into ancestor indices and mode labels, in place."""
    comps = out.ancestry
    if comps is not None:
        out.ancestry = tm.ancestors[comps]
        if tm.new_modes is not None:
            out.modes = tm.new_modes[comps]
    return out


def pf_step(
    sampler: SamplerKind,
    mixture: TransitionMixture,
    n: int,
    k: KernelConfig,
    seed,
    stream: SobolStream | None = None,
):
    """Draw the next predictive particle set from the transition mixture.

    Returns (particle set, fw_error); the error is 0.0 for the non-herding
    samplers. The herding samplers may return fewer than n atoms when the
    quadrature converges early. A quasi-Monte Carlo step consumes points
    from ``stream`` (one continuing stream per filter run); a fresh stream
    is created when none is given.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mix = mixture.mixture
    if sampler.name == "skh":
        out, err = fw_quad(
            mix, k, n, sampler.m_search, variant=sampler.variant, rng_seed=seed
        )
        return _relabel(out, mixture), err
    if sampler.name == "qmc_sobol":
        if stream is None:
            stream = SobolStream(mix.dim + 1)
        return _relabel(qmc_sample_mixture(mix, n, stream), mixture), 0.0
    rng = np.random.default_rng(seed)
    if sampler.name == "mc_multinomial":
        pts, comps = mix.sample(n, rng)
    else:
        # common-uniform stratified selection: one point per stratum
        # [j/n, (j+1)/n) keeps every component count within floor/ceil of
        # its expectation
        u = (np.arange(n) + rng.random()) / n
        pts, comps = mix._place(u, rng.standard_normal((n, mix.dim)))
    out = WeightedParticleSet(pts, np.full(n, 1.0 / n), ancestry=comps)
    return _relabel(out, mixture), 0.0


@dataclass
class FilterTrace:
    """Per-timestep record of one filter run.

    log_w_hats are the per-step log evidence increments and log_evidence
    their running sum, both kept in log space, where an increment below
    about -745 stays finite; fw_errors and effective_n describe the
    sampling step that produced each predictive set. The particle sets are
    kept only when the run was asked to retain them.
    """

    method: str
    n: int
    seed: int
    filtered_means: np.ndarray  # (T, d), means under the posterior sets
    log_w_hats: np.ndarray  # (T,)
    log_evidence: np.ndarray  # (T,)
    fw_errors: np.ndarray  # (T,), zero for non-herding samplers
    effective_n: np.ndarray  # (T,) atoms in each predictive set
    predictive: list[WeightedParticleSet] | None = None
    posterior: list[WeightedParticleSet] | None = None

    @property
    def T(self) -> int:
        return self.filtered_means.shape[0]


def _run(weigh, step, init: TransitionMixture, y, sampler, n, k, seed, keep_particles):
    """The filter template shared by run_filter and run_rbpf.

    step(p_hat, t, y_t) folds y_t into the predictive set p_hat and returns
    the transition mixture the next predictive set is drawn from, carrying
    the posterior and the log evidence increment. No predictive set follows
    t = T, so there weigh(p_hat, T, y_T) only returns (posterior, log
    evidence increment). init is the mixture for t=1.
    """
    T = y.shape[0]
    dim = init.mixture.dim
    stream = SobolStream(dim + 1) if sampler.name == "qmc_sobol" else None
    filtered_means = np.empty((T, dim))
    log_incs = np.empty(T)
    fw_errors = np.zeros(T)
    effective_n = np.empty(T, dtype=np.intp)
    predictive: list | None = [] if keep_particles else None
    posterior: list | None = [] if keep_particles else None

    def record(t, p_hat, post, log_inc, fw_err):
        log_incs[t - 1] = log_inc
        fw_errors[t - 1] = fw_err
        effective_n[t - 1] = p_hat.n
        filtered_means[t - 1] = post.mean()
        if keep_particles:
            predictive.append(p_hat)
            posterior.append(post)

    p_hat, fw_err = pf_step(sampler, init, n, k, [seed, 1], stream)
    for t in range(1, T):
        tm = step(p_hat, t, y[t - 1])
        record(t, p_hat, tm.posterior, tm.log_w_hat, fw_err)
        p_hat, fw_err = pf_step(sampler, tm, n, k, [seed, t + 1], stream)
    record(T, p_hat, *weigh(p_hat, T, y[T - 1]), fw_err)
    return FilterTrace(
        method=sampler.label,
        n=n,
        seed=seed,
        filtered_means=filtered_means,
        log_w_hats=log_incs,
        log_evidence=np.cumsum(log_incs),
        fw_errors=fw_errors,
        effective_n=effective_n,
        predictive=predictive,
        posterior=posterior,
    )


def run_filter(
    model: StateSpaceModel,
    y_seq,
    sampler: SamplerKind,
    n: int,
    k: KernelConfig,
    seed: int,
    keep_particles: bool = True,
) -> FilterTrace:
    """Run the filter template over the observation sequence.

    Each step samples the predictive set from the current mixture (the
    initial distribution at t=1), folds in y_t to get the evidence
    increment and the posterior, and expands the posterior into the next
    transition mixture. Per-step sampling is seeded from (seed, t), and a
    quasi-Monte Carlo run consumes one continuing point stream.
    """
    y = _as_obs_seq(y_seq)
    if y.shape[1] != model.dim_y:
        raise ValueError(f"observations have width {y.shape[1]}, model emits {model.dim_y}")
    if k.dim != model.dim_x:
        raise ValueError("kernel dimension must match the state dimension")

    def weigh(p_hat, t, y_t):
        return _weigh(p_hat, model, t, y_t)

    def step(p_hat, t, y_t):
        return build_transition_mixture(p_hat, model, t, y_t)

    return _run(
        weigh, step, _initial_mixture(model), y, sampler, n, k, seed, keep_particles
    )


@dataclass
class RbpfResult:
    """Trace over the nonlinear coordinate plus the linear-block posteriors.

    z_posteriors[t-1] is the mixture over the linear substate at time t:
    one measurement-updated Gaussian per particle, weighted by the
    posterior particle weights.
    """

    trace: FilterTrace
    z_posteriors: list[GaussianMixture]


def run_rbpf(
    params: ClgssParams,
    y_seq,
    sampler: SamplerKind,
    n: int,
    k: KernelConfig,
    seed: int,
    keep_particles: bool = True,
) -> RbpfResult:
    """Rao-Blackwellized filter on the conditionally linear model.

    Particles live on the scalar nonlinear coordinate only (the kernel
    therefore sees a 1-d space); every particle carries a Gaussian belief
    over the linear substate. The filter template weighs a particle by the
    Kalman marginal of y_t under its belief; the belief then takes the
    Kalman measurement update, and the time update through the matrices at
    the particle's coordinate passes it to the particle's descendants.
    """
    y = _as_obs_seq(y_seq)
    if y.shape[1] != 1:
        raise ValueError("conditionally linear models emit scalar observations")
    if k.dim != 1:
        raise ValueError("the herding kernel sees the nonlinear coordinate only")
    r = np.array([[params.obs_var]])
    q = np.asarray(params.lin_process_cov, dtype=float)
    drift_cov = np.array([[[params.drift_var]]])
    one_block = np.zeros(1, dtype=np.intp)
    # z-beliefs, time-updated, of the particles the next predictive set
    # descends from; p_hat.ancestry indexes them
    z_means = np.asarray(params.init_z_mean, dtype=float)[None]
    z_covs = np.asarray(params.init_z_cov, dtype=float)[None]
    z_posteriors: list[GaussianMixture] = []

    def measure(p_hat, t, y_t):
        """Posterior, log evidence increment and measurement-updated z-beliefs."""
        xs = p_hat.points[:, 0]
        means, covs, log_o = _gauss_update(
            z_means[p_hat.ancestry], z_covs[p_hat.ancestry],
            params.lin_obs(xs), r, (y_t - params.obs_offset(xs))[:, None],
        )
        posterior, log_inc = _reweigh(p_hat, log_o, t)
        z_posteriors.append(
            GaussianMixture(posterior.weights, means, covs, np.arange(xs.shape[0]))
        )
        return posterior, log_inc, means, covs

    def weigh(p_hat, t, y_t):
        return measure(p_hat, t, y_t)[:2]

    def step(p_hat, t, y_t):
        nonlocal z_means, z_covs
        posterior, log_inc, means, covs = measure(p_hat, t, y_t)
        xs = p_hat.points[:, 0]
        drift = TransitionParts(
            np.ones((xs.shape[0], 1)), params.drift(xs, t)[:, None, None],
            drift_cov, one_block,
        )
        z_means, z_covs = _gauss_predict(means, covs, params.lin_trans(xs), q)
        return _expand(posterior, log_inc, drift)

    init = TransitionMixture(
        GaussianMixture([1.0], [[params.init_x_mean]], [[[params.init_x_var]]]),
        np.zeros(1, dtype=np.intp),
    )
    trace = _run(weigh, step, init, y, sampler, n, k, seed, keep_particles)
    return RbpfResult(trace, z_posteriors)
