"""Config-driven experiment grids with CSV reporting.

Three experiment kinds, all described by flat ``key = value`` config files
with sections (see README for the full key list). Each runs one sweep over
sigma^2 x method x N x repeat, in that nesting order, as a pair of an
estimate (the sampler or filter call, the only timed part) and a score (the
metrics of one cell):

* ``quad``   -- approximate a random Gaussian mixture with each sampling
  scheme, recording MMD and mean-estimate error, then a fitted log-log
  slope row per (sigma^2, method).
* ``filter`` -- run the particle filter template on a synthetic state-space
  model, recording RMSE against a reference filter, |log evidence error|,
  and (linear-Gaussian models only) the mean per-step MMD against the
  exact predictive marginal.
* ``rbpf``   -- run the Rao-Blackwellized filter on the hierarchical model;
  RMSE is measured on the linear-substate posterior means.

Every emitted row carries the config hash, the repeat seed and an artifact
version tag so result files are self-describing. The row and summary CSVs
share one codec, with columns taken from the row dataclasses. Rerunning a
config must reproduce the CSV byte for byte except for the runtime_ms column.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import hashlib
import itertools
import time
import typing
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import block_diag

from .errors import ConfigError, NumericalError
from .exact import jmls_exact_filter, kalman_run
from .filters import (
    MC_MULTINOMIAL,
    MC_STRATIFIED,
    QMC_SOBOL,
    SamplerKind,
    run_filter,
    run_rbpf,
    skh,
)
from .fw_quad import FwVariant, fw_quad
from .kernels import GaussianMixture, KernelConfig, WeightedParticleSet, mmd
from .models import (
    ClgssParams,
    LgssParams,
    StateSpaceModel,
    lgss_model,
    make_clgss,
    make_jmls,
    make_lgss,
    make_nonlinear_benchmark,
    simulate,
)
from .qmc import MAX_DIM, SobolStream, qmc_sample_mixture

ARTIFACT_VERSION = "herdfilter-0.1.0"

# Desk-scale defaults; --paper-scale sets m/batches/t to _PAPER even over the config.
_DESK = {"m": 20_000, "batches": 10, "t": 50}
_PAPER = {"m": 50_000, "batches": 30, "t": 100}

_FW_BY_NAME = {v.name.lower(): v for v in FwVariant}
_PLAIN_SAMPLERS = {s.name: s for s in (MC_MULTINOMIAL, MC_STRATIFIED, QMC_SOBOL)}
_QUAD_METHODS = ("mc", "qmc", *_FW_BY_NAME)
_FILTER_METHODS = (*_PLAIN_SAMPLERS, *(f"skh_{name}" for name in _FW_BY_NAME))

_REFERENCE_N = 100_000
_REFERENCE_RUNS = 3
_REFERENCE_SEED_BASE = 900_000  # keeps reference streams clear of batch seeds


# ---------------------------------------------------------------------------
# Config


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description (defaults already applied)."""

    kind: str
    out: str | None
    samplers: tuple[str, ...]
    sigma2s: tuple[float, ...]
    n_grid: tuple[int, ...]
    m: int
    seeds: int
    batches: int
    t: int
    mixture_dim: int = 2
    mixture_components: int = 100
    mixture_seed: int = 0
    model_kind: str = "lgss"
    model_dim: int = 3
    model_obs_dim: int = 1
    model_seed: int = 0
    model_noise: str = "model"
    coupled: bool = True
    traj_seed: int = 1000

    @property
    def config_hash(self) -> str:
        # the output path does not influence results, so it stays out
        payload = "\n".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if f.name != "out"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


_REQUIRED = object()


def _tokens(raw: str) -> list[str]:
    return [t.strip() for t in raw.split(",") if t.strip()]


def _str_list(raw: str) -> tuple:
    return tuple(_tokens(raw))


def _int_list(raw: str) -> tuple:
    return tuple(int(t) for t in _tokens(raw))


def _float_list(raw: str) -> tuple:
    return tuple(float(t) for t in _tokens(raw))


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _cfg_get(cp, section, key, conv=str, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({e})") from e


def load_config(path, paper_scale: bool = False) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    Raises ConfigError with the parser's line diagnostics on syntax
    problems and with section/key names on semantic ones.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from e

    kind = _cfg_get(cp, "experiment", "kind")
    if kind not in ("quad", "filter", "rbpf"):
        raise ConfigError(f"unknown experiment kind {kind!r} (quad, filter or rbpf)")

    samplers = _cfg_get(cp, "methods", "samplers", _str_list)
    sigma2s = _cfg_get(cp, "methods", "sigma2", _float_list, default=(1.0,))
    n_grid = _cfg_get(cp, "grid", "n", _int_list)
    m = _cfg_get(cp, "grid", "m", int, default=_DESK["m"])
    seeds = _cfg_get(cp, "grid", "seeds", int, default=5)
    batches = _cfg_get(cp, "grid", "batches", int, default=_DESK["batches"])
    t = _cfg_get(cp, "grid", "t", int, default=_DESK["t"])
    if paper_scale:
        m, batches, t = _PAPER["m"], _PAPER["batches"], _PAPER["t"]

    cfg = ExperimentConfig(
        kind=kind,
        out=_cfg_get(cp, "experiment", "out", default=None),
        samplers=samplers,
        sigma2s=sigma2s,
        n_grid=n_grid,
        m=m,
        seeds=seeds,
        batches=batches,
        t=t,
        mixture_dim=_cfg_get(cp, "mixture", "dim", int, default=2),
        mixture_components=_cfg_get(cp, "mixture", "components", int, default=100),
        mixture_seed=_cfg_get(cp, "mixture", "seed", int, default=0),
        model_kind=_cfg_get(cp, "model", "kind", default="lgss"),
        model_dim=_cfg_get(cp, "model", "dim", int, default=3),
        model_obs_dim=_cfg_get(cp, "model", "obs_dim", int, default=1),
        model_seed=_cfg_get(cp, "model", "seed", int, default=0),
        model_noise=_cfg_get(cp, "model", "noise", default="model"),
        coupled=_cfg_get(cp, "model", "coupled", _bool, default=True),
        traj_seed=_cfg_get(cp, "model", "traj_seed", int, default=1000),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if not cfg.samplers:
        raise ConfigError("[methods] samplers is empty")
    valid = _QUAD_METHODS if cfg.kind == "quad" else _FILTER_METHODS
    unknown = [s for s in cfg.samplers if s not in valid]
    if unknown:
        raise ConfigError(
            f"unknown sampler(s) {unknown} for kind {cfg.kind!r}; valid: {list(valid)}"
        )
    if not cfg.sigma2s or not all(0 < v < np.inf for v in cfg.sigma2s):
        raise ConfigError("[methods] sigma2 must be a nonempty list of finite positives")
    if not cfg.n_grid or any(n < 1 for n in cfg.n_grid):
        raise ConfigError("[grid] n must be a nonempty list of positive integers")
    for name, values in (
        ("[methods] samplers", cfg.samplers),
        ("[methods] sigma2", cfg.sigma2s),
        ("[grid] n", cfg.n_grid),
    ):
        # a repeated entry would rerun its cells and summarize would pool
        # the copies into one group
        repeated = sorted({v for i, v in enumerate(values) if v in values[:i]})
        if repeated:
            raise ConfigError(f"{name} repeats {repeated}")
    for name in ("m", "seeds", "batches", "t"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"[grid] {name} must be >= 1")
    herding = [s for s in cfg.samplers if s.removeprefix("skh_") in _FW_BY_NAME]
    if herding and cfg.m < max(cfg.n_grid):
        raise ConfigError(
            f"[grid] m = {cfg.m} is below the largest n = {max(cfg.n_grid)}; the"
            f" herding samplers {herding} pick n atoms from a pool of m points"
        )
    if cfg.kind == "quad":
        if not 1 <= cfg.mixture_dim <= MAX_DIM - 1:
            raise ConfigError(f"[mixture] dim must be in [1, {MAX_DIM - 1}]")
        if cfg.mixture_components < 1:
            raise ConfigError("[mixture] components must be >= 1")
    elif cfg.kind == "filter":
        if cfg.model_kind not in ("lgss", "jmls", "nonlinear"):
            raise ConfigError(f"unknown model kind {cfg.model_kind!r}")
        if cfg.model_noise not in ("model", "zero"):
            raise ConfigError("[model] noise must be 'model' or 'zero'")
        if cfg.model_noise == "zero" and cfg.model_kind != "lgss":
            raise ConfigError("[model] noise = zero is only defined for lgss")
        if cfg.model_kind == "jmls" and cfg.t > 10:
            raise ConfigError(
                f"the exact switching-model reference enumerates 2^T branches and"
                f" is capped at t = 10; got t = {cfg.t}"
            )
        if cfg.model_kind == "lgss" and (cfg.model_dim < 1 or cfg.model_obs_dim < 1):
            raise ConfigError("[model] dim and obs_dim must be >= 1")
        sobol = "qmc_sobol" in cfg.samplers
        if cfg.model_kind == "lgss" and sobol and cfg.model_dim > MAX_DIM - 1:
            # qmc_sobol draws one Sobol coordinate per state dimension plus one
            raise ConfigError(f"[model] dim must be <= {MAX_DIM - 1} for qmc_sobol")


# ---------------------------------------------------------------------------
# Rows


@dataclass(frozen=True)
class MetricRow:
    metric: str  # rmse | mmd | logZ_err | mean_err | slope
    method: str
    sigma2: float
    n: int
    seed: int  # repeat seed or batch index; -1 for aggregate rows
    value: float
    runtime_ms: int
    config_hash: str
    version: str = ARTIFACT_VERSION

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise NumericalError(
                f"non-finite {self.metric} for {self.method}"
                f" (n={self.n}, seed={self.seed}): {self.value!r}"
            )


ROW_FIELDS = tuple(f.name for f in dataclasses.fields(MetricRow))


def _write_csv(path, cls, header, rows) -> None:
    """Write dataclass rows of type cls under the given header, one column
    per field: float fields as repr(float(v)), every other field as it is."""
    hints = typing.get_type_hints(cls)
    floats = [(f.name, hints[f.name] is float) for f in dataclasses.fields(cls)]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow(
                repr(float(getattr(r, name))) if is_float else getattr(r, name)
                for name, is_float in floats
            )


def write_rows(path, rows) -> None:
    _write_csv(path, MetricRow, ROW_FIELDS, rows)


def read_rows(path) -> list[dict]:
    """Load a metrics CSV into typed dicts (tolerates non-finite values)."""
    try:
        f = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read rows file {path}: {e}") from e
    types = typing.get_type_hints(MetricRow)
    with f:
        rd = csv.DictReader(f)
        missing = set(ROW_FIELDS) - set(rd.fieldnames or ())
        if missing:
            raise ConfigError(f"{path}: missing columns {sorted(missing)}")
        out = []
        for i, row in enumerate(rd, start=2):
            try:
                if None in row or None in row.values():
                    raise ValueError("wrong number of fields")
                out.append({name: types[name](row[name]) for name in ROW_FIELDS})
            except (ValueError, TypeError) as e:
                raise ConfigError(f"{path}: bad row at line {i}: {e}") from e
    return out


def _sweep(cfg: ExperimentConfig, reps: int, estimate, score, workers: int):
    """MetricRows of every sigma^2 x method x N x rep cell, in that order.

    estimate(s2, method, n, rep) is the only timed call, into runtime_ms;
    score(est, s2, method, n, rep) gives the cell's (metric, value) pairs.
    Cells run on a pool of `workers` threads when workers > 1.
    """
    items = [
        (s2, method, n, rep)
        for s2 in cfg.sigma2s
        for method in cfg.samplers
        for n in cfg.n_grid
        for rep in range(reps)
    ]

    def cell(item):
        t0 = time.perf_counter()
        est = estimate(*item)
        ms = int(round((time.perf_counter() - t0) * 1000.0))
        s2, method, n, rep = item
        return [
            MetricRow(metric, method, s2, n, rep, value, ms, cfg.config_hash)
            for metric, value in score(est, *item)
        ]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            cells = list(ex.map(cell, items))
    else:
        cells = map(cell, items)
    return [row for rows in cells for row in rows]


# ---------------------------------------------------------------------------
# Quadrature experiment


def sample_mixture_family(dim: int, components: int, seed) -> GaussianMixture:
    """Random isotropic mixture: means uniform on [-5, 5]^d, component
    variances uniform on [0.1, 4.1], weights normalized iid uniforms."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(-5.0, 5.0, size=(components, dim))
    variances = rng.uniform(0.1, 4.1, size=components)
    raw = rng.random(components)
    covs = variances[:, None, None] * np.eye(dim)
    return GaussianMixture(raw / raw.sum(), means, covs)


def run_quad_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[MetricRow]:
    """Sweep sigma^2 x method x N x seed against one random mixture, then
    add one log-log slope row of the per-N median MMD per (sigma^2, method)."""
    p = sample_mixture_family(cfg.mixture_dim, cfg.mixture_components, cfg.mixture_seed)
    target_mean = p.moments()[0]

    def estimate(s2, method, n, seed):
        if method == "mc":
            pts, comps = p.sample(n, np.random.default_rng([seed, n]))
            return WeightedParticleSet(pts, np.full(n, 1.0 / n), comps)
        if method == "qmc":
            # random restart aligned to a dyadic block: windows of up to 8192
            # points then inherit the sequence's balance, an arbitrary offset
            # does not
            r = int(np.random.default_rng(seed).integers(1 << 17))
            stream = SobolStream(p.dim + 1, offset=8192 * (1 + r))
            return qmc_sample_mixture(p, n, stream)
        k = KernelConfig(s2, cfg.mixture_dim)
        return fw_quad(p, k, n, cfg.m, _FW_BY_NAME[method], rng_seed=[seed, n])[0]

    def score(est, s2, method, n, seed):
        err = float(np.linalg.norm(est.weights @ est.points - target_mean))
        k = KernelConfig(s2, cfg.mixture_dim)
        return [("mmd", mmd(p, est, k)), ("mean_err", err)]

    rows = _sweep(cfg, cfg.seeds, estimate, score, workers)

    by_cell = {}
    for r in rows:
        if r.metric == "mmd":
            by_cell.setdefault((r.sigma2, r.method, r.n), []).append(r.value)
    if len(cfg.n_grid) >= 2:
        log_n = np.log(np.asarray(cfg.n_grid, dtype=float))
        for s2, method in itertools.product(cfg.sigma2s, cfg.samplers):
            med = np.array([np.median(by_cell[(s2, method, n)]) for n in cfg.n_grid])
            slope = np.polyfit(log_n, np.log(np.maximum(med, 1e-300)), 1)[0]
            rows.append(
                MetricRow("slope", method, s2, 0, -1, float(slope), 0, cfg.config_hash)
            )
    return rows


# ---------------------------------------------------------------------------
# Filtering experiment


def _filter_sampler(name: str, m: int) -> SamplerKind:
    if name in _PLAIN_SAMPLERS:
        return _PLAIN_SAMPLERS[name]
    return skh(_FW_BY_NAME[name.removeprefix("skh_")], m)


def _resolve_filter_model(cfg: ExperimentConfig):
    if cfg.model_kind == "lgss":
        model, params = make_lgss(cfg.model_seed, d=cfg.model_dim, m=cfg.model_obs_dim)
        if cfg.model_noise == "zero":
            # noise-free dynamics; a tiny observation floor keeps the
            # likelihood proper while every particle rides the exact path
            d, m_y = cfg.model_dim, cfg.model_obs_dim
            params = dataclasses.replace(
                params,
                process_cov=np.zeros((d, d)),
                obs_cov=1e-12 * np.eye(m_y),
                init_cov=np.zeros((d, d)),
            )
            model = lgss_model(params)
        return model, params
    if cfg.model_kind == "jmls":
        return make_jmls(cfg.model_seed)
    return make_nonlinear_benchmark(), None


def _averaged_pf_reference(model: StateSpaceModel, ys, batch: int):
    """Wide stratified-resampling runs, averaged, as the reference filter."""
    k = KernelConfig(1.0, model.dim_x)
    traces = [
        run_filter(
            model,
            ys,
            MC_STRATIFIED,
            _REFERENCE_N,
            k,
            seed=_REFERENCE_SEED_BASE + 10 * batch + r,
            keep_particles=False,
        )
        for r in range(_REFERENCE_RUNS)
    ]
    means = np.mean([tr.filtered_means for tr in traces], axis=0)
    logz = float(np.mean([tr.log_evidence[-1] for tr in traces]))
    return means, logz


def _filter_reference(cfg, model, params, ys, batch):
    """Reference filtered means, final log evidence, and (lgss only) the
    exact predictive moments used for the MMD metric."""
    if cfg.model_kind == "lgss":
        kt = kalman_run(params, ys)
        return kt.filt_means, float(kt.log_evidence[-1]), (kt.pred_means, kt.pred_covs)
    if cfg.model_kind == "jmls":
        res = jmls_exact_filter(params, ys)
        return res.filt_means, float(res.log_evidence[-1]), None
    means, logz = _averaged_pf_reference(model, ys, batch)
    return means, logz, None


def _rmse(est: np.ndarray, ref: np.ndarray) -> float:
    diff = np.asarray(est) - np.asarray(ref)
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def run_filter_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[MetricRow]:
    """Sweep sigma^2 x method x N x batch on one synthetic system."""
    model, params = _resolve_filter_model(cfg)
    trajs = [simulate(model, cfg.t, seed=cfg.traj_seed + b) for b in range(cfg.batches)]
    refs = [
        _filter_reference(cfg, model, params, trajs[b].observations, b)
        for b in range(cfg.batches)
    ]

    def estimate(s2, name, n, b):
        return run_filter(
            model,
            trajs[b].observations,
            _filter_sampler(name, cfg.m),
            n,
            KernelConfig(s2, model.dim_x),
            seed=b,
            keep_particles=refs[b][2] is not None,
        )

    def score(trace, s2, name, n, b):
        ref_means, ref_logz, pred = refs[b]
        out = [
            ("rmse", _rmse(trace.filtered_means, ref_means)),
            ("logZ_err", abs(float(trace.log_evidence[-1]) - ref_logz)),
        ]
        if pred is not None:
            pm, pc = pred
            k = KernelConfig(s2, model.dim_x)
            vals = [
                mmd(GaussianMixture(np.ones(1), mean[None], cov[None]), q, k)
                for mean, cov, q in zip(pm, pc, trace.predictive)
            ]
            out.append(("mmd", float(np.mean(vals))))
        return out

    return _sweep(cfg, cfg.batches, estimate, score, workers)


# ---------------------------------------------------------------------------
# Rao-Blackwellized experiment


def _collapse_joint_params(params: ClgssParams) -> LgssParams:
    """Exact joint linear-Gaussian view of an uncoupled hierarchical model.

    Probes the callables at a few points to recover the (required) linear
    coefficients and refuses anything that is not homogeneous linear.
    """
    probes = np.array([0.0, 1.0, 2.0])
    d0, d1, d2 = params.drift(probes, 0)
    o0, o1, o2 = params.obs_offset(probes)
    slope, bend = d1 - d0, d2 - 2.0 * d1 + d0
    o_slope, o_bend = o1 - o0, o2 - 2.0 * o1 + o0
    if abs(d0) > 1e-12 or abs(bend) > 1e-9 or abs(o0) > 1e-12 or abs(o_bend) > 1e-9:
        raise ConfigError(
            "exact joint reference needs homogeneous linear drift and"
            " observation offset; use a coupled=false model"
        )
    a_z, a_1 = params.lin_trans(probes[:2])
    c_z, c_1 = params.lin_obs(probes[:2])
    if not (np.allclose(a_1, a_z) and np.allclose(c_1, c_z)):
        raise ConfigError("exact joint reference needs state-independent blocks")
    return LgssParams(
        trans_mat=block_diag(np.array([[slope]]), a_z),
        obs_mat=np.hstack([np.array([[o_slope]]), c_z]),
        process_cov=block_diag(np.array([[params.drift_var]]), params.lin_process_cov),
        obs_cov=np.array([[params.obs_var]]),
        init_mean=np.concatenate([[params.init_x_mean], params.init_z_mean]),
        init_cov=block_diag(np.array([[params.init_x_var]]), params.init_z_cov),
    )


def run_rbpf_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[MetricRow]:
    """Sweep for the Rao-Blackwellized filter on the hierarchical model.

    RMSE is computed on the linear-substate posterior means against the
    joint Kalman filter (uncoupled model) or an averaged wide joint
    particle filter (coupled model).
    """
    joint_model, params = make_clgss(cfg.model_seed, coupled=cfg.coupled)
    trajs = [
        simulate(joint_model, cfg.t, seed=cfg.traj_seed + b) for b in range(cfg.batches)
    ]
    refs = []
    for b in range(cfg.batches):
        ys = trajs[b].observations
        if cfg.coupled:
            means, logz = _averaged_pf_reference(joint_model, ys, b)
        else:
            kt = kalman_run(_collapse_joint_params(params), ys)
            means, logz = kt.filt_means, float(kt.log_evidence[-1])
        refs.append((means[:, 1:], logz))  # joint state is (x, z); keep z

    def estimate(s2, name, n, b):
        return run_rbpf(
            params,
            trajs[b].observations,
            _filter_sampler(name, cfg.m),
            n,
            KernelConfig(s2, 1),
            seed=b,
            keep_particles=False,
        )

    def score(res, s2, name, n, b):
        ref_z, ref_logz = refs[b]
        z_means = np.array([gm.moments()[0] for gm in res.z_posteriors])
        return [
            ("rmse", _rmse(z_means, ref_z)),
            ("logZ_err", abs(float(res.trace.log_evidence[-1]) - ref_logz)),
        ]

    return _sweep(cfg, cfg.batches, estimate, score, workers)


# ---------------------------------------------------------------------------
# Summaries


@dataclass(frozen=True)
class SummaryRow:
    metric: str
    method: str
    sigma2: float
    n: int
    count: int
    median: float
    q25: float
    q75: float
    vmin: float
    vmax: float
    config_hash: str
    version: str = ARTIFACT_VERSION


SUMMARY_FIELDS = tuple(
    {"vmin": "min", "vmax": "max"}.get(f.name, f.name)
    for f in dataclasses.fields(SummaryRow)
)


def summarize(rows) -> list[SummaryRow]:
    """Order statistics per (metric, method, sigma2, n) group.

    Quantiles use linear interpolation between order statistics. Groups
    whose values are all non-finite are dropped with a warning. Output
    order follows first appearance in the input.
    """
    groups: dict = {}
    order = []
    for r in rows:
        get = r.get if isinstance(r, dict) else lambda name, _r=r: getattr(_r, name)
        key = (get("metric"), get("method"), float(get("sigma2")), int(get("n")))
        if key not in groups:
            groups[key] = ([], set())
            order.append(key)
        vals, hashes = groups[key]
        hashes.add(get("config_hash"))
        v = float(get("value"))
        if np.isfinite(v):
            vals.append(v)
    out = []
    for key in order:
        vals, hashes = groups[key]
        if not vals:
            warnings.warn(f"group {key} has no finite values; omitted", stacklevel=2)
            continue
        arr = np.asarray(vals)
        med, q25, q75 = (float(x) for x in np.percentile(arr, [50.0, 25.0, 75.0]))
        out.append(
            SummaryRow(
                *key,
                count=len(vals),
                median=med,
                q25=q25,
                q75=q75,
                vmin=float(arr.min()),
                vmax=float(arr.max()),
                config_hash=hashes.pop() if len(hashes) == 1 else "mixed",
            )
        )
    return out


def write_summary(path, rows) -> None:
    _write_csv(path, SummaryRow, SUMMARY_FIELDS, rows)
