"""Config loading, experiment runners, summaries, and the CLI."""

import configparser
import csv
import dataclasses
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import herdfilter.cli as cli
import herdfilter.harness as harness
from herdfilter.errors import ConfigError, DegenerateFilterError
from herdfilter.harness import (
    ExperimentConfig,
    ROW_FIELDS,
    SUMMARY_FIELDS,
    MetricRow,
    SummaryRow,
    load_config,
    read_rows,
    run_filter_experiment,
    run_quad_experiment,
    run_rbpf_experiment,
    sample_mixture_family,
    summarize,
    write_rows,
    write_summary,
)


def cfg_file(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


QUAD_INI = """\
    [experiment]
    kind = quad

    [mixture]
    dim = 2
    components = 20
    seed = 0

    [methods]
    samplers = mc, fw
    sigma2 = 1.0

    [grid]
    n = 10, 20
    m = 500
    seeds = 2
    """


FULL_INI = """\
    [experiment]
    kind = filter
    out = results/full.csv
    [mixture]
    dim = 3
    components = 7
    seed = 4
    [model]
    kind = jmls
    dim = 2
    obs_dim = 1
    seed = 3
    noise = model
    coupled = no
    traj_seed = 77
    [methods]
    samplers = mc_stratified, skh_fw
    sigma2 = 0.5, 2
    [grid]
    n = 10, 40
    m = 400
    seeds = 2
    batches = 3
    t = 8
    """


def quad_cfg(**kw):
    base = dict(
        kind="quad",
        out=None,
        samplers=("mc", "qmc", "fw", "fcfw"),
        sigma2s=(1.0,),
        n_grid=(10, 20, 50),
        m=2000,
        seeds=3,
        batches=1,
        t=1,
        mixture_dim=2,
        mixture_components=20,
        mixture_seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def filter_cfg(**kw):
    base = dict(
        kind="filter",
        out=None,
        samplers=("mc_stratified",),
        sigma2s=(1.0,),
        n_grid=(10,),
        m=500,
        seeds=1,
        batches=2,
        t=10,
        model_kind="lgss",
        model_dim=2,
        model_obs_dim=1,
        model_seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestLoadConfig:
    def test_roundtrip_and_defaults(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, QUAD_INI))
        assert cfg.kind == "quad"
        assert cfg.samplers == ("mc", "fw")
        assert cfg.n_grid == (10, 20)
        assert cfg.m == 500 and cfg.seeds == 2
        # untouched sections fall back to desk defaults
        assert cfg.batches == 10 and cfg.t == 50
        assert cfg.out is None and cfg.traj_seed == 1000

    def test_desk_defaults_when_keys_absent(self, tmp_path):
        text = """\
            [experiment]
            kind = filter
            [methods]
            samplers = mc_multinomial
            [grid]
            n = 10
            """
        cfg = load_config(cfg_file(tmp_path, text))
        assert (cfg.m, cfg.batches, cfg.t) == (20_000, 10, 50)
        assert cfg.sigma2s == (1.0,) and cfg.seeds == 5

    def test_paper_scale_overrides(self, tmp_path):
        path = cfg_file(tmp_path, QUAD_INI)
        cfg = load_config(path, paper_scale=True)
        assert (cfg.m, cfg.batches, cfg.t) == (50_000, 30, 100)

    def test_parse_error_reports_line(self, tmp_path):
        bad = "[experiment]\nkind = quad\nthis line has no delimiter\n"
        with pytest.raises(ConfigError, match="line"):
            load_config(cfg_file(tmp_path, bad))

    def test_missing_file_and_missing_key(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")
        text = "[experiment]\nkind = quad\n[grid]\nn = 10\n"
        with pytest.raises(ConfigError, match=r"samplers.*\[methods\]"):
            load_config(cfg_file(tmp_path, text))

    @pytest.mark.parametrize(
        "patch,match",
        [
            ("samplers = skh_fw", "unknown sampler"),  # skh names are filter-only
            ("sigma2 = 0.0", "sigma2"),
            pytest.param("sigma2 = nan", "finite positives", id="sigma2_nan"),
            pytest.param("sigma2 = 1.0, inf", "finite positives", id="sigma2_inf"),
            ("n = ", r"\[grid\] n"),
            ("kind = quux", "unknown experiment kind"),
            pytest.param("samplers = mc, fw\nn = 10, 50",
                         "m = 20 is below the largest n = 50", id="herding_pool_below_n"),
            pytest.param("kind = filter\nsamplers = qmc_sobol\ndim = 21",
                         "dim must be <= 20", id="sobol_lgss_dim_21"),
            pytest.param("samplers = mc, fw, mc", r"\[methods\] samplers repeats \['mc'\]",
                         id="repeated_sampler"),
            pytest.param("sigma2 = 0.1, 0.5, 0.10", r"\[methods\] sigma2 repeats \[0.1\]",
                         id="repeated_sigma2"),
            pytest.param("n = 10, 5, 10", r"\[grid\] n repeats \[10\]", id="repeated_n"),
        ],
    )
    def test_rejects_bad_values(self, tmp_path, patch, match):
        # each line of patch replaces the template line with the same key
        text = """\
            [experiment]
            kind = quad
            [model]
            dim = 3
            [methods]
            samplers = mc
            sigma2 = 1.0
            [grid]
            n = 10
            m = 20
            """
        new = {line.split(" =")[0]: line for line in patch.splitlines()}
        lines = [
            new.get(line.split(" =")[0], line)
            for line in textwrap.dedent(text).splitlines()
        ]
        with pytest.raises(ConfigError, match=match):
            load_config(cfg_file(tmp_path, "\n".join(lines)))

    def test_coupled_boolean_words(self, tmp_path):
        text = """\
            [experiment]
            kind = rbpf
            [model]
            coupled = {word}
            [methods]
            samplers = mc_stratified
            [grid]
            n = 10
            """
        for i, (word, value) in enumerate([("off", False), ("0", False), ("Yes", True)]):
            path = cfg_file(tmp_path, text.format(word=word), name=f"{i}.ini")
            assert load_config(path).coupled is value
        with pytest.raises(ConfigError, match=r"bad value for \[model\] coupled: 'maybe'"):
            load_config(cfg_file(tmp_path, text.format(word="maybe")))

    def test_jmls_depth_cap(self, tmp_path):
        text = """\
            [experiment]
            kind = filter
            [model]
            kind = jmls
            [methods]
            samplers = mc_multinomial
            [grid]
            n = 10
            t = {t}
            """
        assert load_config(cfg_file(tmp_path, text.format(t=10))).t == 10
        with pytest.raises(ConfigError, match="capped at t = 10"):
            load_config(cfg_file(tmp_path, text.format(t=11), name="b.ini"))

    def test_zero_noise_only_for_lgss(self, tmp_path):
        text = """\
            [experiment]
            kind = filter
            [model]
            kind = nonlinear
            noise = zero
            [methods]
            samplers = mc_multinomial
            [grid]
            n = 10
            """
        with pytest.raises(ConfigError, match="zero"):
            load_config(cfg_file(tmp_path, text))

    def test_config_hash_pinned(self, tmp_path):
        # config_hash tags every CSV row, so the config code must not move it;
        # FULL_INI sets every key, the minimal file only the required ones
        minimal = """\
            [experiment]
            kind = filter
            [methods]
            samplers = mc_multinomial
            [grid]
            n = 10
            """
        assert load_config(cfg_file(tmp_path, minimal)).config_hash == "62d0a84c8dcfe0a2"
        full = load_config(cfg_file(tmp_path, FULL_INI, name="full.ini"))
        assert full.config_hash == "5bac15538d9ba95c"

    def test_key_table_covers_every_field_but_kind(self):
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(harness._KEYS) == sorted(set(names) - {"kind"})
        keys = [(section, key) for section, key, _, _ in harness._KEYS.values()]
        # FULL_INI sets each key once, so it exercises the whole table
        full = configparser.ConfigParser()
        full.read_string(textwrap.dedent(FULL_INI))
        written = [(section, key) for section in full.sections() for key in full[section]]
        assert sorted(keys) == sorted(set(written) - {("experiment", "kind")})

    def test_code_built_config_is_validated(self):
        with pytest.raises(ConfigError, match=r"\[methods\] samplers is empty"):
            ExperimentConfig(kind="quad")
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            ExperimentConfig(kind="quux", samplers=("mc",), n_grid=(10,))
        with pytest.raises(ConfigError, match="m = 20 is below the largest n = 50"):
            quad_cfg(samplers=("mc", "fw"), n_grid=(10, 50), m=20)
        with pytest.raises(ConfigError, match="m = 20 is below the largest n = 50"):
            dataclasses.replace(quad_cfg(), n_grid=(10, 50), m=20)

    def test_hash_ignores_out_but_tracks_params(self):
        a = quad_cfg(out="a.csv")
        b = quad_cfg(out="b.csv")
        c = quad_cfg(mixture_seed=1)
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash
        assert len(a.config_hash) == 16


class TestMixtureFamily:
    def test_parameter_ranges(self):
        p = sample_mixture_family(3, 200, seed=7)
        assert p.n_components == 200 and p.dim == 3
        assert np.all(p.means >= -5.0) and np.all(p.means <= 5.0)
        assert np.isclose(p.weights.sum(), 1.0) and np.all(p.weights >= 0)
        for i in range(p.n_components):
            cov = p.covs[p.cov_map[i]]
            var = cov[0, 0]
            assert 0.1 <= var <= 4.1
            assert np.allclose(cov, var * np.eye(3))

    def test_deterministic_in_seed(self):
        a = sample_mixture_family(2, 30, seed=5)
        b = sample_mixture_family(2, 30, seed=5)
        c = sample_mixture_family(2, 30, seed=6)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.means, c.means)


class TestQuadExperiment:
    def test_row_schema_and_counts(self):
        cfg = quad_cfg(samplers=("mc", "fw"), n_grid=(10, 20), seeds=2, m=300)
        rows = run_quad_experiment(cfg)
        point = [r for r in rows if r.metric in ("mmd", "mean_err")]
        slopes = [r for r in rows if r.metric == "slope"]
        assert len(point) == 2 * 2 * 2 * 2  # metric x method x n x seed
        assert len(slopes) == 2 and all(r.n == 0 and r.seed == -1 for r in slopes)
        for r in rows:
            assert r.config_hash == cfg.config_hash
            assert r.version == harness.ARTIFACT_VERSION
            assert r.runtime_ms >= 0

    def test_fcfw_never_above_fw(self):
        rows = run_quad_experiment(quad_cfg(samplers=("fw", "fcfw"), m=1000))
        mmds = {(r.method, r.n, r.seed): r.value for r in rows if r.metric == "mmd"}
        for n in (10, 20, 50):
            for seed in range(3):
                assert mmds[("fcfw", n, seed)] <= mmds[("fw", n, seed)] + 1e-12

    def test_fw_mean_error_beats_mc_median_at_100(self):
        cfg = quad_cfg(samplers=("mc", "fw"), n_grid=(100,), seeds=5, m=5000,
                       mixture_components=100)
        rows = run_quad_experiment(cfg)
        errs = {}
        for r in rows:
            if r.metric == "mean_err":
                errs.setdefault(r.method, []).append(r.value)
        assert np.median(errs["fw"]) < np.median(errs["mc"])

    def test_mc_slope_near_minus_half(self):
        cfg = quad_cfg(samplers=("mc",), n_grid=(10, 20, 50, 100, 200, 500),
                       seeds=5, m=100)
        rows = run_quad_experiment(cfg)
        slope = [r for r in rows if r.metric == "slope"][0].value
        assert abs(slope - (-0.5)) <= 0.15

    def test_worker_pool_matches_serial(self):
        cfg = quad_cfg(samplers=("mc", "fw"), sigma2s=(0.5, 1.0), n_grid=(10, 20),
                       seeds=2, m=300)
        serial = run_quad_experiment(cfg, workers=1)
        pooled = run_quad_experiment(cfg, workers=3)
        scrub = lambda rs: [dataclasses.replace(r, runtime_ms=0) for r in rs]
        assert scrub(serial) == scrub(pooled)
        # sigma^2 x method x N x seed, metrics inside each cell, slope rows last
        assert row_keys(serial) == [
            (s2, meth, n, seed, metric)
            for s2 in (0.5, 1.0) for meth in ("mc", "fw") for n in (10, 20)
            for seed in range(2) for metric in ("mmd", "mean_err")
        ] + [(s2, meth, 0, -1, "slope") for s2 in (0.5, 1.0) for meth in ("mc", "fw")]


def row_keys(rows):
    return [(r.sigma2, r.method, r.n, r.seed, r.metric) for r in rows]


@pytest.mark.parametrize("run, kind, metrics", [
    (run_filter_experiment, dict(kind="filter"), ("rmse", "logZ_err", "mmd")),
    (run_rbpf_experiment, dict(kind="rbpf", coupled=False), ("rmse", "logZ_err")),
], ids=["filter", "rbpf"])
def test_filter_grid_worker_pool_matches_serial(run, kind, metrics):
    # LGSS and uncoupled CLGSS only: the nonlinear and coupled grids build a
    # wide particle-filter reference that makes them slow
    samplers = ("mc_stratified", "qmc_sobol", "skh_fw", "skh_fcfw")
    cfg = filter_cfg(samplers=samplers, sigma2s=(0.5, 1.0), n_grid=(10, 20), m=500,
                     batches=2, t=6, **kind)
    scrub = lambda rs: [dataclasses.replace(r, runtime_ms=0) for r in rs]
    serial = scrub(run(cfg, workers=1))
    assert serial == scrub(run(cfg, workers=3))
    # sigma^2 x method x N x batch, metrics inside each cell
    assert row_keys(serial) == [
        (s2, meth, n, b, metric)
        for s2 in (0.5, 1.0) for meth in samplers for n in (10, 20)
        for b in range(2) for metric in metrics
    ]


class TestFilterExperiment:
    def test_lgss_rows_include_mmd(self):
        rows = run_filter_experiment(filter_cfg())
        metrics = {r.metric for r in rows}
        assert metrics == {"rmse", "logZ_err", "mmd"}
        assert len(rows) == 3 * 1 * 1 * 2  # metrics x method x n x batch
        assert all(np.isfinite(r.value) for r in rows)

    def test_zero_noise_rmse_vanishes(self):
        cfg = filter_cfg(
            samplers=("mc_multinomial", "mc_stratified", "qmc_sobol", "skh_fw"),
            model_noise="zero",
            m=200,
        )
        rows = run_filter_experiment(cfg)
        for r in rows:
            if r.metric == "rmse":
                assert r.value <= 1e-8

    def test_bootstrap_rmse_improves_with_n(self):
        cfg = filter_cfg(n_grid=(20, 200), batches=10, t=50, model_dim=3,
                         model_seed=0, m=100)
        rows = run_filter_experiment(cfg)
        med = {
            n: np.median([r.value for r in rows if r.metric == "rmse" and r.n == n])
            for n in (20, 200)
        }
        assert med[200] < med[20]

    def test_jmls_uses_exact_reference(self):
        cfg = filter_cfg(model_kind="jmls", t=8, n_grid=(50,), model_seed=1)
        rows = run_filter_experiment(cfg)
        assert {r.metric for r in rows} == {"rmse", "logZ_err"}  # no mmd column
        assert all(np.isfinite(r.value) for r in rows)

    def test_nonlinear_uses_averaged_pf_reference(self, monkeypatch):
        monkeypatch.setattr(harness, "_REFERENCE_N", 2000)
        monkeypatch.setattr(harness, "_REFERENCE_RUNS", 2)
        cfg = filter_cfg(model_kind="nonlinear", model_dim=1, t=10, batches=1,
                         samplers=("skh_fw",), n_grid=(50,), m=300)
        rows = run_filter_experiment(cfg)
        assert {r.metric for r in rows} == {"rmse", "logZ_err"}
        assert all(np.isfinite(r.value) for r in rows)


class TestRbpfExperiment:
    def test_collapse_matches_joint_kalman(self):
        cfg = filter_cfg(kind="rbpf", coupled=False, t=10, batches=2,
                         samplers=("mc_multinomial", "skh_fcfw"), n_grid=(25,), m=300)
        rows = run_rbpf_experiment(cfg)
        assert {r.metric for r in rows} == {"rmse", "logZ_err"}
        for r in rows:
            assert r.value <= 1e-8

    def test_coupled_runs_against_wide_pf(self, monkeypatch):
        monkeypatch.setattr(harness, "_REFERENCE_N", 2000)
        monkeypatch.setattr(harness, "_REFERENCE_RUNS", 2)
        cfg = filter_cfg(kind="rbpf", coupled=True, t=5, batches=1,
                         samplers=("mc_multinomial",), n_grid=(50,))
        rows = run_rbpf_experiment(cfg)
        assert all(np.isfinite(r.value) for r in rows)


def mk_row(value, metric="rmse", method="mc", n=10, seed=0, h="abc"):
    return MetricRow(metric, method, 1.0, n, seed, value, 0, h)


class TestSummarize:
    def test_frozen_interpolation_example(self):
        rows = [mk_row(v, seed=i) for i, v in enumerate((1.0, 2.0, 3.0))]
        (s,) = summarize(rows)
        assert (s.median, s.q25, s.q75) == (2.0, 1.5, 2.5)
        assert (s.vmin, s.vmax, s.count) == (1.0, 3.0, 3)

    def test_single_row_group(self):
        (s,) = summarize([mk_row(4.25)])
        assert s.median == s.q25 == s.q75 == s.vmin == s.vmax == 4.25

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(11)

        def oracle(vals, q):
            # linear interpolation between order statistics
            srt = np.sort(vals)
            h = (len(srt) - 1) * q
            lo = int(np.floor(h))
            hi = min(lo + 1, len(srt) - 1)
            return srt[lo] + (h - lo) * (srt[hi] - srt[lo])

        for trial in range(50):
            size = int(rng.integers(1, 40))
            vals = rng.normal(size=size)
            rows = [mk_row(float(v), seed=i) for i, v in enumerate(vals)]
            (s,) = summarize(rows)
            assert s.median == pytest.approx(oracle(vals, 0.50), abs=1e-12)
            assert s.q25 == pytest.approx(oracle(vals, 0.25), abs=1e-12)
            assert s.q75 == pytest.approx(oracle(vals, 0.75), abs=1e-12)

    def test_empty_group_warned_and_omitted(self):
        rows = [
            {"metric": "rmse", "method": "mc", "sigma2": 1.0, "n": 10, "seed": 0,
             "value": float("nan"), "runtime_ms": 0, "config_hash": "x",
             "version": "v"},
            dataclasses.asdict(mk_row(1.0, method="qmc")),
        ]
        with pytest.warns(UserWarning, match="no finite values"):
            out = summarize(rows)
        assert [s.method for s in out] == ["qmc"]

    def test_mixed_hashes_flagged(self):
        rows = [mk_row(1.0, h="aaa"), mk_row(2.0, seed=1, h="bbb")]
        (s,) = summarize(rows)
        assert s.config_hash == "mixed"
        rows = [mk_row(1.0, h="aaa"), mk_row(2.0, seed=1, h="aaa")]
        assert summarize(rows)[0].config_hash == "aaa"

    def test_group_order_follows_first_appearance(self):
        rows = [mk_row(1.0, method="z"), mk_row(1.0, method="a"),
                mk_row(2.0, method="z", seed=1)]
        assert [s.method for s in summarize(rows)] == ["z", "a"]


QUAD_CLI_INI = """\
    [experiment]
    kind = quad
    out = {out}

    [mixture]
    dim = 2
    components = 10
    seed = 0

    [methods]
    samplers = mc, fw
    sigma2 = 1.0

    [grid]
    n = 10, 20
    m = 300
    seeds = 2
    """


def strip_runtime(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    i = rows[0].index("runtime_ms")
    return [[c for j, c in enumerate(r) if j != i] for r in rows]


class TestCli:
    def test_quad_end_to_end_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        path = cfg_file(tmp_path, QUAD_CLI_INI.format(out=out1))
        assert cli.main(["quad", "--config", path]) == 0
        assert cli.main(["quad", "--config", path, "--out", str(out2)]) == 0
        assert strip_runtime(out1) == strip_runtime(out2)
        with open(out1, "rb") as f:
            raw = f.read()
        assert b"\r\n" in raw  # RFC-4180 line endings
        assert strip_runtime(out1)[0] == [c for c in ROW_FIELDS if c != "runtime_ms"]

    def test_summarize_cli(self, tmp_path):
        rows_csv = tmp_path / "rows.csv"
        write_rows(rows_csv, [mk_row(float(v), seed=i) for i, v in enumerate((1, 2, 3))])
        out = tmp_path / "summary.csv"
        assert cli.main(["summarize", str(rows_csv), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == list(SUMMARY_FIELDS)
        assert float(rows[0]["median"]) == 2.0 and float(rows[0]["q25"]) == 1.5

    def test_csv_text_pinned(self, tmp_path):
        rows = [
            MetricRow("mmd", "fw", 0.1, 10, 0, 1 / 3, 12, "abc"),
            MetricRow("mean_err", "qmc", 1, 20, 1, 1e-300, 0, "abc"),
            MetricRow("slope", "fw", 0.1, 0, -1, np.float64(-0.5), 0, "abc"),
        ]
        write_rows(tmp_path / "rows.csv", rows)
        assert (tmp_path / "rows.csv").read_bytes() == (
            b"metric,method,sigma2,n,seed,value,runtime_ms,config_hash,version\r\n"
            b"mmd,fw,0.1,10,0,0.3333333333333333,12,abc,herdfilter-0.1.0\r\n"
            b"mean_err,qmc,1.0,20,1,1e-300,0,abc,herdfilter-0.1.0\r\n"
            b"slope,fw,0.1,0,-1,-0.5,0,abc,herdfilter-0.1.0\r\n"
        )
        summary = [
            SummaryRow("rmse", "mc", 1 / 3, 50, 3, median=0.5, q25=0.25, q75=0.75,
                       vmin=1e-300, vmax=2, config_hash="mixed"),
        ]
        write_summary(tmp_path / "summary.csv", summary)
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"metric,method,sigma2,n,count,median,q25,q75,min,max,config_hash,version\r\n"
            b"rmse,mc,0.3333333333333333,50,3,0.5,0.25,0.75,1e-300,2.0,mixed,"
            b"herdfilter-0.1.0\r\n"
        )

    def test_read_rows_non_finite(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(
            b"metric,method,sigma2,n,seed,value,runtime_ms,config_hash,version\r\n"
            b"rmse,mc,1.0,10,0,nan,5,abc,v\r\n"
            b"rmse,mc,1.0,10,1,inf,5,abc,v\r\n"
            b"rmse,qmc,1.0,10,0,-inf,7,abc,v\r\n"
            b"rmse,qmc,1.0,10,1,0.5,7,abc,v\r\n"
        )
        rows = read_rows(path)
        assert np.isnan(rows[0]["value"]) and rows[1]["value"] == np.inf
        assert rows[2]["value"] == -np.inf
        assert rows[3] == {"metric": "rmse", "method": "qmc", "sigma2": 1.0, "n": 10,
                           "seed": 1, "value": 0.5, "runtime_ms": 7,
                           "config_hash": "abc", "version": "v"}
        with pytest.warns(UserWarning, match="no finite values"):
            (s,) = summarize(rows)
        assert (s.method, s.count, s.median, s.vmin, s.vmax) == ("qmc", 1, 0.5, 0.5, 0.5)

    def test_read_rows_roundtrip(self, tmp_path):
        path = tmp_path / "rows.csv"
        orig = [mk_row(1.5), mk_row(2.5, metric="mmd", seed=1)]
        write_rows(path, orig)
        back = read_rows(path)
        assert [r["value"] for r in back] == [1.5, 2.5]
        assert [r["metric"] for r in back] == ["rmse", "mmd"]
        # a row cut short (or run long) is refused, not padded
        text = path.read_text(encoding="utf-8")
        v = ",herdfilter-0.1.0"
        for bad in (text.replace(v, "", 1), text.replace(v, v + ",x", 1)):
            path.write_text(bad, encoding="utf-8", newline="")
            with pytest.raises(ConfigError, match="line 2: wrong number of fields"):
                read_rows(path)

    def test_config_errors_exit_2(self, tmp_path, capsys):
        assert cli.main(["quad", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "error:" in capsys.readouterr().err

        # config kind disagrees with the subcommand
        path = cfg_file(tmp_path, QUAD_CLI_INI.format(out=tmp_path / "x.csv"))
        assert cli.main(["filter", "--config", path]) == 2

        # no output path anywhere
        no_out = "\n".join(
            line for line in textwrap.dedent(QUAD_CLI_INI.format(out="-")).splitlines()
            if not line.startswith("out")
        )
        path2 = cfg_file(tmp_path, no_out, name="噪.ini")
        assert cli.main(["quad", "--config", path2]) == 2

        assert cli.main(["quad", "--config", path, "--workers", "0"]) == 2

        # fw needs m >= max(n): refused before any cell runs
        out = tmp_path / "small_pool.csv"
        small = QUAD_CLI_INI.format(out=out).replace("m = 300", "m = 15")
        assert cli.main(["quad", "--config", cfg_file(tmp_path, small, "m.ini")]) == 2
        assert "m = 15" in capsys.readouterr().err and not out.exists()

        # a repeated grid entry is refused before any cell runs
        twice = QUAD_CLI_INI.format(out=out).replace("n = 10, 20", "n = 10, 20, 10")
        assert cli.main(["quad", "--config", cfg_file(tmp_path, twice, "n.ini")]) == 2
        assert "n repeats [10]" in capsys.readouterr().err and not out.exists()

        # a non-finite kernel width is refused at load, not by KernelConfig mid-grid
        for bad in ("nan", "inf"):
            text = QUAD_CLI_INI.format(out=out).replace("sigma2 = 1.0", f"sigma2 = {bad}")
            assert cli.main(["quad", "--config", cfg_file(tmp_path, text, "s.ini")]) == 2
            assert "finite positives" in capsys.readouterr().err and not out.exists()

        maybe = QUAD_CLI_INI.format(out=out).replace(
            "[methods]", "[model]\n    coupled = maybe\n    [methods]"
        )
        assert cli.main(["quad", "--config", cfg_file(tmp_path, maybe, "c.ini")]) == 2
        assert "[model] coupled: 'maybe'" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, workers=1):
            raise DegenerateFilterError(3)

        monkeypatch.setitem(cli._RUNNERS, "quad", boom)
        path = cfg_file(tmp_path, QUAD_CLI_INI.format(out=tmp_path / "x.csv"))
        assert cli.main(["quad", "--config", path]) == 3
        assert "numerical failure" in capsys.readouterr().err


def test_readme_sampler_names_match_code():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme.read_text(encoding="utf-8")
    sentence = re.search(r"Sampler names:(.*?)\.\n", readme, re.S).group(1)
    quad, filt = sentence.split(";")
    assert re.findall(r"`(\w+)`", quad) == list(harness._QUAD_METHODS)
    assert re.findall(r"`(\w+)`", filt) == list(harness._FILTER_METHODS)
