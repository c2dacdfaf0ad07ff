"""Per-layer tracing of herdfilter from outside the package.

The tracer replaces the public functions of each module by timing wrappers,
at the place where their caller looks them up: `kernel_cross` inside the
`herdfilter.fw_quad` module, `fw_quad` inside `herdfilter.filters`, methods on
their class, and model closures on rebuilt frozen dataclasses. `uninstall`
puts every original back, so untraced rounds run the unmodified program.

Each wrapped call is a span. Seconds are wall time inside the call; a
layer's self time is its time minus the time of traced calls it made.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import time
from collections import defaultdict

# (metric name, unit) of every per-layer figure the traced run prints.
PER_LAYER = (
    ("kernels.kernel_cross.s", "s"),
    ("kernels.kernel_cross.calls", "count"),
    ("kernels.kernel_cross.evals", "count"),
    ("kernels.mean_map_eval_batch.s", "s"),
    ("kernels.mean_map_eval_batch.calls", "count"),
    ("kernels.mean_map_eval_batch.evals", "count"),
    ("kernels.GaussianMixture.sample.s", "s"),
    ("kernels.GaussianMixture.sample.draws", "count"),
    ("kernels.GaussianMixture.init.s", "s"),
    ("kernels.GaussianMixture.init.components", "count"),
    ("fw_quad.fw_quad.s", "s"),
    ("fw_quad.fw_quad.calls", "count"),
    ("fw_quad.atoms", "count"),
    ("fw_quad.fw_vertex_search.calls", "count"),
    ("fw_quad.simplex_qp_solve.s", "s"),
    ("fw_quad.simplex_qp_solve.calls", "count"),
    ("fw_quad.qp_fallbacks", "count"),
    ("fw_quad.self_s", "s"),
    ("filters.pf_step.s", "s"),
    ("filters.pf_step.calls", "count"),
    ("filters.build_transition_mixture.s", "s"),
    ("filters.build_transition_mixture.calls", "count"),
    ("filters.run_filter.self_s", "s"),
    ("filters.run_rbpf.self_s", "s"),
    ("models.log_likelihood_batch.s", "s"),
    ("models.log_likelihood_batch.points", "count"),
    ("models.transition_parts.s", "s"),
    ("models.transition_parts.points", "count"),
    ("models.clgss_callable.calls", "count"),
    ("qmc.SobolStream.take.s", "s"),
    ("qmc.SobolStream.take.points", "count"),
    ("qmc.inverse_normal_cdf.s", "s"),
    ("exact.kalman_run.s", "s"),
    ("trace.overhead_s", "s"),
)

# metric name -> tracer key, where the two differ
_ALIASES = {"fw_quad.self_s": "fw_quad.fw_quad.self_s"}

_CLGSS_CALLABLES = ("drift", "lin_trans", "lin_obs", "obs_offset")


def layer_value(stats: dict, name: str) -> float:
    return stats.get(_ALIASES.get(name, name), 0.0)


class Tracer:
    def __init__(self):
        self.stats: dict = defaultdict(float)
        self.spans: list | None = None  # filled only while recording
        self._stack: list = []  # [span id, child seconds] per open call
        self._ids = itertools.count(1)
        self._counts: dict = {}  # key -> [calls] of the counted wrappers
        self._patches: list = []
        self._wrappers: list | None = None

    def take(self) -> dict:
        """Return the figures gathered since the last call and reset them."""
        out, self.stats = dict(self.stats), defaultdict(float)
        for key, cell in self._counts.items():
            out[key] = out.get(key, 0.0) + cell[0]
            cell[0] = 0
        return out

    def timed(self, name, fn, counts=None, raises=None):
        """Wrap fn as span `name`.

        counts(args, kwargs, result) returns extra {key: amount} to add;
        raises is an (exception type, key) pair counted when fn raises it.
        """
        tracer = self
        error_type, error_key = raises if raises is not None else ((), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(tracer._ids), 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else 0
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except error_type:
                tracer.stats[error_key] += 1
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dt = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                tracer.stats[name + ".s"] += dt
                tracer.stats[name + ".calls"] += 1
                tracer.stats[name + ".self_s"] += dt - frame[1]
                if tracer.spans is not None:
                    tracer.spans.append((frame[0], parent, name, t0, t1))
            if counts is not None:
                for key, amount in counts(args, kwargs, out).items():
                    tracer.stats[key] += amount
            return out

        return wrapper

    def counted(self, name, fn):
        """Wrap fn to count its positional calls only; too cheap to time."""
        cell = self._counts.setdefault(name + ".calls", [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- module patches ---------------------------------------------------

    def _build_wrappers(self, hf):
        mod = importlib.import_module
        kernels, fwq = mod("herdfilter.kernels"), mod("herdfilter.fw_quad")
        filters, qmc = mod("herdfilter.filters"), mod("herdfilter.qmc")
        gm, stream = kernels.GaussianMixture, qmc.SobolStream

        cross = self.timed(
            "kernels.kernel_cross", kernels.kernel_cross,
            lambda a, k, out: {"kernels.kernel_cross.evals": out.size},
        )
        mean_map = self.timed(
            "kernels.mean_map_eval_batch", kernels.mean_map_eval_batch,
            lambda a, k, out: {
                "kernels.mean_map_eval_batch.evals": out.shape[0] * a[0].n_components
            },
        )
        fw = self.timed(
            "fw_quad.fw_quad", fwq.fw_quad,
            lambda a, k, out: {"fw_quad.atoms": out[0].n},
        )
        run_filter = self.timed("filters.run_filter", filters.run_filter)
        return [
            (kernels, "kernel_cross", cross),
            (fwq, "kernel_cross", cross),
            (kernels, "mean_map_eval_batch", mean_map),
            (fwq, "mean_map_eval_batch", mean_map),
            (gm, "sample", self.timed(
                "kernels.GaussianMixture.sample", gm.sample,
                lambda a, k, out: {"kernels.GaussianMixture.sample.draws": out[0].shape[0]},
            )),
            (gm, "__init__", self.timed(
                "kernels.GaussianMixture.init", gm.__init__,
                lambda a, k, out: {
                    "kernels.GaussianMixture.init.components": a[0].n_components
                },
            )),
            (hf, "fw_quad", fw),
            (filters, "fw_quad", fw),
            (fwq, "fw_vertex_search", self.timed("fw_quad.fw_vertex_search", fwq.fw_vertex_search)),
            (fwq, "simplex_qp_solve", self.timed(
                "fw_quad.simplex_qp_solve", fwq.simplex_qp_solve,
                raises=(fwq.QpConvergenceError, "fw_quad.qp_fallbacks"),
            )),
            (filters, "pf_step", self.timed("filters.pf_step", filters.pf_step)),
            (filters, "build_transition_mixture", self.timed(
                "filters.build_transition_mixture", filters.build_transition_mixture
            )),
            (hf, "run_filter", run_filter),
            (filters, "run_filter", run_filter),
            (hf, "run_rbpf", self.timed("filters.run_rbpf", hf.run_rbpf)),
            (stream, "take", self.timed(
                "qmc.SobolStream.take", stream.take,
                lambda a, k, out: {"qmc.SobolStream.take.points": out.shape[0]},
            )),
            (qmc, "inverse_normal_cdf", self.timed(
                "qmc.inverse_normal_cdf", qmc.inverse_normal_cdf
            )),
            (hf, "kalman_run", self.timed("exact.kalman_run", hf.kalman_run)),
        ]

    def install(self, hf):
        if self._wrappers is None:
            self._wrappers = self._build_wrappers(hf)
        for owner, attr, wrapper in self._wrappers:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- model closures ---------------------------------------------------

    def wrap_model(self, model):
        """The same StateSpaceModel with its batch callables traced."""
        return dataclasses.replace(
            model,
            log_likelihood_batch=self.timed(
                "models.log_likelihood_batch", model.log_likelihood_batch,
                lambda a, k, out: {"models.log_likelihood_batch.points": out.shape[0]},
            ),
            transition_parts=self.timed(
                "models.transition_parts", model.transition_parts,
                lambda a, k, out: {
                    "models.transition_parts.points": out.comp_weights.shape[0]
                },
            ),
        )

    def wrap_clgss(self, params):
        """ClgssParams with counted callables, and its traced joint model."""
        models = importlib.import_module("herdfilter.models")
        counted = {
            f: self.counted("models.clgss_callable", getattr(params, f))
            for f in _CLGSS_CALLABLES
        }
        traced = dataclasses.replace(params, **counted)
        return traced, self.wrap_model(models.clgss_model(traced))
