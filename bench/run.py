"""herdfilter benchmark: run one workload and print its metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload quad --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones (setup_s, wall_s, peak_rss_mb, mean_rmse); with
`--trace 1` they are the per-layer ones of `layers.PER_LAYER`. A copy of
the result, with per-operation times, goes to bench/out/, and a traced run
also writes the spans of one traced round there. See bench/README.md.
"""

import os
import time

_START = time.perf_counter()

# One process, one BLAS/OpenMP thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FAILED = "failed"
MIN_ROUNDS = 3  # wall_s is a median of at least three rounds


def _process_age() -> float:
    """Seconds since this process started, from /proc/self/stat.

    Falls back to the time since this module began to run.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    if not 0.0 <= age < 3600.0:
        age = time.perf_counter() - _START
    return age


def _import_herdfilter():
    """Import herdfilter from this checkout's src/, and from nowhere else."""
    if not (SRC / "herdfilter" / "__init__.py").is_file():
        sys.exit(f"bench: no herdfilter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import herdfilter

    if not Path(herdfilter.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: herdfilter imported from {herdfilter.__file__}, not {SRC}")
    return herdfilter


def _run_round(hf, wl, models, problems):
    """Run every operation once; time the library calls, then check outputs."""
    seconds = 0.0
    ops = []
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            out = op.run(models)
        except hf.NumericalError as exc:
            dt = time.perf_counter() - t0
            outcome = FAILED
            error = f"{type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - t0
            error = None
            try:
                outcome = op.check(out)
            except workloads.CheckFailed as exc:
                outcome = "incorrect"
                problems.add(f"{op.name}: {exc}")
        seconds += dt
        ops.append({"name": op.name, "seconds": dt, "outcome": outcome, "error": error})
    return seconds, ops


def _write(name: str, text: str) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    hf = _import_herdfilter()
    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(hf)
    wl = workloads.BUILDERS[args.workload](hf, args.seed)
    setup_s = _process_age()
    if tracer is not None:
        tracer.uninstall()
        setup_stats = tracer.take()
        traced_models = wl.traced_models(tracer)
    wl.warmup(wl.models)

    problems: set = set()
    if tracer is not None:
        # One full round first, so that neither side of trace.overhead_s
        # pays the first-time costs of the big arrays.
        _run_round(hf, wl, wl.models, problems)
    plain, traced, layer_rounds = [], [], []
    start = time.perf_counter()
    min_rounds = MIN_ROUNDS if tracer is None else 1
    while len(plain) < min_rounds or time.perf_counter() - start < args.seconds:
        plain.append(_run_round(hf, wl, wl.models, problems))
        if tracer is not None:
            tracer.take()
            tracer.spans = [] if not traced else None
            tracer.install(hf)
            try:
                traced.append(_run_round(hf, wl, traced_models, problems))
            finally:
                tracer.uninstall()
            if tracer.spans is not None:
                spans = tracer.spans
            tracer.spans = None
            layer_rounds.append(tracer.take())
        print(f"bench: {args.workload} round {len(plain)}: {plain[-1][0]:.3f} s",
              file=sys.stderr)

    rounds = plain + traced
    outcomes = [[op["outcome"] for op in ops] for _, ops in rounds]
    if any(o != outcomes[0] for o in outcomes):
        problems.add("outputs differ between rounds of the same operations")
    attempted = sum(len(o) for o in outcomes)
    failed = sum(v == FAILED for o in outcomes for v in o)
    rmses = [v for v in outcomes[0] if isinstance(v, float)]

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(s for s, _ in plain), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "mean_rmse": {
                "value": statistics.fmean(rmses) if rmses else float("nan"),
                "unit": "state_units",
            },
        }
    else:
        overhead = statistics.median(s for s, _ in traced) - statistics.median(s for s, _ in plain)
        metrics = {}
        for name, unit in layers.PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = layers.layer_value(setup_stats, name) + statistics.median(
                    layers.layer_value(r, name) for r in layer_rounds
                )
            metrics[name] = {"value": value, "unit": unit}
        t_ref = min((s[3] for s in spans), default=0.0)
        _write(
            f"{args.workload}-seed{args.seed}-spans.jsonl",
            "".join(
                json.dumps({"id": i, "parent": p, "name": n,
                            "start": a - t_ref, "end": b - t_ref}) + "\n"
                for i, p, n, a, b in spans
            ),
        )

    for problem in sorted(problems):
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems and bool(rmses),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    _write(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        json.dumps({"result": result, "problems": sorted(problems),
                    "rounds": [{"seconds": s, "ops": ops} for s, ops in rounds]}, indent=1),
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
