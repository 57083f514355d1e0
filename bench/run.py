"""apscast benchmark.

    python3 bench/run.py --workload build-si --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) against the package in ``src/`` of the
checkout this file sits in, checks every output, and prints a table of
metrics followed by one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics, taken from spans that are kept in memory and written
to bench/_out/ at exit.  A JSON record with the environment, every metric and
the failed checks is written there too.

BLAS runs single-threaded and APSCAST_THREADS is left at its default, in this
process and in the CLI processes it starts.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("APSCAST_THREADS", None)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")
sys.path.insert(0, BENCH)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = {
    "build-si": workloads.build_si,
    "convert-stream": workloads.convert_stream,
    "cli-convert": workloads.cli_convert,
}

# Spans summed per traced operation: (span name, suffixes of its metrics).
LAYER_TOTALS = (
    ("array_model.build_function_set", ("ms",)),
    ("hilbert_space.inner_product", ("calls", "ms")),
    ("hilbert_space.norm_sq", ("calls", "ms")),
    ("numerics.integrate", ("calls", "ms")),
    ("numerics.bessel_j0", ("calls", "ms")),
    ("numerics.pinv_psd", ("ms",)),
    ("conversion.build_gram_system", ("self_ms",)),
    ("conversion.build_conversion_operator", ("self_ms",)),
    ("bounds_analysis.compute_bounds", ("self_ms",)),
)
UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count"}


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import apscast from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "apscast", "__init__.py")):
        fail_setup(f"no package source at {SRC}/apscast")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import apscast
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(apscast.__file__))) != SRC:
        fail_setup(f"apscast imported from {apscast.__file__}, not {SRC}")
    return apscast, import_s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(seed: int) -> dict:
    """Where and on what this result was measured."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(index, f), encoding="utf-8").read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "apscast_threads": "default (unset)",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
    }


def latencies_ms(lat_s: list, speed: list, scale: bool = True) -> np.ndarray:
    """Flat latencies in ms, scaled to nominal host speed unless told not to."""
    if not lat_s:
        return np.zeros(1)
    parts = [np.atleast_1d(x) * (f if scale else 1.0) for x, f in zip(lat_s, speed)]
    return np.concatenate(parts) * 1e3


def end_to_end(out) -> tuple[dict, dict]:
    lat_ms = latencies_ms(out.lat_s, out.speed)
    raw_ms = latencies_ms(out.lat_s, out.speed, scale=False)
    tail_ms, tail_p, n = workloads.tail(lat_ms)
    metrics = {
        "latency_ms_p50": (workloads.block_median(lat_ms, out.block), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (out.ops / out.busy_s, "1/s"),
        "setup_s": (out.setup_s, "s"),
        "peak_rss_mb": (out.rss_mb, "MB"),
        "bound_mean": (out.bound_mean, "1"),
        "err_mean": (out.err_mean, "1"),
    }
    extra = {"fail_ratio": out.failed / out.attempted, "tail_percentile": tail_p,
             "latency_samples": n, "setup_runs_s": out.setup_runs_s,
             "raw_latency_ms_p50": workloads.block_median(raw_ms, out.block),
             "raw_ops_per_s": raw_ms.size / (raw_ms.sum() / 1e3),
             "speed_factor_median": float(np.median(out.speed)) if out.speed else None}
    return metrics, extra


def per_layer(tracer: Tracer, out) -> dict:
    """Per traced operation.  Span times are raw wall time; the tracing
    overhead compares speed-scaled medians, like latency_ms_p50."""
    traced_ms = latencies_ms(out.lat_traced_s, out.speed_traced)
    plain_ms = latencies_ms(out.lat_s, out.speed)
    n_ops = sum(np.size(x) for x in out.lat_traced_s)
    spans = tracer.summary()
    empty = {"count": 0, "ns": 0.0, "self_ns": 0.0, "durations": np.zeros(0)}
    metrics = {}
    for span, kinds in LAYER_TOTALS:
        s = spans.get(span, empty)
        for kind in kinds:
            value = s["count"] if kind == "calls" else s["ns" if kind == "ms" else "self_ns"] / 1e6
            metrics[f"{span}.{kind}"] = (value / n_ops, UNITS[kind])

    metrics["numerics.integrate.panels"] = (sum(tracer.panels.values()) / n_ops, "count")
    metrics["numerics.integrate.unconverged"] = (
        sum(tracer.unconverged.values()) / n_ops, "count")

    # Share of J0 calls per operation whose argument that operation had not
    # already asked for.
    a = tracer.arrays()
    j0 = a["request"][a["name"] == tracer.name_id("numerics.bessel_j0")]
    reqs, calls = np.unique(j0, return_counts=True)
    ratios = [len(tracer.j0_args.get(int(r), ())) / c for r, c in zip(reqs, calls)]
    metrics["numerics.bessel_j0.distinct_ratio"] = (
        float(np.mean(ratios)) if ratios else 0.0, "ratio")
    metrics["numerics.pinv_psd.kept_ratio"] = (
        float(np.mean(tracer.kept_ratios)) if tracer.kept_ratios else 0.0, "ratio")

    def median_of(span, scale):
        d = spans.get(span, empty)["durations"]
        return float(np.median(d)) * scale if d.size else 0.0

    metrics["conversion.convert.us"] = (median_of("conversion.convert", 1e-3), "us")
    metrics["conversion.export_operator.ms"] = (median_of("conversion.export_operator", 1e-6),
                                                "ms")
    metrics["conversion.load_operator.ms"] = (median_of("conversion.load_operator", 1e-6),
                                              "ms")
    metrics["cli.operator_bytes"] = (out.probes.get("cli.operator_bytes", 0.0), "bytes")
    metrics["cli.import.ms"] = (out.probes.get("cli.import.ms", 0.0), "ms")
    metrics["cli.process.ms"] = (median_of("cli.process", 1e-6), "ms")
    metrics["tracing.overhead_ms"] = (
        float(np.median(traced_ms) - np.median(plain_ms)), "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ap, import_s = import_package()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = Tracer(sys.modules) if args.trace else None
    ctx = workloads.Context(ap, ROOT, work, args.seed, args.seconds, tracer, import_s,
                            child_env())
    try:
        out = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.restore()

    e2e, extra = end_to_end(out)
    metrics = per_layer(tracer, out) if tracer is not None else e2e
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": out.attempted, "failed": out.failed, "failures": out.failures,
        "end_to_end": {k: v for k, (v, _) in e2e.items()} | extra,
        "per_layer": {k: v for k, (v, _) in metrics.items()} if tracer is not None else None,
        "per_op": out.per_op,
    }
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.save(os.path.join(OUT, f"spans_{tag}.npz"))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"ops={out.ops} attempted={out.attempted} failed={out.failed}")
    for what in out.failures:
        print(f"#   FAILED {what}")
    table = dict(metrics)
    if tracer is None:
        table["fail_ratio"] = (extra["fail_ratio"], "1")
    for name, (value, unit) in table.items():
        print(f"#   {name:44s} {value:14.6g} {unit}")
    print(f"#   tail is p{extra['tail_percentile']:g} of {extra['latency_samples']} untraced "
          f"samples; times scaled by a median speed factor {extra['speed_factor_median']}; "
          f"raw p50 {extra['raw_latency_ms_p50']:.6g} ms")
    env = record["environment"]
    print(f"#   env: commit={env['git_commit']} src={env['source_sha256'][:12]} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} cpu={env['cpu_model']}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
