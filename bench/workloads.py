"""The three benchmark workloads.  Each is a closed loop with one client.

build-si        operator churn: every request is a fresh support set at
                N=30, built through function set, Gram system, operator and
                bounds.  Masked-kernel quadrature dominates.
convert-stream  four users at N=64 (one without support information),
                operators built in set-up, covariances converted round-robin
                through ``convert``.  The per-coherence-block path.
cli-convert     one cold ``apscast convert --operator`` process per
                covariance, against an operator exported once in set-up.
                Pays for interpreter start, imports and JSON I/O.

Every operation's output is checked: finite, and each realized error
|A r_u - r_d| within ||rho|| * res_k + 1e-7 (the minimum-norm bound) for a
unit-norm spectrum inside the operator's support.  Latency clocks run only
while the client waits for the program; input generation, checks and speed
readings happen between operations.

Host speed.  The shared two-vCPU host switches between speed regimes that
last from one to tens of seconds: one convert call took 8.5 us in one and
11.5 to 15 us in others, and a pure-Python loop slowed by the same ratio.
Each workload therefore times a fixed reference kernel (``Speedometer``)
right before and after every operation or batch, and reports times scaled
by nominal / measured reference time, i.e. as they would read at the
host's fast-regime speed.  A fixed numpy matrix-vector loop tracked the
convert call to +-4% over a 1.7x speed range; raw times are kept in the
run record next to the scaled ones.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from inputs import HALF_PI, bump_design, place, r_vector, ula_omegas

SLACK = 1e-7                 # acceptance criterion 3
GOLDEN_TOL = 1e-9            # acceptance criterion 5
SETUP_REPS = 3               # set-up is repeated and its median reported
TAIL_CAP = 99.0

N_BUILD = 30
# Support shapes for build-si, as (centre, width) per interval.  Each cycle
# of the stream visits every shape once in a seeded order, and every visit
# moves centres by up to +-JITTER rad and widths by up to +-JITTER relative,
# so each request has a support never seen before (fresh quadrature-cache
# keys) while the mix of widths, positions and interval counts stays the
# same from seed to seed.  Per-shape bounds span 20x, so a plain random draw
# would make bound_mean and latency depend on the seed; at 5% jitter
# bound_mean still moved 1.6% and err_mean 6% between seeds.
BUILD_SHAPES = (
    ((-0.9, 0.35),), ((0.25, 0.35),), ((-0.3, 0.6),), ((0.8, 0.6),),
    ((-0.6, 0.9),), ((0.45, 0.9),), ((0.1, 1.2),), ((-0.25, 1.4),),
    ((-1.0, 0.3), (0.2, 0.5)), ((-0.5, 0.4), (0.6, 0.6)),
    ((-1.1, 0.25), (1.0, 0.4)), ((-0.2, 0.7), (0.9, 0.3)),
)
WARMUP_SHAPE = ((-1.2, 0.45),)          # not in the stream
JITTER = 0.02
SPECTRA_PER_BUILD = 8
# Peak RSS, bound_mean and err_mean of build-si cover the first two shape
# cycles, which every run completes: RSS grows with each build while the
# quadrature caches fill, so a count that depends on the host's speed moved it.
MEASURED_BUILDS = 2 * len(BUILD_SHAPES)
# Spectra follow the same rule as supports: a fixed design of bump mixtures
# (drawn once from DESIGN_SEED) placed inside each support with seeded
# jitter.  Realized errors of unconstrained random spectra are so heavy-tailed
# that err_mean over a run's few hundred spectra moved 35% between seeds.
DESIGN_SEED = 1804

N_STREAM = 64
# convert-stream users: one without support information, three with.  The
# first support is the paper's [0, pi/2]; cli-convert exports that user's
# operator, so both paths run the same conversion.  The operators used are
# built from these shapes as given; earlier set-up repetitions use jittered
# copies so that none of them is served from caches another one filled.
STREAM_SHAPES = (None, ((0.785, 1.5),), ((-0.95, 1.1),), ((-0.8, 0.6), (0.7, 0.8)))
POOL_PER_USER = 64
BATCH = 4096
RSS_AT_BATCH = 8             # before the run's own latency store grows
CLI_USER = 1
CLI_POOL = POOL_PER_USER     # covariance files, each converted once per pass
CLI_BLOCK = 16

CLI_MAIN = "import sys; from apscast.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import apscast; "
                "print(time.perf_counter() - t)")

_REF_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_REF_VECTOR = np.ones(96)


def _interpreter_kernel() -> None:
    s = 0.0
    for i in range(20000):
        s += i * 0.5


def _blas_kernel() -> None:
    for _ in range(500):
        (_REF_MATRIX @ _REF_VECTOR).sum()


class Speedometer:
    """Times a fixed reference kernel; ``factor`` turns a time measured
    between two readings into the time at the nominal reference speed.
    Nominal values are the kernels' fast-regime times on the Xeon host the
    benchmark was defined on."""

    KERNELS = {"interpreter": (_interpreter_kernel, 1.1e-3),
               "blas": (_blas_kernel, 1.6e-3)}

    def __init__(self, kind: str) -> None:
        self._kernel, self._nominal = self.KERNELS[kind]
        self.last = self.read()

    def read(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Nominal over the mean of the previous and a fresh reading."""
        now = self.read()
        f = self._nominal / (0.5 * (self.last + now))
        self.last = now
        return f


def seeded(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def jittered(shape, rng: np.random.Generator | None, amount: float):
    """Intervals of ``shape`` moved and resized by up to ``amount``
    (unchanged without ``rng``)."""
    if shape is None:
        return None
    ivs = []
    for centre, width in shape:
        if rng is not None:
            centre += rng.uniform(-amount, amount)
            width *= 1.0 + rng.uniform(-amount, amount)
        ivs.append([max(-HALF_PI, centre - 0.5 * width), min(HALF_PI, centre + 0.5 * width)])
    return ivs


def stream_supports(seed: int, rep: int):
    """Supports of the convert-stream users for set-up repetition ``rep``."""
    rng = None if rep == SETUP_REPS - 1 else seeded(seed, 100 + rep)
    return [jittered(shape, rng, JITTER) for shape in STREAM_SHAPES]


def user_spectra(seed: int, user: int, support, count: int):
    """The first ``count`` designs of a user, in seeded order, jittered."""
    design_rng = seeded(DESIGN_SEED, 1 + user)
    designs = [bump_design(design_rng) for _ in range(count)]
    rng = seeded(seed, 10 + user)
    return [place(designs[k], support, rng, JITTER) for k in rng.permutation(count)]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples_ms: np.ndarray) -> tuple[float, float, int]:
    """The highest percentile with ten samples beyond it, 100 (1 - 10/n),
    kept between p50 and p99.  Above p99 the convert-stream samples record
    bursts of host interrupts: with the same code, p99.9 of the scaled
    convert time ranged 32-55 us over six runs and p99 11-14 us."""
    n = samples_ms.size
    p = min(TAIL_CAP, max(50.0, 100.0 * (1.0 - 10.0 / n)))
    return float(np.percentile(samples_ms, p)), p, n


def block_median(samples: np.ndarray, block: int) -> float:
    """Median per block of ``block`` consecutive operations, averaged over
    the whole blocks (a plain median when there is no whole block).  Blocks
    are one cycle of support shapes in build-si, so each block holds the
    same mix of requests."""
    whole = samples.size // block
    if whole == 0:
        return float(np.median(samples))
    return float(np.mean(np.median(samples[:whole * block].reshape(whole, block), axis=1)))


def geometric_mean(values) -> float:
    """Realized errors span orders of magnitude across supports and move
    several-fold with small support changes, so they are averaged in log
    space: every conversion counts by its relative change."""
    return float(np.exp(np.mean(np.log(values)))) if len(values) else math.nan


@dataclass
class Outcome:
    """What one workload run measured.  Latencies are raw seconds, each with
    the speed factor read around it."""

    block: int = 1                                     # operations per p50 block
    lat_s: list = field(default_factory=list)          # untraced operations
    speed: list = field(default_factory=list)
    lat_traced_s: list = field(default_factory=list)   # traced operations
    speed_traced: list = field(default_factory=list)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup_runs_s: list = field(default_factory=list)   # scaled, like latencies
    setup_extra_s: float = 0.0
    rss_mb: float = 0.0
    bound_mean: float = math.nan
    err_mean: float = math.nan
    probes: dict = field(default_factory=dict)         # one-off per-layer probes
    per_op: list = field(default_factory=list)         # build-si: one row per build
    raw_busy_s: float = 0.0                            # time inside the program
    busy_s: float = 0.0                                # the same, speed-scaled

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def record(self, raw_s, factor: float, traced: bool) -> None:
        (self.lat_traced_s if traced else self.lat_s).append(raw_s)
        (self.speed_traced if traced else self.speed).append(factor)
        self.raw_busy_s += float(np.sum(raw_s))
        self.busy_s += float(np.sum(raw_s)) * factor

    @property
    def setup_s(self) -> float:
        return self.setup_extra_s + statistics.median(self.setup_runs_s)


class Context:
    """Run parameters plus handles to the package under test."""

    def __init__(self, ap, root: str, work: str, seed: int, seconds: float,
                 tracer, import_s: float, env: dict) -> None:
        self.ap = ap
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.import_s = import_s
        self.env = env
        self.tracing = False

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn, inside a span when this operation is traced."""
        if self.tracer is None or not self.tracing:
            return fn(*args, **kwargs)
        i = self.tracer.begin(self.tracer.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.finish(i)

    def traced_op(self, index: int) -> bool:
        """Traced runs alternate traced and untraced operations, so the two
        latency samples see the same inputs and the same machine phases."""
        return self.tracer is not None and index % 2 == 0


def check_conversion(out_r: np.ndarray, r_d: np.ndarray, bounds: np.ndarray):
    """Per-slot realized error and whether the output passes the gate."""
    err = np.abs(out_r - r_d)
    ok = bool(np.all(np.isfinite(out_r)) and np.all(err <= bounds + SLACK))
    return err, ok


def build_operator(ctx: Context, cfg, support):
    """Function set -> Gram system -> operator -> bounds (B = 1)."""
    ap = ctx.ap
    c_s = ap.SupportSet(support) if support is not None else None
    fs = ctx.span("array_model.build_function_set", ap.build_function_set, cfg, c_s)
    gs = ctx.span("conversion.build_gram_system", ap.build_gram_system, fs)
    op = ctx.span("conversion.build_conversion_operator", ap.build_conversion_operator, gs)
    rep = ctx.span("bounds_analysis.compute_bounds", ap.compute_bounds, gs, 1.0, op=op)
    return gs, op, rep


def golden_check(ctx: Context, out: Outcome) -> None:
    """Reference cell (N=30, support [0, pi/2] and none) against the
    committed golden bounds."""
    ap = ctx.ap
    path = os.path.join(ctx.root, "tests", "golden", "fig1_reference.json")
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    cfg = ap.UlaConfig.reference(N_BUILD)
    out.attempted += 1
    for key, support in (("no_si", None), ("si", [[0.0, HALF_PI]])):
        gs, _, rep = build_operator(ctx, cfg, support)
        dev = float(np.max(np.abs(rep.bounds_pv0 - np.asarray(golden["bound_" + key]))))
        if not dev <= GOLDEN_TOL or gs.rank != golden["rank_" + key]:
            out.fail(f"golden {key}: max bound deviation {dev:.2e}, "
                     f"rank {gs.rank} vs {golden['rank_' + key]}")
            return


# ---------------------------------------------------------------------------
# build-si
# ---------------------------------------------------------------------------


def build_si(ctx: Context) -> Outcome:
    ap, out = ctx.ap, Outcome(block=len(BUILD_SHAPES))
    cfg = ap.UlaConfig.reference(N_BUILD)
    wu = ula_omegas(N_BUILD, cfg.spacing_up)
    wd = ula_omegas(N_BUILD, cfg.spacing_down)
    meter = Speedometer("interpreter")

    out.setup_extra_s = ctx.import_s
    warm_rng = seeded(ctx.seed, 0)
    for _ in range(SETUP_REPS):
        support = jittered(WARMUP_SHAPE, warm_rng, JITTER)
        t0 = time.perf_counter()
        build_operator(ctx, cfg, support)
        dt = time.perf_counter() - t0
        out.setup_runs_s.append(dt * meter.factor())

    order_rng, shape_rng, spec_rng = (seeded(ctx.seed, s) for s in (1, 2, 3))
    design_rng = seeded(DESIGN_SEED, 0)
    designs = [bump_design(design_rng) for _ in range(SPECTRA_PER_BUILD)]
    bound_means, err_means = [], []
    cycle: list = []
    meter.factor()
    while out.raw_busy_s < ctx.seconds:
        if not cycle:
            cycle = list(order_rng.permutation(len(BUILD_SHAPES)))
        shape = int(cycle.pop())
        support = jittered(BUILD_SHAPES[shape], shape_rng, JITTER)
        spectra = [place(d, support, spec_rng, JITTER) for d in designs]
        i = out.ops
        out.attempted += 1
        traced = ctx.traced_op(i)
        if traced:
            ctx.tracer.current_request = i
            ctx.tracer.install()
            ctx.tracing = True
            root = ctx.tracer.begin(ctx.tracer.name_id("request"))
        t0 = time.perf_counter()
        try:
            gs, op, rep = build_operator(ctx, cfg, support)
        except ap.ApscastError as exc:
            gs = None
            out.fail(f"build {i} {support}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        if traced:
            ctx.tracer.finish(root)
            ctx.tracer.restore()
        out.record(dt, meter.factor(), traced)
        out.ops += 1

        if gs is not None:
            bounds = rep.bounds_pv0
            ok = bool(np.all(np.isfinite(op.A)) and np.all(np.isfinite(bounds)))
            errs = []
            for spec in spectra:
                cov = ap.HermitianToeplitzCov.from_r_vector(r_vector(spec, wu))
                res = ctx.span("conversion.convert", ap.convert, op, cov)
                err, good = check_conversion(res.to_r_vector(), r_vector(spec, wd), bounds)
                errs.append(float(err.mean()))
                ok &= good
            if not ok:
                out.fail(f"build {i} {support}: output not finite or error above bound")
            bound_means.append(float(bounds.mean()))
            err_means.append(errs)
            out.per_op.append({"shape": shape, "support": support, "latency_s": dt,
                               "bound_mean": bound_means[-1], "err_mean": float(np.mean(errs))})
        ctx.tracing = False
        if out.ops == MEASURED_BUILDS:
            out.rss_mb = max_rss_mb()
        meter.factor()          # re-read after the checks, before the next build
    if out.ops < MEASURED_BUILDS:
        out.rss_mb = max_rss_mb()
    if bound_means:
        out.bound_mean = float(np.mean(bound_means[:MEASURED_BUILDS]))
        out.err_mean = geometric_mean(np.concatenate(err_means[:MEASURED_BUILDS]))
    golden_check(ctx, out)
    return out


# ---------------------------------------------------------------------------
# convert-stream
# ---------------------------------------------------------------------------


def convert_stream(ctx: Context) -> Outcome:
    ap, out = ctx.ap, Outcome(block=BATCH)
    cfg = ap.UlaConfig.reference(N_STREAM)
    setup_meter = Speedometer("interpreter")        # operator builds are Python-bound
    for rep_index in range(SETUP_REPS):
        supports = stream_supports(ctx.seed, rep_index)
        t0 = time.perf_counter()
        users = [build_operator(ctx, cfg, s)[1:] for s in supports]
        dt = time.perf_counter() - t0
        out.setup_runs_s.append(dt * setup_meter.factor())
    out.bound_mean = float(np.mean([rep.bounds_pv0 for _, rep in users]))

    wu = ula_omegas(N_STREAM, cfg.spacing_up)
    wd = ula_omegas(N_STREAM, cfg.spacing_down)
    pools = [user_spectra(ctx.seed, u, s, POOL_PER_USER) for u, s in enumerate(supports)]
    n_users = len(users)
    period = n_users * POOL_PER_USER
    # Round-robin arrival order: call c is user c % 4, pool row (c // 4) % 64.
    seq_op, seq_cov, want, bnd = [], [], [], []
    for c in range(period):
        u, row = c % n_users, (c // n_users) % POOL_PER_USER
        op, rep = users[u]
        seq_op.append(op)
        seq_cov.append(ap.HermitianToeplitzCov.from_r_vector(r_vector(pools[u][row], wu)))
        want.append(r_vector(pools[u][row], wd))
        bnd.append(rep.bounds_pv0)
    want, bnd = np.array(want), np.array(bnd)
    if not all(np.all(np.isfinite(op.A)) for op, _ in users) or not np.all(np.isfinite(bnd)):
        out.fail("operator or bounds not finite")

    convert, clock = ap.convert, time.perf_counter_ns
    tracer = ctx.tracer
    nid = tracer.name_id("conversion.convert") if tracer else 0
    log_err_sum = 0.0
    c0 = 0
    batch_index = 0
    meter = Speedometer("blas")
    while out.raw_busy_s < ctx.seconds:
        lat = np.empty(BATCH)
        results = [None] * BATCH
        traced = ctx.traced_op(batch_index)
        if traced:
            tracer.install()
            for j in range(BATCH):
                k = (c0 + j) % period
                tracer.current_request = c0 + j
                t0 = clock()
                i = tracer.begin(nid)
                results[j] = convert(seq_op[k], seq_cov[k])
                tracer.finish(i)
                lat[j] = clock() - t0
            tracer.restore()
        else:
            for j in range(BATCH):
                k = (c0 + j) % period
                t0 = clock()
                results[j] = convert(seq_op[k], seq_cov[k])
                lat[j] = clock() - t0
        lat *= 1e-9
        out.record(lat, meter.factor(), traced)

        rows = (c0 + np.arange(BATCH)) % period
        got = np.array([r.first_col for r in results])
        got_r = np.concatenate([got.real, got.imag], axis=1)
        err = np.abs(got_r - want[rows])
        good = np.isfinite(got_r).all(axis=1) & (err <= bnd[rows] + SLACK).all(axis=1)
        out.attempted += BATCH
        for j in np.flatnonzero(~good):
            out.fail(f"convert call {c0 + j} (user {(c0 + j) % n_users}): error above bound")
        log_err_sum += float(np.log(err.mean(axis=1)).sum())
        out.ops += BATCH
        c0 += BATCH
        batch_index += 1
        if batch_index == RSS_AT_BATCH:
            out.rss_mb = max_rss_mb()
    if batch_index < RSS_AT_BATCH:
        out.rss_mb = max_rss_mb()
    out.err_mean = math.exp(log_err_sum / out.ops)
    golden_check(ctx, out)
    return out


# ---------------------------------------------------------------------------
# cli-convert
# ---------------------------------------------------------------------------


def run_child(ctx: Context, args: list[str], log: str):
    """Run a cold child process; returns (wall s, exit code, child max RSS MB)."""
    with open(log, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ctx.work, env=ctx.env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, usage.ru_maxrss / 1024.0


def write_covariance(path: str, r: np.ndarray) -> None:
    n = r.size // 2
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "first_col_re": r[:n].tolist(), "first_col_im": r[n:].tolist()}, fh)


def cli_convert(ctx: Context) -> Outcome:
    ap, out = ctx.ap, Outcome(block=CLI_BLOCK)
    cfg = ap.UlaConfig.reference(N_STREAM)
    meter = Speedometer("interpreter")
    support = stream_supports(ctx.seed, SETUP_REPS - 1)[CLI_USER]
    config = os.path.join(ctx.work, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"array": {"n_antennas": N_STREAM}, "support": support}, fh)
    op_path = os.path.join(ctx.work, "op.json")
    log = os.path.join(ctx.work, "stderr.txt")
    for _ in range(SETUP_REPS):
        dt, code, _ = run_child(ctx, ["-c", CLI_MAIN, "export-operator",
                                      "--config", config, "-o", op_path], log)
        if code != 0:
            with open(log, encoding="utf-8") as fh:
                raise RuntimeError(f"export-operator exited {code}: {fh.read()}")
        out.setup_runs_s.append(dt * meter.factor())

    # The exported operator must be the one the library builds.
    gs, op, rep = build_operator(ctx, cfg, support)
    bounds = rep.bounds_pv0
    out.bound_mean = float(bounds.mean())
    out.attempted += 1
    loaded = ap.load_operator(op_path)
    if not (np.array_equal(loaded.A, op.A) and np.all(np.isfinite(loaded.A))
            and np.all(np.isfinite(bounds))):
        out.fail("exported operator differs from the library build or is not finite")

    spectra = user_spectra(ctx.seed, CLI_USER, support, CLI_POOL)
    wu = ula_omegas(N_STREAM, cfg.spacing_up)
    wd = ula_omegas(N_STREAM, cfg.spacing_down)
    inputs, want = [], []
    for k, spec in enumerate(spectra):
        path = os.path.join(ctx.work, f"cov_{k}.json")
        write_covariance(path, r_vector(spec, wu))
        inputs.append(path)
        want.append(r_vector(spec, wd))

    tracer = ctx.tracer
    nid = tracer.name_id("cli.process") if tracer else 0
    child_rss = []
    errs = {}                # per input file: repeated conversions are identical
    meter.factor()
    while out.raw_busy_s < ctx.seconds:
        i = out.ops
        k = i % CLI_POOL
        result = os.path.join(ctx.work, f"out_{k}.json")
        if os.path.exists(result):
            os.remove(result)
        traced = ctx.traced_op(i)
        dt, code, rss = run_child(ctx, ["-c", CLI_MAIN, "convert", "--operator", op_path,
                                        "--input", inputs[k], "-o", result], log)
        factor = meter.factor()
        if traced:
            tracer.current_request = i
            tracer.record(nid, int(dt * 1e9))
        out.record(dt, factor, traced)
        out.ops += 1
        out.attempted += 1
        child_rss.append(rss)
        if code != 0:
            with open(log, encoding="utf-8") as fh:
                out.fail(f"convert process {i} exited {code}: {fh.read().strip()}")
            continue
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
        got = np.concatenate([doc["first_col_re"], doc["first_col_im"]])
        err, good = check_conversion(got, want[k], bounds)
        errs[k] = float(err.mean())
        if not good:
            out.fail(f"convert process {i}: output not finite or error above bound")
    out.err_mean = geometric_mean(list(errs.values()))
    out.rss_mb = max(child_rss)
    if tracer is not None:
        cli_probes(ctx, out, gs, op, op_path)
    golden_check(ctx, out)
    return out


def cli_probes(ctx: Context, out: Outcome, gs, op, op_path: str) -> None:
    """Traced run only: the CLI's layers measured one at a time."""
    ap = ctx.ap
    out.probes["cli.operator_bytes"] = float(os.path.getsize(op_path))
    probe = os.path.join(ctx.work, "probe.json")
    imports = []
    for _ in range(5):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ctx.work,
                              env=ctx.env, capture_output=True, text=True, check=True)
        imports.append(float(proc.stdout.strip()) * 1e3)
        ctx.tracing = True
        ctx.span("conversion.export_operator", ap.export_operator, probe, op, G=gs.G)
        ctx.span("conversion.load_operator", ap.load_operator, probe)
        ctx.tracing = False
    out.probes["cli.import.ms"] = statistics.median(imports)
