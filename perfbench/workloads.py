"""The benchmark's three workloads, all closed loops with one caller.

* ``paper_sweep`` - the paper's own traffic: the Fig 6/8/10 tile-size
  sweeps (SOR 100x200, Jacobi 50x100x100, ADI 100x256; every tile
  factor of the figure, every shape), 64 points in an order drawn from
  the seed.  Each point is compiled cold into a fresh ``ArtifactCache``
  (pipeline + artifact write), certified by ``cost_certificate`` and
  simulated on ``FAST_ETHERNET_CLUSTER``; then every point is loaded
  back warm from a new cache over the same directory.  Compile layers
  dominate; nothing executes data.
* ``sor_native`` - repeated ``execute_dense(native=lib)`` of the Fig 6
  anchor (SOR 100x200, ``h_nonrectangular(26, 76, 8)``): the runtime
  layers plus the compiled C kernels do all the work.
* ``adi_parallel`` - repeated ``execute_parallel(workers=2,
  protocol="spec")`` of ADI 20x128 under ``h_nr1(4, 33, 33)`` with the
  numpy kernels: worker processes, shared-memory rings, two arrays,
  and no native code.

The seed only orders the sweep.  Drawing a different 64-point subset
of the full 256-point Figs 5-10 grid per seed was tried and rejected:
point costs span 50 ms to 4 s, so the subset's composition alone moves
the median latency and points/s by 8-9 % (quartile spread over ten
seeds), more than the regressions the benchmark must resolve.
README.md gives the metrics, the layer map and why each choice.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from oracle import TOLERANCE, max_abs_diff, reference_arrays
from tracer import CallCounter, Tracer

from repro.apps import adi, jacobi, sor
from repro.artifacts import ArtifactCache
from repro.distribution.communication import CommunicationSpec
from repro.distribution.computation import ComputationDistribution
from repro.distribution.data import DistributedAddressing
from repro.native import compile as native_compile
from repro.native import emit as native_emit
from repro.native.engine import RankKernels, build_native_library
from repro.runtime import parallel as runtime_parallel
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import FAST_ETHERNET_CLUSTER
from repro.tiling.legality import check_legal_tiling
from repro.tiling.transform import TilingTransformation

SPEC = FAST_ETHERNET_CLUSTER

APPS = {"sor": sor, "jacobi": jacobi, "adi": adi}
SHAPES: Dict[str, Dict[str, Callable[..., Any]]] = {
    "sor": {"rect": sor.h_rectangular, "nonrect": sor.h_nonrectangular},
    "jacobi": {"rect": jacobi.h_rectangular,
               "nonrect": jacobi.h_nonrectangular},
    "adi": {"rect": adi.h_rectangular, "nr1": adi.h_nr1,
            "nr2": adi.h_nr2, "nr3": adi.h_nr3},
}


@dataclass(frozen=True)
class Point:
    """One compile request: app, problem sizes, tile shape, factors."""

    app: str
    sizes: Tuple[int, ...]
    shape: str
    factors: Tuple[int, ...]


# The Fig 6/8/10 grids at the paper's anchor spaces.  ``None`` marks
# the swept factor; the fixed ones give the paper's 4x4 processor mesh
# (as repro.experiments.figures derives them).
ANCHOR_GRIDS: Tuple[Tuple[str, Tuple[int, ...], Tuple[Optional[int], ...],
                          Tuple[int, ...]], ...] = (
    ("sor", (100, 200), (26, 76, None), (4, 6, 8, 12, 16, 24, 32, 48)),
    ("jacobi", (50, 100, 100), (None, 38, 38), (1, 2, 3, 4, 6, 8, 12, 16)),
    ("adi", (100, 256), (None, 65, 65), (1, 2, 3, 4, 6, 8, 12, 16)),
)


def anchor_points() -> List[Point]:
    return [Point(app, sizes, shape,
                  tuple(f if x is None else x for x in mesh))
            for app, sizes, mesh, swept in ANCHOR_GRIDS
            for f in swept for shape in SHAPES[app]]


@dataclass(frozen=True)
class RunConfig:
    """One execution workload: app, sizes, tiling, engine."""

    app: str
    sizes: Tuple[int, ...]
    shape: str
    factors: Tuple[int, ...]
    native: bool
    workers: int        # 0: in-process dense engine


RUN_CONFIGS = {
    "sor_native": RunConfig("sor", (100, 200), "nonrect", (26, 76, 8),
                            native=True, workers=0),
    "adi_parallel": RunConfig("adi", (20, 128), "nr1", (4, 33, 33),
                              native=False, workers=2),
}

#: The sweep repeats its 64 points once per this many --seconds.
SWEEP_PASS_SECONDS = 30
#: Set-ups per untraced run; setup_s is their median.
SWEEP_SETUPS = 9
RUN_SETUPS = 3
#: Fewest timed executions per measured phase, whatever --seconds says.
MIN_EXECUTIONS = 2
#: Iterations of the host-speed calibration loop, and its median time
#: in ms on the reference host (2 CPUs, Python 3.11).
CAL_ITERATIONS = 150_000
CAL_NOMINAL_MS = 7.5


@dataclass
class Outcome:
    """What one workload measured."""

    workload: str
    seed_note: str
    attempted: int = 0
    failed: int = 0
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Per end-to-end metric: its workload-specific name, sample count.
    notes: Dict[str, str] = field(default_factory=dict)
    #: Figures printed beside the JSON metrics.
    report: List[Tuple[str, float, str]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    skip: Optional[str] = None
    trace_files: Tuple[str, ...] = ()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


# -- helpers -----------------------------------------------------------------


def _ms(ns: float) -> float:
    return ns / 1e6


def tail(values: Sequence[float]) -> float:
    """Highest percentile with at least ten samples beyond it; the
    maximum when that percentile would not be above the median."""
    s = sorted(values)
    return s[-11] if len(s) >= 21 else s[-1]


def _tail_note(n: int) -> str:
    return f"p{100 * (n - 10) // n} of n={n}" if n >= 21 \
        else f"slowest of n={n}"


def _calibration_ms() -> float:
    samples = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        acc = 0
        for k in range(CAL_ITERATIONS):
            acc += k
        samples.append(_ms(time.perf_counter_ns() - t0))
    return statistics.median(samples)


class HostSpeed:
    """Scales wall time to the reference host's speed.

    The speed of a shared host drifts: a fixed pure-Python loop timed
    back to back ranged over 74-106 ms in 5 s windows of one minute on
    the 2-CPU reference host, so the raw medians of two 20 s runs can
    differ by 15 %.  The benchmark samples a calibration loop that
    touches no ``repro`` code after every timed operation; an
    operation's wall time is multiplied by ``CAL_NOMINAL_MS`` over the
    median of the samples taken within ``WINDOW_S`` of its midpoint
    (at least the two nearest), which follows the drift without
    following one sample's noise.
    """

    WINDOW_S = 5.0

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.sample()

    def sample(self) -> None:
        """Collect the finished operation's garbage, then calibrate."""
        gc.collect()
        t = time.perf_counter()
        self.samples.append((t, _calibration_ms()))

    def scale(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Scaled durations (s) of ``(start, end)`` perf_counter spans."""
        out = []
        for t0, t1 in spans:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            window = [ms for t, ms in near if abs(t - mid) <= self.WINDOW_S]
            if len(window) < 2:
                window = [ms for _, ms in near[:2]]
            out.append((t1 - t0) * CAL_NOMINAL_MS / statistics.median(window))
        return out


def reset_peak_rss() -> None:
    """Hand freed heap back to the OS (building the oracle can leave
    hundreds of MiB behind), then restart this process's high-water
    mark at its current RSS."""
    gc.collect()
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):   # not glibc
        pass
    else:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    """This process's peak RSS plus the largest child's (workers, cc)."""
    own = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _op(tracer: Optional[Tracer], name: str) -> Any:
    return tracer.span(name, op=True) if tracer else nullcontext()


def _paused(tracer: Optional[Tracer]) -> Any:
    return tracer.paused() if tracer else nullcontext()


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see README.md)."""
    tracer.wrap_function(check_legal_tiling, "tiling.transform")
    tracer.wrap_method(TilingTransformation, "__init__", "tiling.transform")
    tracer.wrap_method(TilingTransformation, "enumerate_tiles",
                       "tiling.enumerate")
    tracer.wrap_method(TilingTransformation, "tile_dependences",
                       "tiling.tile_deps")
    for cls in (ComputationDistribution, CommunicationSpec,
                DistributedAddressing):
        tracer.wrap_method(cls, "__init__", "distribution.build")
    tracer.wrap_method(TiledProgram, "prewarm_region_counts",
                       "runtime.regions")
    tracer.wrap_function(runtime_parallel.build_rank_plans,
                         "runtime.rank_plans")
    tracer.wrap_method(TiledProgram, "cost_certificate", "analysis.cost")
    tracer.wrap_method(DistributedRun, "simulate", "runtime.simulate")
    tracer.wrap_method(ArtifactCache, "store", "artifacts.store")
    tracer.wrap_method(ArtifactCache, "load", "artifacts.load")
    tracer.wrap_function(native_emit.emit_translation_unit, "native.emit")
    tracer.wrap_function(native_compile.compile_shared_object, "native.cc")
    # The single call site of the library's repro_run entry point.
    tracer.wrap_method(RankKernels, "_call", "native.repro_run")


#: Span name -> per-layer metric (self time, summed over the run).
LAYER_SPANS = {
    "tiling.transform": "tiling.transform_ms",
    "tiling.enumerate": "tiling.enumerate_ms",
    "tiling.tile_deps": "tiling.tile_deps_ms",
    "distribution.build": "distribution.build_ms",
    "runtime.regions": "runtime.regions_ms",
    "runtime.rank_plans": "runtime.rank_plans_ms",
    "analysis.cost": "analysis.cost_ms",
    "runtime.simulate": "runtime.simulate_ms",
    "artifacts.store": "artifacts.store_ms",
    "artifacts.load": "artifacts.load_ms",
    "native.emit": "native.emit_ms",
    "native.cc": "native.cc_ms",
    "native.load": "native.load_ms",
}

#: Every per-layer metric starts at zero: a workload that never enters
#: a layer reports no time and no calls there.
ZERO_LAYERS = (
    "native.kernel_s", "native.kernel_calls", "native.c_share",
    "runtime.init_s", "runtime.init_calls", "runtime.python_s",
    "runtime.walk_s", "runtime.messages", "runtime.elements",
    "parallel.compute_s", "parallel.comm_s", "parallel.makespan_s",
    "parallel.overhead_s", "parallel.model_gap", "artifacts.bytes",
)


def layer_times(tracer: Tracer) -> Dict[str, float]:
    self_ns = tracer.self_ns()
    out = {metric: 0.0 for metric in ZERO_LAYERS}
    out.update({metric: _ms(self_ns.get(span, 0))
                for span, metric in LAYER_SPANS.items()})
    return out


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


# -- paper_sweep ---------------------------------------------------------------


@dataclass
class SweepInput:
    point: Point
    app: Any
    h: Any


def sweep_inputs(seed: int, points: List[Point]) -> List[SweepInput]:
    """The seeded order of ``points``, with apps and H built."""
    order = list(points)
    random.Random(seed).shuffle(order)
    apps: Dict[Tuple[str, Tuple[int, ...]], Any] = {}
    out = []
    for p in order:
        key = (p.app, p.sizes)
        if key not in apps:
            apps[key] = APPS[p.app].app(*p.sizes)
        out.append(SweepInput(p, apps[key], SHAPES[p.app][p.shape](*p.factors)))
    return out


@dataclass
class SweepPass:
    cold_ms: List[float] = field(default_factory=list)
    load_ms: List[float] = field(default_factory=list)
    #: Per point: (tiles, messages, elements, simulated speedup).
    exact: List[Tuple[int, int, int, float]] = field(default_factory=list)
    simulate_ms: List[float] = field(default_factory=list)
    artifact_bytes: int = 0


def sweep_pass(inputs: List[SweepInput], cache_dir: str, out: Outcome,
               tracer: Optional[Tracer]) -> SweepPass:
    """One cold pass then one warm pass over ``inputs``."""
    res = SweepPass()
    host = HostSpeed()
    cache = ArtifactCache(cache_dir)
    cold_stats = []
    cold_spans: List[Tuple[float, float]] = []
    for inp in inputs:
        nest, md = inp.app.nest, inp.app.mapping_dim
        out.attempted += 1
        try:
            with _op(tracer, "sweep.cold") as span:
                t0 = time.perf_counter_ns()
                prog, status = cache.get_or_compile(nest, inp.h, md)
                cert = prog.cost_certificate(spec=SPEC)
                t1 = time.perf_counter_ns()
                stats = DistributedRun(prog, SPEC).simulate()
                t2 = time.perf_counter_ns()
        except Exception as exc:  # a failed operation, not a crash
            out.fail(f"{inp.point}: {exc!r}")
            cold_stats.append(None)
            host.sample()
            continue
        res.simulate_ms.append(_ms(t2 - t1))
        cold_spans.append((t0 / 1e9, t2 / 1e9))
        cold_stats.append(stats)
        res.exact.append((len(prog.dist.tiles), stats.total_messages,
                          stats.total_elements,
                          SPEC.compute_time(prog.total_points())
                          / stats.makespan))
        if status != "miss":
            out.fail(f"{inp.point}: fresh cache answered {status}")
        elif cert.makespan != stats.makespan:
            out.fail(f"{inp.point}: certified makespan {cert.makespan!r} "
                     f"!= simulated {stats.makespan!r}")
        del prog, cert, span
        host.sample()
    res.artifact_bytes = _dir_bytes(cache_dir)
    warm = ArtifactCache(cache_dir)
    load_spans = []
    for inp, cold in zip(inputs, cold_stats):
        if cold is None:
            continue
        out.attempted += 1
        try:
            with _op(tracer, "sweep.warm"):
                t0 = time.perf_counter()
                prog = warm.load(inp.app.nest, inp.h, inp.app.mapping_dim)
                load_spans.append((t0, time.perf_counter()))
        except Exception as exc:  # a failed operation, not a crash
            out.fail(f"{inp.point}: warm load raised {exc!r}")
            continue
        if prog is None:
            out.fail(f"{inp.point}: warm load missed")
            continue
        with _paused(tracer):
            if DistributedRun(prog, SPEC).simulate() != cold:
                out.fail(f"{inp.point}: warm-loaded RunStats differ")
        del prog
    host.sample()
    res.cold_ms = [x * 1e3 for x in host.scale(cold_spans)]
    res.load_ms = [(t1 - t0) * 1e3 for t0, t1 in load_spans]
    return res


def run_sweep(seed: int, seconds: float, trace: bool, work_dir: str,
              out_dir: str) -> Outcome:
    points = anchor_points()
    out = Outcome("paper_sweep",
                  f"seed {seed} orders the {len(points)} sweep points")
    reset_peak_rss()
    setup_spans = []
    host = HostSpeed()
    for _ in range(1 if trace else SWEEP_SETUPS):
        t0 = time.perf_counter()
        inputs = sweep_inputs(seed, points)
        os.rmdir(tempfile.mkdtemp(prefix="sweep-", dir=work_dir))
        setup_spans.append((t0, time.perf_counter()))
        host.sample()
    setups = host.scale(setup_spans)
    passes = max(1, round(seconds / SWEEP_PASS_SECONDS))
    if trace:
        passes = max(1, passes // 2)
    plain: List[SweepPass] = []
    for _ in range(passes):
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=work_dir)
        try:
            plain.append(sweep_pass(inputs, cache_dir, out, None))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    for later in plain[1:]:
        if later.exact != plain[0].exact:
            out.fail("a repeated pass produced different schedules")
    first = plain[0]
    cold = [x for p in plain for x in p.cold_ms]
    loads = [x for p in plain for x in p.load_ms]
    geomean = math.exp(statistics.fmean(math.log(e[3]) for e in first.exact))
    out.e2e = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(cold),
        "ops_per_s": len(cold) / (sum(cold) / 1e3),
        "sim_speedup_geomean": geomean,
    }
    n = len(cold)
    out.notes = {
        "setup_s": f"median of {len(setups)}",
        "op_ms_p50": f"sweep_ms_p50, cold point, n={n}",
        "ops_per_s": "sweep_points_per_s",
        "sim_speedup_geomean": f"over {len(first.exact)} points",
    }
    out.report = [
        ("sweep_ms_tail", tail(cold), f"ms, {_tail_note(n)}"),
        ("load_ms_p50", statistics.median(loads),
         f"ms, warm artifact load, wall clock, n={len(loads)}"),
    ]
    if trace:
        tracer = Tracer()
        install_layers(tracer)
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=work_dir)
        try:
            traced = sweep_pass(inputs, cache_dir, out, tracer)
        finally:
            tracer.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        if traced.exact != first.exact:
            out.fail("the traced pass produced different schedules")
        out.layers = layer_times(tracer)
        out.layers.update({
            "artifacts.bytes": traced.artifact_bytes,
            "tiling.tiles": sum(e[0] for e in traced.exact),
            "runtime.sim_messages": sum(e[1] for e in traced.exact),
            "runtime.sim_elements": sum(e[2] for e in traced.exact),
            "runtime.walk_s": statistics.median(traced.simulate_ms) / 1e3,
            "trace.overhead_frac":
                sum(traced.cold_ms) / sum(first.cold_ms) - 1.0,
        })
        out.trace_files = tracer.write(
            os.path.join(out_dir, f"paper_sweep-seed{seed}"),
            {"workload": "paper_sweep", "seed": seed})
    out.e2e["peak_rss_mib"] = peak_rss_mib()
    return out


# -- run workloads -------------------------------------------------------------


def _execute(run: DistributedRun, cfg: RunConfig, init: Any,
             lib: Any) -> Tuple[Dict[str, Any], Any]:
    if cfg.workers:
        return run.execute_parallel(init, workers=cfg.workers,
                                    protocol="spec")
    return run.execute_dense(init, native=lib)


def run_executions(name: str, seconds: float, trace: bool, work_dir: str,
                   out_dir: str, ref_dir: str) -> Outcome:
    cfg = RUN_CONFIGS[name]
    out = Outcome(name, "takes no seed: one fixed configuration")
    if cfg.workers > 1 and (os.cpu_count() or 1) < cfg.workers:
        out.skip = (f"os.cpu_count()={os.cpu_count()} is below the "
                    f"{cfg.workers} workers this workload measures")
        return out
    module = APPS[cfg.app]
    arrays = list(module.app(*cfg.sizes).nest.written_arrays)
    refs = reference_arrays(cfg.app, cfg.sizes, arrays, ref_dir)
    reset_peak_rss()

    tracer = Tracer() if trace else None
    dirs: List[str] = []
    try:
        return _run_executions(out, cfg, module, arrays, refs, seconds,
                               tracer, work_dir, out_dir, dirs)
    finally:
        if tracer is not None:
            tracer.close()
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)


def _check(out: Outcome, what: str, fields: Dict[str, Any], stats: Any,
           sim: Any, refs: Dict[str, Any]) -> None:
    if (stats.total_messages, stats.total_elements) != \
            (sim.total_messages, sim.total_elements):
        out.fail(f"{what}: {stats.total_messages} messages / "
                 f"{stats.total_elements} elements, simulate() has "
                 f"{sim.total_messages} / {sim.total_elements}")
        return
    for a, ref in refs.items():
        diff = max_abs_diff(fields[a], ref)
        if not diff < TOLERANCE:
            out.fail(f"{what}: array {a} max |diff| = {diff:.3e}")
            return


def _run_executions(out: Outcome, cfg: RunConfig, module: Any,
                    arrays: List[str], refs: Dict[str, Any],
                    seconds: float, tracer: Optional[Tracer],
                    work_dir: str, out_dir: str, dirs: List[str]) -> Outcome:
    # A traced run traces its one set-up and the walk, uninstalls the
    # wrappers for the plain executions and installs them again for
    # the traced ones.
    if tracer is not None:
        install_layers(tracer)
    setup_spans = []
    warmups = []
    host = HostSpeed()
    for _ in range(1 if tracer else RUN_SETUPS):
        with _op(tracer, "setup"):
            t0 = time.perf_counter()
            app = module.app(*cfg.sizes)
            h = SHAPES[cfg.app][cfg.shape](*cfg.factors)
            prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
            dirs.append(tempfile.mkdtemp(prefix="run-", dir=work_dir))
            cache = ArtifactCache(dirs[-1])
            lib = None
            if cfg.native:
                lib = build_native_library(prog, cache=cache)
                if not lib.available:
                    out.skip = ("native build fell back: "
                                f"{lib.fallback_reason}")
                    return out
            run = DistributedRun(prog, SPEC)
            warmups.append(_execute(run, cfg, app.init_value, lib))
            setup_spans.append((t0, time.perf_counter()))
        host.sample()
    setups = host.scale(setup_spans)

    # Oracle inputs and the schedule walk, outside every timed region.
    with _op(tracer, "walk"):
        t0 = time.perf_counter()
        sim = run.simulate()
        walk_s = time.perf_counter() - t0
    for i, (fields, stats) in enumerate(warmups):
        out.attempted += 1
        _check(out, f"set-up execution {i}", fields, stats, sim, refs)
    del warmups

    with _paused(tracer):
        cert = prog.cost_certificate(spec=SPEC)
    out.attempted += 1
    if cert.makespan != sim.makespan:
        out.fail(f"certified makespan {cert.makespan!r} != simulated "
                 f"{sim.makespan!r}")
    if tracer is not None:
        tracer.close()

    def measure(budget: float, init: Any, tr: Optional[Tracer],
                on_done: Optional[Callable[[int, float, Any], None]] = None
                ) -> List[float]:
        """Scaled execution times; ``budget`` is raw seconds."""
        exec_spans: List[Tuple[float, float]] = []
        spent = 0.0
        host.sample()
        attempts = 0
        while attempts < MIN_EXECUTIONS or spent < budget:
            attempts += 1
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with _op(tr, "execute") as span:
                    fields, stats = _execute(run, cfg, init, lib)
            except Exception as exc:  # a failed operation, not a crash
                out.fail(f"execution {attempts}: {exc!r}")
                spent += time.perf_counter() - t0
                continue
            dt = time.perf_counter() - t0
            spent += dt
            if on_done is not None:
                on_done(span[5], dt, stats)
            exec_spans.append((t0, t0 + dt))
            with _paused(tr):
                _check(out, f"execution {attempts}", fields, stats,
                       sim, refs)
            del fields
            host.sample()
        return host.scale(exec_spans)

    plain = measure(seconds / 2 if tracer else seconds, app.init_value, None)
    points = prog.total_points()
    out.e2e = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(plain) * 1e3,
        "ops_per_s": len(plain) / sum(plain),
        "sim_speedup_geomean": SPEC.compute_time(points) / sim.makespan,
    }
    n = len(plain)
    out.notes = {
        "setup_s": f"median of {len(setups)}",
        "op_ms_p50": f"run_s_p50 in ms, n={n}",
        "ops_per_s": "executions per second",
    }
    out.report = [
        ("run_ms_tail", tail(plain) * 1e3, f"ms, {_tail_note(n)}"),
        ("run_mpts_per_s", points * out.e2e["ops_per_s"] / 1e6,
         f"Mpts/s, {points} points per execution"),
    ]

    if tracer is not None:
        install_layers(tracer)
        per_exec: List[Dict[str, float]] = []
        init = app.init_value
        counter = None
        if lib is not None:
            # The warm native hit, then route the scalar boundary
            # values of both the numpy and the native path through a
            # counter.
            with tracer.span("native.load", op=True):
                build_native_library(prog, cache=cache)
            counter = CallCounter(app.init_value)
            tracer.set_attr(lib.runtime(prog, app.init_value), "init_value",
                            counter)
            init = counter

        def record(op_id: int, dt: float, stats: Any) -> None:
            row = {"run_s": dt,
                   "kernel_s": tracer.total_ns("native.repro_run", op_id) / 1e9,
                   "kernel_calls": tracer.calls("native.repro_run", op_id),
                   "init_s": 0.0, "init_calls": 0,
                   "messages": stats.total_messages,
                   "elements": stats.total_elements}
            if counter is not None:
                row["init_s"] = counter.ns / 1e9
                row["init_calls"] = counter.calls
                counter.ns = counter.calls = 0
            if cfg.workers:
                row["compute_s"] = sum(stats.compute_time.values())
                row["comm_s"] = sum(stats.comm_time.values())
                row["makespan_s"] = stats.makespan
            per_exec.append(row)

        if counter is not None:
            counter.ns = counter.calls = 0
        traced = measure(seconds / 2, init, tracer, record)

        def med(key: str) -> float:
            return statistics.median(r[key] for r in per_exec)

        layers = layer_times(tracer)
        layers.update({
            "runtime.walk_s": walk_s,
            "runtime.messages": med("messages"),
            "runtime.elements": med("elements"),
            "tiling.tiles": len(prog.dist.tiles),
            "runtime.sim_messages": sim.total_messages,
            "runtime.sim_elements": sim.total_elements,
            "trace.overhead_frac":
                statistics.median(traced) / statistics.median(plain) - 1.0,
        })
        if not cfg.workers:
            # In-process engine only: a worker process's kernel and
            # init_value calls are invisible to this process's tracer
            # (parallel.* splits adi_parallel instead).
            layers.update({
                "native.kernel_s": med("kernel_s"),
                "native.kernel_calls": med("kernel_calls"),
                "native.c_share": med("kernel_s") / med("run_s"),
                "runtime.init_s": med("init_s"),
                "runtime.init_calls": med("init_calls"),
                "runtime.python_s": statistics.median(
                    r["run_s"] - r["kernel_s"] - r["init_s"]
                    for r in per_exec),
            })
        else:
            layers.update({
                "parallel.compute_s": med("compute_s"),
                "parallel.comm_s": med("comm_s"),
                "parallel.makespan_s": med("makespan_s"),
                "parallel.overhead_s": statistics.median(
                    r["run_s"] - r["makespan_s"] for r in per_exec),
                "parallel.model_gap": med("makespan_s") / sim.makespan,
            })
        out.layers = layers
        out.trace_files = tracer.write(
            os.path.join(out_dir, out.workload),
            {"workload": out.workload, "seed": None})
    out.e2e["peak_rss_mib"] = peak_rss_mib()
    return out
