"""The cached per-rank replay plan: built once, replayed on every run.

A native execution derives no index arrays after its first run — the
receive/send cells, tile origins, schedules and boundary cells come
from ``repro.runtime.replay`` — while everything derived from
``init_value`` is recomputed per run, so consecutive runs with
different boundary conditions each match the numpy dense engine
bitwise.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.apps import adi, jacobi, sor
from repro.artifacts import ArtifactCache
from repro.native.engine import RankKernels, build_native_library
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    TiledProgram,
    arrays_match,
    dense_to_cells,
)
from repro.tiling.transform import TilingTransformation
from tests.native.test_native_engine import requires_cc

SPEC = ClusterSpec()


def _scaled(init, array, cell):
    """A second boundary condition, ``2 * init + 1`` (module level so
    parallel workers can receive it under any start method)."""
    return 2.0 * init(array, cell) + 1.0


class _Counting:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ArtifactCache(str(tmp_path_factory.mktemp("replay-cache")))


def _max_diff(a, b):
    return max(float(np.max(np.abs(a[k].values - b[k].values)))
               for k in b)


@requires_cc
def test_second_init_value_is_not_stale(cache):
    """Regression: the library used to memoise per-program state built
    from the *first* run's ``init_value`` (boundary values), so a later
    run with other boundary conditions silently reused stale values
    (max |native - numpy| was 2.02 here)."""
    app = sor.app(6, 10)
    prog = TiledProgram(app.nest, sor.h_nonrectangular(2, 4, 3),
                        mapping_dim=app.mapping_dim)
    lib = build_native_library(prog, cache=cache)
    assert lib.available, lib.fallback_reason
    init_b = functools.partial(_scaled, app.init_value)
    run = DistributedRun(prog, SPEC)
    run.execute_dense(app.init_value, native=lib)
    native, _ = run.execute_dense(init_b, native=lib)
    ref, _ = DistributedRun(prog, SPEC).execute_dense(init_b)
    assert _max_diff(native, ref) == 0.0


@requires_cc
def test_second_run_replays_the_cached_plan(cache, monkeypatch):
    app = sor.app(6, 10)
    prog = TiledProgram(app.nest, sor.h_nonrectangular(2, 4, 3),
                        mapping_dim=app.mapping_dim)
    assert not prog._replay_cache
    lib = build_native_library(prog, cache=cache)
    assert lib.available, lib.fallback_reason
    run = DistributedRun(prog, SPEC)
    run.simulate()
    assert not prog._replay_cache      # simulate never builds the plan
    ref, _ = run.execute_dense(app.init_value, native=lib)
    assert len(prog._replay_cache) == prog.num_processors

    numpy_init = _Counting(app.init_value)
    run.execute_dense(numpy_init)
    sparse_init = _Counting(app.init_value)
    run.execute(sparse_init)

    calls = {}

    def count(owner, name):
        orig = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("dense_level_batches", "receive_plan", "send_plan",
                 "region_mask"):
        count(TiledProgram, name)
    count(TilingTransformation, "tile_origin")
    count(RankKernels, "_call")
    native_init = _Counting(app.init_value)
    fields, _ = run.execute_dense(native_init, native=lib)

    assert _max_diff(fields, ref) == 0.0
    nonempty = sum(1 for t in prog.dist.tiles
                   if prog.tile_point_count(t) > 0)
    assert calls.pop("_call") == nonempty
    assert calls == {}
    assert native_init.calls == numpy_init.calls == sparse_init.calls > 0


_APPS = {
    "sor": (lambda: sor.app(4, 6),
            (sor.h_rectangular, sor.h_nonrectangular), 2),
    "jacobi": (lambda: jacobi.app(3, 5, 5),
               (jacobi.h_rectangular, jacobi.h_nonrectangular), 0),
    "adi": (lambda: adi.app(4, 5),
            (adi.h_rectangular, adi.h_nr1, adi.h_nr2, adi.h_nr3), 0),
}


@requires_cc
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(_APPS)), shape=st.integers(0, 3),
       x=st.integers(2, 4), y=st.integers(2, 4), z=st.integers(2, 4),
       use_native=st.booleans())
def test_consecutive_runs_with_new_init_values(cache, name, shape,
                                               x, y, z, use_native):
    """Two runs on one program, each with its own boundary condition,
    through the dense and the parallel engine (with and without
    overlap) on the native or the numpy tile executor, all bitwise
    equal to a numpy dense run on a fresh program, with the
    simulator's event counts."""
    make_app, shapes, mdim = _APPS[name]
    app = make_app()
    h_fn = shapes[shape % len(shapes)]
    try:
        prog = TiledProgram(app.nest, h_fn(x, y, z), mapping_dim=mdim)
    except ValueError:
        assume(False)
    lib = build_native_library(prog, cache=cache) if use_native else None
    assert lib is None or lib.available, lib.fallback_reason
    sim = DistributedRun(prog, SPEC).simulate()
    for init in (app.init_value,
                 functools.partial(_scaled, app.init_value)):
        fresh = TiledProgram(app.nest, h_fn(x, y, z), mapping_dim=mdim)
        ref, _ = DistributedRun(fresh, SPEC).execute_dense(init)
        fields, stats = DistributedRun(prog, SPEC).execute_dense(
            init, native=lib)
        assert _max_diff(fields, ref) == 0.0
        assert stats == sim
        for overlap in (False, True):
            fields, stats = DistributedRun(prog, SPEC).execute_parallel(
                init, workers=2, native=lib, overlap=overlap)
            assert arrays_match(dense_to_cells(fields),
                                dense_to_cells(ref), tol=0.0)
            assert (stats.total_messages, stats.total_elements) == \
                (sim.total_messages, sim.total_elements)
