"""Native compiled-kernel backend speedup guard.

The native backend exists to take the per-level numpy dispatch out of
the dense engine's inner loop: one C call per tile walks every
wavefront level and statement over the same flat LDS buffers.  This
benchmark pins the claim end-to-end, always cross-checking **bitwise**
(tol=0.0) against the numpy dense engine first — a fast wrong kernel
is worthless.

Tiers:

* default — mid-size configs per app with per-app floors (the
  speedup grows with tile volume, so small configs bound it from
  below);
* the **gate** — the paper's large SOR space (200x400, the
  Figure 5/6 configuration): ``engine="native"`` must be >= 5x the
  numpy dense engine end-to-end, the ISSUE's headline number
  (~6x measured on the reference machine);
* ``--quick`` (CI smoke) — seconds-sized config, correctness plus a
  recorded ``native_sor_quick`` timing for the regression gate.
"""

import os
import tempfile
import time

import numpy as np
import pytest

from repro.apps import adi, jacobi, sor
from repro.native.compile import (
    NativeCompileError,
    compile_shared_object,
    find_compiler,
)
from repro.native.engine import build_native_library
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    TiledProgram,
    arrays_match,
    dense_to_cells,
)

def _cc_usable():
    cc = find_compiler()
    if cc is None:
        return False
    try:
        with tempfile.TemporaryDirectory() as tmp:
            compile_shared_object(
                cc, "int repro_probe(void) { return 0; }\n",
                os.path.join(tmp, "probe.so"))
    except NativeCompileError:
        return False
    return True


requires_cc = pytest.mark.skipif(
    not _cc_usable(), reason="no working C compiler")

# (app, tiling, mapping_dim, floor) — floors from reference-machine
# measurements (sor 7.9x, jacobi 5.8x, adi 2.6x) with ~2x slack.
DEFAULT_CONFIGS = {
    "sor": (lambda: (sor.app(20, 40),
                     sor.h_nonrectangular(5, 8, 8), 2), 3.0),
    "jacobi": (lambda: (jacobi.app(10, 30, 30),
                        jacobi.h_rectangular(5, 6, 6), 0), 3.0),
    "adi": (lambda: (adi.app(12, 32),
                     adi.h_rectangular(4, 8, 8), 0), 1.5),
}

#: The gating configuration and floor from the ISSUE: paper-scale SOR.
GATE_CONFIG = lambda: (sor.app(200, 400),             # noqa: E731
                       sor.h_nonrectangular(26, 76, 8), 2)
GATE_FLOOR = 5.0

QUICK_CONFIG = lambda: (sor.app(6, 9),                # noqa: E731
                        sor.h_nonrectangular(2, 3, 4), 2)


def _timed_pair(app, h, mdim):
    """Dense-numpy vs dense-native end-to-end; bitwise cross-check."""
    prog = TiledProgram(app.nest, h, mapping_dim=mdim)
    lib = build_native_library(prog)
    assert lib.available, lib.fallback_reason
    run = DistributedRun(prog, ClusterSpec())
    t0 = time.perf_counter()
    ref_fields, ref_stats = run.execute_dense(app.init_value)
    t_numpy = time.perf_counter() - t0
    t0 = time.perf_counter()
    fields, stats = run.execute_dense(app.init_value, native=lib)
    t_native = time.perf_counter() - t0
    # Field by field, not through dense_to_cells dicts: at the gate's
    # scale each field has tens of millions of cells.
    assert fields.keys() == ref_fields.keys()
    for arr, ref in ref_fields.items():
        got = fields[arr]
        assert got.origin == ref.origin
        assert np.array_equal(got.values, ref.values)
        assert np.array_equal(got.written, ref.written)
    assert stats == ref_stats
    return prog, t_numpy, t_native


@requires_cc
@pytest.mark.parametrize("name", sorted(DEFAULT_CONFIGS))
def test_native_kernel_speedup(name, request):
    if request.config.getoption("--quick"):
        pytest.skip("default-size row; the quick set runs "
                    "test_native_sor_quick")
    build, floor = DEFAULT_CONFIGS[name]
    app, h, mdim = build()
    prog, t_numpy, t_native = _timed_pair(app, h, mdim)
    points = prog.total_points()
    speedup = t_numpy / t_native if t_native > 0 else float("inf")
    print(f"\n{name}: {points} points, numpy {t_numpy:.3f}s, native "
          f"{t_native:.3f}s -> speedup {speedup:.1f}x")
    assert speedup >= floor, (
        f"{name}: native kernels only {speedup:.1f}x faster than the "
        f"numpy dense engine (floor {floor}x)")


@requires_cc
def test_native_gate_sor_paper(request):
    """The ISSUE gate: >= 5x on the paper's large SOR configuration."""
    if request.config.getoption("--quick"):
        pytest.skip("paper-scale gate (minutes); run without --quick")
    app, h, mdim = GATE_CONFIG()
    prog, t_numpy, t_native = _timed_pair(app, h, mdim)
    points = prog.total_points()
    speedup = t_numpy / t_native if t_native > 0 else float("inf")
    print(f"\nsor 200x400 (gate): {points} points, numpy "
          f"{t_numpy:.1f}s, native {t_native:.1f}s -> speedup "
          f"{speedup:.1f}x (floor {GATE_FLOOR}x)")
    assert speedup >= GATE_FLOOR


@requires_cc
@pytest.mark.quick
def test_native_sor_quick(request, bench):
    app, h, mdim = QUICK_CONFIG()
    prog = TiledProgram(app.nest, h, mapping_dim=mdim)
    lib = build_native_library(prog)
    assert lib.available, lib.fallback_reason
    run = DistributedRun(prog, ClusterSpec())
    ref_fields, _ = run.execute_dense(app.init_value)
    fields, _ = run.execute_dense(app.init_value, native=lib)
    assert arrays_match(dense_to_cells(fields),
                        dense_to_cells(ref_fields), tol=0.0)
    if request.config.getoption("--quick"):
        bench.measure("native_sor_quick",
                      lambda: run.execute_dense(app.init_value,
                                                native=lib),
                      repeats=2)
