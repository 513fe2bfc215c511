"""Tracing a statement's one kernel into its ``KExpr`` tree.

A kernel written with ``+ - * /`` and negation over its reads traces to
the tree the native backend compiles.  Anything the IR cannot record —
a branch on a read, a use of the point, a call such as ``math.sin``,
``**`` — leaves ``expr = None``: the native build falls back naming the
statement and the exception, and the dense engines loop the scalar
kernel, still bitwise equal to the sparse reference.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.apps import adi, heat, jacobi, sor
from repro.artifacts import ArtifactCache
from repro.artifacts.format import (
    ArtifactError,
    restore_program,
    snapshot_program,
)
from repro.loops import ArrayRef, LoopNest, Statement
from repro.native import kexpr
from repro.native.engine import build_native_library
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    TiledProgram,
    arrays_match,
    dense_to_cells,
    run_dense_sequential,
    run_sequential,
)
from repro.runtime.dense import apply_kernel
from repro.tiling import rectangular_tiling
from tests.conftest import untraced, with_kernels

SPEC = ClusterSpec()
K = kexpr


class TestTrace:
    def test_sor_tree(self):
        (stmt,) = sor.app(4, 6).nest.statements
        v = [K.KRead(q) for q in range(5)]
        assert stmt.expr == K.KAdd(
            K.KMul(K.KConst(sor.OMEGA / 4.0),
                   K.KAdd(K.KAdd(K.KAdd(v[0], v[1]), v[2]), v[3])),
            K.KMul(K.KConst(1.0 - sor.OMEGA), v[4]))
        assert stmt.trace_error is None

    def test_adi_trees(self):
        st_x, st_b = adi.app(4, 5).nest.statements
        x_c, x_jm, b_jm, x_im, b_im, a = [K.KRead(q) for q in range(6)]
        assert st_x.expr == K.KSub(
            K.KAdd(x_c, K.KDiv(K.KMul(x_jm, a), b_jm)),
            K.KDiv(K.KMul(x_im, a), b_im))
        b_c, b_jm, b_im, a = [K.KRead(q) for q in range(4)]
        assert st_b.expr == K.KSub(
            K.KSub(b_c, K.KDiv(K.KMul(a, a), b_jm)),
            K.KDiv(K.KMul(a, a), b_im))

    def test_every_bundled_statement_traces(self):
        for nest in (sor.app(4, 6).nest, jacobi.app(3, 5, 5).nest,
                     adi.app(4, 5).nest, heat.app(4, 8).nest,
                     heat.app_unskewed(4, 8).nest):
            assert all(s.expr is not None for s in nest.statements)

    def test_negation_and_reflected_constants(self):
        expr, err = K.trace(lambda p, v: 1 - -v[0] / 2, 1)
        assert err is None
        assert expr == K.KSub(
            K.KConst(1.0), K.KDiv(K.KNeg(K.KRead(0)), K.KConst(2.0)))

    def test_numpy_float64_constant_traces(self):
        expr, _ = K.trace(lambda p, v: np.float64(0.5) * v[0], 1)
        assert expr == K.KMul(K.KConst(0.5), K.KRead(0))

    def test_constant_kernel_fills_the_batch(self):
        stmt = Statement.of(ArrayRef.of("A", (0,)), [], lambda p, v: 3.0)
        assert stmt.expr == K.KConst(3.0)
        out = apply_kernel(stmt, np.zeros((4, 1), dtype=np.int64), [])
        assert out.tolist() == [3.0] * 4

    @pytest.mark.parametrize("kernel,why", [
        (lambda p, v: v[0] + float("inf"), "non-finite"),
        (lambda p, v: "x", "cannot use str"),
        (lambda p, v: v[0] if v[1] else v[2], "branches on a read"),
        (lambda p, v: max(v[0], v[1]), "compares a read"),
        (lambda p, v: {v[0]: 1.0}[v[0]], "unhashable"),
        (lambda p, v: v[0] * (p != p), "uses its iteration point"),
        (lambda p, v: v[0] * len(f"{p}"), "uses its iteration point"),
        (lambda p, v: v[0] * np.asarray(p).size,
         "uses its iteration point"),
        (lambda p, v: np.sum(v), "converts a read to an array"),
        (lambda p, v: np.mean(v), "converts a read to an array"),
        (lambda p, v: np.dot((0.5, 0.5, 0.0), v),
         "converts a read to an array"),
        (None, "no kernel"),
    ])
    def test_refusals(self, kernel, why):
        expr, err = K.trace(kernel, 3)
        assert expr is None
        assert why in err

    def test_float32_reads_stay_float32(self):
        # the traced kernel runs as-is over the read arrays: Python
        # float constants do not promote float32 batches to float64
        (stmt,) = sor.app(4, 6).nest.statements
        vals = [np.linspace(0.0, 1.0, 7, dtype=np.float32)] * 5
        raw = stmt.kernel(None, vals)
        assert raw.dtype == np.float32
        out = apply_kernel(stmt, np.zeros((7, 3), dtype=np.int64), vals,
                           np.float32)
        assert out.tobytes() == raw.tobytes()


UNTRACEABLE = [
    pytest.param(lambda p, v: math.sin(v[0]) + v[1],
                 "TypeError: must be real number", id="math.sin"),
    pytest.param(lambda p, v: v[0] + 0.0 * p[1],
                 "TypeError: kernel uses its iteration point", id="point"),
    pytest.param(lambda p, v: v[0] if v[0] == v[1] else v[1],
                 "TypeError: kernel compares a read", id="branch-on-read"),
    pytest.param(lambda p, v: v[0] ** 2 - v[2],
                 "TypeError: unsupported operand", id="pow"),
    # over the read arrays these would reduce across the whole batch
    pytest.param(lambda p, v: np.sum(v),
                 "TypeError: kernel converts a read to an array",
                 id="np.sum"),
    pytest.param(lambda p, v: np.mean(v),
                 "TypeError: kernel converts a read to an array",
                 id="np.mean"),
    pytest.param(lambda p, v: np.dot((0.5, 0.5, 0.0), v),
                 "TypeError: kernel converts a read to an array",
                 id="np.dot"),
]


class TestUntraceable:
    @pytest.mark.parametrize("kernel,exc", UNTRACEABLE)
    def test_falls_back_and_stays_bitwise(self, tmp_path, kernel, exc):
        app = heat.app(4, 8)
        nest = with_kernels(app.nest, lambda _k: kernel)
        (stmt,) = nest.statements
        assert stmt.expr is None
        assert stmt.trace_error.startswith(exc)

        prog = TiledProgram(nest, heat.h_rectangular(2, 4), mapping_dim=1)
        lib = build_native_library(
            prog, cache=ArtifactCache(str(tmp_path)))
        assert lib.status == "fallback"
        assert "statement 0 (U)" in lib.fallback_reason
        assert exc in lib.fallback_reason

        ref = run_sequential(nest, app.init_value)
        assert arrays_match(run_dense_sequential(nest, app.init_value),
                            ref, tol=0.0)
        fields, _ = DistributedRun(prog, SPEC).execute_dense(
            app.init_value, native=lib)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)


# -- kernel fingerprints see bound coefficients ---------------------------


def _traced_default(c):
    def kernel(_p, v, _c=c):
        return _c * v[0] + v[1]
    return kernel


def _traced_closure(c):
    return lambda _p, v: c * v[0] + v[1]


def _untraced_default(c):
    def kernel(_p, v, _c=c):
        return _c * float(v[0]) + v[1]
    return kernel


def _untraced_kwdefault(c):
    def kernel(_p, v, *, _c=c):
        return _c * float(v[0]) + v[1]
    return kernel


def _untraced_closure(c):
    return lambda _p, v: c * float(v[0]) + v[1]


def _untraced_array(c):
    # 0.25 and 0.5 differ in the 11th digit of 1200 elements: the two
    # arrays' repr() is identical (8 digits, middle elided)
    def kernel(_p, v, _w=np.full(1200, 1.0 + c * 1e-10)):
        return float(_w[0]) * float(v[0]) + v[1]
    return kernel


class _Coef:
    def __init__(self, c):
        self.c = c


def _untraced_object(c):
    # the default repr() of _Coef is its address: a new one per call
    def kernel(_p, v, _k=_Coef(c)):
        return _k.c * float(v[0]) + v[1]
    return kernel


def _coef_nest(kernel):
    stmt = Statement.of(ArrayRef.of("A", (0, 0)),
                        [ArrayRef.of("A", (-1, 0)),
                         ArrayRef.of("A", (-1, -1))], kernel)
    return LoopNest.rectangular("coef", [0, 0], [5, 5], [stmt],
                                [(1, 0), (1, 1)])


@pytest.mark.parametrize("make,traces", [
    pytest.param(_traced_default, True, id="traced-default"),
    pytest.param(_traced_closure, True, id="traced-closure"),
    pytest.param(_untraced_default, False, id="untraced-default"),
    pytest.param(_untraced_kwdefault, False, id="untraced-kwdefault"),
    pytest.param(_untraced_closure, False, id="untraced-closure"),
    pytest.param(_untraced_array, False, id="untraced-default-array"),
    pytest.param(_untraced_object, False, id="untraced-default-object"),
])
def test_fingerprint_sees_bound_coefficients(make, traces):
    nest_a = _coef_nest(make(0.25))
    nest_b = _coef_nest(make(0.5))
    assert (nest_a.statements[0].expr is not None) == traces
    assert K.kernel_fingerprint(nest_a) != K.kernel_fingerprint(nest_b)
    assert (K.kernel_fingerprint(nest_a)
            == K.kernel_fingerprint(_coef_nest(make(0.25))))

    h = rectangular_tiling([2, 3])
    payload = snapshot_program(TiledProgram(nest_a, h), None)
    restore_program(nest_a, h, payload)
    with pytest.raises(ArtifactError, match="kernel drift"):
        restore_program(nest_b, h, payload)


def test_untraced_fingerprint_is_stable_across_processes():
    # a kernel closing over a function must not hash that function's
    # per-process address
    nest = with_kernels(sor.app(4, 6).nest, untraced)
    code = ("from repro.apps import sor\n"
            "from repro.native.kexpr import kernel_fingerprint\n"
            "from tests.conftest import untraced, with_kernels\n"
            "print(kernel_fingerprint(with_kernels(sor.app(4, 6).nest, "
            "untraced)))\n")
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         cwd=root, env=env, capture_output=True,
                         text=True).stdout.strip()
    assert out == K.kernel_fingerprint(nest)
