"""Build pipeline and runtime objects for the native kernel backend.

``build_native_library`` runs once per program (at program-build /
CLI-startup time): it renders the translation unit, resolves a C
compiler, and obtains the shared object from the content-addressed
:class:`~repro.artifacts.cache.ArtifactCache` — compiling only on a
cold key.  The resulting :class:`NativeKernelLibrary` is a small
picklable value object (workers receive it through the spawn/fork
pickle path and ``dlopen`` the cached ``.so`` themselves); every
condition that prevents native execution is recorded as a
``fallback_reason`` instead of raised, so the engines degrade to the
numpy path without ceremony.

The runtime side adds no index algebra of its own: each tile's
addresses come from the program's cached replay plan
(:mod:`repro.runtime.replay`), the same one both data engines walk:

* the LDS flat address of lattice point ``i`` of the tile with chain
  index ``t`` is ``wbase[i] + shift`` (``rbase[site][i] + shift`` for
  a dependence read's source) — exact because ``c_m | V_m``;
* tiles whose executed points all read in-domain pass NULL masks to C
  and skip all boundary work; the others get this run's ``oob``/``fix``
  arrays from :func:`~repro.runtime.replay.boundary_fill` — the *same
  scalar* ``init_value(array, ref.index(g))`` calls the dense engine
  makes, which the C conditional selects from;
* pure-input reads (ADI's coefficient array) gather per tile from this
  run's :class:`~repro.runtime.dense.InputTable` into flat per-lattice
  tables.

Bitwise identity with the dense engine follows: same values flow into
the same IEEE-754 operations in the same order, only the loop driver
changes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.native.compile import (
    NativeCompileError,
    compile_shared_object,
    compiler_fingerprint,
    find_compiler,
)
from repro.native.emit import (
    NATIVE_ABI_VERSION,
    KernelPlan,
    NativeEmitError,
    emit_translation_unit,
)
from repro.runtime.dense import build_statement_plans
from repro.runtime.replay import (
    RankReplay,
    TileStep,
    boundary_fill,
    replay_geometry,
)

InitFn = Callable[[str, Tuple[int, ...]], float]


def default_cache_root() -> str:
    """Per-user scratch cache used when no explicit cache is given."""
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def native_key(content: str, source_hash: str,
               compiler_fp: str) -> str:
    """Cache key of one shared object.

    Folds the program content key (geometry), the emitted C source
    hash (kernel arithmetic — deliberately outside the content key),
    the compiler fingerprint and the ABI version, so editing a kernel,
    upgrading the compiler or changing the calling convention each
    miss cleanly instead of loading a stale object.
    """
    doc = (f"repro-native\x00{content}\x00{source_hash}\x00"
           f"{compiler_fp}\x00abi={NATIVE_ABI_VERSION}")
    return hashlib.sha256(doc.encode()).hexdigest()


# Per-process dlopen memo: CDLL handles are not picklable, so workers
# re-open the cached .so by path (cheap, and the OS shares the pages).
_FN_CACHE: Dict[str, Any] = {}


def _load_fn(so_path: str) -> Any:
    fn = _FN_CACHE.get(so_path)
    if fn is None:
        lib = ctypes.CDLL(so_path)
        fn = lib.repro_run
        fn.restype = None
        fn.argtypes = [
            ctypes.c_long,    # nseg
            ctypes.c_void_p,  # seg_off
            ctypes.c_void_p,  # sel
            ctypes.c_long,    # shift
            ctypes.c_void_p,  # bufs
            ctypes.c_void_p,  # wbase
            ctypes.c_void_p,  # rbase
            ctypes.c_void_p,  # pure
            ctypes.c_void_p,  # oob
            ctypes.c_void_p,  # fix
        ]
        _FN_CACHE[so_path] = fn
    return fn


@dataclass
class NativeKernelLibrary:
    """Outcome of one native build: a loadable ``.so`` or a reason.

    A plain picklable value, so the parallel engine ships it to
    workers inside ``_RunConfig``.
    """

    status: str                       # "hit" | "miss" | "fallback"
    fallback_reason: Optional[str] = None
    key: Optional[str] = None
    so_path: Optional[str] = None
    source: Optional[str] = None
    source_hash: Optional[str] = None
    compiler: Optional[str] = None
    compiler_fp: Optional[str] = None
    plan: Optional[KernelPlan] = None

    @property
    def available(self) -> bool:
        return self.so_path is not None

    def runtime(self, program: Any, init_value: InitFn,
                dtype: Any = np.float64,
                plans: Optional[List[Any]] = None,
                ) -> Optional["NativeRuntime"]:
        """This run's :class:`NativeRuntime`, or ``None``.

        ``None`` means "use the numpy path": the library fell back at
        build time, or this run's dtype is not float64 (the emitted
        kernels compute in double).  A new runtime per call: every
        ``init_value``-derived value (boundary fills, pure-input
        tables) belongs to one run; the geometry it reuses is cached on
        ``program``.  ``plans`` passes the run's statement plans so
        their input tables are not built twice.
        """
        if not self.available:
            return None
        if np.dtype(dtype) != np.float64:
            return None
        return NativeRuntime(program, self, init_value, plans)


def build_native_library(program: Any,
                         cache: Optional[Any] = None,
                         cache_root: Optional[str] = None,
                         ) -> NativeKernelLibrary:
    """Emit + compile (or cache-hit) the program's kernel ``.so``.

    Never raises for an unusable toolchain or nest — every such
    condition returns a ``status="fallback"`` library whose
    ``fallback_reason`` the CLI and tests surface.  ``cache`` is an
    :class:`~repro.artifacts.cache.ArtifactCache` (or anything with
    its native methods); by default ``$REPRO_CACHE_DIR`` and then a
    per-user temp directory are used.
    """
    from repro.artifacts.cache import ArtifactCache, cache_from_env
    from repro.artifacts.hashing import content_key

    def fallback(reason: str) -> NativeKernelLibrary:
        return NativeKernelLibrary(status="fallback",
                                   fallback_reason=reason)

    if ctypes.sizeof(ctypes.c_long) != 8:
        return fallback("C long is not 64-bit on this platform")

    ttis = program.tiling.ttis
    m = program.dist.m
    v_m, c_m = int(ttis.v[m]), int(ttis.c[m])
    if c_m == 0 or v_m % c_m != 0:
        return fallback(
            f"stride c[{m}]={c_m} does not divide box V[{m}]={v_m}; "
            f"per-tile flat shifts would be inexact")

    try:
        plan = emit_translation_unit(
            program.nest, tuple(program.arrays), program.nest.name)
    except NativeEmitError as exc:
        return fallback(str(exc))

    cc = find_compiler()
    if cc is None:
        return fallback("no C compiler found ($CC, cc, gcc, clang)")
    cc_fp = compiler_fingerprint(cc)
    key = native_key(
        content_key(program.nest, program.tiling.h, m),
        plan.source_hash, cc_fp)

    if cache is None:
        cache = cache_from_env(cache_root)
    if cache is None:
        cache = ArtifactCache(default_cache_root())

    so_path = cache.native_lookup(key)
    status = "hit"
    if so_path is None:
        status = "miss"
        so_path = cache.native_path(key)
        try:
            compile_shared_object(cc, plan.source, so_path)
        except NativeCompileError as exc:
            return fallback(f"compile failed: {exc}")
        cache.native_store_source(key, plan.source)

    return NativeKernelLibrary(
        status=status,
        key=key,
        so_path=so_path,
        source=plan.source,
        source_hash=plan.source_hash,
        compiler=cc,
        compiler_fp=cc_fp,
        plan=plan,
    )


# -- runtime ------------------------------------------------------------------


@dataclass
class _PureSlot:
    slot: int
    table: Any                # InputTable (built from this run's init_value)
    indexer: Any              # RefIndexer
    group: int                # shared-gather group id


class NativeRuntime:
    """One execution's native state: the loaded kernels plus this run's
    ``init_value`` and pure-input tables.

    Cheap to build — all geometry lives in the program's cached replay
    plans — so nothing derived from ``init_value`` outlives the run.
    """

    def __init__(self, program: Any, library: NativeKernelLibrary,
                 init_value: InitFn,
                 plans: Optional[List[Any]] = None):
        assert library.so_path is not None
        assert library.plan is not None
        self.plan = library.plan
        self.fn = _load_fn(library.so_path)
        self.init_value = init_value
        self.arrays: Tuple[str, ...] = tuple(program.arrays)
        assert self.arrays == self.plan.arrays, \
            "library built for a different array layout"
        self.geo = replay_geometry(program)

        if plans is None:
            plans = build_statement_plans(program.nest, init_value,
                                          np.float64)
        #: C dep-slot index of each dependence read site.
        self.dep_slot: Dict[Tuple[int, int], int] = {}
        self.pure_slots: List[_PureSlot] = []
        pure_groups: Dict[Tuple[Any, ...], int] = {}
        for slot in self.plan.slots:
            rp = plans[slot.stmt_index].reads[slot.read_index]
            if slot.kind == "dep":
                self.dep_slot[rp.site] = slot.slot
                continue
            assert rp.table is not None
            gkey = (id(rp.table),
                    tuple(rp.indexer.offset.tolist()),
                    None if rp.indexer.f_int is None
                    else tuple(map(tuple, rp.indexer.f_int.tolist())))
            group = pure_groups.setdefault(gkey, len(pure_groups))
            self.pure_slots.append(_PureSlot(
                slot=slot.slot, table=rp.table, indexer=rp.indexer,
                group=group))

    def for_rank(self, replay: RankReplay,
                 local: Dict[str, np.ndarray]) -> "RankKernels":
        return RankKernels(self, replay, local)


class _TileCtx:
    """One tile's marshalled arguments for this run."""

    __slots__ = ("sel", "oob_addr", "fix_addr", "pure_addr", "keep")

    def __init__(self, sel: np.ndarray, oob_addr: Any, fix_addr: Any,
                 pure_addr: Any, keep: List[np.ndarray]):
        self.sel = sel
        self.oob_addr = oob_addr
        self.fix_addr = fix_addr
        self.pure_addr = pure_addr
        self.keep = keep


class RankKernels:
    """One rank's native executor over its LDS buffers (the twin of
    :class:`repro.runtime.replay.NumpyKernels`).

    ``run_tile`` executes a whole tile (all wavefront levels, one C
    call); ``run_segment`` executes one (sub-)batch — the overlap
    schedule's boundary/interior slices — reusing the tile context.
    Both take a :class:`~repro.runtime.replay.TileStep` of the rank's
    replay plan, which carries the tile's cached geometry.
    """

    def __init__(self, rt: NativeRuntime, replay: RankReplay,
                 local: Dict[str, np.ndarray]):
        self.rt = rt
        self.wbase = replay.bases.wbase
        for a in rt.arrays:
            buf = local[a]
            assert buf.dtype == np.float64 and buf.flags["C_CONTIGUOUS"]
        self._bufs = (ctypes.c_void_p * len(rt.arrays))(
            *[local[a].ctypes.data for a in rt.arrays])
        self._rb = (ctypes.c_void_p * max(rt.plan.n_dep_slots, 1))()
        for site, slot in rt.dep_slot.items():
            self._rb[slot] = replay.bases.rbase[site].ctypes.data
        self._ctx_step: Optional[TileStep] = None
        self._ctx: Optional[_TileCtx] = None

    # -- per-tile context -------------------------------------------------

    def _tile_ctx(self, step: TileStep) -> _TileCtx:
        """Executed points plus this run's boundary and pure-input
        values of one tile (built once per tile, reused by its
        segments)."""
        if self._ctx_step is step and self._ctx is not None:
            return self._ctx
        rt = self.rt
        geo = rt.geo
        sel = geo.executed(step.mask)
        keep: List[np.ndarray] = []
        n_dep = max(rt.plan.n_dep_slots, 1)
        oob_ptrs = (ctypes.c_void_p * n_dep)()
        fix_ptrs = (ctypes.c_void_p * n_dep)()
        pure_ptrs = (ctypes.c_void_p * max(rt.plan.n_pure_slots, 1))()
        for site, oob, fix in boundary_fill(step, geo.nlat,
                                            rt.init_value):
            slot = rt.dep_slot[site]
            oob_ptrs[slot] = oob.ctypes.data
            fix_ptrs[slot] = fix.ctypes.data
            keep += (oob, fix)
        if rt.pure_slots:
            # Gather only at executed points: a partial tile's clipped
            # lattice points can map outside the input-table box.
            gsel = geo.tis[sel] + step.origin
            group_vals: Dict[int, np.ndarray] = {}
            for ps in rt.pure_slots:
                vals = group_vals.get(ps.group)
                if vals is None:
                    vals = np.zeros(geo.nlat, dtype=np.float64)
                    vals[sel] = ps.table.gather(ps.indexer.cells(gsel))
                    group_vals[ps.group] = vals
                    keep.append(vals)
                pure_ptrs[ps.slot] = vals.ctypes.data
        ctx = _TileCtx(sel=sel, oob_addr=oob_ptrs, fix_addr=fix_ptrs,
                       pure_addr=pure_ptrs, keep=keep)
        self._ctx_step = step
        self._ctx = ctx
        return ctx

    # -- execution --------------------------------------------------------

    def _call(self, ctx: _TileCtx, sel: np.ndarray, shift: int) -> None:
        seg = np.array([0, len(sel)], dtype=np.int64)
        self.rt.fn(
            1,
            seg.ctypes.data,
            sel.ctypes.data,
            shift,
            ctypes.addressof(self._bufs),
            self.wbase.ctypes.data,
            ctypes.addressof(self._rb),
            ctypes.addressof(ctx.pure_addr),
            ctypes.addressof(ctx.oob_addr),
            ctypes.addressof(ctx.fix_addr),
        )

    def run_tile(self, step: TileStep) -> None:
        """Every executed point of one tile, in schedule order, in one
        native call."""
        ctx = self._tile_ctx(step)
        if len(ctx.sel):
            self._call(ctx, ctx.sel, step.shift)

    def run_segment(self, step: TileStep, batch: np.ndarray) -> None:
        """One wavefront (sub-)batch — the overlap engine's unit."""
        if not len(batch):
            return
        self._call(self._tile_ctx(step),
                   np.ascontiguousarray(batch, dtype=np.int64), step.shift)
