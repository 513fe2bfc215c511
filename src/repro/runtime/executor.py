"""Assemble and run the generated SPMD node programs.

:class:`TiledProgram` is the compiler's output for one (nest, tiling)
pair: computation distribution, communication spec, LDS layout, and the
per-processor node program implementing the paper's main loop::

    FOR t^S in chain:
        RECEIVE(pid, t^S, D^S, CC)      # recv + unpack into LDS halo
        compute tile (TTIS traversal)   # strides/offsets from HNF
        SEND(pid, t^S, D^m, CC)         # pack + send per successor proc

:class:`DistributedRun` executes it on the virtual cluster in one of two
modes:

* ``simulate()`` — timing only: message sizes and compute volumes are
  exact (per-tile clipped point counts), but no data moves.  This is the
  mode the paper-scale experiments use.
* ``execute(init_value)`` — full data mode: real numpy LDS buffers,
  real pack/unpack, and a final owner-computes write-back to the global
  data space.  Used by the integration tests to compare bit-for-bit
  against a sequential interpreter of the same nest.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.distribution.communication import CommunicationSpec
from repro.distribution.computation import ComputationDistribution
from repro.distribution.data import DistributedAddressing, LocalDataSpace
from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest
from repro.runtime.dataspace import DenseField
from repro.runtime.dense import (
    TileOverlapPlan,
    build_overlap_split,
    build_statement_plans,
    level_batches,
    read_dependences,
    wavefront_vector,
)
from repro.runtime.machine import ClusterSpec
from repro.runtime.replay import (
    NumpyKernels,
    RankReplay,
    ReplayGeometry,
    TileKernels,
    rank_replay,
    replay_geometry,
    write_back,
)
from repro.runtime.trace import EventTrace
from repro.runtime.vmpi import (
    Compute,
    RankApi,
    Recv,
    RunStats,
    Send,
    VirtualMPI,
)
from repro.tiling.legality import check_legal_tiling
from repro.tiling.transform import TilingTransformation

if TYPE_CHECKING:
    from repro.native.engine import NativeKernelLibrary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.cost import CostCertificate
    from repro.analysis.hb.graph import HBCertificate

Pid = Tuple[int, ...]
Tile = Tuple[int, ...]
#: A rank's node program: generator of Send/Recv/Compute requests.
NodeFn = Callable[[RankApi], Generator]


class TiledProgram:
    """Everything the compiler derives for one nest under one tiling."""

    def __init__(self, nest: LoopNest, h: RatMat,
                 mapping_dim: Optional[int] = None,
                 verify: bool = False):
        check_legal_tiling(h, nest.dependences)
        self._build(nest, TilingTransformation(h, nest.domain), mapping_dim)
        if verify:
            # Guard mode: refuse to hand out a program the static
            # verifier can prove will race, deadlock, or address out of
            # bounds.  Import lazily — the analysis package depends on
            # this module.
            from repro.analysis.verifier import verify_program
            verify_program(self)

    @classmethod
    def from_compiled_state(cls, nest: LoopNest,
                            tiling: TilingTransformation,
                            mapping_dim: Optional[int] = None,
                            ) -> "TiledProgram":
        """Construct-from-artifact path (see :mod:`repro.artifacts`).

        ``tiling`` arrives with its derived geometry already seeded
        (enumerated tiles, tile-dependence sets, masks), so none of the
        expensive pipeline stages — legality proof, Fourier-Motzkin
        tile enumeration, lattice sweeps — re-run.  The caller is
        responsible for only passing state that was produced by a
        legality-checked compile of the *same* (nest, H, mapping_dim);
        the artifact layer enforces this through its content hash.
        """
        prog = cls.__new__(cls)
        prog._build(nest, tiling, mapping_dim)
        return prog

    def _build(self, nest: LoopNest, tiling: TilingTransformation,
               mapping_dim: Optional[int]) -> None:
        self.nest = nest
        self.tiling = tiling
        self.dist = ComputationDistribution(self.tiling, mapping_dim)
        self.comm = CommunicationSpec(self.tiling, nest.dependences,
                                      self.dist.m)
        self.addressing = DistributedAddressing(self.dist, self.comm)
        self.n = self.tiling.n
        self.arrays = list(nest.written_arrays)
        # Dependence vector per (statement, read) that targets a written
        # array; None for pure-input reads.
        self._read_deps: List[List[Optional[Tuple[int, ...]]]] = \
            read_dependences(nest)
        # Rank numbering for the virtual communicator.
        self.pids: Tuple[Pid, ...] = self.dist.processors
        self.rank_of: Dict[Pid, int] = {p: i for i, p in enumerate(self.pids)}
        self._region_cache: Dict[Tuple[Tile, Tuple[int, ...]], int] = {}
        self._full_region_cache: Dict[Tuple[int, ...], int] = {}
        self._mask_cache: Dict[Tile, np.ndarray] = {}
        self._region_prewarmed = False
        self._recv_order: Dict[Pid, Tuple[Tuple[Tile, ...],
                                          Tuple[Tile, ...]]] = {}
        self._dense_s: Optional[Tuple[int, ...]] = None
        self._dense_full_batches: Optional[List[np.ndarray]] = None
        self._lex_order: Optional[np.ndarray] = None
        self._overlap_cache: Dict[object, TileOverlapPlan] = {}
        # tile -> (shape key, send dirs, recv dirs) of its overlap plan
        self._overlap_keys: Dict[
            Tile, Tuple[object, Tuple[Tile, ...], Tuple[Tile, ...]]] = {}
        self._hb_cache: Dict[object, HBCertificate] = {}
        self._cost_cache: Dict[object, CostCertificate] = {}
        self._points_cache: Dict[Tile, int] = {}
        # Filled by repro.runtime.parallel.build_rank_plans (the plans
        # are immutable compile-time artifacts shared by the runtime,
        # the HB graph and the cost certifier).
        self._rank_plans_cache: Optional[Dict[int, object]] = None
        # Pre-pickled plans from an artifact, decoded lazily on first
        # build_rank_plans call (see repro.artifacts.format).
        self._rank_plans_blob: Optional[bytes] = None
        # Per-rank replay plans of the dense engines, built on the
        # first execution (repro.runtime.replay; never in artifacts).
        self._replay_geometry: Optional["ReplayGeometry"] = None
        self._replay_cache: Dict[int, "RankReplay"] = {}

    # -- static queries ----------------------------------------------------------

    @property
    def num_processors(self) -> int:
        return len(self.pids)

    def total_points(self) -> int:
        """Iteration count of the whole nest (for speedup baselines)."""
        return sum(self.tile_point_count(t) for t in self.dist.tiles)

    def tile_point_count(self, tile: Tile) -> int:
        """Domain points of ``tile``, cached per tile (partial tiles
        pay one mask reduction ever — the schedule model, the makespan
        sweep and the rank-volume pass all ask repeatedly)."""
        count = self._points_cache.get(tile)
        if count is None:
            count = self.tiling.tile_point_count(tile)
            self._points_cache[tile] = count
        return count

    def tile_mask(self, tile: Tile) -> np.ndarray:
        mask = self._mask_cache.get(tile)
        if mask is None:
            mask = self.tiling.tile_mask(tile)
            self._mask_cache[tile] = mask
        return mask

    def region_mask(self, tile: Tile, direction: Sequence[int]) -> np.ndarray:
        """Mask (over TTIS lattice points) of the pack region of ``tile``
        toward tile/processor ``direction`` — computed points with
        ``j'_k >= cc_k`` on every non-mapping dimension the direction
        crosses."""
        lat = self.tiling.ttis.lattice_points_np()
        mask = self.tile_mask(tile).copy()
        lbs = self.comm.pack_lower_bounds(direction)
        for k in range(self.n):
            if lbs[k] > 0:
                mask &= lat[:, k] >= lbs[k]
        return mask

    def dense_schedule_vector(self) -> Tuple[int, ...]:
        """The TTIS wavefront vector the dense engine batches with.

        Built from the union of actual read dependences and the nest's
        declared matrix, pushed through the TTIS transformation — a
        pure compile-time quantity (the emitters burn it into generated
        sources)."""
        if self._dense_s is None:
            ttis = self.tiling.ttis
            seen: Dict[Tuple[int, ...], None] = {}
            for ds in self._read_deps:
                for d in ds:
                    if d is not None and any(d):
                        seen[tuple(int(x) for x in d)] = None
            for dd in self.nest.dependences:
                d = tuple(int(x) for x in dd)
                if any(d):
                    seen[d] = None
            dprimes = [tuple(int(x) for x in dp) for dp in
                       ttis.transformed_dependences(list(seen))]
            self._dense_s = wavefront_vector(
                [d for d in dprimes if any(d)], self.n, extents=ttis.v)
        return self._dense_s

    def dense_full_batches(self) -> List[np.ndarray]:
        """Wavefront levels of a full tile under
        :meth:`dense_schedule_vector`: index arrays into
        ``ttis.lattice_points_np()``, in increasing level (cached)."""
        if self._dense_full_batches is None:
            self._dense_full_batches = level_batches(
                self.tiling.ttis.lattice_points_np(),
                self.dense_schedule_vector())
        return self._dense_full_batches

    def dense_level_batches(self, tile: Tile) -> List[np.ndarray]:
        """:meth:`dense_full_batches` of ``tile``: partial tiles drop
        their clipped points (and any emptied levels)."""
        batches = self.dense_full_batches()
        if self.tiling.classify_tile(tile) == "full":
            return batches
        mask = self.tile_mask(tile)
        out = []
        for b in batches:
            bb = b[mask[b]]
            if len(bb):
                out.append(bb)
        return out

    def dense_lex_order(self) -> np.ndarray:
        """Lexicographic execution order of the TTIS lattice points —
        the frozen intra-region payload order every engine packs with."""
        if self._lex_order is None:
            lat = self.tiling.ttis.lattice_points_np()
            self._lex_order = np.lexsort(lat.T[::-1])
        return self._lex_order

    def overlap_directions(
        self, tile: Tile,
    ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
        """The (send, recv) directions of ``tile`` that carry payload,
        in plan order — exactly the nonzero messages the parallel
        backend schedules (zero-element messages are dropped the same
        way ``build_rank_plans`` drops them)."""
        sends: List[Tuple[int, ...]] = []
        for dm, _dst in self.send_plan(tile):
            full_dir = dm[:self.dist.m] + (0,) + dm[self.dist.m:]
            if self.region_count(tile, full_dir) > 0:
                sends.append(full_dir)
        recvs: List[Tuple[int, ...]] = []
        for ds, pred, _src in self.receive_plan(tile):
            if self.region_count(pred, ds) > 0:
                recvs.append(tuple(int(x) for x in ds))
        return tuple(sends), tuple(recvs)

    def overlap_plan(self, tile: Tile) -> TileOverlapPlan:
        """Cached boundary/interior split of ``tile`` (see
        :class:`~repro.runtime.dense.TileOverlapPlan`).

        A compile-time artifact: full tiles with the same message
        signature share one plan (the lattice, batches and regions are
        position-independent for interior tiles); partial tiles get
        their own, keyed by tile.  Each tile's key is memoised, so a
        warm call re-derives no message signature.
        """
        key = self._overlap_keys.get(tile)
        if key is None:
            sends, recvs = self.overlap_directions(tile)
            key = ("full" if self.tiling.classify_tile(tile) == "full"
                   else tile, sends, recvs)
            self._overlap_keys[tile] = key
        plan = self._overlap_cache.get(key)
        if plan is None:
            _, sends, recvs = key
            plan = build_overlap_split(
                self.tiling.ttis.lattice_points_np(),
                self.dense_lex_order(),
                self.dense_level_batches(tile),
                [(d, self.region_mask(tile, d)) for d in sends],
                recvs,
                self.comm.max_dp,
            )
            self._overlap_cache[key] = plan
        return plan

    def prewarm_overlap_plans(self) -> None:
        """Build every tile's overlap plan (idempotent).  Called before
        forking workers so children share the plans copy-on-write."""
        for pid in self.pids:
            for tile in self.dist.tiles_of(pid):
                self.overlap_plan(tile)

    def hb_certificate(self, protocol: str = "eager",
                       overlap: bool = False, mailbox_depth: int = 8,
                       spec: Optional[ClusterSpec] = None,
                       ) -> HBCertificate:
        """Cached happens-before certificate of this program's
        parallel execution (see :mod:`repro.analysis.hb`): vector-clock
        race freedom (HB01) and wait-graph acyclicity (HB02) under one
        ``(protocol, overlap, mailbox_depth)`` configuration.

        Cached like :meth:`overlap_plan` — the certificate is a pure
        compile-time artifact of the frozen schedule.  Import is lazy
        for the same layering reason as ``verify=True``.
        """
        spec_key = None if spec is None else (
            spec.rendezvous_threshold, spec.bytes_per_element,
            spec.overlap)
        key = (protocol, bool(overlap), int(mailbox_depth), spec_key)
        cert = self._hb_cache.get(key)
        if cert is None:
            from repro.analysis.hb.graph import certify_program
            cert = certify_program(
                self, protocol=protocol, overlap=overlap,
                mailbox_depth=mailbox_depth, spec=spec)
            self._hb_cache[key] = cert
        return cert

    def cost_certificate(self, protocol: str = "eager",
                         mailbox_depth: int = 8,
                         spec: Optional[ClusterSpec] = None,
                         bound_factor: float = 2.0,
                         ) -> "CostCertificate":
        """Cached static cost certificate of this program (see
        :mod:`repro.analysis.cost`): exact per-edge communication
        volumes (COST01), per-rank compute volumes (COST02), the
        analytic critical-path makespan (COST03) and the Dinh & Demmel
        lower-bound verdict (COST04).

        Unlike :meth:`hb_certificate`, the result depends on *every*
        timing parameter of the cluster model, so the full (frozen,
        hashable) spec keys the cache.
        """
        key = (protocol, int(mailbox_depth), float(bound_factor), spec)
        cert = self._cost_cache.get(key)
        if cert is None:
            from repro.analysis.cost import certify_cost
            cert = certify_cost(
                self, spec=spec, protocol=protocol,
                mailbox_depth=mailbox_depth, bound_factor=bound_factor)
            self._cost_cache[key] = cert
        return cert

    def full_region_count(self, direction: Sequence[int]) -> int:
        """Pack-region size of an *interior* tile toward ``direction`` —
        a pure compile-time quantity (no domain clipping)."""
        key = tuple(int(x) for x in direction)
        count = self._full_region_cache.get(key)
        if count is None:
            lat = self.tiling.ttis.lattice_points_np()
            mask = np.ones(len(lat), dtype=bool)
            lbs = self.comm.pack_lower_bounds(direction)
            for k in range(self.n):
                if lbs[k] > 0:
                    mask &= lat[:, k] >= lbs[k]
            count = int(mask.sum())
            self._full_region_cache[key] = count
        return count

    def region_count(self, tile: Tile, direction: Sequence[int]) -> int:
        key = (tile, tuple(direction))
        count = self._region_cache.get(key)
        if count is None:
            if self.tiling.classify_tile(tile) == "full":
                count = self.full_region_count(direction)
            else:
                count = int(self.region_mask(tile, direction).sum())
            self._region_cache[key] = count
        return count

    def prewarm_region_counts(self) -> None:
        """Bulk-fill the region-count cache for every (tile, direction)
        the communication schedule can ask about.

        One matrix product over the cached partial-tile masks replaces
        thousands of per-tile mask reductions — this is what keeps the
        static verifier's schedule replay a small fraction of
        construction time.  Idempotent; safe to skip (the lazy per-call
        path computes identical values).
        """
        if self._region_prewarmed:
            return
        self._region_prewarmed = True
        comm, dist, tiling = self.comm, self.dist, self.tiling
        m = dist.m
        # Exactly the directions the communication schedule queries:
        # tile dependencies of each d^m (receives) and the zeroed-at-m
        # processor directions (sends).
        dirs: List[Tuple[int, ...]] = []
        for dm in comm.d_m:
            dirs.extend(tuple(ds) for ds in comm.ds_of_dm(dm))
            dirs.append(dm[:m] + (0,) + dm[m:])
        dirs = list(dict.fromkeys(dirs))
        if not dirs:
            return
        lat = tiling.ttis.lattice_points_np()
        nlat = len(lat)
        # Pack regions are thin slabs (thickness v_k - cc_k); count over
        # the slab columns, or over the complement when the slab is the
        # wide side.  Only the union of those column sets is ever
        # touched, so partial-tile masks are gathered down to it instead
        # of being densified into a (tiles x volume) matrix.
        sels = []                           # (d, columns, use_complement)
        need_totals = False
        for d in dirs:
            lbs = comm.pack_lower_bounds(d)
            vec = np.ones(nlat, dtype=bool)
            for k in range(self.n):
                if lbs[k] > 0:
                    vec &= lat[:, k] >= lbs[k]
            self._full_region_cache[d] = int(vec.sum())
            idx = np.nonzero(vec)[0]
            if 2 * len(idx) <= nlat:
                sels.append((d, idx, False))
            else:
                sels.append((d, np.nonzero(~vec)[0], True))
                need_totals = True
        full_counts = [self._full_region_cache[d] for d in dirs]
        partial = [t for t in dist.tiles
                   if tiling.classify_tile(t) == "partial"]
        cache = self._region_cache
        if partial:
            cols = np.unique(np.concatenate(
                [c for _, c, _ in sels])) if sels else \
                np.empty(0, dtype=np.int64)
            sub = np.empty((len(partial), len(cols)), dtype=bool)
            for i, t in enumerate(partial):
                sub[i] = tiling.tile_mask(t)[cols]
            totals = np.array(
                [np.count_nonzero(tiling.tile_mask(t)) for t in partial],
                dtype=np.int64) if need_totals else None
            for d, sel, use_comp in sels:
                pos = np.searchsorted(cols, sel)
                counts = np.count_nonzero(sub[:, pos], axis=1)
                if use_comp:
                    counts = totals - counts
                for t, cnt in zip(partial, counts):
                    cache[(t, d)] = int(cnt)
        partial_set = set(partial)
        for t in dist.tiles:
            if t not in partial_set:
                for d, cnt in zip(dirs, full_counts):
                    cache[(t, d)] = cnt

    # -- the communication schedule (shared by both modes) --------------------------

    def receive_plan(self, tile: Tile) -> List[Tuple[Tile, Tile, Pid]]:
        """Receives posted by ``tile``: ``(d^S, pred_tile, src_pid)``.

        Ordered so that per ``(source, direction)`` the matched messages
        arrive FIFO: directions sorted, and within a direction
        predecessors in ascending chain position (descending ``d^S_m``).
        """
        comm, dist = self.comm, self.dist
        tset = dist._tile_set
        pid = dist.pid_of(tile)
        plan = []
        for dm in comm.d_m:
            cands, lex = self._cand_orders(dm)
            src = None
            for ds in cands:
                pred = tuple([a - b for a, b in zip(tile, ds)])
                if pred not in tset:
                    continue
                # tile == minsucc(pred, dm) iff ds is the lex-smallest
                # candidate whose successor of pred is valid (succ order
                # and candidate order agree: succ = pred + ds).
                first = None
                for ds2 in lex:
                    if tuple([a + b for a, b in zip(pred, ds2)]) in tset:
                        first = ds2
                        break
                if first != ds:
                    continue
                if src is None:
                    src = tuple([a - b for a, b in zip(pid, dm)])
                plan.append((ds, pred, src))
        return plan

    def _cand_orders(self, dm: Pid):
        """Candidate ``d^S`` lists of one ``d^m``, in receive-plan order
        (descending mapping component) and lexicographic order."""
        orders = self._recv_order.get(dm)
        if orders is None:
            cands = tuple(sorted(self.comm.ds_of_dm(dm),
                                 key=lambda d: -d[self.dist.m]))
            orders = (cands, tuple(sorted(cands)))
            self._recv_order[dm] = orders
        return orders

    def send_plan(self, tile: Tile) -> List[Tuple[Pid, Pid]]:
        """Sends issued by ``tile``: ``(d^m, dst_pid)`` per successor
        processor with at least one valid successor tile."""
        comm, dist = self.comm, self.dist
        tset = dist._tile_set
        plan = []
        pid = None
        for dm in comm.d_m:
            for ds in self._cand_orders(dm)[0]:
                if tuple([a + b for a, b in zip(tile, ds)]) in tset:
                    if pid is None:
                        pid = dist.pid_of(tile)
                    plan.append(
                        (dm, tuple([a + b for a, b in zip(pid, dm)])))
                    break
        return plan

    def message_tag(self, dm: Pid) -> int:
        return self.comm.d_m.index(tuple(dm))


class DistributedRun:
    """Execute a :class:`TiledProgram` on the virtual cluster."""

    def __init__(self, program: TiledProgram, spec: ClusterSpec,
                 trace: Optional[EventTrace] = None):
        self.program = program
        self.spec = spec
        self.trace = trace

    # -- timing-only mode -----------------------------------------------------------

    def simulate(self) -> RunStats:
        """Run the communication/computation schedule with exact sizes
        but no data; returns the simulated clocks."""
        prog = self.program
        spec = self.spec
        narr = len(prog.arrays)

        def speed(rank: int) -> float:
            return spec.node_speed_factor(rank)

        def make_program(pid: Pid) -> NodeFn:
            rank = prog.rank_of[pid]
            f = speed(rank)

            def node(api: RankApi) -> Generator:
                for tile in prog.dist.tiles_of(pid):
                    for ds, pred, src in prog.receive_plan(tile):
                        nelems = prog.region_count(pred, ds) * narr
                        if nelems == 0:
                            continue
                        dm = prog.comm.project(ds)
                        yield Recv(source=prog.rank_of[src],
                                   tag=prog.message_tag(dm))
                        yield Compute(spec.pack_time(nelems) * f)
                    pts = prog.tile_point_count(tile)
                    yield Compute(spec.compute_time(pts) * f)
                    for dm, dst in prog.send_plan(tile):
                        full_dir = dm[:prog.dist.m] + (0,) + dm[prog.dist.m:]
                        nelems = prog.region_count(tile, full_dir) * narr
                        if nelems == 0:
                            continue
                        yield Compute(spec.pack_time(nelems) * f)
                        yield Send(dest=prog.rank_of[dst],
                                   tag=prog.message_tag(dm),
                                   nelems=nelems)
            return node

        programs = {prog.rank_of[pid]: make_program(pid)
                    for pid in prog.pids}
        engine = VirtualMPI(spec, programs, trace=self.trace)
        return engine.run()

    def simulate_unaggregated(self) -> RunStats:
        """Ablation of the §3.2 Tang & Xue scheme: send one message per
        *tile dependence* instead of one per successor *processor*.

        The paper's asymmetry ("a tile will receive from tiles, while
        it will send to processors") exists precisely to aggregate the
        dependencies ``d^S`` sharing a processor direction ``d^m`` into
        a single message; this mode undoes that, so each crossing
        dependence pays its own latency and (identical) payload.
        Timing-only.
        """
        prog = self.program
        spec = self.spec
        narr = len(prog.arrays)
        dist, comm = prog.dist, prog.comm
        ds_list = [ds for ds in comm.d_s if not comm.is_intra_processor(ds)]
        tag_of = {ds: i for i, ds in enumerate(ds_list)}

        def make_program(pid: Pid) -> NodeFn:
            # Same per-rank CPU slowdown as simulate(): the ablation
            # must differ from the paper scheme only in message
            # aggregation, never in the cost model.
            f = spec.node_speed_factor(prog.rank_of[pid])

            def node(api: RankApi) -> Generator:
                for tile in dist.tiles_of(pid):
                    # receive one message per crossing dependence whose
                    # predecessor tile exists
                    for ds in ds_list:
                        pred = tuple(a - b for a, b in zip(tile, ds))
                        if not dist.valid(pred):
                            continue
                        nelems = prog.region_count(pred, ds) * narr
                        if nelems == 0:
                            continue
                        dm = comm.project(ds)
                        src = tuple(a - b for a, b
                                    in zip(dist.pid_of(tile), dm))
                        yield Recv(source=prog.rank_of[src],
                                   tag=tag_of[ds])
                        yield Compute(spec.pack_time(nelems) * f)
                    pts = prog.tile_point_count(tile)
                    yield Compute(spec.compute_time(pts) * f)
                    # send one message per crossing dependence with a
                    # valid successor tile
                    for ds in ds_list:
                        succ = tuple(a + b for a, b in zip(tile, ds))
                        if not dist.valid(succ):
                            continue
                        full = tuple(0 if k == dist.m else ds[k]
                                     for k in range(prog.n))
                        nelems = prog.region_count(tile, full) * narr
                        if nelems == 0:
                            continue
                        dm = comm.project(ds)
                        dst = tuple(a + b for a, b
                                    in zip(dist.pid_of(tile), dm))
                        yield Compute(spec.pack_time(nelems) * f)
                        yield Send(dest=prog.rank_of[dst],
                                   tag=tag_of[ds], nelems=nelems)
            return node

        programs = {prog.rank_of[pid]: make_program(pid)
                    for pid in prog.pids}
        engine = VirtualMPI(spec, programs, trace=self.trace)
        return engine.run()

    # -- full data mode ---------------------------------------------------------------

    def execute(self, init_value: Callable[[str, Tuple[int, ...]], float],
                dtype: type = np.float64,
                ) -> Tuple[Dict[str, Dict[Tuple[int, ...], float]], RunStats]:
        """Run with real data movement; returns (global arrays, stats).

        ``init_value(array, cell)`` supplies values for reads that fall
        outside the iteration space (boundary/initial conditions).  The
        returned global arrays are dicts ``cell -> value`` per written
        array, assembled by the owner-computes write-back (Table 2's
        ``loc⁻¹`` composed with ``f_w``).
        """
        prog = self.program
        spec = self.spec
        nest = prog.nest
        ttis = prog.tiling.ttis
        dist = prog.dist
        lat = ttis.lattice_points_np()
        order = prog.dense_lex_order()  # frozen lexicographic order
        narr = len(prog.arrays)
        # Global result assembled at the end (the paper's write-back to DS).
        global_arrays: Dict[str, Dict[Tuple[int, ...], float]] = {
            a: {} for a in prog.arrays
        }
        stmts = nest.statements
        read_deps = prog._read_deps
        dprime_per_stmt = [
            [None if d is None else ttis.transformed_dependences([d])[0]
             for d in row]
            for row in read_deps
        ]

        def make_program(pid: Pid) -> NodeFn:
            lds = prog.addressing.lds_for(pid)
            arrays_local = {a: lds.allocate(dtype) for a in prog.arrays}

            def read_value(arr: str, stmt_idx: int, read_idx: int,
                           j_prime: Tuple[int, ...], t: int,
                           g: Tuple[int, ...]) -> float:
                ref = stmts[stmt_idx].reads[read_idx]
                d = read_deps[stmt_idx][read_idx]
                if d is None:
                    return init_value(arr, ref.index(g))
                src_pt = tuple(a - b for a, b in zip(g, d))
                if not nest.domain.contains(src_pt):
                    return init_value(arr, ref.index(g))
                dp = dprime_per_stmt[stmt_idx][read_idx]
                cell = lds.map(
                    tuple(a - b for a, b in zip(j_prime, dp)), t
                )
                return arrays_local[arr][cell]

            def node(api: RankApi) -> Generator:
                for tile in dist.tiles_of(pid):
                    t = dist.chain_index(tile)
                    # RECEIVE ------------------------------------------------
                    for ds, pred, src in prog.receive_plan(tile):
                        nelems = prog.region_count(pred, ds) * narr
                        if nelems == 0:
                            continue
                        dm = prog.comm.project(ds)
                        payload, got = yield Recv(
                            source=prog.rank_of[src],
                            tag=prog.message_tag(dm))
                        assert got == nelems, (
                            f"size mismatch at {tile} from {pred}: "
                            f"{got} != {nelems}")
                        yield Compute(spec.pack_time(nelems))
                        self._unpack(prog, lds, arrays_local, payload,
                                     pred, ds, t)
                    # COMPUTE ------------------------------------------------
                    mask = prog.tile_mask(tile)
                    idx = order[mask[order]]
                    origin = prog.tiling.tile_origin(tile)
                    yield Compute(spec.compute_time(int(mask.sum())))
                    for i in idx:
                        j_prime = tuple(int(x) for x in lat[i])
                        local = ttis.from_ttis(j_prime)
                        g = tuple(a + b for a, b in zip(origin, local))
                        for si, s in enumerate(stmts):
                            vals = [
                                read_value(r.array, si, ri, j_prime, t, g)
                                for ri, r in enumerate(s.reads)
                            ]
                            cell = lds.map(j_prime, t)
                            arrays_local[s.write.array][cell] = \
                                s.kernel(g, vals)
                    # SEND ---------------------------------------------------
                    for dm, dst in prog.send_plan(tile):
                        full_dir = dm[:dist.m] + (0,) + dm[dist.m:]
                        region = prog.region_mask(tile, full_dir)
                        count = int(region.sum())
                        if count == 0:
                            continue
                        nelems = count * narr
                        yield Compute(spec.pack_time(nelems))
                        payload = self._pack(prog, lds, arrays_local,
                                             tile, region, t, order, lat,
                                             dtype)
                        yield Send(dest=prog.rank_of[dst],
                                   tag=prog.message_tag(dm),
                                   nelems=nelems, payload=payload)
                # WRITE-BACK (outside the timed region, like the paper's
                # final placement of local data into the global DS).
                for tile in dist.tiles_of(pid):
                    t = dist.chain_index(tile)
                    mask = prog.tile_mask(tile)
                    origin = prog.tiling.tile_origin(tile)
                    for i in np.nonzero(mask)[0]:
                        j_prime = tuple(int(x) for x in lat[i])
                        local = ttis.from_ttis(j_prime)
                        g = tuple(a + b for a, b in zip(origin, local))
                        cell = lds.map(j_prime, t)
                        for s in stmts:
                            global_arrays[s.write.array][s.write.index(g)] = \
                                float(arrays_local[s.write.array][cell])
            return node

        programs = {prog.rank_of[pid]: make_program(pid)
                    for pid in prog.pids}
        engine = VirtualMPI(spec, programs, trace=self.trace)
        stats = engine.run()
        return global_arrays, stats

    # -- dense data mode ---------------------------------------------------------------

    def execute_dense(
        self, init_value: Callable[[str, Tuple[int, ...]], float],
        dtype: type = np.float64,
        native: Optional["NativeKernelLibrary"] = None,
    ) -> Tuple[Dict[str, DenseField], RunStats]:
        """Vectorized twin of :meth:`execute`.

        Each rank's LDS is a flat numpy buffer addressed by the paper's
        condensed ``map`` (strides ``c_k``, halo offsets ``off_k``);
        every tile executes in batched wavefront levels of its TTIS
        lattice; pack/unpack move whole ``CC`` regions as single
        gathers/scatters.  Every address comes from the rank's cached
        replay plan (:func:`~repro.runtime.replay.rank_replay`, built on
        the first execution), so a run only moves data, runs kernels
        and makes the boundary ``init_value`` calls.  The event sequence
        yielded to the virtual cluster is identical to :meth:`execute`
        (one ``Compute`` per tile, same message sizes/tags/order), so
        the returned :class:`RunStats` match exactly; only the
        Python-side wall-clock cost changes.  Results come back as
        :class:`DenseField` per written array (``.to_cells()`` recovers
        the sparse dicts).

        ``native`` switches the per-tile COMPUTE loop to the compiled
        shared-object kernels (see ``repro.native``): same LDS buffers,
        same wavefront levels, bitwise-identical values.  A library
        that fell back at build time (or a non-float64 ``dtype``)
        silently keeps the numpy path.
        """
        prog = self.program
        spec = self.spec
        arrays = prog.arrays
        geo = replay_geometry(prog)
        plans = build_statement_plans(prog.nest, init_value, dtype)
        native_rt = (native.runtime(prog, init_value, dtype, plans=plans)
                     if native is not None else None)
        fields: Dict[str, DenseField] = {
            w.array: DenseField(origin=w.origin,
                                values=np.zeros(w.shape, dtype=dtype),
                                written=np.zeros(w.shape, dtype=bool))
            for w in geo.writes
        }
        arrays_out = {a: (f.values, f.written) for a, f in fields.items()}

        def make_program(pid: Pid) -> NodeFn:
            replay = rank_replay(prog, prog.rank_of[pid])
            local = {a: np.zeros(replay.size, dtype=dtype) for a in arrays}
            kernels: TileKernels = (
                native_rt.for_rank(replay, local) if native_rt is not None
                else NumpyKernels(prog, replay, local, init_value, plans,
                                  dtype))

            def node(api: RankApi) -> Generator:
                for step in replay.steps:
                    # RECEIVE ------------------------------------------------
                    for r, cells, off in step.recvs:
                        payload, got = yield Recv(source=r.src_rank,
                                                  tag=r.tag)
                        assert got == r.nelems, (
                            f"size mismatch at {step.tile} from "
                            f"{r.pred}: {got} != {r.nelems}")
                        yield Compute(spec.pack_time(r.nelems))
                        flat = cells + off
                        cnt = len(flat)
                        for ai, arr in enumerate(arrays):
                            local[arr][flat] = \
                                payload[ai * cnt:(ai + 1) * cnt]
                    # COMPUTE ------------------------------------------------
                    yield Compute(spec.compute_time(step.points))
                    kernels.run_tile(step)
                    # SEND ---------------------------------------------------
                    for s, cells, off in step.sends:
                        yield Compute(spec.pack_time(s.nelems))
                        flat = cells + off
                        payload = np.concatenate(
                            [local[a][flat] for a in arrays])
                        yield Send(dest=s.dst_rank, tag=s.tag,
                                   nelems=s.nelems, payload=payload)
                # WRITE-BACK (outside the timed region, as in execute).
                write_back(replay, geo, local, arrays_out)
            return node

        programs = {prog.rank_of[pid]: make_program(pid)
                    for pid in prog.pids}
        engine = VirtualMPI(spec, programs, trace=self.trace)
        stats = engine.run()
        return fields, stats

    # -- real parallel mode -------------------------------------------------------------

    def execute_parallel(
        self, init_value: Callable[[str, Tuple[int, ...]], float],
        workers: Optional[int] = None,
        dtype: type = np.float64,
        protocol: str = "spec",
        mailbox_depth: int = 8,
        timeout: float = 300.0,
        overlap: bool = False,
        verify: bool = False,
        native: Optional["NativeKernelLibrary"] = None,
    ) -> Tuple[Dict[str, DenseField], RunStats]:
        """Run the schedule with *real* OS-process parallelism.

        One process per processor (capped at ``workers``), halos moving
        through shared-memory mailboxes — see
        :mod:`repro.runtime.parallel`.  Results are bitwise identical
        to :meth:`execute_dense`; the returned :class:`RunStats` carry
        *measured* wall-clock per-rank clocks (the simulator's event
        counts, so ``total_messages``/``total_elements`` still match
        :meth:`simulate` exactly).

        ``overlap=True`` switches every rank to the overlapped
        schedule: per wavefront level the boundary sub-batch runs
        first, its values scatter zero-copy into reserved ring slots,
        each message publishes at its last contributing level, and
        interior work proceeds while consumers drain the ring (halos
        are correspondingly unpacked lazily).  Same messages, same
        bytes, bitwise-identical results.

        ``verify=True`` certifies the schedule happens-before clean
        (see :meth:`TiledProgram.hb_certificate`) before any process
        forks, raising ``VerificationError`` instead of hitting the
        hazard at run time.

        ``native`` hands every worker a compiled
        :class:`~repro.native.engine.NativeKernelLibrary`: per-tile
        compute runs in the shared object over the same LDS buffers
        and rings, bitwise identical to the numpy kernels.
        """
        from repro.runtime.parallel import run_parallel
        return run_parallel(
            self.program, self.spec, init_value, workers=workers,
            dtype=dtype, protocol=protocol, mailbox_depth=mailbox_depth,
            timeout=timeout, trace=self.trace, overlap=overlap,
            verify=verify, native=native)

    # -- pack / unpack ------------------------------------------------------------------

    @staticmethod
    def _pack(prog: TiledProgram, lds: LocalDataSpace,
              arrays_local: Dict[str, np.ndarray],
              tile: Tile, region: np.ndarray, t: int,
              order: np.ndarray, lat: np.ndarray,
              dtype: type) -> np.ndarray:
        """Serialize the region's values, array-major then lattice order."""
        idx = order[region[order]]
        out = np.empty(len(idx) * len(prog.arrays), dtype=dtype)
        pos = 0
        for arr in prog.arrays:
            la = arrays_local[arr]
            for i in idx:
                j_prime = tuple(int(x) for x in lat[i])
                out[pos] = la[lds.map(j_prime, t)]
                pos += 1
        return out

    @staticmethod
    def _unpack(prog: TiledProgram, lds: LocalDataSpace,
                arrays_local: Dict[str, np.ndarray],
                payload: np.ndarray, pred: Tile, ds: Tile,
                t: int) -> None:
        """Mirror of :meth:`_pack` on the receiving side.

        The receiver re-derives the sender's region (it knows the
        predecessor tile) and scatters values into the halo slots
        ``map(j', t) - d^S_k v_k / c_k`` of Table RECEIVE.

        The intra-region payload order is the program's frozen
        :meth:`TiledProgram.dense_lex_order` — the exact order
        :meth:`_pack` serialized with — so no per-message ``lexsort``
        over the full lattice is ever recomputed here.
        """
        lat = prog.tiling.ttis.lattice_points_np()
        order = prog.dense_lex_order()
        region = prog.region_mask(pred, ds)
        idx = order[region[order]]
        pos = 0
        for arr in prog.arrays:
            la = arrays_local[arr]
            for i in idx:
                j_prime = tuple(int(x) for x in lat[i])
                slot = lds.halo_slot(j_prime, ds, t)
                la[slot] = payload[pos]
                pos += 1
