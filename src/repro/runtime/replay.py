"""Per-rank replay plans of the dense node program (paper §3.2).

Every address the node program touches is compile-time data: the
receive and pack regions, the condensed LDS ``map`` (strides ``c_k``,
halo offsets ``off_k``), the tile origins and the owner-computes
write-back cells.  :func:`rank_replay` freezes them once per
``(program, rank)`` into flat int64 index arrays, so an execution only
moves data:

* each tile's chain shift (the flat offset of chain index ``t``, exact
  because ``c_m | v_m``) and its int64 origin ``P j^S``;
* the flat LDS cells of every receive (halo slots) and send (pack
  region in the frozen lexicographic payload order), one per
  ``TileRecv``/``TileSend`` of :func:`~repro.runtime.parallel.build_rank_plans`
  — so tags, sizes and zero-message drops come from the same frozen
  schedule the parallel runtime and the certifiers replay.  A region's
  cells are stored once (sender, receiver and every full tile share
  them); each message keeps its own flat offset;
* for tiles that read outside the domain, the executed out-of-domain
  lattice positions of each dependence and, per dependence read, the
  boundary cells ``ref.index(g)`` those positions read.

Nothing here depends on ``init_value``: :func:`boundary_fill` turns the
cached cells into per-run boundary values with the same scalar
``init_value`` calls the sparse reference makes.  Both data engines
(``execute_dense`` and the parallel engine, blocking or overlapped)
walk these plans with one tile executor — :class:`NumpyKernels` here,
or the native ``RankKernels`` — and one :func:`write_back`.  Partial
tiles keep no per-point arrays; their executed points come from the
program's cached bool tile masks on each run.  The plans live only in
memory (never in artifacts) and are built on the first execution, not
by compile, simulate or tune.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.runtime.dense import (
    ReadPlan,
    RefIndexer,
    StatementPlan,
    evaluate_statement_batch,
    read_dependences,
    write_box,
)

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram
    from repro.runtime.parallel import TileRecv, TileSend

Tile = Tuple[int, ...]
Site = Tuple[int, int]                  # (statement index, read index)
InitFn = Callable[[str, Tuple[int, ...]], float]


@dataclass(frozen=True)
class LdsBases:
    """Flat LDS addressing of one LDS geometry (shared by every rank
    with the same strides).

    ``wbase[i]`` is the flat cell of lattice point ``i`` at chain index
    0, ``rbase[site][i]`` the flat cell of its source ``j' - d'`` for a
    dependence read; chain index ``t`` adds ``t * shift_unit``.
    """

    strides: np.ndarray
    wbase: np.ndarray
    rbase: Dict[Site, np.ndarray]
    shift_unit: int
    #: message region cells ``wbase[region in payload order]``, keyed
    #: by (partial tile or None for any full tile, direction)
    regions: Dict[Tuple[Optional[Tile], Tuple[int, ...]], np.ndarray] = \
        field(default_factory=dict)


@dataclass(frozen=True)
class BoundaryRead:
    """Out-of-domain sources of one dependence read in one tile."""

    site: Site
    array: str
    pos: np.ndarray                     # executed lattice indices
    cells: np.ndarray                   # ref.index(g) at those points


@dataclass(frozen=True)
class TileStep:
    """One tile of a rank's chain, with every address it needs."""

    tile: Tile
    shift: int                          # flat offset of the chain index
    origin: np.ndarray                  # int64 ``P j^S``
    points: int
    mask: Optional[np.ndarray]          # cached tile mask; None = full
    #: per message: region cells (chain index 0) and the flat offset
    #: that places them (chain shift, minus the halo shift on receive)
    recvs: Tuple[Tuple["TileRecv", np.ndarray, int], ...]
    sends: Tuple[Tuple["TileSend", np.ndarray, int], ...]
    boundary: Tuple[BoundaryRead, ...]
    wconst: Tuple[int, ...]             # per statement: write-back offset


@dataclass(frozen=True)
class RankReplay:
    size: int                           # LDS cells per array
    bases: LdsBases
    steps: Tuple[TileStep, ...]


@dataclass(frozen=True)
class _DepRead:
    site: Site
    array: str
    indexer: RefIndexer
    dep_key: Tuple[int, ...]
    dp_key: Tuple[int, ...]             # TTIS image ``H' d``


@dataclass(frozen=True)
class _WriteGeometry:
    array: str
    origin: Tuple[int, ...]
    shape: Tuple[int, ...]
    indexer: RefIndexer
    fstrides: np.ndarray
    fbase: np.ndarray                   # raveled field index of F tis_i


def _row_major(shape: Sequence[int]) -> np.ndarray:
    strides = np.ones(len(shape), dtype=np.int64)
    for k in reversed(range(len(shape) - 1)):
        strides[k] = strides[k + 1] * int(shape[k + 1])
    return strides


class ReplayGeometry:
    """Program-level tables every rank's replay shares."""

    def __init__(self, program: "TiledProgram"):
        tiling = program.tiling
        ttis = tiling.ttis
        self.lat = ttis.lattice_points_np()
        self.tis = ttis.tis_points_np()
        self.nlat = len(self.lat)
        self.c = np.asarray(ttis.c, dtype=np.int64)
        self.rows = np.asarray(ttis.rows_per_dim, dtype=np.int64)
        self.m = int(program.dist.m)
        self.amat, self.bvec = tiling._amat, tiling._bvec
        self.lex_order = program.dense_lex_order()
        #: Every lattice point in wavefront (schedule) order.
        self.sel_full = np.ascontiguousarray(
            np.concatenate(program.dense_full_batches()), dtype=np.int64)

        nest = program.nest
        self.dep_reads: List[_DepRead] = []
        for si, row in enumerate(read_dependences(nest)):
            for ri, d in enumerate(row):
                if d is None:
                    continue
                ref = nest.statements[si].reads[ri]
                dp = ttis.transformed_dependences([d])[0]
                self.dep_reads.append(_DepRead(
                    site=(si, ri), array=ref.array,
                    indexer=RefIndexer.of(ref),
                    dep_key=tuple(int(x) for x in d),
                    dp_key=tuple(int(x) for x in dp)))
        self.deps = {r.dep_key: np.asarray(r.dep_key, dtype=np.int64)
                     for r in self.dep_reads}
        # Whole-tile in-domain test per dependence: A @ tis_i <= b -
        # A @ (origin - d); the row maxima decide it in O(rows).
        self.a_tis = self.amat @ self.tis.T
        self.a_tis_rowmax = (self.a_tis.max(axis=1) if self.a_tis.size
                             else np.zeros(len(self.bvec), dtype=np.int64))

        self.writes: List[_WriteGeometry] = []
        for s in nest.statements:
            origin, shape = write_box(s.write, nest.domain)
            fstrides = _row_major(shape)
            indexer = RefIndexer.of(s.write)
            fbase = np.ascontiguousarray(
                (indexer.cells(self.tis) - indexer.offset) @ fstrides)
            self.writes.append(_WriteGeometry(
                array=s.write.array, origin=origin, shape=shape,
                indexer=indexer, fstrides=fstrides, fbase=fbase))
        self._bases: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]],
                          LdsBases] = {}

    def executed(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Executed lattice points of a tile, in schedule order."""
        if mask is None:
            return self.sel_full
        return self.sel_full[mask[self.sel_full]]

    def bases_for(self, lds: Any) -> LdsBases:
        strides = _row_major(lds.shape)
        off = np.asarray(lds.offsets, dtype=np.int64)
        key = (tuple(strides.tolist()), tuple(off.tolist()))
        bases = self._bases.get(key)
        if bases is None:
            cond = self.lat // self.c + off
            by_dp: Dict[Tuple[int, ...], np.ndarray] = {}
            rbase: Dict[Site, np.ndarray] = {}
            for r in self.dep_reads:
                arr = by_dp.get(r.dp_key)
                if arr is None:
                    dp = np.asarray(r.dp_key, dtype=np.int64)
                    arr = np.ascontiguousarray(
                        ((self.lat - dp) // self.c + off) @ strides)
                    by_dp[r.dp_key] = arr
                rbase[r.site] = arr
            bases = LdsBases(
                strides=strides,
                wbase=np.ascontiguousarray(cond @ strides), rbase=rbase,
                shift_unit=int(self.rows[self.m]) * int(strides[self.m]))
            self._bases[key] = bases
        return bases

    def boundary(self, origin: np.ndarray,
                 mask: Optional[np.ndarray]) -> Tuple[BoundaryRead, ...]:
        """Executed out-of-domain reads of the tile at ``origin``."""
        pos_of: Dict[Tuple[int, ...], np.ndarray] = {}
        sel: Optional[np.ndarray] = None
        for key, dep in self.deps.items():
            thr = self.bvec - self.amat @ (origin - dep)
            # Only constraints some lattice point can violate matter.
            rows = np.flatnonzero(self.a_tis_rowmax > thr)
            if not len(rows):
                continue                    # whole tile in-domain
            out_dom = self.a_tis[rows[0]] > thr[rows[0]]
            for r in rows[1:]:
                out_dom |= self.a_tis[r] > thr[r]
            if sel is None:
                sel = self.executed(mask)
            pos = sel[out_dom[sel]]
            if len(pos):
                pos_of[key] = pos
        out: List[BoundaryRead] = []
        for r in self.dep_reads:
            pos = pos_of.get(r.dep_key)
            if pos is not None:
                cells = r.indexer.cells(self.tis[pos] + origin)
                if np.abs(cells).max() < 2**31:
                    cells = cells.astype(np.int32)  # halves the plan
                out.append(BoundaryRead(
                    site=r.site, array=r.array, pos=pos, cells=cells))
        return tuple(out)


def replay_geometry(program: "TiledProgram") -> ReplayGeometry:
    geo = program._replay_geometry
    if geo is None:
        geo = ReplayGeometry(program)
        program._replay_geometry = geo
    return geo


def rank_replay(program: "TiledProgram", rank: int) -> RankReplay:
    """The cached replay plan of ``rank`` (built on first use)."""
    cached = program._replay_cache.get(rank)
    if cached is not None:
        return cached
    from repro.runtime.parallel import build_rank_plans

    geo = replay_geometry(program)
    plan = build_rank_plans(program)[rank]
    tiling = program.tiling
    lds = program.addressing.lds_for(plan.pid)
    bases = geo.bases_for(lds)
    wbase, lex = bases.wbase, geo.lex_order
    halo_unit = geo.rows * bases.strides

    def region(tile: Tile, direction: Tuple[int, ...]) -> np.ndarray:
        # Shared by sender and receiver, and by every full tile.
        key = (tile if tiling.classify_tile(tile) == "partial" else None,
               direction)
        cells = bases.regions.get(key)
        if cells is None:
            reg = program.region_mask(tile, direction)
            cells = wbase[lex[reg[lex]]]
            bases.regions[key] = cells
        return cells

    steps: List[TileStep] = []
    for ti, tile in enumerate(plan.tiles):
        shift = program.dist.chain_index(tile) * bases.shift_unit
        origin = np.asarray(tiling.tile_origin(tile), dtype=np.int64)
        mask = (None if tiling.classify_tile(tile) == "full"
                else program.tile_mask(tile))
        recvs = tuple(
            (r, region(r.pred, r.ds),
             shift - int(np.asarray(r.ds, dtype=np.int64) @ halo_unit))
            for r in plan.recvs[ti])
        sends = tuple((s, region(tile, s.direction), shift)
                      for s in plan.sends[ti])
        wconst = tuple(
            int((w.indexer.cells(origin[None, :])[0]
                 - np.asarray(w.origin, dtype=np.int64)) @ w.fstrides)
            for w in geo.writes)
        steps.append(TileStep(
            tile=tile, shift=shift, origin=origin,
            points=program.tile_point_count(tile), mask=mask,
            recvs=recvs, sends=sends,
            boundary=geo.boundary(origin, mask), wconst=wconst))
    replay = RankReplay(size=int(lds.cells), bases=bases,
                        steps=tuple(steps))
    program._replay_cache[rank] = replay
    return replay


def boundary_fill(step: TileStep, nlat: int, init_value: InitFn,
                  dtype: Any = np.float64,
                  ) -> List[Tuple[Site, np.ndarray, np.ndarray]]:
    """This run's boundary values of one tile: per dependence read with
    out-of-domain sources, ``(site, oob, fix)`` over the lattice —
    ``oob`` a uint8 mask of the executed out-of-domain points, ``fix``
    the value each reads instead.  One scalar ``init_value`` call per
    such point: the calls ``fix_out_of_domain`` makes in the other
    engines, so boundaries agree bitwise.
    """
    out: List[Tuple[Site, np.ndarray, np.ndarray]] = []
    masks: Dict[int, np.ndarray] = {}
    for b in step.boundary:
        oob = masks.get(id(b.pos))
        if oob is None:
            oob = np.zeros(nlat, dtype=np.uint8)
            oob[b.pos] = 1
            masks[id(b.pos)] = oob
        # Read only where ``oob`` is set, so the rest stays unset.
        fix = np.empty(nlat, dtype=dtype)
        arr = b.array
        # zip over one iterator: consecutive cell tuples, built in C.
        coords = iter(b.cells.ravel().tolist())
        fix[b.pos] = [init_value(arr, cell)
                      for cell in zip(*[coords] * b.cells.shape[1])]
        out.append((b.site, oob, fix))
    return out


def write_back(replay: RankReplay, geo: ReplayGeometry,
               local: Dict[str, np.ndarray],
               fields: Dict[str, Tuple[np.ndarray, np.ndarray]]) -> None:
    """Owner-computes write-back of one rank's tiles into the global
    fields, given per array as C-contiguous ``(values, written)`` boxes
    of ``geo.writes`` (bool or uint8 ``written``), through raveled
    indices ``fbase[i] + wconst``."""
    flat = {a: (values.reshape(-1), written.reshape(-1))
            for a, (values, written) in fields.items()}
    wbase = replay.bases.wbase
    for step in replay.steps:
        pts = slice(None) if step.mask is None else step.mask
        src = wbase[pts] + step.shift
        for w, const in zip(geo.writes, step.wconst):
            dst = w.fbase[pts] + const
            values, written = flat[w.array]
            values[dst] = local[w.array][src]
            written[dst] = True


class TileKernels(Protocol):
    """A rank's tile executor: :class:`NumpyKernels` or the native
    :class:`repro.native.engine.RankKernels`."""

    def run_tile(self, step: TileStep) -> None: ...

    def run_segment(self, step: TileStep, batch: np.ndarray) -> None: ...


class NumpyKernels:
    """One rank's numpy executor over its LDS buffers.

    The twin of :class:`repro.native.engine.RankKernels`, with the same
    interface: ``run_tile`` executes a whole tile level by level,
    ``run_segment`` one wavefront (sub-)batch — the overlap schedule's
    boundary/interior slices.  A tile's boundary values are filled once
    and reused by all of its segments.
    """

    def __init__(self, program: "TiledProgram", replay: RankReplay,
                 local: Dict[str, np.ndarray], init_value: InitFn,
                 plans: Sequence[StatementPlan], dtype: Any = np.float64):
        self.program = program
        self.geo = replay_geometry(program)
        self.local = local
        self.init_value = init_value
        self.plans = plans
        self.dtype = dtype
        self.wbase = replay.bases.wbase
        self.rbase = replay.bases.rbase
        self.top = replay.size - 1
        self._fix_step: Optional[TileStep] = None
        self._fixes: Dict[Site, Tuple[np.ndarray, np.ndarray]] = {}

    def _boundary(self, step: TileStep,
                  ) -> Dict[Site, Tuple[np.ndarray, np.ndarray]]:
        if self._fix_step is not step:
            self._fixes = {
                site: (oob.view(np.bool_), fix) for site, oob, fix
                in boundary_fill(step, self.geo.nlat, self.init_value,
                                 self.dtype)}
            self._fix_step = step
        return self._fixes

    def run_tile(self, step: TileStep) -> None:
        """Every executed point of one tile, wavefront level by level."""
        for batch in self.program.dense_level_batches(step.tile):
            self.run_segment(step, batch)

    def run_segment(self, step: TileStep, batch: np.ndarray) -> None:
        """One wavefront (sub-)batch of one tile."""
        fixes = self._boundary(step)
        local, rbase, top = self.local, self.rbase, self.top

        def gather(rp: ReadPlan, _g: np.ndarray) -> np.ndarray:
            # Out-of-domain sources can address outside the LDS; clip,
            # then overwrite with the boundary values.
            vals = local[rp.ref.array][np.clip(
                rbase[rp.site][batch] + step.shift, 0, top)]
            fx = fixes.get(rp.site)
            if fx is not None:
                oob = fx[0][batch]
                vals[oob] = fx[1][batch][oob]
            return vals

        g = self.geo.tis[batch] + step.origin
        wflat = self.wbase[batch] + step.shift
        for plan in self.plans:
            local[plan.stmt.write.array][wflat] = evaluate_statement_batch(
                plan, g, gather, self.dtype)
