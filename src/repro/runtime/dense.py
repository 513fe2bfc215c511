"""Dense vectorized execution core (shared by both dense modes).

The sparse interpreters and the executor's ``execute`` walk iteration
points one dict lookup at a time; that is the semantic reference, but it
is orders of magnitude slower than the hardware allows.  This module
holds the machinery both dense drivers share:

* ``read_dependences`` — the dependence vector behind each read of a
  written array (``None`` for pure inputs);
* ``wavefront_vector`` / ``level_batches`` — a linear schedule ``s``
  with ``s . d >= 1`` for every dependence, and the partition of a point
  set into its wavefront levels: all points of one level are mutually
  independent, so a whole level executes as one batched numpy kernel;
* ``StatementPlan`` / ``evaluate_statement_batch`` — per-statement
  gather / kernel / boundary-fix plumbing.  Reads of written arrays go
  through a driver-supplied gather (global dense field for the
  sequential driver, LDS buffer for the distributed one); pure-input
  reads hit a dense :class:`InputTable` precomputed from ``init_value``.

Bitwise agreement with the sparse reference comes from evaluating the
*same* kernel elementwise: a statement's one ``kernel`` runs over read
arrays here and over floats there, performing the identical IEEE-754
operations in the identical order, and boundary values come from the
same ``init_value`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.loops.nest import LoopNest, Statement
from repro.loops.reference import ArrayRef
from repro.polyhedra.halfspace import Polyhedron
from repro.polyhedra.vertices import image_bounding_box
from repro.runtime.dataspace import DenseField
from repro.tiling.transform import _int_constraints

Cell = Tuple[int, ...]
InitFn = Callable[[str, Cell], float]


# -- dependences -------------------------------------------------------------------


def read_dependences(nest: LoopNest) -> List[List[Optional[Tuple[int, ...]]]]:
    """Dependence vector per (statement, read) targeting a written array.

    ``None`` marks a pure-input read (the array is never written).  For
    a read ``A[F j + f_r]`` of an array written as ``A[F j + f_w]`` the
    vector is ``d = F^{-1} (f_w - f_r)`` — the source iteration is
    ``j - d``.
    """
    writes = {s.write.array: s.write for s in nest.statements}
    out: List[List[Optional[Tuple[int, ...]]]] = []
    for s in nest.statements:
        row: List[Optional[Tuple[int, ...]]] = []
        for r in s.reads:
            w = writes.get(r.array)
            if w is None:
                row.append(None)
            else:
                diff = tuple(a - b for a, b in zip(w.offset, r.offset))
                d = w.access_matrix().solve(diff)
                row.append(tuple(int(x) for x in d))
        out.append(row)
    return out


# -- wavefront scheduling -----------------------------------------------------------


def wavefront_vector(deps: Sequence[Sequence[int]], n: int,
                     extents: Optional[Sequence[int]] = None,
                     ) -> Tuple[int, ...]:
    """An integer schedule vector ``s`` with ``s . d >= 1`` for all deps.

    Points on one hyperplane ``s . j = const`` are mutually independent,
    so they form one vectorizable batch.  Preference order:

    * no dependences — ``s = 0`` (a single batch);
    * an axis ``e_k`` with ``d_k >= 1`` for every dependence — fewest
      levels and biggest batches; when ``extents`` is given the axis
      with the smallest extent wins;
    * ``s = (1, ..., 1)`` when every dependence is componentwise
      non-negative and nonzero — always true for TTIS-transformed
      dependences of a legal tiling (``H d >= 0``);
    * otherwise (lexicographically positive dependences, e.g. an
      unskewed stencil) weighted coordinates ``s_k = 1 + M * sum_{l>k}
      s_l`` with ``M = max |d_l|``.

    The chosen vector is validated against every dependence; a zero
    dependence vector (a same-iteration self-loop) is rejected — order
    within an iteration is the statement order, not a schedule concern.
    """
    ds = [tuple(int(x) for x in d) for d in deps]
    if not ds:
        return tuple(0 for _ in range(n))
    s: Tuple[int, ...]
    axes = [k for k in range(n) if all(d[k] >= 1 for d in ds)]
    if axes:
        if extents is not None:
            axis = min(axes, key=lambda k: int(extents[k]))
        else:
            axis = axes[0]
        s = tuple(int(k == axis) for k in range(n))
    elif all(all(x >= 0 for x in d) and any(x != 0 for x in d) for d in ds):
        s = tuple(1 for _ in range(n))
    else:
        big = max((abs(x) for d in ds for x in d), default=0)
        weights = [0] * n
        acc = 0
        for k in reversed(range(n)):
            weights[k] = 1 + big * acc
            acc += weights[k]
        s = tuple(weights)
    for d in ds:
        if sum(a * b for a, b in zip(s, d)) < 1:
            raise ValueError(
                f"no wavefront schedule: s={s} violates dependence {d}")
    return s


def level_batches(points: np.ndarray,
                  s: Sequence[int]) -> List[np.ndarray]:
    """Partition ``points`` (an ``(m, n)`` int array) into wavefront
    levels of ``s``, each an index array into ``points``.

    Levels come back in increasing ``s . j``; within a level, indices
    keep the original row order (stable sort), so drivers control the
    intra-level order by how they order ``points``.
    """
    if not any(s):
        return [np.arange(len(points), dtype=np.int64)]
    levels = points @ np.asarray(s, dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    cuts = np.nonzero(np.diff(levels[order]))[0] + 1
    return [np.asarray(b) for b in np.split(order, cuts)]


# -- array addressing ---------------------------------------------------------------


def _int_matrix(ref: ArrayRef) -> Optional[np.ndarray]:
    """The access matrix as int64 rows, or ``None`` for identity."""
    if ref.matrix is None:
        return None
    return np.array(ref.matrix.to_int_rows(), dtype=np.int64)


@dataclass
class RefIndexer:
    """Vectorized ``cells = F @ points + f`` for one array reference."""

    offset: np.ndarray
    f_int: Optional[np.ndarray]

    @staticmethod
    def of(ref: ArrayRef) -> RefIndexer:
        return RefIndexer(
            offset=np.asarray(ref.offset, dtype=np.int64),
            f_int=_int_matrix(ref),
        )

    def cells(self, points: np.ndarray) -> np.ndarray:
        if self.f_int is None:
            return points + self.offset
        return points @ self.f_int.T + self.offset


@dataclass
class InputTable:
    """Dense table of a pure-input array over its accessed box.

    Filled once by scalar ``init_value`` calls (so the values are
    bitwise those the sparse reference reads), then gathered per batch.
    """

    array: str
    origin: np.ndarray
    values: np.ndarray

    def gather(self, cells: np.ndarray) -> np.ndarray:
        idx = cells - self.origin
        return self.values[tuple(idx.T)]


def build_input_table(ref: ArrayRef, domain: Polyhedron,
                      init_value: InitFn,
                      dtype: type = np.float64) -> InputTable:
    """Precompute every value ``init_value`` can return for ``ref``
    over ``domain`` (the image box is slightly widened to the rational
    bounding box, which is cheap for the low-dimensional inputs)."""
    lo_r, hi_r = image_bounding_box(domain, ref.access_matrix())
    lo = tuple(math.floor(a) + o for a, o in zip(lo_r, ref.offset))
    hi = tuple(math.ceil(a) + o for a, o in zip(hi_r, ref.offset))
    shape = tuple(h - b + 1 for b, h in zip(lo, hi))
    values = np.empty(shape, dtype=dtype)
    for idx in np.ndindex(*shape):
        cell = tuple(a + b for a, b in zip(idx, lo))
        values[idx] = init_value(ref.array, cell)
    return InputTable(array=ref.array,
                      origin=np.asarray(lo, dtype=np.int64),
                      values=values)


def write_box(ref: ArrayRef, domain: Polyhedron,
              ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(origin, shape)`` of the box of cells ``ref`` can write over
    ``domain``."""
    lo_r, hi_r = image_bounding_box(domain, ref.access_matrix())
    lo = tuple(math.floor(a) + o for a, o in zip(lo_r, ref.offset))
    hi = tuple(math.ceil(a) + o for a, o in zip(hi_r, ref.offset))
    return lo, tuple(h - b + 1 for b, h in zip(lo, hi))


def field_for_write(ref: ArrayRef, domain: Polyhedron,
                    dtype: type = np.float64) -> DenseField:
    """A zeroed :class:`DenseField` covering every cell ``ref`` can
    write over ``domain``."""
    lo, shape = write_box(ref, domain)
    return DenseField(
        origin=lo,
        values=np.zeros(shape, dtype=dtype),
        written=np.zeros(shape, dtype=bool),
    )


def domain_constraints(domain: Polyhedron) -> Tuple[np.ndarray, np.ndarray]:
    """Integer constraint system ``A x <= b`` of the domain."""
    return _int_constraints(domain)


def domain_mask(amat: np.ndarray, bvec: np.ndarray,
                points: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``points`` inside ``A x <= b``."""
    return np.all(amat @ points.T <= bvec[:, None], axis=0)


# -- statement plans ---------------------------------------------------------------


@dataclass
class ReadPlan:
    """One read slot of a statement, ready for batched evaluation."""

    ref: ArrayRef
    indexer: RefIndexer
    site: Tuple[int, int]              # (statement, read) index
    dep: Optional[np.ndarray]          # int64 (n,), None for pure inputs
    table: Optional[InputTable]        # set exactly when dep is None


@dataclass
class StatementPlan:
    stmt: Statement
    write_indexer: RefIndexer
    reads: List[ReadPlan]


def build_statement_plans(nest: LoopNest, init_value: InitFn,
                          dtype: type = np.float64) -> List[StatementPlan]:
    """Compile the nest's statements for batched execution.

    Pure-input tables are shared between reads with the same access
    function (ADI reads its coefficient array from both statements).
    """
    deps = read_dependences(nest)
    tables: Dict[object, InputTable] = {}
    plans: List[StatementPlan] = []
    for si, s in enumerate(nest.statements):
        reads: List[ReadPlan] = []
        for ri, r in enumerate(s.reads):
            d = deps[si][ri]
            table: Optional[InputTable] = None
            if d is None:
                mkey = None if r.matrix is None else tuple(
                    tuple(row) for row in r.matrix.rows())
                key = (r.array, r.offset, mkey)
                table = tables.get(key)
                if table is None:
                    table = build_input_table(r, nest.domain, init_value,
                                              dtype)
                    tables[key] = table
            reads.append(ReadPlan(
                ref=r,
                indexer=RefIndexer.of(r),
                site=(si, ri),
                dep=None if d is None else np.asarray(d, dtype=np.int64),
                table=table,
            ))
        plans.append(StatementPlan(
            stmt=s, write_indexer=RefIndexer.of(s.write), reads=reads))
    return plans


def schedule_dependences(nest: LoopNest,
                         plans: Sequence[StatementPlan],
                         ) -> List[Tuple[int, ...]]:
    """Nonzero dependence vectors the wavefront must honour: the union
    of actual read dependences and the nest's declared matrix (zero
    vectors — same-iteration reads — are ordered by statement order,
    not by the schedule)."""
    seen: Dict[Tuple[int, ...], None] = {}
    for plan in plans:
        for rp in plan.reads:
            if rp.dep is not None:
                d = tuple(int(x) for x in rp.dep)
                if any(d):
                    seen[d] = None
    for dd in nest.dependences:
        d = tuple(int(x) for x in dd)
        if any(d):
            seen[d] = None
    return list(seen)


def fix_out_of_domain(vals: np.ndarray, ref: ArrayRef, points: np.ndarray,
                      src_in_domain: np.ndarray,
                      init_value: InitFn) -> None:
    """Overwrite gathered values whose source iteration fell outside the
    domain with the boundary/initial value — the same scalar
    ``init_value(array, ref.index(j))`` call the sparse reference makes,
    so boundaries agree bitwise."""
    for i in np.nonzero(~src_in_domain)[0]:
        g = tuple(int(x) for x in points[i])
        vals[i] = init_value(ref.array, ref.index(g))


GatherFn = Callable[[ReadPlan, np.ndarray], np.ndarray]


# -- overlap splitting --------------------------------------------------------------


@dataclass(frozen=True)
class EdgePackPlan:
    """Compile-time zero-copy pack schedule of one outgoing message.

    The payload layout is frozen: array-major blocks of ``count``
    elements, each block in lexicographic lattice order of the pack
    region (byte-identical to the blocking engine's
    ``concatenate``-of-gathers).  ``level_lat[L]``/``level_pos[L]``
    say which lattice points become final at wavefront level ``L`` and
    where their values land inside each block, so the runtime can
    scatter freshly-computed boundary values straight into the
    reserved ring slot and publish at ``commit_level`` — before any
    interior work of that level runs.
    """

    direction: Tuple[int, ...]          # full d with 0 at mapping dim
    count: int                          # region points per array block
    level_lat: Tuple[np.ndarray, ...]   # per level: lattice indices
    level_pos: Tuple[np.ndarray, ...]   # per level: block positions
    commit_level: int                   # last level feeding the region


@dataclass(frozen=True)
class TileOverlapPlan:
    """Boundary/interior split of one tile's wavefront schedule.

    ``boundary[L]`` holds the level-``L`` points inside some outgoing
    ``CC`` pack region (they run first and feed the ring slots);
    ``interior[L]`` the rest.  Their union is exactly the dense
    engine's level batch, so executing boundary-then-interior is a
    stable reorder *within* a level — legal because wavefront levels
    are mutually independent (``s . d' >= 1``) and bitwise-neutral
    because the kernels are elementwise.  ``recv_need[i]`` is the
    first level whose points can read the halo delivered by the
    ``i``-th incoming message, i.e. the latest safe unpack point.
    """

    nlevels: int
    boundary: Tuple[np.ndarray, ...]
    interior: Tuple[np.ndarray, ...]
    packs: Tuple[EdgePackPlan, ...]     # plan order (send_plan order)
    recv_need: Tuple[int, ...]          # plan order (receive_plan order)


def build_overlap_split(
    lat: np.ndarray,
    lex_order: np.ndarray,
    batches: Sequence[np.ndarray],
    send_regions: Sequence[Tuple[Tuple[int, ...], np.ndarray]],
    recv_dirs: Sequence[Tuple[int, ...]],
    max_dp: Sequence[int],
) -> TileOverlapPlan:
    """Derive one tile's :class:`TileOverlapPlan`.

    ``send_regions`` pairs each outgoing direction with its pack-region
    mask over ``lat`` (already clipped to the tile); ``recv_dirs`` are
    the incoming tile dependences ``d^S`` in receive-plan order.  A
    point can read the halo of ``d^S`` only if it sits within the
    dependence reach of *every* boundary the message crossed
    (``j'_k < max_l d'_kl`` for each ``k`` with ``d^S_k > 0``), so the
    earliest level containing such a point bounds how long the unpack
    may be deferred.
    """
    nlat = len(lat)
    nlev = len(batches)
    level_of = np.full(nlat, -1, dtype=np.int64)
    for li, b in enumerate(batches):
        level_of[b] = li
    bmask = np.zeros(nlat, dtype=bool)
    packs: List[EdgePackPlan] = []
    for direction, region in send_regions:
        bmask |= region
        ridx = lex_order[region[lex_order]]
        lv = level_of[ridx]
        level_lat: List[np.ndarray] = []
        level_pos: List[np.ndarray] = []
        for li in range(nlev):
            pos = np.nonzero(lv == li)[0].astype(np.int64)
            level_pos.append(pos)
            level_lat.append(ridx[pos])
        packs.append(EdgePackPlan(
            direction=tuple(int(x) for x in direction),
            count=int(len(ridx)),
            level_lat=tuple(level_lat),
            level_pos=tuple(level_pos),
            commit_level=int(lv.max()) if len(ridx) else -1,
        ))
    boundary: List[np.ndarray] = []
    interior: List[np.ndarray] = []
    for b in batches:
        sel = bmask[b]
        boundary.append(b[sel])
        interior.append(b[~sel])
    recv_need: List[int] = []
    for ds in recv_dirs:
        readers = level_of >= 0
        for k, dk in enumerate(ds):
            if dk > 0:
                readers &= lat[:, k] < max(int(max_dp[k]), 0)
        lv = level_of[readers]
        recv_need.append(int(lv.min()) if len(lv) else 0)
    return TileOverlapPlan(
        nlevels=nlev,
        boundary=tuple(boundary),
        interior=tuple(interior),
        packs=tuple(packs),
        recv_need=tuple(recv_need),
    )


def apply_kernel(stmt: Statement, points: np.ndarray,
                 vals: List[np.ndarray],
                 dtype: type = np.float64) -> np.ndarray:
    """Evaluate one statement over a batch of independent points.

    A kernel that traced (``stmt.expr``) uses only ``+ - * /`` and
    negation on its reads, so one call over the read arrays performs
    the same IEEE-754 operations elementwise; any other kernel loops
    per point over the batch (identical results, still batched I/O).
    """
    kernel = stmt.kernel
    if stmt.expr is not None:
        out = np.asarray(kernel(points, vals), dtype=dtype)
        return out if out.ndim else np.full(len(points), out, dtype)
    if kernel is None:
        raise ValueError(
            f"statement writing {stmt.write.array!r} has no kernel")
    out = np.empty(len(points), dtype=dtype)
    for i in range(len(points)):
        point = tuple(int(x) for x in points[i])
        out[i] = kernel(point, [v[i] for v in vals])
    return out


def evaluate_statement_batch(plan: StatementPlan, points: np.ndarray,
                             gather: GatherFn,
                             dtype: type = np.float64) -> np.ndarray:
    """Gather every read of ``plan`` over the batch and run the kernel.

    ``gather(read_plan, points)`` resolves reads of *written* arrays
    (driver-specific storage); pure-input reads come from the plan's
    table.
    """
    vals: List[np.ndarray] = []
    for rp in plan.reads:
        if rp.table is not None:
            vals.append(rp.table.gather(rp.indexer.cells(points)))
        else:
            vals.append(gather(rp, points))
    return apply_kernel(plan.stmt, points, vals, dtype)
