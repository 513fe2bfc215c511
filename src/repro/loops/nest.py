"""Perfect loop nests over convex polyhedral iteration spaces.

A :class:`LoopNest` bundles the iteration polyhedron ``J^n`` with the
statements it executes (each one write reference plus read references)
and the uniform dependence vectors relating them — everything §2.1
postulates about the input programs.  The paper presents a single
statement "to simplify the model" and notes multiple statements/arrays
adapt directly; we support the general form because ADI (§4.3) writes
two arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.loops.reference import ArrayRef
from repro.native.kexpr import KExpr, trace
from repro.polyhedra.halfspace import Polyhedron, box


@dataclass(frozen=True)
class Statement:
    """Single assignment ``write := F(reads...)``.

    ``kernel`` is ``F``, a Python callable ``f(point, read_values) ->
    value`` the interpreters and executors call to actually compute; the
    tiling compiler never evaluates it.  It is the statement's only
    definition of its arithmetic: the sparse interpreters call it on
    floats, the dense engines on whole batches of read arrays, and
    construction traces it once over symbolic reads into ``expr``
    (:func:`repro.native.kexpr.trace`), the operator tree the native
    backend renders to C and the TV05 pass checks.

    A kernel that does not trace — it branches on or compares a read,
    uses its point, or calls anything beyond ``+ - * /`` and negation —
    leaves ``expr = None`` and the exception text in ``trace_error``:
    the dense engines then loop the scalar kernel over each batch and
    the native backend falls back to numpy, naming that reason.
    """

    write: ArrayRef
    reads: Tuple[ArrayRef, ...]
    kernel: Optional[Callable] = None
    expr: Optional[KExpr] = field(init=False, repr=False, compare=False)
    trace_error: Optional[str] = field(init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        expr, error = trace(self.kernel, len(self.reads))
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "trace_error", error)

    @staticmethod
    def of(write: ArrayRef, reads: Sequence[ArrayRef],
           kernel: Optional[Callable] = None) -> "Statement":
        return Statement(write, tuple(reads), kernel)

    @property
    def dim(self) -> int:
        return self.write.dim


@dataclass(frozen=True)
class LoopNest:
    """A perfectly nested loop: polyhedral domain + statements + deps.

    ``dependences`` are the uniform dependence vectors ``d_i`` (each a
    tuple of ints); ``domain`` is the iteration space ``J^n``.
    """

    name: str
    domain: Polyhedron
    statements: Tuple[Statement, ...]
    dependences: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def rectangular(name: str,
                    lower: Sequence[int],
                    upper: Sequence[int],
                    statements: Sequence[Statement],
                    dependences: Sequence[Sequence[int]]) -> "LoopNest":
        """The common case ``FOR j_k = l_k TO u_k`` with constant bounds."""
        return LoopNest(
            name=name,
            domain=box(lower, upper),
            statements=tuple(statements),
            dependences=tuple(tuple(int(x) for x in d) for d in dependences),
        )

    @property
    def depth(self) -> int:
        return self.domain.dim

    @property
    def written_arrays(self) -> Tuple[str, ...]:
        return tuple(s.write.array for s in self.statements)

    def dependence_matrix_columns(self) -> Tuple[Tuple[int, ...], ...]:
        """Dependence vectors as columns (matching the paper's D)."""
        return self.dependences

    def __post_init__(self):
        n = self.domain.dim
        if not self.statements:
            raise ValueError("a loop nest needs at least one statement")
        for s in self.statements:
            if s.dim != n:
                raise ValueError(
                    f"statement dimension {s.dim} != nest depth {n}"
                )
        writes = [s.write.array for s in self.statements]
        if len(set(writes)) != len(writes):
            raise ValueError(
                "single-assignment model: each array written at most once "
                "per iteration"
            )
        for d in self.dependences:
            if len(d) != n:
                raise ValueError(f"dependence {d} has wrong dimension")
