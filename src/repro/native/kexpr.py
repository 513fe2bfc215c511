"""Kernel expression IR: the statically-compilable subset of kernels.

Every statement has exactly one definition of its arithmetic, the
Python callable ``Statement.kernel(point, reads)``.  Written with
``+ - * /`` and unary negation over its reads and float constants, the
same body evaluates over three kinds of value:

* floats — the sparse interpreters call it once per point;
* ndarrays — the dense engines call it once per batch of independent
  points, one numpy ufunc per operator;
* :class:`KExpr` slot values — :func:`trace` calls it once, when the
  ``Statement`` is built, and records the operator tree
  (``Statement.expr``).

The tree is what compiles: :func:`to_c` renders it as a fully
parenthesized C expression whose every constant is a C99 hex-float
literal (``float.hex()``), so the C compiler performs the identical
IEEE-754 double operations in the identical order as the numpy path
(the build uses ``-ffp-contract=off``, see ``repro.native.compile``),
and the transval TV05 pass re-parses the rendered C back into a tree
and proves it structurally equal to the traced one.

Tracing refuses rather than guesses: the traced reads raise on ``==``,
ordering, ``bool()``, hashing and conversion to a numpy array, and the
traced point raises on any use, so a kernel that branches on a read
(recording one branch would silently miscompile the others), reads its
point, calls ``math.sin``, ``**`` or ``abs``, or hands its reads to
numpy (``np.sum(v)`` over the read arrays would sum the whole batch)
does not trace.  Such a statement keeps ``expr = None`` and the reason
in ``Statement.trace_error``; it runs the scalar kernel per point in
the dense engines and never compiles natively.

Only ``+ - * /`` and unary negation are provided: every kernel in the
paper's benchmarks (§4) is an affine combination of its reads, and
keeping the IR closed under exactly the operators whose evaluation
order C and numpy agree on is what makes the bitwise claim provable
rather than hopeful.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import CodeType
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.loops.nest import LoopNest


@dataclass(frozen=True)
class KExpr:
    """Base node.  Subclasses are frozen dataclasses, so trees hash and
    compare structurally for free (TV05 leans on that)."""


@dataclass(frozen=True)
class KConst(KExpr):
    value: float


@dataclass(frozen=True)
class KRead(KExpr):
    """Value of read slot ``i`` — ``Statement.reads[i]`` at this point."""

    slot: int


@dataclass(frozen=True)
class KAdd(KExpr):
    lhs: KExpr
    rhs: KExpr


@dataclass(frozen=True)
class KSub(KExpr):
    lhs: KExpr
    rhs: KExpr


@dataclass(frozen=True)
class KMul(KExpr):
    lhs: KExpr
    rhs: KExpr


@dataclass(frozen=True)
class KDiv(KExpr):
    lhs: KExpr
    rhs: KExpr


@dataclass(frozen=True)
class KNeg(KExpr):
    arg: KExpr


# -- tracing ------------------------------------------------------------------

def _node(x: object) -> KExpr:
    if isinstance(x, _Traced):
        return x.node
    if isinstance(x, (float, int)):
        value = float(x)
        if value != value or value in (float("inf"), float("-inf")):
            raise TypeError(f"non-finite constant {value!r}")
        return KConst(value)
    raise TypeError(f"cannot use {type(x).__name__} in a kernel expr")


def _refuse(what: str) -> Callable[..., None]:
    def refuse(*_args: object, **_kwargs: object) -> None:
        raise TypeError(f"kernel {what}")
    return refuse


class _Traced:
    """A read value while tracing: ``+ - * /`` and negation record
    tree nodes; anything else the kernel does with it raises."""

    __slots__ = ("node",)
    __array_ufunc__ = None  # numpy scalars defer to the reflected ops

    def __init__(self, node: KExpr) -> None:
        self.node = node

    def __neg__(self) -> "_Traced":
        return _Traced(KNeg(self.node))

    # ``!=`` delegates to ``__eq__``; defining it unsets ``__hash__``
    __eq__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse(  # type: ignore
        "compares a read")
    __bool__ = _refuse("branches on a read")
    # numpy building an array from the reads (``np.sum(v)``,
    # ``np.dot(w, v)``) would reduce across the batch, not per point
    __array__ = _refuse("converts a read to an array")


for _op, _cls in (("add", KAdd), ("sub", KSub), ("mul", KMul),
                  ("truediv", KDiv)):
    setattr(_Traced, f"__{_op}__",
            lambda a, b, c=_cls: _Traced(c(a.node, _node(b))))
    setattr(_Traced, f"__r{_op}__",
            lambda a, b, c=_cls: _Traced(c(_node(b), a.node)))


class _Point:
    """The iteration point while tracing: any use fails the trace
    (arithmetic and attributes fail on their own)."""

    __eq__ = __bool__ = __getitem__ = __iter__ = __len__ = __array__ = \
        __str__ = __format__ = _refuse(  # type: ignore
            "uses its iteration point")


def trace(kernel: Optional[Callable], nreads: int,
          ) -> Tuple[Optional[KExpr], Optional[str]]:
    """``(expr, None)`` for a kernel that traces, else ``(None, why)``.

    Calls ``kernel(point, reads)`` once with read slot values and a
    point that refuse every use the IR cannot record; any exception
    the call raises means the kernel does not trace.
    """
    if kernel is None:
        return None, "no kernel"
    try:
        out = kernel(_Point(), [_Traced(KRead(i)) for i in range(nreads)])
        return _node(out), None
    except Exception as exc:  # noqa: BLE001 - any failure means untraced
        return None, f"{type(exc).__name__}: {exc}"


def max_slot(expr: KExpr) -> int:
    """Highest read slot mentioned, or -1 for a constant tree."""
    if isinstance(expr, KRead):
        return expr.slot
    if isinstance(expr, KConst):
        return -1
    if isinstance(expr, KNeg):
        return max_slot(expr.arg)
    if isinstance(expr, (KAdd, KSub, KMul, KDiv)):
        return max(max_slot(expr.lhs), max_slot(expr.rhs))
    raise TypeError(f"unknown expr node {type(expr).__name__}")


def const_to_c(value: float) -> str:
    """Exact C literal for a double: C99 hex float (no rounding)."""
    if value != value:  # NaN has no portable literal; apps never use it
        raise ValueError("NaN constants are not supported")
    if value in (float("inf"), float("-inf")):
        raise ValueError("infinite constants are not supported")
    return float(value).hex()


def to_c(expr: KExpr, slot_names: Dict[int, str]) -> str:
    """Render as a fully parenthesized C expression over ``slot_names``.

    Full parenthesization means C operator precedence never reorders
    anything: the printed tree IS the evaluation order.
    """
    if isinstance(expr, KConst):
        return const_to_c(expr.value)
    if isinstance(expr, KRead):
        return slot_names[expr.slot]
    if isinstance(expr, KNeg):
        return f"(-{to_c(expr.arg, slot_names)})"
    if isinstance(expr, (KAdd, KSub, KMul, KDiv)):
        op = {KAdd: "+", KSub: "-", KMul: "*", KDiv: "/"}[type(expr)]
        return (f"({to_c(expr.lhs, slot_names)} {op} "
                f"{to_c(expr.rhs, slot_names)})")
    raise TypeError(f"unknown expr node {type(expr).__name__}")


def expr_signature(expr: KExpr) -> str:
    """Canonical text form used for hashing (slot names ``v<i>``)."""
    nslots = max_slot(expr) + 1
    return to_c(expr, {i: f"v{i}" for i in range(nslots)})


def _hash_code(h: "hashlib._Hash", code: CodeType) -> None:
    h.update(code.co_code)
    h.update(repr(code.co_names).encode())
    for const in code.co_consts:  # nested code: no per-process address
        if isinstance(const, CodeType):
            _hash_code(h, const)
        else:
            h.update(repr(const).encode())


def _hash_value(h: "hashlib._Hash", value: object, depth: int = 0) -> None:
    """Feed a kernel, or a value it binds, into ``h`` by content.

    A function hashes its bytecode plus its defaults, keyword defaults
    and closure cells, so two kernels that differ only in a bound
    coefficient never share a fingerprint.  Arrays and numpy scalars
    hash dtype, shape and bytes (their ``repr`` rounds to 8 digits and
    elides long arrays); containers hash their items; an object with
    the default ``repr`` hashes its type and attributes, since that
    ``repr`` is a per-process address; anything else hashes its
    ``repr``.  Past a small depth only the type is hashed.
    """
    h.update(f"\x00{type(value).__qualname__}:".encode())
    if depth > 6:
        return
    code = getattr(value, "__code__", None)
    if isinstance(code, CodeType):
        _hash_code(h, code)
        bound = list(getattr(value, "__defaults__", None) or ())
        bound += sorted(
            (getattr(value, "__kwdefaults__", None) or {}).items())
        for cell in getattr(value, "__closure__", None) or ():
            try:
                bound.append(cell.cell_contents)
            except ValueError:  # a cell not yet assigned
                bound.append(None)
        for item in bound:
            _hash_value(h, item, depth + 1)
    elif isinstance(value, (np.ndarray, np.generic)):
        arr = np.asarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        if arr.dtype.hasobject:
            _hash_value(h, arr.ravel().tolist(), depth + 1)
        else:
            h.update(np.ascontiguousarray(arr).tobytes())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _hash_value(h, item, depth + 1)
    elif isinstance(value, dict):
        for key, item in value.items():
            _hash_value(h, key, depth + 1)
            _hash_value(h, item, depth + 1)
    elif type(value).__repr__ is object.__repr__:
        _hash_value(h, dict(sorted(getattr(value, "__dict__", {}).items())),
                    depth + 1)
    else:
        h.update(repr(value).encode())


def kernel_fingerprint(nest: "LoopNest") -> str:
    """sha256 over every statement's kernel content, in statement order.

    Artifact metadata records this so a cached program (or cached
    ``.so``) can never be served for an app whose kernels changed even
    though the nest geometry — which is all ``content_key`` hashes, by
    design — stayed identical.  Statements whose kernel traced hash the
    exact C rendering of their ``expr`` (constants included); kernels
    that do not trace fall back to hashing their compiled bytecode,
    constants, defaults and closure values by content (see
    :func:`_hash_value`).
    """
    h = hashlib.sha256()
    for s in nest.statements:
        h.update(b"\x00stmt\x00")
        h.update(s.write.array.encode())
        if s.expr is not None:
            h.update(b"expr:")
            h.update(expr_signature(s.expr).encode())
            continue
        if s.kernel is None:
            h.update(b"none")
            continue
        h.update(b"code:")
        _hash_value(h, s.kernel)
    return h.hexdigest()
