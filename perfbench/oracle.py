"""Output oracle for the run workloads: each app's own ``reference()``.

``repro.apps.<app>.reference`` is a naive dict-based loop nest in the
original (unskewed) coordinates — it shares no code with the tiling
compiler or the runtimes.  It is slow (about 13 s for SOR 100x200 on a
2-CPU host), so its result is converted to dense arrays once and kept
under the benchmark's cache directory, keyed on the app module's
source bytes and the problem sizes: editing the app (and thus
possibly the reference) recomputes it.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple

import numpy as np

#: Bumped when the cached file layout changes.
REF_FORMAT = 1

#: Largest |distributed - reference| accepted, as ``repro verify``.
TOLERANCE = 1e-9


@dataclass
class RefArray:
    """One written array of the reference: values over a box + mask."""

    origin: Tuple[int, ...]
    values: np.ndarray
    written: np.ndarray

    @property
    def count(self) -> int:
        return int(self.written.sum())


def _dense(cells: Mapping[Tuple[int, ...], float]) -> RefArray:
    keys = np.array(list(cells.keys()), dtype=np.int64)
    lo = keys.min(axis=0)
    shape = tuple(int(x) for x in keys.max(axis=0) - lo + 1)
    values = np.zeros(shape, dtype=np.float64)
    written = np.zeros(shape, dtype=bool)
    idx = tuple((keys - lo).T)
    values[idx] = np.fromiter(cells.values(), dtype=np.float64,
                              count=len(cells))
    written[idx] = True
    return RefArray(tuple(int(x) for x in lo), values, written)


def reference_arrays(app_name: str, sizes: Sequence[int],
                     arrays: Sequence[str],
                     cache_dir: str) -> Dict[str, RefArray]:
    """The app's reference result per written array (cached)."""
    module = importlib.import_module(f"repro.apps.{app_name}")
    with open(inspect.getsourcefile(module), "rb") as fh:
        digest = hashlib.sha256(fh.read())
    digest.update(repr((REF_FORMAT, app_name, tuple(sizes))).encode())
    tag = "x".join(str(s) for s in sizes)
    path = os.path.join(cache_dir,
                        f"ref-{app_name}-{tag}-{digest.hexdigest()[:16]}.npz")
    if os.path.exists(path):
        with np.load(path) as data:
            return {a: RefArray(tuple(int(x) for x in data[a + ".origin"]),
                                data[a + ".values"], data[a + ".written"])
                    for a in arrays}
    raw: Any = module.reference(*sizes)
    per_array = raw if all(isinstance(k, str) for k in raw) \
        else {arrays[0]: raw}
    refs = {a: _dense(per_array[a]) for a in arrays}
    del raw, per_array
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + f".{os.getpid()}.tmp.npz"
    np.savez(tmp, **{f"{a}.{k}": getattr(r, k) if k != "origin"
                     else np.asarray(r.origin)
                     for a, r in refs.items()
                     for k in ("origin", "values", "written")})
    os.replace(tmp, path)
    return refs


def max_abs_diff(field: Any, ref: RefArray) -> float:
    """max |field - ref| over the written cells; ``inf`` unless the
    field wrote exactly the reference's cells.  ``field`` is a
    :class:`repro.runtime.dataspace.DenseField`."""
    idx = np.nonzero(field.written)
    if len(idx[0]) != ref.count:
        return float("inf")
    if not len(idx[0]):
        return 0.0
    coords = []
    for k, ax in enumerate(idx):
        c = ax + (field.origin[k] - ref.origin[k])
        if c.min() < 0 or c.max() >= ref.values.shape[k]:
            return float("inf")
        coords.append(c)
    at = tuple(coords)
    if not ref.written[at].all():
        return float("inf")
    return float(np.max(np.abs(field.values[idx] - ref.values[at])))
