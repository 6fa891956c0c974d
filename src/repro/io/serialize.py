"""JSON-ready serialisation of graphs, hypergraphs and matchings.

Instances round-trip through plain dictionaries, so they can be stored
with :mod:`json`, shipped between processes or over the solve
service's wire, or checked into a repository as fixtures.  Every dict
carries a ``kind`` tag and a format ``version``.

Hypergraphs are written in **format version 2**, the columnar form: the
CSR arrays :class:`TaskHypergraph` itself stores, each as the base64
text of its little-endian bytes —

* ``hedge_task``, ``hedge_ptr``, ``hedge_procs``: ``<i4`` (int32);
* ``weights``: ``<f8`` (float64, so weights are bit-exact by
  construction).

int32 is always enough on the service wire: a frame capped at
``MAX_FRAME_BYTES`` (64 MiB) cannot carry 2**31 pins.  Version 1 dicts
(``pins`` as one list per hyperedge, ``hedge_task`` and ``weights`` as
lists of numbers) are still read: they are flattened into the same
arrays here, and both versions build through
:meth:`TaskHypergraph.from_csr`.

Readers check types instead of coercing them: ids must be integers and
weights numbers (booleans are neither), base64 fields must decode to a
whole number of items.  A malformed field raises :class:`TypeError` or
:class:`ValueError` naming it; structural faults (ranges, pointers,
duplicate pins) raise :class:`GraphStructureError` from the
constructor.
"""

from __future__ import annotations

import base64
import json
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from ..core.bipartite import BipartiteGraph
from ..core.errors import GraphStructureError
from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching, SemiMatching

__all__ = [
    "bipartite_to_dict",
    "bipartite_from_dict",
    "hypergraph_to_dict",
    "hypergraph_from_dict",
    "matching_to_dict",
    "save_instance",
    "load_instance",
]

_FORMAT_VERSION = 1
_HYPERGRAPH_VERSION = 2

#: wire dtypes of the columnar hypergraph format
_INT = np.dtype("<i4")
_FLOAT = np.dtype("<f8")


# ----------------------------------------------------------------------
# strict field readers
# ----------------------------------------------------------------------
def _field(data: dict[str, Any], name: str) -> Any:
    try:
        return data[name]
    except KeyError:
        raise ValueError(f"instance lacks field {name!r}") from None


def _count(data: dict[str, Any], name: str) -> int:
    value = _field(data, name)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"instance field {name!r} must be an integer, got "
            f"{type(value).__name__}"
        )
    return int(value)


def _numbers(values: Any, name: str, kinds: str) -> np.ndarray:
    """A JSON list as a 1-D array whose dtype kind is in ``kinds``
    (``"iu"`` for ids, ``"iuf"`` for weights) — checked, never cast."""
    what = "integers" if kinds == "iu" else "numbers"
    if not isinstance(values, list):
        raise TypeError(
            f"instance field {name!r} must be a list of {what}, got "
            f"{type(values).__name__}"
        )
    if not values:
        return np.empty(0, dtype=np.int64 if kinds == "iu" else np.float64)
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = None
    # np.asarray promotes booleans mixed with numbers to numbers, so
    # they are looked for by type
    if (
        arr is None
        or arr.ndim != 1
        or arr.dtype.kind not in kinds
        or bool in set(map(type, values))
    ):
        raise TypeError(
            f"instance field {name!r} must be a flat list of {what}"
        )
    return arr


def _pin_lists(pins: Any) -> tuple[np.ndarray, np.ndarray]:
    """Version 1 ``pins`` (one integer list per hyperedge) flattened
    into ``(hedge_ptr, hedge_procs)``."""
    if not isinstance(pins, list) or not set(map(type, pins)) <= {list}:
        raise TypeError(
            "instance field 'pins' must be a list of integer lists"
        )
    hedge_ptr = np.zeros(len(pins) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, pins), dtype=np.int64, count=len(pins)),
        out=hedge_ptr[1:],
    )
    return hedge_ptr, _numbers(list(chain.from_iterable(pins)), "pins", "iu")


def _pack(arr: np.ndarray, dtype: np.dtype) -> str:
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
    ).decode("ascii")


def _unpack(data: dict[str, Any], name: str, dtype: np.dtype) -> np.ndarray:
    text = _field(data, name)
    if not isinstance(text, str):
        raise TypeError(
            f"instance field {name!r} must be a base64 string, got "
            f"{type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ValueError(
            f"instance field {name!r} is not valid base64: {exc}"
        ) from None
    if len(raw) % dtype.itemsize:
        raise ValueError(
            f"instance field {name!r} holds {len(raw)} bytes, not a "
            f"whole number of {dtype.itemsize}-byte {dtype.str} items"
        )
    return np.frombuffer(raw, dtype=dtype)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def bipartite_to_dict(graph: BipartiteGraph) -> dict[str, Any]:
    """Serialise a bipartite graph (CSR edge list form)."""
    owner = np.repeat(
        np.arange(graph.n_tasks, dtype=np.int64), np.diff(graph.task_ptr)
    )
    return {
        "kind": "bipartite",
        "version": _FORMAT_VERSION,
        "n_tasks": graph.n_tasks,
        "n_procs": graph.n_procs,
        "task_ids": owner.tolist(),
        "proc_ids": graph.task_adj.tolist(),
        "weights": graph.weights.tolist(),
    }


def bipartite_from_dict(data: dict[str, Any]) -> BipartiteGraph:
    """Inverse of :func:`bipartite_to_dict`."""
    if data.get("kind") != "bipartite":
        raise GraphStructureError(
            f"expected kind 'bipartite', got {data.get('kind')!r}"
        )
    return BipartiteGraph.from_edges(
        _count(data, "n_tasks"),
        _count(data, "n_procs"),
        _numbers(_field(data, "task_ids"), "task_ids", "iu"),
        _numbers(_field(data, "proc_ids"), "proc_ids", "iu"),
        _numbers(_field(data, "weights"), "weights", "iuf"),
    )


def hypergraph_to_dict(hg: TaskHypergraph) -> dict[str, Any]:
    """Serialise a hypergraph in the columnar format version 2."""
    if max(hg.n_tasks, hg.n_procs, hg.total_pins) > np.iinfo(_INT).max:
        raise GraphStructureError(
            "instance too large for int32 columns (format version 2)"
        )
    return {
        "kind": "hypergraph",
        "version": _HYPERGRAPH_VERSION,
        "n_tasks": int(hg.n_tasks),
        "n_procs": int(hg.n_procs),
        "hedge_task": _pack(hg.hedge_task, _INT),
        "hedge_ptr": _pack(hg.hedge_ptr, _INT),
        "hedge_procs": _pack(hg.hedge_procs, _INT),
        "weights": _pack(hg.hedge_w, _FLOAT),
    }


def hypergraph_from_dict(data: dict[str, Any]) -> TaskHypergraph:
    """Inverse of :func:`hypergraph_to_dict`; also reads version 1."""
    if data.get("kind") != "hypergraph":
        raise GraphStructureError(
            f"expected kind 'hypergraph', got {data.get('kind')!r}"
        )
    version = data.get("version", 1)
    n_tasks, n_procs = _count(data, "n_tasks"), _count(data, "n_procs")
    if version == 2:
        hedge_task = _unpack(data, "hedge_task", _INT)
        hedge_ptr = _unpack(data, "hedge_ptr", _INT)
        hedge_procs = _unpack(data, "hedge_procs", _INT)
        weights = _unpack(data, "weights", _FLOAT)
    elif version == 1:
        hedge_task = _numbers(_field(data, "hedge_task"), "hedge_task", "iu")
        hedge_ptr, hedge_procs = _pin_lists(_field(data, "pins"))
        weights = _numbers(_field(data, "weights"), "weights", "iuf")
    else:
        raise ValueError(
            f"unsupported hypergraph format version {version!r} "
            "(this reader takes 1 and 2)"
        )
    return TaskHypergraph.from_csr(
        n_tasks, n_procs, hedge_task, hedge_ptr, hedge_procs, weights
    )


def matching_to_dict(matching: SemiMatching | HyperSemiMatching) -> dict[str, Any]:
    """Serialise a matching result (assignment + makespan)."""
    if isinstance(matching, SemiMatching):
        return {
            "kind": "semi-matching",
            "version": _FORMAT_VERSION,
            "edge_of_task": matching.edge_of_task.tolist(),
            "makespan": matching.makespan,
        }
    return {
        "kind": "hyper-semi-matching",
        "version": _FORMAT_VERSION,
        "hedge_of_task": matching.hedge_of_task.tolist(),
        "makespan": matching.makespan,
    }


def save_instance(
    obj: BipartiteGraph | TaskHypergraph, path: str | Path
) -> None:
    """Write an instance to ``path`` as JSON."""
    if isinstance(obj, BipartiteGraph):
        data = bipartite_to_dict(obj)
    elif isinstance(obj, TaskHypergraph):
        data = hypergraph_to_dict(obj)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")
    Path(path).write_text(json.dumps(data))


def load_instance(path: str | Path) -> BipartiteGraph | TaskHypergraph:
    """Read an instance written by :func:`save_instance`."""
    data = json.loads(Path(path).read_text())
    kind = data.get("kind")
    if kind == "bipartite":
        return bipartite_from_dict(data)
    if kind == "hypergraph":
        return hypergraph_from_dict(data)
    raise GraphStructureError(f"unknown instance kind {kind!r}")
