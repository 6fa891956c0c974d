"""Matrix Market interop (extension).

The matching literature the paper builds on (MatchMaker, the Cherkassky
et al. generators) exchanges bipartite graphs as sparse matrices.  These
helpers export/import the task-processor biadjacency matrix in Matrix
Market format via :mod:`scipy.io`, so instances can move between this
library and standard sparse-matrix tooling.

Weights are stored as the matrix entries; a SINGLEPROC-UNIT instance is
a pattern-like matrix of ones.  Hypergraphs are exported as the
``|N| x |V2|`` pin matrix plus a companion ``.tasks`` file holding each
hyperedge's task id and weight.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.bipartite import BipartiteGraph
from ..core.errors import GraphStructureError
from ..core.hypergraph import TaskHypergraph

__all__ = [
    "write_bipartite_mm",
    "read_bipartite_mm",
    "write_hypergraph_mm",
    "read_hypergraph_mm",
]


def write_bipartite_mm(graph: BipartiteGraph, path: str | Path) -> None:
    """Write the ``n_tasks x n_procs`` weighted biadjacency matrix."""
    from scipy.io import mmwrite

    mmwrite(str(path), graph.to_biadjacency())


def read_bipartite_mm(path: str | Path) -> BipartiteGraph:
    """Read a bipartite instance from a Matrix Market file.

    Rows are tasks, columns processors, entries execution times.
    """
    from scipy.io import mmread

    m = mmread(str(path)).tocoo()
    return BipartiteGraph.from_edges(
        m.shape[0],
        m.shape[1],
        m.row.astype(np.int64),
        m.col.astype(np.int64),
        m.data.astype(np.float64),
    )


def _tasks_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".tasks")


def write_hypergraph_mm(hg: TaskHypergraph, path: str | Path) -> None:
    """Write the pin matrix plus the ``.tasks`` companion file.

    The pin matrix is ``n_hedges x n_procs`` with the hyperedge weight as
    every pin's entry; the companion lists ``task_id weight`` per
    hyperedge line (the weight is repeated for robust round-trips of
    hyperedges whose pins were deduplicated by sparse conversion).
    """
    from scipy.io import mmwrite
    from scipy.sparse import csr_matrix

    sizes = np.diff(hg.hedge_ptr)
    rows = np.repeat(np.arange(hg.n_hedges, dtype=np.int64), sizes)
    vals = np.repeat(hg.hedge_w, sizes)
    pins = csr_matrix(
        (vals, (rows, hg.hedge_procs)), shape=(hg.n_hedges, hg.n_procs)
    )
    mmwrite(str(path), pins)
    with open(_tasks_path(path), "w") as fh:
        fh.write(f"% tasks {hg.n_tasks}\n")
        for h in range(hg.n_hedges):
            fh.write(f"{int(hg.hedge_task[h])} {float(hg.hedge_w[h])!r}\n")


def read_hypergraph_mm(path: str | Path) -> TaskHypergraph:
    """Read a hypergraph written by :func:`write_hypergraph_mm`."""
    from scipy.io import mmread

    pins = mmread(str(path)).tocsr()
    tasks_file = _tasks_path(path)
    if not tasks_file.exists():
        raise GraphStructureError(
            f"missing companion file {tasks_file} with hyperedge tasks"
        )
    lines = tasks_file.read_text().strip().splitlines()
    header = lines[0].split()
    if len(header) != 3 or header[:2] != ["%", "tasks"]:
        raise GraphStructureError("malformed .tasks header")
    n_tasks = int(header[2])
    hedge_task = []
    weights = []
    for line in lines[1:]:
        t, w = line.split()
        hedge_task.append(int(t))
        weights.append(float(w))
    if len(hedge_task) != pins.shape[0]:
        raise GraphStructureError(
            f"{pins.shape[0]} hyperedges in the matrix but "
            f"{len(hedge_task)} task entries"
        )
    return TaskHypergraph.from_csr(
        n_tasks,
        pins.shape[1],
        np.asarray(hedge_task, dtype=np.int64),
        pins.indptr,
        pins.indices,
        np.asarray(weights, dtype=np.float64),
    )
