"""Shared fixtures for the test suite.

The random-instance builders and hypothesis strategies live in
:mod:`strategies` (``tests/strategies.py``) so test modules can import
them by a name that is unique in the repository — ``from conftest import
...`` used to break whenever another ``conftest.py`` (the benchmarks one)
was imported first under the same module name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BipartiteGraph, TaskHypergraph


# ---------------------------------------------------------------------------
# deterministic example instances
# ---------------------------------------------------------------------------
@pytest.fixture
def fig1_graph() -> BipartiteGraph:
    """The paper's Figure 1 toy instance."""
    return BipartiteGraph.from_neighbor_lists([[0, 1], [0]], n_procs=2)


@pytest.fixture
def fig2_hypergraph() -> TaskHypergraph:
    """The paper's Figure 2 hypergraph: T1 on {P1} or {P2,P3}; T2 on
    {P1,P2} or {P3}; T3 and T4 pinned to {P3}."""
    return TaskHypergraph.from_configurations(
        [
            [[0], [1, 2]],
            [[0, 1], [2]],
            [[2]],
            [[2]],
        ],
        n_procs=3,
    )


@pytest.fixture
def small_weighted_hypergraph() -> TaskHypergraph:
    """A weighted instance with distinct configuration weights."""
    hg = TaskHypergraph.from_configurations(
        [
            [[0, 1], [2]],
            [[1], [0, 2]],
            [[0], [1], [2]],
        ],
        n_procs=3,
    )
    return hg.with_weights(np.array([2.0, 5.0, 3.0, 1.5, 4.0, 2.5, 1.0]))


# ---------------------------------------------------------------------------
# kernel instrumentation
# ---------------------------------------------------------------------------
@pytest.fixture
def lex_fallbacks(monkeypatch) -> list[int]:
    """A one-element counter of ``lex_best_row``'s trips through its
    inverted-key fallback (the sign-bit path) while the test runs."""
    from repro.kernels import ops

    calls = [0]
    inv = ops._inv_sort_keys

    def counted(rows):
        calls[0] += 1
        return inv(rows)

    monkeypatch.setattr(ops, "_inv_sort_keys", counted)
    return calls
