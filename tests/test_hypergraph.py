"""Tests for repro.core.hypergraph."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import BipartiteGraph, GraphStructureError, TaskHypergraph

from strategies import generated_instances, task_hypergraphs


def reference_indexes(hedge_task, proc_lists, n_tasks, n_procs):
    """The per-hyperedge loop that ``from_csr`` vectorizes: CSR pins
    plus the task and processor indexes, built the slow obvious way."""
    hedge_ptr = np.cumsum([0] + [len(ps) for ps in proc_lists])
    hedge_procs = np.array(
        [u for ps in proc_lists for u in ps], dtype=np.int64
    )
    task_hedges = [
        h for i in range(n_tasks)
        for h in range(len(hedge_task)) if hedge_task[h] == i
    ]
    task_ptr = np.cumsum(
        [0] + [list(hedge_task).count(i) for i in range(n_tasks)]
    )
    proc_hedges = [
        h for u in range(n_procs)
        for h, ps in enumerate(proc_lists) if u in ps
    ]
    proc_ptr = np.cumsum(
        [0] + [sum(u in ps for ps in proc_lists) for u in range(n_procs)]
    )
    return {
        "hedge_ptr": hedge_ptr,
        "hedge_procs": hedge_procs,
        "task_ptr": task_ptr,
        "task_hedges": task_hedges,
        "proc_ptr": proc_ptr,
        "proc_hedges": proc_hedges,
    }


class TestConstruction:
    def test_from_hyperedges_basic(self):
        hg = TaskHypergraph.from_hyperedges(
            2, 3, [0, 0, 1], [[0], [1, 2], [2]]
        )
        assert hg.n_tasks == 2
        assert hg.n_hedges == 3
        assert hg.total_pins == 4
        assert hg.hedge_proc_set(1).tolist() == [1, 2]
        assert hg.task_hedge_ids(0).tolist() == [0, 1]
        assert hg.task_hedge_ids(1).tolist() == [2]

    def test_from_configurations(self, fig2_hypergraph):
        hg = fig2_hypergraph
        assert hg.n_tasks == 4
        assert hg.n_procs == 3
        assert hg.n_hedges == 6
        assert hg.task_degrees().tolist() == [2, 2, 1, 1]
        assert hg.hedge_sizes().tolist() == [1, 2, 2, 1, 1, 1]

    def test_pin_order_preserved(self):
        hg = TaskHypergraph.from_hyperedges(1, 4, [0], [[3, 0, 2]])
        assert hg.hedge_proc_set(0).tolist() == [3, 0, 2]

    def test_empty_pin_list_rejected(self):
        with pytest.raises(GraphStructureError, match="empty processor set"):
            TaskHypergraph.from_hyperedges(1, 2, [0], [[]])

    def test_duplicate_pin_rejected(self):
        with pytest.raises(GraphStructureError, match="duplicate"):
            TaskHypergraph.from_hyperedges(1, 2, [0], [[1, 1]])

    def test_task_out_of_range(self):
        with pytest.raises(GraphStructureError, match="task id"):
            TaskHypergraph.from_hyperedges(1, 2, [3], [[0]])

    def test_proc_out_of_range(self):
        with pytest.raises(GraphStructureError, match="processor id"):
            TaskHypergraph.from_hyperedges(1, 2, [0], [[9]])

    def test_length_mismatch(self):
        with pytest.raises(GraphStructureError, match="processor\\s+lists"):
            TaskHypergraph.from_hyperedges(1, 2, [0, 0], [[0]])

    def test_weights_shape(self):
        with pytest.raises(GraphStructureError, match="one entry per"):
            TaskHypergraph.from_hyperedges(1, 2, [0], [[0]], [1.0, 2.0])

    def test_configuration_weights_must_mirror(self):
        with pytest.raises(GraphStructureError, match="mirror"):
            TaskHypergraph.from_configurations(
                [[[0], [1]]], n_procs=2, weights=[[1.0]]
            )


class TestFromCsr:
    def test_matches_from_hyperedges(self):
        a = TaskHypergraph.from_hyperedges(
            2, 3, [0, 0, 1], [[0], [1, 2], [2]], [1.0, 2.0, 3.0]
        )
        b = TaskHypergraph.from_csr(
            2, 3, [0, 0, 1], [0, 1, 3, 4], [0, 1, 2, 2], [1.0, 2.0, 3.0]
        )
        for name in ("hedge_task", "hedge_ptr", "hedge_procs", "hedge_w",
                     "task_ptr", "task_hedges", "proc_ptr", "proc_hedges"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert getattr(a, name).dtype == getattr(b, name).dtype

    def test_ptr_must_start_at_zero(self):
        with pytest.raises(GraphStructureError, match="start at 0"):
            TaskHypergraph.from_csr(1, 2, [0], [1, 2], [0, 1])

    def test_ptr_must_end_at_pin_count(self):
        with pytest.raises(GraphStructureError, match="len\\(hedge_procs\\)"):
            TaskHypergraph.from_csr(1, 2, [0], [0, 1], [0, 1])

    def test_ptr_must_not_decrease(self):
        with pytest.raises(GraphStructureError, match="decreases"):
            TaskHypergraph.from_csr(1, 3, [0, 0, 0], [0, 2, 1, 3], [0, 1, 2])

    def test_ptr_length(self):
        with pytest.raises(GraphStructureError, match="n_hedges \\+ 1"):
            TaskHypergraph.from_csr(1, 2, [0], [0, 1, 2], [0, 1])

    def test_duplicate_pin_named_by_hyperedge(self):
        with pytest.raises(GraphStructureError, match="hyperedge 1 contains"):
            TaskHypergraph.from_csr(1, 3, [0, 0], [0, 2, 4], [0, 1, 2, 2])

    def test_same_proc_in_two_hyperedges_is_not_a_duplicate(self):
        hg = TaskHypergraph.from_csr(1, 2, [0, 0], [0, 1, 2], [1, 1])
        assert hg.proc_hedges.tolist() == [0, 1]

    def test_negative_counts_rejected(self):
        with pytest.raises(GraphStructureError, match="non-negative"):
            TaskHypergraph.from_csr(-1, 2, [], [0], [])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(GraphStructureError, match="finite and positive"):
            TaskHypergraph.from_csr(1, 1, [0], [0, 1], [0], [np.nan])

    @pytest.mark.parametrize("n_procs", [5, 70_000])
    def test_indexes_match_reference_loop(self, n_procs):
        # 70_000 processors exceed the uint16 sort key, so both index
        # sort paths are pinned against the same reference
        rng = np.random.default_rng(n_procs)
        n_tasks = 7
        hedge_task = rng.integers(0, n_tasks, size=25)
        proc_lists = [
            rng.choice(n_procs, size=int(rng.integers(1, 4)), replace=False)
            .tolist()
            for _ in hedge_task
        ]
        hg = TaskHypergraph.from_hyperedges(
            n_tasks, n_procs, hedge_task, proc_lists
        )
        ref = reference_indexes(hedge_task, proc_lists, n_tasks, n_procs)
        for name, want in ref.items():
            assert getattr(hg, name).tolist() == list(want), name


@given(generated_instances(max_tasks=24))
@settings(max_examples=25, deadline=None)
def test_from_csr_indexes_match_reference_loop(hg):
    """Property: the vectorized indexes equal the per-hyperedge loop."""
    proc_lists = [hg.hedge_proc_set(h).tolist() for h in range(hg.n_hedges)]
    ref = reference_indexes(
        hg.hedge_task.tolist(), proc_lists, hg.n_tasks, hg.n_procs
    )
    for name, want in ref.items():
        assert getattr(hg, name).tolist() == list(want), name


class TestProcIndex:
    def test_proc_hedges_inverse(self, fig2_hypergraph):
        hg = fig2_hypergraph
        # every (hyperedge, pin) appears exactly once in the processor index
        from_pins = sorted(
            (int(u), h)
            for h in range(hg.n_hedges)
            for u in hg.hedge_proc_set(h)
        )
        from_index = sorted(
            (u, int(h))
            for u in range(hg.n_procs)
            for h in hg.proc_hedges[hg.proc_ptr[u] : hg.proc_ptr[u + 1]]
        )
        assert from_pins == from_index


class TestValidateAndWeights:
    def test_task_without_configuration(self):
        hg = TaskHypergraph.from_hyperedges(2, 2, [0], [[0]])
        with pytest.raises(GraphStructureError, match="task 1 has no"):
            hg.validate()
        hg.validate(require_total=False)

    def test_with_weights(self, fig2_hypergraph):
        w = np.arange(1, 7, dtype=float)
        hg = fig2_hypergraph.with_weights(w)
        assert not hg.is_unit
        assert hg.unit().is_unit
        with pytest.raises(GraphStructureError):
            fig2_hypergraph.with_weights(np.array([1.0]))
        with pytest.raises(GraphStructureError):
            fig2_hypergraph.with_weights(-w)


class TestBipartiteBridge:
    def test_roundtrip_via_bipartite(self):
        g = BipartiteGraph.from_neighbor_lists(
            [[0, 2], [1]], n_procs=3, weights=[[2.0, 3.0], [4.0]]
        )
        hg = TaskHypergraph.from_bipartite(g)
        assert hg.is_bipartite_graph()
        g2 = hg.to_bipartite()
        assert np.array_equal(g2.task_adj, g.task_adj)
        assert np.array_equal(g2.weights, g.weights)

    def test_to_bipartite_rejects_parallel_tasks(self, fig2_hypergraph):
        assert not fig2_hypergraph.is_bipartite_graph()
        with pytest.raises(GraphStructureError, match="multi-processor"):
            fig2_hypergraph.to_bipartite()


@given(task_hypergraphs())
@settings(max_examples=50, deadline=None)
def test_indices_consistent(hg):
    """Property: the three CSR indexes describe the same hypergraph."""
    hg.validate()
    assert hg.task_degrees().sum() == hg.n_hedges
    assert hg.hedge_sizes().sum() == hg.total_pins
    # hedge_task and task_hedges are inverse relations
    for i in range(hg.n_tasks):
        for h in hg.task_hedge_ids(i):
            assert int(hg.hedge_task[h]) == i
    counts = np.zeros(hg.n_tasks, dtype=int)
    np.add.at(counts, hg.hedge_task, 1)
    assert np.array_equal(counts, hg.task_degrees())
