"""Tests for JSON serialisation (repro.io)."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import BipartiteGraph, GraphStructureError, TaskHypergraph
from repro.core.semimatching import HyperSemiMatching, SemiMatching
from repro.engine.cache import instance_digest
from repro.generators import generate_multiproc
from repro.io import (
    bipartite_from_dict,
    bipartite_to_dict,
    hypergraph_from_dict,
    hypergraph_to_dict,
    load_instance,
    matching_to_dict,
    save_instance,
)

from strategies import generated_instances

ARRAYS = (
    "hedge_task", "hedge_ptr", "hedge_procs", "hedge_w",
    "task_ptr", "task_hedges", "proc_ptr", "proc_hedges",
)


def v1_dict(hg):
    """The version 1 (list-of-lists) form of ``hg``."""
    return {
        "kind": "hypergraph",
        "version": 1,
        "n_tasks": hg.n_tasks,
        "n_procs": hg.n_procs,
        "hedge_task": hg.hedge_task.tolist(),
        "pins": [hg.hedge_proc_set(h).tolist() for h in range(hg.n_hedges)],
        "weights": hg.hedge_w.tolist(),
    }


def b64(values, dtype):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


def assert_same_arrays(a, b):
    assert (a.n_tasks, a.n_procs, a.n_hedges) == (b.n_tasks, b.n_procs, b.n_hedges)
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


class TestBipartiteRoundtrip:
    def test_roundtrip(self):
        g = BipartiteGraph.from_neighbor_lists(
            [[0, 2], [1]], n_procs=3, weights=[[2.0, 3.0], [4.0]]
        )
        g2 = bipartite_from_dict(bipartite_to_dict(g))
        assert np.array_equal(g.task_ptr, g2.task_ptr)
        assert np.array_equal(g.task_adj, g2.task_adj)
        assert np.array_equal(g.weights, g2.weights)

    def test_json_compatible(self):
        g = BipartiteGraph.from_neighbor_lists([[0]], n_procs=1)
        text = json.dumps(bipartite_to_dict(g))
        g2 = bipartite_from_dict(json.loads(text))
        assert g2.n_tasks == 1

    def test_kind_check(self):
        with pytest.raises(GraphStructureError, match="bipartite"):
            bipartite_from_dict({"kind": "hypergraph"})


class TestHypergraphRoundtrip:
    def test_roundtrip(self):
        hg = generate_multiproc(
            30, 16, g=2, dv=2, dh=3, weights="related", seed=0
        )
        hg2 = hypergraph_from_dict(hypergraph_to_dict(hg))
        assert np.array_equal(hg.hedge_task, hg2.hedge_task)
        assert np.array_equal(hg.hedge_ptr, hg2.hedge_ptr)
        assert np.array_equal(hg.hedge_procs, hg2.hedge_procs)
        assert np.array_equal(hg.hedge_w, hg2.hedge_w)

    def test_kind_check(self):
        with pytest.raises(GraphStructureError, match="hypergraph"):
            hypergraph_from_dict({"kind": "bipartite"})


class TestHypergraphFormatV2:
    def test_fields_are_little_endian_base64_columns(self):
        hg = TaskHypergraph.from_hyperedges(
            2, 3, [0, 1], [[2, 0], [1]], [0.1, 3.0]
        )
        d = hypergraph_to_dict(hg)
        assert d["version"] == 2
        assert json.loads(json.dumps(d)) == d

        def column(name, dtype):
            return np.frombuffer(base64.b64decode(d[name]), dtype=dtype)

        assert column("hedge_task", "<i4").tolist() == [0, 1]
        assert column("hedge_ptr", "<i4").tolist() == [0, 2, 3]
        assert column("hedge_procs", "<i4").tolist() == [2, 0, 1]
        # float64 bytes: 0.1 survives bit for bit
        assert column("weights", "<f8").tolist() == [0.1, 3.0]

    def test_empty_instance_roundtrips(self):
        hg = TaskHypergraph.from_hyperedges(0, 3, [], [])
        assert_same_arrays(hg, hypergraph_from_dict(hypergraph_to_dict(hg)))

    def test_v1_dict_still_read(self):
        hg = generate_multiproc(12, 8, g=2, dv=2, dh=3, weights="random", seed=3)
        assert_same_arrays(hg, hypergraph_from_dict(v1_dict(hg)))

    def test_unknown_version_rejected(self):
        d = hypergraph_to_dict(TaskHypergraph.from_hyperedges(1, 1, [0], [[0]]))
        d["version"] = 3
        with pytest.raises(ValueError, match="version 3"):
            hypergraph_from_dict(d)


@given(generated_instances())
@settings(max_examples=40, deadline=None)
def test_v2_roundtrip_is_exact(hg):
    """Property: v2 round-trips array-for-array and dtype-for-dtype,
    through JSON text, with an unchanged content digest."""
    back = hypergraph_from_dict(json.loads(json.dumps(hypergraph_to_dict(hg))))
    assert_same_arrays(hg, back)
    assert instance_digest(back) == instance_digest(hg)


@given(generated_instances())
@settings(max_examples=40, deadline=None)
def test_v1_and_v2_decode_to_identical_arrays(hg):
    """Property: both format versions of one instance build the same
    hypergraph."""
    v1 = hypergraph_from_dict(json.loads(json.dumps(v1_dict(hg))))
    v2 = hypergraph_from_dict(hypergraph_to_dict(hg))
    assert_same_arrays(v1, v2)


class TestMalformedV2:
    def good(self):
        # task 0: {0, 1} or {2};  task 1: {1}
        return {
            "kind": "hypergraph",
            "version": 2,
            "n_tasks": 2,
            "n_procs": 3,
            "hedge_task": b64([0, 0, 1], "<i4"),
            "hedge_ptr": b64([0, 2, 3, 4], "<i4"),
            "hedge_procs": b64([0, 1, 2, 1], "<i4"),
            "weights": b64([1.0, 2.0, 3.0], "<f8"),
        }

    def test_good_dict_parses(self):
        hg = hypergraph_from_dict(self.good())
        assert hg.hedge_proc_set(0).tolist() == [0, 1]

    def test_bad_base64(self):
        d = self.good()
        d["hedge_procs"] = "not*base64"
        with pytest.raises(ValueError, match="'hedge_procs' is not valid base64"):
            hypergraph_from_dict(d)

    def test_non_string_column(self):
        d = self.good()
        d["hedge_task"] = [0, 0, 1]
        with pytest.raises(TypeError, match="'hedge_task' must be a base64"):
            hypergraph_from_dict(d)

    def test_byte_length_not_a_whole_item_count(self):
        d = self.good()
        d["weights"] = base64.b64encode(b"\0" * 20).decode()
        with pytest.raises(ValueError, match="'weights' holds 20 bytes"):
            hypergraph_from_dict(d)

    def test_non_monotone_ptr(self):
        d = self.good()
        d["hedge_ptr"] = b64([0, 3, 2, 4], "<i4")
        with pytest.raises(GraphStructureError, match="decreases"):
            hypergraph_from_dict(d)

    def test_ptr_not_ending_at_pin_count(self):
        d = self.good()
        d["hedge_ptr"] = b64([0, 2, 3, 3], "<i4")
        with pytest.raises(GraphStructureError, match="len\\(hedge_procs\\)"):
            hypergraph_from_dict(d)

    def test_duplicate_pins(self):
        d = self.good()
        d["hedge_procs"] = b64([1, 1, 2, 1], "<i4")
        with pytest.raises(GraphStructureError, match="hyperedge 0 contains"):
            hypergraph_from_dict(d)

    def test_missing_field(self):
        d = self.good()
        del d["hedge_ptr"]
        with pytest.raises(ValueError, match="'hedge_ptr'"):
            hypergraph_from_dict(d)


class TestStrictV1Typing:
    def good(self):
        return {
            "kind": "hypergraph",
            "version": 1,
            "n_tasks": 1,
            "n_procs": 2,
            "hedge_task": [0, 0],
            "pins": [[0], [1]],
            "weights": [1.0, 2],
        }

    def test_good_dict_parses(self):
        assert hypergraph_from_dict(self.good()).hedge_w.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pins", [[0.5], [1]]),  # fractional id: never truncated
            ("pins", [[True], [1]]),
            ("hedge_task", [0, False]),
            ("weights", [True, 2.0]),
            ("weights", ["1.0", 2.0]),
            ("pins", [[0], "1"]),
            ("n_procs", 2.0),
            ("n_tasks", True),
        ],
    )
    def test_wrong_type_names_the_field(self, field, value):
        d = self.good()
        d[field] = value
        with pytest.raises(TypeError, match=repr(field)):
            hypergraph_from_dict(d)

    def test_bipartite_is_strict_too(self):
        g = BipartiteGraph.from_neighbor_lists([[0]], n_procs=1)
        d = bipartite_to_dict(g)
        d["proc_ids"] = [0.5]
        with pytest.raises(TypeError, match="'proc_ids'"):
            bipartite_from_dict(d)


class TestFileIO:
    def test_save_load_bipartite(self, tmp_path):
        g = BipartiteGraph.from_neighbor_lists([[0, 1]], n_procs=2)
        path = tmp_path / "g.json"
        save_instance(g, path)
        g2 = load_instance(path)
        assert isinstance(g2, BipartiteGraph)
        assert g2.n_edges == 2

    def test_save_load_hypergraph(self, tmp_path):
        hg = TaskHypergraph.from_configurations([[[0], [1]]], n_procs=2)
        path = tmp_path / "hg.json"
        save_instance(hg, path)
        hg2 = load_instance(path)
        assert isinstance(hg2, TaskHypergraph)
        assert hg2.n_hedges == 2

    def test_save_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_instance("not a graph", tmp_path / "x.json")

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(GraphStructureError, match="unknown instance"):
            load_instance(path)


class TestMatchingDict:
    def test_semi_matching(self):
        g = BipartiteGraph.from_neighbor_lists([[0, 1]], n_procs=2)
        sm = SemiMatching(g, np.array([1]))
        d = matching_to_dict(sm)
        assert d["kind"] == "semi-matching"
        assert d["edge_of_task"] == [1]
        assert d["makespan"] == 1.0

    def test_hyper_semi_matching(self):
        hg = TaskHypergraph.from_configurations([[[0], [1]]], n_procs=2)
        m = HyperSemiMatching(hg, np.array([0]))
        d = matching_to_dict(m)
        assert d["kind"] == "hyper-semi-matching"
        assert d["hedge_of_task"] == [0]
