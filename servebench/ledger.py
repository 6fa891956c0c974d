"""The traced replay: where one request's time goes, layer by layer.

Every layer is timed from outside, by calling its public functions in
the order a request meets them.  The benchmark's own spans (name,
start, end, parent, request id) wrap each call; they are kept in memory
and written out once at the end.  A layer's self time is its span's
duration minus its child spans.  Each layer's row is its median self
time over the replayed requests, and ``service.server.unattributed_ms``
is the client-observed p50 of the live run minus the rows' sum:
queueing, the event loop, executor hops and the socket, which no public
function call isolates.

Requests alternate between a traced and an untraced replay of the same
chain; the difference of the two medians is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any

import numpy as np

from repro.core.hypergraph import TaskHypergraph
from repro.dynamic import DynamicInstance, IncrementalSolver
from repro.dynamic.journal import Mutation
from repro.engine.batch import BatchSolver
from repro.engine.cache import instance_digest
from repro.engine.transport import ExportRegistry, attach_instance
from repro.generators.churn import churn_trace
from repro.kernels.compiled import clear_compile_cache, compile_instance
from repro.service.client import RemoteSolveResult, instance_to_wire, options_to_wire
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    ok_response,
    request,
    validate_request,
)
from repro.service.wire import hypergraph_from_wire

from inputs import CHURN, SOLVE_OPTIONS, base_structure, with_fresh_weights

#: the write-path probe: batches of mutations, and mutations per batch
PROBE_BATCHES, PROBE_BATCH = 6, 8

#: ledger rows of a solve request, in the order a request meets them
SOLVE_ROWS = (
    "service.client.encode",
    "service.protocol.decode",
    "service.wire.parse",
    "engine.cache.digest",
    "kernels.compiled.compile",
    "engine.batch.solve",
    "service.server.response_encode",
    "service.client.decode",
)


class Tracer:
    """In-memory spans of the benchmark's own replay."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid: int):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": rid,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times_ms(self) -> dict[int, dict[str, float]]:
        """Per request: layer name -> summed self time (ms)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[int, dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            per = out.setdefault(rec["request"], {})
            own = (rec["end"] - rec["start"] - child[i]) * 1e3
            per[rec["name"]] = per.get(rec["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _untraced(name: str, rid: int):
    return nullcontext()


# ----------------------------------------------------------------------
# solve chain
# ----------------------------------------------------------------------
class SolveReplay:
    """Replays solve requests through wire → engine → kernels."""

    def __init__(self) -> None:
        self.engine = BatchSolver(max_workers=1, executor="serial", cache=False)
        self.mismatches = 0
        self.transport_ms: dict[str, list[float]] = {
            "engine.transport.export": [], "engine.transport.attach": [],
        }

    def chain(self, sp, rid: int, instance, raw: dict) -> float:
        """One request (``instance`` as the live client sent it: a
        hypergraph, or a wire dict built before its clock started);
        returns its request frame size in kB."""
        clear_compile_cache()
        with sp("request", rid):
            with sp("service.client.encode", rid):
                frame = encode_frame(request(
                    "solve", rid, instance=instance_to_wire(instance),
                    options=options_to_wire(SOLVE_OPTIONS),
                ))
            with sp("service.protocol.decode", rid):
                _, _, payload = validate_request(decode_frame(frame))
            with sp("service.wire.parse", rid):
                parsed = hypergraph_from_wire(payload["instance"])
            with sp("engine.cache.digest", rid):
                digest = instance_digest(parsed)
            with sp("engine.batch.solve", rid):
                with sp("kernels.compiled.compile", rid):
                    compile_instance(parsed, digest=digest)
                result = self.engine.solve(parsed, options=SOLVE_OPTIONS)
            with sp("service.server.response_encode", rid):
                reply = encode_frame(ok_response(rid, raw))
            with sp("service.client.decode", rid):
                RemoteSolveResult.from_wire(decode_frame(reply)["result"])
        if not np.array_equal(result.matching.hedge_of_task, raw["assignment"]):
            self.mismatches += 1
        return len(frame) / 1024.0

    def probe_transport(self, hg: TaskHypergraph) -> None:
        """Time the shared-memory hop a pool's front-end takes for
        large instances (reported beside the ledger, not as a row).  A
        fresh registry each time, so the export creates its segment."""
        digest = instance_digest(hg)
        registry = ExportRegistry(max_segments=1)
        try:
            t0 = time.perf_counter()
            descriptor = registry.export(hg, digest)
            t1 = time.perf_counter()
            if descriptor is None:  # no shared memory on this host
                return
            attach_instance(descriptor)
            t2 = time.perf_counter()
        finally:
            registry.close()
        self.transport_ms["engine.transport.export"].append((t1 - t0) * 1e3)
        self.transport_ms["engine.transport.attach"].append((t2 - t1) * 1e3)


def replay_solves(
    ops, *, budget_s: float, tracer: Tracer, prebuilt: bool
) -> dict[str, Any]:
    """Replay the live run's solve requests, alternating untraced and
    traced, until ``budget_s`` runs out.  ``prebuilt``: the live client
    sent wire dicts built before each request's clock started, so the
    replay builds them outside the spans too."""
    replay = SolveReplay()
    totals: dict[bool, list[float]] = {False: [], True: []}
    sizes: list[float] = []
    t_end = time.perf_counter() + budget_s
    for rid, op in enumerate(ops):
        if rid >= 2 and time.perf_counter() >= t_end:
            break
        traced = rid % 2 == 1
        sp = tracer.span if traced else _untraced
        instance = op.request.instance
        if prebuilt:
            instance = instance_to_wire(instance)
        t0 = time.perf_counter()
        sizes.append(replay.chain(sp, rid, instance, op.reply.raw))
        totals[traced].append((time.perf_counter() - t0) * 1e3)
        replay.probe_transport(op.request.instance)
    return {
        "totals": totals,
        "request_kb": float(np.median(sizes)),
        "mismatches": replay.mismatches,
        "probes": replay.transport_ms,
    }


# ----------------------------------------------------------------------
# probes: layers a workload's own requests never reach
# ----------------------------------------------------------------------
def probe_dynamic(seed: int) -> dict[str, float]:
    """The write path on a fixed n = 1280 / p = 256 instance (the same
    for every seed and workload): two dynamic instances made from it
    take the same :data:`PROBE_BATCHES` consecutive ``churn_trace``
    batches of :data:`PROBE_BATCH` mutations, one bare and one with an
    attached EVG :class:`IncrementalSolver` asked for its bottleneck
    after each batch (the difference is the repair).  Times are medians
    over the batches; counts are the solver's per batch."""
    hg = with_fresh_weights(
        base_structure(CHURN, np.random.default_rng(3)),
        np.random.default_rng(3),
    )
    trace = churn_trace(hg, PROBE_BATCHES * PROBE_BATCH, seed=seed)
    records = [m.to_dict() for m in trace]
    bare = DynamicInstance.from_hypergraph(hg)
    solved = DynamicInstance.from_hypergraph(hg)
    solver = IncrementalSolver(solved, method="EVG")
    apply_ms, both_ms = [], []
    for k in range(0, len(records), PROBE_BATCH):
        batch = records[k:k + PROBE_BATCH]
        t0 = time.perf_counter()
        for r in batch:
            bare.apply(Mutation.from_dict(r))
        t1 = time.perf_counter()
        for r in batch:
            solved.apply(Mutation.from_dict(r))
        solver.bottleneck()
        t2 = time.perf_counter()
        apply_ms.append((t1 - t0) * 1e3)
        both_ms.append((t2 - t1) * 1e3)
    stats = solver.stats.as_dict()
    solver.detach()
    apply_med = float(np.median(apply_ms))
    return {
        "dynamic.apply_ms": apply_med,
        "dynamic.repair_ms": float(np.median(both_ms)) - apply_med,
        "dynamic.fallback_share": stats["fallbacks"] / max(stats["mutations"], 1),
        "dynamic.ls_moves_per_op": stats["ls_moves"] / PROBE_BATCHES,
        "kernels.patch.full_builds": float(solved.compile_stats()["full_builds"]),
    }
