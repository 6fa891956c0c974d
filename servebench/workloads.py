"""The two workloads: one live run each against a fresh server, and
the traced run that adds the per-layer ledger."""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.service.client import AsyncServiceClient, ServiceClient

import ledger
from drive import (
    Phase,
    check_solves,
    closed_depth,
    closed_solves,
    quantile_ms,
)
from inputs import (
    BLOCK,
    SMALL,
    SOLVE_OPTIONS,
    LargeStream,
    MixedStream,
    base_structure,
    sharing,
)
from procs import Server, shm_entries

#: servers spawned per timed run before and after its window (the
#: last one before is the one measured); setup_s is the median of all
SETUP_BEFORE, SETUP_AFTER = 4, 5
#: untimed warm-up: solves (large_closed), and requests (mixed_closed:
#: one block of the request mix)
WARM_SOLVES, WARM_MIXED = 2, BLOCK
#: makespan_over_lb of large_closed averages this prefix of its
#: (warm-up + timed) solves, so it does not depend on how many fit
RATIO_PREFIX = 12
#: shares of a traced run's window spent live on the plain server and
#: live on a 2-worker pool; the rest replays
TRACE_LIVE_SHARE, TRACE_POOL_SHARE = 0.4, 0.2

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("makespan_over_lb", "ratio"),
)


@dataclass
class Live:
    """What one live run against a fresh server produced."""

    warm: Phase
    phase: Phase
    setups: list[float] = field(default_factory=list)
    snapshot: dict = field(default_factory=dict)
    teardown_errors: int = 0
    leaked_segments: int = 0
    notes: list[str] = field(default_factory=list)

    def all_ops(self):
        return self.warm.ops + self.phase.ops


@dataclass
class Outcome:
    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def _workdir(root: str) -> str:
    path = os.path.join(root, ".servebench")
    os.makedirs(path, exist_ok=True)
    return path


@contextmanager
def _frozen_heap(*, collect: bool):
    """Move everything alive now out of the garbage collector's sight,
    so collections scan only what is allocated inside the block (as in
    a fresh server process).  ``collect=False`` also pauses cyclic
    collection: the live runs keep the client's collector out of the
    timed windows (the client, not the server, is what this silences)."""
    gc.collect()
    gc.freeze()
    if not collect:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def live_run(
    name: str, seed: int, seconds: float, root: str, *,
    before: int, after: int = 0, workers: int = 0,
) -> Live:
    """Generate the inputs, start the server ``before`` times (keeping
    the last; ``workers > 0`` for a pool), drive the workload on it for
    ``seconds``, then start and stop it ``after`` more times, and check
    every answer.  Spawns on both sides of the window spread the
    set-up samples over the run."""
    stream = LargeStream(seed) if name == "large_closed" else MixedStream(seed)
    probe = base_structure(SMALL, np.random.default_rng([seed, 5]))
    log = os.path.join(_workdir(root), f"server-{name}-{seed}.log")
    shm_before = shm_entries()
    server = None
    setups, teardown = [], 0

    def spawn() -> None:
        nonlocal server, teardown
        if server is not None:
            server.stop()
            teardown += server.teardown_errors
        server = Server(root, log, workers=workers)
        server.start(probe, SOLVE_OPTIONS)
        setups.append(server.setup_s)

    try:
        with _frozen_heap(collect=False):
            for _ in range(before):
                spawn()
            if name == "large_closed":
                live = _closed_body(server, stream, seconds)
            else:
                live = asyncio.run(_mixed_body(server, stream, seconds))
            for _ in range(after):
                spawn()
    finally:
        if server is not None:
            server.stop()
            teardown += server.teardown_errors
    live.setups = setups
    live.teardown_errors = teardown
    live.leaked_segments = len(shm_entries() - shm_before)
    live.notes = check_solves(live.all_ops())
    return live


def _closed_body(server: Server, stream, seconds: float) -> Live:
    with ServiceClient(port=server.port, timeout=120.0) as client:
        warm = closed_solves(client, stream, float("inf"), limit=WARM_SOLVES)
        phase = closed_solves(client, stream, seconds, sample=server.sample)
        live = Live(warm, phase)
        live.snapshot = client.metrics()
    return live


async def _mixed_body(server: Server, stream, seconds: float) -> Live:
    client = await AsyncServiceClient.connect(port=server.port)
    try:
        warm = await closed_depth(
            client, stream, float("inf"), limit=WARM_MIXED
        )
        phase = await closed_depth(client, stream, seconds, sample=server.sample)
        live = Live(warm, phase)
        live.snapshot = await client.call("metrics")
    finally:
        await client.close()
    return live


# ----------------------------------------------------------------------
# timed run: end-to-end metrics
# ----------------------------------------------------------------------
def _attempted_failed(live: Live) -> tuple[int, int]:
    ops = live.all_ops()
    return len(ops), sum(o.error is not None for o in ops)


def _ratio(name: str, live: Live) -> float:
    ops = live.all_ops()[:RATIO_PREFIX] if name == "large_closed" else live.phase.ops
    ratios = [o.ratio for o in ops if o.ratio is not None]
    return float(np.mean(ratios)) if ratios else float("nan")


def timed(name: str, seed: int, seconds: float, root: str) -> Outcome:
    live = live_run(
        name, seed, seconds, root, before=SETUP_BEFORE, after=SETUP_AFTER
    )
    phase = live.phase
    lat = phase.latencies()
    completed = max(lat.size, 1)
    values = {
        "latency_p50_ms": quantile_ms(lat, 50),
        "latency_p90_ms": quantile_ms(lat, 90),
        "throughput_rps": lat.size / phase.seconds,
        "cpu_ms_per_op": phase.cpu_s * 1e3 / completed,
        "setup_s": statistics.median(live.setups),
        "makespan_over_lb": _ratio(name, live),
    }
    attempted, failed = _attempted_failed(live)
    shares = sharing([o.request.instance for o in live.all_ops()])
    lines = [
        f"workload {name}  seed {seed}  window {seconds:g}s",
        f"  inputs: repeat_share {shares['repeat_share']:.3f}  "
        f"structure_share {shares['structure_share']:.3f}",
        f"  ops {attempted} attempted, {failed} failed  "
        f"error_share {failed / max(attempted, 1):.4f} (count)",
        f"  timed window: {lat.size} samples ({int(lat.size * 0.1)} beyond "
        f"p90); server CPU ms per op by quarter: "
        + " ".join(f"{c:.2f}" for c in phase.slice_costs_ms()),
        "  set-up spawns (s): " + " ".join(f"{t:.3f}" for t in live.setups),
        f"  server resident memory (median over the window): "
        f"{phase.rss_mb():.1f} MiB",
    ]
    lines += [f"  {k:<18} {values[k]:12.4f} {u}" for k, u in END_TO_END]
    lines += [f"  FAILED CHECK: {n}" for n in live.notes[:5]]
    return Outcome(
        attempted, failed, not live.notes,
        {k: (values[k], u) for k, u in END_TO_END}, lines,
    )


# ----------------------------------------------------------------------
# traced run: the per-layer ledger
# ----------------------------------------------------------------------
#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("service.client.p50_ms", "ms"),
    ("service.client.encode_ms", "ms"),
    ("service.protocol.request_kb", "kB"),
    ("service.protocol.decode_ms", "ms"),
    ("service.wire.parse_ms", "ms"),
    ("engine.cache.digest_ms", "ms"),
    ("engine.transport.export_ms", "ms"),
    ("engine.transport.attach_ms", "ms"),
    ("kernels.compiled.compile_ms", "ms"),
    ("engine.batch.solve_ms", "ms"),
    ("dynamic.apply_ms", "ms"),
    ("dynamic.repair_ms", "ms"),
    ("service.server.response_encode_ms", "ms"),
    ("service.client.decode_ms", "ms"),
    ("service.server.unattributed_ms", "ms"),
    ("service.server.rss_mb", "MiB"),
    ("bench.trace.overhead_ms", "ms"),
    ("service.batching.batch_size_mean", "count"),
    ("service.dedup.follower_share", "ratio"),
    ("engine.cache.hit_share", "ratio"),
    ("service.shard.worker_share_max", "ratio"),
    ("service.supervisor.restarts", "count"),
    ("dynamic.fallback_share", "ratio"),
    ("dynamic.ls_moves_per_op", "count"),
    ("kernels.patch.full_builds", "count"),
    ("service.server.teardown_errors", "count"),
    ("engine.transport.leaked_segments", "count"),
)


def scrape_counts(snap: dict) -> dict[str, float]:
    """Batching, dedup and cache counters from a plain server's
    ``metrics`` snapshot."""
    batch = snap["batch_size"]
    cache = snap["engine_cache"] or {"hits": 0, "misses": 0}
    solves = snap["counters"].get("requests.solve", 0)
    return {
        "service.batching.batch_size_mean": batch["sum"] / max(batch["count"], 1),
        "service.dedup.follower_share": snap["dedup"]["followers"] / max(solves, 1),
        "engine.cache.hit_share": (
            cache["hits"] / max(cache["hits"] + cache["misses"], 1)
        ),
    }


def scrape_pool(snap: dict) -> dict[str, float]:
    """Shard and supervisor counters from a pool's ``metrics`` snapshot."""
    per_worker = [
        snap["counters"].get(f"shard.{name}.solves", 0)
        for name in snap["shards"]
    ]
    return {
        "service.shard.worker_share_max": (
            max(per_worker) / max(sum(per_worker), 1)
        ),
        "service.supervisor.restarts": float(snap["supervisor"]["restarts"]),
    }


def _row_medians(rows: dict[int, dict[str, float]]) -> dict[str, float]:
    """Per ledger row: median self time (ms) over the replayed requests."""
    return {
        name: float(np.median([per[name] for per in rows.values()]))
        for name in ledger.SOLVE_ROWS
    }


def traced(name: str, seed: int, seconds: float, root: str) -> Outcome:
    """A live run on the plain server (untraced client timing, server
    counters), the same requests against a 2-worker pool (shard and
    supervisor counters), then the in-process replay of the plain run's
    requests through the public call chain, with the benchmark's
    spans."""
    live = live_run(name, seed, seconds * TRACE_LIVE_SHARE, root, before=1)
    pool = live_run(
        name, seed, seconds * TRACE_POOL_SHARE, root, before=1, workers=2
    )
    runs = [live, pool]
    lat = live.phase.latencies()
    client_p50 = quantile_ms(lat, 50)
    tracer = ledger.Tracer()
    budget = seconds * (1.0 - TRACE_LIVE_SHARE - TRACE_POOL_SHARE)
    with _frozen_heap(collect=True):
        replay = ledger.replay_solves(
            [o for o in live.phase.ops if o.error is None],
            budget_s=budget, tracer=tracer, prebuilt=name == "mixed_closed",
        )
    tracer.write(os.path.join(_workdir(root), f"spans-{name}-{seed}.json"))
    rows = _row_medians(tracer.self_times_ms())
    unattributed = client_p50 - sum(rows.values())

    values = {f"{k}_ms": med for k, med in rows.items()}
    values["service.client.p50_ms"] = client_p50
    values["service.protocol.request_kb"] = replay["request_kb"]
    values["service.server.unattributed_ms"] = unattributed
    values["service.server.rss_mb"] = live.phase.rss_mb()
    values["bench.trace.overhead_ms"] = (
        float(np.median(replay["totals"][True]))
        - float(np.median(replay["totals"][False]))
    )
    values.update(scrape_counts(live.snapshot))
    values.update(scrape_pool(pool.snapshot))
    values["service.server.teardown_errors"] = float(
        sum(r.teardown_errors for r in runs)
    )
    values["engine.transport.leaked_segments"] = float(
        sum(r.leaked_segments for r in runs)
    )
    # layers the plain server's requests never reach: the write path,
    # probed on a fixed instance, and the shared-memory hop, probed on
    # the workload's own instances
    probes = ledger.probe_dynamic(seed)
    probes.update({
        f"{k}_ms": float(np.median(v))
        for k, v in replay["probes"].items() if v
    })
    values.update(probes)

    attempted = sum(_attempted_failed(r)[0] for r in runs)
    failed = sum(_attempted_failed(r)[1] for r in runs)
    notes = [n for r in runs for n in r.notes]
    if replay["mismatches"]:
        notes.append(
            f"{replay['mismatches']} replayed answers differ from the live ones"
        )
    lines = [
        f"workload {name}  seed {seed}  traced run: "
        f"{seconds * TRACE_LIVE_SHARE:g}s live, "
        f"{seconds * TRACE_POOL_SHARE:g}s on a 2-worker pool, then replay",
        f"  live: {lat.size} samples, client p50 {client_p50:.3f} ms; "
        f"replayed {len(tracer.self_times_ms())} traced requests "
        f"(spans written to .servebench/)",
        f"  {'layer (median self time)':<34} {'ms':>10}",
    ]
    lines += [f"  {k:<34} {med:10.3f}" for k, med in rows.items()]
    lines.append(f"  {'service.server.unattributed':<34} {unattributed:10.3f}")
    lines.append(
        f"  {'= client-observed p50':<34} "
        f"{sum(rows.values()) + unattributed:10.3f}"
    )
    lines.append("  probes (layers this workload's requests do not reach):")
    lines += [f"    {k:<40} {v:12.4f}" for k, v in sorted(probes.items())]
    lines += [f"  FAILED CHECK: {n}" for n in notes[:5]]
    return Outcome(
        attempted, failed + replay["mismatches"], not notes,
        {k: (values[k], u) for k, u in PER_LAYER}, lines,
    )
