"""Closed client loops, and the checks on every answer.

Loops only send, receive and time; every answer is kept and checked
after the timed window, so checking never competes with the server for
CPU while latency is measured.

While a timed window runs, the server's CPU time and resident memory
are sampled (after every op of the one-request loop, every
:data:`SAMPLE_EVERY_S` when several requests are in flight).  Every
figure is taken over the whole window.  The window is also cut into
:data:`SLICES` equal slices whose server CPU per op is printed beside
the figures: the host this benchmark was built on drifts in speed by up
to about a third for stretches of seconds to minutes, and the slice
costs show whether a run's window met such a change or a cost that
comes in bursts.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.algorithms.lower_bounds import combined_bound
from repro.core.validation import (
    assert_valid_hyper_semi_matching,
    makespan_hypergraph,
)
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import RemoteError

from inputs import SOLVE_OPTIONS

#: slices of a timed window whose costs are printed
SLICES = 4
#: a loop with several requests in flight samples the server this often
SAMPLE_EVERY_S = 0.25
#: requests in flight in :func:`closed_depth`: enough that the server
#: always has one waiting, so a request's latency is work and queueing,
#: not the wake-up of an idle server (which the host's load stretches
#: many times)
DEPTH = 4


@dataclass
class Op:
    """One attempted operation and what came back."""

    request: Any
    #: when it was sent
    start_s: float = 0.0
    latency_s: float = float("nan")
    reply: Any = None
    error: str | None = None
    #: answer / lower bound, set by the checks
    ratio: float | None = None


@dataclass
class Phase:
    """The ops of one window and, for a timed window, ``(time, server
    CPU seconds, server resident MiB)`` samples from its start to its
    end."""

    ops: list[Op] = field(default_factory=list)
    samples: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.samples[-1][0] - self.samples[0][0]

    @property
    def cpu_s(self) -> float:
        return self.samples[-1][1] - self.samples[0][1]

    def rss_mb(self) -> float:
        """Median of the server's resident memory over the window."""
        return float(np.median([s[2] for s in self.samples]))

    def latencies(self) -> np.ndarray:
        return np.array([o.latency_s for o in self.ops if o.error is None])

    def slice_costs_ms(self) -> list[float]:
        """Server CPU ms per completed op in each of :data:`SLICES`
        equal slices of the window (ops by start time, CPU at the
        last sample before each edge)."""
        t0, t1 = self.samples[0][0], self.samples[-1][0]
        edges = [t0 + (t1 - t0) * k / SLICES for k in range(SLICES + 1)]
        cpu = [
            max(s[1] for s in self.samples if s[0] <= edge + 1e-9)
            for edge in edges
        ]
        costs = []
        for k in range(SLICES):
            done = sum(
                o.error is None and edges[k] <= o.start_s < edges[k + 1]
                for o in self.ops
            )
            spent = (cpu[k + 1] - cpu[k]) * 1e3
            costs.append(spent / done if done else float("nan"))
        return costs


def quantile_ms(samples: np.ndarray, q: float) -> float:
    """Exact quantile (linear interpolation) of raw samples, in ms."""
    return float(np.percentile(samples, q)) * 1e3 if samples.size else float("inf")


# ----------------------------------------------------------------------
# closed loop, one request at a time (one blocking client)
# ----------------------------------------------------------------------
def closed_solves(
    client: ServiceClient, stream, seconds: float, *,
    limit: int | None = None, sample=None,
) -> Phase:
    """Solves back to back for ``seconds`` (or ``limit`` solves);
    ``sample()``, if given, returns the server's ``(CPU seconds,
    resident MiB)`` and is called at the start and after every op."""
    phase = Phase()
    start = time.perf_counter()
    if sample is not None:
        phase.samples.append((start, *sample()))
    counts = itertools.count() if limit is None else range(limit)
    for _ in counts:
        t0 = time.perf_counter()
        if t0 >= start + seconds:
            break
        op = Op(stream.next(), start_s=t0)
        try:
            op.reply = client.solve(op.request.instance, options=SOLVE_OPTIONS)
        except (RemoteError, ConnectionError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        now = time.perf_counter()
        op.latency_s = now - t0
        phase.ops.append(op)
        if sample is not None:
            phase.samples.append((now, *sample()))
    return phase


# ----------------------------------------------------------------------
# closed loop with requests in flight (one asyncio connection)
# ----------------------------------------------------------------------
async def _sampler(phase: Phase, sample, done: asyncio.Event) -> None:
    loop = asyncio.get_running_loop()
    while not done.is_set():
        try:
            await asyncio.wait_for(done.wait(), SAMPLE_EVERY_S)
        except asyncio.TimeoutError:
            phase.samples.append((loop.time(), *sample()))


async def closed_depth(
    client: AsyncServiceClient, stream, seconds: float, *,
    limit: int | None = None, sample=None,
) -> Phase:
    """:data:`DEPTH` lanes on one connection, each sending its next
    request as soon as its last one is answered, for ``seconds`` (or ``limit``
    requests in all); the server always has requests waiting, so its
    CPU never idles between them.  Each request's wire dict is built
    by the stream before its clock starts and dropped once it is sent.
    ``sample`` (see :func:`closed_solves`) is called at the start,
    every :data:`SAMPLE_EVERY_S` and once every lane has finished."""
    loop = asyncio.get_running_loop()
    phase = Phase()
    start = loop.time()
    sent = itertools.count()
    done = asyncio.Event()

    async def lane() -> None:
        while loop.time() < start + seconds:
            if limit is not None and next(sent) >= limit:
                return
            req = stream.next()
            t0 = loop.time()
            op = Op(replace(req, wire=None), start_s=t0)
            phase.ops.append(op)
            try:
                op.reply = await client.solve(req.payload, options=SOLVE_OPTIONS)
            except (RemoteError, ConnectionError) as exc:
                op.error = f"{type(exc).__name__}: {exc}"
            op.latency_s = loop.time() - t0

    tasks = []
    if sample is not None:
        phase.samples.append((start, *sample()))
        tasks.append(loop.create_task(_sampler(phase, sample, done)))
    try:
        await asyncio.gather(*(lane() for _ in range(DEPTH)))
    finally:
        done.set()
        await asyncio.gather(*tasks)
    if sample is not None:
        phase.samples.append((loop.time(), *sample()))
    return phase


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_solves(ops: list[Op]) -> list[str]:
    """Validate every solve answer against the instance that was sent:
    a valid hypergraph semi-matching whose recomputed makespan equals
    the reported one.  Sets each good op's makespan / bound ratio; a bad
    answer becomes an error.  Returns the failures."""
    notes = []
    bounds: dict[int, float] = {}
    for op in ops:
        if op.error is not None:
            continue
        hg = op.request.instance
        try:
            assert_valid_hyper_semi_matching(hg, op.reply.assignment)
            recomputed = makespan_hypergraph(hg, op.reply.assignment)
            if recomputed != op.reply.makespan:
                raise ValueError(
                    f"reported makespan {op.reply.makespan!r} != "
                    f"recomputed {recomputed!r}"
                )
        except Exception as exc:  # any failure is a wrong answer
            op.error = f"check: {exc}"
            notes.append(op.error)
            continue
        key = id(hg)
        if key not in bounds:
            bounds[key] = combined_bound(hg)
        op.ratio = op.reply.makespan / bounds[key]
    return notes
