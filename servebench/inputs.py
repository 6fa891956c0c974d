"""Seeded inputs of the two workloads.

Everything the server receives is made here from ``--seed``: the same
seed gives byte-identical request streams.  Instances are the paper's
Table I MULTIPROC family (``fewgmanyg``, ``dv = 5``, ``dh = 10``) with
integer execution times drawn uniformly from 1..100, so every makespan
is an exact float sum.  Each workload has a few base pin structures,
fixed for the workload (the same for every seed, so the work a request
asks for does not swing from seed to seed); each request draws fresh
seeded weights on one of them, so requests differ in content (no cache
hits unless a workload resends on purpose) while generation stays
cheap.  The seed also fixes the order and the resends.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.api.options import SolveOptions
from repro.core.hypergraph import TaskHypergraph
from repro.engine.cache import instance_digest
from repro.generators.multiproc import generate_multiproc
from repro.service.client import instance_to_wire

#: every solve asks for the paper's EVG heuristic
SOLVE_OPTIONS = SolveOptions(method="EVG")

#: (n, p, g) of each instance class
LARGE = (5120, 1024, 32)
SMALL = (48, 8, 4)
MEDIUM = (320, 64, 32)
#: the write-path probe's instance
CHURN = (1280, 256, 32)

#: mixed_closed is built in blocks of this many requests, so every block
#: carries the same mix: 28 small and 12 medium, of which 7 and 3
#: resend an earlier request byte for byte
BLOCK = 40
BLOCK_SMALL, BLOCK_MEDIUM = 28, 12
RESEND_SMALL, RESEND_MEDIUM = 7, 3
RESEND_WINDOW = 32
#: base pin structures per instance class
LARGE_BASES, SMALL_BASES, MEDIUM_BASES = 2, 8, 4

@dataclass(frozen=True)
class SolveRequest:
    """One solve request: its instance, whether it resends an earlier
    request's exact content, and (``mixed_closed``) its wire dict.

    ``mixed_closed`` converts instances to wire dicts while generating
    them, before a request's clock starts: one client stands in for
    several independent callers there, and a resend is the very same
    wire dict.  ``large_closed`` converts inside the timed call, as a
    caller would."""

    instance: TaskHypergraph
    cls: str
    resend: bool = False
    wire: dict | None = None

    @property
    def payload(self):
        return self.wire if self.wire is not None else self.instance


def base_structure(
    size: tuple[int, int, int], rng: np.random.Generator
) -> TaskHypergraph:
    """A unit-weight Table I instance of the given ``(n, p, g)``."""
    n, p, g = size
    return generate_multiproc(
        n, p, family="fewgmanyg", g=g, dv=5, dh=10, weights="unit", seed=rng
    )


def with_fresh_weights(
    base: TaskHypergraph, rng: np.random.Generator
) -> TaskHypergraph:
    """``base`` with integer weights drawn uniformly from 1..100."""
    return base.with_weights(
        rng.integers(1, 101, size=base.n_hedges).astype(np.float64)
    )


class LargeStream:
    """``large_closed``: distinct n = 5120 / p = 1024 instances on two
    base structures."""

    def __init__(self, seed: int):
        structure = np.random.default_rng(1)
        self.bases = [base_structure(LARGE, structure) for _ in range(LARGE_BASES)]
        self._rng = np.random.default_rng([seed, 1])
        self._k = 0

    def next(self) -> SolveRequest:
        base = self.bases[self._k % len(self.bases)]
        self._k += 1
        return SolveRequest(with_fresh_weights(base, self._rng), "large")


class MixedStream:
    """``mixed_closed``: 70 % n = 48 / p = 8 and 30 % n = 320 / p = 64
    instances, a quarter of them byte-identical resends of one of the
    last 32 requests of the same class.

    Each block of :data:`BLOCK` slots is shuffled at once; its requests
    are made one by one as they are taken, so the client never stalls
    on a whole block while requests are in flight."""

    def __init__(self, seed: int):
        structure = np.random.default_rng(2)
        self.bases = {
            "small": [base_structure(SMALL, structure) for _ in range(SMALL_BASES)],
            "medium": [
                base_structure(MEDIUM, structure) for _ in range(MEDIUM_BASES)
            ],
        }
        self._rng = np.random.default_rng([seed, 2])
        self._recent: dict[str, list[tuple[TaskHypergraph, dict]]] = {
            "small": [], "medium": [],
        }
        self._slots: list[tuple[str, bool]] = []

    def next(self) -> SolveRequest:
        if not self._slots:
            slots = (
                [("small", False)] * (BLOCK_SMALL - RESEND_SMALL)
                + [("small", True)] * RESEND_SMALL
                + [("medium", False)] * (BLOCK_MEDIUM - RESEND_MEDIUM)
                + [("medium", True)] * RESEND_MEDIUM
            )
            order = self._rng.permutation(len(slots))
            self._slots = [slots[i] for i in reversed(order)]
        cls, resend = self._slots.pop()
        recent = self._recent[cls]
        if resend and recent:
            hg, wire = recent[int(self._rng.integers(len(recent)))]
        else:
            resend = False
            bases = self.bases[cls]
            base = bases[int(self._rng.integers(len(bases)))]
            hg = with_fresh_weights(base, self._rng)
            wire = instance_to_wire(hg)
        recent.append((hg, wire))
        del recent[:-RESEND_WINDOW]
        return SolveRequest(hg, cls, resend, wire)


def structure_key(hg: TaskHypergraph) -> str:
    """Digest of the pin structure alone (weights excluded); the whole
    instance's digest is the engine's :func:`instance_digest`."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (hg.hedge_task, hg.hedge_ptr, hg.hedge_procs):
        h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"#")
    return h.hexdigest()


def sharing(instances: list[TaskHypergraph]) -> dict[str, float]:
    """Measured share of requests that repeat an earlier request's exact
    content, and share that reuse an earlier request's structure."""
    seen_content: set[str] = set()
    seen_structure: set[str] = set()
    repeats = shared = 0
    for hg in instances:
        c, s = instance_digest(hg), structure_key(hg)
        repeats += c in seen_content
        shared += s in seen_structure
        seen_content.add(c)
        seen_structure.add(s)
    total = max(len(instances), 1)
    return {"repeat_share": repeats / total, "structure_share": shared / total}
