"""Instance preprocessing / kernelisation (extension).

Two safe reductions shrink MULTIPROC instances before any heuristic runs:

* **Forced assignments** — a task with a single configuration (``d_v = 1``,
  like ``T3``/``T4`` in the paper's Fig. 2) has no choice; its load can be
  committed up front and carried as a *baseline load* so the remaining
  algorithms only reason about free tasks.
* **Dominated configurations** — configuration ``A`` dominates ``B``
  (same task) when ``pins(A) ⊆ pins(B)`` and ``w_A <= w_B``: choosing
  ``B`` never beats swapping it for ``A`` under the makespan objective,
  for *any* loads, so ``B`` can be deleted.  (Equal configurations keep
  their first copy.)

:func:`preprocess` applies both to a fixed point and returns a
:class:`ReducedInstance` that maps solutions of the kernel back to the
original hypergraph.  All library heuristics accept the kernel's
``baseline`` loads via :func:`solve_reduced`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching
from ..kernels import flat_ranges

__all__ = ["ReducedInstance", "preprocess", "solve_reduced"]


@dataclass(frozen=True)
class ReducedInstance:
    """A kernelised MULTIPROC instance plus the lift-back mapping.

    Attributes
    ----------
    original:
        The instance that was preprocessed.
    kernel:
        The reduced hypergraph over the free (unforced) tasks, or ``None``
        when every task was forced.
    baseline:
        Per-processor load contributed by forced tasks.
    free_tasks:
        Original task ids of the kernel's tasks (kernel task ``i`` is
        ``free_tasks[i]``).
    kernel_to_original_hedge:
        For each kernel hyperedge, the original hyperedge id.
    forced_hedge_of_task:
        For forced tasks, the chosen (only surviving) hyperedge; ``-1``
        for free tasks.
    dropped_configurations:
        Number of dominated configurations deleted.
    """

    original: TaskHypergraph
    kernel: TaskHypergraph | None
    baseline: np.ndarray
    free_tasks: np.ndarray
    kernel_to_original_hedge: np.ndarray
    forced_hedge_of_task: np.ndarray
    dropped_configurations: int

    def lift(self, kernel_matching: HyperSemiMatching | None) -> HyperSemiMatching:
        """Combine a kernel solution with the forced assignments."""
        assign = self.forced_hedge_of_task.copy()
        if self.kernel is not None:
            if kernel_matching is None:
                raise ValueError("kernel solution required")
            for i, orig_task in enumerate(self.free_tasks):
                assign[orig_task] = self.kernel_to_original_hedge[
                    int(kernel_matching.hedge_of_task[i])
                ]
        return HyperSemiMatching(self.original, assign)


def _dominated_mask(hg: TaskHypergraph) -> np.ndarray:
    """True for hyperedges dominated by a sibling (same task)."""
    dropped = np.zeros(hg.n_hedges, dtype=bool)
    for v in range(hg.n_tasks):
        hedges = hg.task_hedge_ids(v)
        if len(hedges) < 2:
            continue
        pin_sets = [
            frozenset(hg.hedge_proc_set(int(h)).tolist()) for h in hedges
        ]
        for a in range(len(hedges)):
            if dropped[hedges[a]]:
                continue
            for b in range(len(hedges)):
                if a == b or dropped[hedges[b]]:
                    continue
                # a dominates b?
                if (
                    pin_sets[a] <= pin_sets[b]
                    and hg.hedge_w[hedges[a]] <= hg.hedge_w[hedges[b]]
                ):
                    if (
                        pin_sets[a] == pin_sets[b]
                        and hg.hedge_w[hedges[a]] == hg.hedge_w[hedges[b]]
                        and b < a
                    ):
                        continue  # identical: keep the earlier copy
                    dropped[hedges[b]] = True
        # never drop everything
        if dropped[hedges].all():  # pragma: no cover - defensive
            dropped[hedges[0]] = False
    return dropped


def preprocess(hg: TaskHypergraph) -> ReducedInstance:
    """Apply forced-assignment and domination reductions to a fixed point."""
    hg.validate(require_total=True)
    dropped = _dominated_mask(hg)

    # after domination, tasks whose surviving degree is 1 are forced
    surviving_deg = np.zeros(hg.n_tasks, dtype=np.int64)
    np.add.at(surviving_deg, hg.hedge_task[~dropped], 1)
    forced_hedge = np.full(hg.n_tasks, -1, dtype=np.int64)
    baseline = np.zeros(hg.n_procs, dtype=np.float64)
    free_mask = np.ones(hg.n_tasks, dtype=bool)
    for v in range(hg.n_tasks):
        if surviving_deg[v] == 1:
            h = int(
                next(
                    h for h in hg.task_hedge_ids(v) if not dropped[h]
                )
            )
            forced_hedge[v] = h
            baseline[hg.hedge_proc_set(h)] += hg.hedge_w[h]
            free_mask[v] = False

    free_tasks = np.flatnonzero(free_mask)
    keep_hedges = np.flatnonzero(
        (~dropped) & free_mask[hg.hedge_task]
    )
    kernel = None
    if free_tasks.size:
        new_task_id = -np.ones(hg.n_tasks, dtype=np.int64)
        new_task_id[free_tasks] = np.arange(free_tasks.size)
        sizes = np.diff(hg.hedge_ptr)[keep_hedges]
        kernel_ptr = np.zeros(keep_hedges.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=kernel_ptr[1:])
        kernel = TaskHypergraph.from_csr(
            int(free_tasks.size),
            hg.n_procs,
            new_task_id[hg.hedge_task[keep_hedges]],
            kernel_ptr,
            hg.hedge_procs[flat_ranges(hg.hedge_ptr[keep_hedges], sizes)],
            hg.hedge_w[keep_hedges],
        )
    return ReducedInstance(
        original=hg,
        kernel=kernel,
        baseline=baseline,
        free_tasks=free_tasks,
        kernel_to_original_hedge=keep_hedges,
        forced_hedge_of_task=forced_hedge,
        dropped_configurations=int(dropped.sum()),
    )


def solve_reduced(
    hg: TaskHypergraph,
    algorithm: Callable[[TaskHypergraph], HyperSemiMatching],
) -> HyperSemiMatching:
    """Preprocess, solve the kernel, and lift the solution back.

    Note: the kernel is solved without the baseline loads (the library
    heuristics start from zero loads), so on instances where forced tasks
    dominate a few processors this can differ from running ``algorithm``
    directly — usually in favour of whichever sees the truer picture.
    Callers wanting baseline-aware decisions can fold ``baseline`` into
    the kernel as single-configuration dummy tasks; :func:`preprocess`
    keeps them instead to preserve the kernel's size reduction.
    """
    red = preprocess(hg)
    if red.kernel is None:
        return red.lift(None)
    return red.lift(algorithm(red.kernel))
