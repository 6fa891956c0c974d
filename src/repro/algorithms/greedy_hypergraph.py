"""Greedy semi-matching heuristics for hypergraphs (paper Section IV-D).

The four MULTIPROC heuristics evaluated in Tables II and III:

* :func:`sorted_greedy_hyp` (SGH, Algorithm 4) — visit tasks by
  non-decreasing configuration count; pick the hyperedge with the smallest
  bottleneck load among its processors;
* :func:`vector_greedy_hyp` (VGH) — like SGH but candidates are ranked by
  the *entire* resulting load vector, sorted descending and compared
  lexicographically;
* :func:`expected_greedy_hyp` (EGH, Algorithm 5) — SGH on expected loads
  ``o(u)`` (each configuration of an unassigned task contributes
  ``w_h/d_v`` to each of its processors);
* :func:`expected_vector_greedy_hyp` (EVG) — vector ranking on
  tentatively-realised expected loads.

Every heuristic runs on one of two backends:

* ``backend="numpy"`` (default) — the vectorized CSR kernel core of
  :mod:`repro.kernels`: the instance is compiled once (cached by content
  digest) and each greedy step is a handful of array operations over the
  task-grouped arrays.  The kernels perform the same floating-point
  operations in the same order as the loops below, so the matchings are
  **bit-identical** (asserted by ``tests/test_conformance.py``).
* ``backend="python"`` — the original per-candidate loops, kept as the
  conformance oracle and for step-by-step debugging.

Vector comparisons use the multiset-difference lemma of
:mod:`repro.core.loadvec`: two candidates only disagree on the processors
they touch, so the descending-lex order of the full length-``p`` vectors
equals the order of the small affected-value multisets.  This is the
asymptotically faster variant the paper describes in Section IV-D3;
``method="naive"`` switches to the full-vector comparison the paper's
Matlab code used (kept for tests and timing ablations; it always runs on
the Python path).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InfeasibleError
from ..core.hypergraph import TaskHypergraph
from ..core.loadvec import lex_compare_desc, lex_compare_multisets, sorted_desc
from ..core.semimatching import HyperSemiMatching
from ..kernels import (
    check_backend,
    compile_instance,
    flat_ranges,
    lex_best_row,
)
from .._util import stable_argsort

__all__ = [
    "sorted_greedy_hyp",
    "vector_greedy_hyp",
    "expected_greedy_hyp",
    "expected_vector_greedy_hyp",
]


def _check_feasible(hg: TaskHypergraph) -> None:
    if np.any(np.diff(hg.task_ptr) == 0):
        bad = int(np.flatnonzero(np.diff(hg.task_ptr) == 0)[0])
        raise InfeasibleError(f"task {bad} has no configuration")


def _visit_order(hg: TaskHypergraph, sort_by_degree: bool) -> np.ndarray:
    if sort_by_degree:
        return stable_argsort(hg.task_degrees())
    return np.arange(hg.n_tasks, dtype=np.int64)


# ---------------------------------------------------------------------------
# SGH
# ---------------------------------------------------------------------------
def sorted_greedy_hyp(
    hg: TaskHypergraph,
    *,
    lookahead: bool = True,
    sort_by_degree: bool = True,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """Algorithm 4 (SGH): minimise the chosen configuration's bottleneck.

    For each task (by non-decreasing ``d_v``) pick the hyperedge ``h``
    minimising ``max_{u in h}(l(u) + w_h)`` — the bottleneck the
    assignment would create.  ``lookahead=False`` reproduces the printed
    pseudocode literally (``max_{u in h} l(u)``, ignoring ``w_h``); the
    two coincide on unit weights whenever configurations are compared at
    equal weight, and DESIGN.md discusses the discrepancy.  Runs in
    ``O(sum_h |h|)``.
    """
    check_backend(backend)
    _check_feasible(hg)
    if backend == "python":
        return _sgh_python(hg, lookahead, sort_by_degree)
    return _sgh_numpy(hg, lookahead, sort_by_degree)


def _sgh_python(
    hg: TaskHypergraph, lookahead: bool, sort_by_degree: bool
) -> HyperSemiMatching:
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w

    for v in _visit_order(hg, sort_by_degree):
        best_h = -1
        best_key = np.inf
        for h in hg.task_hedge_ids(v):
            pins = hprocs[hptr[h] : hptr[h + 1]]
            key = loads[pins].max() + (w[h] if lookahead else 0.0)
            if key < best_key:
                best_key = key
                best_h = int(h)
        hedge_of_task[v] = best_h
        loads[hprocs[hptr[best_h] : hptr[best_h + 1]]] += w[best_h]

    return HyperSemiMatching(hg, hedge_of_task)


def _sgh_numpy(
    hg: TaskHypergraph, lookahead: bool, sort_by_degree: bool
) -> HyperSemiMatching:
    # SGH is inherently sequential — task v's choice depends on loads
    # committed by every earlier task — so the kernel's job is to make
    # each step's fixed dispatch cost as small as possible (see the
    # "sequential frontier" note in repro.kernels.ops).  Pointer arrays
    # are pre-converted to Python lists (list[int] indexing is several
    # times cheaper than ndarray scalar indexing), reduceat offsets are
    # precomputed for all tasks in one vectorized pass, and the
    # lookahead add runs in place on the fresh reduceat output.
    ci = compile_instance(hg)
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    chosen = [0] * hg.n_tasks
    tptr = hg.task_ptr.tolist()
    gpins, gw = ci.g_pins, ci.g_w
    gptr = ci.g_ptr.tolist()
    gw_list = gw.tolist()
    ghedge = ci.g_hedge.tolist()
    # goff[a:b] = pin offsets of task v's rows relative to its first pin
    row_task = np.repeat(
        np.arange(hg.n_tasks, dtype=np.int64), np.diff(hg.task_ptr)
    )
    goff = ci.g_ptr[:-1] - ci.g_ptr[hg.task_ptr[row_task]]
    maximum_reduceat = np.maximum.reduceat

    for v in _visit_order(hg, sort_by_degree).tolist():
        a, b = tptr[v], tptr[v + 1]
        if b - a == 1:
            k = a
        else:
            keys = maximum_reduceat(
                loads[gpins[gptr[a] : gptr[b]]], goff[a:b]
            )
            if lookahead:
                keys += gw[a:b]
            k = a + int(keys.argmin())
        chosen[v] = ghedge[k]
        loads[gpins[gptr[k] : gptr[k + 1]]] += gw_list[k]

    return HyperSemiMatching(hg, np.asarray(chosen, dtype=np.int64))


# ---------------------------------------------------------------------------
# candidate-row addition blocks (VGH, EVG)
# ---------------------------------------------------------------------------
#: float64 entries of addition blocks built at once (16 MiB); instances
#: whose blocks total more build them window by window of the visit order
_BLOCK_BUDGET = 1 << 21


def _row_blocks(ci, order: np.ndarray):
    """Yield ``(tasks, flat, ptr)`` windows of per-task addition blocks.

    The vector heuristics rank task ``v``'s ``m`` candidates through an
    ``m x k`` matrix over its sorted pin-union of ``k`` processors: row
    ``i`` is the union's current loads plus ``w_i`` at candidate ``i``'s
    pins.  The loads change from task to task, the added part does not,
    so it is built here in array passes — task ``tasks[t]``'s block is
    ``flat[ptr[t]:ptr[t+1]].reshape(m, k)``, zeros plus each
    candidate's weight at its union positions — and the loop forms the
    rows with one broadcast ``block + loads``.  Row ``i`` is then
    ``loads + w_i`` on ``i``'s pins and ``loads`` elsewhere, bit for
    bit: addition commutes, and ``x + 0.0 == x`` for every load the
    kernels produce (none is ``-0.0``).  Blocks total ``sum_v m_v k_v``
    entries — far more than the instance when tasks have many wide
    candidates — so they are built per solve in windows of the visit
    order holding at most ``_BLOCK_BUDGET`` entries (plus one task's
    block).
    """
    tptr = ci.hypergraph.task_ptr
    pin_ptr = ci.g_ptr[tptr]  # task v's pins: pin_ptr[v]:pin_ptr[v+1]
    npins, union = np.diff(pin_ptr), np.diff(ci.u_ptr)
    size = np.diff(tptr) * union  # m_v * k_v
    start = np.zeros(order.shape[0], dtype=np.int64)
    np.cumsum(size[order][:-1], out=start[1:])
    cuts = np.flatnonzero(np.diff(start // _BLOCK_BUDGET)) + 1
    for tasks in np.split(order, cuts):
        ptr = np.zeros(tasks.shape[0] + 1, dtype=np.int64)
        np.cumsum(size[tasks], out=ptr[1:])
        pins = flat_ranges(pin_ptr[tasks], npins[tasks])
        local = np.repeat(np.arange(tasks.shape[0]), npins[tasks])
        k = union[tasks][local]
        flat = np.zeros(int(ptr[-1]), dtype=np.float64)
        flat[ptr[local] + ci.g_pin_row[pins] * k + ci.g_pin_pos[pins]] = (
            ci.g_pin_w[pins]
        )
        yield tasks.tolist(), flat, ptr.tolist()


# ---------------------------------------------------------------------------
# VGH
# ---------------------------------------------------------------------------
def vector_greedy_hyp(
    hg: TaskHypergraph,
    *,
    method: str = "fast",
    sort_by_degree: bool = True,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """VGH: rank candidate hyperedges by the full resulting load vector.

    Among a task's configurations, prefer the one whose resulting load
    vector — all ``p`` processors, sorted descending — is lexicographically
    smallest: smallest bottleneck first, then smallest second-largest load,
    and so on.  Ties keep the first candidate.

    ``method="fast"`` compares only the affected-processor multisets
    (correct by the lemma in :mod:`repro.core.loadvec`), giving
    ``O(sum_v d_v * s log s)`` with ``s`` the configuration size.
    ``method="naive"`` sorts the full vector per candidate —
    ``O(sum_v d_v * p log p)``, the complexity the paper reports for its
    own implementation — and always runs on the Python path.
    """
    if method not in ("fast", "naive"):
        raise ValueError(f"method must be 'fast' or 'naive', got {method!r}")
    check_backend(backend)
    _check_feasible(hg)
    if backend == "python" or method == "naive":
        return _vgh_python(hg, method, sort_by_degree)
    return _vgh_numpy(hg, sort_by_degree)


def _vgh_python(
    hg: TaskHypergraph, method: str, sort_by_degree: bool
) -> HyperSemiMatching:
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w

    for v in _visit_order(hg, sort_by_degree):
        hedges = hg.task_hedge_ids(v)
        best_h = -1
        if method == "naive":
            best_vec: np.ndarray | None = None
            for h in hedges:
                pins = hprocs[hptr[h] : hptr[h + 1]]
                scenario = loads.copy()
                scenario[pins] += w[h]
                vec = sorted_desc(scenario)
                if best_vec is None or lex_compare_desc(vec, best_vec) < 0:
                    best_vec = vec
                    best_h = int(h)
        else:
            best_pins: np.ndarray | None = None
            for h in hedges:
                pins = hprocs[hptr[h] : hptr[h + 1]]
                if best_pins is None:
                    best_h = int(h)
                    best_pins = pins
                    continue
                # Candidates differ only on their own pins: compare the
                # resulting loads over the union of both pin sets.
                aff = np.union1d(pins, best_pins)
                cand_vals = loads[aff].copy()
                cand_vals[np.searchsorted(aff, pins)] += w[h]
                best_vals = loads[aff].copy()
                best_vals[np.searchsorted(aff, best_pins)] += w[best_h]
                if lex_compare_multisets(cand_vals, best_vals) < 0:
                    best_h = int(h)
                    best_pins = pins
        hedge_of_task[v] = best_h
        loads[hprocs[hptr[best_h] : hptr[best_h + 1]]] += w[best_h]

    return HyperSemiMatching(hg, hedge_of_task)


def _vgh_numpy(
    hg: TaskHypergraph, sort_by_degree: bool
) -> HyperSemiMatching:
    # All candidates compared at once over the task's pin-union: row i
    # is the resulting loads of candidate i restricted to the union
    # (sound by the multiset lemma).  The chosen row is the union's new
    # loads, so committing it equals adding w_k to the chosen pins.
    ci = compile_instance(hg)
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    chosen = [0] * hg.n_tasks
    tptr = hg.task_ptr.tolist()
    uptr = ci.u_ptr.tolist()
    ghedge = ci.g_hedge.tolist()
    uprocs = ci.u_procs

    order = _visit_order(hg, sort_by_degree)
    for tasks, blocks, bptr in _row_blocks(ci, order):
        for t, v in enumerate(tasks):
            a, m = tptr[v], tptr[v + 1] - tptr[v]
            procs = uprocs[uptr[v] : uptr[v + 1]]
            block = blocks[bptr[t] : bptr[t + 1]].reshape(m, -1)
            rows = block + loads[procs]
            j = lex_best_row(rows) if m > 1 else 0
            chosen[v] = ghedge[a + j]
            loads[procs] = rows[j]

    return HyperSemiMatching(hg, np.asarray(chosen, dtype=np.int64))


# ---------------------------------------------------------------------------
# EGH
# ---------------------------------------------------------------------------
def _expected_loads(hg: TaskHypergraph) -> np.ndarray:
    """Initial ``o(u)``: every configuration spreads ``w_h/d_v`` over its
    pins (Algorithm 5, lines 1-6)."""
    o = np.zeros(hg.n_procs, dtype=np.float64)
    deg = hg.task_degrees().astype(np.float64)
    share = hg.hedge_w / deg[hg.hedge_task]  # w_h / d_v per hyperedge
    np.add.at(o, hg.hedge_procs, np.repeat(share, np.diff(hg.hedge_ptr)))
    return o


def expected_greedy_hyp(
    hg: TaskHypergraph,
    *,
    lookahead: bool = True,
    sort_by_degree: bool = True,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """Algorithm 5 (EGH): SGH driven by expected loads ``o(u)``.

    Selection minimises ``max_{u in h} o(u)`` over the task's
    configurations; with ``lookahead=True`` (default) the tentative
    realisation ``max_{u in h}(o(u) + w_h - w_h/d_v)`` is minimised
    instead (identical ordering whenever all candidates share one weight,
    e.g. unit instances).  Committing a task updates ``o`` exactly as the
    pseudocode does, so on termination ``o`` equals the true loads.
    ``O(sum_h |h|)``.
    """
    check_backend(backend)
    _check_feasible(hg)
    if backend == "python":
        return _egh_python(hg, lookahead, sort_by_degree)
    return _egh_numpy(hg, lookahead, sort_by_degree)


def _egh_python(
    hg: TaskHypergraph, lookahead: bool, sort_by_degree: bool
) -> HyperSemiMatching:
    o = _expected_loads(hg)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w
    deg = hg.task_degrees().astype(np.float64)

    for v in _visit_order(hg, sort_by_degree):
        dv = deg[v]
        best_h = -1
        best_key = np.inf
        for h in hg.task_hedge_ids(v):
            pins = hprocs[hptr[h] : hptr[h + 1]]
            key = o[pins].max()
            if lookahead:
                key += w[h] - w[h] / dv
            if key < best_key:
                best_key = key
                best_h = int(h)
        hedge_of_task[v] = best_h
        # collapse the distribution (Algorithm 5, lines 10-14)
        for h in hg.task_hedge_ids(v):
            pins = hprocs[hptr[h] : hptr[h + 1]]
            if int(h) == best_h:
                o[pins] += w[h] - w[h] / dv
            else:
                o[pins] -= w[h] / dv

    return HyperSemiMatching(hg, hedge_of_task)


def _egh_numpy(
    hg: TaskHypergraph, lookahead: bool, sort_by_degree: bool
) -> HyperSemiMatching:
    ci = compile_instance(hg)
    o = _expected_loads(hg)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    tptr = hg.task_ptr
    gptr, gpins, gw, ghedge, gsize = (
        ci.g_ptr,
        ci.g_pins,
        ci.g_w,
        ci.g_hedge,
        ci.g_size,
    )
    maximum_reduceat = np.maximum.reduceat

    for v in _visit_order(hg, sort_by_degree):
        a, b = tptr[v], tptr[v + 1]
        dv = float(b - a)
        p0, p1 = gptr[a], gptr[b]
        wslice = gw[a:b]
        share = wslice / dv
        if b - a == 1:
            j = 0
        else:
            keys = maximum_reduceat(o[gpins[p0:p1]], gptr[a:b] - p0)
            if lookahead:
                keys = keys + (wslice - share)
            j = int(np.argmin(keys))
        k = a + j
        hedge_of_task[v] = ghedge[k]
        # collapse the distribution: the chosen candidate realises
        # (w - w/d_v), the siblings withdraw their shares — applied in
        # candidate order, matching the Python loop's accumulation
        delta = -share
        delta[j] = wslice[j] - share[j]
        np.add.at(o, gpins[p0:p1], np.repeat(delta, gsize[a:b]))

    return HyperSemiMatching(hg, hedge_of_task)


# ---------------------------------------------------------------------------
# EVG
# ---------------------------------------------------------------------------
def expected_vector_greedy_hyp(
    hg: TaskHypergraph,
    *,
    method: str = "fast",
    sort_by_degree: bool = True,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """EVG: vector ranking over tentatively-realised expected loads.

    For each candidate ``h`` of task ``v``, tentatively realise it (add
    ``w_h - w_h/d_v`` to its pins) and tentatively discard the siblings
    (subtract ``w_h'/d_v`` from theirs), then compare the resulting
    expected-load vectors descending-lexicographically.  All candidates
    share the same affected set — the union of all of ``v``'s pins — so
    with ``method="fast"`` each comparison sorts only that union.  The
    paper gives the complexity ``O(sum_v d_v |V2| + sum_v d_v sum_{h in v}
    |h|)`` for the naive variant (``method="naive"``, always on the
    Python path).
    """
    if method not in ("fast", "naive"):
        raise ValueError(f"method must be 'fast' or 'naive', got {method!r}")
    check_backend(backend)
    _check_feasible(hg)
    if backend == "python" or method == "naive":
        return _evg_python(hg, method, sort_by_degree)
    return _evg_numpy(hg, sort_by_degree)


def _evg_python(
    hg: TaskHypergraph, method: str, sort_by_degree: bool
) -> HyperSemiMatching:
    o = _expected_loads(hg)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w
    deg = hg.task_degrees().astype(np.float64)

    for v in _visit_order(hg, sort_by_degree):
        dv = deg[v]
        hedges = hg.task_hedge_ids(v)
        pin_slices = [hprocs[hptr[h] : hptr[h + 1]] for h in hedges]

        # Realising candidate h changes o only on v's own pin union:
        # every sibling h' loses its w_h'/d_v share, then h adds w_h.
        aff = np.unique(np.concatenate(pin_slices))  # sorted union
        common = o[aff].copy()
        for h, pins in zip(hedges, pin_slices):
            common[np.searchsorted(aff, pins)] -= w[h] / dv

        best_i = 0
        if len(hedges) > 1:
            if method == "naive":
                best_vec: np.ndarray | None = None
                for i, (h, pins) in enumerate(zip(hedges, pin_slices)):
                    scenario = o.copy()
                    for h2, pins2 in zip(hedges, pin_slices):
                        scenario[pins2] -= w[h2] / dv
                    scenario[pins] += w[h]
                    vec = sorted_desc(scenario)
                    if best_vec is None or lex_compare_desc(vec, best_vec) < 0:
                        best_vec = vec
                        best_i = i
            else:
                best_vals: np.ndarray | None = None
                for i, (h, pins) in enumerate(zip(hedges, pin_slices)):
                    vals = common.copy()
                    vals[np.searchsorted(aff, pins)] += w[h]
                    if best_vals is None or (
                        lex_compare_multisets(vals, best_vals) < 0
                    ):
                        best_vals = vals
                        best_i = i

        best_h = int(hedges[best_i])
        hedge_of_task[v] = best_h
        # commit: o restricted to aff becomes the realised scenario
        final = common.copy()
        final[np.searchsorted(aff, pin_slices[best_i])] += w[best_h]
        o[aff] = final

    return HyperSemiMatching(hg, hedge_of_task)


def _evg_numpy(
    hg: TaskHypergraph, sort_by_degree: bool
) -> HyperSemiMatching:
    # Prologue: everything that does not read o is computed once, in
    # array passes — pointer arrays as Python lists (cheaper to index
    # than ndarrays), each pin's share w/d_v (elementwise float64
    # division, the same bits as a per-task pin_w / d_v), whether a
    # task's candidates are pin-disjoint, and the candidate-row
    # addition blocks (_row_blocks).  The loop is then a gather, a
    # subtraction, a broadcast add, lex_best_row and a scatter per task.
    ci = compile_instance(hg)
    o = _expected_loads(hg)
    chosen = [0] * hg.n_tasks
    tptr_arr = hg.task_ptr
    tptr = tptr_arr.tolist()
    uptr = ci.u_ptr.tolist()
    ghedge = ci.g_hedge.tolist()
    uprocs, pin_pos = ci.u_procs, ci.g_pin_pos
    pin_ptr_arr = ci.g_ptr[tptr_arr]
    pin_ptr = pin_ptr_arr.tolist()
    npins = np.diff(pin_ptr_arr)
    pin_task = np.repeat(np.arange(hg.n_tasks), npins)
    dv = np.diff(tptr_arr).astype(np.float64)
    pin_share = ci.g_pin_w / dv[pin_task]
    # pin-disjoint candidates put exactly one pin on each union slot, so
    # the siblings' withdrawal is one subtraction of per-slot shares
    disjoint_arr = npins == np.diff(ci.u_ptr)
    disjoint = disjoint_arr.tolist()
    ushare = np.zeros(uprocs.shape[0], dtype=np.float64)
    dpins = disjoint_arr[pin_task]
    ushare[ci.u_ptr[pin_task[dpins]] + pin_pos[dpins]] = pin_share[dpins]

    order = _visit_order(hg, sort_by_degree)
    for tasks, blocks, bptr in _row_blocks(ci, order):
        for t, v in enumerate(tasks):
            a, m = tptr[v], tptr[v + 1] - tptr[v]
            u0, u1 = uptr[v], uptr[v + 1]
            procs = uprocs[u0:u1]
            # every sibling withdraws its share; where candidates
            # overlap, subtract.at applies the shares elementwise in
            # candidate order, matching the Python loop's accumulation
            if disjoint[v]:
                common = o[procs] - ushare[u0:u1]
            else:
                p0, p1 = pin_ptr[v], pin_ptr[v + 1]
                common = o[procs]
                np.subtract.at(common, pin_pos[p0:p1], pin_share[p0:p1])
            rows = blocks[bptr[t] : bptr[t + 1]].reshape(m, -1) + common
            j = lex_best_row(rows) if m > 1 else 0
            chosen[v] = ghedge[a + j]
            # commit: o restricted to the union becomes the realised row
            o[procs] = rows[j]

    return HyperSemiMatching(hg, np.asarray(chosen, dtype=np.int64))
