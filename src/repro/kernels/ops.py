"""Vectorized kernels over :class:`~repro.kernels.CompiledKernels` arrays.

Each kernel batches the exact floating-point operations of the Python
loop it replaces (same values, same accumulation order), so results are
bit-identical — the conformance harness holds every solver to that.

Ranking kernels compare candidates over the *task's full pin-union*
instead of pairwise unions; by the multiset lemma of
:mod:`repro.core.loadvec` (untouched loads cancel) the descending-lex
order is unchanged.  The lemma holds for any totally ordered values, so
it applies verbatim to the IEEE doubles being compared.

The sequential frontier
-----------------------
The greedy heuristics (SGH/VGH/EGH/EVG) carry a loop these kernels
cannot absorb: task ``v``'s decision reads the loads committed by every
earlier task, so the per-task dependency chain is irreducible — there is
no batched formulation over tasks without changing the algorithm (and
hence the matching).  What the numpy backend vectorizes is the *inner*
dimension (all of a task's candidates and pins at once); the outer loop
keeps a fixed per-task cost of ufunc dispatches and ndarray scalar
indexing, nearly independent of instance size.

So the loops are kept lean: whatever does not depend on the loads is
computed before the loop in array passes (pointer arrays as Python
lists, per-pin shares, per-task candidate-row addition blocks), and
the loop body is a few dispatches per task.  SGH was built this way
from the start; VGH and EVG now are too.  Per task on the Table I
family at n = 5120 (``fewgmanyg``, ``dv = 5``, ``dh = 10``; 2-vCPU
host, medians of repeated solves):

======  ===============================  ==========================
solver  per-task repeat/scatter loop     prologue + lean loop
======  ===============================  ==========================
SGH     ~6-8 µs                          (unchanged)
EGH     ~14-18 µs                        (unchanged)
VGH     ~24-28 µs                        ~14 µs, prologue included
EVG     ~29-30 µs                        ~16-18 µs, prologue included
======  ===============================  ==========================

Part of the VGH/EVG gain is their ranking step, :func:`lex_best_row`:
on 5 x 50 rows it went from ~11 µs (a key transform, a sort and a
Python loop over the keys) to ~7.5 µs (a sort and one ``argmin`` over
byte keys).  The Python oracle pays ~3 µs *per candidate pin list*, so
numpy speedups stay near 2-8x (``BENCH_kernels.json``) — not the
10-50x of the batch kernels below, whose work has no cross-item
dependency.  Squeezing the remaining per-step constant means removing
interpreter dispatch itself (a native/compiled loop), not more
vectorization.
"""

from __future__ import annotations

import numpy as np

from .compiled import flat_ranges

__all__ = [
    "loads_from_assignment",
    "lex_best_row",
    "batch_lex_signs",
    "first_lex_improving",
    "lex_move_sign",
]


def loads_from_assignment(hg, hedge_of_task: np.ndarray) -> np.ndarray:
    """Per-processor loads of an assignment, accumulated in task order.

    The batched form of ``for h in hedge_of_task: loads[pins(h)] += w[h]``
    (``np.add.at`` applies elementwise in index order, so the float
    accumulation order — and therefore every bit of the result — matches
    the loop).
    """
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    hedges = np.ascontiguousarray(hedge_of_task, dtype=np.int64)
    if hedges.size == 0:
        return loads
    sizes = np.diff(hg.hedge_ptr)[hedges]
    idx = flat_ranges(hg.hedge_ptr[:-1][hedges], sizes)
    np.add.at(
        loads, hg.hedge_procs[idx], np.repeat(hg.hedge_w[hedges], sizes)
    )
    return loads


#: Sign bit of the IEEE-754 binary64 layout.
_SIGN = np.uint64(0x8000000000000000)


def _inv_sort_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of (m, k) ``rows`` → one byte string whose ``memcmp``
    order is the *reverse* of the row's descending-lex multiset order
    (memcmp-larger == lex-smaller).

    Each double maps through the inverted IEEE total-order trick
    (``~(bits | sign)`` for non-negatives, raw bits for negatives) — a
    strictly *decreasing* uint64 key for NaN-free floats (the kernels
    never produce NaN); ``-0.0`` is not negative, so it gets the key
    of ``0.0`` and the two rank equal, as they compare.  Sorting the
    inverted keys ascending therefore sorts the values descending in
    place, and the concatenated big-endian key bytes compare rows in
    one ``memcmp`` instead of a per-column loop.
    """
    rows = np.asarray(rows, dtype=np.float64)
    m, k = rows.shape
    if k == 0:
        return np.zeros(m, dtype="S1")
    u = np.ascontiguousarray(rows).view(np.uint64)
    inv = np.where(rows < 0, u, ~(u | _SIGN))
    inv.sort(axis=1)
    return inv.astype(">u8").view(f"S{8 * k}").ravel()


def lex_best_row(rows: np.ndarray) -> int:
    """Index of the descending-lex smallest row of ``rows`` (m, k).

    Rows are value multisets (unsorted); ties keep the smallest index,
    matching the strict-``<`` incumbent rule of the Python loops.

    Fast path: each row is sorted ascending as the int64 view of its
    doubles.  A double without its sign bit is non-negative, and its
    bits then order like its value, so if no row holds a set sign bit
    the reversed (descending) rows' big-endian bytes compare like the
    descending-lex order and one ``argmin`` over the byte strings picks
    the row (``argmin`` keeps the first index on ties).  Every double
    with a set sign bit — negatives, and ``-0.0``, whose bytes would
    rank it above every positive — is a negative int64 and so sorts to
    column 0, where one look at the row minima finds it; such rows take
    the inverted-IEEE key path of :func:`_inv_sort_keys`, which ranks
    ``-0.0`` equal to ``0.0`` as the oracle does.  Sorting the float
    values instead would not do: ``-0.0 == 0.0`` lets a ``-0.0`` sit
    behind a ``0.0`` minimum.  Both paths return the same index.  The
    greedy kernels' rows never carry ``-0.0`` (a ``+0.0`` addition
    block clears it) and only rarely a negative — a few ulps of share
    residual in EVG.

    This is the one lex-selection routine: the VGH and EVG loops call
    it once per task on rows formed from the addition blocks their
    prologue builds (see the sequential-frontier note above), so every
    dispatch saved here is saved ``n`` times per solve.
    """
    rows = np.asarray(rows, dtype=np.float64)
    m, k = rows.shape
    if m == 1 or k == 0:
        return 0
    bits = rows.view(np.int64).copy()
    bits.sort(axis=1)
    if min(bits[:, 0].tolist()) < 0:
        # memcmp-larger inverted key == lex-smaller row
        return int(_inv_sort_keys(rows).argmax())
    return int(bits[:, ::-1].astype(">i8").view(f"S{8 * k}").argmin())


def batch_lex_signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise descending-lex multiset comparison of ``a`` vs ``b``.

    Both are (m, k) matrices; rows may be padded with ``-inf`` (padding
    must match between ``a`` and ``b``, which maps to identical key
    bytes on both sides and cancels).  Returns an int array of
    -1/0/+1 per row — the batched
    :func:`repro.core.loadvec.lex_compare_multisets`.
    """
    ka = _inv_sort_keys(a)
    kb = _inv_sort_keys(b)
    # inverted keys: a memcmp-larger key means a lex-smaller multiset
    return (ka < kb).astype(np.int8) - (ka > kb).astype(np.int8)


def first_lex_improving(
    after: np.ndarray, before: np.ndarray
) -> int | None:
    """Index of the first row where ``after`` lex-improves on
    ``before`` (sign < 0), or ``None``.

    The shared acceptance rule of every first-improving-move scan
    (static local search and incremental repair): rows are candidate
    moves in scan order, padded identically with ``-inf``, and the
    earliest improving one wins.
    """
    improving = np.flatnonzero(batch_lex_signs(after, before) < 0)
    return int(improving[0]) if improving.size else None


def lex_move_sign(after: np.ndarray, before: np.ndarray) -> int:
    """Single-move evaluation: -1 when ``after`` improves on ``before``
    in descending-lex multiset order (the move-evaluation kernel; the
    incremental repair loop calls this per candidate move)."""
    return int(
        batch_lex_signs(
            np.asarray(after, dtype=np.float64)[None, :],
            np.asarray(before, dtype=np.float64)[None, :],
        )[0]
    )
