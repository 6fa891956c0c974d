"""Differential conformance harness: every registered solver, one oracle.

A shared corpus of generator instances (x3c, hilo, fewgmanyg,
multiproc, adversarial — unit and weighted, hypergraph- and
bipartite-shaped, plus tiny instances for the exhaustive oracle) is run
through **every** solver in the registry, and each (solver, instance)
pair is held to the same invariants:

* the result is a valid semi-matching on the right instance;
* its reported bottleneck equals an independent load recomputation;
* the optimality gap against the library's lower bounds is >= 0;
* a fixed seed makes the solve deterministic (bit-equal re-run);
* for every backend-aware solver, ``backend="numpy"`` returns a
  **bit-identical** matching to ``backend="python"`` — the contract
  that lets the kernel core keep rewriting hot paths safely;
* the ``incremental`` solver additionally conforms *via replay*: after
  replaying a churn trace, its maintained state matches a fresh
  recomputation and a second replay of the same trace bit-for-bit.

New solvers join the harness automatically at registration — there is
nothing to edit here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    expected_vector_greedy_hyp,
    vector_greedy_hyp,
)
from repro.api import SolveOptions, get_registry
from repro.core import TaskHypergraph
from repro.core.validation import (
    assert_valid_hyper_semi_matching,
    compute_loads_hypergraph,
)
from repro.algorithms.lower_bounds import averaged_work_bound
from repro.dynamic import DynamicInstance, IncrementalSolver
from repro.engine.dispatch import solve_hypergraph
from repro.generators import (
    churn_trace,
    double_sorted_fooler,
    expected_greedy_fooler,
    fig3_family,
    fewgmanyg_bipartite,
    generate_multiproc,
    hilo_bipartite,
    planted_x3c,
    x3c_to_multiproc,
)

from strategies import generated_instances

# ---------------------------------------------------------------------------
# the shared corpus
# ---------------------------------------------------------------------------


def _weighted(hg: TaskHypergraph, seed: int) -> TaskHypergraph:
    rng = np.random.default_rng(seed)
    return hg.with_weights(
        rng.integers(1, 9, size=hg.n_hedges).astype(float)
    )


def _corpus() -> list[tuple[str, TaskHypergraph]]:
    entries: list[tuple[str, TaskHypergraph]] = []
    # multiproc generator families (the paper's step-1/step-2 pipeline)
    for family, scheme in [
        ("fewgmanyg", "unit"),
        ("fewgmanyg", "related"),
        ("hilo", "random"),
    ]:
        entries.append(
            (
                f"multiproc-{family}-{scheme}",
                generate_multiproc(
                    48, 12, family=family, g=4, dv=3, dh=4,
                    weights=scheme, seed=7,
                ),
            )
        )
    # X3C reduction instances (unit, hypergraph-shaped)
    entries.append(
        (
            "x3c-planted",
            x3c_to_multiproc(planted_x3c(5, extra_triples=10, seed=3)),
        )
    )
    # bipartite-shaped instances (reachable by SINGLEPROC solvers)
    entries.append(
        (
            "hilo-bipartite-unit",
            TaskHypergraph.from_bipartite(hilo_bipartite(24, 8, 4, 3)),
        )
    )
    fg = TaskHypergraph.from_bipartite(
        fewgmanyg_bipartite(24, 8, 4, 3, seed=5)
    )
    entries.append(("fewgmanyg-bipartite-unit", fg))
    entries.append(
        ("fewgmanyg-bipartite-weighted", _weighted(fg, seed=11))
    )
    # adversarial worst cases from the paper's figures
    entries.append(
        (
            "adversarial-fig3",
            TaskHypergraph.from_bipartite(fig3_family(3)),
        )
    )
    entries.append(
        (
            "adversarial-double-sorted",
            TaskHypergraph.from_bipartite(double_sorted_fooler()),
        )
    )
    entries.append(
        (
            "adversarial-expected-greedy",
            TaskHypergraph.from_bipartite(expected_greedy_fooler()),
        )
    )
    # tiny instances the exhaustive oracle can afford
    entries.append(
        (
            "tiny-hypergraph",
            generate_multiproc(
                6, 4, g=2, dv=2, dh=2, weights="random", seed=1
            ),
        )
    )
    entries.append(
        (
            "tiny-unit",
            generate_multiproc(
                5, 4, g=2, dv=2, dh=2, weights="unit", seed=2
            ),
        )
    )
    return entries


CORPUS = _corpus()
#: instance count the branch-and-bound oracle is allowed to see
_EXHAUSTIVE_MAX_TASKS = 6


def _compatible(spec, hg: TaskHypergraph) -> bool:
    """Can ``spec`` legally run on ``hg``?  (Mirrors the engine's
    capability guards, plus a size cap for the exponential oracle.)"""
    if spec.domain == "bipartite" and not hg.is_bipartite_graph():
        return False
    if "unit_only" in spec.capabilities and not hg.is_unit:
        return False
    if (
        spec.domain == "hypergraph"
        and "exact" in spec.capabilities
        and hg.n_tasks > _EXHAUSTIVE_MAX_TASKS
    ):
        return False
    return True


def _pairs():
    for spec in get_registry():
        for name, hg in CORPUS:
            if _compatible(spec, hg):
                yield pytest.param(
                    spec.name, name, id=f"{spec.name}-{name}"
                )


def _solve(hg, solver, **kw):
    return solve_hypergraph(hg, method=solver, seed=0, **kw)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("solver,instance", list(_pairs()))
def test_solver_conformance(solver, instance):
    hg = dict(CORPUS)[instance]
    spec = get_registry().resolve(solver)
    m = _solve(hg, solver)

    # 1. validity on the *caller's* instance
    assert_valid_hyper_semi_matching(hg, m.hedge_of_task)

    # 2. reported bottleneck == independent recomputation
    oracle_loads = compute_loads_hypergraph(hg, m.hedge_of_task)
    assert np.array_equal(m.loads(), oracle_loads)
    assert m.makespan == (
        float(oracle_loads.max()) if oracle_loads.size else 0.0
    )

    # 3. gap >= 0 against the library's lower bounds
    assert m.makespan >= averaged_work_bound(hg, integral=False) - 1e-9

    # 4. deterministic under a fixed seed
    again = _solve(hg, solver)
    assert np.array_equal(m.hedge_of_task, again.hedge_of_task)

    # 5. backend conformance: numpy bit-equal to the python oracle
    if spec.needs_backend:
        py = _solve(hg, solver, backend="python")
        assert np.array_equal(m.hedge_of_task, py.hedge_of_task), (
            "numpy kernels diverged from the python oracle"
        )


@pytest.mark.parametrize(
    "solver",
    [s.name for s in get_registry() if s.needs_backend],
)
def test_refined_backend_conformance(solver):
    """``solver+ls`` (kernelised local search on top) stays bit-equal
    across backends on the full corpus."""
    for name, hg in CORPUS:
        if not _compatible(get_registry().resolve(solver), hg):
            continue
        fast = _solve(hg, f"{solver}+ls")
        slow = _solve(hg, f"{solver}+ls", backend="python")
        assert np.array_equal(
            fast.hedge_of_task, slow.hedge_of_task
        ), f"{solver}+ls diverged on {name}"


def test_portfolio_backend_conformance():
    """The full default portfolio race is backend-invariant."""
    for name, hg in CORPUS:
        if hg.is_bipartite_graph():
            continue
        fast = solve_hypergraph(hg, method="portfolio", seed=0)
        slow = solve_hypergraph(
            hg, method="portfolio", seed=0, backend="python"
        )
        assert np.array_equal(
            fast.hedge_of_task, slow.hedge_of_task
        ), f"portfolio diverged on {name}"


def test_backend_is_part_of_options_and_cache_key():
    opts_np = SolveOptions(method="EVG")
    opts_py = SolveOptions(method="EVG", backend="python")
    assert opts_np.cache_token() != opts_py.cache_token()
    with pytest.raises(ValueError, match="backend"):
        SolveOptions(method="EVG", backend="matlab")


# ---------------------------------------------------------------------------
# the incremental solver conforms via replay
# ---------------------------------------------------------------------------
def _replay(hg, trace):
    inst = DynamicInstance.from_hypergraph(hg)
    solver = IncrementalSolver(inst)
    inst.replay(trace)
    return inst, solver


@pytest.mark.parametrize(
    "instance",
    [n for n, hg in CORPUS if not hg.is_bipartite_graph()][:2],
)
def test_incremental_conformance_via_replay(instance):
    hg = dict(CORPUS)[instance]
    trace = churn_trace(hg, 25, seed=13)

    inst, solver = _replay(hg, trace)
    matching = solver.matching()  # validates on construction
    final = inst.to_hypergraph()

    # maintained loads equal an independent recomputation on the final
    # content, and the bottleneck is the recomputed maximum
    oracle = compute_loads_hypergraph(final, matching.hedge_of_task)
    assert np.allclose(matching.loads(), oracle)
    assert solver.bottleneck() == pytest.approx(
        float(oracle.max()) if oracle.size else 0.0
    )
    assert matching.makespan >= (
        averaged_work_bound(final, integral=False) - 1e-9
    )

    # deterministic: replaying the same trace reproduces the state
    inst2, solver2 = _replay(hg, trace)
    assert inst2.digest() == inst.digest()
    assert solver2.assignment() == solver.assignment()


# ---------------------------------------------------------------------------
# the vector heuristics on fractional weights
# ---------------------------------------------------------------------------
#: weights whose shares w/d_v are inexact, so EVG's withdrawn shares can
#: leave a few-ulp residual of either sign
_FRACTIONS = [0.1, 0.2, 0.7, 1 / 3, 2.5, 0.05]


def test_vector_heuristics_conform_on_negative_share_residuals(
    lex_fallbacks,
):
    """EVG's numpy path takes lex_best_row's sign-bit fallback on this
    instance (a -3.5e-17 share residual lands in a candidate row) and
    still matches the python oracle; VGH is held to the same."""
    hg = TaskHypergraph.from_configurations(
        [[[0, 1], [1], [1]], [[1], [0], [0, 1]]], n_procs=2
    ).with_weights([0.7, 0.7, 0.2, 0.7, 0.7, 0.1])
    fast = expected_vector_greedy_hyp(hg)
    assert lex_fallbacks[0] > 0, "the fallback selection never ran"
    slow = expected_vector_greedy_hyp(hg, backend="python")
    assert np.array_equal(fast.hedge_of_task, slow.hedge_of_task)
    assert np.array_equal(
        vector_greedy_hyp(hg).hedge_of_task,
        vector_greedy_hyp(hg, backend="python").hedge_of_task,
    )


@given(generated_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_vector_heuristics_conform_on_fractional_weights(hg, data):
    weights = data.draw(
        st.lists(
            st.sampled_from(_FRACTIONS),
            min_size=hg.n_hedges,
            max_size=hg.n_hedges,
        )
    )
    hg = hg.with_weights(weights)
    for solve in (expected_vector_greedy_hyp, vector_greedy_hyp):
        assert np.array_equal(
            solve(hg).hedge_of_task,
            solve(hg, backend="python").hedge_of_task,
        ), solve.__name__


def test_vector_heuristics_conform_across_block_windows(monkeypatch):
    """Instances whose addition blocks exceed the budget build them in
    windows of the visit order; a tiny budget forces one window per few
    tasks and the matchings stay bit-identical."""
    from repro.algorithms import greedy_hypergraph

    monkeypatch.setattr(greedy_hypergraph, "_BLOCK_BUDGET", 16)
    for seed in range(4):
        hg = generate_multiproc(
            60, 12, g=4, dv=3, dh=4, weights="random", seed=seed
        )
        for solve in (expected_vector_greedy_hyp, vector_greedy_hyp):
            assert np.array_equal(
                solve(hg).hedge_of_task,
                solve(hg, backend="python").hedge_of_task,
            ), (solve.__name__, seed)
