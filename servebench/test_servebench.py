"""Fast tests of the benchmark itself: inputs, checks, the ledger, and a
short pass of every workload in both modes.

Run from the root of a checkout: ``python3 -m pytest servebench -q``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import drive  # noqa: E402
import inputs  # noqa: E402
import ledger  # noqa: E402
from repro.core.validation import makespan_hypergraph  # noqa: E402
from repro.engine.cache import instance_digest  # noqa: E402
from repro.service.client import RemoteSolveResult  # noqa: E402

WORKLOADS = ("large_closed", "mixed_closed")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, seconds: float = 1.5, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("servebench", "run.py"),
         "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_mixed_stream_is_seeded_and_keeps_its_mix():
    a, b, c = (inputs.MixedStream(s) for s in (3, 3, 4))
    reqs_a = [a.next() for _ in range(2 * inputs.BLOCK)]
    reqs_b = [b.next() for _ in range(2 * inputs.BLOCK)]
    reqs_c = [c.next() for _ in range(2 * inputs.BLOCK)]
    key = instance_digest
    assert [key(r.instance) for r in reqs_a] == [key(r.instance) for r in reqs_b]
    assert [key(r.instance) for r in reqs_a] != [key(r.instance) for r in reqs_c]
    block = reqs_a[inputs.BLOCK:]
    assert sum(r.cls == "small" for r in block) == inputs.BLOCK_SMALL
    assert sum(r.resend for r in block) == inputs.RESEND_SMALL + inputs.RESEND_MEDIUM
    # the measured repeat share counts exactly the resends
    shares = inputs.sharing([r.instance for r in reqs_a])
    assert shares["repeat_share"] == sum(r.resend for r in reqs_a) / len(reqs_a)
    # a resend is byte-identical: the very same wire dict
    resend = next(r for r in block if r.resend)
    assert any(r.wire is resend.wire for r in reqs_a if not r.resend)


def test_closed_depth_keeps_depth_requests_in_flight():
    class Client:
        inflight = peak = 0
        sent: list = []

        async def solve(self, payload, options):
            self.sent.append(payload)
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            await asyncio.sleep(0.001)
            self.inflight -= 1
            return "answer"

    client = Client()
    phase = asyncio.run(drive.closed_depth(
        client, inputs.MixedStream(1), float("inf"), limit=10
    ))
    assert len(phase.ops) == len(client.sent) == 10
    assert client.peak == drive.DEPTH
    assert all(isinstance(w, dict) for w in client.sent)
    # wire dicts are not kept past the send; the instance is, for checks
    assert all(o.request.wire is None and o.reply == "answer" for o in phase.ops)
    assert all(o.latency_s > 0 for o in phase.ops)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _answer(hg, assignment, makespan):
    return RemoteSolveResult.from_wire(
        {"assignment": list(map(int, assignment)), "makespan": makespan}
    )


def test_check_solves_flags_wrong_answers():
    base = inputs.base_structure(inputs.SMALL, np.random.default_rng(0))
    hg = inputs.with_fresh_weights(base, np.random.default_rng(1))
    assignment = np.array([
        np.flatnonzero(hg.hedge_task == i)[0] for i in range(hg.n_tasks)
    ])
    good = makespan_hypergraph(hg, assignment)
    req = inputs.SolveRequest(hg, "small")
    ops = [
        drive.Op(req, reply=_answer(hg, assignment, good)),
        drive.Op(req, reply=_answer(hg, assignment, good + 1.0)),
        drive.Op(req, reply=_answer(hg, assignment[::-1], good)),
    ]
    notes = drive.check_solves(ops)
    assert len(notes) == 2
    assert ops[0].error is None and ops[0].ratio >= 1.0
    assert ops[1].error.startswith("check:") and ops[2].error.startswith("check:")


# ----------------------------------------------------------------------
# ledger arithmetic
# ----------------------------------------------------------------------
def test_window_figures_cover_every_slice():
    # per-quarter server CPU 1, 3, 1, 2 s over 10 ops each
    cpu = [0.0, 1.0, 4.0, 5.0, 7.0]
    phase = drive.Phase(
        samples=[(float(t), c, 50.0 + t) for t, c in enumerate(cpu)]
    )
    for t in range(4):
        for k in range(10):
            phase.ops.append(drive.Op(None, start_s=t + k / 10, latency_s=t))
    assert (phase.seconds, phase.cpu_s, phase.rss_mb()) == (4.0, 7.0, 52.0)
    assert sorted(set(phase.latencies())) == [0.0, 1.0, 2.0, 3.0]
    assert phase.slice_costs_ms() == pytest.approx([100.0, 300.0, 100.0, 200.0])


def test_self_time_subtracts_children():
    tracer = ledger.Tracer()
    with tracer.span("request", 0):
        with tracer.span("a", 0):
            with tracer.span("b", 0):
                pass
    for rec, (start, end) in zip(tracer.spans, [(0, 10), (1, 6), (2, 4)]):
        rec["start"], rec["end"] = start / 1e3, end / 1e3
    rows = tracer.self_times_ms()[0]
    assert rows["request"] == pytest.approx(5.0)
    assert rows["a"] == pytest.approx(3.0)
    assert rows["b"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------
_ORPHAN_SCRIPT = """
import subprocess, sys
import procs
procs.adopt_orphans()
# a child that starts a long sleeper and exits, orphaning it
out = subprocess.run(
    [sys.executable, "-c",
     "import subprocess, sys; print(subprocess.Popen("
     "[sys.executable, '-c', 'import time; time.sleep(120)'], "
     "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).pid)"],
    capture_output=True, text=True, check=True,
)
orphan = int(out.stdout)
adopted = procs.process_tree(procs.os.getpid())
procs.reap()
print(orphan, orphan in adopted)
"""


def test_reap_stops_and_waits_for_orphaned_descendants():
    out = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        cwd=os.path.join(ROOT, "servebench"),
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    pid, adopted = out.stdout.split()
    assert adopted == "True"
    assert not os.path.exists(f"/proc/{pid}")


# ----------------------------------------------------------------------
# a short pass of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_pass(workload):
    out = _run(workload, trace=0)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_share 0.0000" in out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_ledger_sums_to_the_client_p50(workload):
    out = _run(workload, trace=1)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    rows = re.findall(r"^  ([a-z_.]+)\s+(-?[\d.]+)$", out.stdout, re.M)
    assert {"service.client.encode", "service.client.decode"} <= {
        name for name, _ in rows
    }
    metrics = result["metrics"]
    layers = [v for name, v in rows if name != "service.server.unattributed"]
    assert len(layers) == 8
    total = sum(float(v) for v in layers)
    total += metrics["service.server.unattributed_ms"]["value"]
    assert total == pytest.approx(
        metrics["service.client.p50_ms"]["value"], abs=1e-3 * len(layers)
    )


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "servebench"), tmp_path / "servebench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    out = _run("mixed_closed", trace=0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip()
