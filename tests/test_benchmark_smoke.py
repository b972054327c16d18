"""Smoke test of the benchmark scripts ``perfbench/run.py`` and ``perfbench/tracer.py``.

One trial per cell of every workload, through the benchmark's own set-up and
gates, untraced and under the call-site tracer, so removing or renaming a
library name or argument the benchmark resolves fails here. The timed runs
and the benchmark's self-test (``perfbench/selftest.py``) are not part of
this suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# spans whose observers read library arguments: discover(oracle, cfg, rng) with
# cfg.eps, Method.run, measure_rows(..., stage=...) and read_entries(indices)
OBSERVED_SPANS = ("discover.pass", "harness.Method.run", "oracle.measure_rows",
                  "oracle.read_entries")


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def bench():
    yield from _load("perfbench_run", "run.py")


@pytest.fixture(scope="module")
def tracing():
    yield from _load("perfbench_tracer", "tracer.py")


def test_every_workload_cell_runs_one_trial_within_its_gates(bench, tracing):
    ada = bench.load_adasketch()
    filter_measurements = {}
    for workload in sorted(bench.WORKLOADS):
        m, cells = bench.build_cells(ada, workload)
        tracer = tracing.Tracer()
        plain, traced = [], []
        for c in range(len(cells)):  # each trial also traced, as run.py's traced_run does
            seed = bench.trial_seed(bench.DEFAULT_SEED, c)
            plain.append(bench.run_trial(ada, m, cells, c, seed))
            tracer.install(ada)
            tracer.start_trial(c)
            try:
                traced.append(bench.run_trial(ada, m, cells, c, seed))
            finally:
                tracer.remove()
            tracer.finish_trial(traced[-1].stages)
        for trials in (plain, traced):
            assert [t.failure for t in trials] == [None] * len(cells), workload
            _, gates = bench.outcome(trials, cells)
            assert gates == [], workload
        assert not set(OBSERVED_SPANS) & set(tracer.absent), workload
        assert tracer.failures == [], workload
        assert [(repr(t.err), t.cost, t.stages) for t in traced] == \
               [(repr(t.err), t.cost, t.stages) for t in plain], workload
        values, _ = tracer.metrics(0.0)
        filter_measurements[workload] = values["precondition.measure_rows_calls"]
        # one traced discover call per detection pass (L * R per adaptive trial)
        passes = sum(c.method.levels * c.method.reps for c in cells
                     if c.method.name == "adaptive")
        assert values["discover.passes"] == pytest.approx(passes / len(cells)), workload
    assert filter_measurements["adaptive-sparse"] > 0
