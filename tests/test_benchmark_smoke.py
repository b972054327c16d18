"""Smoke test of the benchmark script ``perfbench/run.py``.

One trial per cell of every workload, through the benchmark's own set-up and
gates, so removing or renaming a library name the benchmark resolves fails
here. The timed runs and the benchmark's self-test (``perfbench/selftest.py``)
are not part of this suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_workload_cell_runs_one_trial_within_its_gates(bench):
    ada = bench.load_adasketch()
    for workload in sorted(bench.WORKLOADS):
        m, cells = bench.build_cells(ada, workload)
        trials = [bench.run_trial(ada, m, cells, c, bench.trial_seed(bench.DEFAULT_SEED, c))
                  for c in range(len(cells))]
        assert [t.failure for t in trials] == [None] * len(cells), workload
        _, gates = bench.outcome(trials, cells)
        assert gates == [], workload
