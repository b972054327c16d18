#!/usr/bin/env python3
"""Monte Carlo trial-throughput benchmark for adasketch.

    python3 perfbench/run.py --workload adaptive-sparse --seed 1 --seconds 20 --trace 0

Runs one workload closed-loop in this process, one trial after another in a
fixed round-robin over the workload's cells. Each trial is the user path
``harness.estimate_error(ExperimentConfig(..., trials=1, seed=s_i))`` with
``s_i`` derived from ``--seed``, so stream derivation, the cost-cap
assertion, ``lp_norm`` and stage accounting are all timed.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs every trial twice for ``--seconds``, once plain and once
with every adasketch call site wrapped (see ``tracer.py``), checks that the
two agree bit for bit and prints the per-layer metrics.

Every metric is printed with its unit. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics in it are the ones ``BENCHMARK.json`` lists for the
mode. The exit code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# numpy and adasketch are imported inside functions: BLAS must be pinned
# before numpy loads, and their import time belongs to setup_s.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

P, Q = 1.0, 2.0
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # for confirming a claim on a seed nobody tuned on
SETUP_RUNS = 3        # this process plus two fresh ones; setup_s is the median
P90_MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# workload -> (m, cells); a cell is (method, make_method knobs, family)
WORKLOADS = {
    # criterion 07's setting at L = 6: the O(m) equi-hash permutation and the
    # per-bucket sign-filter loop dominate; spot and the reads are nearly free
    "adaptive-sparse": (2**16, [
        ("adaptive", {"levels": 6, "reps": 2, "variant": "preconditioned"}, family)
        for family in ("spikes:1", "spikes:8", "spikes:64", "geometric")
    ]),
    # every bucket is live: the filter draws 701 x m sign bits and measures
    # every bucket, zero-tail sampling never fires, the permutation is cheap
    "adaptive-dense": (2**12, [
        ("adaptive", {"levels": 4, "reps": 2, "variant": "preconditioned"},
         "uniform_ball"),
    ]),
    # the compare methods that never call the sign filter
    "unfiltered": (2**12, [
        ("adaptive", {"levels": 2, "reps": 2, "variant": "basic"}, "uniform_ball"),
        ("linsketch_denoised", {"budget": 2000}, "uniform_ball"),
        ("countsketch_denoised", {"budget": 20000}, "uniform_ball"),
    ]),
}

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "setup_s": "s",
    "measurements_per_trial": "count",
    "err_q": "1",
    "peak_rss_mb": "MB",
    "failed_trial_frac": "frac",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, bad BENCHMARK.json)."""


@dataclass(frozen=True)
class Cell:
    method: object              # adasketch.harness.Method
    family: object              # adasketch.families.VectorFamily
    exact_cost: int | None      # baselines: the cost every trial must charge
    error_bound: float | None   # adaptive: AdaptivePlan.error_bound()


@dataclass
class Trial:
    cell: int
    seconds: float
    err: float = math.nan
    cost: float = math.nan
    stages: dict | None = None
    failure: str | None = None


def pin_blas():
    """One BLAS thread: linsketch matmuls would otherwise fight for the cores."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_adasketch():
    """Import adasketch from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "adasketch" / "__init__.py").is_file():
        raise BenchmarkError(f"no adasketch source tree under {src}")
    sys.path.insert(0, str(src))
    import adasketch
    if Path(adasketch.__file__).resolve().parent != src / "adasketch":
        raise BenchmarkError(f"imported adasketch from {adasketch.__file__}")
    return adasketch


def listed_metrics(trace):
    """``{name: unit}`` that BENCHMARK.json lists for the mode."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
        entries = spec["per_layer" if trace else "end_to_end"]
        return {entry["name"]: entry["unit"] for entry in entries}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchmarkError(f"cannot read the metric list in {path}: {exc}")


def trial_seed(seed, index):
    """Experiment seed of trial ``index`` (warm-ups use negative indices)."""
    digest = hashlib.blake2b(f"perfbench/{seed}/{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little") >> 1


def build_cells(ada, workload):
    m, specs = WORKLOADS[workload]
    cells = []
    for name, knobs, family in specs:
        method = ada.harness.make_method(name, m, P, Q, **knobs)
        exact_cost = error_bound = None
        if name == "adaptive":
            plan = ada.adaptive.AdaptivePlan(m=m, p=P, q=Q, levels=method.levels,
                                             reps=method.reps, variant=method.variant)
            error_bound = plan.error_bound()
        elif name == "linsketch_denoised":
            exact_cost = knobs["budget"]
        elif name == "countsketch_denoised":
            reps, groups = ada.nonadaptive.countsketch_params(method.levels, m)
            exact_cost = reps * groups
        cells.append(Cell(method, ada.families.VectorFamily.parse(family, P),
                          exact_cost, error_bound))
    return m, cells


def run_trial(ada, m, cells, index, seed):
    cell = cells[index % len(cells)]
    start = time.perf_counter()
    try:
        cfg = ada.harness.ExperimentConfig(method=cell.method, family=cell.family,
                                           m=m, q=Q, trials=1, seed=seed)
        est = ada.harness.estimate_error(cfg)
    except Exception as exc:  # one failed trial must not end the run
        seconds = time.perf_counter() - start
        failure = f"{type(exc).__name__}: {exc}"
        print(f"trial {index} (seed {seed}) failed: {failure}", file=sys.stderr)
        return Trial(index % len(cells), seconds, failure=failure)
    seconds = time.perf_counter() - start
    trial = Trial(index % len(cells), seconds, est.qmoment_err, est.mean_cost,
                  est.stage_costs)
    if cell.exact_cost is not None and est.mean_cost != cell.exact_cost:
        trial.failure = f"cost {est.mean_cost} differs from exact {cell.exact_cost}"
        print(f"trial {index} (seed {seed}) failed: {trial.failure}", file=sys.stderr)
    return trial


def set_up(workload, seed):
    """Import, build the cells and warm every cell up; returns its wall time."""
    start = time.perf_counter()
    ada = load_adasketch()
    m, cells = build_cells(ada, workload)
    warm_ups = [run_trial(ada, m, cells, c, trial_seed(seed, -1 - c))
                for c in range(len(cells))]
    return ada, m, cells, warm_ups, time.perf_counter() - start


def run_loop(ada, m, cells, seed, seconds):
    """Closed loop: trial after trial for ``seconds`` of wall time."""
    trials = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = len(trials)
        trials.append(run_trial(ada, m, cells, index, trial_seed(seed, index)))
    return trials, time.perf_counter() - start


def qmoment(errors):
    """The harness's q-moment error over a run: mean(err^q)^(1/q)."""
    import numpy as np
    errors = np.asarray(errors, dtype=np.float64)
    return float(np.mean(errors ** Q) ** (1.0 / Q)) if errors.size else math.nan


def outcome(trials, cells):
    """Run-level numbers that need no clock, plus the gates they fail."""
    ok = [t for t in trials if t.failure is None]
    stages = {}
    for trial in ok:
        for stage, amount in trial.stages.items():
            stages[stage] = stages.get(stage, 0) + amount
    result = {
        "err_q": qmoment([t.err for t in ok]),
        "measurements_per_trial": statistics.fmean(t.cost for t in ok) if ok else math.nan,
        "failed_trial_frac": (len(trials) - len(ok)) / max(len(trials), 1),
        "stage_costs": {s: a / max(len(ok), 1) for s, a in sorted(stages.items())},
    }
    gates = []
    if len(ok) < len(trials):
        gates.append(f"{len(trials) - len(ok)} of {len(trials)} trials failed")
    for bound in sorted({c.error_bound for c in cells if c.error_bound is not None}):
        members = {i for i, c in enumerate(cells) if c.error_bound == bound}
        err_q = qmoment([t.err for t in ok if t.cell in members])
        if not err_q <= bound:
            gates.append(f"adaptive err_q {err_q!r} exceeds the plan's bound {bound!r}")
    return result, gates


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_in_fresh_process(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS itself, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = {line.split()[-1] for line in handle
                         if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libraries = set()
    for library in sorted(libraries):
        try:
            lib = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return function()
    return f"{BLAS_THREAD_VARS[0]}={os.environ.get(BLAS_THREAD_VARS[0])}"


def machine_metadata(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "workload_seed": seed,
    }


def _show(name, value, unit, note=""):
    text = "absent" if value is None else f"{value:.6g}"
    print(f"  {name:34s} {text:>14s} {unit:12s} {note}".rstrip())


def result_line(correct, attempted, failed, values, listed):
    """The result object; an absent or undefined value reads 0."""
    metrics = {}
    for name, unit in listed.items():
        value = values.get(name)
        if value is None or not math.isfinite(value):
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def untraced_run(args):
    ada, m, cells, warm_ups, setup_s = set_up(args.workload, args.seed)
    trials, wall = run_loop(ada, m, cells, args.seed, args.seconds)
    rss = peak_rss_mb()
    setups = [setup_s] + [setup_in_fresh_process(args.workload, args.seed)
                          for _ in range(SETUP_RUNS - 1)]

    numbers, gates = outcome(trials, cells)
    gates += [f"warm-up of cell {t.cell} failed: {t.failure}"
              for t in warm_ups if t.failure]
    times = sorted(t.seconds * 1e3 for t in trials if t.failure is None)
    values = {
        "trials_per_s": len(times) / wall,
        "trial_ms_p50": statistics.median(times) if times else math.nan,
        "trial_ms_p90": (statistics.quantiles(times, n=10)[8]
                         if len(times) >= 2 else math.nan),
        "setup_s": statistics.median(setups),
        "measurements_per_trial": numbers["measurements_per_trial"],
        "err_q": numbers["err_q"],
        "peak_rss_mb": rss,
        "failed_trial_frac": numbers["failed_trial_frac"],
    }
    bounds = sorted({c.error_bound for c in cells if c.error_bound is not None})
    notes = {
        "trial_ms_p50": f"samples {len(times)}",
        "trial_ms_p90": f"samples {len(times)}" + (
            "" if len(times) >= P90_MIN_SAMPLES
            else f" (fewer than {P90_MIN_SAMPLES}: p90 is rough)"),
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "err_q": "adaptive bound " + ", ".join(f"{b:.6g}" for b in bounds) if bounds else "",
    }
    print("end-to-end metrics:")
    for name, unit in END_TO_END.items():
        _show(name, values[name], unit, notes.get(name, ""))
    print("oracle cost per trial, by stage (free):")
    for stage, amount in numbers["stage_costs"].items():
        _show(f"oracle.cost.{stage}", amount, "count/trial")
    failed = sum(t.failure is not None for t in trials)
    return gates, len(trials), failed, values


def traced_run(args):
    import tracer as tracing

    ada, m, cells, warm_ups, _ = set_up(args.workload, args.seed)
    tracer = tracing.Tracer()

    def traced_trial(index, seed):
        tracer.install(ada)
        tracer.start_trial(index)
        try:
            trial = run_trial(ada, m, cells, index, seed)
        finally:
            tracer.remove()
        tracer.finish_trial(trial.stages)
        return trial

    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        index = len(plain)
        seed = trial_seed(args.seed, index)
        # alternate which copy runs first, so neither always gets warm caches
        if index % 2:
            traced.append(traced_trial(index, seed))
        plain.append(run_trial(ada, m, cells, index, seed))
        if not index % 2:
            traced.append(traced_trial(index, seed))

    plain_numbers, gates = outcome(plain, cells)
    traced_numbers, traced_gates = outcome(traced, cells)
    gates += traced_gates
    gates += [f"warm-up of cell {t.cell} failed: {t.failure}"
              for t in warm_ups if t.failure]
    if tracer.failures:
        trial, reason = tracer.failures[0]
        gates.append(f"{len(tracer.failures)} traced trials failed the output "
                     f"check, first trial {trial}: {reason}")
    for key in ("err_q", "measurements_per_trial", "stage_costs"):
        if repr(plain_numbers[key]) != repr(traced_numbers[key]):
            gates.append(f"traced {key} {traced_numbers[key]!r} differs from "
                         f"untraced {plain_numbers[key]!r}")
    differing = [i for i, (a, b) in enumerate(zip(plain, traced))
                 if (repr(a.err), a.cost, a.stages) != (repr(b.err), b.cost, b.stages)]
    if differing:
        gates.append(f"{len(differing)} traced trials differ from their untraced "
                     f"run, first {differing[0]}")

    overhead = (sum(t.seconds for t in traced) / sum(t.seconds for t in plain) - 1.0
                if plain else math.nan)
    values, absent = tracer.metrics(overhead)
    spans_path = OUT / f"spans-{args.workload}.npz"  # one file per workload
    tracer.write(spans_path, workload=args.workload, seed=args.seed)

    print(f"traced run: {len(traced)} trials, each also run untraced; "
          f"err_q {traced_numbers['err_q']!r}, measurements_per_trial "
          f"{traced_numbers['measurements_per_trial']!r} (both equal untraced)")
    print(f"spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
    print("per-layer metrics:")
    for name, unit in tracing.LAYER_METRICS.items():
        _show(name, None if name in absent else values[name], unit)
    if absent:
        print("absent: " + ", ".join(absent))
    reported = {name: (None if name in absent else values[name])
                for name in tracing.LAYER_METRICS}
    failed_trials = {i for i, t in enumerate(plain) if t.failure}
    failed_trials |= {i for i, t in enumerate(traced) if t.failure}
    failed_trials |= {trial for trial, _ in tracer.failures}
    return gates, len(plain), len(failed_trials), reported


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall time the timed loop runs (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up in a fresh process
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    pin_blas()
    try:
        if args.setup_only:
            *_, setup_s = set_up(args.workload, args.seed)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        listed = listed_metrics(args.trace)
        if args.trace:
            import tracer
            known = tracer.LAYER_METRICS
        else:
            known = END_TO_END
        unknown = {n: u for n, u in listed.items() if known.get(n) != u}
        if unknown:
            raise BenchmarkError(f"BENCHMARK.json lists unknown metrics {unknown}")
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        run = traced_run if args.trace else untraced_run
        gates, attempted, failed, values = run(args)
        print("meta: " + json.dumps(machine_metadata(args.seed)))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for gate in gates:
        print(f"GATE FAILED: {gate}")
    if not gates:
        print("gates: all passed")
    print(result_line(not gates, attempted, failed, values, listed))
    return 0 if not gates else 1


if __name__ == "__main__":
    sys.exit(main())
