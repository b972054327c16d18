#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Smoke: runs every workload for one second, untraced and traced. Each run
   must exit 0, print every metric of its mode with its unit, and end with a
   result object that holds exactly the metrics BENCHMARK.json lists.
2. Forced failure: runs ``unfiltered`` in this process with one cell's
   declared cap set below the cost it charges (adasketch itself is not
   touched). The run must go on, count those trials in ``failed_trial_frac``
   and exit 1.
3. Missing source: runs the benchmark from a copy that holds only
   BENCHMARK.json and perfbench/. It must exit nonzero without a result line.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
import tracer

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def printed_units(stdout):
    """``{metric: unit}`` from the benchmark's indented metric lines."""
    units = {}
    for line in stdout.splitlines():
        fields = line.split()
        if line.startswith("  ") and len(fields) >= 3:
            units[fields[0]] = fields[2]
    return units


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def check_smoke(errors):
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            label = f"smoke {workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=180, check=False)
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            expected = tracer.LAYER_METRICS if trace else run.END_TO_END
            printed = printed_units(proc.stdout)
            for name, unit in expected.items():
                if printed.get(name) != unit:
                    errors.append(f"{label}: {name} not printed with unit {unit}")
            if "meta: " not in proc.stdout:
                errors.append(f"{label}: no machine metadata line")
            result = result_of(proc.stdout)
            if result is None or set(result) != RESULT_KEYS:
                errors.append(f"{label}: last line is not a result object")
                continue
            listed = run.listed_metrics(trace)
            reported = {n: m["unit"] for n, m in result["metrics"].items()}
            if reported != listed:
                errors.append(f"{label}: result metrics {sorted(reported)} "
                              f"differ from BENCHMARK.json {sorted(listed)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                errors.append(f"{label}: result {result}")


def check_forced_failure(errors):
    build_cells = run.build_cells

    def cap_below_cost(ada, workload):
        m, cells = build_cells(ada, workload)
        first = cells[0]
        method = dataclasses.replace(first.method, cap=0)
        cells[0] = dataclasses.replace(first, method=method)
        return m, cells

    stdout, stderr = io.StringIO(), io.StringIO()
    run.build_cells = cap_below_cost
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run.main(["--workload", "unfiltered", "--seconds", "1",
                             "--trace", "0"])
    finally:
        run.build_cells = build_cells
    result = result_of(stdout.getvalue())
    if code != 1:
        errors.append(f"forced failure: exit {code}, expected 1")
    if result is None or result["correct"]:
        errors.append(f"forced failure: result {result}")
        return
    attempted, failed = result["attempted"], result["failed"]
    if not 0 < failed < attempted:
        errors.append(f"forced failure: {failed} of {attempted} trials failed; "
                      "expected some, and the run to go on")
    frac_lines = [line.split() for line in stdout.getvalue().splitlines()
                  if line.split()[:1] == ["failed_trial_frac"]]
    if not frac_lines or abs(float(frac_lines[0][1]) - failed / attempted) > 1e-5:
        errors.append(f"forced failure: failed_trial_frac line {frac_lines} "
                      f"is not {failed}/{attempted}")
    if "CapViolationError" not in stderr.getvalue():
        errors.append("forced failure: no CapViolationError reported")


def check_missing_source(errors):
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "adaptive-sparse", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_of(proc.stdout) is not None:
        errors.append(f"missing source: exit {proc.returncode}, "
                      f"stdout {proc.stdout!r}")


def main():
    errors = []
    for check in (check_smoke, check_forced_failure, check_missing_source):
        before = len(errors)
        check(errors)
        print(f"{check.__name__}: {'ok' if len(errors) == before else 'FAILED'}")
    for error in errors:
        print(f"  {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
