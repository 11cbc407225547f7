#!/usr/bin/env python3
"""Gate the benchmark smoke run's simulated metrics against a baseline.

    perf.exe --workload all --seed 1 --smoke --json perf-smoke.json
    python3 ci/check_perf_smoke.py ci/perf_smoke_sim.json perf-smoke.json

The smoke run's simulated and accuracy metrics are exact for a given
seed and commit, so they are compared to the checked-in baseline:
cycles and energy per inference must match exactly; the other sim_*
metrics and output_err_mean (which pass through libm) may differ by a
relative 1e-9. Any failed operation fails the gate. Host metrics are
not checked. A change that means to move a simulated number regenerates
the baseline in the same diff.
"""

import json
import sys

EXACT = {"sim_cycles_per_inf", "sim_energy_uj_per_inf"}
REL_TOL = 1e-9


def main(baseline_path, result_path):
    with open(baseline_path) as f:
        baseline = json.load(f)["workloads"]
    with open(result_path) as f:
        runs = {r["workload"]: r for r in json.load(f)}
    errors = []
    for workload, expected in baseline.items():
        run = runs.get(workload)
        if run is None:
            errors.append(f"{workload}: missing from the result")
            continue
        if run["failed"] > 0:
            errors.append(f"{workload}: {run['failed']} operations failed")
        for metric, want in expected.items():
            got = run["metrics"].get(metric, {}).get("value")
            if got is None:
                errors.append(f"{workload}.{metric}: missing")
            elif metric in EXACT:
                if got != want:
                    errors.append(f"{workload}.{metric}: {got!r} != {want!r}")
            elif abs(got - want) > REL_TOL * max(abs(want), abs(got)):
                errors.append(
                    f"{workload}.{metric}: {got!r} differs from {want!r} "
                    f"by more than {REL_TOL} relative"
                )
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    print(f"{len(baseline)} workloads match {baseline_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
