"""Record the reference errors of the fixed-grid workloads.

    python3 studybench/record_reference.py

Runs one sweep of every workload whose grid does not depend on the seed
and writes e_IN, e_Pi and e_L2 of each cell, at full precision, to
reference.json.  The committed file was recorded from the program as it
stood when the benchmark was defined; re-record it only with a change
that is meant to move these values, and say so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from studybench import checks, run, workloads  # noqa: E402

FIXED_GRID_WORKLOADS = ("k1-chain", "hp-chain", "iter-strong")


def main():
    cells = {}
    for name in FIXED_GRID_WORKLOADS:
        configs = workloads.build_configs(workloads.settings(name, seed=0))
        _, outputs = run.timed_sweep(configs)
        cells[name] = [
            {"k": row.k, "eps": row.eps, "N": row.n, "e_IN": row.e_in,
             "e_Pi": row.e_pi, "e_L2": row.e_l2}
            for report, _ in outputs for row in report.rows]
    record = {"env": run.environment(seed=0), "cells": cells}
    checks.REFERENCE_PATH.write_text(json.dumps(record, indent=1) + "\n",
                                     encoding="utf-8")
    print(f"wrote {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
